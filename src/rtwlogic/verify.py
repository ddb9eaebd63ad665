"""Exact end-to-end equivalence between compiled wire programs and the
bit-level oracle, plus the canonical-circuit suite.

The acceptance notion is tick-wise exact integer equality: the transformed
system's signal must match, at every tick, the untransformed signal of the
oracle-mapped superposition. Nothing statistical is involved; the seed only
picks which +-1 pattern witnesses the identity.

Checks that share a seed share one draw of the wires: the canonical suite
runs its six circuits on one bank, and the random trials of a seed run in
one pass over a system as wide as the widest trial, a trial of n bits on
the first n bits' wires. Those are the wires of an n-bit system at that
seed, so every result is the one its check gives alone. A chunk first
proves on packed sign planes, a batch of cases at a time, that each program
realizes its circuit's map; only a case not proved there is evaluated as
integers, so a first mismatch is always an integer one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .compiler import (
    AffineMapGF2,
    GateCircuit,
    Insertion,
    InsertionProgram,
    _check_int,
    circuit_to_affine,
    compile_to_insertions,
    parse_circuit,
    random_cascade,
)
from .hyperspace import Superposition, oracle_apply, superposition_signal
from .reference import DEFAULT_SEED, ReferenceSystem, WireBank, count_window, gather_string_planes, map_window
from .report import Report

DEFAULT_TICKS = 1024

# Shape of each random trial: up to this many gates, bits and terms.
TRIAL_MAX_GATES = 12
TRIAL_MAX_BITS = 8
TRIAL_MAX_TERMS = 32


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of a tick-wise exact signal comparison."""

    ticks_checked: int
    first_mismatch: tuple[int, int, int] | None = None  # (tick, got, expected)

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None

    def to_dict(self) -> dict:
        out = {"pass": self.passed, "ticks_checked": self.ticks_checked}
        if self.first_mismatch is not None:
            tick, got, expected = self.first_mismatch
            out["first_mismatch"] = {"tick": tick, "got": got, "expected": expected}
        return out


def compare_signals(a: np.ndarray, b: np.ndarray) -> EquivalenceResult:
    """Exact comparison of two integer signal traces."""
    if a.shape != b.shape:
        raise ValueError("signal traces differ in length")
    diff = np.nonzero(a != b)[0]
    if diff.size:
        t = int(diff[0])
        return EquivalenceResult(len(a), (t, int(a[t]), int(b[t])))
    return EquivalenceResult(len(a))


def signal_equivalence_check(
    sys: ReferenceSystem,
    circ: GateCircuit,
    y: Superposition,
    ticks: int = DEFAULT_TICKS,
) -> EquivalenceResult:
    """Compiled-program signal of `y` vs untransformed signal of the
    oracle-mapped superposition, exactly, at every tick."""
    return _bank_equivalence(sys, [_oracle_case(circ, y)], ticks)[0]


def universe_invariance_check(
    sys: ReferenceSystem, circ: GateCircuit, ticks: int = DEFAULT_TICKS
) -> EquivalenceResult:
    """Universe signal with and without the compiled program.

    A CNOT-only cascade permutes the 2^N strings, so the full sum is its
    own oracle image. Where the planes do not prove the program, both
    sides are evaluated in factorized form at O(N) per tick, never
    touching the 2^N summands.
    """
    if not circ.is_pure_cnot:
        raise ValueError("universe invariance is stated for CNOT-only cascades")
    return _bank_equivalence(sys, [_oracle_case(circ, Superposition.universe(circ.n_bits))], ticks)[0]


def _oracle_case(circ: GateCircuit, y: Superposition) -> tuple[InsertionProgram, Superposition, AffineMapGF2]:
    """The circuit's compiled program, `y`, and its affine map from the gates."""
    amap = circuit_to_affine(circ)
    return compile_to_insertions(amap), y, amap


def _bank_equivalence(sys: ReferenceSystem, cases, ticks: int) -> list[EquivalenceResult]:
    """Per case `(prog, y, amap)`: the signal of `y` on the program's wires
    vs that of its oracle image under the map on the raw wires; every case
    from one draw of the system's raw bank, chunk by chunk; the first
    mismatch in tick order is kept per case.

    A case of n bits reads the first n bits' wires of each chunk, which are
    the wires of `ReferenceSystem(n, sys.seed)`: a stream key depends only
    on the seed and the channel. Before anything is drawn, a case is refused
    whose three widths differ or exceed the system's. A chunk's cases go
    in batches that fit 2N wire and 2(N + 1) generator planes a case into
    `rows`, the chunk's `WireBank.rows_per_block` (at least one case), and
    each batch's generators are proved `rows` planes at a time: memory is
    bounded by the chunk. A case's oracle image is built once, where the
    planes cannot prove it.
    """
    for prog, y, amap in cases:
        if not prog.n_bits == y.n_bits == amap.n_bits <= sys.n_bits:
            widths = f"(program, y, map) n_bits={prog.n_bits, y.n_bits, amap.n_bits}"
            raise ValueError(f"case {widths} does not match system n_bits={sys.n_bits}")

    @cache
    def expected_y(i: int) -> Superposition:
        _, y, amap = cases[i]
        return oracle_apply(amap, y)

    def consume(lo: int, raw: WireBank) -> list:
        found = []
        rows = raw.rows_per_block
        per_batch = max(1, rows // (2 * sys.n_bits + 2 * (sys.n_bits + 1)))
        for first in range(0, len(cases), per_batch):
            batch = cases[first : first + per_batch]
            raws = [WireBank(raw.planes[: prog.n_bits], raw.n_ticks) for prog, _, _ in batch]
            banks = [case_raw.apply(prog) for case_raw, (prog, _, _) in zip(raws, batch)]
            equal = _equal_on_planes(raws, banks, [amap for _, _, amap in batch], rows)
            for i, (case_raw, bank, (_, y, _), proved) in enumerate(zip(raws, banks, batch, equal), first):
                found.append(None if proved else _first_mismatch(lo, case_raw, bank, y, expected_y(i)))
        return found

    per_chunk = map_window(sys, count_window(ticks), consume)
    return [EquivalenceResult(ticks, next(filter(None, column), None)) for column in zip(*per_chunk)]


def _first_mismatch(
    lo: int, raw: WireBank, bank: WireBank, y: Superposition, expected_y: Superposition
) -> tuple[int, int, int] | None:
    """First (tick, got, expected) of one chunk where the signal of `y` on
    `bank` differs from that of `expected_y` on `raw`, or None, from both
    signals as integers; `lo` is the chunk's first tick."""
    transformed, expected = superposition_signal(bank, y), superposition_signal(raw, expected_y)
    mismatch = compare_signals(transformed, expected).first_mismatch
    return mismatch and (lo + mismatch[0], *mismatch[1:])


def _equal_on_planes(raws: list[WireBank], banks: list[WireBank], maps: list[AffineMapGF2], rows: int) -> list[bool]:
    """Per case of a batch, whether the sign planes prove that its wires
    `bank` realize its map f on its raw wires `raw` at every tick of the
    chunk; False where they cannot tell.

    Every product string is P_s = B ^ XOR_{i in s} N_i
    (`WireBank.operators`) and f is affine, so D(s) = P'_s ^ P_f(s), the
    plane of s on `bank` against that of f(s) on `raw`, is affine in s:
    zero on 0 and on each e_j, it is zero for every s. Then every term of
    any `y` has its image's plane, so the signals of `y` and of its oracle
    image are equal (merging colliding images is linear). The n + 1
    generators of every case form one flat list of (case, string, image),
    compared `rows` planes at a time: each side of a slice is one gather.
    """
    equal, owners, strings, images = [True] * len(maps), [], [], []
    for i, amap in enumerate(maps):
        generators = [0, *(1 << j for j in range(amap.n_bits))]
        owners += [i] * len(generators)
        strings += generators
        images += amap.apply_all(generators)
    owners = np.array(owners, dtype=np.intp)
    for lo in range(0, len(strings), rows):
        part = slice(lo, lo + rows)
        differ = gather_string_planes(banks, owners[part], strings[part])
        differ ^= gather_string_planes(raws, owners[part], images[part])
        for i in owners[part][raws[0].count(differ) > 0].tolist():
            equal[i] = False
    return equal


def random_explicit(rng: random.Random, n_bits: int, max_terms: int) -> Superposition:
    """Random explicit superposition with small nonzero signed coefficients."""
    count = rng.randint(1, max_terms)
    strings = rng.sample(range(1 << n_bits), min(count, 1 << n_bits))
    return Superposition.explicit(
        n_bits, {s: rng.choice((-3, -2, -1, 1, 2, 3)) for s in strings}
    )


@dataclass
class TrialRecord:
    """One random-equivalence trial and its outcome; texts render on read."""

    circuit: GateCircuit
    superposition: Superposition
    seed: int
    result: EquivalenceResult

    @property
    def circuit_text(self) -> str:
        return self.circuit.to_text()

    @property
    def superposition_text(self) -> str:
        return self.superposition.to_text()

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit_text.splitlines(),
            "superposition": self.superposition_text,
            "seed": self.seed,
            **self.result.to_dict(),
        }


@dataclass
class TrialsReport:
    """Batch of random-equivalence trials; passes iff all trials pass."""

    trials: list[TrialRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(t.result.passed for t in self.trials)

    def failures(self) -> list[TrialRecord]:
        return [t for t in self.trials if not t.result.passed]

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "trials": len(self.trials),
            "failures": [t.to_dict() for t in self.failures()],
        }

    def lines(self) -> list[str]:
        mark = "ok " if self.passed else "FAIL"
        out = [f"[{mark}] random equivalence: {len(self.trials)} trials, {len(self.failures())} failures"]
        for t in self.failures():
            out.append(f"  mismatch at seed={t.seed}: {t.circuit_text.splitlines()} on {t.superposition_text}")
        return out


def random_equivalence_trials(
    n_trials: int,
    seeds: tuple[int, ...] = (DEFAULT_SEED,),
    ticks: int = DEFAULT_TICKS,
    draw_seed: int = 0,
) -> TrialsReport:
    """Check `n_trials` random (circuit, superposition) pairs under each
    reference seed.

    Every input is drawn first, and each trial is compiled and
    oracle-mapped once; a record renders its texts only when they are
    read. Then all trials of a seed are checked in one pass over the wires
    of a system as wide as the widest trial (see `_bank_equivalence`). A
    trial of n bits reads exactly the wires of `ReferenceSystem(n, seed)`,
    so each record is the result of `signal_equivalence_check` on that
    system and replays alone from its seed and texts.
    """
    _check_int(n_trials, "n_trials", 1)
    _check_int(len(seeds), "the number of seeds", 1)
    count_window(ticks)  # a bad window is refused before anything is drawn
    _check_int(draw_seed, "draw_seed", 0, 1 << 64)  # random.Random would take abs(seed), and floats
    rng = random.Random(draw_seed)
    trials = []
    for _ in range(n_trials):
        n_bits = rng.randint(2, TRIAL_MAX_BITS)
        circ = random_cascade(rng, n_bits, rng.randint(1, TRIAL_MAX_GATES), not_rate=0.2)
        trials.append((circ, random_explicit(rng, n_bits, TRIAL_MAX_TERMS)))
    cases = [_oracle_case(circ, y) for circ, y in trials]
    width = max(y.n_bits for _, y in trials)
    results = [_bank_equivalence(ReferenceSystem(width, seed), cases, ticks) for seed in seeds]
    return TrialsReport(
        [TrialRecord(*trials[i], seed, per_seed[i]) for i in range(n_trials) for seed, per_seed in zip(seeds, results)]
    )


# Canonical circuits: name -> (circuit text, expected insertions), whose
# size is the expected M. They cover the single NOT, the single CNOT, and
# both orderings of the 2- and 3-gate chained cascades (the interacting
# direction needs extra correction operators on earlier control wires).
CANONICAL_CIRCUITS: dict[str, tuple[str, frozenset[Insertion]]] = {
    "not_gate": (
        "NOT 2",
        frozenset({Insertion(2, 0, 2), Insertion(2, 1, 2)}),
    ),
    "single_cnot": (
        "CNOT 1 2",
        frozenset({Insertion(1, 1, 2)}),
    ),
    "noninteracting_pair": (
        "CNOT 1 2\nCNOT 0 1",
        frozenset({Insertion(0, 1, 1), Insertion(1, 1, 2)}),
    ),
    "interacting_pair": (
        "CNOT 0 1\nCNOT 1 2",
        frozenset({Insertion(0, 1, 1), Insertion(1, 1, 2), Insertion(0, 1, 2)}),
    ),
    "noninteracting_chain3": (
        "CNOT 2 3\nCNOT 1 2\nCNOT 0 1",
        frozenset({Insertion(0, 1, 1), Insertion(1, 1, 2), Insertion(2, 1, 3)}),
    ),
    "interacting_chain3": (
        "CNOT 0 1\nCNOT 1 2\nCNOT 2 3",
        frozenset(
            {
                Insertion(0, 1, 1),
                Insertion(0, 1, 2),
                Insertion(1, 1, 2),
                Insertion(0, 1, 3),
                Insertion(1, 1, 3),
                Insertion(2, 1, 3),
            }
        ),
    ),
}

SUITE_BITS = 4


@dataclass
class SuiteEntry:
    """One canonical circuit: compiled program vs expectation, plus the
    signal-level equivalence on all 2^4 strings."""

    name: str
    program: InsertionProgram
    expected: frozenset[Insertion]
    equivalence: EquivalenceResult

    @property
    def program_ok(self) -> bool:
        return self.program.insertions == self.expected

    @property
    def passed(self) -> bool:
        return self.program_ok and self.equivalence.passed

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "program_ok": self.program_ok,
            "M": self.program.m,
            "expected_M": len(self.expected),
            "insertions": [i.to_dict() for i in self.program.sorted_insertions()],
            "equivalence": self.equivalence.to_dict(),
        }

    def line(self) -> str:
        return (
            f"{self.name}: M={self.program.m} (expected {len(self.expected)}), "
            f"program {'matches' if self.program_ok else 'DIFFERS'}, "
            f"equivalence over {self.equivalence.ticks_checked} ticks "
            f"{'exact' if self.equivalence.passed else 'MISMATCH'}"
        )


def canonical_suite(seed: int = DEFAULT_SEED, ticks: int = DEFAULT_TICKS) -> Report:
    """Compile every canonical circuit, check the exact insertion sets and
    hardware counts, and verify signal equivalence on the sum of all 2^4
    strings with coefficients 1..16, every circuit on one draw of the wires."""
    circuits = [parse_circuit(text, n_bits=SUITE_BITS) for text, _ in CANONICAL_CIRCUITS.values()]
    # Distinct coefficients: a program whose map differs from the circuit's
    # moves some coefficient to another string, so its signal differs.
    weighted = Superposition.explicit(SUITE_BITS, {s: s + 1 for s in range(1 << SUITE_BITS)})
    cases = [_oracle_case(circ, weighted) for circ in circuits]
    results = _bank_equivalence(ReferenceSystem(SUITE_BITS, seed), cases, ticks)
    report = Report()
    for (name, (_, expected)), case, equivalence in zip(CANONICAL_CIRCUITS.items(), cases, results):
        report.entries.append(SuiteEntry(name, case[0], expected, equivalence))
    return report

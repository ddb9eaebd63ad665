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
seed, so every result is the one its check gives alone. A chunk is first
compared on packed sign planes, pattern against pattern or term against
oracle image, a batch of cases at a time; only a case not proved equal there
is evaluated as integers, so a first mismatch is always an integer one.
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
from .hyperspace import _BLOCK_TICKS, Superposition, oracle_apply, superposition_signal
from .reference import DEFAULT_SEED, ReferenceSystem, WireBank, count_window, gather_string_planes, map_window
from .report import Report

DEFAULT_TICKS = 1024

# Shape of each random trial: up to this many gates, bits and terms.
TRIAL_MAX_GATES = 12
TRIAL_MAX_BITS = 8
TRIAL_MAX_TERMS = 32

# Explicit sums of at most this many terms are first compared term by term
# (`_equal_on_planes`): the packed planes of 64 terms take as many bytes as
# one int64 signal of the same ticks.
_TERMWISE_MAX_TERMS = 64


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
    """Factorized universe signal with and without the compiled program.

    A CNOT-only cascade permutes the 2^N strings, so the full sum is
    unchanged; both sides are evaluated in factorized form at O(N) per
    tick, never touching the 2^N summands.
    """
    if not circ.is_pure_cnot:
        raise ValueError("universe invariance is stated for CNOT-only cascades")
    universe = Superposition.universe(circ.n_bits)
    case = (compile_to_insertions(circuit_to_affine(circ)), universe, universe)
    return _bank_equivalence(sys, [case], ticks)[0]


def _oracle_case(circ: GateCircuit, y: Superposition) -> tuple[InsertionProgram, Superposition, AffineMapGF2]:
    """The circuit's compiled program, `y`, and its affine map from the gates."""
    amap = circuit_to_affine(circ)
    return compile_to_insertions(amap), y, amap


def _bank_equivalence(sys: ReferenceSystem, cases, ticks: int) -> list[EquivalenceResult]:
    """Per case `(prog, y, expected)`: the signal of `y` on the program's
    wires vs, on the raw wires, that of `expected` or, for a map, of its
    oracle image of `y`; every case from one draw of the system's raw bank,
    chunk by chunk; the first mismatch in tick order is kept per case.

    A case of n bits reads the first n bits' wires of each chunk, which are
    the wires of `ReferenceSystem(n, sys.seed)`: a stream key depends only
    on the seed and the channel. Before anything is drawn, a case is refused
    whose three widths differ or exceed the system's. A chunk's cases go
    in batches that fit 2N wire and 2 * 64 term planes a case into
    _BLOCK_TICKS plane ticks (at least one case): memory is bounded by the
    chunk. A map's image is built once, where the planes cannot prove it.
    """
    for prog, y, expected in cases:
        if not prog.n_bits == y.n_bits == expected.n_bits <= sys.n_bits:
            widths = f"(program, y, expected_y) n_bits={prog.n_bits, y.n_bits, expected.n_bits}"
            raise ValueError(f"case {widths} does not match system n_bits={sys.n_bits}")

    @cache
    def expected_y(i: int) -> Superposition:
        _, y, expected = cases[i]
        return oracle_apply(expected, y) if isinstance(expected, AffineMapGF2) else expected

    def consume(lo: int, raw: WireBank) -> list:
        found = []
        per_batch = max(1, _BLOCK_TICKS // (raw.planes.shape[-1] * 8) // (2 * sys.n_bits + 2 * _TERMWISE_MAX_TERMS))
        for first in range(0, len(cases), per_batch):
            batch = cases[first : first + per_batch]
            raws = [WireBank(raw.planes[: prog.n_bits], raw.n_ticks) for prog, _, _ in batch]
            banks = [case_raw.apply(prog) for case_raw, (prog, _, _) in zip(raws, batch)]
            equal = _equal_on_planes(raws, banks, batch)
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


def _equal_on_planes(raws: list[WireBank], banks: list[WireBank], cases) -> list[bool]:
    """Per case of a batch, whether the sign planes prove the signal of `y`
    on its effective wires `bank` equal to the expected signal on its raw
    wires `raw` at every tick of the chunk; False where they cannot tell.

    Two patterns with k free bits each have signals of 0 or +-2^k: they
    differ where exactly one is zero, or where neither is and the signs
    differ. An explicit `y` of up to _TERMWISE_MAX_TERMS terms against a
    map f is proved where every term's effective plane P'_s equals the raw
    plane P_f(s): then sum c_s P'_s = sum c_s P_f(s), the signal of the
    oracle image, since merging colliding images is linear. A correct
    program makes every such pair equal. The terms of all such cases go in
    blocks of at most _BLOCK_TICKS plane ticks a side, a case's in one or
    more pieces, and each side of a block is one gather.
    """
    equal = [False] * len(cases)
    rows, blocks, room = max(1, _BLOCK_TICKS // (raws[0].planes.shape[-1] * 8)), [], 0
    for i, (raw, bank, (_, y, expected)) in enumerate(zip(raws, banks, cases)):
        if isinstance(expected, AffineMapGF2):
            equal[i] = not y.is_pattern and y.term_count <= _TERMWISE_MAX_TERMS
            strings = [s for s, _ in y.terms] if equal[i] else []
            for piece in (strings[k : k + rows] for k in range(0, len(strings), rows)):
                if len(piece) > room:
                    blocks.append([])
                    room = rows
                blocks[-1].append((i, piece))
                room -= len(piece)
        elif y.is_pattern and expected.is_pattern and y.free_bit_count == expected.free_bit_count:
            zero_a, sign_a = bank.pattern_planes(y.offset, y.free)
            zero_b, sign_b = raw.pattern_planes(expected.offset, expected.free)
            equal[i] = not raw.count((zero_a ^ zero_b) | (~zero_a & (sign_a ^ sign_b)))
    for block in blocks:
        effective = gather_string_planes([(banks[i], piece) for i, piece in block])
        effective ^= gather_string_planes([(raws[i], cases[i][2].apply_all(piece)) for i, piece in block])
        owners = np.repeat([i for i, _ in block], [len(piece) for _, piece in block])
        for i in owners[raws[0].count(effective) > 0].tolist():
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


# Canonical circuits: name -> (circuit text, expected insertions, expected M).
# They cover the single NOT, the single CNOT, and both orderings of the
# 2- and 3-gate chained cascades (the interacting direction needs extra
# correction operators on earlier control wires).
CANONICAL_CIRCUITS: dict[str, tuple[str, frozenset[Insertion], int]] = {
    "not_gate": (
        "NOT 2",
        frozenset({Insertion(2, 0, 2), Insertion(2, 1, 2)}),
        2,
    ),
    "single_cnot": (
        "CNOT 1 2",
        frozenset({Insertion(1, 1, 2)}),
        1,
    ),
    "noninteracting_pair": (
        "CNOT 1 2\nCNOT 0 1",
        frozenset({Insertion(0, 1, 1), Insertion(1, 1, 2)}),
        2,
    ),
    "interacting_pair": (
        "CNOT 0 1\nCNOT 1 2",
        frozenset({Insertion(0, 1, 1), Insertion(1, 1, 2), Insertion(0, 1, 2)}),
        3,
    ),
    "noninteracting_chain3": (
        "CNOT 2 3\nCNOT 1 2\nCNOT 0 1",
        frozenset({Insertion(0, 1, 1), Insertion(1, 1, 2), Insertion(2, 1, 3)}),
        3,
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
        6,
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
    expected_m: int
    equivalence: EquivalenceResult

    @property
    def program_ok(self) -> bool:
        return self.program.insertions == self.expected and self.program.m == self.expected_m

    @property
    def passed(self) -> bool:
        return self.program_ok and self.equivalence.passed

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "program_ok": self.program_ok,
            "M": self.program.m,
            "expected_M": self.expected_m,
            "insertions": [i.to_dict() for i in self.program.sorted_insertions()],
            "equivalence": self.equivalence.to_dict(),
        }

    def line(self) -> str:
        return (
            f"{self.name}: M={self.program.m} (expected {self.expected_m}), "
            f"program {'matches' if self.program_ok else 'DIFFERS'}, "
            f"equivalence over {self.equivalence.ticks_checked} ticks "
            f"{'exact' if self.equivalence.passed else 'MISMATCH'}"
        )


def canonical_suite(seed: int = DEFAULT_SEED, ticks: int = DEFAULT_TICKS) -> Report:
    """Compile every canonical circuit, check the exact insertion sets and
    hardware counts, and verify signal equivalence on the sum of all 2^4
    strings with coefficients 1..16, every circuit on one draw of the wires."""
    circuits = [parse_circuit(text, n_bits=SUITE_BITS) for text, _, _ in CANONICAL_CIRCUITS.values()]
    # Distinct coefficients: a program whose map differs from the circuit's
    # moves some coefficient to another string, so its signal differs.
    weighted = Superposition.explicit(SUITE_BITS, {s: s + 1 for s in range(1 << SUITE_BITS)})
    cases = [_oracle_case(circ, weighted) for circ in circuits]
    results = _bank_equivalence(ReferenceSystem(SUITE_BITS, seed), cases, ticks)
    report = Report()
    for (name, (_, expected, expected_m)), case, equivalence in zip(CANONICAL_CIRCUITS.items(), cases, results):
        report.entries.append(SuiteEntry(name, case[0], expected, expected_m, equivalence))
    return report

"""Exact end-to-end equivalence between compiled wire programs and the
bit-level oracle, plus the canonical-circuit suite.

The acceptance notion is tick-wise exact integer equality: the transformed
system's signal must match, at every tick, the untransformed signal of the
oracle-mapped superposition. Nothing statistical is involved; the seed only
picks which +-1 pattern witnesses the identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .compiler import (
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
from .reference import DEFAULT_SEED, ReferenceSystem, WireBank, count_window, map_window
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
    amap = circuit_to_affine(circ)
    return _bank_equivalence(sys, compile_to_insertions(amap), y, oracle_apply(amap, y), ticks)


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
    universe = Superposition.universe(sys.n_bits)
    return _bank_equivalence(sys, compile_to_insertions(circuit_to_affine(circ)), universe, universe, ticks)


def _bank_equivalence(
    sys: ReferenceSystem, prog: InsertionProgram, y: Superposition, expected_y: Superposition, ticks: int
) -> EquivalenceResult:
    """Signal of `y` on the program's wires vs signal of `expected_y` on the
    raw wires, both from one draw of the raw bank, chunk by chunk; the
    first mismatch in tick order is kept."""
    patterns = y.is_pattern and expected_y.is_pattern and y.free_bit_count == expected_y.free_bit_count

    def consume(lo: int, raw: WireBank, bank: WireBank) -> tuple[int, int, int] | None:
        if patterns:
            # Both signals are 0 or +-2^k: they differ where exactly one is
            # zero, or where neither is and the signs differ. Only a chunk
            # with such a tick is evaluated as integers, below.
            zero_a, sign_a = bank.pattern_planes(y.allowed)
            zero_b, sign_b = raw.pattern_planes(expected_y.allowed)
            differ = (zero_a ^ zero_b) | (~zero_a & (sign_a ^ sign_b))
            if not raw.count(differ):
                return None
        transformed, expected = superposition_signal(bank, y), superposition_signal(raw, expected_y)
        mismatch = compare_signals(transformed, expected).first_mismatch
        return mismatch and (lo + mismatch[0], *mismatch[1:])

    mismatches = map_window(sys, count_window(ticks), consume, prog)
    return EquivalenceResult(ticks, next(filter(None, mismatches), None))


def random_explicit(rng: random.Random, n_bits: int, max_terms: int) -> Superposition:
    """Random explicit superposition with small nonzero signed coefficients."""
    count = rng.randint(1, max_terms)
    strings = rng.sample(range(1 << n_bits), min(count, 1 << n_bits))
    return Superposition.explicit(
        n_bits, {s: rng.choice((-3, -2, -1, 1, 2, 3)) for s in strings}
    )


@dataclass
class TrialRecord:
    """One random-equivalence trial and its outcome."""

    circuit_text: str
    superposition_text: str
    seed: int
    result: EquivalenceResult

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
    reference seed."""
    _check_int(n_trials, "n_trials", 1)
    _check_int(len(seeds), "the number of seeds", 1)
    rng = random.Random(draw_seed)
    report = TrialsReport()
    for _ in range(n_trials):
        n_bits = rng.randint(2, TRIAL_MAX_BITS)
        circ = random_cascade(rng, n_bits, rng.randint(1, TRIAL_MAX_GATES), not_rate=0.2)
        y = random_explicit(rng, n_bits, TRIAL_MAX_TERMS)
        for seed in seeds:
            system = ReferenceSystem(n_bits, seed)
            result = signal_equivalence_check(system, circ, y, ticks)
            report.trials.append(TrialRecord(circ.to_text(), y.to_text(), seed, result))
    return report


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
    signal-level equivalence on the expanded universe."""

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
    hardware counts, and verify signal equivalence on all 2^4 strings."""
    report = Report()
    system = ReferenceSystem(SUITE_BITS, seed)
    everything = Superposition.universe(SUITE_BITS).expand()
    for name, (text, expected, expected_m) in CANONICAL_CIRCUITS.items():
        circ = parse_circuit(text, n_bits=SUITE_BITS)
        program = compile_to_insertions(circuit_to_affine(circ))
        equivalence = signal_equivalence_check(system, circ, everything, ticks)
        report.entries.append(SuiteEntry(name, program, expected, expected_m, equivalence))
    return report

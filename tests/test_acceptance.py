"""Acceptance gate: eight criteria, each printing one pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
criterion also asserts, so plain pytest enforces the same gate.
"""

import random
import time

import numpy as np

from rtwlogic.compiler import (
    GateCircuit,
    Insertion,
    circuit_to_affine,
    cnot,
    compile_circuit,
    conjecture_scan,
    interacting_chain,
    noninteracting_chain,
    not_gate,
    parse_circuit,
)
from rtwlogic.hyperspace import (
    Superposition,
    membership_estimate,
    oracle_apply,
    superposition_sample,
    zero_fraction,
)
from rtwlogic.reference import ReferenceSystem, orthogonality_report, tick_range
from rtwlogic.verify import (
    TRIAL_MAX_BITS,
    TRIAL_MAX_GATES,
    TRIAL_MAX_TERMS,
    canonical_suite,
    random_equivalence_trials,
    signal_equivalence_check,
    universe_invariance_check,
)


def _finish(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_canonical_circuits_compile_exactly():
    start = time.perf_counter()
    expected = {
        "not_gate": (frozenset({Insertion(2, 0, 2), Insertion(2, 1, 2)}), 2),
        "single_cnot": (frozenset({Insertion(1, 1, 2)}), 1),
        "noninteracting_pair": (frozenset({Insertion(0, 1, 1), Insertion(1, 1, 2)}), 2),
        "interacting_pair": (
            frozenset({Insertion(0, 1, 1), Insertion(1, 1, 2), Insertion(0, 1, 2)}),
            3,
        ),
        "noninteracting_chain3": (
            frozenset({Insertion(0, 1, 1), Insertion(1, 1, 2), Insertion(2, 1, 3)}),
            3,
        ),
        "interacting_chain3": (
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
    suite = canonical_suite(seed=42, ticks=256)
    mismatches = []
    for entry in suite.entries:
        want_set, want_m = expected[entry.name]
        if entry.program.insertions != want_set or entry.program.m != want_m:
            mismatches.append(entry.name)
        if not entry.equivalence.passed:
            mismatches.append(f"{entry.name}(signal)")
    elapsed = time.perf_counter() - start
    ok = not mismatches and suite.passed and elapsed < 1.0
    _finish(
        1,
        ok,
        f"6 canonical circuits, exact programs and hardware counts, "
        f"{elapsed:.3f}s" + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_2_random_circuits_match_the_bit_oracle():
    # the criterion's trial shape: up to 12 gates on up to 8 bits, up to 32 terms
    shape = (TRIAL_MAX_GATES, TRIAL_MAX_BITS, TRIAL_MAX_TERMS)
    start = time.perf_counter()
    report = random_equivalence_trials(
        100,
        seeds=(42, 1, 12345),
        ticks=1024,
        draw_seed=2024,
    )
    elapsed = time.perf_counter() - start
    ok = report.passed and len(report.trials) == 300 and shape == (12, 8, 32) and elapsed < 60.0
    _finish(
        2,
        ok,
        f"100 random circuit/superposition pairs x 3 seeds, T=1024, "
        f"{len(report.failures())} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_universe_invariance_at_twenty_bits():
    start = time.perf_counter()
    system = ReferenceSystem(20, 42)
    circ = interacting_chain(19)  # covers all 20 bits
    res = universe_invariance_check(system, circ, ticks=4096)
    elapsed = time.perf_counter() - start
    # the factorized evaluation touches N*T wire samples, never the 2^20
    # strings; seconds, not hours
    ok = res.passed and res.ticks_checked == 4096 and elapsed < 10.0
    _finish(
        3,
        ok,
        f"2^20-term superposition through a 19-gate cascade, T=4096, "
        f"exact={res.passed}, {elapsed:.2f}s",
    )


def test_criterion_4_orthogonality_statistics_at_one_million_ticks():
    ticks = 1_000_000
    report = orthogonality_report(ReferenceSystem(3, 42), ticks)
    squares = [e for e in report.entries if e.name.endswith("^2]")]
    squares_exact = all(e.estimate == 1.0 and e.tolerance == 0.0 for e in squares)
    tol = 5.0 / np.sqrt(ticks)
    others = [e for e in report.entries if not e.name.endswith("^2]")]
    within = all(abs(e.estimate - e.expected) <= tol for e in others)
    ok = report.passed and squares_exact and within and len(squares) == 6
    worst = max(abs(e.estimate - e.expected) for e in others)
    _finish(
        4,
        ok,
        f"{len(others)} mean/correlation estimators within {tol:.4f} "
        f"(worst {worst:.5f}), {len(squares)} squares exactly 1, T={ticks}",
    )


def test_criterion_5_universe_zero_fraction_at_ten_bits():
    ticks = 1_000_000
    entry = zero_fraction(
        ReferenceSystem(10, 42), Superposition.universe(10), ticks
    ).entries[0]
    ok = entry.passed and entry.expected == 1.0 - 2.0**-10
    _finish(
        5,
        ok,
        f"zero fraction {entry.estimate:.6f} vs {entry.expected:.6f}, "
        f"band {entry.tolerance:.6f}, T={ticks}",
    )


def test_criterion_6_membership_readout_with_eight_strings():
    ticks = 1_000_000
    system = ReferenceSystem(8, 42)
    rng = random.Random(6)
    strings = rng.sample(range(256), 16)
    members, outsiders = strings[:8], strings[8:12]
    y = Superposition.from_strings(8, members)
    tol = 5.0 * np.sqrt(8 / ticks)
    results = []
    for probe in members[:4]:
        entry = membership_estimate(system, None, y, probe, ticks).entries[0]
        results.append((entry, 1.0))
    for probe in outsiders:
        entry = membership_estimate(system, None, y, probe, ticks).entries[0]
        results.append((entry, 0.0))
    ok = all(
        e.expected == want and e.passed and abs(e.tolerance - tol) < 1e-12
        for e, want in results
    )
    worst = max(abs(e.estimate - e.expected) for e, _ in results)
    _finish(
        6,
        ok,
        f"4 member + 4 non-member probes on |Y|=8, worst error {worst:.5f} "
        f"within {tol:.5f}, T={ticks}",
    )


def test_criterion_7_hardware_count_bounds_and_scan():
    problems = []
    for length in range(1, 11):
        low = compile_circuit(noninteracting_chain(length)).m
        high = compile_circuit(interacting_chain(length)).m
        if low != length or high != length * (length + 1) // 2:
            problems.append(f"L={length}: M={low},{high}")
    cancelling = compile_circuit(parse_circuit("CNOT 0 1\nCNOT 0 1"))
    if cancelling.m != 0:
        problems.append("cancelling pair not empty")
    scan = conjecture_scan(5, 6, 10_000, seed=0)
    if any(m > 15 for m in scan.histogram):
        problems.append("M above 15 observed")
    for v in scan.violations:
        replay = compile_circuit(parse_circuit(v.circuit_text, n_bits=6)).m
        if v.bound != "lower" or replay != v.m or v.m >= 5:
            problems.append(f"bad violation record {v}")
    ok = not problems
    _finish(
        7,
        ok,
        f"chains L=1..10 attain both bounds; 10000-cascade scan max M="
        f"{max(scan.histogram)}, {len(scan.violations)} cancelling cascades "
        f"flagged with witnesses" + (f"; problems: {problems}" if problems else ""),
    )


def test_criterion_8_involutions_and_linearity():
    problems = []
    window = tick_range(64)
    for n_bits in range(2, 7):
        system = ReferenceSystem(n_bits, 42)
        gates = [not_gate(t) for t in range(n_bits)]
        gates += [cnot(c, t) for c in range(n_bits) for t in range(n_bits) if c != t]
        for gate in gates:
            doubled = GateCircuit(n_bits, (gate, gate))
            prog = compile_circuit(doubled)
            if prog.m != 0:
                problems.append(f"N={n_bits} {gate.to_text()}^2 -> M={prog.m}")
            amap = circuit_to_affine(doubled)
            if any(amap.apply(s) != s for s in range(1 << n_bits)):
                problems.append(f"N={n_bits} {gate.to_text()}^2 not identity")
        rng = random.Random(n_bits)
        circ = GateCircuit(n_bits, (cnot(0, 1), not_gate(n_bits - 1)))
        prog = compile_circuit(circ)
        amap = circuit_to_affine(circ)
        for _ in range(3):
            a = Superposition.explicit(
                n_bits, {rng.randrange(1 << n_bits): rng.choice((-2, -1, 1, 2)) for _ in range(4)}
            )
            b = Superposition.explicit(
                n_bits, {rng.randrange(1 << n_bits): rng.choice((-2, -1, 1, 2)) for _ in range(4)}
            )
            merged = superposition_sample(system, prog, a + b, window)
            split = superposition_sample(system, prog, a, window) + superposition_sample(
                system, prog, b, window
            )
            if not np.array_equal(merged, split):
                problems.append(f"N={n_bits} signal not additive")
            if oracle_apply(amap, a + b) != oracle_apply(amap, a) + oracle_apply(amap, b):
                problems.append(f"N={n_bits} oracle not additive")
            if not signal_equivalence_check(system, circ, a, ticks=64).passed:
                problems.append(f"N={n_bits} equivalence failed")
    ok = not problems
    _finish(
        8,
        ok,
        "gate self-inverses compile to empty programs (exhaustive N=2..6) "
        "and signals add term-wise under compiled programs"
        + (f"; problems: {problems}" if problems else ""),
    )

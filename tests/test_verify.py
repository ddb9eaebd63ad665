"""End-to-end equivalence: compiled wire programs against the bit-level
oracle, universe invariance, and the canonical circuit suite."""

import random

import numpy as np
import pytest

from rtwlogic.compiler import (
    GateCircuit,
    InsertionProgram,
    cnot,
    compile_circuit,
    interacting_chain,
    not_gate,
    random_cascade,
)
from rtwlogic.hyperspace import Superposition, parse_superposition, superposition_signal
from rtwlogic.reference import ReferenceSystem, WireBank, tick_range
from rtwlogic.verify import (
    CANONICAL_CIRCUITS,
    _bank_equivalence,
    EquivalenceResult,
    canonical_suite,
    compare_signals,
    random_equivalence_trials,
    signal_equivalence_check,
    universe_invariance_check,
)


def test_compare_signals_reports_first_mismatch():
    a = np.array([1, -1, 3, -1], dtype=np.int64)
    b = np.array([1, -1, -3, 1], dtype=np.int64)
    res = compare_signals(a, b)
    assert not res.passed
    assert res.first_mismatch == (2, 3, -3)
    assert res.to_dict()["first_mismatch"]["tick"] == 2
    with pytest.raises(ValueError):
        compare_signals(a, b[:2])


def test_compare_signals_passes_on_equal_traces():
    a = np.arange(8, dtype=np.int64)
    res = compare_signals(a, a.copy())
    assert res.passed and res.ticks_checked == 8
    assert res.to_dict() == {"pass": True, "ticks_checked": 8}


def test_empty_circuit_is_trivially_equivalent():
    sys3 = ReferenceSystem(3, 42)
    circ = GateCircuit(3, ())
    y = parse_superposition("011;2*101")
    assert signal_equivalence_check(sys3, circ, y, ticks=128).passed


def test_controlled_flip_acts_on_every_control_high_string_at_once():
    # all four strings with the control bit high, in one superposition: the
    # compiled program's signal equals the base signal of the four strings
    # with the target bit flipped
    sys3 = ReferenceSystem(3, 42)
    circ = GateCircuit(3, (cnot(1, 2),))
    members = [s for s in range(8) if (s >> 1) & 1]
    y = Superposition.from_strings(3, members)
    assert signal_equivalence_check(sys3, circ, y, ticks=512).passed
    from rtwlogic.compiler import circuit_to_affine
    from rtwlogic.hyperspace import oracle_apply

    image = oracle_apply(circuit_to_affine(circ), y)
    assert {s for s, _ in image.terms} == {s ^ 0b100 for s in members}


def test_equivalence_detects_a_wrong_program():
    # sanity check that the checker can fail: compare against a deliberately
    # different circuit's signal
    sys2 = ReferenceSystem(2, 42)
    y = Superposition.explicit(2, {0: 1})
    good = signal_equivalence_check(sys2, GateCircuit(2, (not_gate(0),)), y, ticks=64)
    assert good.passed
    from rtwlogic.compiler import circuit_to_affine, compile_circuit
    from rtwlogic.hyperspace import oracle_apply, superposition_sample
    from rtwlogic.reference import tick_range

    wrong_prog = compile_circuit(GateCircuit(2, (not_gate(1),)))
    window = tick_range(64)
    a = superposition_sample(sys2, wrong_prog, y, window)
    amap = circuit_to_affine(GateCircuit(2, (not_gate(0),)))
    b = superposition_sample(sys2, None, oracle_apply(amap, y), window)
    assert not compare_signals(a, b).passed


def test_universe_invariance_for_cnot_cascades():
    sys8 = ReferenceSystem(8, 42)
    circ = interacting_chain(7)
    res = universe_invariance_check(sys8, circ, ticks=4096)
    assert res.passed and res.ticks_checked == 4096


def random_pattern(rng: random.Random, n_bits: int, free: int) -> Superposition:
    free_bits = set(rng.sample(range(n_bits), free))
    return Superposition.pattern([(0, 1) if b in free_bits else (rng.randint(0, 1),) for b in range(n_bits)])


def test_packed_pattern_compare_matches_the_int64_compare():
    # Pattern pairs with equal free-bit counts are compared on packed planes;
    # the result must be the one the int64 signals give, first mismatch
    # included, on windows that are not whole 64-tick words.
    rng = random.Random(2024)
    outcomes = []
    for case in range(400):
        n_bits = rng.randint(2, 7)
        if case % 4 == 0:
            # a CNOT cascade permutes the universe: these cases pass
            y = expected_y = Superposition.universe(n_bits)
            prog = compile_circuit(random_cascade(rng, n_bits, rng.randint(1, 8), not_rate=0.0))
        else:
            free = rng.randint(0, n_bits)
            y = random_pattern(rng, n_bits, free)
            expected_y = random_pattern(rng, n_bits, free if case % 4 != 3 else rng.randint(0, n_bits))
            triples = [(rng.randrange(n_bits), rng.randint(0, 1), rng.randrange(n_bits)) for _ in range(5)]
            prog = InsertionProgram.from_pairs(n_bits, triples[: rng.randint(0, 5)])
        ticks = rng.choice([1, 63, 65, 127, 200, 1000, 4097])
        system = ReferenceSystem(n_bits, rng.randrange(1 << 64))
        raw = WireBank.draw(system, tick_range(ticks))
        transformed = superposition_signal(raw.apply(prog), y)
        want = compare_signals(transformed, superposition_signal(raw, expected_y))
        got = _bank_equivalence(system, prog, y, expected_y, ticks)
        assert got.to_dict() == want.to_dict(), case
        outcomes.append(got.passed)
    assert 100 <= outcomes.count(False) <= 300


def test_universe_invariance_for_empty_circuit():
    assert universe_invariance_check(ReferenceSystem(3, 42), GateCircuit(3, ()), ticks=64).passed


def test_universe_invariance_rejects_not_gates():
    # a NOT relabels strings too, but the check's premise is a permutation
    # with no constant offset; restrict to pure CNOT as stated
    with pytest.raises(ValueError):
        universe_invariance_check(ReferenceSystem(2, 42), GateCircuit(2, (not_gate(0),)), ticks=16)


def test_random_trials_all_pass_and_record_inputs():
    report = random_equivalence_trials(8, seeds=(42, 7), ticks=256, draw_seed=11)
    assert report.passed and len(report.trials) == 16
    assert not report.failures()
    d = report.to_dict()
    assert d["pass"] and d["trials"] == 16 and d["failures"] == []
    assert report.lines()[0].startswith("[ok ]")


@pytest.mark.parametrize("n_trials, seeds", [(0, (42,)), (-3, (42,)), (2, ()), (2.0, (42,)), (True, (42,))])
def test_random_trials_refuse_to_pass_on_no_trials(n_trials, seeds):
    with pytest.raises(ValueError):
        random_equivalence_trials(n_trials, seeds=seeds, ticks=64)


def test_canonical_suite_passes_and_matches_expectations():
    suite = canonical_suite(seed=42, ticks=256)
    assert suite.passed
    by_name = {e.name: e for e in suite.entries}
    assert set(by_name) == set(CANONICAL_CIRCUITS)
    assert by_name["single_cnot"].program.m == 1
    assert by_name["not_gate"].program.m == 2
    assert by_name["noninteracting_pair"].program.m == 2
    assert by_name["interacting_pair"].program.m == 3
    assert by_name["noninteracting_chain3"].program.m == 3
    assert by_name["interacting_chain3"].program.m == 6
    host_wires = {
        (i.host_bit, i.host_value) for i in by_name["interacting_pair"].program.insertions
    }
    assert host_wires == {(0, 1), (1, 1)}
    for entry in suite.entries:
        assert entry.equivalence.ticks_checked == 256
    lines = suite.lines()
    assert len(lines) == len(CANONICAL_CIRCUITS) and all("[ok ]" in l for l in lines)


def test_suite_report_serializes():
    suite = canonical_suite(seed=1, ticks=64)
    d = suite.to_dict()
    assert d["pass"] is True
    assert {e["name"] for e in d["entries"]} == set(CANONICAL_CIRCUITS)
    for e in d["entries"]:
        assert e["M"] == e["expected_M"]


def test_result_without_mismatch_serializes_minimally():
    res = EquivalenceResult(10)
    assert res.passed and "first_mismatch" not in res.to_dict()

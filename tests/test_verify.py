"""End-to-end equivalence: compiled wire programs against the bit-level
oracle, universe invariance, and the canonical circuit suite."""

import random
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtwlogic import reference, verify
from rtwlogic.compiler import (
    AffineMapGF2,
    GateCircuit,
    InsertionProgram,
    affine_of_program,
    cnot,
    compile_circuit,
    interacting_chain,
    not_gate,
    parse_circuit,
    random_cascade,
)
from rtwlogic.hyperspace import Superposition, oracle_apply, parse_superposition, superposition_signal
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
        (got,) = _bank_equivalence(system, [(prog, y, expected_y)], ticks)
        assert got.to_dict() == want.to_dict(), case
        outcomes.append(got.passed)
    assert 100 <= outcomes.count(False) <= 300


def random_sum(rng: random.Random, n_bits: int, terms: int) -> Superposition:
    strings = rng.sample(range(1 << n_bits), min(terms, 1 << n_bits))
    return Superposition.explicit(n_bits, {s: rng.choice((-3, -1, 1, 2)) for s in strings})


def expected_superposition(case) -> Superposition:
    """The superposition a case's raw signal is read from: its expected
    sum, or the oracle image of `y` under its map."""
    _, y, expected = case
    return oracle_apply(expected, y) if isinstance(expected, AffineMapGF2) else expected


def test_termwise_compare_matches_the_int64_compare():
    # A map case of up to 64 terms is first compared term by term on packed
    # planes, each term against its oracle image; the result must be the one
    # the int64 signals give, first mismatch included. Oracle cases pass; a
    # changed coefficient, a changed program or another expected sum mostly
    # fail.
    rng = random.Random(2025)
    outcomes = []
    for case in range(300):
        n_bits = rng.randint(1, 7)
        circuit = random_cascade(rng, n_bits, rng.randint(1, 8), not_rate=0.3)
        y = random_sum(rng, n_bits, rng.choice((1, 2, 5, 20, 64, 65, 100)))
        prog, _, expected = verify._oracle_case(circuit, y)
        kind = case % 4
        if kind == 1:
            image = oracle_apply(expected, y)
            s, c = rng.choice(image.terms)
            expected = image + Superposition.explicit(n_bits, {s: -c + rng.choice((-1, 1))})
        elif kind == 2:
            triples = [(rng.randrange(n_bits), rng.randint(0, 1), rng.randrange(n_bits)) for _ in range(3)]
            prog = InsertionProgram.from_pairs(n_bits, triples)
        elif kind == 3:
            expected = random_sum(rng, n_bits, rng.randint(1, 1 << n_bits))
        ticks = rng.choice([1, 63, 65, 127, 200, 1000, 4097])
        system = ReferenceSystem(n_bits, rng.randrange(1 << 64))
        raw = WireBank.draw(system, tick_range(ticks))
        transformed = superposition_signal(raw.apply(prog), y)
        want = compare_signals(transformed, superposition_signal(raw, expected_superposition((prog, y, expected))))
        (got,) = _bank_equivalence(system, [(prog, y, expected)], ticks)
        assert got.to_dict() == want.to_dict(), case
        outcomes.append(got.passed)
    assert all(outcomes[::4]) and 100 <= outcomes.count(False) <= 225


def integer_result(case, seed: int, ticks: int) -> EquivalenceResult:
    """A case's result from its own system, both signals as integers."""
    prog, y, _ = case
    raw = WireBank.draw(ReferenceSystem(prog.n_bits, seed), tick_range(ticks))
    transformed = superposition_signal(raw.apply(prog), y)
    return compare_signals(transformed, superposition_signal(raw, expected_superposition(case)))


def mixed_case(kind: str, n_bits: int, terms: int, seed: int):
    """One `(prog, y, expected)` case of the given kind and width, with up
    to `terms` terms where `y` is an explicit sum."""
    rng = random.Random(seed)
    circuit = random_cascade(rng, n_bits, rng.randint(0, 8), not_rate=0.3)
    if kind == "pattern":
        free = rng.randint(0, n_bits)
        triples = [(rng.randrange(n_bits), rng.randint(0, 1), rng.randrange(n_bits)) for _ in range(3)]
        prog = InsertionProgram.from_pairs(n_bits, triples[: rng.randint(0, 3)])
        return prog, random_pattern(rng, n_bits, free), random_pattern(rng, n_bits, rng.choice((free, n_bits - free)))
    if kind == "pattern image":  # a pattern against its map
        return verify._oracle_case(circuit, random_pattern(rng, n_bits, rng.randint(0, min(n_bits, 5))))
    prog, y, amap = verify._oracle_case(circuit, random_sum(rng, n_bits, terms))
    if kind == "dropped" and prog.insertions:
        prog = InsertionProgram(n_bits, prog.sorted_insertions()[1:])
    elif kind == "coefficient" and y.terms:
        image = oracle_apply(amap, y)
        s, c = rng.choice(image.terms)
        return prog, y, image + Superposition.explicit(n_bits, {s: rng.choice((-1, 1))})
    return prog, y, amap


KINDS = ("oracle", "dropped", "coefficient", "pattern", "pattern image")


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(1, 8), st.integers(0, 70), st.integers(0, 2**32)),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**64 - 1),
    ticks=st.integers(1, 3 * 64),
    budget=st.integers(1, 400),
)
@example(
    specs=[
        ("oracle", 8, 70, 1),
        ("oracle", 3, 0, 2),
        ("dropped", 8, 65, 3),
        ("pattern", 4, 0, 4),
        ("oracle", 1, 1, 5),
        ("dropped", 6, 20, 6),
        ("coefficient", 5, 12, 7),
        ("pattern image", 6, 0, 8),
    ],
    seed=11,
    ticks=150,
    budget=20,
)
def test_batched_proof_matches_each_integer_comparison(specs, seed, ticks, budget):
    # Patterns, explicit sums of 0-70 terms (the empty sum, and more terms
    # than the term-by-term proof takes), oracle maps, mutants with one
    # insertion dropped or one coefficient of the image moved, widths 1-8,
    # on a window of 1-3 chunks of 64 ticks, in batches of 1-6 cases:
    # every result, first mismatch included, is the one the case's own
    # integer comparison gives. An oracle case of at most 64 terms is proved
    # on planes, never evaluated as integers; a coefficient mutant, and a
    # dropped-insertion mutant whose map moves a term of `y`, reach the
    # integer path whenever the first chunk has 64 ticks.
    cases = [mixed_case(*spec) for spec in specs]
    width = max(prog.n_bits for prog, _, _ in cases)
    evaluated = []
    first_mismatch = verify._first_mismatch

    def integer_path(lo, raw, bank, y, expected_y):
        evaluated.append(y)
        return first_mismatch(lo, raw, bank, y, expected_y)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference, "_CHUNK_SAMPLES", 64 * 2 * width)
        patch.setattr(verify, "_BLOCK_TICKS", 64 * budget)
        patch.setattr(verify, "_first_mismatch", integer_path)
        got = _bank_equivalence(ReferenceSystem(width, seed), cases, ticks)
    assert got == [integer_result(case, seed, ticks) for case in cases]
    reached = [any(y is seen for seen in evaluated) for _, y, _ in cases]
    for (kind, *_), (prog, y, expected), was_evaluated in zip(specs, cases, reached):
        if kind == "oracle" and y.term_count <= 64:
            assert not was_evaluated
        elif kind == "coefficient" and y.terms:
            assert was_evaluated
        elif kind == "dropped" and ticks >= 64:
            strings = [s for s, _ in y.terms]
            moved = affine_of_program(prog).apply_all(strings) != expected.apply_all(strings)
            assert was_evaluated or not moved


def test_equivalence_memory_is_bounded_by_the_batch_not_the_case_count():
    # A window of 2^18 ticks of 8 bits is one chunk, and every case of
    # 32 terms a batch of its own: 40 cases peak less than one batch
    # budget (512 KiB of planes) plus 10% above 5 cases.
    rng = random.Random(18)
    cases = [verify._oracle_case(random_cascade(rng, 8, 8, not_rate=0.2), random_sum(rng, 8, 32)) for _ in range(40)]
    system, ticks = ReferenceSystem(8, 1), 1 << 18
    _bank_equivalence(system, cases[:1], ticks)
    peaks = {}
    for count in (5, 40):
        tracemalloc.start()
        try:
            results = _bank_equivalence(system, cases[:count], ticks)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == count and all(r.passed for r in results)
    assert peaks[40] - peaks[5] < verify._BLOCK_TICKS // 8 * 1.1, peaks


def test_a_case_with_more_term_planes_than_a_block_is_proved_in_blocks():
    # 64 terms of 8 bits on one chunk of 2^18 ticks: each side's term planes
    # take 2 MiB, four blocks (512 KiB each). Gathered a block at a time,
    # the check peaks below six blocks; all at once, it took 7 MiB.
    rng = random.Random(3)
    y = Superposition.explicit(8, {s: rng.choice((-2, 1, 3)) for s in rng.sample(range(256), 64)})
    case = verify._oracle_case(random_cascade(rng, 8, 12, not_rate=0.2), y)
    system, ticks = ReferenceSystem(8, 1), 1 << 18
    _bank_equivalence(system, [case], ticks)
    tracemalloc.start()
    try:
        (result,) = _bank_equivalence(system, [case], ticks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed and peak < 6 * (verify._BLOCK_TICKS // 8), peak


def test_cases_checked_together_match_each_checked_alone(monkeypatch):
    # Patterns (packed compare) and explicit sums of 2-7 bits on one draw of
    # a 7-bit system, in chunks of 64 ticks: each case's result equals a
    # one-case check on a system of its own width, first mismatch included.
    # Half the cases are true identities, half random pairs that mostly fail.
    monkeypatch.setattr(reference, "_CHUNK_SAMPLES", 1 << 10)
    rng = random.Random(7)
    cases = []
    for case in range(60):
        n_bits = rng.randint(2, 7)
        if case % 4 == 0:
            y = Superposition.universe(n_bits)
            cases.append((compile_circuit(random_cascade(rng, n_bits, 4, not_rate=0.0)), y, y))
        elif case % 4 == 1:
            y = Superposition.explicit(n_bits, {rng.randrange(1 << n_bits): rng.choice((-2, 1, 3)) for _ in range(4)})
            cases.append(verify._oracle_case(random_cascade(rng, n_bits, 4, not_rate=0.3), y))
        else:
            free = rng.randint(0, n_bits)
            triples = [(rng.randrange(n_bits), rng.randint(0, 1), rng.randrange(n_bits)) for _ in range(3)]
            prog = InsertionProgram.from_pairs(n_bits, triples[: rng.randint(0, 3)])
            cases.append((prog, random_pattern(rng, n_bits, free), random_pattern(rng, n_bits, free)))
    for seed in (5, 2**64 - 1):
        together = _bank_equivalence(ReferenceSystem(7, seed), cases, 1000)
        alone = [_bank_equivalence(ReferenceSystem(case[0].n_bits, seed), [case], 1000)[0] for case in cases]
        assert [r.to_dict() for r in together] == [r.to_dict() for r in alone]
        assert all(r.passed for r in together[::4] + together[1::4])
        assert sum(not r.passed for r in together) >= 15


@pytest.mark.parametrize("ticks", [64, 5000])
def test_a_single_narrower_case_matches_its_own_system(ticks, monkeypatch):
    # One case of 3 bits on a 6-bit system reads the first 3 bits' wires,
    # in chunks of 64 ticks: its result is the one its own system gives.
    monkeypatch.setattr(reference, "_CHUNK_SAMPLES", 1 << 10)
    rng = random.Random(8)
    y = Superposition.explicit(3, {s: rng.choice((-2, 1, 3)) for s in range(8)})
    cases = [verify._oracle_case(random_cascade(rng, 3, 5, not_rate=0.3), y)]
    cases.append((InsertionProgram.from_pairs(3, [(0, 1, 2)]), y, y))
    passed = []
    for case in cases:
        (narrow,) = _bank_equivalence(ReferenceSystem(6, 9), [case], ticks)
        (alone,) = _bank_equivalence(ReferenceSystem(3, 9), [case], ticks)
        assert narrow.to_dict() == alone.to_dict()
        passed.append(narrow.passed)
    assert passed == [True, False]


def test_a_case_wider_than_the_system_is_refused(monkeypatch):
    monkeypatch.setattr(WireBank, "draw", _must_not_draw)
    prog = InsertionProgram.from_pairs(5, [(0, 1, 2)])
    y = Superposition.universe(5)
    with pytest.raises(ValueError, match="does not match"):
        _bank_equivalence(ReferenceSystem(4, 1), [(prog, y, y)], 64)


@pytest.mark.parametrize(
    "widths",
    [(3, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3)],
    ids=["program", "y", "expected_y", "superpositions"],
)
def test_a_case_of_mixed_widths_is_refused_before_drawing(widths, monkeypatch):
    # The program, y and expected_y of a case must be as wide as one another.
    monkeypatch.setattr(WireBank, "draw", _must_not_draw)
    prog_bits, y_bits, expected_bits = widths
    prog = InsertionProgram.from_pairs(prog_bits, [])
    case = (prog, Superposition.universe(y_bits), Superposition.universe(expected_bits))
    with pytest.raises(ValueError, match="does not match system n_bits=4"):
        _bank_equivalence(ReferenceSystem(4, 1), [case], 64)


@pytest.mark.parametrize("dropped", [False, True])
def test_universe_invariance_of_a_narrower_circuit(dropped, monkeypatch):
    # A 2-bit circuit on a 3-bit system is checked on the first two bits'
    # wires: the result is the one a 2-bit system at the seed gives, also
    # when the program misses an insertion and the check fails.
    if dropped:
        _drop_one_insertion(monkeypatch)
    circ = parse_circuit("CNOT 1 0\nCNOT 0 1")
    narrow = universe_invariance_check(ReferenceSystem(3, 1), circ, 64)
    assert narrow == universe_invariance_check(ReferenceSystem(2, 1), circ, 64)
    assert narrow.passed is not dropped


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


def _must_not_draw(*args, **kwargs):
    raise AssertionError("drew before the inputs were checked")


@pytest.mark.parametrize("ticks", [0, -1, 2.5, True])
def test_random_trials_refuse_a_bad_window_before_drawing(ticks, monkeypatch):
    monkeypatch.setattr(verify, "random_cascade", _must_not_draw)
    monkeypatch.setattr(WireBank, "draw", _must_not_draw)
    with pytest.raises(ValueError, match="tick count"):
        random_equivalence_trials(3, seeds=(42,), ticks=ticks)


def _drop_one_insertion(monkeypatch) -> None:
    """Compile every program with its first insertion left out."""
    compile_to_insertions = verify.compile_to_insertions

    def dropped(amap):
        prog = compile_to_insertions(amap)
        return InsertionProgram(prog.n_bits, prog.sorted_insertions()[1:])

    monkeypatch.setattr(verify, "compile_to_insertions", dropped)


@pytest.mark.parametrize("config", ["one chunk", "chunks", "threads"])
@pytest.mark.parametrize("dropped", [False, True])
def test_trials_on_a_shared_draw_match_each_trial_alone(config, dropped, monkeypatch):
    # All trials of a seed are checked on one draw as wide as the widest
    # trial; each record must be what its own system of its own width gives,
    # also when every program misses an insertion and most trials fail.
    if dropped:
        _drop_one_insertion(monkeypatch)
    ticks = 1000
    with monkeypatch.context() as patch:
        runs = []
        if config in ("chunks", "threads"):
            # the 16 wires of the widest trial: 64 ticks per chunk
            patch.setattr(reference, "_CHUNK_SAMPLES", 1 << 10)
        if config == "threads":
            patch.setattr(reference, "_WORKERS", 2)
            draw = WireBank.draw

            def record(system, chunk) -> WireBank:
                runs.append(threading.current_thread().name)
                return draw(system, chunk)

            patch.setattr(WireBank, "draw", record)
        report = random_equivalence_trials(12, seeds=(3, 99), ticks=ticks, draw_seed=5)
    if config == "threads":
        # 16 chunks of 64 ticks per seed, every one drawn on a worker thread
        assert len(runs) == 32 and all(name.startswith("rtwlogic-chunk") for name in runs)
    assert len(report.trials) == 24 and [t.seed for t in report.trials] == [3, 99] * 12
    widths = set()
    for trial in report.trials:
        y = parse_superposition(trial.superposition_text)
        widths.add(y.n_bits)
        circuit = parse_circuit(trial.circuit_text, n_bits=y.n_bits)
        alone = signal_equivalence_check(ReferenceSystem(y.n_bits, trial.seed), circuit, y, ticks)
        assert trial.result.to_dict() == alone.to_dict()
    assert min(widths) <= 3 and max(widths) == 8
    failures = len(report.failures())
    assert failures >= 20 if dropped else failures == 0


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


@pytest.mark.parametrize("seed", [42, 1])
@pytest.mark.parametrize("ticks", [64, 256])
@pytest.mark.parametrize("dropped", [False, True])
def test_canonical_suite_matches_standalone_checks(seed, ticks, dropped, monkeypatch):
    # The six circuits run on one draw of the four bits' wires; each entry
    # must equal its own check, also when the programs are wrong.
    if dropped:
        _drop_one_insertion(monkeypatch)
    weighted = Superposition.explicit(4, {s: s + 1 for s in range(16)})
    suite = canonical_suite(seed=seed, ticks=ticks)
    for entry in suite.entries:
        circuit = parse_circuit(CANONICAL_CIRCUITS[entry.name][0], n_bits=4)
        alone = signal_equivalence_check(ReferenceSystem(4, seed), circuit, weighted, ticks)
        assert entry.equivalence.to_dict() == alone.to_dict()
    # Each string has its own coefficient, so a program that moves any of
    # them to another string fails its entry.
    assert all(e.equivalence.passed is not dropped for e in suite.entries)


def test_the_canonical_suite_fails_every_empty_program(monkeypatch):
    # The empty program leaves every wire as it is; no canonical circuit is
    # the identity, so each entry must fail on its signal as well.
    monkeypatch.setattr(verify, "compile_to_insertions", lambda amap: InsertionProgram(amap.n_bits, ()))
    suite = canonical_suite(seed=42, ticks=1024)
    assert not any(e.equivalence.passed or e.program_ok for e in suite.entries)

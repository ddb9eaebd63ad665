"""End-to-end equivalence: compiled wire programs against the bit-level
oracle, universe invariance, and the canonical circuit suite."""

import random
import re
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
    circuit_to_affine,
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
    free_mask = sum(1 << b for b in rng.sample(range(n_bits), free))
    offset = sum(rng.randint(0, 1) << b for b in range(n_bits) if not free_mask >> b & 1)
    return Superposition(n_bits, offset=offset, free=free_mask)


def random_program(rng: random.Random, n_bits: int, count: int) -> InsertionProgram:
    """A program of up to `count` random insertions (NOT.NOT pairs cancel)."""
    triples = [(rng.randrange(n_bits), rng.randint(0, 1), rng.randrange(n_bits)) for _ in range(count)]
    return InsertionProgram.from_pairs(n_bits, triples)


def integer_compare(raw: WireBank, case) -> EquivalenceResult:
    """A case's result on one bank, both signals evaluated as integers."""
    prog, y, amap = case
    return compare_signals(superposition_signal(raw.apply(prog), y), superposition_signal(raw, oracle_apply(amap, y)))


def test_packed_pattern_compare_matches_the_int64_compare():
    # A pattern case is proved on packed planes from its map's generators;
    # the result must be the one the int64 signals give, first mismatch
    # included, on windows that are not whole 64-tick words. Half the cases
    # pair a compiled program with its map, the universe under a CNOT
    # cascade among them, and pass; half pair a random program with a
    # random map, and mostly fail.
    rng = random.Random(2024)
    outcomes = []
    for case in range(400):
        n_bits = rng.randint(2, 7)
        circuit = random_cascade(rng, n_bits, rng.randint(1, 8), not_rate=0.3 if case % 4 else 0.0)
        y = random_pattern(rng, n_bits, rng.randint(0, n_bits)) if case % 4 else Superposition.universe(n_bits)
        prog, _, amap = verify._oracle_case(circuit, y)
        if case % 2:
            prog = random_program(rng, n_bits, rng.randint(0, 5))
        ticks = rng.choice([1, 63, 65, 127, 200, 1000, 4097])
        system = ReferenceSystem(n_bits, rng.randrange(1 << 64))
        want = integer_compare(WireBank.draw(system, tick_range(ticks)), (prog, y, amap))
        (got,) = _bank_equivalence(system, [(prog, y, amap)], ticks)
        assert got.to_dict() == want.to_dict(), case
        outcomes.append(got.passed)
    assert all(outcomes[::2]) and outcomes.count(False) >= 100


def random_sum(rng: random.Random, n_bits: int, terms: int) -> Superposition:
    strings = rng.sample(range(1 << n_bits), min(terms, 1 << n_bits))
    return Superposition.explicit(n_bits, {s: rng.choice((-3, -1, 1, 2)) for s in strings})


def test_termwise_compare_matches_the_int64_compare():
    # An explicit sum of any size against its map is first proved on packed
    # planes from the map's generators; the result must be the one the int64
    # signals give, first mismatch included. Oracle cases pass; a changed
    # program mostly fails.
    rng = random.Random(2025)
    outcomes = []
    for case in range(300):
        n_bits = rng.randint(1, 7)
        circuit = random_cascade(rng, n_bits, rng.randint(1, 8), not_rate=0.3)
        y = random_sum(rng, n_bits, rng.choice((1, 2, 5, 20, 64, 65, 100)))
        prog, _, amap = verify._oracle_case(circuit, y)
        if case % 2:
            prog = random_program(rng, n_bits, 3)
        ticks = rng.choice([1, 63, 65, 127, 200, 1000, 4097])
        system = ReferenceSystem(n_bits, rng.randrange(1 << 64))
        want = integer_compare(WireBank.draw(system, tick_range(ticks)), (prog, y, amap))
        (got,) = _bank_equivalence(system, [(prog, y, amap)], ticks)
        assert got.to_dict() == want.to_dict(), case
        outcomes.append(got.passed)
    assert all(outcomes[::2]) and outcomes.count(False) >= 100


def integer_result(case, seed: int, ticks: int) -> EquivalenceResult:
    """A case's result from its own system, both signals as integers."""
    return integer_compare(WireBank.draw(ReferenceSystem(case[0].n_bits, seed), tick_range(ticks)), case)


def mixed_case(kind: str, n_bits: int, terms: int, seed: int):
    """One `(prog, y, amap)` case of the given kind and width, with up to
    `terms` terms where `y` is an explicit sum."""
    rng = random.Random(seed)
    circuit = random_cascade(rng, n_bits, rng.randint(0, 8), not_rate=0.3)
    if kind == "pattern image":  # a pattern against its map
        return verify._oracle_case(circuit, random_pattern(rng, n_bits, rng.randint(0, n_bits)))
    prog, y, amap = verify._oracle_case(circuit, random_sum(rng, n_bits, terms))
    if kind == "dropped" and prog.insertions:
        prog = InsertionProgram(n_bits, prog.sorted_insertions()[1:])
    return prog, y, amap


KINDS = ("oracle", "dropped", "pattern image")


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(1, 8), st.integers(0, 200), st.integers(0, 2**32)),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**64 - 1),
    ticks=st.integers(1, 3 * 64),
    budget=st.integers(1, 400),
)
@example(
    specs=[
        ("oracle", 8, 200, 1),
        ("oracle", 3, 0, 2),
        ("dropped", 8, 65, 3),
        ("pattern image", 8, 0, 4),
        ("oracle", 1, 1, 5),
        ("dropped", 6, 20, 6),
        ("oracle", 5, 12, 7),
        ("pattern image", 6, 0, 8),
    ],
    seed=11,
    ticks=150,
    budget=20,
)
def test_batched_proof_matches_each_integer_comparison(specs, seed, ticks, budget):
    # Patterns, explicit sums of 0-200 terms (the empty sum among them),
    # oracle maps and mutants with one insertion dropped, widths 1-8, on a
    # window of 1-3 chunks of 64 ticks, in batches of 1-6 cases: every
    # result, first mismatch included, is the one the case's own integer
    # comparison gives. A case whose program realizes its map is proved on
    # planes, never evaluated as integers, at any size; a dropped-insertion
    # mutant whose map differs reaches the integer path whenever the first
    # chunk has 64 ticks.
    cases = [mixed_case(*spec) for spec in specs]
    width = max(prog.n_bits for prog, _, _ in cases)
    evaluated = []
    first_mismatch = verify._first_mismatch

    def integer_path(lo, raw, bank, y, expected_y):
        evaluated.append(y)
        return first_mismatch(lo, raw, bank, y, expected_y)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference, "_CHUNK_SAMPLES", 64 * 2 * width)
        patch.setattr(reference, "_BLOCK_TICKS", 64 * budget)
        patch.setattr(verify, "_first_mismatch", integer_path)
        got = _bank_equivalence(ReferenceSystem(width, seed), cases, ticks)
    assert got == [integer_result(case, seed, ticks) for case in cases]
    reached = [any(y is seen for seen in evaluated) for _, y, _ in cases]
    for (prog, y, amap), was_evaluated in zip(cases, reached):
        if affine_of_program(prog) == amap:
            assert not was_evaluated
        elif ticks >= 64:
            assert was_evaluated


def test_a_mismatch_in_a_later_chunk_is_reported_at_its_window_tick(monkeypatch):
    # The empty program against the map NOT 8 sets the pattern of 8 free
    # bits against its image, which differs in bit 8. Both are nonzero
    # about one tick in 2^8, and differ at half of those: on seed 1 the
    # first mismatch lies in the third chunk of 64 ticks, and is named by
    # its tick in the window, as one chunk of the whole window names it.
    system = ReferenceSystem(9, 1)
    y, amap = Superposition(9, offset=0, free=0xFF), circuit_to_affine(parse_circuit("NOT 8", n_bits=9))
    assert oracle_apply(amap, y) == Superposition(9, offset=0x100, free=0xFF)
    case = (InsertionProgram(9, frozenset()), y, amap)
    whole = _bank_equivalence(system, [case], 4096)
    assert whole[0].first_mismatch[0] >= 128
    monkeypatch.setattr(reference, "_CHUNK_SAMPLES", 64 * 2 * 9)
    assert _bank_equivalence(system, [case], 4096) == whole


def test_equivalence_memory_is_bounded_by_the_batch_not_the_case_count():
    # A window of 2^18 ticks of 8 bits is one chunk, whose block of 16
    # planes holds fewer than the 34 an 8-bit case counts, so every case is
    # a batch of its own: 40 cases peak less than one batch budget (512 KiB
    # of planes) plus 10% above 5 cases.
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
    assert peaks[40] - peaks[5] < reference._BLOCK_TICKS // 8 * 1.1, peaks


def test_a_case_with_more_term_planes_than_a_block_is_proved_in_blocks(monkeypatch):
    # An 8-bit case compares 9 generator planes a side. With blocks of two
    # planes of its one chunk of 2^18 ticks, they go in five slices: the
    # compiled program is proved within 3 MiB (the chunk's draw and its
    # effective wires take about 2), and one with an insertion dropped
    # fails as its integer comparison does.
    monkeypatch.setattr(reference, "_BLOCK_TICKS", 2 * (1 << 18))
    rng = random.Random(3)
    y = Superposition.explicit(8, {s: rng.choice((-2, 1, 3)) for s in rng.sample(range(256), 64)})
    case = verify._oracle_case(random_cascade(rng, 8, 12, not_rate=0.2), y)
    system, ticks = ReferenceSystem(8, 1), 1 << 18
    assert WireBank.draw(system, range(ticks)).rows_per_block == 2
    _bank_equivalence(system, [case], ticks)
    tracemalloc.start()
    try:
        (result,) = _bank_equivalence(system, [case], ticks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed and peak < 3 << 20, peak
    dropped = (InsertionProgram(8, case[0].sorted_insertions()[1:]), y, case[2])
    (result,) = _bank_equivalence(system, [dropped], ticks)
    assert not result.passed and result == integer_result(dropped, 1, ticks)


def test_cases_checked_together_match_each_checked_alone(monkeypatch):
    # Patterns and explicit sums of 2-7 bits on one draw of a 7-bit system,
    # in chunks of 64 ticks: each case's result equals a one-case check on a
    # system of its own width, first mismatch included. Half the cases are
    # compiled programs against their maps, the universe under a CNOT
    # cascade among them; half are random programs against random maps, and
    # mostly fail.
    monkeypatch.setattr(reference, "_CHUNK_SAMPLES", 1 << 10)
    rng = random.Random(7)
    cases = []
    for case in range(60):
        n_bits = rng.randint(2, 7)
        circuit = random_cascade(rng, n_bits, 4, not_rate=0.3 if case % 4 else 0.0)
        if case % 4 == 0:
            cases.append(verify._oracle_case(circuit, Superposition.universe(n_bits)))
        elif case % 4 == 1:
            y = Superposition.explicit(n_bits, {rng.randrange(1 << n_bits): rng.choice((-2, 1, 3)) for _ in range(4)})
            cases.append(verify._oracle_case(circuit, y))
        else:
            prog = random_program(rng, n_bits, rng.randint(0, 3))
            cases.append((prog, random_pattern(rng, n_bits, rng.randint(0, n_bits)), circuit_to_affine(circuit)))
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
    cases.append((InsertionProgram.from_pairs(3, [(0, 1, 2)]), y, AffineMapGF2.identity(3)))
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
    case = (prog, Superposition.universe(5), AffineMapGF2.identity(5))
    with pytest.raises(ValueError, match=r"case \(program, y, map\) n_bits=\(5, 5, 5\) does not match"):
        _bank_equivalence(ReferenceSystem(4, 1), [case], 64)


@pytest.mark.parametrize(
    "widths",
    [(3, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3)],
    ids=["program", "y", "map", "y_and_map"],
)
def test_a_case_of_mixed_widths_is_refused_before_drawing(widths, monkeypatch):
    # The program, y and map of a case must be as wide as one another.
    monkeypatch.setattr(WireBank, "draw", _must_not_draw)
    prog_bits, y_bits, map_bits = widths
    prog = InsertionProgram.from_pairs(prog_bits, [])
    case = (prog, Superposition.universe(y_bits), AffineMapGF2.identity(map_bits))
    with pytest.raises(ValueError, match=re.escape(f"(program, y, map) n_bits={widths} does not match system n_bits=4")):
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


def test_a_correct_program_is_proved_on_planes_whatever_its_superposition(monkeypatch):
    # The universe of 24 bits, a 24-bit pattern of 22 free bits and
    # explicit sums of 0-200 terms, each under a random 48-gate NOT/CNOT
    # cascade: every check passes on planes alone, with no pattern expanded
    # and no signal evaluated as integers.
    def refuse(*args):
        raise AssertionError("reached a path the plane proof makes needless")

    monkeypatch.setattr(Superposition, "expand", refuse)
    monkeypatch.setattr(verify, "_first_mismatch", refuse)
    rng = random.Random(24)
    inputs = [Superposition.universe(24), random_pattern(rng, 24, 22)]
    inputs += [random_sum(rng, 24, terms) for terms in (0, 1, 64, 65, 200)]
    for y in inputs:
        circuit = random_cascade(rng, 24, 48, not_rate=0.2)
        assert signal_equivalence_check(ReferenceSystem(24, rng.randrange(1 << 64)), circuit, y, 1024).passed


def test_a_failing_universe_check_at_24_bits_is_not_expanded(monkeypatch):
    # Without one insertion the program is not proved, so both universe
    # signals are evaluated as integers: the universe is its own oracle
    # image, never its 2^24 strings, which exceed the expansion budget.
    _drop_one_insertion(monkeypatch)
    evaluated = []
    first_mismatch = verify._first_mismatch

    def integer_path(*args):
        evaluated.append(args)
        return first_mismatch(*args)

    monkeypatch.setattr(verify, "_first_mismatch", integer_path)
    result = universe_invariance_check(ReferenceSystem(24, 1), interacting_chain(23), 4096)
    assert result.ticks_checked == 4096 and evaluated


@pytest.mark.parametrize("draw_seed", [-9, 2**64, 9.0, True])
def test_random_trials_refuse_a_bad_draw_seed_before_drawing(draw_seed, monkeypatch):
    # random.Random seeds with abs(seed) and takes floats: -9 would draw the
    # trials of 9.
    monkeypatch.setattr(verify, "random_cascade", _must_not_draw)
    with pytest.raises(ValueError, match="draw_seed"):
        random_equivalence_trials(3, draw_seed=draw_seed)


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

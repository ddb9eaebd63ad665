"""Reference wires: determinism, the NOT operator, insertion semantics,
and the per-tick algebraic identities that hold exactly (not statistically).
"""

import numpy as np
import pytest

from rtwlogic.compiler import GateCircuit, InsertionProgram, cnot, compile_circuit, parse_circuit
from rtwlogic.hyperspace import Superposition, membership_estimate, superposition_sample, zero_fraction
from rtwlogic.reference import (
    MAX_BITS,
    ReferenceSystem,
    as_window,
    orthogonality_report,
    tick_range,
)
from rtwlogic.verify import signal_equivalence_check

WINDOW = tick_range(512)


@pytest.fixture(scope="module")
def sys4():
    return ReferenceSystem(4, 42)


def pair_product(sys, bit, ticks):
    """The NOT operator of `bit` as the paper defines it: the product of
    the bit's two reference wires."""
    return sys.sample(bit, 0, ticks) * sys.sample(bit, 1, ticks)


def inserted_operator(sys, target, ticks, host=(0, 0)):
    """The NOT operator of `target` as the library builds it: the factor
    one insertion multiplies into its host wire."""
    prog = InsertionProgram.from_pairs(sys.n_bits, [(*host, target)])
    return sys.wire_table(prog, ticks)[host] * sys.sample(*host, ticks)


def test_samples_are_plus_minus_one_and_deterministic(sys4):
    trace = sys4.sample(0, 0, WINDOW)
    assert set(np.unique(trace)) <= {-1, 1}
    assert np.array_equal(trace, sys4.sample(0, 0, WINDOW))


def test_tick_order_does_not_matter(sys4):
    shuffled = WINDOW[::-1].copy()
    assert np.array_equal(
        sys4.sample(2, 1, shuffled), sys4.sample(2, 1, WINDOW)[::-1]
    )


def test_distinct_wires_get_distinct_streams(sys4):
    traces = {
        (b, v): tuple(sys4.sample(b, v, WINDOW))
        for b in range(4)
        for v in (0, 1)
    }
    assert len(set(traces.values())) == 8


def test_scalar_and_array_ticks_agree(sys4):
    arr = sys4.sample(1, 0, WINDOW)
    for t in (0, 1, 17, 511):
        assert sys4.sample(1, 0, t) == int(arr[t])


def test_golden_samples():
    s42, s7 = ReferenceSystem(4, 42), ReferenceSystem(4, 7)
    assert s42.sample(0, 0, 0) == +1
    assert s42.sample(0, 0, 1) == -1
    assert s42.sample(0, 1, 0) == -1
    assert s42.sample(1, 0, 0) == -1
    assert s42.sample(3, 1, 7) == -1
    assert s7.sample(0, 0, 0) == -1


def test_not_operator_is_the_wire_pair_product(sys4):
    inv = inserted_operator(sys4, 3, WINDOW)
    prod = sys4.sample(3, 0, WINDOW) * sys4.sample(3, 1, WINDOW)
    assert np.array_equal(inv, prod)
    # the operator does not depend on the wire that hosts it
    assert np.array_equal(inserted_operator(sys4, 3, WINDOW, host=(2, 1)), prod)
    # concrete corner: where the pair is (+1, -1) the product is -1
    idx = np.nonzero(
        (sys4.sample(3, 0, WINDOW) == 1) & (sys4.sample(3, 1, WINDOW) == -1)
    )[0]
    assert idx.size > 0 and np.all(inv[idx] == -1)


def test_not_operator_squares_to_one(sys4):
    inv = inserted_operator(sys4, 2, WINDOW).astype(np.int16)
    assert np.all(inv * inv == 1)


def test_not_operator_swaps_the_wire_pair(sys4):
    # multiplying a wire by its bit's NOT operator yields the other wire,
    # exactly, at every tick: hosting bit b's operator on both of b's wires
    # swaps them
    for bit in range(4):
        prog = InsertionProgram.from_pairs(4, [(bit, 0, bit), (bit, 1, bit)])
        table = sys4.wire_table(prog, WINDOW)
        w0 = sys4.sample(bit, 0, WINDOW)
        w1 = sys4.sample(bit, 1, WINDOW)
        assert np.array_equal(table[bit, 0], w1)
        assert np.array_equal(table[bit, 1], w0)


def test_pair_product_times_factor_recovers_other_factor(sys4):
    # exact integer identity, asserted per tick rather than statistically
    wij = sys4.sample(0, 1, WINDOW)
    wmn = sys4.sample(2, 0, WINDOW)
    assert np.array_equal(wij * wmn * wij, wmn)


def test_empty_program_is_the_identity(sys4):
    empty = InsertionProgram(4)
    for wire in ((0, 0), (1, 1), (3, 0)):
        assert np.array_equal(
            sys4.wire_table(empty, WINDOW)[wire],
            sys4.sample(*wire, WINDOW),
        )
        assert np.array_equal(
            sys4.wire_table(None, WINDOW)[wire],
            sys4.sample(*wire, WINDOW),
        )


def test_single_insertion_multiplies_host_by_target_operator(sys4):
    prog = InsertionProgram.from_pairs(4, [(1, 1, 2)])
    want = (
        sys4.sample(1, 1, WINDOW)
        * sys4.sample(2, 0, WINDOW)
        * sys4.sample(2, 1, WINDOW)
    )
    assert np.array_equal(sys4.wire_table(prog, WINDOW)[1, 1], want)
    # other wires untouched
    assert np.array_equal(
        sys4.wire_table(prog, WINDOW)[1, 0],
        sys4.sample(1, 0, WINDOW),
    )


def test_double_insertion_cancels_at_every_tick(sys4):
    cancelled = InsertionProgram.from_pairs(4, [(1, 1, 2), (1, 1, 2)])
    assert cancelled.m == 0
    assert np.array_equal(
        sys4.wire_table(cancelled, WINDOW)[1, 1],
        sys4.sample(1, 1, WINDOW),
    )


def test_inserted_operators_use_base_wires_even_on_modified_hosts(sys4):
    # a NOT operator inserted onto a wire that itself hosts insertions must
    # still be built from the untouched reference pair
    prog = compile_circuit(parse_circuit("CNOT 0 1\nCNOT 1 2", n_bits=4))
    inv1 = pair_product(sys4, 1, WINDOW)
    inv2 = pair_product(sys4, 2, WINDOW)
    base01 = sys4.sample(0, 1, WINDOW)
    table = sys4.wire_table(prog, WINDOW)
    assert np.array_equal(table[0, 1], base01 * inv1 * inv2)
    assert np.array_equal(
        table[1, 1],
        sys4.sample(1, 1, WINDOW) * inv2,
    )


def test_wire_table_matches_per_wire_sampling(sys4):
    prog = compile_circuit(parse_circuit("NOT 0\nCNOT 0 1", n_bits=4))
    for given in (None, prog):
        table = sys4.wire_table(given, WINDOW)
        assert table.shape == (4, 2, len(WINDOW))
        for bit in range(4):
            for value in (0, 1):
                want = sys4.sample(bit, value, WINDOW)
                hosted = given.insertions if given is not None else ()
                for ins in hosted:
                    if (ins.host_bit, ins.host_value) == (bit, value):
                        want = want * pair_product(sys4, ins.target, WINDOW)
                assert np.array_equal(table[bit, value], want)


def test_orthogonality_report_structure_and_pass():
    report = orthogonality_report(ReferenceSystem(2, 42), 200_000)
    # 4 wires: 4 means + 4 squares + 6 pair products + 12 correlations
    assert len(report.entries) == 26
    assert report.passed and not report.failures()
    entries = {e.name: e for e in report.entries}
    square = entries["mean[W(0, 0)^2]"]
    assert square.estimate == 1.0 and square.tolerance == 0.0
    mean = entries["mean[W(0, 0)]"]
    assert mean.tolerance == pytest.approx(5.0 / np.sqrt(200_000))


def test_validation_errors():
    with pytest.raises(ValueError):
        ReferenceSystem(0, 42)
    with pytest.raises(ValueError):
        ReferenceSystem(MAX_BITS + 1, 42)
    sys2 = ReferenceSystem(2, 42)
    with pytest.raises(ValueError):
        sys2.sample(2, 0, 0)
    with pytest.raises(ValueError):
        sys2.sample(0, 2, 0)
    with pytest.raises(ValueError):
        sys2.sample(0, 0, -1)
    with pytest.raises(ValueError):
        tick_range(0)
    with pytest.raises(ValueError):
        as_window(2.5)
    with pytest.raises(ValueError):
        orthogonality_report(sys2, 0)


tick_calls = pytest.mark.parametrize(
    "call",
    [
        lambda ticks: ReferenceSystem(2, 1).sample(0, 0, ticks),
        lambda ticks: ReferenceSystem(2, 1).wire_table(None, ticks),
        lambda ticks: superposition_sample(ReferenceSystem(2, 1), None, Superposition.universe(2), ticks),
    ],
    ids=["sample", "wire_table", "superposition_sample"],
)


@tick_calls
def test_a_two_dimensional_tick_array_is_refused(call):
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 3\)"):
        call(np.arange(6).reshape(2, 3))


@tick_calls
def test_an_empty_tick_list_is_the_empty_window(call):
    # np.asarray([]) is float64, though no float was passed
    want = call(np.array([], dtype=np.uint64))
    for ticks in ([], (), np.array([])):
        got = call(ticks)
        assert got.dtype == want.dtype and got.shape == want.shape and got.shape[-1] == 0
    with pytest.raises(ValueError, match="ticks must be integers, got dtype float64"):
        call([2.0])


@pytest.mark.parametrize("ticks", [2.5, 3.0, np.float64(3.0), True], ids=["2.5", "3.0", "float64", "bool"])
def test_tick_counts_must_be_integers(ticks):
    # a fractional count would draw ceil(T) ticks and divide by T itself
    sys2 = ReferenceSystem(2, 1)
    universe = Superposition.universe(2)
    with pytest.raises(ValueError, match="integer"):
        tick_range(ticks)
    with pytest.raises(ValueError, match="integer"):
        orthogonality_report(sys2, ticks)
    with pytest.raises(ValueError, match="integer"):
        zero_fraction(sys2, universe, ticks)
    with pytest.raises(ValueError, match="integer"):
        membership_estimate(sys2, None, universe, 0, ticks)
    with pytest.raises(ValueError, match="integer"):
        signal_equivalence_check(sys2, GateCircuit(2, (cnot(0, 1),)), universe, ticks=ticks)
    # NumPy integers are counts too
    assert np.array_equal(tick_range(np.int64(3)), tick_range(3))
    assert zero_fraction(sys2, universe, np.uint16(8)).entries[0].sample_count == 8


@pytest.mark.parametrize(
    "make",
    [
        lambda: ReferenceSystem(2.0, 1),
        lambda: ReferenceSystem(True, 1),
        lambda: ReferenceSystem(2, 1).sample(True, 0, 3),
        lambda: ReferenceSystem(2, 1).sample(0, True, 3),
    ],
    ids=["n_bits 2.0", "n_bits True", "sample(True, 0)", "sample(0, True)"],
)
def test_bits_and_values_must_be_integers(make):
    # sample(True, 0, 3) read wire (1, 0)
    with pytest.raises(ValueError, match="integer"):
        make()
    system = ReferenceSystem(np.int64(2), np.uint64(1))
    want = ReferenceSystem(2, 1).sample(1, 0, WINDOW)
    assert np.array_equal(system.sample(np.uint8(1), np.int64(0), WINDOW), want)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 42])
def test_seeds_outside_64_bits_are_rejected(seed):
    # 2**64 + 42 would otherwise draw seed 42's streams under another name
    with pytest.raises(ValueError, match="seed"):
        ReferenceSystem(4, seed)


def test_seed_range_edges_are_accepted():
    for seed in (0, 2**64 - 1):
        trace = ReferenceSystem(2, seed).sample(0, 0, WINDOW)
        assert set(np.unique(trace)) <= {-1, 1}

"""Circuit parsing, GF(2) affine semantics, and insertion-program synthesis.

The independent oracle throughout is GateCircuit.apply, which executes the
gate list step by step on an integer bit string; every structural claim
about affine maps and compiled programs is checked against it.
"""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtwlogic.compiler import (
    AffineMapGF2,
    CircuitParseError,
    Gate,
    GateCircuit,
    Insertion,
    InsertionProgram,
    affine_of_program,
    circuit_to_affine,
    cnot,
    compile_circuit,
    compile_to_insertions,
    conjecture_scan,
    interacting_chain,
    noninteracting_chain,
    not_gate,
    parse_circuit,
    random_cascade,
)


def circuits(max_bits=6, max_gates=10):
    def build(draw_data):
        n_bits, choices = draw_data
        gates = []
        for kind, a, b in choices:
            if kind == 0:
                gates.append(not_gate(a % n_bits))
            else:
                c, t = a % n_bits, b % n_bits
                if c == t:
                    t = (t + 1) % n_bits
                gates.append(cnot(c, t))
        return GateCircuit(n_bits, tuple(gates))

    return st.tuples(
        st.integers(2, max_bits),
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 63), st.integers(0, 63)),
            max_size=max_gates,
        ),
    ).map(build)


# -- parsing ---------------------------------------------------------------

def test_parse_single_cnot():
    circ = parse_circuit("CNOT 1 2")
    assert circ.gates == (cnot(1, 2),)
    assert circ.n_bits == 3  # inferred: highest index + 1


def test_parse_keeps_application_order():
    circ = parse_circuit("CNOT 1 2\nCNOT 0 1")
    assert circ.gates == (cnot(1, 2), cnot(0, 1))


def test_parse_comments_blanks_and_case():
    circ = parse_circuit("# header\n\n  not 0\nCnot 0 1 # trailing\n")
    assert circ.gates == (not_gate(0), cnot(0, 1))


def test_parse_rejects_self_controlled_cnot():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("CNOT 2 2")
    assert err.value.line_number == 1


@pytest.mark.parametrize(
    "text", ["NOT", "CNOT 0", "CNOT 0 1 2", "SWAP 0 1", "NOT x", "NOT -1"]
)
def test_parse_rejects_malformed_lines(text):
    with pytest.raises(CircuitParseError):
        parse_circuit(text)


@pytest.mark.parametrize(
    "token", ["1_1", "+1", "\uff10", "\u0663", "1\u0660"],
    ids=["underscore", "plus", "fullwidth 0", "arabic-indic 3", "arabic-indic 10"],
)
def test_parse_reads_an_index_as_ascii_decimal_digits_only(token):
    # int() reads each of these; 1_1 was bit 11 and the fullwidth 0 bit 0.
    with pytest.raises(CircuitParseError, match=re.escape(f"line 2: bad index {token!r}")):
        parse_circuit(f"NOT 0\nCNOT 0 {token}")


def test_parse_error_reports_line_number():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("NOT 0\n# fine\nCNOT 3 3")
    assert err.value.line_number == 3
    assert "3" in str(err.value)


def test_parse_respects_explicit_width():
    assert parse_circuit("NOT 0", n_bits=5).n_bits == 5
    with pytest.raises(CircuitParseError):
        parse_circuit("NOT 7", n_bits=3)


def test_parse_empty_text_gives_one_bit_identity():
    circ = parse_circuit("")
    assert circ.n_bits == 1
    assert circ.gates == ()


def test_circuit_text_round_trip():
    circ = parse_circuit("NOT 0\nCNOT 0 1\nCNOT 1 2")
    assert parse_circuit(circ.to_text()) == circ


# -- gate and circuit semantics --------------------------------------------

def test_gate_validation():
    with pytest.raises(ValueError):
        cnot(1, 1)
    with pytest.raises(ValueError):
        not_gate(-1)
    with pytest.raises(ValueError):
        cnot(-1, 0)
    with pytest.raises(ValueError):
        Gate(-1)
    with pytest.raises(ValueError):
        Gate(0, 0)


@pytest.mark.parametrize(
    "make",
    [lambda: Gate(1.5), lambda: Gate(True), lambda: cnot(0.0, 1), lambda: Gate(2, np.float64(1.0))],
    ids=["Gate(1.5)", "Gate(True)", "cnot(0.0, 1)", "Gate(2, float64)"],
)
def test_gate_indices_must_be_integers(make):
    # Gate(True) acted on bit 1 and cnot(0.0, 1) rendered "CNOT 0.0 1"
    with pytest.raises(ValueError, match="integer"):
        make()


def test_numpy_integer_indices_are_accepted():
    assert cnot(np.int64(0), np.uint8(2)).to_text() == "CNOT 0 2"
    prog = InsertionProgram(np.int64(3), [Insertion(np.int32(2), np.uint8(1), np.int64(0))])
    assert prog.insertions == {Insertion(2, 1, 0)}


@pytest.mark.parametrize(
    "make",
    [
        lambda: InsertionProgram(2, [Insertion(0, True, 1)]),
        lambda: InsertionProgram.from_pairs(2, [(0, True, 1)]),
        lambda: InsertionProgram(2, [Insertion(0.0, 1, 1)]),
        lambda: InsertionProgram(2.0, []),
    ],
    ids=["Insertion(0, True, 1)", "from_pairs bool", "float host_bit", "float n_bits"],
)
def test_insertions_must_use_integers(make):
    with pytest.raises(ValueError, match="integer"):
        make()


def per_value_check(n_bits: int, insertions: frozenset):
    """The error text of the first bad value of `insertions`, in their
    iteration order, or None."""
    for ins in insertions:
        for name, value, stop in (("host_bit", ins[0], n_bits), ("host_value", ins[1], 2), ("target", ins[2], n_bits)):
            if type(value) is not int and not isinstance(value, np.integer):
                return f"{name} must be an integer, got {value!r}"
            if not 0 <= value < stop:
                return f"{name} {value} out of range [0, {stop})"
    return None


insertion_values = st.one_of(
    st.integers(-1, 5),
    st.one_of(
        st.integers(0, 4).map(np.int64),
        st.booleans(),
        st.floats(-1, 4).map(lambda v: round(v, 1)),
        st.sampled_from([None, 2**70]),
    ),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4), st.lists(st.tuples(insertion_values, insertion_values, insertion_values), max_size=8))
@example(2, [(0, 2, 1)])
@example(2, [(2, 1, 0)])
@example(2, [(0, 1, -1)])
@example(2, [(1, 1, 0), (0, np.uint8(1), 1), (1, 1.0, 0)])
def test_program_checks_match_a_per_value_reference(n_bits, triples):
    # One pass over every insertion's values: a program is built, or refused
    # with the text of the first bad value a check of every value gives.
    insertions = frozenset(Insertion(*t) for t in triples)
    want = per_value_check(n_bits, insertions)
    try:
        prog = InsertionProgram(n_bits, insertions)
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert want is None and prog.insertions is insertions


def indices():
    return st.one_of(
        st.integers(-2, 40),
        st.integers(0, 40).map(np.int64),
        st.booleans(),
        st.floats(-1, 40),
        st.sampled_from([None, "1", 2**70]),
    )


@settings(max_examples=300, deadline=None)
@given(indices(), indices())
def test_every_accepted_gate_reads_back_from_its_text(target, control):
    try:
        gate = Gate(target, control)
    except ValueError:
        return
    assert parse_circuit(gate.to_text()).gates == (gate,)


def test_apply_not_flips_one_bit():
    circ = GateCircuit(3, (not_gate(2),))
    assert circ.apply(0b000) == 0b100
    assert circ.apply(0b111) == 0b011


def test_apply_cnot_truth_table():
    circ = GateCircuit(2, (cnot(0, 1),))
    assert circ.apply(0b00) == 0b00
    assert circ.apply(0b01) == 0b11  # control (bit 0) high flips target
    assert circ.apply(0b10) == 0b10
    assert circ.apply(0b11) == 0b01


def test_circuit_concatenation_applies_left_then_right():
    left = GateCircuit(2, (not_gate(0),))
    right = GateCircuit(2, (cnot(0, 1),))
    combined = GateCircuit(2, left.gates + right.gates)
    for s in range(4):
        assert combined.apply(s) == right.apply(left.apply(s))


# -- affine maps ------------------------------------------------------------

def test_single_cnot_affine_matrix():
    amap = circuit_to_affine(GateCircuit(3, (cnot(1, 2),)))
    assert amap.const == 0
    assert amap.rows == (0b001, 0b010, 0b110)  # row 2 adds bit 1


def test_interacting_pair_affine_rows():
    amap = circuit_to_affine(GateCircuit(3, (cnot(0, 1), cnot(1, 2))))
    # second gate sees bit 1 already rewritten, so row 2 picks up bit 0 too
    assert amap.rows == (0b001, 0b011, 0b111)
    assert amap.const == 0


def test_three_cnots_build_the_swap_permutation():
    circ = GateCircuit(2, (cnot(0, 1), cnot(1, 0), cnot(0, 1)))
    amap = circuit_to_affine(circ)
    for s in range(4):
        swapped = ((s & 1) << 1) | ((s >> 1) & 1)
        assert amap.apply(s) == swapped == circ.apply(s)


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_affine_map_agrees_with_stepwise_oracle(circ):
    amap = circuit_to_affine(circ)
    for s in range(1 << circ.n_bits):
        assert amap.apply(s) == circ.apply(s)


def test_identity_map():
    ident = AffineMapGF2.identity(4)
    assert all(ident.apply(s) == s for s in range(16))


def test_inverse_round_trips():
    circ = GateCircuit(4, (cnot(0, 1), not_gate(3), cnot(1, 2), cnot(2, 0)))
    amap = circuit_to_affine(circ)
    assert amap.is_invertible()
    inv = amap.inverse()
    for s in range(16):
        assert inv.apply(amap.apply(s)) == s


def test_is_invertible_exactly_when_the_inverse_exists():
    # Every 3-bit row tuple, 168 of them invertible, and a seeded sample of 4-bit ones.
    rng = random.Random(27)
    maps = [AffineMapGF2(3, rows) for rows in itertools.product(range(8), repeat=3)]
    maps += [AffineMapGF2(4, tuple(rng.randrange(16) for _ in range(4))) for _ in range(2000)]
    for amap in maps:
        try:
            amap.inverse()
        except ValueError:
            assert not amap.is_invertible(), amap
        else:
            assert amap.is_invertible(), amap
    assert sum(amap.is_invertible() for amap in maps[:512]) == 168


def test_singular_map_detected():
    degenerate = AffineMapGF2(2, rows=(0b01, 0b01), const=0)
    assert not degenerate.is_invertible()
    with pytest.raises(ValueError):
        degenerate.inverse()
    with pytest.raises(ValueError):
        compile_to_insertions(degenerate)


# -- compilation to insertion programs --------------------------------------

def test_single_cnot_compiles_to_one_insertion():
    prog = compile_circuit(parse_circuit("CNOT 1 2"))
    assert prog.insertions == frozenset({Insertion(1, 1, 2)})
    assert prog.m == 1


def test_single_not_lands_on_both_wires_of_its_bit():
    prog = compile_circuit(parse_circuit("NOT 2"))
    assert prog.insertions == frozenset({Insertion(2, 0, 2), Insertion(2, 1, 2)})
    assert prog.m == 2


def test_interacting_pair_needs_correction_insertion():
    prog = compile_circuit(parse_circuit("CNOT 0 1\nCNOT 1 2"))
    assert prog.insertions == frozenset(
        {Insertion(0, 1, 1), Insertion(1, 1, 2), Insertion(0, 1, 2)}
    )
    assert prog.m == 3


def test_not_then_cnot_mixes_value_zero_hosts():
    # truth table: b0' = b0 xor 1, b1' = b1 xor b0 xor 1
    prog = compile_circuit(parse_circuit("NOT 0\nCNOT 0 1"))
    assert prog.insertions == frozenset(
        {Insertion(0, 0, 0), Insertion(0, 1, 0), Insertion(0, 0, 1)}
    )
    assert prog.m == 3


def test_chain_direction_sets_hardware_count():
    assert compile_circuit(noninteracting_chain(3)).m == 3
    assert compile_circuit(interacting_chain(3)).m == 6


def test_cancelling_pair_compiles_to_empty_program():
    prog = compile_circuit(parse_circuit("CNOT 0 1\nCNOT 0 1"))
    assert prog.insertions == frozenset()
    assert prog.m == 0


def test_from_pairs_cancels_repeated_insertions():
    prog = InsertionProgram.from_pairs(3, [(1, 1, 2), (1, 1, 2), (0, 1, 1)])
    assert prog.insertions == frozenset({Insertion(0, 1, 1)})


def test_program_json_shape_and_order():
    prog = compile_circuit(parse_circuit("CNOT 0 1\nCNOT 1 2"))
    d = prog.to_dict()
    assert d["n_bits"] == 3 and d["M"] == 3
    keys = [(i["host_bit"], i["host_value"], i["target"]) for i in d["insertions"]]
    assert keys == sorted(keys)


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_compiled_program_reconstructs_the_affine_map(circ):
    amap = circuit_to_affine(circ)
    prog = compile_to_insertions(amap)
    back = affine_of_program(prog)
    assert back.rows == amap.rows and back.const == amap.const


@settings(max_examples=100, deadline=None)
@given(circuits(max_gates=4))
def test_doubling_a_circuit_matches_applying_it_twice(circ):
    amap = circuit_to_affine(GateCircuit(circ.n_bits, circ.gates * 2))
    for s in range(1 << circ.n_bits):
        assert amap.apply(s) == circ.apply(circ.apply(s))


def documented_pairs(amap: AffineMapGF2) -> list[tuple[int, int, int]]:
    """The pair rule of `compile_to_insertions`: target t on wire (i, 1) for
    every i in the support S of row_t ^ e_t; when c_t = 1, the smallest
    host on its value-0 wire instead, or both wires of bit t when S is
    empty."""
    pairs = []
    for t, row in enumerate(amap.rows):
        support = [i for i in range(amap.n_bits) if (row ^ 1 << t) >> i & 1]
        if not amap.const >> t & 1:
            pairs += [(i, 1, t) for i in support]
        elif support:
            pairs += [(support[0], 0, t)] + [(i, 1, t) for i in support[1:]]
        else:
            pairs += [(t, 0, t), (t, 1, t)]
    return pairs


def test_every_affine_map_on_three_bits_compiles_and_round_trips():
    # All 168 x 8 = 1,344 invertible affine maps on 3 bits: the program
    # realizes the map, M is the count the pair rule predicts, and the
    # program is the pair rule's; the column form maps every string as the
    # rows do.
    maps = [AffineMapGF2(3, rows, const) for rows in itertools.product(range(8), repeat=3) for const in range(8)]
    maps = [amap for amap in maps if amap.is_invertible()]
    assert len(maps) == 1344
    for amap in maps:
        prog = compile_to_insertions(amap)
        assert affine_of_program(prog) == amap
        flips = sum(row == 1 << t and amap.const >> t & 1 for t, row in enumerate(amap.rows))
        assert prog.m == sum((row ^ 1 << t).bit_count() for t, row in enumerate(amap.rows)) + 2 * flips
        assert prog == InsertionProgram.from_pairs(3, documented_pairs(amap))
        assert amap.apply_all(range(8)) == [amap.apply(s) for s in range(8)]


# -- chain families and the hardware-count scan ------------------------------

@pytest.mark.parametrize("length", range(1, 11))
def test_chain_families_attain_both_bounds(length):
    assert compile_circuit(noninteracting_chain(length)).m == length
    assert compile_circuit(interacting_chain(length)).m == length * (length + 1) // 2


def test_chain_builders_match_their_gate_lists():
    assert noninteracting_chain(3).gates == (cnot(2, 3), cnot(1, 2), cnot(0, 1))
    assert interacting_chain(3).gates == (cnot(0, 1), cnot(1, 2), cnot(2, 3))


@pytest.mark.parametrize("chain", [noninteracting_chain, interacting_chain])
def test_chain_lengths_must_be_positive_integers(chain):
    # True built a one-gate chain and 2.0 raised TypeError from range()
    for length in (True, 2.0, np.float64(3), 0, -1):
        with pytest.raises(ValueError, match="chain length"):
            chain(length)


def test_random_cascade_is_pure_cnot():
    rng = random.Random(5)
    circ = random_cascade(rng, 5, 8, not_rate=0.0)
    assert circ.is_pure_cnot and len(circ.gates) == 8


def test_scan_flags_cancelling_cascades_below_gate_count():
    report = conjecture_scan(3, 4, 400, seed=0)
    assert report.lower_bound == 3 and report.upper_bound == 6
    flagged = {v.circuit_text for v in report.violations}
    for m, count in report.histogram.items():
        assert m <= report.upper_bound  # upper bound never exceeded
        assert count > 0
    for v in report.violations:
        assert v.bound == "lower" and v.m < report.lower_bound
        # every witness is replayable
        circ = parse_circuit(v.circuit_text, n_bits=4)
        assert compile_circuit(circ).m == v.m
    below = sum(c for m, c in report.histogram.items() if m < 3)
    assert len(report.violations) == below
    assert flagged  # at 400 draws of 3 gates on 4 bits, cancellations occur


def test_scan_report_serializes():
    report = conjecture_scan(2, 3, 50, seed=1)
    d = report.to_dict()
    assert d["n_gates"] == 2 and d["samples"] == 50
    assert set(map(int, d["histogram"])) == set(report.histogram)
    assert d["lower_bound"] == 2 and d["upper_bound"] == 3


@pytest.mark.parametrize(
    "n_gates, n_bits, samples",
    [(True, 3, 5), (2.0, 3, 5), (2, 3, 2.5), (2, np.float64(3), 5), (0, 3, 5), (2, 1, 5), (2, 3, 0)],
)
def test_scan_rejects_counts_that_are_not_integers_in_range(n_gates, n_bits, samples):
    with pytest.raises(ValueError):
        conjecture_scan(n_gates, n_bits, samples)


@pytest.mark.parametrize("seed", [-7, 2**64, 7.0, True])
def test_scan_rejects_a_seed_that_is_not_an_integer_in_range(seed):
    # random.Random seeds with abs(seed) and takes floats: seed -7 would
    # return the histogram of seed 7 and record -7.
    with pytest.raises(ValueError, match="seed"):
        conjecture_scan(5, 6, 50, seed=seed)

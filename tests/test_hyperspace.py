"""Superpositions: text format, exact factorized signals vs brute-force
expansion, the bit-level oracle, and the statistical readouts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtwlogic import hyperspace
from rtwlogic.compiler import (
    AffineMapGF2,
    GateCircuit,
    circuit_to_affine,
    cnot,
    compile_circuit,
    parse_circuit,
)
from rtwlogic.hyperspace import (
    ExpansionBudgetError,
    Superposition,
    format_bits,
    membership_coefficient,
    membership_estimate,
    oracle_apply,
    parse_bits,
    parse_superposition,
    product_string_sample,
    superposition_sample,
    zero_fraction,
)
from rtwlogic.reference import ReferenceSystem, tick_range

WINDOW = tick_range(512)


@pytest.fixture(scope="module")
def sys3():
    return ReferenceSystem(3, 42)


def explicit_superpositions(max_bits=6):
    def build(args):
        n_bits, raw = args
        terms = {s % (1 << n_bits): c for s, c in raw}
        return Superposition.explicit(n_bits, terms)

    return st.tuples(
        st.integers(1, max_bits),
        st.lists(st.tuples(st.integers(0, 63), st.integers(-5, 5)), max_size=12),
    ).map(build)


# -- bit-string text convention ----------------------------------------------

def test_leftmost_character_is_bit_zero():
    assert parse_bits("100") == 1
    assert parse_bits("001") == 4
    assert format_bits(1, 3) == "100"
    assert format_bits(6, 3) == "011"


@given(st.integers(1, 16))
@settings(deadline=None)
def test_bits_round_trip(n_bits):
    for s in (0, 1, (1 << n_bits) - 1, (1 << n_bits) // 2):
        assert parse_bits(format_bits(s, n_bits)) == s


def test_parse_bits_rejects_junk():
    with pytest.raises(ValueError):
        parse_bits("10x")
    with pytest.raises(ValueError):
        parse_bits("")


# -- construction and invariants ----------------------------------------------

def test_explicit_merges_duplicates_and_drops_zeros():
    y = Superposition.explicit(3, [(5, 2), (5, -2), (1, 3), (2, 0)])
    assert y.terms == ((1, 3),)
    assert y.coefficient(1) == 3 and y.coefficient(5) == 0


def test_explicit_rejects_out_of_range_strings():
    with pytest.raises(ValueError):
        Superposition.explicit(2, {4: 1})


def test_pattern_counts():
    y = Superposition.pattern(((1,), (0, 1), (0, 1)))
    assert y.is_pattern and y.term_count == 4 and y.free_bit_count == 2
    assert y.coefficient(parse_bits("110")) == 1
    assert y.coefficient(parse_bits("010")) == 0


def test_universe_counts_every_string():
    u = Superposition.universe(4)
    assert u.term_count == 16 and u.free_bit_count == 4
    assert all(u.coefficient(s) == 1 for s in range(16))


def test_expand_agrees_with_pattern_coefficients():
    y = Superposition.pattern(((0, 1), (1,), (0, 1)))
    flat = y.expand()
    assert flat.term_count == 4
    assert all(flat.coefficient(s) == y.coefficient(s) for s in range(8))


def test_expand_budget_guard():
    with pytest.raises(ExpansionBudgetError):
        Superposition.universe(12).expand(budget=1000)


def test_coefficient_sums():
    y = Superposition.explicit(3, {0: 2, 5: -3})
    assert y.abs_coeff_sum() == 5 and y.sq_coeff_sum() == 13
    assert Superposition.universe(5).abs_coeff_sum() == 32


def test_merge_adds_coefficients():
    a = Superposition.explicit(2, {0: 1, 3: 2})
    b = Superposition.explicit(2, {3: -2, 1: 1})
    assert (a + b).terms == ((0, 1), (1, 1))


def test_budget_guard_on_total_weight():
    with pytest.raises(ValueError):
        Superposition.explicit(1, {0: 1 << 63})


@pytest.mark.parametrize(
    "make",
    [
        lambda c: Superposition.explicit(2, {0: c, 1: c}),
        lambda c: Superposition(2, terms=((0, c), (1, c))),
    ],
    ids=["explicit", "constructor"],
)
def test_budget_guard_sums_numpy_coefficients_without_wrapping(make):
    # Two int64 halves of 2^63 wrapped to -2^63 and passed the guard.
    with pytest.raises(ValueError, match="budget"):
        make(np.int64(1 << 62))


def test_explicit_checks_each_value_once(monkeypatch):
    calls = []

    def counting(value, name, *bounds):
        calls.append(name)
        return check(value, name, *bounds)

    check = hyperspace._check_int
    monkeypatch.setattr(hyperspace, "_check_int", counting)
    Superposition.explicit(3, [(1, 2), (5, -1), (1, 3)])
    assert sorted(calls) == ["coefficient"] * 3 + ["n_bits"] + ["string"] * 2


# -- text format ----------------------------------------------------------------

def test_parse_universe_needs_width():
    assert parse_superposition("universe", n_bits=3) == Superposition.universe(3)
    with pytest.raises(ValueError):
        parse_superposition("universe")


def test_parse_single_string_is_a_singleton():
    y = parse_superposition("101")
    assert not y.is_pattern and y.terms == ((parse_bits("101"), 1),)


def test_parse_pattern_star_means_either_value():
    y = parse_superposition("1*0")
    assert y.is_pattern and y.allowed == ((1,), (0, 1), (0,))


def test_lone_chunk_with_star_reads_as_pattern_even_if_coeff_shaped():
    # "1*101" could be coefficient 1 times string 101; the pattern reading wins
    y = parse_superposition("1*101")
    assert y.is_pattern and y.n_bits == 5


def test_parse_term_list_with_coefficients():
    y = parse_superposition("101;2*110;-1*001")
    assert y.n_bits == 3
    assert y.coefficient(parse_bits("101")) == 1
    assert y.coefficient(parse_bits("110")) == 2
    assert y.coefficient(parse_bits("001")) == -1


@pytest.mark.parametrize("bad", ["", "10;2", "abc", "10*;11", "101;11", "2"])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        parse_superposition(bad)


def test_parse_checks_width_against_context():
    with pytest.raises(ValueError):
        parse_superposition("101", n_bits=4)
    with pytest.raises(ValueError):
        parse_superposition("10;110", n_bits=2)


def test_width_error_on_a_lone_term_says_how_to_write_it():
    with pytest.raises(ValueError, match="a one-term list is written '1\\*011;'"):
        parse_superposition("1*011", n_bits=3)
    assert parse_superposition("1*011;", n_bits=3) == Superposition.explicit(3, {0b110: 1})
    # no hint where the text cannot be read as one term of that width
    for text, n_bits in (("0110", 3), ("*1*", 4), ("1*0110", 3)):
        with pytest.raises(ValueError) as err:
            parse_superposition(text, n_bits=n_bits)
        assert "one-term" not in str(err.value)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Superposition.explicit(2, {1: 1.5}),
        lambda: Superposition.explicit(2, {1: True}),
        lambda: Superposition.explicit(2, [(1, 2), (1, np.float64(1.0))]),
        lambda: Superposition(2, terms=((1, 1.5),)),
        lambda: Superposition.explicit(2, {True: 1}),
        lambda: Superposition.pattern([(True,), (0, 1)]),
        lambda: Superposition(2, allowed=((1.0,), (0, 1))),
    ],
    ids=["1.5", "True", "float64 in a sum", "constructor 1.5", "bool string", "bool value", "float value"],
)
def test_superposition_inputs_must_be_integers(make):
    # 1.5 was truncated to 1 in the signal, while membership_estimate expected 1.5
    with pytest.raises(ValueError, match="integer"):
        make()


def test_numpy_integer_coefficients_are_accepted(sys3):
    y = Superposition.explicit(3, {np.int64(5): np.int32(-2), 3: np.uint8(4)})
    want = Superposition.explicit(3, {5: -2, 3: 4})
    assert y == want
    signal = superposition_sample(sys3, None, y, WINDOW)
    assert np.array_equal(signal, superposition_sample(sys3, None, want, WINDOW))


@settings(max_examples=80, deadline=None)
@given(explicit_superpositions())
def test_text_round_trip(y):
    if y.terms:
        assert parse_superposition(y.to_text()) == y


def test_pattern_text_round_trip():
    for text in ("universe", "10*", "0*1*"):
        y = parse_superposition(text, n_bits=len(text) if text != "universe" else 4)
        assert y.to_text() == text


def wide_explicit_superpositions():
    # Coefficients such as 10 or 110 are written with the digits 0 and 1 only.
    coeffs = st.one_of(st.integers(-1000, 1000), st.sampled_from([10, 11, 100, 101, 110, 111])).filter(bool)
    return st.integers(1, 8).flatmap(
        lambda n: st.dictionaries(st.integers(0, (1 << n) - 1), coeffs, min_size=1, max_size=6).map(
            lambda terms: Superposition.explicit(n, terms)
        )
    )


def pattern_superpositions():
    return st.lists(st.sampled_from([(0,), (1,), (0, 1)]), min_size=1, max_size=8).map(Superposition.pattern)


@settings(max_examples=200, deadline=None)
@given(st.one_of(wide_explicit_superpositions(), pattern_superpositions()))
@example(Superposition.explicit(3, {3: 10}))
def test_every_nonempty_form_round_trips_through_text(y):
    assert parse_superposition(y.to_text(), n_bits=y.n_bits).expand() == y.expand()


# -- exact signals -----------------------------------------------------------

def test_one_bit_string_signal_is_its_wire():
    sys1 = ReferenceSystem(1, 42)
    assert np.array_equal(
        product_string_sample(sys1, None, 0, WINDOW), sys1.sample(0, 0, WINDOW)
    )


def test_string_product_flips_differing_bits(sys3):
    # X_a(t) * X_b(t) equals the string selecting the differing bits' swap:
    # shared factors square away, so the product is X_{a xor b'} where each
    # differing bit contributes its two wires' product
    a, b = parse_bits("101"), parse_bits("001")
    prod = product_string_sample(sys3, None, a, WINDOW) * product_string_sample(
        sys3, None, b, WINDOW
    )
    want = (
        sys3.sample(0, 1, WINDOW)
        * sys3.sample(0, 0, WINDOW)
        * np.ones(len(WINDOW), dtype=np.int8)
    )
    assert np.array_equal(prod, want)


def test_program_signal_equals_flipped_base_signal(sys3):
    # a single controlled flip: strings with the control bit high read as
    # the base signal of the string with the target bit flipped
    prog = compile_circuit(parse_circuit("CNOT 1 2", n_bits=3))
    for text in ("010", "110", "011", "111"):
        s = parse_bits(text)
        flipped = s ^ 0b100
        assert np.array_equal(
            product_string_sample(sys3, prog, s, WINDOW),
            product_string_sample(sys3, None, flipped, WINDOW),
        )
    for text in ("000", "100"):  # control low: untouched
        s = parse_bits(text)
        assert np.array_equal(
            product_string_sample(sys3, prog, s, WINDOW),
            product_string_sample(sys3, None, s, WINDOW),
        )


def test_singleton_superposition_matches_product_string(sys3):
    y = Superposition.explicit(3, {5: 1})
    assert np.array_equal(
        superposition_sample(sys3, None, y, WINDOW),
        product_string_sample(sys3, None, 5, WINDOW),
    )


def test_universe_signal_values_are_zero_or_full_scale():
    for n_bits in (2, 4, 6):
        sysn = ReferenceSystem(n_bits, 42)
        signal = superposition_sample(sysn, None, Superposition.universe(n_bits), WINDOW)
        assert set(np.unique(signal)) <= {0, -(1 << n_bits), 1 << n_bits}


def test_pattern_signal_equals_expanded_signal(sys3):
    for allowed in (((0, 1), (1,), (0, 1)), ((0,), (0, 1), (1,)), ((0, 1),) * 3):
        y = Superposition.pattern(allowed)
        assert np.array_equal(
            superposition_sample(sys3, None, y, WINDOW),
            superposition_sample(sys3, None, y.expand(), WINDOW),
        )


def test_pattern_signal_equals_expanded_signal_under_program(sys3):
    prog = compile_circuit(parse_circuit("NOT 0\nCNOT 0 2", n_bits=3))
    y = Superposition.pattern(((0, 1), (1,), (0, 1)))
    assert np.array_equal(
        superposition_sample(sys3, prog, y, WINDOW),
        superposition_sample(sys3, prog, y.expand(), WINDOW),
    )


@settings(max_examples=60, deadline=None)
@given(explicit_superpositions(max_bits=5))
def test_signal_is_bounded_by_total_coefficient_weight(y):
    sysn = ReferenceSystem(y.n_bits, 42)
    signal = superposition_sample(sysn, None, y, tick_range(64))
    assert int(np.abs(signal).max(initial=0)) <= y.abs_coeff_sum()


def test_signal_is_linear_in_the_superposition(sys3):
    a = Superposition.explicit(3, {0: 2, 5: 1})
    b = Superposition.explicit(3, {5: -1, 6: 4})
    total = superposition_sample(sys3, None, a + b, WINDOW)
    assert np.array_equal(
        total,
        superposition_sample(sys3, None, a, WINDOW)
        + superposition_sample(sys3, None, b, WINDOW),
    )


# -- bit-level oracle ---------------------------------------------------------

def test_oracle_identity_is_a_no_op():
    y = Superposition.explicit(3, {2: 1, 5: -2})
    assert oracle_apply(AffineMapGF2.identity(3), y) == y


def test_oracle_controlled_flip_moves_one_string():
    amap = circuit_to_affine(GateCircuit(3, (cnot(1, 2),)))
    y = Superposition.explicit(3, {parse_bits("110"): 1})
    assert oracle_apply(amap, y) == Superposition.explicit(3, {parse_bits("111"): 1})


def test_oracle_permutes_the_universe():
    amap = circuit_to_affine(
        GateCircuit(4, (cnot(0, 1), cnot(2, 3), cnot(1, 2)))
    )
    u = Superposition.universe(4).expand()
    image = oracle_apply(amap, u)
    assert {s for s, _ in image.terms} == set(range(16))
    assert all(c == 1 for _, c in image.terms)


def test_oracle_is_linear():
    amap = circuit_to_affine(GateCircuit(3, (cnot(0, 2), cnot(2, 1))))
    a = Superposition.explicit(3, {1: 2, 3: 1})
    b = Superposition.explicit(3, {3: -1, 6: 5})
    assert oracle_apply(amap, a + b) == oracle_apply(amap, a) + oracle_apply(amap, b)


# -- statistical readouts -------------------------------------------------------

def test_zero_fraction_is_exactly_zero_for_fixed_strings():
    y = Superposition.pattern(((1,), (0,), (1,)))
    entry = zero_fraction(ReferenceSystem(3, 42), y, 4096).entries[0]
    assert entry.estimate == 0.0 and entry.expected == 0.0 and entry.passed


def test_zero_fraction_single_free_bit_is_half():
    y = Superposition.pattern(((0, 1), (0,), (1,)))
    entry = zero_fraction(ReferenceSystem(3, 42), y, 200_000).entries[0]
    assert entry.expected == 0.5 and entry.passed


def test_zero_fraction_rejects_explicit_form():
    with pytest.raises(ValueError):
        zero_fraction(ReferenceSystem(2, 42), Superposition.explicit(2, {0: 1}), 16)


def test_membership_coefficient_uses_the_program_map():
    prog = compile_circuit(parse_circuit("CNOT 0 1", n_bits=2))
    y = Superposition.explicit(2, {parse_bits("11"): 7})
    # control (bit 0) is high, so the target flips: 11 -> 10
    assert membership_coefficient(prog, y, parse_bits("10")) == 7
    assert membership_coefficient(prog, y, parse_bits("11")) == 0
    assert membership_coefficient(None, y, parse_bits("11")) == 7


def test_out_of_range_strings_are_rejected_in_both_forms():
    two_bit_prog = compile_circuit(parse_circuit("CNOT 0 1", n_bits=2))
    for y in (Superposition.universe(3), Superposition.explicit(3, {1: 2})):
        for string in (-1, 8):
            with pytest.raises(ValueError):
                y.coefficient(string)
            # The inverse map would mask 8 to 0 before the lookup.
            with pytest.raises(ValueError):
                membership_coefficient(None, y, string)
        with pytest.raises(ValueError):
            membership_coefficient(two_bit_prog, y, 1)


def test_membership_self_probe_reads_one():
    sys2 = ReferenceSystem(2, 42)
    y = Superposition.explicit(2, {3: 1})
    entry = membership_estimate(sys2, None, y, 3, 4096).entries[0]
    # self-correlation of a +-1 signal is exactly 1 at every tick
    assert entry.estimate == 1.0 and entry.expected == 1.0 and entry.passed


def test_membership_orthogonal_probe_reads_zero():
    sys3 = ReferenceSystem(3, 42)
    y = Superposition.from_strings(3, [0, 1, 2, 3])
    entry = membership_estimate(sys3, None, y, 7, 100_000).entries[0]
    assert entry.expected == 0.0
    assert entry.tolerance == pytest.approx(5.0 * np.sqrt(4 / 100_000))
    assert entry.passed


def test_membership_reads_through_a_compiled_program():
    sys3 = ReferenceSystem(3, 42)
    prog = compile_circuit(parse_circuit("CNOT 1 2\nNOT 0", n_bits=3))
    y = Superposition.explicit(3, {parse_bits("110"): 1, parse_bits("000"): 1})
    probe = membership_coefficient(prog, y, parse_bits("011"))
    assert probe == 1  # 110 -> flip target 2 (control high), flip bit 0
    entry = membership_estimate(sys3, prog, y, parse_bits("011"), 100_000).entries[0]
    assert entry.expected == 1.0 and entry.passed


def test_universe_membership_reads_one_for_any_probe():
    sys4 = ReferenceSystem(4, 42)
    u = Superposition.universe(4)
    entry = membership_estimate(sys4, None, u, parse_bits("0110"), 100_000).entries[0]
    assert entry.expected == 1.0 and entry.passed
    # the readout uses the conservative sum-of-squares band
    assert entry.tolerance == pytest.approx(5.0 * np.sqrt(16 / 100_000))


def test_wide_universe_membership_within_the_centered_band():
    # only the 2^N - 1 non-probe terms fluctuate, so the estimate also sits
    # in the tighter band with that variance
    ticks = 1_000_000
    sys8 = ReferenceSystem(8, 42)
    entry = membership_estimate(
        sys8, None, Superposition.universe(8), parse_bits("10110010"), ticks
    ).entries[0]
    assert entry.expected == 1.0
    assert abs(entry.estimate - 1.0) <= 5.0 * np.sqrt(255 / ticks)

"""Superpositions: text format, exact factorized signals vs brute-force
expansion, the bit-level oracle, and the statistical readouts."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtwlogic import hyperspace, reference
from rtwlogic.compiler import (
    AffineMapGF2,
    GateCircuit,
    circuit_to_affine,
    cnot,
    compile_circuit,
    parse_circuit,
    random_cascade,
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
from rtwlogic.verify import signal_equivalence_check

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
    y = Superposition(3, offset=0b001, free=0b110)
    assert y.is_pattern and y.term_count == 4 and y.free.bit_count() == 2
    assert y.coefficient(parse_bits("110")) == 1
    assert y.coefficient(parse_bits("010")) == 0


def test_universe_counts_every_string():
    u = Superposition.universe(4)
    assert u.term_count == 16 and u.free == 0b1111
    assert all(u.coefficient(s) == 1 for s in range(16))


def test_expand_agrees_with_pattern_coefficients():
    y = Superposition(3, offset=0b010, free=0b101)
    flat = y.expand()
    assert flat.term_count == 4
    assert all(flat.coefficient(s) == y.coefficient(s) for s in range(8))


def test_expand_budget_guard():
    # 2^21 strings exceed the budget, and are refused before any is listed.
    with pytest.raises(ExpansionBudgetError):
        Superposition.universe(21).expand()


def test_coefficient_sums():
    y = Superposition.explicit(3, {0: 2, 5: -3})
    assert y.sq_coeff_sum() == 13
    assert Superposition.universe(5).sq_coeff_sum() == 32


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


@pytest.mark.parametrize("bad", [True, 1.0])
@pytest.mark.parametrize("bad_first", [False, True], ids=["after", "before"])
def test_a_bad_string_equal_to_a_good_one_is_rejected_in_either_order(bad, bad_first):
    # True == 1.0 == 1, so a merge before the check folded the bad key into
    # the good one when the good one came first.
    pairs = [(bad, 1), (1, 1)] if bad_first else [(1, 1), (bad, 1)]
    for make in (Superposition.explicit, lambda n, terms: Superposition(n, terms=tuple(terms))):
        with pytest.raises(ValueError, match="string must be an integer"):
            make(2, pairs)


def per_value_terms(n_bits: int, pairs):
    """Stored terms of an explicit sum, or the error text, checking one
    value at a time in pair order, each before the merge and the sum."""

    def check(value, name: str, stop=None) -> int:
        if type(value) is not int and not isinstance(value, np.integer):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if stop is not None and not 0 <= value < stop:
            raise ValueError(f"{name} {value} out of range [0, {stop})")
        return int(value)

    try:
        merged = {}
        for s, c in pairs:
            s = check(s, "string", 1 << n_bits)
            merged[s] = merged.get(s, 0) + check(c, "coefficient")
        if sum(map(abs, merged.values())) > 1 << 62:
            raise ValueError("coefficient magnitudes exceed the exact-arithmetic budget")
    except ValueError as exc:
        return str(exc)
    return tuple(sorted((s, c) for s, c in merged.items() if c))


def built_terms(make, n_bits: int, pairs):
    try:
        y = make(n_bits, pairs)
    except ValueError as exc:
        return str(exc)
    assert all(type(s) is int and type(c) is int for s, c in y.terms)
    return y.terms


def odd_values(good):
    """`good` values mixed with the values a check must refuse or convert:
    bools, floats and NumPy integers."""
    return st.one_of(
        good,
        good.filter(lambda v: abs(v) < 2**63).map(np.int64),
        st.booleans(),
        st.floats(-2, 9).map(lambda v: round(v, 1)),
        st.sampled_from([np.uint8(3), np.float64(1.0), "1", None]),
    )


strings = st.one_of(st.integers(0, 7), st.integers(-2, 9), st.integers(2**62, 2**64))
coefficients = st.one_of(st.integers(-3, 3), st.sampled_from([0, 2**61, -(2**61), 2**62, 2**62 + 1]))


@settings(max_examples=400, deadline=None)
@given(
    n_bits=st.integers(1, 3),
    pairs=st.lists(st.tuples(odd_values(strings), odd_values(coefficients)), max_size=8),
)
@example(n_bits=3, pairs=[(1, 2), (5, -1), (1, 3)])
@example(n_bits=2, pairs=[(1, 1), (True, 1)])
@example(n_bits=2, pairs=[(1, 1), (1.0, 1)])
@example(n_bits=2, pairs=[(1, 2**62), (1, 1), (2, -1)])
@example(n_bits=2, pairs=[(1, 2**61), (2, 2**61), (3, 1)])
@example(n_bits=4, pairs=[(np.uint8(3), 1), (np.int64(3), 2), (4, 0)])
def test_explicit_checks_match_a_per_value_reference(n_bits, pairs):
    # One type pass and one range check, a merge only where a string
    # repeats: the stored terms, or the first bad value's error text, are
    # the ones a check of every value in pair order gives.
    want = per_value_terms(n_bits, pairs)
    assert built_terms(Superposition.explicit, n_bits, pairs) == want
    assert built_terms(lambda n, terms: Superposition(n, terms=tuple(terms)), n_bits, pairs) == want
    assert built_terms(lambda n, terms: Superposition(n, terms=iter(terms)), n_bits, pairs) == want


def test_numpy_strings_are_stored_as_python_ints():
    # A uint8 string was stored as given, and its oracle image above 8 bits
    # overflowed: OverflowError, Python integer 513 out of bounds for uint8.
    want = Superposition.explicit(10, {3: 1, 700: -2})
    y = Superposition.explicit(10, {np.uint8(3): 1, np.int64(700): -2})
    assert y == want and all(type(s) is int for s, _ in y.terms)
    circ = parse_circuit("CNOT 9 0\nCNOT 0 9", n_bits=10)
    assert oracle_apply(circuit_to_affine(circ), y) == oracle_apply(circuit_to_affine(circ), want)
    assert signal_equivalence_check(ReferenceSystem(10, 1), circ, y, 256).passed


pair_lists = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(-3, 3)), max_size=12),
    )
)


@settings(max_examples=200, deadline=None)
@given(pair_lists)
@example((2, [(3, 1), (0, 1)]))
@example((2, [(1, 2), (1, -2), (2, 0), (1, 1)]))
def test_direct_construction_normalizes_like_explicit(args):
    # the pairs come in any order, with repeated strings and zeros
    n_bits, pairs = args
    y = Superposition(n_bits, terms=tuple(pairs))
    want = Superposition.explicit(n_bits, pairs)
    assert y == want and hash(y) == hash(want)
    strings = [s for s, _ in y.terms]
    assert strings == sorted(set(strings))
    assert all(type(c) is int and c != 0 for _, c in y.terms)
    sums = {}
    for s, c in pairs:
        sums[s] = sums.get(s, 0) + c
    assert dict(y.terms) == {s: c for s, c in sums.items() if c}


def test_pattern_masks_are_normalized():
    want = Superposition(3, offset=0b100, free=0b001)
    for offset, free in ((np.uint8(4), np.int64(1)), (np.int64(4), 1), (4, np.uint8(1))):
        y = Superposition(3, offset=offset, free=free)
        assert y == want and hash(y) == hash(want)
        assert type(y.offset) is int and type(y.free) is int
    assert parse_superposition("*01") == want


def per_bit_coefficient(allowed, string: int) -> int:
    """1 where every bit of the string is one of that bit's allowed values."""
    return int(all((string >> bit) & 1 in vals for bit, vals in enumerate(allowed)))


@st.composite
def pattern_masks(draw):
    """(n_bits, offset, free) over 1 to 8 bits with offset & free == 0, both
    masks of one type: int or a NumPy integer."""
    n_bits = draw(st.integers(1, 8))
    free = draw(st.integers(0, (1 << n_bits) - 1))
    offset = draw(st.integers(0, (1 << n_bits) - 1)) & ~free
    as_type = draw(st.sampled_from([int, np.int64, np.uint8]))
    return n_bits, as_type(offset), as_type(free)


@settings(max_examples=200, deadline=None)
@given(pattern_masks())
@example((8, 0, 0xFF))
@example((1, np.uint8(1), np.uint8(0)))
def test_pattern_masks_match_the_per_bit_definition(masks):
    n_bits, offset, free = masks
    y = Superposition(n_bits, offset=offset, free=free)
    assert type(y.offset) is int and type(y.free) is int
    # Bit i allows both values where it is free, else the offset's bit.
    allowed = [(0, 1) if int(free) >> bit & 1 else (int(offset) >> bit & 1,) for bit in range(n_bits)]
    assert y.term_count == 2 ** sum(len(vals) == 2 for vals in allowed)
    coefficients = [per_bit_coefficient(allowed, s) for s in range(1 << n_bits)]
    assert [y.coefficient(s) for s in range(1 << n_bits)] == coefficients
    assert y.expand().terms == tuple((s, 1) for s, c in enumerate(coefficients) if c)
    text = "".join("*" if len(vals) == 2 else str(vals[0]) for vals in allowed)
    assert y.to_text() == ("universe" if set(text) == {"*"} else text)
    # A pattern without free bits is one string, whose text reads as a one-term sum.
    assert parse_superposition(y.to_text(), n_bits=n_bits) == (y if y.free else y.expand())


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"terms": ((1, 1),), "offset": 0}, "exactly one"),
        ({}, "exactly one"),
        ({"terms": ((1, 1),), "free": 0b10}, "free bits only"),
        ({"offset": 0b1000}, "offset 8 out of range"),
        ({"offset": 0, "free": 0b1111}, "free 15 out of range"),
        ({"offset": -1}, "offset -1 out of range"),
        ({"offset": 0b011, "free": 0b110}, "sets free bits"),
        ({"offset": 1.0}, "integer"),
        ({"offset": 0, "free": True}, "integer"),
        ({"n_bits": 0, "offset": 0}, "n_bits 0 out of range"),
    ],
    ids=["both forms", "neither form", "free with terms", "offset too wide", "free too wide", "negative offset",
         "overlap", "float offset", "bool free", "no bits"],
)
def test_the_constructor_refuses_an_ill_formed_pattern(kwargs, match):
    with pytest.raises(ValueError, match=match):
        Superposition(**{"n_bits": 3, **kwargs})


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
    assert y.is_pattern and (y.offset, y.free) == (0b001, 0b010)
    assert y == Superposition(3, offset=0b001, free=0b010)


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
    assert parse_superposition("+2*101;") == Superposition.explicit(3, {0b101: 2})


@pytest.mark.parametrize("bad", ["", "10;2", "abc", "10*;11", "101;11", "2"])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        parse_superposition(bad)


@pytest.mark.parametrize(
    "text", ["\u0661*101;", "-\u0663*101;110", "\uff12*10;01"],
    ids=["arabic-indic 1", "signed arabic-indic 3", "fullwidth 2"],
)
def test_a_coefficient_is_ascii_decimal_digits_only(text):
    # `\d` and int() read the digits of other scripts: the first was coefficient 1.
    with pytest.raises(ValueError, match="bad superposition chunk"):
        parse_superposition(text)


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
        lambda: Superposition(2, offset=True, free=0b10),
        lambda: Superposition(2, offset=1.0, free=0b10),
        lambda: Superposition.explicit(2, {"a": 1, 1: 1}),
        lambda: Superposition.explicit(2, {1: 1, "a": 1}),
        lambda: Superposition.explicit(2, {None: 1, 0: 1}),
    ],
    ids=[
        "1.5", "True", "float64 in a sum", "constructor 1.5", "bool string", "bool value", "float value",
        "str string first", "str string second", "None string",
    ],
)
def test_superposition_inputs_must_be_integers(make):
    # 1.5 was truncated to 1 in the signal, while membership_estimate expected 1.5;
    # mixed string keys raised TypeError from sorting before they were checked
    with pytest.raises(ValueError, match="integer"):
        make()


def test_numpy_integer_coefficients_are_accepted(sys3):
    y = Superposition.explicit(3, {np.int64(5): np.int32(-2), 3: np.uint8(4)})
    want = Superposition.explicit(3, {5: -2, 3: 4})
    assert y == want
    direct = Superposition(3, terms=((5, np.int64(-3)), (3, np.uint8(4)), (5, np.int32(1))))
    assert direct == want and all(type(c) is int for _, c in direct.terms)
    signal = superposition_sample(sys3, None, y, WINDOW)
    assert np.array_equal(signal, superposition_sample(sys3, None, want, WINDOW))


@settings(max_examples=80, deadline=None)
@given(explicit_superpositions())
@example(Superposition.explicit(2, {}))  # the empty sum, written "0*00;"
def test_text_round_trip(y):
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
    return pattern_masks().map(lambda masks: Superposition(masks[0], offset=masks[1], free=masks[2]))


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


# Chunks of 128 ticks at 3 bits (see `many_chunks`): 1000 ticks are eight
# chunks, the last of 104 ticks, which ends off a 64-tick word.
LONG_WINDOW = tick_range(1000)


@pytest.fixture
def many_chunks(monkeypatch):
    monkeypatch.setattr(reference, "_CHUNK_SAMPLES", 1 << 10)


def test_pattern_signal_equals_expanded_signal(sys3, many_chunks):
    for offset, free in ((0b010, 0b101), (0b100, 0b010), (0, 0b111), (0b101, 0)):
        y = Superposition(3, offset=offset, free=free)
        assert np.array_equal(
            superposition_sample(sys3, None, y, LONG_WINDOW),
            superposition_sample(sys3, None, y.expand(), LONG_WINDOW),
        )


def test_pattern_signal_equals_expanded_signal_under_program(sys3, many_chunks):
    prog = compile_circuit(parse_circuit("NOT 0\nCNOT 0 2", n_bits=3))
    y = Superposition(3, offset=0b010, free=0b101)
    assert np.array_equal(
        superposition_sample(sys3, prog, y, LONG_WINDOW),
        superposition_sample(sys3, prog, y.expand(), LONG_WINDOW),
    )


@settings(max_examples=60, deadline=None)
@given(explicit_superpositions(max_bits=5))
def test_signal_is_bounded_by_total_coefficient_weight(y):
    sysn = ReferenceSystem(y.n_bits, 42)
    signal = superposition_sample(sysn, None, y, tick_range(64))
    assert int(np.abs(signal).max(initial=0)) <= sum(abs(c) for _, c in y.terms)


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


def all_patterns(n_bits: int):
    """Every pattern of n_bits: each bit fixed at 0, fixed at 1 or free."""
    for free in range(1 << n_bits):
        for offset in range(1 << n_bits):
            if not offset & free:
                yield Superposition(n_bits, offset=offset, free=free)


def is_pattern_set(strings: list[int]) -> bool:
    """Whether the strings are some offset | every submask of some mask."""
    spread = 0
    for s in strings:
        spread |= s ^ strings[0]
    return len(set(strings)) == 1 << spread.bit_count()


@pytest.mark.parametrize("n_bits", range(1, 7))
def test_a_pattern_maps_to_a_pattern_exactly_when_its_image_is_one(n_bits):
    # Under invertible maps, NOTs included, every pattern's image expands
    # to the oracle image of its expansion, and is a pattern exactly when
    # the brute-force image set is one.
    rng = random.Random(n_bits)
    for _ in range(4):
        amap = circuit_to_affine(random_cascade(rng, n_bits, rng.randint(0, 3 * n_bits), not_rate=0.3))
        for y in all_patterns(n_bits):
            image, brute = oracle_apply(amap, y), oracle_apply(amap, y.expand())
            assert image.expand() == brute
            assert image.is_pattern == is_pattern_set([s for s, _ in brute.terms])
    universe = Superposition.universe(n_bits)
    assert oracle_apply(amap, universe) == universe


def test_a_singular_map_expands_a_pattern():
    # A map that is not invertible may merge strings, so every pattern's
    # image is the expanded sum, even where its strings form a pattern.
    rng = random.Random(5)
    for n_bits in range(1, 7):
        maps = []
        while len(maps) < 5:
            rows = tuple(rng.randrange(1 << n_bits) for _ in range(n_bits))
            amap = AffineMapGF2(n_bits, rows, rng.randrange(1 << n_bits))
            maps += [] if amap.is_invertible() else [amap]
        for amap in maps:
            for y in all_patterns(n_bits):
                assert oracle_apply(amap, y) == oracle_apply(amap, y.expand())


def test_oracle_is_linear():
    amap = circuit_to_affine(GateCircuit(3, (cnot(0, 2), cnot(2, 1))))
    a = Superposition.explicit(3, {1: 2, 3: 1})
    b = Superposition.explicit(3, {3: -1, 6: 5})
    assert oracle_apply(amap, a + b) == oracle_apply(amap, a) + oracle_apply(amap, b)


# -- statistical readouts -------------------------------------------------------

def test_zero_fraction_is_exactly_zero_for_fixed_strings():
    y = Superposition(3, offset=0b101, free=0)
    entry = zero_fraction(ReferenceSystem(3, 42), y, 4096).entries[0]
    assert entry.estimate == 0.0 and entry.expected == 0.0 and entry.passed


def test_zero_fraction_single_free_bit_is_half():
    y = Superposition(3, offset=0b100, free=0b001)
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

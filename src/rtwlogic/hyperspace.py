"""Product strings, superpositions, and their exact integer signals.

A bit string selects one reference wire per bit; its signal is the product
of those wires and is itself a fair +-1 telegraph wave. A superposition is
a sum of such product signals with integer coefficients. Factorized
(pattern) superpositions such as the all-strings universe are evaluated as
a product of per-bit sums, costing O(N) per tick instead of O(2^N).

An explicit sum is evaluated in the Walsh basis of the NOT operators
N_i = w[i,0] * w[i,1]: every product string is B(t) * chi_s(d(t)), with B
the product of the value-0 wires and d(t) the N operator sign bits, so
sum_s c_s P_s = B * C^(d), where C^ is the Walsh-Hadamard transform of the
coefficients. Strings are grouped by their bits above a low part of K bits,
and each group costs one 2^K-entry transform and one pass over the ticks;
K is chosen per sum from a cost estimate (`_low_bit_count`).

Bit strings are ints with bit i = (s >> i) & 1. In the text format the
leftmost character is bit 0.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .compiler import AffineMapGF2, InsertionProgram, _check_int, affine_of_program
from .reference import ReferenceSystem, WireBank, as_tick_array, tick_range
from .report import Report, StatEntry

DEFAULT_EXPANSION_BUDGET = 1 << 20

# Coefficient budget keeping every signal sum inside exact int64 arithmetic.
_MAX_ABS_COEFF_SUM = 1 << 62

# Most low string bits an explicit sum is tabulated over: 2^16 int64 entries.
_MAX_LOW_BITS = 16
# Estimated nanoseconds of one NumPy call, in `_low_bit_count`.
_CALL_COST = 1000
# Plane ticks per block of group sign planes (512 KiB of packed bits; a
# window shorter than one 64-bit word counts as one word), which bounds the
# working set of explicit sums and readouts whatever the group count.
_BLOCK_TICKS = 1 << 22


class ExpansionBudgetError(RuntimeError):
    """Expanding a pattern would enumerate more strings than allowed."""


def parse_bits(text: str) -> int:
    """Bit-string text to int; the leftmost character is bit 0."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"bad bit string {text!r}")
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


def format_bits(string: int, n_bits: int) -> str:
    """Int to bit-string text; inverse of parse_bits."""
    _check_string(string, n_bits)
    return "".join("1" if (string >> i) & 1 else "0" for i in range(n_bits))


@dataclass(frozen=True)
class Superposition:
    """Integer-coefficient sum of product strings over n_bits.

    Exactly one of `terms` (explicit form: sorted (string, coefficient)
    pairs, no zeros) and `allowed` (pattern form: per-bit allowed values,
    each (0,), (1,) or (0, 1)) is set. A pattern denotes the coefficient-1
    sum over the Cartesian product of its allowed values; all-(0, 1) is the
    universe. Values are immutable after construction.
    """

    n_bits: int
    terms: tuple[tuple[int, int], ...] | None = None
    allowed: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        _check_int(self.n_bits, "n_bits", 1)
        if (self.terms is None) == (self.allowed is None):
            raise ValueError("exactly one of terms/allowed must be given")
        if self.terms is not None:
            seen = set()
            for s, c in self.terms:
                _check_int(c, "coefficient")
                if c == 0:
                    raise ValueError("zero coefficients must be dropped")
                if s in seen:
                    raise ValueError(f"duplicate string {s}")
                seen.add(s)
            _check_terms(self.n_bits, self.terms)
        else:
            if len(self.allowed) != self.n_bits:
                raise ValueError(f"pattern needs {self.n_bits} entries, got {len(self.allowed)}")
            for vals in self.allowed:
                for value in vals:
                    _check_int(value, "allowed value")
                if tuple(vals) not in ((0,), (1,), (0, 1)):
                    raise ValueError(f"bad allowed-value set {vals!r}")

    @classmethod
    def explicit(cls, n_bits: int, coefficients) -> "Superposition":
        """Explicit superposition from a {string: coefficient} mapping or
        (string, coefficient) pairs; repeated strings add, zeros drop.
        Every value is checked once, here."""
        _check_int(n_bits, "n_bits", 1)
        merged: dict[int, int] = {}
        items = coefficients.items() if hasattr(coefficients, "items") else coefficients
        for s, c in items:
            # before the sum, which would turn True into 1
            _check_int(c, "coefficient")
            merged[s] = merged.get(s, 0) + int(c)
        terms = tuple(sorted((s, c) for s, c in merged.items() if c != 0))
        _check_terms(n_bits, terms)
        # Merged and sorted: no zeros, no duplicates, nothing left to check.
        y = object.__new__(cls)
        for name, value in (("n_bits", n_bits), ("terms", terms), ("allowed", None)):
            object.__setattr__(y, name, value)
        return y

    @classmethod
    def from_strings(cls, n_bits: int, strings) -> "Superposition":
        return cls.explicit(n_bits, [(s, 1) for s in strings])

    @classmethod
    def pattern(cls, allowed) -> "Superposition":
        return cls(len(tuple(allowed)), allowed=tuple(tuple(sorted(set(v))) for v in allowed))

    @classmethod
    def universe(cls, n_bits: int) -> "Superposition":
        """The coefficient-1 sum of all 2^n_bits product strings."""
        return cls(n_bits, allowed=tuple((0, 1) for _ in range(n_bits)))

    @property
    def is_pattern(self) -> bool:
        return self.allowed is not None

    @property
    def term_count(self) -> int:
        if self.terms is not None:
            return len(self.terms)
        count = 1
        for vals in self.allowed:
            count *= len(vals)
        return count

    @property
    def free_bit_count(self) -> int:
        """Number of pattern bits allowing both values."""
        if self.allowed is None:
            raise ValueError("free bits are defined for pattern superpositions only")
        return sum(1 for vals in self.allowed if len(vals) == 2)

    def coefficient(self, string: int) -> int:
        _check_string(string, self.n_bits)
        if self.terms is not None:
            for s, c in self.terms:
                if s == string:
                    return c
            return 0
        for i, vals in enumerate(self.allowed):
            if ((string >> i) & 1) not in vals:
                return 0
        return 1

    def abs_coeff_sum(self) -> int:
        if self.terms is not None:
            return sum(abs(int(c)) for _, c in self.terms)
        return self.term_count

    def sq_coeff_sum(self) -> int:
        if self.terms is not None:
            return sum(int(c) ** 2 for _, c in self.terms)
        return self.term_count

    def expand(self, budget: int = DEFAULT_EXPANSION_BUDGET) -> "Superposition":
        """Explicit form of this superposition, enumerating pattern strings."""
        if self.terms is not None:
            return self
        if self.term_count > budget:
            raise ExpansionBudgetError(
                f"pattern expands to {self.term_count} strings, budget is {budget}"
            )
        strings = []
        for choice in itertools.product(*self.allowed):
            strings.append(sum(bit << i for i, bit in enumerate(choice)))
        return Superposition.from_strings(self.n_bits, strings)

    def __add__(self, other: "Superposition") -> "Superposition":
        """Coefficient-wise sum; pattern operands are expanded first."""
        if other.n_bits != self.n_bits:
            raise ValueError("n_bits mismatch in addition")
        return Superposition.explicit(self.n_bits, self.expand().terms + other.expand().terms)

    def to_text(self) -> str:
        """Render in the text format accepted by parse_superposition."""
        if self.allowed is not None:
            if all(len(v) == 2 for v in self.allowed):
                return "universe"
            return "".join("*" if len(v) == 2 else str(v[0]) for v in self.allowed)
        chunks = []
        for s, c in self.terms:
            bits = format_bits(s, self.n_bits)
            chunks.append(bits if c == 1 else f"{c}*{bits}")
        text = ";".join(chunks)
        # A lone chunk such as "10*110" would read back as a pattern; the
        # trailing separator makes it a term list.
        if len(chunks) == 1 and "*" in text and set(text) <= {"0", "1", "*"}:
            text += ";"
        return text


_CHUNK_RE = re.compile(r"^(?:(?P<coeff>[+-]?\d+)\*)?(?P<bits>[01]+)$")


def parse_superposition(text: str, n_bits: int | None = None) -> Superposition:
    """Parse the superposition text format.

    Accepted forms: the word `universe` (needs n_bits); one pattern string
    over {0,1,*} where `*` allows both values; or a semicolon-separated
    list of bit strings with optional `coeff*` prefixes, e.g. `101;2*110`.
    A lone chunk consisting only of 0/1/* parses as a pattern when it
    contains `*`, so spell coefficient-one terms explicitly (`1*...`) only
    inside semicolon lists. The leftmost character is bit 0.
    """
    spec = text.strip()
    if not spec:
        raise ValueError("empty superposition spec")
    if spec.lower() == "universe":
        if n_bits is None:
            raise ValueError("universe needs an explicit bit count")
        return Superposition.universe(n_bits)
    if ";" not in spec and set(spec) <= {"0", "1", "*"}:
        if n_bits is not None and len(spec) != n_bits:
            term = _CHUNK_RE.match(spec)
            as_term = term and term.group("coeff") and len(term.group("bits")) == n_bits
            hint = f"; a one-term list is written {spec + ';'!r}" if as_term else ""
            raise ValueError(f"spec {spec!r} has {len(spec)} bits, expected {n_bits}{hint}")
        if "*" in spec:
            return Superposition.pattern(tuple((0, 1) if ch == "*" else (int(ch),) for ch in spec))
        return Superposition.explicit(len(spec), {parse_bits(spec): 1})
    pairs = []
    width = n_bits
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        match = _CHUNK_RE.match(chunk)
        if match is None:
            raise ValueError(f"bad superposition chunk {chunk!r}")
        bits = match.group("bits")
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise ValueError(f"chunk {chunk!r} has {len(bits)} bits, expected {width}")
        coeff = int(match.group("coeff")) if match.group("coeff") else 1
        pairs.append((parse_bits(bits), coeff))
    if width is None:
        raise ValueError("empty superposition spec")
    return Superposition.explicit(width, pairs)


def product_string_sample(sys: ReferenceSystem, prog: InsertionProgram | None, string: int, ticks):
    """+-1 signal of one product string under an insertion program."""
    _check_string(string, sys.n_bits)
    arr, scalar = as_tick_array(ticks)
    bank = WireBank.draw(sys, arr).apply(prog)
    out = bank.signs(bank.string_planes(string))
    return int(out[0]) if scalar else out


def superposition_sample(sys: ReferenceSystem, prog: InsertionProgram | None, y: Superposition, ticks):
    """Exact integer signal of a superposition at the given tick(s).

    Pattern form multiplies per-bit wire sums; explicit form is
    B * C^(d), the Walsh-Hadamard transform of its coefficients read at the
    NOT-operator bits (see `superposition_signal`). Neither enumerates the
    2^N strings.
    """
    arr, scalar = as_tick_array(ticks)
    signal = superposition_signal(WireBank.draw(sys, arr).apply(prog), y)
    return int(signal[0]) if scalar else signal


def superposition_signal(bank: WireBank, y: Superposition) -> np.ndarray:
    """Exact int64 signal of a superposition on the wires of a bank.

    A pattern is 0 where a free bit's two wires differ and +-2^k elsewhere.
    An explicit sum adds, per group of strings sharing their bits above the
    low K, the group's transformed coefficient table gathered at the low
    NOT-operator bits (`_SpectralSplit`); at K = 0 each term adds its
    product signal times its coefficient. Every transform partial sum is
    bounded by sum |c| <= 2^62, so int64 is exact.
    """
    _check_width(y, bank.n_bits)
    if y.is_pattern:
        zero, sign = bank.pattern_planes(y.allowed)
        magnitude = 1 << y.free_bit_count
        # Indexed by sign bit + 2 * zero bit.
        levels = np.array([magnitude, -magnitude, 0, 0], dtype=np.int64)
        sign_bits, level = bank.bits(np.stack([sign, zero]))
        level <<= 1
        level |= sign_bits
        return levels[level]
    return _explicit_signal(bank, y)


def _explicit_signal(bank: WireBank, y: Superposition, low_bits: int | None = None) -> np.ndarray:
    """`superposition_signal` of an explicit sum; `low_bits` pins K."""
    split = _SpectralSplit(bank, y, low_bits, readout=False)
    signal = np.zeros(bank.n_ticks, dtype=np.int64)
    for first, planes in split.batches():
        if split.index is None:
            # One term per group: its product signal times its coefficient.
            for c, plane in zip(split.coeffs[first : first + len(planes)], planes):
                signal += bank.signs(plane) * np.int64(c)
            continue
        for group, plane in enumerate(planes, first):
            lows, coeffs = split.group(group)
            spectrum = np.zeros(1 << split.low_bits, dtype=np.int64)
            spectrum[lows] = coeffs
            spectrum = _walsh_hadamard(spectrum)
            # Entry 2x + b is C^_g[x] times the sign of plane bit b.
            table = np.stack((spectrum, -spectrum), axis=-1).ravel()
            signal += table[split.index | bank.bits(plane)]
    return signal


def _correlation(bank: WireBank, y: Superposition, probe_plane: np.ndarray, low_bits: int | None = None) -> int:
    """Exact sum over the window of a superposition's signal times a +-1
    signal given by its sign plane.

    A pattern is read from popcounts alone. An explicit sum is read group by
    group (see `_SpectralSplit`): the ticks are counted per low index x, +1
    or -1 by the sign of the group's plane times the probe; the transform of
    these counts, read at a term's low bits, is the term's exact correlation
    with the probe, T - 2 * popcount(P_s ^ probe). With no low bits that
    popcount is taken directly.
    """
    _check_width(y, bank.n_bits)
    ticks = bank.n_ticks
    if y.is_pattern:
        zero, sign = bank.pattern_planes(y.allowed)
        differ = sign ^ probe_plane
        # Where the signal is nonzero it is +-2^k: + where the signs agree.
        nonzero = ticks - int(bank.count(zero))
        nonzero_differ = int(bank.count(differ)) - int(bank.count(zero & differ))
        return (1 << y.free_bit_count) * (nonzero - 2 * nonzero_differ)
    split = _SpectralSplit(bank, y, low_bits, readout=True)
    # Python ints: every product and sum is exact whatever the coefficients.
    total = 0
    for first, planes in split.batches():
        planes ^= probe_plane
        if split.index is None:
            coeffs = split.coeffs[first : first + len(planes)]
            total += sum(c * (ticks - 2 * n) for c, n in zip(coeffs, bank.count(planes).tolist()))
            continue
        for group, plane in enumerate(planes, first):
            lows, coeffs = split.group(group)
            counts = np.bincount(split.index | bank.bits(plane), minlength=2 << split.low_bits)
            correlations = _walsh_hadamard(counts[0::2] - counts[1::2])[lows]
            total += sum(map(operator.mul, coeffs, correlations.tolist()))
    return total


class _SpectralSplit:
    """An explicit superposition's terms split for spectral evaluation.

    Every product string is P_s = B * chi_s(d) (`WireBank.operators`).
    Split s into its K low bits and its high part g = s >> K; then
        sum_s c_s P_s = sum_g B * chi_g(d_high) * C^_g[d_low],
    where C^_g is the Walsh-Hadamard transform of group g's 2^K-entry
    coefficient table and B * chi_g(d_high) is the sign plane of g << K.
    K = N is one transform; K = 0 makes every term a group.

    K is `_low_bit_count` unless given (tests pin it). `index` is
    2 * d_low(t) per tick, None when K = 0. Groups are numbered in string
    order, and `batches` builds their planes, `string_planes(g << K)`, in
    blocks of at most _BLOCK_TICKS, so the working set is O(T + 2^K) words.
    """

    def __init__(self, bank: WireBank, y: Superposition, low_bits: int | None, readout: bool):
        terms = sorted(y.terms)
        strings = np.array([s for s, _ in terms], dtype=np.int64)
        if low_bits is None:
            low_bits = _low_bit_count(strings, bank.n_bits, bank.n_ticks, readout)
        self.low_bits = low_bits
        self.index = None
        if low_bits:
            self.index = bank.operator_index(low_bits)
            self.index <<= 1
        self.coeffs = [int(c) for _, c in terms]
        highs = strings >> low_bits
        self.lows = strings - (highs << low_bits)
        first = np.ones(highs.size, dtype=bool)
        np.not_equal(highs[1:], highs[:-1], out=first[1:])
        self.starts = np.flatnonzero(first)
        self.stops = [*self.starts[1:].tolist(), len(terms)]
        self.highs = highs[self.starts]
        self.bank = bank

    def group(self, i: int) -> tuple[np.ndarray, list[int]]:
        """Low bits and coefficients of the terms of group i."""
        start, stop = self.starts[i], self.stops[i]
        return self.lows[start:stop], self.coeffs[start:stop]

    def batches(self):
        """(first group, sign planes of the next groups), block by block."""
        per_block = max(1, _BLOCK_TICKS // max(64, self.bank.n_ticks))
        for first in range(0, len(self.highs), per_block):
            yield first, self.bank.string_planes(self.highs[first : first + per_block] << self.low_bits)


def _low_bit_count(strings: np.ndarray, n_bits: int, n_ticks: int, readout: bool) -> int:
    """The number K of low string bits that `_SpectralSplit` tabulates.

    The rule minimizes an estimated cost in nanoseconds, computed before any
    work from T ticks and the group count G(K), the number of distinct
    s >> K among the sorted strings, with C = 1000 for one NumPy call and
    P = N * T / 128 to build one group's sign plane from N wire planes:
      K = 0: G(0) * (1.3 * T + 10 * C + P) for a signal, one pass per term;
             G(0) * (T / 10 + C + P) for a readout, one popcount per term;
      K > 0: K * (3 * T / 2 + 20 * C) to build the low index, plus per group
             3 * T + 20 * C + P + (K + 8) * 2^K, one pass over the ticks and
             a 2^K-entry table with its K-stage transform.
    The weights were fitted to timings on a 2-core Xeon with NumPy 2.4. K is
    the cheapest value in [0, min(N, 16)], the smallest on a tie.
    """
    highs = strings >> np.arange(min(n_bits, _MAX_LOW_BITS) + 1)[:, None]
    groups = np.count_nonzero(highs[:, 1:] != highs[:, :-1], axis=1) + min(1, strings.size)
    plane = n_bits * n_ticks / 128
    per_term = plane + (n_ticks / 10 + _CALL_COST if readout else 1.3 * n_ticks + 10 * _CALL_COST)
    costs = [groups[0] * per_term]
    for k, count in enumerate(groups.tolist()[1:], 1):
        per_group = 3 * n_ticks + 20 * _CALL_COST + plane + (k + 8) * (1 << k)
        costs.append(k * (1.5 * n_ticks + 20 * _CALL_COST) + count * per_group)
    return costs.index(min(costs))


def _walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a 2^k-entry int64 array,
    X[u] = sum_v x[v] * (-1)^popcount(u & v); `x` is overwritten.

    Each of the k constant-geometry stages maps the halves (a, b) to the
    interleaved pairs (a + b, a - b) (Fino and Algazi, 1976). Every entry
    after every stage is a signed sum of a subset of the inputs, so int64 is
    exact while sum |x| stays below 2^63.
    """
    half = x.size // 2
    out = np.empty_like(x)
    for _ in range(half.bit_length()):
        np.add(x[:half], x[half:], out=out[0::2])
        np.subtract(x[:half], x[half:], out=out[1::2])
        x, out = out, x
    return x


def _check_width(y: Superposition, n_bits: int) -> None:
    if y.n_bits != n_bits:
        raise ValueError(f"superposition n_bits={y.n_bits} does not match system n_bits={n_bits}")


def _check_string(string: int, n_bits: int) -> None:
    _check_int(string, "string", 0, 1 << n_bits)


def _check_terms(n_bits: int, terms) -> None:
    """Strings in range, and coefficient magnitudes summed as Python ints
    within the exact-arithmetic budget."""
    stop = 1 << n_bits
    for s, _ in terms:
        _check_int(s, "string", 0, stop)
    if sum(abs(int(c)) for _, c in terms) > _MAX_ABS_COEFF_SUM:
        raise ValueError("coefficient magnitudes exceed the exact-arithmetic budget")


def oracle_apply(affine: AffineMapGF2, y: Superposition) -> Superposition:
    """Bit-level oracle: push every string through the map, merging
    coefficients of colliding images."""
    if affine.n_bits != y.n_bits:
        raise ValueError(f"map n_bits={affine.n_bits} does not match superposition n_bits={y.n_bits}")
    pairs = [(affine.apply(s), c) for s, c in y.expand().terms]
    return Superposition.explicit(y.n_bits, pairs)


def zero_fraction(sys: ReferenceSystem, y: Superposition, ticks: int) -> Report:
    """Fraction of ticks a pattern superposition's signal is exactly zero.

    Each free bit contributes a wire-sum factor that vanishes with
    probability 1/2, independently, so the expected fraction is
    1 - 2**-k for k free bits.
    """
    if not y.is_pattern:
        raise ValueError("zero statistics apply to pattern superpositions")
    _check_width(y, sys.n_bits)
    bank = WireBank.draw(sys, tick_range(ticks))
    zero, _ = bank.pattern_planes(y.allowed)
    fraction = int(bank.count(zero)) / ticks
    k = y.free_bit_count
    expected = 1.0 - 0.5**k
    tolerance = 5.0 * sqrt(expected * (1.0 - expected) / ticks)
    return Report([StatEntry("zero_fraction", fraction, expected, tolerance, ticks)])


def membership_coefficient(prog: InsertionProgram | None, y: Superposition, probe: int) -> int:
    """Coefficient of `probe` in the image of `y` under the program's map."""
    # The inverse map masks its input to the width, so check the probe here.
    _check_string(probe, y.n_bits)
    if prog is not None and prog.n_bits != y.n_bits:
        raise ValueError(f"program n_bits={prog.n_bits} does not match superposition n_bits={y.n_bits}")
    amap = affine_of_program(prog) if prog is not None else AffineMapGF2.identity(y.n_bits)
    if amap.is_invertible():
        return y.coefficient(amap.inverse().apply(probe))
    return oracle_apply(amap, y).coefficient(probe)


def membership_estimate(
    sys: ReferenceSystem,
    prog: InsertionProgram | None,
    y: Superposition,
    probe: int,
    ticks: int,
) -> Report:
    """Time-averaged correlation of a superposition signal with one probe
    string, read on the untransformed reference wires.

    Orthogonality makes the expectation the probe's coefficient in the
    (program-transformed) superposition; the tolerance is the 5-sigma band
    5*sqrt(A/T) with A the sum of squared coefficients.
    """
    _check_string(probe, sys.n_bits)
    raw = WireBank.draw(sys, tick_range(ticks))
    # One exact integer and one division: the same float as the mean of
    # the int64 products.
    estimate = _correlation(raw.apply(prog), y, raw.string_planes(probe)) / ticks
    expected = float(membership_coefficient(prog, y, probe))
    tolerance = 5.0 * sqrt(y.sq_coeff_sum() / ticks)
    name = f"membership[{format_bits(probe, sys.n_bits)}]"
    return Report([StatEntry(name, estimate, expected, tolerance, ticks)])

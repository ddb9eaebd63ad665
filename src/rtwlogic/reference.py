"""The clocked +-1 reference system and its measured statistical identities.

A system of N logic bits is fed by 2N independent telegraph sources, one
wire per (bit, value). Each wire holds a fair +-1 value that is redrawn
every clock tick; everything downstream (products, sums, gate programs) is
exact integer arithmetic on these samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .compiler import InsertionProgram, _check_int
from .report import Report, StatEntry
from .rng import coin_flips, sign_planes, stream_key, unpack_signs

MAX_BITS = 32
DEFAULT_SEED = 42


def as_tick_array(ticks) -> tuple[np.ndarray, bool]:
    """Normalize ticks to a uint64 array; the flag marks scalar input."""
    scalar = isinstance(ticks, (int, np.integer))
    arr = np.atleast_1d(np.asarray(ticks))
    if arr.dtype.kind not in "iu":
        raise ValueError(f"ticks must be integers, got dtype {arr.dtype}")
    if arr.dtype.kind == "i" and arr.size and int(arr.min()) < 0:
        raise ValueError("ticks must be non-negative")
    return arr.astype(np.uint64, copy=False), scalar


def tick_range(n_ticks: int) -> np.ndarray:
    """The tick window [0, n_ticks) as a uint64 array."""
    _check_int(n_ticks, "tick count", 1)
    return np.arange(n_ticks, dtype=np.uint64)


@dataclass(frozen=True)
class ReferenceSystem:
    """Bank of 2*n_bits independent clocked +-1 sources, determined by seed.

    Sampling is random-access: the value at any (wire, tick) is computed
    directly, without generating earlier ticks, so evaluation order never
    affects results.
    """

    n_bits: int
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        _check_int(self.n_bits, "n_bits", 1, MAX_BITS + 1)
        # Stream keys reduce the seed mod 2**64; a wider seed would alias.
        _check_int(self.seed, "seed", 0, 1 << 64)

    def sample(self, bit: int, value: int, ticks):
        """+-1 sample(s) of the reference wire (bit, value)."""
        _check_int(bit, "bit index", 0, self.n_bits)
        _check_int(value, "bit value", 0, 2)
        arr, scalar = as_tick_array(ticks)
        out = coin_flips(stream_key(self.seed, 2 * bit + value), arr)
        return int(out[0]) if scalar else out

    def wire_table(self, prog: InsertionProgram | None, ticks: np.ndarray) -> np.ndarray:
        """All effective wire samples as an int8 array of shape (n_bits, 2, T)."""
        bank = WireBank.draw(self, ticks).apply(prog)
        return bank.signs(bank.planes)


class WireBank:
    """All 2*n_bits wires of a system over one tick window, as sign planes.

    `planes[bit, value]` holds that wire's samples packed one bit per tick
    (uint8, little bit order, bit 1 meaning -1, zero padding to whole 64-bit
    words). A product of +-1 samples is the XOR of their planes, so a NOT
    insertion XORs its target's `plane0 ^ plane1` into the host plane.
    Only this class and `rng` read that layout; callers combine planes
    bitwise and read them back through `count`, `bits` and `signs`.
    """

    def __init__(self, planes: np.ndarray, n_ticks: int):
        self.planes = planes
        self.n_ticks = n_ticks

    @classmethod
    def draw(cls, system: ReferenceSystem, ticks) -> "WireBank":
        """The raw reference wires; each is hashed exactly once."""
        arr, _ = as_tick_array(ticks)
        keys = [stream_key(system.seed, channel) for channel in range(2 * system.n_bits)]
        planes = sign_planes(keys, arr).reshape(system.n_bits, 2, -1)
        return cls(planes, arr.size)

    @property
    def n_bits(self) -> int:
        return self.planes.shape[0]

    def apply(self, prog: InsertionProgram | None) -> "WireBank":
        """The effective wires under a program's NOT insertions, with every
        operator built from this bank's planes before any host plane changes."""
        if prog is None:
            return self
        if prog.n_bits != self.n_bits:
            raise ValueError(f"program n_bits={prog.n_bits} does not match system n_bits={self.n_bits}")
        operators = self.operators()
        planes = self.planes.copy()
        for ins in prog.insertions:
            planes[ins.host_bit, ins.host_value] ^= operators[ins.target]
        return WireBank(planes, self.n_ticks)

    def string_planes(self, strings) -> np.ndarray:
        """Sign planes of product strings, one row each: the XOR of the
        plane each string selects per bit."""
        strings = np.asarray(strings, dtype=np.int64)
        out = np.take(self.planes[0], strings & 1, axis=0)  # a copy, also for one string
        for bit in range(1, self.n_bits):
            out ^= self.planes[bit, (strings >> bit) & 1]
        return out

    def operators(self) -> np.ndarray:
        """Sign planes of the NOT operators, one row per bit.

        N_i is the product of bit i's two wires; times either wire it gives
        the other. So wire (i, 1) is wire (i, 0) times N_i, and product
        string s is B * chi_s(d): B is the product of the value-0 wires,
        d(t) the vector of operator sign bits and chi_s(d) =
        (-1)^popcount(s & d).
        """
        return self.planes[:, 0] ^ self.planes[:, 1]

    def operator_index(self, k: int) -> np.ndarray:
        """Per tick, the integer whose bit i is the sign bit of N_i, i < k
        (at most 16), built one plane at a time."""
        out = np.zeros(self.n_ticks, dtype=np.uint16)
        for bit, plane in enumerate(self.operators()[:k]):
            out |= np.left_shift(self.bits(plane), bit, dtype=np.uint16)
        return out.astype(np.intp)

    def pattern_planes(self, allowed) -> tuple[np.ndarray, np.ndarray]:
        """Zero and sign planes of a pattern with per-bit allowed values.

        A free bit's wire sum is 0 where its two wires differ and otherwise
        twice either wire, so the pattern's signal is 0 where any free bit's
        wires differ and +-2^k elsewhere, with the sign of the product of
        one wire per bit.
        """
        zero = np.zeros(self.planes.shape[-1], dtype=np.uint8)
        sign = zero.copy()
        for bit, vals in enumerate(allowed):
            sign ^= self.planes[bit, vals[0]]
            if len(vals) == 2:
                zero |= self.planes[bit, 0] ^ self.planes[bit, 1]
        return zero, sign

    def count(self, planes: np.ndarray):
        """Set bits (-1 samples) per plane along the last axis; the zero
        padding never counts."""
        return np.bitwise_count(planes.view(np.uint64)).sum(axis=-1)

    def bits(self, planes: np.ndarray) -> np.ndarray:
        """Planes unpacked along the last axis to uint8 bits, 1 meaning -1."""
        return np.unpackbits(planes, axis=-1, count=self.n_ticks, bitorder="little")

    def signs(self, planes: np.ndarray) -> np.ndarray:
        """Sign planes unpacked along the last axis to int8 +-1 samples."""
        return unpack_signs(planes, self.n_ticks)


def orthogonality_report(sys: ReferenceSystem, ticks: int) -> Report:
    """Empirical means behind the zero-mean and orthogonality identities.

    Covers every single wire, every distinct wire pair product, the
    same-wire squares (exactly 1), and product-vs-factor correlations.
    Mean estimators carry a 5/sqrt(T) tolerance; squares carry zero. Each
    estimate is (T - 2 * popcount) / T of a plane or an XOR of planes: the
    same float as the mean of the int8 samples or products.
    """
    bank = WireBank.draw(sys, tick_range(ticks))
    wires = [(bit, value) for bit in range(sys.n_bits) for value in (0, 1)]
    planes = dict(zip(wires, bank.planes.reshape(len(wires), -1)))

    def mean(plane: np.ndarray) -> float:
        return (ticks - 2 * int(bank.count(plane))) / ticks

    tol = 5.0 / sqrt(ticks)
    entries = [StatEntry(f"mean[W{w}]", mean(planes[w]), 0.0, tol, ticks) for w in wires]
    entries += [StatEntry(f"mean[W{w}^2]", mean(planes[w] ^ planes[w]), 1.0, 0.0, ticks) for w in wires]
    for a, wa in enumerate(wires):
        for wb in wires[a + 1 :]:
            prod = planes[wa] ^ planes[wb]
            entries.append(StatEntry(f"mean[W{wa}*W{wb}]", mean(prod), 0.0, tol, ticks))
            # The product is itself a fair telegraph wave; correlating it
            # against either factor reduces to the other factor's mean.
            entries.append(StatEntry(f"corr[W{wa}*W{wb}, W{wa}]", mean(prod ^ planes[wa]), 0.0, tol, ticks))
            entries.append(StatEntry(f"corr[W{wa}*W{wb}, W{wb}]", mean(prod ^ planes[wb]), 0.0, tol, ticks))
    footer = f"{{count}} estimators over {len(wires)} wires, {{failed}} outside tolerance"
    return Report(entries, footer)

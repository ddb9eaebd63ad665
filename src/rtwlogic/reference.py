"""The clocked +-1 reference system and its measured statistical identities.

A system of N logic bits is fed by 2N independent telegraph sources, one
wire per (bit, value). Each wire holds a fair +-1 value that is redrawn
every clock tick; everything downstream (products, sums, gate programs) is
exact integer arithmetic on these samples.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import sqrt

import numpy as np

from .compiler import InsertionProgram, _check_int
from .report import Report, StatEntry
from .rng import coin_flips, sign_planes, stream_key, unpack_signs

MAX_BITS = 32
DEFAULT_SEED = 42

# Samples (wires x ticks) per chunk of a long window: 512 KiB of sign
# planes. Chunks are whole 64-tick words, so the planes of consecutive
# chunks concatenate to those of the window.
_CHUNK_SAMPLES = 1 << 22
# Plane ticks per block of planes built from one bank (512 KiB of packed
# bits): it bounds their working set whatever the row count.
_BLOCK_TICKS = 1 << 22
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def as_window(ticks) -> tuple[range | np.ndarray, bool]:
    """Normalize ticks to a window: a `range` of consecutive ticks stays a
    range, which no draw expands into an array, and anything else becomes a
    uint64 array. The flag marks scalar input."""
    if isinstance(ticks, range) and ticks.step == 1:
        if ticks and not 0 <= ticks.start < ticks.stop <= 1 << 64:
            raise ValueError("ticks must be in [0, 2**64)")
        return ticks, False
    scalar = isinstance(ticks, (int, np.integer))
    arr = np.atleast_1d(np.asarray(ticks))
    if arr.ndim > 1:
        raise ValueError(f"ticks must be a scalar or one-dimensional, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":  # an empty list is float64
        raise ValueError(f"ticks must be integers, got dtype {arr.dtype}")
    if arr.dtype.kind == "i" and arr.size and int(arr.min()) < 0:
        raise ValueError("ticks must be non-negative")
    return arr.astype(np.uint64, copy=False), scalar


def tick_range(n_ticks: int) -> np.ndarray:
    """The tick window [0, n_ticks) as a uint64 array."""
    _check_int(n_ticks, "tick count", 1)
    return np.arange(n_ticks, dtype=np.uint64)


def count_window(n_ticks: int) -> range:
    """The tick window [0, n_ticks) of a statistic over `n_ticks` ticks."""
    _check_int(n_ticks, "tick count", 1)
    return range(n_ticks)


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
        window, scalar = as_window(ticks)
        out = coin_flips(self.keys[2 * bit + value], window)
        return int(out[0]) if scalar else out

    @cached_property
    def keys(self) -> np.ndarray:
        """Stream keys of the 2*n_bits wires, wire (bit, value) at 2*bit + value."""
        keys = np.array([stream_key(self.seed, channel) for channel in range(2 * self.n_bits)], dtype=np.uint64)
        keys.flags.writeable = False
        return keys

    def wire_table(self, prog: InsertionProgram | None, ticks) -> np.ndarray:
        """All effective wire samples as an int8 array of shape (n_bits, 2, T)."""
        window, _ = as_window(ticks)
        out = np.empty((self.n_bits, 2, len(window)), dtype=np.int8)

        def consume(lo: int, raw: "WireBank") -> None:
            out[..., lo : lo + raw.n_ticks] = raw.signs(raw.apply(prog).planes)

        map_window(self, window, consume)
        return out


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
        """The raw reference wires, in new planes; each is hashed exactly once."""
        window, _ = as_window(ticks)
        planes = sign_planes(system.keys, window).reshape(system.n_bits, 2, -1)
        return cls(planes, len(window))

    @property
    def n_bits(self) -> int:
        return self.planes.shape[0]

    @property
    def rows_per_block(self) -> int:
        """Planes of this bank's ticks per block of _BLOCK_TICKS, at least one."""
        return max(1, _BLOCK_TICKS // max(64, 8 * self.planes.shape[-1]))

    def apply(self, prog: InsertionProgram | None) -> "WireBank":
        """The effective wires under a program's NOT insertions, in new
        planes, with every operator built from this bank's planes before any
        host plane changes; this bank itself without a program."""
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
        """Sign planes of product strings, one row each: `gather_string_planes` of one bank."""
        strings = np.asarray(strings, dtype=np.int64)
        return gather_string_planes([self], 0, strings.ravel()).reshape(*strings.shape, self.planes.shape[-1])

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
        """Per tick, the uint16 whose bit i is the sign bit of N_i, i < k,
        built one plane at a time; k is in [0, min(n_bits, 16)]."""
        _check_int(k, "operator index width", 0, min(self.n_bits, 16) + 1)
        out = np.zeros(self.n_ticks, dtype=np.uint16)
        for bit, plane in enumerate(self.operators()[:k]):
            out |= np.left_shift(self.bits(plane), bit, dtype=np.uint16)
        return out

    def pattern_planes(self, offset: int, free: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero and sign planes of the pattern with lowest string `offset`
        and free-bit mask `free`.

        A free bit's wire sum is 0 where its two wires differ, that is where
        its NOT operator is -1, and otherwise twice either wire. So the
        pattern's signal is 0 where any free bit's operator is -1 and +-2^k
        elsewhere, with the sign of the product-string plane of `offset`.
        """
        free_bits = [bit for bit in range(self.n_bits) if free >> bit & 1]
        return np.bitwise_or.reduce(self.operators()[free_bits], axis=0), self.string_planes(offset)

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


def gather_string_planes(banks, owners, strings) -> np.ndarray:
    """Sign planes of product strings on banks of one tick count, one row
    per string: row j is the XOR of the planes that `strings[j]` selects in
    `banks[owners[j]]` (`owners` may be one index for every row). Each bit
    is one gather for all rows."""
    if len(banks) == 1:  # the bank's own planes, not a copy
        table = banks[0].planes[None]
    else:  # every bank's planes, zero-padded to the widest bank
        table = np.zeros((len(banks), max(bank.n_bits for bank in banks), *banks[0].planes.shape[1:]), np.uint8)
        for j, bank in enumerate(banks):
            table[j, : bank.n_bits] = bank.planes
    select = (np.asarray(strings, dtype=np.int64)[:, None] >> np.arange(table.shape[1])) & 1
    out = table[owners, 0, select[:, 0]]
    for bit in range(1, table.shape[1]):
        out ^= table[owners, bit, select[:, bit]]
    return out


def map_window(system: ReferenceSystem, window, consume) -> list:
    """`consume(lo, raw)` on every chunk of a window; the results in window
    order.

    `window` is a `range` of consecutive ticks or a tick array (see
    `as_window`). A chunk is at most _CHUNK_SAMPLES samples of whole
    64-tick words: `raw` holds its raw wires, in planes of its own that
    `consume` may keep, and `lo` is its first position in the window. An
    empty window is one empty chunk. A consumer that needs a program's
    effective wires builds them with `raw.apply(prog)`. Every sample is a
    pure function of (seed, wire, tick), so chunks may run in any order: a
    window of one chunk, or any window on one CPU, runs on the calling
    thread, and a longer one on up to _WORKERS threads, at most two chunks
    a thread in flight, all joined before this returns, also on an error.
    """
    step = max(64, _CHUNK_SAMPLES // (2 * system.n_bits) // 64 * 64)
    starts = range(0, max(len(window), 1), step)

    def run(lo: int):
        return consume(lo, WireBank.draw(system, window[lo : lo + step]))

    workers = min(_WORKERS, len(starts))
    if workers == 1:
        return list(map(run, starts))
    # Imported here: it costs serial callers 5-10 ms of start-up.
    from concurrent.futures import ThreadPoolExecutor

    # A slice of chunks at a time would idle a thread at each slice's end.
    pool, results, pending = ThreadPoolExecutor(workers, thread_name_prefix="rtwlogic-chunk"), [], deque()
    try:
        for lo in starts:
            pending.append(pool.submit(run, lo))
            if len(pending) == 2 * workers:
                results.append(pending.popleft().result())
        results += [future.result() for future in pending]
    finally:
        pool.shutdown(cancel_futures=True)  # joins every thread; after an error, cancels what has not started
    return results


def orthogonality_report(sys: ReferenceSystem, ticks: int) -> Report:
    """Empirical means behind the zero-mean and orthogonality identities.

    Covers every single wire, every distinct wire pair product, the
    same-wire squares (exactly 1), and product-vs-factor correlations.
    Mean estimators carry a 5/sqrt(T) tolerance; squares carry zero. Each
    estimate is (T - 2 * popcount) / T of a plane or an XOR of planes: the
    same float as the mean of the int8 samples or products. The popcounts
    are summed over the chunks of the window.
    """
    wires = [(bit, value) for bit in range(sys.n_bits) for value in (0, 1)]

    def consume(lo: int, raw: WireBank) -> np.ndarray:
        planes = raw.planes.reshape(len(wires), -1)
        counts = [raw.count(planes), raw.count(planes ^ planes)]
        for a in range(len(wires) - 1):
            # Per pair (a, b > a): the product, and its correlations with
            # either factor, which reduce to the other factor's mean.
            prod = planes[a] ^ planes[a + 1 :]
            per_pair = [raw.count(prod), raw.count(prod ^ planes[a]), raw.count(prod ^ planes[a + 1 :])]
            counts.append(np.stack(per_pair, axis=1).ravel())
        return np.concatenate(counts)

    # In the order of the entries below.
    counts = iter(sum(map_window(sys, count_window(ticks), consume)).tolist())

    def mean() -> float:
        return (ticks - 2 * next(counts)) / ticks

    tol = 5.0 / sqrt(ticks)
    entries = [StatEntry(f"mean[W{w}]", mean(), 0.0, tol, ticks) for w in wires]
    entries += [StatEntry(f"mean[W{w}^2]", mean(), 1.0, 0.0, ticks) for w in wires]
    for a, wa in enumerate(wires):
        for wb in wires[a + 1 :]:
            entries.append(StatEntry(f"mean[W{wa}*W{wb}]", mean(), 0.0, tol, ticks))
            entries.append(StatEntry(f"corr[W{wa}*W{wb}, W{wa}]", mean(), 0.0, tol, ticks))
            entries.append(StatEntry(f"corr[W{wa}*W{wb}, W{wb}]", mean(), 0.0, tol, ticks))
    failed = sum(not e.passed for e in entries)
    return Report(entries, f"{len(entries)} estimators over {len(wires)} wires, {failed} outside tolerance")

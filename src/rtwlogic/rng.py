"""Counter-based keyed generator for clocked fair +-1 samples.

Every sample is a pure function of (seed, channel, tick): a SplitMix64-style
finalizer is applied twice, once to derive a per-channel stream key and once
per tick counter. This makes sampling random-access and order-independent,
so tick ranges can be evaluated in any order, in parallel, and reproduce
bit-for-bit. This module is serial and keeps no mutable state; the window
driver in `reference` runs chunks of a long window on threads.

The vector kernel, `sign_planes`, hashes a window in cache-sized tiles of
whole 64-tick words. A short window is one tile of all its streams. A
longer one is hashed stream-major: each tile is a run of one stream's
ticks. The counters of a range tile, of any shape, are one contiguous add
of one offset per stream, and its compare, pack and copy into the output
rows are contiguous as well.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)
_TOP_BIT_U64 = np.uint64(1 << 63)
_SHIFT_A = np.uint64(30)
_SHIFT_B = np.uint64(27)

# Hashes per tile in sign_planes: two 512 KiB uint64 buffers stay in L2.
_TILE = 1 << 16


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer (pure Python path)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & _MASK64
    x ^= x >> 31
    return x


def _mix64_top(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer on a uint64 array without its last
    xor-shift, in place; `tmp` is scratch of x's shape. Bit 63 is already
    the finalizer's: x ^ (x >> 31) leaves bit 63 as it is."""
    np.right_shift(x, _SHIFT_A, out=tmp)
    x ^= tmp
    x *= _MIX_A_U64
    np.right_shift(x, _SHIFT_B, out=tmp)
    x ^= tmp
    x *= _MIX_B_U64
    return x


def stream_key(seed: int, channel: int) -> int:
    """Derive the 64-bit stream key of one channel under a seed."""
    if channel < 0:
        raise ValueError(f"channel must be non-negative, got {channel}")
    # Python ints: a NumPy integer would wrap or overflow in these sums.
    return mix64(mix64(int(seed)) + _GOLDEN * (int(channel) + 1))


def coin_flip(key: int, tick: int) -> int:
    """Single fair +-1 sample of the stream `key` at `tick`."""
    h = mix64(key + _GOLDEN * tick)
    return 1 if h >> 63 else -1


def coin_flips(key: int, ticks) -> np.ndarray:
    """Fair +-1 samples (int8) of the stream `key` at a window's ticks (see
    `sign_planes`)."""
    return unpack_signs(sign_planes([key], ticks)[0], len(ticks))


def unpack_signs(planes: np.ndarray, count: int) -> np.ndarray:
    """The first `count` bits of sign planes (last axis) as int8 +-1 samples."""
    samples = np.unpackbits(planes, axis=-1, count=count, bitorder="little").view(np.int8)
    samples *= -2
    samples += 1
    return samples


def _tile_shape(n_keys: int, n_ticks: int) -> tuple[int, int]:
    """Streams and ticks of a tile: whole 64-tick words, at least one and at
    most _TILE ticks, of as many whole streams as fit in _TILE hashes. So a
    short window is one tile of all its streams, and a long one is hashed
    one stream at a time."""
    cols = min(_TILE, -(-n_ticks // 64) * 64) or 64  # 64 for an empty window
    return min(n_keys, _TILE // cols), cols


def sign_planes(keys, ticks) -> np.ndarray:
    """Packed sign bits of the streams `keys` at the ticks of a window.

    The window is a uint64 array of tick counters or a `range` of
    consecutive ticks, whose counters are built tile by tile from its start.
    Row w of the uint8 result holds stream keys[w] in little bit order: bit j
    is 1 where the sample at the window's tick j is -1. Rows are padded with
    zero bits to whole 64-bit words, so XOR, OR and popcount over a row need
    no mask. Each hash is computed once, in place, over tiles of whole
    64-tick words small enough to stay in cache (see `_tile_shape`). A
    window longer than one tile is hashed stream-major: a tile is a run of
    one stream's ticks. A range tile's counters are one contiguous add of
    one offset per stream, and its compare, pack and copy into the result
    are contiguous too. The result and the two-tile scratch are allocated
    per call; the scratch is freed when this returns.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
    n_keys, n = keys.shape[0], len(ticks)
    out = np.empty((n_keys, 8 * -(-n // 64)), dtype=np.uint8)
    # The tiles below write every byte but the padding.
    out[:, -(-n // 8) :] = 0
    rows, cols = _tile_shape(n_keys, n)
    h, tmp = np.empty((2, rows, cols), dtype=np.uint64)
    if isinstance(ticks, range):
        # At tick start + lo + j the hash input is (key + G * start) + G * lo + G * j.
        steps = np.arange(min(cols, n), dtype=np.uint64)
        steps *= _GOLDEN_U64
        firsts = keys + np.uint64(_GOLDEN * ticks.start & _MASK64)
    for r0 in range(0, n_keys, rows):
        r1 = min(n_keys, r0 + rows)
        for lo in range(0, n, cols):
            hi = min(n, lo + cols)
            hs, ts = h[: r1 - r0, : hi - lo], tmp[: r1 - r0, : hi - lo]
            if isinstance(ticks, range):
                np.add(steps[: hi - lo], firsts[r0:r1] + np.uint64(_GOLDEN * lo & _MASK64), out=hs)
            else:
                np.multiply(ticks[lo:hi], _GOLDEN_U64, out=ts[0])
                np.add(keys[r0:r1], ts[0], out=hs)
            _mix64_top(hs, ts)
            # The top bit alone decides the sample: set means +1. The scratch
            # `tmp` is free again, so its bytes hold the comparison.
            negative = np.less(hs, _TOP_BIT_U64, out=tmp.view(np.bool_)[: r1 - r0, : hi - lo])
            out[r0:r1, lo // 8 : (hi + 7) // 8] = np.packbits(negative, axis=1, bitorder="little")
    return out

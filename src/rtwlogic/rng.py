"""Counter-based keyed generator for clocked fair +-1 samples.

Every sample is a pure function of (seed, channel, tick): a SplitMix64-style
finalizer is applied twice, once to derive a per-channel stream key and once
per tick counter. This makes sampling random-access and order-independent,
so tick ranges can be evaluated in any order, in parallel, and reproduce
bit-for-bit. This module is serial and keeps no mutable state; the window
driver in `reference` runs chunks of a long window on threads.
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
_SHIFT_C = np.uint64(31)

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


def _mix64_array(x: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place; wraps mod 2**64.
    `tmp` is scratch space of x's shape."""
    tmp = np.empty_like(x) if tmp is None else tmp
    _mix64_top(x, tmp)
    np.right_shift(x, _SHIFT_C, out=tmp)
    x ^= tmp
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


def hash_scratch(n_keys: int, n_ticks: int) -> np.ndarray:
    """Scratch for `sign_planes` of `n_keys` streams over windows of at most
    `n_ticks` ticks."""
    return np.empty((2, n_keys, min(_tile_ticks(n_keys), n_ticks)), dtype=np.uint64)


def _tile_ticks(n_keys: int) -> int:
    return max(64, _TILE // n_keys // 64 * 64)


def sign_planes(keys, ticks, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Packed sign bits of the streams `keys` at the ticks of a window.

    The window is a uint64 array of tick counters or a `range` of
    consecutive ticks, whose counters are built tile by tile from its start.
    Row w of the uint8 result holds stream keys[w] in little bit order: bit j
    is 1 where the sample at the window's tick j is -1. Rows are padded with
    zero bits to whole 64-bit words, so XOR, OR and popcount over a row need
    no mask. Each hash is computed once, in place, over tiles of whole
    64-tick words small enough to stay in cache. `out` (the result's shape)
    and `scratch` (from `hash_scratch`) are reused when given.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
    n = len(ticks)
    if out is None:
        out = np.empty((keys.shape[0], 8 * -(-n // 64)), dtype=np.uint8)
    # The tiles below write every byte but the padding.
    out[:, -(-n // 8) :] = 0
    h, tmp = hash_scratch(keys.shape[0], n) if scratch is None else scratch
    step = _tile_ticks(keys.shape[0])
    if isinstance(ticks, range):
        # At tick start + lo + j the hash input is (key + G * (start + lo)) + G * j.
        steps = np.arange(min(step, n), dtype=np.uint64)
        steps *= _GOLDEN_U64
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        hs, ts = h[:, : hi - lo], tmp[:, : hi - lo]
        if isinstance(ticks, range):
            np.add(keys + np.uint64(_GOLDEN * (ticks.start + lo) & _MASK64), steps[: hi - lo], out=hs)
        else:
            np.multiply(ticks[lo:hi], _GOLDEN_U64, out=ts[0])
            np.add(keys, ts[0], out=hs)
        _mix64_top(hs, ts)
        # The top bit alone decides the sample: set means +1. The scratch
        # `ts` is free again, so its bytes hold the comparison.
        negative = np.less(hs, _TOP_BIT_U64, out=ts.view(np.bool_)[:, : hi - lo])
        out[:, lo // 8 : (hi + 7) // 8] = np.packbits(negative, axis=1, bitorder="little")
    return out

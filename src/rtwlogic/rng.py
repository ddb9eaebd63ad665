"""Counter-based keyed generator for clocked fair +-1 samples.

Every sample is a pure function of (seed, channel, tick): a SplitMix64-style
finalizer is applied twice, once to derive a per-channel stream key and once
per tick counter. This makes sampling random-access and order-independent,
so tick ranges can be evaluated in any order, in parallel, and reproduce
bit-for-bit.
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


def _mix64_array(x: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place; wraps mod 2**64.
    `tmp` is scratch space of x's shape."""
    tmp = np.empty_like(x) if tmp is None else tmp
    np.right_shift(x, _SHIFT_A, out=tmp)
    x ^= tmp
    x *= _MIX_A_U64
    np.right_shift(x, _SHIFT_B, out=tmp)
    x ^= tmp
    x *= _MIX_B_U64
    np.right_shift(x, _SHIFT_C, out=tmp)
    x ^= tmp
    return x


def stream_key(seed: int, channel: int) -> int:
    """Derive the 64-bit stream key of one channel under a seed."""
    if channel < 0:
        raise ValueError(f"channel must be non-negative, got {channel}")
    return mix64(mix64(seed) + _GOLDEN * (channel + 1))


def coin_flip(key: int, tick: int) -> int:
    """Single fair +-1 sample of the stream `key` at `tick`."""
    h = mix64(key + _GOLDEN * tick)
    return 1 if h >> 63 else -1


def coin_flips(key: int, ticks: np.ndarray) -> np.ndarray:
    """Fair +-1 samples (int8) of the stream `key` at uint64 tick counters."""
    return unpack_signs(sign_planes([key], ticks)[0], ticks.size)


def unpack_signs(planes: np.ndarray, count: int) -> np.ndarray:
    """The first `count` bits of sign planes (last axis) as int8 +-1 samples."""
    samples = np.unpackbits(planes, axis=-1, count=count, bitorder="little").view(np.int8)
    samples *= -2
    samples += 1
    return samples


def sign_planes(keys, ticks: np.ndarray) -> np.ndarray:
    """Packed sign bits of the streams `keys` at uint64 tick counters.

    Row w of the uint8 result holds stream keys[w] in little bit order: bit j
    is 1 where the sample at ticks[j] is -1. Rows are padded with zero bits
    to whole 64-bit words, so XOR, OR and popcount over a row need no mask.
    Each hash is computed once, in place, over tiles small enough to stay
    in cache.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
    n = ticks.size
    planes = np.zeros((keys.shape[0], 8 * -(-n // 64)), dtype=np.uint8)
    step = max(8, _TILE // keys.shape[0] // 8 * 8)
    width = min(step, n)
    h = np.empty((keys.shape[0], width), dtype=np.uint64)
    tmp = np.empty_like(h)
    for start in range(0, n, step):
        stop = min(n, start + step)
        hs, ts = h[:, : stop - start], tmp[:, : stop - start]
        np.multiply(ticks[start:stop], _GOLDEN_U64, out=ts[0])
        np.add(keys, ts[0], out=hs)
        _mix64_array(hs, ts)
        # The top bit alone decides the sample: set means +1.
        negative = np.less(hs, _TOP_BIT_U64)
        planes[:, start // 8 : (stop + 7) // 8] = np.packbits(negative, axis=1, bitorder="little")
    return planes

"""Counter-based keyed generator for clocked fair +-1 samples.

Every sample is a pure function of (seed, channel, tick): a SplitMix64-style
finalizer is applied twice, once to derive a per-channel stream key and once
per tick counter. This makes sampling random-access and order-independent,
so tick ranges can be evaluated in any order, in parallel, and reproduce
bit-for-bit. A large draw is hashed on one thread per CPU the process may
run on; the draw starts them and joins them before it returns, so no
hashing thread or other mutable state outlives a call.
"""

from __future__ import annotations

import os

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
# Each worker thread of a large draw hashes tiles of this size too.
_TILE = 1 << 16
# Draws of at least this many hashes (keys x ticks) run on _WORKERS threads;
# smaller ones are serial and start no thread. On a shared 2-core host, two
# threads were 0.9-1.3x as fast as one at 2^21-2^23 hashes, depending on
# whether the second core was free, and 1.2-1.6x from 2^24 up; below 2^24
# the threads add more run-to-run spread than speed.
_PARALLEL_MIN = 1 << 24
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
    # Python ints: a NumPy integer would wrap or overflow in these sums.
    return mix64(mix64(int(seed)) + _GOLDEN * (int(channel) + 1))


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
    Each hash is computed once, in place, over tiles of whole 64-tick words
    small enough to stay in cache. A large draw's tiles are shared out
    among worker threads, and every tile writes its own words of the result.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
    n = ticks.size
    planes = np.zeros((keys.shape[0], 8 * -(-n // 64)), dtype=np.uint8)
    step = max(64, _TILE // keys.shape[0] // 64 * 64)
    workers = min(_WORKERS, -(-n // step)) if keys.size * n >= _PARALLEL_MIN else 1
    # Each worker takes the next tile from one shared iterator (a single call
    # under the interpreter lock), so a worker on a busy core takes fewer.
    starts = iter(range(0, n, step))
    jobs = []
    for _ in range(workers):
        # The caller allocates every worker's scratch: what a worker thread
        # allocates goes to that thread's own malloc arena and stays resident.
        scratch = np.empty((2, keys.shape[0], min(step, n)), dtype=np.uint64)
        jobs.append((keys, ticks, planes, starts, step, scratch))
    if workers > 1:
        # Imported here: it costs serial callers 5-10 ms of start-up.
        from concurrent.futures import ThreadPoolExecutor

        # Leaving the block joins every worker, also when one of them raised.
        with ThreadPoolExecutor(workers, thread_name_prefix="rtwlogic-hash") as pool:
            for future in [pool.submit(_hash_tiles, *job) for job in jobs]:
                future.result()
    else:
        _hash_tiles(*jobs[0])
    return planes


def _hash_tiles(keys, ticks, planes, starts, step: int, scratch: np.ndarray) -> None:
    """Hash the `step` ticks from each start in `starts` into `planes`."""
    h, tmp = scratch
    for lo in starts:
        hi = min(ticks.size, lo + step)
        hs, ts = h[:, : hi - lo], tmp[:, : hi - lo]
        np.multiply(ticks[lo:hi], _GOLDEN_U64, out=ts[0])
        np.add(keys, ts[0], out=hs)
        _mix64_array(hs, ts)
        # The top bit alone decides the sample: set means +1.
        negative = np.less(hs, _TOP_BIT_U64)
        planes[:, lo // 8 : (hi + 7) // 8] = np.packbits(negative, axis=1, bitorder="little")

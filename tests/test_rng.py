"""Keyed counter-based generator: determinism, golden values, fairness,
and the same planes from any number of hashing threads."""

import concurrent.futures
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from rtwlogic import rng
from rtwlogic.rng import _mix64_array, coin_flip, coin_flips, mix64, sign_planes, stream_key

MASK64 = (1 << 64) - 1


def test_mix64_stays_in_64_bits():
    for x in (0, 1, 2, MASK64, 0xDEADBEEF, 1 << 63):
        assert 0 <= mix64(x) <= MASK64


def test_mix64_deterministic_and_injective_on_small_range():
    values = [mix64(x) for x in range(4096)]
    assert values == [mix64(x) for x in range(4096)]
    assert len(set(values)) == 4096


def test_mix64_array_matches_scalar():
    xs = np.array([0, 1, 2, 977, MASK64, 1 << 63], dtype=np.uint64)
    got = _mix64_array(xs.copy())
    want = np.array([mix64(int(x)) for x in xs], dtype=np.uint64)
    assert np.array_equal(got, want)


def test_stream_keys_differ_across_channels_and_seeds():
    keys = {stream_key(seed, ch) for seed in range(8) for ch in range(64)}
    assert len(keys) == 8 * 64


def test_coin_flip_values_and_determinism():
    key = stream_key(42, 0)
    flips = [coin_flip(key, t) for t in range(256)]
    assert set(flips) <= {-1, 1}
    assert flips == [coin_flip(key, t) for t in range(256)]


def test_coin_flips_matches_scalar_path():
    key = stream_key(42, 3)
    ticks = np.arange(1000, dtype=np.uint64)
    vec = coin_flips(key, ticks)
    assert vec.dtype == np.int8
    assert list(vec) == [coin_flip(key, t) for t in range(1000)]


def test_sign_planes_match_the_scalar_path_across_tiles():
    # 40 streams over 10_003 ticks are hashed in several tiles, the last one
    # ragged; bits past the window stay zero.
    keys = [stream_key(42, ch) for ch in range(40)]
    ticks = np.arange(10_003, dtype=np.uint64) + np.uint64(2**33)
    planes = sign_planes(keys, ticks)
    assert planes.dtype == np.uint8 and planes.shape == (40, 8 * 157)
    bits = np.unpackbits(planes, axis=1, bitorder="little")
    assert not bits[:, ticks.size :].any()
    for w in (0, 17, 39):
        want = [coin_flip(keys[w], int(t)) == -1 for t in ticks]
        assert bits[w, : ticks.size].tolist() == want


# Golden values frozen after the generator was chosen; any change to the
# mixing constants or key schedule must show up here.
@pytest.mark.parametrize(
    "seed, channel, tick, want",
    [
        (42, 0, 0, +1),  # bit 0, value 0
        (42, 0, 1, -1),
        (42, 1, 0, -1),  # bit 0, value 1
        (42, 2, 0, -1),  # bit 1, value 0
        (42, 7, 7, -1),  # bit 3, value 1
        (7, 0, 0, -1),
    ],
)
def test_golden_flips(seed, channel, tick, want):
    assert coin_flip(stream_key(seed, channel), tick) == want


def test_flip_mean_is_fair_at_five_sigma():
    ticks = np.arange(1_000_000, dtype=np.uint64)
    mean = coin_flips(stream_key(42, 0), ticks).astype(np.float64).mean()
    assert abs(mean) <= 5.0 / np.sqrt(1_000_000)


def planes_per_worker_count(monkeypatch, keys, ticks) -> list[np.ndarray]:
    out = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(rng, "_WORKERS", workers)
        out.append(sign_planes(keys, ticks))
    return out


@pytest.mark.parametrize("n_keys", range(1, 41))
def test_sign_planes_do_not_depend_on_the_worker_count(n_keys, monkeypatch):
    # A low threshold and small tiles give every worker several tiles, the
    # last one ragged, while the draws stay small.
    monkeypatch.setattr(rng, "_PARALLEL_MIN", 1 << 12)
    monkeypatch.setattr(rng, "_TILE", 1 << 10)
    keys = [stream_key(5, ch) for ch in range(n_keys)]
    edge = -(-rng._PARALLEL_MIN // n_keys)  # fewest ticks drawn on threads
    gen = np.random.default_rng(n_keys)
    for n in sorted({0, 1, 63, 64, 65, 191, 64 * 11 - 1, 64 * 11 + 1, edge - 1, edge, edge + 1, 4097}):
        offset = gen.integers(0, 2**40, dtype=np.uint64)
        wide = gen.integers(0, 2**63, size=2 * n, dtype=np.uint64)
        windows = (np.arange(n, dtype=np.uint64) + offset, gen.permutation(n).astype(np.uint64), wide[::2])
        for ticks in windows:
            serial, *threaded = planes_per_worker_count(monkeypatch, keys, ticks)
            for planes in threaded:
                assert np.array_equal(planes, serial), (n, ticks[:3])


@pytest.mark.parametrize("n_keys", [1, 16, 17, 40])
def test_the_parallel_threshold_changes_no_plane(n_keys, monkeypatch):
    # At 16 keys the threshold falls at 2^20 ticks: 2^20 - 1 is serial, 2^20
    # and 2^20 + 1 are threaded.
    edge = -(-rng._PARALLEL_MIN // n_keys)
    keys = [stream_key(9, ch) for ch in range(n_keys)]
    for n in (edge - 1, edge, edge + 1):
        serial, *threaded = planes_per_worker_count(monkeypatch, keys, np.arange(n, dtype=np.uint64))
        for planes in threaded:
            assert np.array_equal(planes, serial)
        rows = (0, n_keys - 1)
        bits = np.unpackbits(serial[rows, :], axis=1, bitorder="little")
        for row, key in zip(bits, (keys[0], keys[-1])):
            ticks = (0, n // 2, n - 1)
            assert [row[t] == 1 for t in ticks] == [coin_flip(key, t) == -1 for t in ticks]


def _no_threads(*args, **kwargs):
    raise AssertionError("a small draw started threads")


def test_small_draws_start_no_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _no_threads)
    monkeypatch.setattr(rng, "_WORKERS", 2)
    # the largest draw of a random-verify trial: 8 bits x 2 wires x 1024 ticks
    sign_planes([stream_key(1, ch) for ch in range(16)], np.arange(1024, dtype=np.uint64))


def _hash_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("rtwlogic-hash")]


def _threaded_draw(monkeypatch, workers: int = 2):
    """Keys, ticks and serial planes of a draw that then runs on `workers`
    threads, in 40 tiles of 128 ticks."""
    keys = [stream_key(11, ch) for ch in range(7)]
    ticks = np.arange(5000, dtype=np.uint64)
    want = sign_planes(keys, ticks)
    monkeypatch.setattr(rng, "_WORKERS", workers)
    monkeypatch.setattr(rng, "_PARALLEL_MIN", 1 << 10)
    monkeypatch.setattr(rng, "_TILE", 1 << 10)
    return keys, ticks, want


def test_a_threaded_draw_leaves_no_thread_behind(monkeypatch):
    keys, ticks, want = _threaded_draw(monkeypatch)
    started = []
    hash_tiles = rng._hash_tiles

    def record(*args) -> None:
        started.append(threading.current_thread().name)
        hash_tiles(*args)

    monkeypatch.setattr(rng, "_hash_tiles", record)
    assert np.array_equal(sign_planes(keys, ticks), want)
    assert len(started) == 2 and all(name.startswith("rtwlogic-hash") for name in started)
    assert _hash_threads() == []


def test_a_failing_worker_fails_the_draw_after_every_worker_ends(monkeypatch):
    # The first worker raises at once; the others finish their tiles later.
    # A worker's error must reach the caller rather than leave zero tiles,
    # and only once no worker still writes into the planes.
    keys, ticks, _ = _threaded_draw(monkeypatch, workers=3)
    calls, finished = [], []
    lock = threading.Lock()
    hash_tiles = rng._hash_tiles

    def fail_first(*args) -> None:
        with lock:
            calls.append(None)
            first = len(calls) == 1
        if first:
            raise RuntimeError("worker failed")
        time.sleep(0.2)
        hash_tiles(*args)
        finished.append(None)

    monkeypatch.setattr(rng, "_hash_tiles", fail_first)
    with pytest.raises(RuntimeError, match="worker failed"):
        sign_planes(keys, ticks)
    assert len(finished) == 2
    assert _hash_threads() == []


def test_concurrent_callers_get_the_serial_planes(monkeypatch):
    # More workers than cores and a short switch interval: racing callers,
    # each starting its own workers, must all get the serial planes.
    keys, ticks, want = _threaded_draw(monkeypatch, workers=3)
    seen = []

    def draw() -> None:
        for _ in range(20):
            seen.append(np.array_equal(sign_planes(keys, ticks), want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=draw) for _ in range(6)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(seen) == 120 and all(seen)


def _draw_and_compare(keys, ticks, want) -> None:
    sys.exit(0 if np.array_equal(sign_planes(keys, ticks), want) else 1)


def test_a_forked_child_hashes_on_its_own_pool(monkeypatch):
    # The parent has drawn on threads before the fork; the child starts its own.
    monkeypatch.setattr(rng, "_WORKERS", 2)
    keys = [stream_key(3, ch) for ch in range(16)]
    ticks = np.arange(rng._PARALLEL_MIN // 16 + 77, dtype=np.uint64)
    want = sign_planes(keys, ticks)
    child = multiprocessing.get_context("fork").Process(target=_draw_and_compare, args=(keys, ticks, want))
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0

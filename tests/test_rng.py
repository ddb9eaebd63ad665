"""Keyed counter-based generator: determinism, golden values, fairness,
and the same planes from the window driver on any number of threads."""

import concurrent.futures
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwlogic import reference, rng
from rtwlogic.compiler import GateCircuit, cnot, compile_circuit, not_gate
from rtwlogic.reference import ReferenceSystem, WireBank, map_window
from rtwlogic.rng import _mix64_top, coin_flip, coin_flips, mix64, sign_planes, stream_key

MASK64 = (1 << 64) - 1


def test_mix64_stays_in_64_bits():
    for x in (0, 1, 2, MASK64, 0xDEADBEEF, 1 << 63):
        assert 0 <= mix64(x) <= MASK64


def test_mix64_deterministic_and_injective_on_small_range():
    values = [mix64(x) for x in range(4096)]
    assert values == [mix64(x) for x in range(4096)]
    assert len(set(values)) == 4096


def test_mix64_array_matches_scalar():
    # The vector kernel plus the finalizer's last xor-shift, x ^= x >> 31.
    xs = np.array([0, 1, 2, 977, MASK64, 1 << 63], dtype=np.uint64)
    got = _mix64_top(xs.copy(), np.empty_like(xs))
    got ^= got >> np.uint64(31)
    want = np.array([mix64(int(x)) for x in xs], dtype=np.uint64)
    assert np.array_equal(got, want)


@given(st.lists(st.integers(0, MASK64), min_size=1, max_size=50))
def test_the_vector_kernel_keeps_bit_63_of_the_finalizer(xs):
    # The kernel drops the last xor-shift, x ^= x >> 31, which leaves bit 63 alone.
    x = np.array(xs, dtype=np.uint64)
    got = _mix64_top(x, np.empty_like(x)) >> np.uint64(63)
    assert got.tolist() == [mix64(v) >> 63 for v in xs]


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


def test_a_range_window_hashes_like_its_tick_array(monkeypatch):
    # Counters built from a start tick, near 2^64 too, in tiles of 64 ticks.
    monkeypatch.setattr(rng, "_TILE", 1 << 8)
    keys = [stream_key(8, ch) for ch in range(6)]
    for start in (0, 77, 2**64 - 2600):
        for n in (0, 1, 65, 2600):
            want = sign_planes(keys, np.arange(start, start + n, dtype=np.uint64))
            assert np.array_equal(sign_planes(keys, range(start, start + n)), want), (start, n)


@pytest.mark.parametrize("n", [1, 65, 100, 2600])
def test_the_row_padding_is_zero_in_reused_memory(n, monkeypatch):
    # A 0xFF block of the result's size is freed just before each call, so
    # the allocator may hand its bytes back as the result; the padding past
    # the window, which no tile writes, must still read zero.
    monkeypatch.setattr(rng, "_TILE", 1 << 8)
    keys = np.array([stream_key(3, ch) for ch in range(6)], dtype=np.uint64)
    for ticks in (range(n), np.arange(n, dtype=np.uint64)):
        for _ in range(20):
            block = np.full((6, 8 * -(-n // 64)), 0xFF, dtype=np.uint8)
            del block
            planes = sign_planes(keys, ticks)
            assert not np.unpackbits(planes, axis=1, bitorder="little")[:, n:].any()


def assert_scalar_planes(planes: np.ndarray, keys, ticks) -> None:
    """Every bit of `planes` is the scalar sample of its stream and tick,
    and the padding past the window is zero."""
    ticks = [int(t) for t in ticks]
    assert planes.shape == (len(keys), 8 * -(-len(ticks) // 64))
    bits = np.unpackbits(planes, axis=1, bitorder="little")
    assert not bits[:, len(ticks) :].any()
    want = [[coin_flip(int(key), t) == -1 for t in ticks] for key in keys]
    assert bits[:, : len(ticks)].astype(bool).tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tiles_of_any_shape_hash_like_the_scalar_path(data):
    """One tile of all streams, row blocks of several streams and runs of
    one stream, with ragged ends, from any start."""
    tile = data.draw(st.sampled_from([1 << 8, 1 << 9]), "tile")
    n_keys = data.draw(st.integers(1, 64), "n_keys")
    edges = [k * tile + d for k in range(4) for d in (-64, -1, 0, 1, 63) if 0 <= k * tile + d <= 3 * tile]
    n = data.draw(st.one_of(st.sampled_from(edges), st.integers(0, 3 * tile)), "n")
    start = data.draw(st.sampled_from([0, 2**33, 2**64 - n - data.draw(st.integers(0, 100))]), "start")
    keys = [stream_key(data.draw(st.integers(0, 2**64 - 1)), ch) for ch in range(n_keys)]
    ticks = range(start, start + n)
    window = data.draw(st.sampled_from(["range", "array", "shuffled"]), "window")
    if window != "range":
        ticks = np.arange(start, start + n, dtype=np.uint64)
        if window == "shuffled":
            ticks = ticks[np.random.default_rng(n).permutation(n)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "_TILE", tile)
        planes = sign_planes(keys, ticks)
    assert_scalar_planes(planes, keys, ticks)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_short_last_chunk_takes_the_other_tile_shape(data):
    # A full chunk of more than half a tile is hashed one stream per tile,
    # while a last chunk of at most half a tile is hashed in tiles of
    # several streams.
    tile = data.draw(st.sampled_from([1 << 8, 1 << 9]))
    system = ReferenceSystem(data.draw(st.integers(1, 8)), data.draw(st.integers(0, 2**64 - 1)))
    n_keys = 2 * system.n_bits
    step = data.draw(st.sampled_from([tile // 2 + 64, tile, 2 * tile]))
    n = data.draw(st.integers(1, 3)) * step + data.draw(st.integers(1, tile // 2))
    start = data.draw(st.sampled_from([0, 2**33, 2**64 - n]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "_TILE", tile)
        patch.setattr(reference, "_CHUNK_SAMPLES", step * n_keys)
        patch.setattr(reference, "_WORKERS", 1)
        planes = window_planes(system, range(start, start + n))
    assert_scalar_planes(planes.reshape(n_keys, -1), system.keys, range(start, start + n))


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


def window_planes(system: ReferenceSystem, ticks, prog=None) -> np.ndarray:
    """A window's effective sign planes, put together from the chunks of
    the window driver in window order."""
    return np.concatenate(map_window(system, ticks, lambda lo, raw: raw.apply(prog).planes), axis=-1)


def chunk_ticks(system: ReferenceSystem) -> int:
    """Ticks of a full chunk of the window driver."""
    return max(64, reference._CHUNK_SAMPLES // (2 * system.n_bits) // 64 * 64)


def planes_per_worker_count(monkeypatch, system, ticks, prog=None) -> list[np.ndarray]:
    out = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(reference, "_WORKERS", workers)
        out.append(window_planes(system, ticks, prog))
    return out


def every_gate(n_bits: int):
    gates = [not_gate(bit) for bit in range(n_bits)] + [cnot(bit, bit + 1) for bit in range(n_bits - 1)]
    return compile_circuit(GateCircuit(n_bits, tuple(gates)))


@pytest.mark.parametrize("n_keys", range(1, 41))
def test_sign_planes_do_not_depend_on_the_worker_count(n_keys, monkeypatch):
    # A system draws 2N keys: an even n_keys reads the raw planes of N =
    # n_keys / 2 bits, an odd one the effective planes under a program on
    # N = (n_keys + 1) / 2 bits. Small chunks and tiles give every worker
    # several chunks of several tiles, the last one ragged, while the draws
    # stay small.
    monkeypatch.setattr(reference, "_CHUNK_SAMPLES", 1 << 10)
    monkeypatch.setattr(rng, "_TILE", 1 << 8)
    system = ReferenceSystem(-(-n_keys // 2), 5)
    prog = every_gate(system.n_bits) if n_keys % 2 else None
    edge = chunk_ticks(system)  # the most ticks drawn on the calling thread
    gen = np.random.default_rng(n_keys)
    for n in sorted({0, 1, 63, 64, 65, 191, 64 * 11 - 1, 64 * 11 + 1, edge - 1, edge, edge + 1, 4097}):
        offset = int(gen.integers(0, 2**40))
        wide = gen.integers(0, 2**63, size=2 * n, dtype=np.uint64)
        contiguous = np.arange(n, dtype=np.uint64) + np.uint64(offset)
        windows = (contiguous, range(offset, offset + n), gen.permutation(n).astype(np.uint64), wide[::2])
        for ticks in windows:
            whole = WireBank.draw(system, ticks).apply(prog).planes
            serial, *threaded = planes_per_worker_count(monkeypatch, system, ticks, prog)
            assert np.array_equal(serial, whole), (n, ticks[:3])
            for planes in threaded:
                assert np.array_equal(planes, serial), (n, ticks[:3])


@pytest.mark.parametrize("n_keys", [1, 16, 17, 40])
def test_the_parallel_threshold_changes_no_plane(n_keys, monkeypatch):
    # At the real chunk size: a window of one chunk is drawn on the calling
    # thread and one tick more on threads. With 40 keys (20 bits) a chunk
    # is 104,832 ticks. n_keys rounds up to whole systems.
    system = ReferenceSystem(-(-n_keys // 2), 9)
    keys = system.keys.tolist()
    edge = chunk_ticks(system)
    for n in (edge, edge + 1):
        serial, *threaded = planes_per_worker_count(monkeypatch, system, range(n))
        for planes in threaded:
            assert np.array_equal(planes, serial)
        rows = serial.reshape(len(keys), -1)[(0, len(keys) - 1), :]
        bits = np.unpackbits(rows, axis=1, bitorder="little")
        for row, key in zip(bits, (keys[0], keys[-1])):
            ticks = (0, n // 2, n - 1)
            assert [row[t] == 1 for t in ticks] == [coin_flip(key, t) == -1 for t in ticks]


def _no_threads(*args, **kwargs):
    raise AssertionError("a small window started threads")


def test_small_draws_start_no_pool(monkeypatch):
    monkeypatch.setattr(reference, "_WORKERS", 2)
    system, prog = ReferenceSystem(20, 1), every_gate(20)
    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ThreadPoolExecutor", _no_threads)
        # the largest draw of a random-verify trial: 8 bits x 2 wires x 1024 ticks
        window_planes(ReferenceSystem(8, 1), range(1024))
        # one full chunk of 20 bits
        window_planes(system, range(104_832), prog)
    names = set()
    draw = WireBank.draw

    def record(system, chunk) -> WireBank:
        names.add(threading.current_thread().name)
        return draw(system, chunk)

    monkeypatch.setattr(WireBank, "draw", record)
    window_planes(system, range(104_833), prog)
    assert names and all(name.startswith("rtwlogic-chunk") for name in names)


def _chunk_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("rtwlogic-chunk")]


def _threaded_draw(monkeypatch, workers: int = 2):
    """System, ticks and serial planes of a window that then runs on
    `workers` threads, in 40 chunks of 128 ticks."""
    system = ReferenceSystem(4, 11)
    ticks = range(5000)
    want = WireBank.draw(system, ticks).planes
    monkeypatch.setattr(reference, "_WORKERS", workers)
    monkeypatch.setattr(reference, "_CHUNK_SAMPLES", 1 << 10)
    return system, ticks, want


def test_a_threaded_draw_leaves_no_thread_behind(monkeypatch):
    system, ticks, want = _threaded_draw(monkeypatch)
    started = set()
    # Each worker waits at its first chunk until the other has started too.
    both = threading.Barrier(2, timeout=30)
    draw = WireBank.draw

    def record(system, chunk) -> WireBank:
        name = threading.current_thread().name
        if name not in started:
            started.add(name)
            both.wait()
        return draw(system, chunk)

    monkeypatch.setattr(WireBank, "draw", record)
    assert np.array_equal(window_planes(system, ticks), want)
    assert len(started) == 2 and all(name.startswith("rtwlogic-chunk") for name in started)
    assert _chunk_threads() == []


def test_a_failing_worker_fails_the_draw_after_every_worker_ends(monkeypatch):
    # The first draw raises once a second one has started; the others draw
    # a little later. A worker's error must reach the caller rather than
    # leave chunks out, and only once no started draw is still running; the
    # chunks that had not started by then are cancelled.
    system, ticks, _ = _threaded_draw(monkeypatch, workers=3)
    calls, finished = [], []
    lock = threading.Lock()
    second = threading.Event()
    draw = WireBank.draw

    def fail_first(system, chunk) -> WireBank:
        with lock:
            calls.append(None)
            first = len(calls) == 1
        if first:
            second.wait(timeout=30)
            raise RuntimeError("worker failed")
        second.set()
        time.sleep(0.01)
        bank = draw(system, chunk)
        finished.append(None)
        return bank

    monkeypatch.setattr(WireBank, "draw", fail_first)
    with pytest.raises(RuntimeError, match="worker failed"):
        window_planes(system, ticks)
    assert 2 <= len(calls) < 40 and len(finished) == len(calls) - 1
    assert _chunk_threads() == []


def test_a_threaded_window_holds_a_bounded_number_of_chunks(monkeypatch):
    # Chunks of 64 ticks on two workers: 4096 chunks must peak within 64 KB
    # of 64 chunks, so the work submitted and not yet read does not grow
    # with the chunk count (the results, one None per chunk, take 32 KB).
    system = ReferenceSystem(1, 7)
    monkeypatch.setattr(reference, "_CHUNK_SAMPLES", 64 * 2 * system.n_bits)
    monkeypatch.setattr(reference, "_WORKERS", 2)
    names = set()

    def consume(lo: int, raw: WireBank) -> None:
        names.add(threading.current_thread().name)

    map_window(system, range(64 * 64), consume)
    peaks = {}
    for chunks in (64, 4096):
        tracemalloc.start()
        try:
            assert map_window(system, range(64 * chunks), consume) == [None] * chunks
            peaks[chunks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4096] - peaks[64] < 64 << 10, peaks
    assert len(names) <= 2 and all(name.startswith("rtwlogic-chunk") for name in names), names
    assert _chunk_threads() == []


def test_a_consumer_may_keep_every_chunk(monkeypatch):
    # Every chunk is drawn into planes of its own, so banks kept from a
    # threaded window of 40 chunks put together the planes of one draw.
    system, ticks, _ = _threaded_draw(monkeypatch)
    kept = map_window(system, ticks, lambda lo, raw: raw)
    assert len(kept) == 40
    planes = np.concatenate([raw.planes for raw in kept], axis=-1).reshape(8, -1)
    assert np.array_equal(planes, sign_planes(system.keys, ticks))


def test_concurrent_callers_get_the_serial_planes(monkeypatch):
    # More workers than cores and a short switch interval: racing callers,
    # each starting its own workers, must all get the serial planes.
    system, ticks, want = _threaded_draw(monkeypatch, workers=3)
    seen = []

    def draw() -> None:
        for _ in range(20):
            seen.append(np.array_equal(window_planes(system, ticks), want))

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


def _draw_and_compare(system, ticks, want) -> None:
    sys.exit(0 if np.array_equal(window_planes(system, ticks), want) else 1)


def test_a_forked_child_hashes_on_its_own_pool(monkeypatch):
    # The parent has run a window on threads before the fork; the child starts its own.
    monkeypatch.setattr(reference, "_WORKERS", 2)
    system = ReferenceSystem(8, 3)
    ticks = range((1 << 20) + 77)
    want = window_planes(system, ticks)
    child = multiprocessing.get_context("fork").Process(target=_draw_and_compare, args=(system, ticks, want))
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0

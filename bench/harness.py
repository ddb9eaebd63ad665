"""Measurement loops, metrics and run facts of the benchmark.

Needs `src/` on `sys.path`; run.py puts it there.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy

from tracing import Tracer
from workloads import DIGEST_SEED, HELD_OUT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPEATS = 5
LAYERS = ("rng", "reference", "hyperspace", "compiler", "verify", "cli")

END_TO_END = {
    "setup_s": "s",
    "ticks_per_s": "ticks/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# (metric, span name, "total" or derived "self"): ms per op, median over ops.
SPAN_TIMES = (
    ("rng.coin_flips.ms", "rng.coin_flips", "total"),
    ("reference.wire_table.self_ms", "reference.wire_table", "self"),
    ("hyperspace.superposition_sample.self_ms", "hyperspace.superposition_sample", "self"),
    ("hyperspace.product_string_sample.ms", "hyperspace.product_string_sample", "total"),
    ("hyperspace.membership_estimate.self_ms", "hyperspace.membership_estimate", "self"),
    ("hyperspace.oracle_apply.ms", "hyperspace.oracle_apply", "total"),
    ("compiler.compile_circuit.ms", "compiler.compile_circuit", "total"),
    ("verify.universe_invariance_check.self_ms", "verify.universe_invariance_check", "self"),
    ("verify.random_equivalence_trials.self_ms", "verify.random_equivalence_trials", "self"),
    ("verify.signal_equivalence_check.self_ms", "verify.signal_equivalence_check", "self"),
    ("verify.compare_signals.ms", "verify.compare_signals", "total"),
    ("cli.build_parser.ms", "cli.build_parser", "total"),
    ("cli.main.self_ms", "cli.main", "self"),
)
# (metric, span name): the largest tracemalloc peak of one call, in MB.
SPAN_PEAKS = (
    ("reference.wire_table.peak_mb", "reference.wire_table"),
    ("hyperspace.superposition_sample.peak_mb", "hyperspace.superposition_sample"),
)
# Work per op, computed from the inputs of the replayed calls.
WORK_COUNTS = (
    "rng.coin_flips.calls",
    "rng.samples",
    "reference.insertion_ticks",
    "hyperspace.term_bit_ticks",
    "hyperspace.oracle_strings",
    "compiler.compiles",
)

PER_LAYER = {
    **{name: "ms" for name, _, _ in SPAN_TIMES},
    **{name: "MB" for name, _ in SPAN_PEAKS},
    **{name: "count" for name in WORK_COUNTS},
    "rng.ns_per_sample": "ns",
    "verify.mismatches": "count",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "op_p90_ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_ms": "ms",
    "fail_ratio": "ratio",
}


class Tally:
    """Attempted and failed checks of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _report(what: str, exc: Exception) -> None:
    print(f"{what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def timed_op(wl, i: int) -> tuple[bool, int]:
    """Make op `i`, timing only the library call; then check its result.
    An exception counts as a failed op, like a failed check."""
    start = time.perf_counter_ns()
    try:
        result = wl.call(i)
    except Exception as exc:  # noqa: BLE001 - a failed op must not end the run
        _report(f"op {i}", exc)
        return False, time.perf_counter_ns() - start
    ns = time.perf_counter_ns() - start
    try:
        return bool(wl.check(i, result)), ns
    except Exception as exc:  # noqa: BLE001
        _report(f"check of op {i}", exc)
        return False, ns


class SetupProbes:
    """Set-up time: fresh processes that import rtwlogic, build the
    workload's inputs and exit. `due()` runs one between two timed ops when
    its turn has come, so the probes spread evenly over the timed loop and
    meet the host's slow and fast periods as the ops do."""

    def __init__(self, name: str, seed: int, repeats: int, seconds: float):
        self.argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
        self.repeats = repeats
        self.interval = seconds / repeats
        self.start = time.perf_counter()
        self.times: list[float] = []

    def due(self) -> None:
        if len(self.times) < self.repeats and time.perf_counter() >= self.start + len(self.times) * self.interval:
            self._probe()

    def finish(self) -> list[float]:
        while len(self.times) < self.repeats:
            self._probe()
        return self.times

    def _probe(self) -> None:
        start = time.perf_counter()
        # No timeout: Popen.wait(timeout) polls in sleeps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run(self.argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - start)


def measure(wl, seconds: float, probes: SetupProbes | None = None) -> tuple[Tally, list[int]]:
    """Untraced closed loop: a checked warm-up op, then ops until `seconds`
    have passed, with the set-up probes in between. Returns the tally and
    each timed op's duration in ns."""
    tally = Tally()
    tally.record(timed_op(wl, 0)[0])
    durations: list[int] = []
    deadline = time.perf_counter() + seconds
    while not durations or time.perf_counter() < deadline:
        if probes is not None:
            probes.due()
        ok, ns = timed_op(wl, len(durations) + 1)
        tally.record(ok)
        durations.append(ns)
    return tally, durations


def measure_traced(wl, seconds: float) -> tuple[Tally, Tracer, list[tuple[int, int]], Tracer]:
    """Traced run, in two passes.

    Timing pass, after a checked warm-up op, for `seconds` and at least
    one op: op `i` is made untraced and, before or after that, inside a
    span followed by the replay of its layer calls as child spans. Memory
    pass, over the first `wl.count_ops` ops: the traced op and replay
    again, with tracemalloc running, for peaks and work counts that depend
    only on the inputs. tracemalloc stays off in the timing pass because it
    slows every allocation. Returns the tally, the timing tracer, the
    untraced and traced op durations in ns, and the memory tracer.
    """
    tally = Tally()
    tally.record(timed_op(wl, 0)[0])
    timing, memory = Tracer(), Tracer()
    pairs: list[tuple[int, int]] = []
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        i = len(pairs) + 1
        # Alternate which of the two calls goes first, so that the second
        # call's warmer caches do not bias the overhead one way.
        if i % 2:
            plain_ok, plain = timed_op(wl, i)
            traced_ok, traced = traced_op(wl, i, timing)
        else:
            traced_ok, traced = traced_op(wl, i, timing)
            plain_ok, plain = timed_op(wl, i)
        tally.record(plain_ok and traced_ok)
        pairs.append((plain, traced))
    tracemalloc.start()
    try:
        for i in range(1, wl.count_ops + 1):
            tally.record(traced_op(wl, i, memory)[0])
    finally:
        tracemalloc.stop()
    return tally, timing, pairs, memory


def traced_op(wl, i: int, tracer: Tracer) -> tuple[bool, int]:
    """Op `i` inside a span, checked, then its layer calls replayed.
    Returns whether all of it passed and the op span's duration in ns."""
    tracer.begin_op(i)
    op_ns = 0
    try:
        with tracer.span(wl.span) as op_span:
            result = wl.call(i)
        op_ns = op_span.ns
        return bool(wl.check(i, result)) and bool(wl.replay(tracer, i, op_span)), op_ns
    except Exception as exc:  # noqa: BLE001 - counted by layer and as a failed op
        _report(f"traced op {i}", exc)
        return False, op_ns


def layer_metrics(timing: Tracer, pairs: list[tuple[int, int]], memory: Tracer, tally: Tally) -> dict[str, float]:
    """The per-layer metrics of a traced run, keyed as in PER_LAYER."""
    ops = sorted(timing.counts)
    per_op = [timing.op_times(op) for op in ops]
    metrics: dict[str, float] = {}
    for metric, span, kind in SPAN_TIMES:
        metrics[metric] = statistics.median(getattr(t, kind).get(span, 0) for t in per_op) / 1e6
    peaks = [memory.op_times(op).peak for op in memory.counts]
    for metric, span in SPAN_PEAKS:
        metrics[metric] = max(p.get(span, 0) for p in peaks) / 2**20
    for name in WORK_COUNTS:
        metrics[name] = statistics.fmean(c[name] for c in memory.counts.values())
    metrics["rng.ns_per_sample"] = statistics.median(
        t.total.get("rng.coin_flips", 0) / max(timing.counts[op]["rng.samples"], 1) for op, t in zip(ops, per_op)
    )
    metrics["verify.mismatches"] = sum(c["verify.mismatches"] for t in (timing, memory) for c in t.counts.values())
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = timing.errors[layer] + memory.errors[layer]
    metrics["op_p90_ms"] = p90_ms([plain for plain, _ in pairs])
    metrics["trace.op_ms"] = statistics.median(traced for _, traced in pairs) / 1e6
    metrics["trace.overhead_ms"] = statistics.median(traced - plain for plain, traced in pairs) / 1e6
    metrics["fail_ratio"] = tally.failed / tally.attempted
    return metrics


def p90_ms(durations: list[int]) -> float:
    """Interpolated 90th percentile of op durations given in ns."""
    ms = [d / 1e6 for d in durations]
    return statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]


def end_to_end_metrics(wl, durations: list[int], setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "ticks_per_s": wl.ticks_per_op * len(durations) / (sum(durations) / 1e9),
        "op_p50_ms": statistics.median(durations) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def stored_digests() -> dict:
    return json.loads((BENCH / "digests.json").read_text())


def digest_matches(wl_cls, sizes: dict, expected: dict | None) -> bool:
    """Exactness guard: outputs at the digest seed equal the stored ones."""
    try:
        got = wl_cls(DIGEST_SEED, **sizes).digest()
    except Exception as exc:  # noqa: BLE001 - counted as a failed check
        _report("digest", exc)
        return False
    if got != expected:
        print(f"exactness digest mismatch for {wl_cls.name}: got {got}, stored {expected}", file=sys.stderr)
        return False
    return True


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind == "Unified":
            sizes[f"L{level}"] = size
    return sizes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev() -> str:
    """HEAD's commit from the .git directory, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
        setup_repeats: int = SETUP_REPEATS, digests: dict | None = None) -> tuple[dict, dict, dict]:
    """One benchmark run; returns (result, facts, spans).

    `sizes` overrides the workload's op size and `digests` the stored
    digests, both for tests at small sizes.
    """
    wl_cls = WORKLOADS[name]
    sizes = sizes or {}
    wl = wl_cls(seed, **sizes)
    spans: dict[str, list[dict]] = {}
    run_facts: dict = {}
    if trace:
        tally, timing, pairs, memory = measure_traced(wl, seconds)
        ops = len(pairs)
        spans = {"timing": timing.to_list(), "memory": memory.to_list()}
    else:
        probes = SetupProbes(name, seed, setup_repeats, seconds)
        tally, durations = measure(wl, seconds, probes)
        setup = probes.finish()
        ops = len(durations)
        # Not an end-to-end metric: on a shared host it tracks the host's
        # slow periods more than the program (see README.md).
        run_facts = {"op_p90_ms": p90_ms(durations), "setup_s_samples": setup}
    expected = (stored_digests() if digests is None else digests).get(name)
    tally.record(digest_matches(wl_cls, sizes, expected))
    if trace:
        metrics, units = layer_metrics(timing, pairs, memory, tally), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(wl, durations, setup), END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "workload": name,
        "workload_seed": seed,
        "digest_seed": DIGEST_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "op_size": wl.size,
        "ticks_per_op": wl.ticks_per_op,
        "ops": ops,
        "traced": trace,
        "loop": "closed, 1 caller, 1 thread",
        "fail_ratio": tally.failed / tally.attempted,
        **run_facts,
    }
    return result, facts, spans

"""Tests of the benchmark itself, at small sizes.

    python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from rtwlogic import InsertionProgram  # noqa: E402
from workloads import DIGEST_SEED, WORKLOADS, ExplicitReadout, ReadoutCase  # noqa: E402

SMALL = {
    "universe_chain": {"bits": 6, "ticks": 1024},
    "explicit_readout": {"bits": 8, "terms": 16, "gates": 6, "ticks": 4096, "cases": 2},
    "random_verify": {"trials": 2},
}
SEED = 7


def small_digests() -> dict:
    return {name: cls(DIGEST_SEED, **SMALL[name]).digest() for name, cls in WORKLOADS.items()}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads_and_the_emitted_metrics():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, facts, spans = harness.run(
        name, SEED, 0.05, trace, sizes=SMALL[name], setup_repeats=1, digests=small_digests()
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert facts["workload_seed"] == SEED and facts["ops"] >= 1
    assert bool(spans) == trace
    json.dumps(result)


def test_work_counts_follow_from_the_inputs():
    result, _, _ = harness.run(
        "universe_chain", SEED, 0.05, True, sizes=SMALL["universe_chain"], setup_repeats=1, digests=small_digests()
    )
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
    bits, ticks = 6, 1024
    assert counts["rng.coin_flips.calls"] == 2 * 2 * bits
    assert counts["rng.samples"] == 2 * 2 * bits * ticks
    assert counts["reference.insertion_ticks"] == bits * (bits - 1) // 2 * ticks  # M = L(L+1)/2, L = bits - 1
    assert counts["hyperspace.term_bit_ticks"] == 2 * bits * ticks
    assert counts["compiler.compiles"] == 1


def drop_one_insertion(case: ReadoutCase) -> ReadoutCase:
    """The case with one insertion removed from its program, probed at the
    circuit image of a term whose product string uses the host wire of the
    removed insertion, so the tampered program moves that term elsewhere."""
    dropped = min(case.prog.insertions)
    term, coeff = next((s, c) for s, c in case.y.terms if (s >> dropped.host_bit) & 1 == dropped.host_value)
    prog = InsertionProgram(case.prog.n_bits, case.prog.insertions - {dropped})
    return replace(case, prog=prog, probe=case.circuit.apply(term), expected=coeff)


def test_negative_control_program_with_a_dropped_insertion_fails_every_op():
    wl = ExplicitReadout(SEED, **SMALL["explicit_readout"])
    wl.cases = [drop_one_insertion(c) for c in wl.cases]
    tally, durations = harness.measure(wl, 0.05)
    assert tally.attempted == len(durations) + 1
    assert tally.failed == tally.attempted
    tally, *_ = harness.measure_traced(wl, 0.05)
    assert tally.failed == tally.attempted


def test_a_changed_output_fails_the_exactness_digest():
    name = "explicit_readout"
    digests = small_digests()
    assert harness.digest_matches(WORKLOADS[name], SMALL[name], digests[name])
    wrong = dict(digests[name], membership_estimate_hex=(0.5).hex())
    assert not harness.digest_matches(WORKLOADS[name], SMALL[name], wrong)
    result, _, _ = harness.run(
        name, SEED, 0.05, False, sizes=SMALL[name], setup_repeats=1, digests={name: wrong}
    )
    assert not result["correct"] and result["failed"] == 1


def test_stored_digests_cover_every_workload():
    stored = harness.stored_digests()
    assert set(stored) == set(WORKLOADS)
    assert stored["random_verify"]["exit_code"] == 0


def test_inputs_depend_only_on_the_workload_seed():
    a = ExplicitReadout(SEED, **SMALL["explicit_readout"])
    b = ExplicitReadout(SEED, **SMALL["explicit_readout"])
    c = ExplicitReadout(SEED + 1, **SMALL["explicit_readout"])
    assert a.cases == b.cases
    assert a.cases != c.cases
    assert a.system(1) == b.system(1) != a.system(2)


def test_run_fails_without_printing_a_result_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "universe_chain", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Benchmark of rtwlogic.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
`src/`. The loop is closed and single-threaded: one caller, and the next op
starts when the previous one returns. `--trace 0` times every op from
outside and reports the end-to-end metrics. `--trace 1` makes each op once
untraced and once inside a span, replays its layer calls as child spans,
reports the per-layer metrics and writes the spans to `.bench_out/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="rtwlogic benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The set-up probe: a fresh process that only imports and builds inputs.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    if not (SRC / "rtwlogic" / "__init__.py").is_file():
        print(f"error: no rtwlogic sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rtwlogic

    if Path(rtwlogic.__file__).resolve().parent != (SRC / "rtwlogic").resolve():
        print(f"error: imported rtwlogic from {rtwlogic.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0

    import harness

    result, facts, spans = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("facts " + json.dumps(facts))
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"facts": facts, "spans": spans}))
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

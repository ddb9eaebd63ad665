"""Command-line front end.

Exit codes are a stable scripting contract: 0 on success, 1 when a
requested check fails, 2 on usage, parse or file errors. Every run is
reproducible from the command line alone; seeds default to a fixed
constant, and `--random-seed` (which draws from OS entropy) prints the
drawn seed so the run can be replayed.
"""

from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys
from pathlib import Path

from .compiler import (
    CircuitParseError,
    _parse_int,
    compile_circuit,
    conjecture_scan,
    parse_circuit,
)
from .hyperspace import parse_superposition, superposition_sample
from .reference import DEFAULT_SEED, ReferenceSystem, orthogonality_report
from .verify import DEFAULT_TICKS, canonical_suite, random_equivalence_trials

USAGE_ERROR = 2
CHECK_FAILURE = 1

# Ticks of a trace evaluated at a time: 4 MiB of int64 signal. On a 2-CPU
# host with 2 or 4 hashing threads, a 4x10^6-tick CSV trace at N=20 peaked
# 3.3-7.5 MB above a 10^6-tick one with windows of 2^20 ticks, and at most
# 1 MB above with 2^19.
_TRACE_WINDOW = 1 << 19
# Ticks of a trace (CSV rows or JSON values) formatted and written at a time.
_TRACE_ROWS = 1 << 16


def _positive(text: str) -> int:
    value = _parse_int(text, "integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed(text: str) -> int:
    value = _parse_int(text, "seed")
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"expected a seed in [0, 2**64), got {text}")
    return value


def _add_seed_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--seed", type=_seed, default=DEFAULT_SEED,
        help=f"reference-system seed (default {DEFAULT_SEED})",
    )
    group.add_argument(
        "--random-seed", action="store_true",
        help="draw the seed from OS entropy and print it for replay",
    )


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "random_seed", False):
        seed = secrets.randbits(63)
        print(f"seed: {seed}")
        return seed
    return args.seed


def _read_circuit(path: str, n_bits: int | None):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CircuitParseError(str(exc)) from exc
    return parse_circuit(text, n_bits=n_bits)


def cmd_compile(args: argparse.Namespace) -> int:
    circ = _read_circuit(args.circuit, args.n)
    program = compile_circuit(circ)
    text = json.dumps(program.to_dict(), indent=2)
    if args.out is None:
        print(text)
    else:
        Path(args.out).write_text(text + "\n")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    system = ReferenceSystem(args.n, seed)
    y = parse_superposition(args.superposition, n_bits=args.n)
    circuit_lines = None
    program = None
    if args.circuit is not None:
        circ = _read_circuit(args.circuit, args.n)
        program = compile_circuit(circ)
        circuit_lines = circ.to_text().splitlines()

    def pieces():
        """(first tick, values) of the trace, _TRACE_ROWS ticks at a time,
        from one window of the signal at a time."""
        for start in range(0, args.ticks, _TRACE_WINDOW):
            window = range(start, min(start + _TRACE_WINDOW, args.ticks))
            signal = superposition_sample(system, program, y, window)
            for lo in range(0, signal.size, _TRACE_ROWS):
                yield start + lo, signal[lo : lo + _TRACE_ROWS].tolist()
            del signal  # before the next window is evaluated

    with Path(args.out).open("w") as out:
        if args.format == "csv":
            out.write("tick,signal\n")
            for first, values in pieces():
                out.write("".join(f"{tick},{value}\n" for tick, value in enumerate(values, first)))
        else:
            header = {
                "n_bits": args.n,
                "seed": seed,
                "ticks": args.ticks,
                "superposition": y.to_text(),
                "circuit": circuit_lines,
                "signals": None,
            }
            # The bytes of json.dumps(payload, indent=2), with the signals
            # (the last key) written chunk by chunk.
            out.write(json.dumps(header, indent=2).removesuffix("null\n}"))
            sep = "[\n    "
            for _, values in pieces():
                out.write(sep + ",\n    ".join(map(str, values)))
                sep = ",\n    "
            out.write("\n  ]\n}\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    if args.suite == "figures":
        report = canonical_suite(seed, ticks=args.ticks)
    else:
        report = random_equivalence_trials(
            args.trials, seeds=(seed,), ticks=args.ticks, draw_seed=seed
        )
    print("\n".join(report.lines()))
    return 0 if report.passed else CHECK_FAILURE


def cmd_stats(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    report = orthogonality_report(ReferenceSystem(args.n, seed), args.ticks)
    print("\n".join(report.lines()))
    return 0 if report.passed else CHECK_FAILURE


def cmd_conjecture(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    report = conjecture_scan(args.gates, args.bits, args.samples, seed=seed)
    # Violations are findings, not failures: the exit code stays 0.
    print("\n".join(report.lines()))
    return 0


# Built once per process (1 ms, against 0.05 ms a parse); no caller may change it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtwlogic",
        description="Simulate and compile instantaneous logic on clocked "
        "random telegraph waves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a circuit file to an insertion program")
    p.add_argument("--circuit", required=True, help="path to a NOT/CNOT circuit file")
    p.add_argument("--n", type=_positive, default=None, help="bit width override")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="emit a per-tick signal trace")
    p.add_argument("--n", type=_positive, required=True, help="number of bits")
    p.add_argument("--ticks", type=_positive, required=True, help="trace length")
    p.add_argument("--superposition", required=True,
                   help="'universe', a {0,1,*} pattern, or 'COEFF*BITS;...' terms")
    p.add_argument("--circuit", default=None,
                   help="optional circuit file, compiled and applied before sampling")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_seed_options(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run equivalence checks")
    p.add_argument("--suite", choices=("figures", "random"), default="figures")
    p.add_argument("--trials", type=_positive, default=20,
                   help="random-suite trial count")
    p.add_argument("--ticks", type=_positive, default=DEFAULT_TICKS)
    _add_seed_options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="orthogonality statistics of the reference waves")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--ticks", type=_positive, required=True)
    _add_seed_options(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("conjecture", help="scan random cascades for hardware counts")
    p.add_argument("--gates", type=_positive, required=True)
    p.add_argument("--bits", type=_positive, required=True)
    p.add_argument("--samples", type=_positive, required=True)
    _add_seed_options(p)
    p.set_defaults(func=cmd_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CircuitParseError as exc:
        print(f"circuit error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

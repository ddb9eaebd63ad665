"""Command-line behavior: subcommand contracts, formats, exit codes."""

import json
import re
import subprocess
import sys

import pytest

from rtwlogic import (
    ReferenceSystem,
    cli,
    compile_circuit,
    parse_circuit,
    parse_superposition,
    superposition_sample,
    tick_range,
)
from rtwlogic.cli import main


@pytest.fixture()
def circuit_file(tmp_path):
    def write(text, name="circ.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compile -----------------------------------------------------------------

def test_compile_single_cnot(circuit_file, capsys):
    code, out, _ = run(["compile", "--circuit", circuit_file("CNOT 1 2\n")], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["M"] == 1
    assert payload["insertions"] == [{"host_bit": 1, "host_value": 1, "target": 2}]


def test_compile_empty_file(circuit_file, capsys):
    code, out, _ = run(["compile", "--circuit", circuit_file(""), "--n", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n_bits": 3, "insertions": [], "M": 0}


def test_compile_rejects_self_controlled_gate(circuit_file, capsys):
    code, out, err = run(["compile", "--circuit", circuit_file("CNOT 2 2\n")], capsys)
    assert code == 2
    assert out == "" and "line 1" in err


def test_compile_missing_file_is_a_usage_error(capsys):
    code, _, err = run(["compile", "--circuit", "/nonexistent/x.txt"], capsys)
    assert code == 2 and err


def test_compile_writes_output_file(circuit_file, tmp_path, capsys):
    out_path = tmp_path / "prog.json"
    code, out, _ = run(
        ["compile", "--circuit", circuit_file("NOT 0\n"), "--out", str(out_path)], capsys
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["M"] == 2


def test_compile_unwritable_output_is_a_usage_error(circuit_file, tmp_path, capsys):
    out_path = tmp_path / "missing" / "prog.json"
    code, _, err = run(["compile", "--circuit", circuit_file("NOT 0\n"), "--out", str(out_path)], capsys)
    assert code == 2 and err.startswith("error:") and str(out_path) in err


# -- simulate ----------------------------------------------------------------

def test_simulate_universe_trace(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, _, _ = run(
        ["simulate", "--n", "4", "--seed", "42", "--ticks", "16",
         "--superposition", "universe", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "tick,signal"
    assert len(lines) == 17
    values = {int(line.split(",")[1]) for line in lines[1:]}
    assert values <= {0, 16, -16}


def test_simulate_singleton_stays_binary(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, _, _ = run(
        ["simulate", "--n", "3", "--seed", "42", "--ticks", "64",
         "--superposition", "101", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    values = {int(l.split(",")[1]) for l in out_path.read_text().strip().splitlines()[1:]}
    assert values == {-1, 1}


@pytest.mark.parametrize("rows", [1, 7, 64, 1000])
def test_simulate_writes_the_same_csv_in_any_row_chunks(rows, tmp_path, capsys, monkeypatch):
    argv = ["simulate", "--n", "5", "--seed", "3", "--ticks", "200", "--superposition", "*1*0*"]
    signal = superposition_sample(ReferenceSystem(5, 3), None, parse_superposition("*1*0*"), tick_range(200))
    want_csv = "\n".join(["tick,signal", *(f"{t},{v}" for t, v in enumerate(signal.tolist()))]) + "\n"
    payload = {"n_bits": 5, "seed": 3, "ticks": 200, "superposition": "*1*0*", "circuit": None,
               "signals": signal.tolist()}
    want_json = json.dumps(payload, indent=2) + "\n"
    monkeypatch.setattr(cli, "_TRACE_ROWS", rows)
    # Windows of 50 ticks end inside a piece of rows unless rows divides 50.
    for window in (50, 1 << 20):
        monkeypatch.setattr(cli, "_TRACE_WINDOW", window)
        for fmt, want in (("csv", want_csv), ("json", want_json)):
            out_path = tmp_path / f"trace.{fmt}"
            assert run(argv + ["--format", fmt, "--out", str(out_path)], capsys)[0] == 0
            assert out_path.read_bytes() == want.encode(), (window, fmt)


def test_a_spec_that_begins_with_a_minus_is_passed_after_an_equals_sign(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    argv = ["simulate", "--n", "3", "--seed", "5", "--ticks", "16", "--out", str(out_path)]
    assert run([*argv, "--superposition=-1*011;101"], capsys)[0] == 0
    signal = superposition_sample(ReferenceSystem(3, 5), None, parse_superposition("-1*011;101"), tick_range(16))
    assert out_path.read_text() == "".join(["tick,signal\n", *(f"{t},{v}\n" for t, v in enumerate(signal.tolist()))])
    # Without the "=" argparse reads the spec as an option.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--superposition", "-1*011;101"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err


def test_simulate_unwritable_output_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "trace.csv"
    argv = ["simulate", "--n", "2", "--ticks", "8", "--superposition", "universe", "--out", str(out_path)]
    code, _, err = run(argv, capsys)
    assert code == 2 and err.startswith("error:") and str(out_path) in err


def test_simulate_is_deterministic(tmp_path, capsys):
    args = ["simulate", "--n", "3", "--seed", "9", "--ticks", "32",
            "--superposition", "1*0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_json_format_with_circuit(circuit_file, tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    code, _, _ = run(
        ["simulate", "--n", "3", "--seed", "42", "--ticks", "8",
         "--superposition", "universe", "--circuit", circuit_file("CNOT 0 1\n"),
         "--format", "json", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["circuit"] == ["CNOT 0 1"]
    assert payload["seed"] == 42 and len(payload["signals"]) == 8
    # a pure CNOT leaves the universe trace unchanged
    base = tmp_path / "base.json"
    run(["simulate", "--n", "3", "--seed", "42", "--ticks", "8",
         "--superposition", "universe", "--format", "json", "--out", str(base)], capsys)
    assert json.loads(base.read_text())["signals"] == payload["signals"]


def test_simulate_json_writes_a_cancelled_sum_as_text_that_parses(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    argv = ["simulate", "--n", "2", "--ticks", "4", "--superposition", "1*00;-1*00",
            "--format", "json", "--out", str(out_path)]
    assert run(argv, capsys)[0] == 0
    payload = json.loads(out_path.read_text())
    assert payload["superposition"] == "0*00;" and payload["signals"] == [0] * 4
    assert parse_superposition(payload["superposition"]) == parse_superposition("1*00;-1*00")


@pytest.mark.parametrize("ticks", [1, 2, (1 << 16) + 1])
@pytest.mark.parametrize("circuit", [None, "NOT 2\nCNOT 0 1\nCNOT 2 0\n"])
def test_simulate_streams_the_bytes_of_one_json_dump(ticks, circuit, circuit_file, tmp_path, capsys):
    # 2^16 + 1 ticks are written in two chunks of values.
    argv = ["simulate", "--n", "3", "--seed", "11", "--ticks", str(ticks), "--superposition", "1*0",
            "--format", "json", "--out", str(tmp_path / "trace.json")]
    program = lines = None
    if circuit is not None:
        argv += ["--circuit", circuit_file(circuit)]
        circ = parse_circuit(circuit, n_bits=3)
        program, lines = compile_circuit(circ), circ.to_text().splitlines()
    assert run(argv, capsys)[0] == 0
    signal = superposition_sample(ReferenceSystem(3, 11), program, parse_superposition("1*0"), range(ticks))
    payload = {"n_bits": 3, "seed": 11, "ticks": ticks, "superposition": "1*0", "circuit": lines,
               "signals": signal.tolist()}
    assert (tmp_path / "trace.json").read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


def test_simulate_rejects_oversized_width(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "--n", "40", "--seed", "1", "--ticks", "4",
         "--superposition", "universe", "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 2 and "n_bits" in err


def test_simulate_rejects_bad_superposition(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "--n", "3", "--seed", "1", "--ticks", "4",
         "--superposition", "10x", "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 2 and err


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 42)])
def test_seed_flag_rejects_seeds_outside_64_bits(seed, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "2", "--seed", seed, "--ticks", "4",
              "--superposition", "universe", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "seed" in capsys.readouterr().err


def test_random_seed_flag_prints_the_drawn_seed(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, out, _ = run(
        ["simulate", "--n", "2", "--random-seed", "--ticks", "4",
         "--superposition", "universe", "--out", str(out_path)],
        capsys,
    )
    assert code == 0 and out.startswith("seed: ")
    int(out.split(":")[1])  # replayable


# -- verify / stats / conjecture ----------------------------------------------

def test_verify_figures_suite_passes(capsys):
    code, out, _ = run(["verify", "--suite", "figures", "--ticks", "128"], capsys)
    assert code == 0
    assert out.count("[ok ]") == 6


def test_verify_random_suite_passes(capsys):
    code, out, _ = run(
        ["verify", "--suite", "random", "--trials", "5", "--ticks", "128", "--seed", "3"],
        capsys,
    )
    assert code == 0 and "5 trials, 0 failures" in out


def test_stats_reports_every_estimator(capsys):
    code, out, _ = run(["stats", "--n", "2", "--ticks", "1000000"], capsys)
    assert code == 0
    assert "0 outside tolerance" in out
    assert out.count("[ok ]") == 26


def test_conjecture_scan_flags_only_cancelling_cascades(capsys):
    code, out, _ = run(
        ["conjecture", "--gates", "3", "--bits", "4", "--samples", "1000", "--seed", "0"],
        capsys,
    )
    assert code == 0  # violations are findings, not failures
    assert "3 <= M <= 6" in out
    assert "[lower bound]" in out and "[upper bound]" not in out


def test_usage_errors_exit_with_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "2"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_the_parser_is_built_once_and_parses_like_a_new_one(capsys, monkeypatch):
    # The same calls through the one cached parser and through a parser
    # built per call: the same exit codes, stdout and stderr, a usage error
    # included; --random-seed draws a new seed on every call, and a later
    # call without it prints none.
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["verify", "--suite", "random", "--trials", "3", "--ticks", "128"],
        ["verify", "--suite", "bogus"],
        ["verify", "--suite", "figures", "--ticks", "64"],
        ["stats", "--n", "2", "--ticks", "256"],
        ["verify", "--suite", "random", "--trials", "2", "--ticks", "64", "--random-seed"],
        ["verify", "--suite", "random", "--trials", "2", "--ticks", "64", "--random-seed"],
        ["verify", "--suite", "random", "--trials", "2", "--ticks", "64"],
    ]

    def outcomes() -> tuple[list, list[str]]:
        seen, seeds = [], []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            seeds += re.findall(r"^seed: (\d+)$", out, flags=re.M)
            seen.append((code, re.sub(r"^seed: \d+$", "seed: N", out, flags=re.M), err))
        return seen, seeds

    cached, cached_seeds = outcomes()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh, fresh_seeds = outcomes()
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 2, 0, 0, 0, 0, 0] and "invalid choice" in cached[1][2]
    for seeds in (cached_seeds, fresh_seeds):
        assert len(seeds) == 2 and seeds[0] != seeds[1]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rtwlogic", "verify", "--suite", "figures", "--ticks", "64"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("[ok ]") == 6

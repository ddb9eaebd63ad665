"""The mutation-check runner in `checks/mutants.py`: it passes only when
every mutant is killed, and its list stays in step with the code."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "checks" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_a_surviving_or_a_stale_mutant_fails_the_runner(tmp_path, capsys):
    # A one-function package and its test: `3 * x` fails the test, `x + x`
    # passes it, and `4 * x` replaces text that is not there.
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "mod.py").write_text("def double(x):\n    return 2 * x\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from mod import double\n\n\ndef test_double():\n    assert double(3) == 6\n"
    )
    selection = ("tests/test_mod.py",)
    killed = mutants.Mutant("killed", "src/mod.py", "2 * x", "3 * x", selection)
    surviving = mutants.Mutant("surviving", "src/mod.py", "2 * x", "x + x", selection)
    stale = mutants.Mutant("stale", "src/mod.py", "3 * x", "4 * x", selection)
    assert mutants.run([killed], tmp_path) == 0
    assert mutants.run([surviving], tmp_path) == 1
    assert mutants.run([stale], tmp_path) == 1
    out = capsys.readouterr().out
    assert "killed    killed" in out and "SURVIVED  surviving" in out and "STALE     stale" in out
    assert (tmp_path / "src" / "mod.py").read_text() == "def double(x):\n    return 2 * x\n"


def test_every_listed_mutant_matches_the_code_once():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new and all((ROOT / test.split("::")[0]).exists() for test in mutant.tests)

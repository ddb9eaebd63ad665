"""Pinned CLI stdout and random-trial circuits.

These texts are the exact output of the command line at fixed seeds; a
refactor of the report classes or the random generators must keep them
byte for byte.
"""

from rtwlogic import random_equivalence_trials
from rtwlogic.cli import main

VERIFY_FIGURES_128 = [
    "[ok ] not_gate: M=2 (expected 2), program matches, equivalence over 128 ticks exact",
    "[ok ] single_cnot: M=1 (expected 1), program matches, equivalence over 128 ticks exact",
    "[ok ] noninteracting_pair: M=2 (expected 2), program matches, equivalence over 128 ticks exact",
    "[ok ] interacting_pair: M=3 (expected 3), program matches, equivalence over 128 ticks exact",
    "[ok ] noninteracting_chain3: M=3 (expected 3), program matches, equivalence over 128 ticks exact",
    "[ok ] interacting_chain3: M=6 (expected 6), program matches, equivalence over 128 ticks exact",
]

STATS_N2_T1000 = [
    "[ok ] mean[W(0, 0)]: estimate=+0.006000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] mean[W(0, 1)]: estimate=-0.016000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] mean[W(1, 0)]: estimate=-0.004000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] mean[W(1, 1)]: estimate=-0.016000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] mean[W(0, 0)^2]: estimate=+1.000000 expected=+1.000000 tol=0.000000 n=1000",
    "[ok ] mean[W(0, 1)^2]: estimate=+1.000000 expected=+1.000000 tol=0.000000 n=1000",
    "[ok ] mean[W(1, 0)^2]: estimate=+1.000000 expected=+1.000000 tol=0.000000 n=1000",
    "[ok ] mean[W(1, 1)^2]: estimate=+1.000000 expected=+1.000000 tol=0.000000 n=1000",
    "[ok ] mean[W(0, 0)*W(0, 1)]: estimate=+0.014000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(0, 0)*W(0, 1), W(0, 0)]: estimate=-0.016000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(0, 0)*W(0, 1), W(0, 1)]: estimate=+0.006000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] mean[W(0, 0)*W(1, 0)]: estimate=+0.014000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(0, 0)*W(1, 0), W(0, 0)]: estimate=-0.004000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(0, 0)*W(1, 0), W(1, 0)]: estimate=+0.006000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] mean[W(0, 0)*W(1, 1)]: estimate=+0.034000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(0, 0)*W(1, 1), W(0, 0)]: estimate=-0.016000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(0, 0)*W(1, 1), W(1, 1)]: estimate=+0.006000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] mean[W(0, 1)*W(1, 0)]: estimate=-0.008000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(0, 1)*W(1, 0), W(0, 1)]: estimate=-0.004000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(0, 1)*W(1, 0), W(1, 0)]: estimate=-0.016000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] mean[W(0, 1)*W(1, 1)]: estimate=+0.004000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(0, 1)*W(1, 1), W(0, 1)]: estimate=-0.016000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(0, 1)*W(1, 1), W(1, 1)]: estimate=-0.016000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] mean[W(1, 0)*W(1, 1)]: estimate=+0.048000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(1, 0)*W(1, 1), W(1, 0)]: estimate=-0.016000 expected=+0.000000 tol=0.158114 n=1000",
    "[ok ] corr[W(1, 0)*W(1, 1), W(1, 1)]: estimate=-0.004000 expected=+0.000000 tol=0.158114 n=1000",
    "26 estimators over 4 wires, 0 outside tolerance",
]

CONJECTURE_L3_N4_K400 = [
    "cascades of 3 CNOT gates on 4 bits, 400 samples",
    "conjectured range: 3 <= M <= 6",
    "  M=1: 67",
    "  M=2: 25",
    "  M=3: 127",
    "  M=4: 137",
    "  M=5: 36",
    "  M=6: 8",
    "92 cascade(s) outside the conjectured range:",
    "  [lower bound] M=1: CNOT 0 2; CNOT 0 2; CNOT 3 0",
    "  [lower bound] M=1: CNOT 2 3; CNOT 2 3; CNOT 1 2",
    "  [lower bound] M=1: CNOT 0 3; CNOT 1 3; CNOT 0 3",
    "  [lower bound] M=2: CNOT 2 0; CNOT 1 2; CNOT 2 0",
    "  [lower bound] M=2: CNOT 3 1; CNOT 1 0; CNOT 3 0",
    "  [lower bound] M=1: CNOT 0 3; CNOT 1 2; CNOT 1 2",
    "  [lower bound] M=1: CNOT 3 2; CNOT 0 1; CNOT 3 2",
    "  [lower bound] M=1: CNOT 1 2; CNOT 2 1; CNOT 2 1",
    "  [lower bound] M=1: CNOT 0 2; CNOT 0 3; CNOT 0 3",
    "  [lower bound] M=1: CNOT 3 2; CNOT 0 3; CNOT 0 3",
    "  ... and 82 more",
]

CONJECTURE_L1_N2_K5 = [
    "cascades of 1 CNOT gates on 2 bits, 5 samples",
    "conjectured range: 1 <= M <= 1",
    "  M=1: 5",
    "no cascades outside the conjectured range",
]

FIRST_TRIAL_CIRCUITS = [
    "CNOT 6 0\nCNOT 7 3\nNOT 4\nNOT 5\nCNOT 3 4\nCNOT 2 6\nCNOT 4 7",
    "CNOT 0 4\nCNOT 5 1\nCNOT 1 7\nNOT 3\nCNOT 2 6\nCNOT 1 0\nNOT 7",
    "NOT 0\nCNOT 2 1\nCNOT 0 2\nNOT 0",
    "CNOT 2 0\nCNOT 0 1\nCNOT 2 0\nCNOT 2 0\nCNOT 2 0\nCNOT 0 3\nCNOT 1 0\nNOT 0",
    "CNOT 1 2\nNOT 1\nCNOT 0 1\nNOT 2\nCNOT 7 1\nCNOT 0 5\nCNOT 6 4\nCNOT 4 0\nCNOT 4 2\nCNOT 0 4",
]

# The superpositions drawn with those circuits: a change to the
# `Superposition` constructor must not reorder or alter the draws.
FIRST_TRIAL_SUPERPOSITIONS = [
    "10100100;01001100;-3*11001100;3*00010110;2*01111001;-3*10000101;2*10010101;2*10101101;-3*01111011;-1*10001111",
    "11111100;2*00010110;-2*11001001;2*10101001;-3*01011001;-1*01010101;-1*11000111",
    "010;2*110;2*001;3*101;-2*011;-2*111",
    "-2*1100;2*0101",
    "01110000;2*00101000;3*10011000;-2*01111000;-1*00010100;-3*10010100;-1*11010100;11001100;3*00101100;"
    "-2*00000010;3*01000010;2*11101010;11011010;-3*00100110;-1*00011110;-1*11100001;3*10001001;00011001;"
    "2*00110101;-3*10110101;-2*01001101;-2*11001101;2*11011101;-3*00100011;3*10010011;3*01101011;3*00011011;"
    "-1*01100111;2*11100111;11010111",
]


def stdout_of(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_verify_figures_stdout_is_pinned(capsys):
    code, out = stdout_of(["verify", "--suite", "figures", "--ticks", "128"], capsys)
    assert code == 0
    assert out == "\n".join(VERIFY_FIGURES_128) + "\n"


def test_stats_stdout_is_pinned(capsys):
    code, out = stdout_of(["stats", "--n", "2", "--ticks", "1000"], capsys)
    assert code == 0
    assert out == "\n".join(STATS_N2_T1000) + "\n"


def test_conjecture_stdout_is_pinned(capsys):
    code, out = stdout_of(["conjecture", "--gates", "3", "--bits", "4", "--samples", "400"], capsys)
    assert code == 0
    assert out == "\n".join(CONJECTURE_L3_N4_K400) + "\n"


def test_conjecture_stdout_without_violations_is_pinned(capsys):
    code, out = stdout_of(["conjecture", "--gates", "1", "--bits", "2", "--samples", "5"], capsys)
    assert code == 0
    assert out == "\n".join(CONJECTURE_L1_N2_K5) + "\n"


def test_random_trial_circuits_are_pinned():
    report = random_equivalence_trials(5, draw_seed=0)
    assert [t.circuit_text for t in report.trials] == FIRST_TRIAL_CIRCUITS


def test_random_trial_superpositions_are_pinned():
    report = random_equivalence_trials(5, draw_seed=0)
    assert [t.superposition_text for t in report.trials] == FIRST_TRIAL_SUPERPOSITIONS

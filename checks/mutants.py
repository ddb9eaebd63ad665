"""Mutation check: every listed mutant of the source must fail a test.

A mutant is a one-place edit: a file under `src/` or `tests/`, an exact
snippet of it, the text that replaces the snippet, and the pytest selection
that must catch it. For each mutant the runner copies `src/` and `tests/`
into a new temporary directory, applies the edit there, runs the selection
with `-x`, and requires pytest's exit code 1 (tests ran and one failed).
Exit code 0 is a surviving mutant, and any other code (a collection error,
say) does not count as a kill either. A snippet that does not occur exactly
once in its file is stale: the code has moved, and the entry must move with
it. The checkout itself is never written.

    python checks/mutants.py

The exit status is 0 when every mutant was killed, and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# Seconds one mutant's selection may run before it counts as not killed.
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest selection, relative to the root


MUTANTS = [
    # The hash: the finalizer's second xor-shift dropped.
    Mutant(
        "hash without its second xor-shift",
        "src/rtwlogic/rng.py",
        "    np.right_shift(x, _SHIFT_B, out=tmp)\n    x ^= tmp\n",
        "",
        ("tests/test_rng.py",),
    ),
    # Applying a program: every insertion lands on the other wire of its host bit.
    Mutant(
        "insertion on the wrong host wire",
        "src/rtwlogic/reference.py",
        "planes[ins.host_bit, ins.host_value] ^= operators[ins.target]",
        "planes[ins.host_bit, 1 - ins.host_value] ^= operators[ins.target]",
        ("tests/test_wirebank.py",),
    ),
    # Pattern evaluation: the last free bit is left out of the zero plane.
    Mutant(
        "last free bit dropped from the zero plane",
        "src/rtwlogic/reference.py",
        "np.bitwise_or.reduce(self.operators()[free_bits], axis=0)",
        "np.bitwise_or.reduce(self.operators()[free_bits[:-1]], axis=0)",
        ("tests/test_wirebank.py",),
    ),
    # Explicit evaluation: a group's table is added without its sign plane.
    Mutant(
        "group table without its sign plane",
        "src/rtwlogic/hyperspace.py",
        "            values *= bank.signs(plane)\n",
        "",
        ("tests/test_wirebank.py",),
    ),
    # Readout transform: the -1 counts minus the +1 counts.
    Mutant(
        "readout counts subtracted the wrong way round",
        "src/rtwlogic/hyperspace.py",
        "np.subtract(counts[:size], counts[size:],",
        "np.subtract(counts[size:], counts[:size],",
        ("tests/test_wirebank.py",),
    ),
    # The oracle: images of a list of strings lose the map's constant.
    Mutant(
        "apply_all without const",
        "src/rtwlogic/compiler.py",
        "            image = self.const\n",
        "            image = 0\n",
        ("tests/test_compiler.py",),
    ),
    # The compiler: hosts on the value-1 wire where the value-0 wire is due, and back.
    Mutant(
        "compiler with the constant's host values swapped",
        "src/rtwlogic/compiler.py",
        "value = row ^ 1 << t, 1 - (affine.const >> t & 1)",
        "value = row ^ 1 << t, affine.const >> t & 1",
        ("tests/test_compiler.py",),
    ),
    # The compiler: a constant-only flip gets one insertion, not the pair.
    Mutant(
        "NOT compiled to one insertion",
        "src/rtwlogic/compiler.py",
        "insertions += (Insertion(t, 0, t), Insertion(t, 1, t))",
        "insertions += (Insertion(t, 0, t),)",
        ("tests/test_compiler.py",),
    ),
    # The plane proof: the empty string is left out of the generators.
    Mutant(
        "generators without the empty string",
        "src/rtwlogic/verify.py",
        "generators = [0, *(1 << j for j in range(amap.n_bits))]",
        "generators = [*(1 << j for j in range(amap.n_bits))]",
        ("tests/test_verify.py",),
    ),
    # The plane proof: the top bit's unit string is left out of the generators.
    Mutant(
        "generators without the top bit",
        "src/rtwlogic/verify.py",
        "generators = [0, *(1 << j for j in range(amap.n_bits))]",
        "generators = [0, *(1 << j for j in range(amap.n_bits - 1))]",
        ("tests/test_verify.py",),
    ),
    # The plane proof: the last slice of term rows is never compared.
    Mutant(
        "last slice of term rows skipped",
        "src/rtwlogic/verify.py",
        "for lo in range(0, len(strings), rows):",
        "for lo in range(0, len(strings) - rows, rows):",
        ("tests/test_verify.py",),
    ),
    # The plane proof: every term row is credited to the next case.
    Mutant(
        "term owners shifted by one",
        "src/rtwlogic/verify.py",
        "owners += [i] * len(generators)",
        "owners += [i + 1] * len(generators)",
        ("tests/test_verify.py",),
    ),
    # The gather: every row reads the first bank.
    Mutant(
        "gather ignoring owners",
        "src/rtwlogic/reference.py",
        "    out = table[owners, 0, select[:, 0]]\n",
        "    owners = 0\n    out = table[owners, 0, select[:, 0]]\n",
        ("tests/test_wirebank.py::test_strings_of_many_banks_are_gathered_like_each_alone",),
    ),
    # The fold across chunks: the last chunk's mismatch is kept, not the first.
    Mutant(
        "last mismatch kept across chunks",
        "src/rtwlogic/verify.py",
        "next(filter(None, column), None)",
        "next(filter(None, reversed(column)), None)",
        ("tests/test_verify.py",),
    ),
    # The canonical suite: every program matches its expectation.
    Mutant(
        "program_ok always true",
        "src/rtwlogic/verify.py",
        "        return self.program.insertions == self.expected\n",
        "        return True\n",
        ("tests/test_verify.py",),
    ),
    # The window driver: each chunk draws one word more than its step.
    Mutant(
        "overlapping chunks",
        "src/rtwlogic/reference.py",
        "WireBank.draw(system, window[lo : lo + step])",
        "WireBank.draw(system, window[lo : lo + step + 64])",
        ("tests/test_rng.py",),
    ),
    # The window driver: a threaded window's results come back newest first.
    Mutant(
        "threaded results out of order",
        "src/rtwlogic/reference.py",
        "results.append(pending.popleft().result())",
        "results.append(pending.pop().result())",
        ("tests/test_rng.py",),
    ),
    # The plane proof: a term pair that differs never disproves its case.
    Mutant(
        "planes never disprove a term case",
        "src/rtwlogic/verify.py",
        "            equal[i] = False\n",
        "            pass\n",
        ("tests/test_verify.py",),
    ),
    # The CLI: a failed check exits 0.
    Mutant(
        "failed verify exits 0",
        "src/rtwlogic/cli.py",
        "    print(\"\\n\".join(report.lines()))\n    return 0 if report.passed else CHECK_FAILURE\n\n\ndef cmd_stats",
        "    print(\"\\n\".join(report.lines()))\n    return 0\n\n\ndef cmd_stats",
        ("tests/test_cli.py",),
    ),
    # Gates: a CNOT whose control is its target is accepted.
    Mutant(
        "self-controlled CNOT accepted",
        "src/rtwlogic/compiler.py",
        "type(control) is int and 0 <= control != target",
        "type(control) is int and 0 <= control",
        ("tests/test_compiler.py",),
    ),
    # Insertion programs: a host value of 2 passes the one-pass check.
    Mutant(
        "host value 2 accepted",
        "src/rtwlogic/compiler.py",
        "0 <= ins.host_value < 2 and",
        "0 <= ins.host_value < 3 and",
        ("tests/test_compiler.py",),
    ),
    # Superposition: a string of n_bits + 1 bits passes the one-pass check.
    Mutant(
        "explicit string one bit too wide accepted",
        "src/rtwlogic/hyperspace.py",
        "max(strings, default=0) >> self.n_bits",
        "max(strings, default=0) >> (self.n_bits + 1)",
        ("tests/test_hyperspace.py",),
    ),
    # Superposition: the coefficient budget is doubled.
    Mutant(
        "coefficient budget doubled",
        "src/rtwlogic/hyperspace.py",
        "sum(map(abs, coeffs)) > _MAX_ABS_COEFF_SUM",
        "sum(map(abs, coeffs)) > 2 * _MAX_ABS_COEFF_SUM",
        ("tests/test_hyperspace.py",),
    ),
    # Patterns: an offset that sets a free bit is accepted.
    Mutant(
        "pattern offset on a free bit accepted",
        "src/rtwlogic/hyperspace.py",
        "        if self.offset & self.free:\n",
        "        if False:\n",
        ("tests/test_hyperspace.py",),
    ),
    # Patterns: a string's coefficient ignores which bits are free.
    Mutant(
        "pattern coefficient without the free mask",
        "src/rtwlogic/hyperspace.py",
        "int(not (int(string) ^ self.offset) & ~self.free)",
        "int(not (int(string) ^ self.offset))",
        ("tests/test_hyperspace.py",),
    ),
    # The oracle: a pattern's image keeps the free bits of f(offset) in its offset.
    Mutant(
        "pattern image offset without its free bits cleared",
        "src/rtwlogic/hyperspace.py",
        "offset=affine.apply(y.offset) & ~spread,",
        "offset=affine.apply(y.offset),",
        ("tests/test_hyperspace.py",),
    ),
    # The oracle: a pattern under a singular map is mapped as a pattern.
    Mutant(
        "pattern rule without its invertibility test",
        "src/rtwlogic/hyperspace.py",
        " and affine.is_invertible():",
        ":",
        ("tests/test_hyperspace.py",),
    ),
    # Patterns: expansion skips the lowest bit.
    Mutant(
        "expand skips bit 0",
        "src/rtwlogic/hyperspace.py",
        "        for bit in range(self.n_bits):\n            if self.free >> bit & 1:",
        "        for bit in range(1, self.n_bits):\n            if self.free >> bit & 1:",
        ("tests/test_hyperspace.py",),
    ),
    # The hash: a range window's counter ignores the tile's position.
    Mutant(
        "range tile without its counter offset",
        "src/rtwlogic/rng.py",
        "firsts[r0:r1] + np.uint64(_GOLDEN * lo & _MASK64)",
        "firsts[r0:r1]",
        ("tests/test_rng.py",),
    ),
    # NOT operators: the OR of a bit's two wires, not their product.
    Mutant(
        "NOT operator as an OR",
        "src/rtwlogic/reference.py",
        "return self.planes[:, 0] ^ self.planes[:, 1]",
        "return self.planes[:, 0] | self.planes[:, 1]",
        ("tests/test_wirebank.py",),
    ),
    # The fold across chunks: a mismatch's tick loses its chunk's start.
    Mutant(
        "mismatch tick without the chunk start",
        "src/rtwlogic/verify.py",
        "(lo + mismatch[0], *mismatch[1:])",
        "(mismatch[0], *mismatch[1:])",
        ("tests/test_verify.py",),
    ),
    # Circuit text: an index with a sign is read as a number.
    Mutant(
        "signed gate index accepted",
        "src/rtwlogic/compiler.py",
        "    return int(token, 10)\n",
        "    return abs(int(token, 10))\n",
        ("tests/test_compiler.py",),
    ),
    # Superposition: repeated strings are kept, not merged.
    Mutant(
        "no merge of repeated strings",
        "src/rtwlogic/hyperspace.py",
        "merged[s] = merged.get(s, 0) + c",
        "merged[s] = c",
        ("tests/test_hyperspace.py",),
    ),
    # Pattern signals: the ticks where a free bit's wires differ keep +-2^k.
    Mutant(
        "pattern zero ticks not cleared",
        "src/rtwlogic/hyperspace.py",
        "        samples *= 1 - bank.bits(zero).view(np.int8)\n",
        "",
        ("tests/test_hyperspace.py",),
    ),
    # Pattern signals: a pattern of k free bits reads +-2^(k-1).
    Mutant(
        "pattern magnitude halved",
        "src/rtwlogic/hyperspace.py",
        "np.int64(1 << y.free.bit_count())",
        "np.int64(1 << y.free.bit_count() >> 1)",
        ("tests/test_hyperspace.py",),
    ),
    # Affine maps: a row that reduces to zero is skipped, not refused.
    Mutant(
        "rank check accepting a dependent row",
        "src/rtwlogic/compiler.py",
        "            if not row:\n                return False\n",
        "            if not row:\n                continue\n",
        ("tests/test_compiler.py",),
    ),
    # Superposition text: a coefficient of other scripts' digits is read.
    Mutant(
        "coefficient digits beyond ASCII",
        "src/rtwlogic/hyperspace.py",
        "[+-]?[0-9]+",
        "[+-]?\\d+",
        ("tests/test_hyperspace.py",),
    ),
]


def run(mutants, root: Path = ROOT) -> int:
    """Check each mutant in a copy of `root`'s `src/` and `tests/`; print
    one line per mutant and return 0 if every one was killed, else 1."""
    failed = 0
    for mutant in mutants:
        text = (root / mutant.path).read_text()
        count = text.count(mutant.old)
        if count != 1:
            print(f"STALE     {mutant.name}: the snippet occurs {count} times in {mutant.path}", flush=True)
            failed += 1
            continue
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="rtwlogic-mutant-") as tmp:
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
            for part in ("src", "tests"):
                shutil.copytree(root / part, Path(tmp, part), ignore=ignore)
            Path(tmp, mutant.path).write_text(text.replace(mutant.old, mutant.new))
            env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")), "PYTHONDONTWRITEBYTECODE": "1"}
            argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
            try:
                code = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT).returncode
            except subprocess.TimeoutExpired:
                code = None
        verdict = {1: "killed", 0: "SURVIVED", None: f"TIMEOUT after {TIMEOUT} s"}.get(code, f"ERROR (exit {code})")
        print(f"{verdict:9} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
        failed += code != 1
    print(f"{len(mutants)} mutants, {failed} not killed")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(run(MUTANTS))

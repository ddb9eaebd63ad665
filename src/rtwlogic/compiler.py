"""NOT/CNOT cascades, their exact affine semantics over GF(2), and the
compilation into NOT-operator insertions on reference wires.

A cascade of NOT/CNOT gates acts on N-bit strings as an invertible affine
map s -> L*s xor c over GF(2). The compiler turns that map into a canonical
set of insertions: each insertion multiplies one reference wire by the NOT
operator of a target bit, and the parity of inserted operators seen by a
product string reproduces the map's flip pattern exactly, tick by tick.

Bit strings are plain Python ints with bit i = (s >> i) & 1; matrix rows are
int bitmasks over the input bits.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from math import inf
from typing import Iterable, NamedTuple

import numpy as np


def _check_int(value, name: str, start=-inf, stop=inf) -> None:
    """Accept an int or NumPy integer in [start, stop); reject everything
    else, bool included."""
    if type(value) is not int and not isinstance(value, np.integer):  # a bool's type is not int
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not start <= value < stop:
        raise ValueError(f"{name} {value} out of range [{start}, {stop})")


@dataclass(frozen=True)
class Gate:
    """A NOT of `target`, or a CNOT when it has a `control`."""

    target: int
    control: int | None = None

    def __post_init__(self) -> None:
        target, control = self.target, self.control
        if type(target) is int and target >= 0 and (control is None or type(control) is int and 0 <= control != target):
            return
        _check_int(target, "target", 0)  # names the bad index; NumPy integers pass here
        if control is not None:
            _check_int(control, "control", 0)
            if control == target:
                raise ValueError(f"CNOT control equals target ({target})")

    def to_text(self) -> str:
        if self.control is None:
            return f"NOT {self.target}"
        return f"CNOT {self.control} {self.target}"


def not_gate(target: int) -> Gate:
    return Gate(target)


def cnot(control: int, target: int) -> Gate:
    return Gate(target, control)


@dataclass(frozen=True)
class GateCircuit:
    """An ordered cascade of gates; the first listed gate is applied first."""

    n_bits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        _check_int(self.n_bits, "n_bits", 1)
        for g in self.gates:
            top = g.target if g.control is None else max(g.target, g.control)
            if top >= self.n_bits:
                raise ValueError(f"gate {g.to_text()!r} out of range for n_bits={self.n_bits}")

    def apply(self, string: int) -> int:
        """Step-by-step bit-level simulation of one input string."""
        s = string
        for g in self.gates:
            if g.control is None or (s >> g.control) & 1:
                s ^= 1 << g.target
        return s

    @property
    def is_pure_cnot(self) -> bool:
        return all(g.control is not None for g in self.gates)

    def to_text(self) -> str:
        return "\n".join(g.to_text() for g in self.gates)


class CircuitParseError(ValueError):
    """Unusable circuit text; carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


def parse_circuit(text: str, n_bits: int | None = None) -> GateCircuit:
    """Parse circuit text: one `NOT <t>` or `CNOT <c> <t>` per line.

    `#` starts a comment, blank lines are ignored. Unless `n_bits` overrides
    it, the bit count is 1 + the highest index used (1 for an empty circuit).
    """
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0].upper()
        try:
            if kind == "NOT":
                if len(fields) != 2:
                    raise ValueError(f"NOT takes one index, got {len(fields) - 1}")
                gates.append(not_gate(_parse_index(fields[1])))
            elif kind == "CNOT":
                if len(fields) != 3:
                    raise ValueError(f"CNOT takes two indices, got {len(fields) - 1}")
                gates.append(cnot(_parse_index(fields[1]), _parse_index(fields[2])))
            else:
                raise ValueError(f"unknown gate {fields[0]!r}")
        except ValueError as exc:
            raise CircuitParseError(str(exc), lineno) from None
    highest = max((g.target if g.control is None else max(g.target, g.control) for g in gates), default=0)
    inferred = highest + 1
    if n_bits is None:
        n_bits = inferred
    elif n_bits < inferred:
        raise CircuitParseError(f"n_bits={n_bits} too small for circuit using bit {highest}")
    return GateCircuit(n_bits, tuple(gates))


def _parse_index(token: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ValueError(f"bad index {token!r}") from None


@dataclass(frozen=True)
class AffineMapGF2:
    """The map s -> L*s xor c over GF(2); `rows[t]` is the bitmask of input
    bits feeding output bit t, `const` the bitmask of flipped outputs."""

    n_bits: int
    rows: tuple[int, ...]
    const: int = 0

    def __post_init__(self) -> None:
        if len(self.rows) != self.n_bits:
            raise ValueError(f"expected {self.n_bits} rows, got {len(self.rows)}")
        full = (1 << self.n_bits) - 1
        if any(r & ~full for r in self.rows) or self.const & ~full:
            raise ValueError("row or const mask exceeds n_bits")

    @classmethod
    def identity(cls, n_bits: int) -> "AffineMapGF2":
        return cls(n_bits, tuple(1 << t for t in range(n_bits)))

    def apply(self, string: int) -> int:
        out = self.const
        for t, row in enumerate(self.rows):
            if (row & string).bit_count() & 1:
                out ^= 1 << t
        return out

    def apply_all(self, strings) -> list[int]:
        """Images of Python-int strings: `const` XOR the column of every set
        input bit, O(popcount) per string; `apply` maps one string faster."""
        columns = [0] * self.n_bits  # columns[i]: the output bits that input bit i feeds
        for t, row in enumerate(self.rows):
            while row:
                low = row & -row
                columns[low.bit_length() - 1] |= 1 << t
                row ^= low
        out = []
        for s in strings:
            image = self.const
            while s:
                low = s & -s
                image ^= columns[low.bit_length() - 1]
                s ^= low
            out.append(image)
        return out

    def then(self, other: "AffineMapGF2") -> "AffineMapGF2":
        """The composite map: apply `self` first, then `other`."""
        if other.n_bits != self.n_bits:
            raise ValueError("n_bits mismatch in composition")
        rows = []
        for t in range(self.n_bits):
            acc = 0
            r = other.rows[t]
            while r:
                k = (r & -r).bit_length() - 1
                acc ^= self.rows[k]
                r &= r - 1
            rows.append(acc)
        return AffineMapGF2(self.n_bits, tuple(rows), other.apply(self.const))

    def _row_reduce(self) -> tuple[int, ...] | None:
        # Gauss-Jordan on (rows | I); returns inverse rows or None.
        work = list(self.rows)
        aug = [1 << t for t in range(self.n_bits)]
        for col in range(self.n_bits):
            pivot = None
            for r in range(col, self.n_bits):
                if (work[r] >> col) & 1:
                    pivot = r
                    break
            if pivot is None:
                return None
            work[col], work[pivot] = work[pivot], work[col]
            aug[col], aug[pivot] = aug[pivot], aug[col]
            for r in range(self.n_bits):
                if r != col and (work[r] >> col) & 1:
                    work[r] ^= work[col]
                    aug[r] ^= aug[col]
        return tuple(aug)

    def is_invertible(self) -> bool:
        return self._row_reduce() is not None

    def inverse(self) -> "AffineMapGF2":
        inv_rows = self._row_reduce()
        if inv_rows is None:
            raise ValueError("map is not invertible over GF(2)")
        linear = AffineMapGF2(self.n_bits, inv_rows)
        return AffineMapGF2(self.n_bits, inv_rows, linear.apply(self.const))


def circuit_to_affine(circ: GateCircuit) -> AffineMapGF2:
    """Exact affine semantics of a cascade, gates composed first-listed-first."""
    rows = [1 << t for t in range(circ.n_bits)]
    const = 0
    for g in circ.gates:
        if g.control is None:
            const ^= 1 << g.target
        else:
            rows[g.target] ^= rows[g.control]
            if (const >> g.control) & 1:
                const ^= 1 << g.target
    return AffineMapGF2(circ.n_bits, tuple(rows), const)


class Insertion(NamedTuple):
    """One NOT operator of `target` placed multiplicatively on the reference
    wire (host_bit, host_value)."""

    host_bit: int
    host_value: int
    target: int

    def to_dict(self) -> dict:
        return {"host_bit": self.host_bit, "host_value": self.host_value, "target": self.target}


@dataclass(frozen=True)
class InsertionProgram:
    """Canonical set of insertions; duplicate placements cancel pairwise."""

    n_bits: int
    insertions: frozenset[Insertion] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "insertions", frozenset(self.insertions))
        _check_int(self.n_bits, "n_bits", 1)
        n, insertions = self.n_bits, self.insertions
        if {type(v) for ins in insertions for v in ins} <= {int} and all(
            0 <= ins.host_bit < n and 0 <= ins.host_value < 2 and 0 <= ins.target < n for ins in insertions
        ):
            return
        for ins in self.insertions:  # names the first bad value; NumPy integers pass here
            _check_int(ins.host_bit, "host_bit", 0, self.n_bits)
            _check_int(ins.host_value, "host_value", 0, 2)
            _check_int(ins.target, "target", 0, self.n_bits)

    @classmethod
    def from_pairs(cls, n_bits: int, pairs: Iterable[tuple[int, int, int]]) -> "InsertionProgram":
        """Build a program, cancelling placements that occur an even number
        of times (two identical NOT factors multiply to 1 on every tick)."""
        counts = Counter(Insertion(*p) for p in pairs)
        return cls(n_bits, frozenset(ins for ins, k in counts.items() if k & 1))

    @property
    def m(self) -> int:
        """Hardware element count: the number of inserted NOT operators."""
        return len(self.insertions)

    def sorted_insertions(self) -> list[Insertion]:
        return sorted(self.insertions)

    def to_dict(self) -> dict:
        return {
            "n_bits": self.n_bits,
            "insertions": [i.to_dict() for i in self.sorted_insertions()],
            "M": self.m,
        }


def compile_to_insertions(affine: AffineMapGF2) -> InsertionProgram:
    """Compile an invertible affine map into its canonical insertion program.

    For each output bit t the flip condition is f_t(b) = (row_t xor e_t).b
    xor c_t. With S the support of the linear part: c_t = 0 hosts the target
    on wire (i, 1) for every i in S; c_t = 1 moves the smallest host to its
    value-0 wire (or, when S is empty, hosts on both wires of bit t). The
    parity of NOT factors picked up by any product string then equals f_t.
    """
    if not affine.is_invertible():
        raise ValueError("cannot compile a non-invertible map")
    insertions = []
    for t, row in enumerate(affine.rows):
        mask, value = row ^ 1 << t, 1 - (affine.const >> t & 1)
        if not mask and not value:
            insertions += (Insertion(t, 0, t), Insertion(t, 1, t))
        while mask:
            low = mask & -mask
            insertions.append(Insertion(low.bit_length() - 1, value, t))
            mask, value = mask ^ low, 1
    return InsertionProgram(affine.n_bits, frozenset(insertions))  # each occurs once, so none cancel


def compile_circuit(circ: GateCircuit) -> InsertionProgram:
    return compile_to_insertions(circuit_to_affine(circ))


def affine_of_program(prog: InsertionProgram) -> AffineMapGF2:
    """Recover the affine map an insertion program realizes.

    Every host of target t contributes its bit to the linear flip mask
    (value-0 hosts select on the complement, adding 1 to the constant), so
    the map is a function of the canonical insertion set alone.
    """
    rows = [1 << t for t in range(prog.n_bits)]
    const = 0
    for ins in prog.insertions:
        rows[ins.target] ^= 1 << ins.host_bit
        if ins.host_value == 0:
            const ^= 1 << ins.target
    return AffineMapGF2(prog.n_bits, tuple(rows), const)


def noninteracting_chain(length: int) -> GateCircuit:
    """Chained CNOTs applied top-down so no gate writes a later control:
    [CNOT L-1 L, CNOT L-2 L-1, ..., CNOT 0 1] over length+1 bits."""
    _check_int(length, "chain length", 1)
    return GateCircuit(length + 1, tuple(cnot(i, i + 1) for i in reversed(range(length))))


def interacting_chain(length: int) -> GateCircuit:
    """Chained CNOTs applied bottom-up so each gate feeds the next control:
    [CNOT 0 1, CNOT 1 2, ..., CNOT L-1 L] over length+1 bits."""
    _check_int(length, "chain length", 1)
    return GateCircuit(length + 1, tuple(cnot(i, i + 1) for i in range(length)))


def random_cascade(rng: random.Random, n_bits: int, n_gates: int, not_rate: float) -> GateCircuit:
    """Random NOT/CNOT cascade: each gate is a NOT with probability
    `not_rate`, else a uniform CNOT. No coin is drawn where the rate is 0 or
    a single bit allows only NOTs."""
    gates = []
    for _ in range(n_gates):
        if n_bits >= 2 and (not not_rate or rng.random() < 1.0 - not_rate):
            c, t = rng.sample(range(n_bits), 2)
            gates.append(cnot(c, t))
        else:
            gates.append(not_gate(rng.randrange(n_bits)))
    return GateCircuit(n_bits, tuple(gates))


@dataclass(frozen=True)
class ScanViolation:
    """A sampled cascade whose hardware count fell outside the scan bounds."""

    circuit_text: str
    m: int
    bound: str  # "lower" or "upper"

    def to_dict(self) -> dict:
        return {"circuit": self.circuit_text.splitlines(), "M": self.m, "bound": self.bound}


@dataclass
class ConjectureScanReport:
    """Hardware counts of random CNOT cascades against L <= M <= L(L+1)/2."""

    n_gates: int
    n_bits: int
    samples: int
    seed: int
    histogram: dict[int, int] = field(default_factory=dict)
    violations: list[ScanViolation] = field(default_factory=list)

    @property
    def min_m(self) -> int:
        return min(self.histogram)

    @property
    def max_m(self) -> int:
        return max(self.histogram)

    @property
    def lower_bound(self) -> int:
        return self.n_gates

    @property
    def upper_bound(self) -> int:
        return self.n_gates * (self.n_gates + 1) // 2

    def to_dict(self) -> dict:
        return {
            "n_gates": self.n_gates,
            "n_bits": self.n_bits,
            "samples": self.samples,
            "seed": self.seed,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "min_M": self.min_m,
            "max_M": self.max_m,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "violations": [v.to_dict() for v in self.violations],
        }

    def lines(self) -> list[str]:
        """The histogram, then the first ten violations."""
        out = [
            f"cascades of {self.n_gates} CNOT gates on {self.n_bits} bits, {self.samples} samples",
            f"conjectured range: {self.lower_bound} <= M <= {self.upper_bound}",
        ]
        out.extend(f"  M={m}: {self.histogram[m]}" for m in sorted(self.histogram))
        if not self.violations:
            return out + ["no cascades outside the conjectured range"]
        out.append(f"{len(self.violations)} cascade(s) outside the conjectured range:")
        for v in self.violations[:10]:
            gates = "; ".join(v.circuit_text.splitlines())
            out.append(f"  [{v.bound} bound] M={v.m}: {gates}")
        if len(self.violations) > 10:
            out.append(f"  ... and {len(self.violations) - 10} more")
        return out


def conjecture_scan(n_gates: int, n_bits: int, samples: int, seed: int = 0) -> ConjectureScanReport:
    """Compile random CNOT cascades and flag every bound violation verbatim.

    Violations are findings, not failures: cascades with cancelling gate
    pairs legitimately compile below the lower bound.
    """
    _check_int(n_gates, "n_gates", 1)
    _check_int(n_bits, "n_bits", 2)  # a CNOT needs two bits
    _check_int(samples, "samples", 1)
    rng = random.Random(seed)
    report = ConjectureScanReport(n_gates, n_bits, samples, seed)
    for _ in range(samples):
        circ = random_cascade(rng, n_bits, n_gates, not_rate=0.0)
        m = compile_circuit(circ).m
        report.histogram[m] = report.histogram.get(m, 0) + 1
        if m < report.lower_bound:
            report.violations.append(ScanViolation(circ.to_text(), m, "lower"))
        elif m > report.upper_bound:
            report.violations.append(ScanViolation(circ.to_text(), m, "upper"))
    return report

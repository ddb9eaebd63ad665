"""The packed wire bank against a slow int8 reference.

The reference builds every effective wire from per-wire `coin_flips`
samples, multiplies inserted NOT operators in as int8 products, and sums
expanded product strings tick by tick. The bank must match it exactly on
any window: lengths that are not a multiple of 8, shuffled and strided tick
arrays, and scalar ticks.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwlogic import verify
from rtwlogic.compiler import (
    GateCircuit,
    InsertionProgram,
    circuit_to_affine,
    cnot,
    compile_circuit,
    not_gate,
)
from rtwlogic.hyperspace import (
    Superposition,
    membership_estimate,
    oracle_apply,
    product_string_sample,
    superposition_sample,
    zero_fraction,
)
from rtwlogic.reference import ReferenceSystem, orthogonality_report, tick_range
from rtwlogic.rng import coin_flips, stream_key
from rtwlogic.verify import compare_signals, signal_equivalence_check, universe_invariance_check


def reference_wires(system: ReferenceSystem, prog: InsertionProgram | None, ticks: np.ndarray) -> np.ndarray:
    """Effective wires as int8, shape (n_bits, 2, T), from int8 products."""
    raw = np.array(
        [
            [coin_flips(stream_key(system.seed, 2 * bit + value), ticks) for value in (0, 1)]
            for bit in range(system.n_bits)
        ]
    )
    wires = raw.copy()
    for ins in prog.insertions if prog is not None else ():
        wires[ins.host_bit, ins.host_value] *= raw[ins.target, 0] * raw[ins.target, 1]
    return wires


def reference_string(wires: np.ndarray, string: int) -> np.ndarray:
    out = np.ones(wires.shape[-1], dtype=np.int8)
    for bit in range(wires.shape[0]):
        out *= wires[bit, (string >> bit) & 1]
    return out


def reference_signal(system, prog, y: Superposition, ticks: np.ndarray) -> np.ndarray:
    """Sum over the expanded strings, never the factorized pattern form."""
    wires = reference_wires(system, prog, ticks)
    signal = np.zeros(ticks.size, dtype=np.int64)
    for s, c in y.expand().terms:
        signal += c * reference_string(wires, s).astype(np.int64)
    return signal


@st.composite
def circuits(draw, n_bits):
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        if n_bits >= 2 and draw(st.booleans()):
            control, target = draw(st.permutations(range(n_bits)))[:2]
            gates.append(cnot(control, target))
        else:
            gates.append(not_gate(draw(st.integers(0, n_bits - 1))))
    return GateCircuit(n_bits, tuple(gates))


@st.composite
def superpositions(draw, n_bits):
    if draw(st.booleans()):
        allowed = draw(st.lists(st.sampled_from([(0,), (1,), (0, 1)]), min_size=n_bits, max_size=n_bits))
        return Superposition.pattern(allowed)
    terms = draw(
        st.dictionaries(
            st.integers(0, (1 << n_bits) - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=6
        )
    )
    return Superposition.explicit(n_bits, terms)


@st.composite
def windows(draw):
    """Contiguous, shuffled or strided uint64 tick arrays, or one scalar tick."""
    start = draw(st.integers(0, 2**40))
    length = draw(st.integers(1, 150))
    kind = draw(st.sampled_from(["range", "shuffled", "strided", "scalar"]))
    if kind == "scalar":
        return start
    if kind == "strided":
        return np.arange(start, start + 3 * length, dtype=np.uint64)[::3]
    ticks = np.arange(start, start + length, dtype=np.uint64)
    if kind == "shuffled":
        ticks = ticks[np.random.default_rng(draw(st.integers(0, 2**32))).permutation(length)]
    return ticks


@st.composite
def cases(draw):
    n_bits = draw(st.integers(1, 5))
    return (
        ReferenceSystem(n_bits, draw(st.integers(0, 2**64 - 1))),
        draw(circuits(n_bits)),
        draw(superpositions(n_bits)),
        draw(st.integers(0, (1 << n_bits) - 1)),
        draw(windows()),
    )


@settings(max_examples=150, deadline=None)
@given(cases())
def test_bank_matches_the_int8_reference(case):
    system, circuit, y, string, ticks = case
    prog = compile_circuit(circuit)
    window = np.atleast_1d(np.asarray(ticks, dtype=np.uint64))
    wires = reference_wires(system, prog, window)
    signal = superposition_sample(system, prog, y, ticks)
    string_signal = product_string_sample(system, prog, string, ticks)
    if np.isscalar(ticks):
        assert type(signal) is int and type(string_signal) is int
        signal, string_signal = np.array([signal]), np.array([string_signal])
    assert np.array_equal(signal, reference_signal(system, prog, y, window))
    assert np.array_equal(string_signal, reference_string(wires, string))
    assert np.array_equal(system.wire_table(prog, window), wires)
    assert np.array_equal(system.wire_table(prog, window)[0, 1], wires[0, 1])


@pytest.mark.parametrize("ticks", [1, 7, 8, 513, 4096])
def test_readouts_equal_the_int64_computation(ticks):
    system = ReferenceSystem(6, 1234)
    prog = compile_circuit(GateCircuit(6, (cnot(0, 3), not_gate(2), cnot(3, 5), cnot(5, 1))))
    window = tick_range(ticks)
    explicit = Superposition.explicit(6, {0b000101: 3, 0b110010: -2, 0b011111: 1, 0b100000: 2})
    pattern = Superposition.pattern([(0, 1), (1,), (0, 1), (0,), (0, 1), (0, 1)])
    probes = ((explicit, 0b000101), (explicit, 0b111111), (pattern, 0b010110), (pattern, 0b000001))
    for program, (y, probe) in itertools.product((prog, None), probes):
        signal = superposition_sample(system, program, y, window)
        probe_signal = product_string_sample(system, None, probe, window)
        estimate = membership_estimate(system, program, y, probe, ticks).entries[0].estimate
        assert estimate.hex() == float(np.mean(signal * probe_signal)).hex()
    signal = superposition_sample(system, None, pattern, window)
    fraction = zero_fraction(system, pattern, ticks).entries[0].estimate
    assert fraction == float(np.count_nonzero(signal == 0)) / ticks
    small = ReferenceSystem(3, 1234)
    samples = {(bit, value): small.sample(bit, value, window) for bit in range(3) for value in (0, 1)}
    products = {}
    for w, s in samples.items():
        products[f"mean[W{w}]"] = s
        products[f"mean[W{w}^2]"] = s * s
    for (wa, sa), (wb, sb) in itertools.combinations(samples.items(), 2):
        products[f"mean[W{wa}*W{wb}]"] = sa * sb
        products[f"corr[W{wa}*W{wb}, W{wa}]"] = sa * sb * sa
        products[f"corr[W{wa}*W{wb}, W{wb}]"] = sa * sb * sb
    report = orthogonality_report(small, ticks)
    assert {e.name: e.estimate.hex() for e in report.entries} == {
        name: float(np.mean(p)).hex() for name, p in products.items()
    }


# CNOT 0 1 then CNOT 1 0 compiles to three insertions; without any one of
# them the program's map is singular, so it no longer permutes the universe.
CROSSED = GateCircuit(4, (cnot(0, 1), cnot(1, 0)))


@pytest.mark.parametrize("dropped", sorted(compile_circuit(CROSSED).insertions))
def test_checks_fail_where_the_reference_does_when_an_insertion_is_dropped(dropped, monkeypatch):
    n_bits, ticks, circuit = 4, 256, CROSSED
    system = ReferenceSystem(n_bits, 42)
    broken = InsertionProgram(n_bits, compile_circuit(circuit).insertions - {dropped})
    monkeypatch.setattr(verify, "compile_to_insertions", lambda amap: broken)
    window = tick_range(ticks)
    universe = Superposition.universe(n_bits)
    everything = universe.expand()

    want = compare_signals(
        reference_signal(system, broken, universe, window), reference_signal(system, None, universe, window)
    )
    got = universe_invariance_check(system, circuit, ticks)
    assert not want.passed and not got.passed
    assert got.first_mismatch == want.first_mismatch

    mapped = oracle_apply(circuit_to_affine(circuit), everything)
    want = compare_signals(
        reference_signal(system, broken, everything, window), reference_signal(system, None, mapped, window)
    )
    got = signal_equivalence_check(system, circuit, everything, ticks)
    assert not want.passed and not got.passed
    assert got.first_mismatch == want.first_mismatch

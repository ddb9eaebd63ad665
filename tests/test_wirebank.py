"""The packed wire bank against a slow int8 reference.

The reference builds every effective wire from per-wire `coin_flips`
samples, multiplies inserted NOT operators in as int8 products, and sums
expanded product strings tick by tick. The bank must match it exactly on
any window: empty ones, lengths that are not a multiple of 8, shuffled and
strided tick arrays, and scalar ticks. Explicit sums are checked up to 32 bits, and the
spectral evaluator at every kind of split of the strings.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwlogic import hyperspace, verify
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
from rtwlogic.reference import MAX_BITS, ReferenceSystem, WireBank, orthogonality_report, tick_range
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
    # The reference expands a pattern into its strings, so patterns stay small.
    if n_bits <= 5 and draw(st.booleans()):
        allowed = draw(st.lists(st.sampled_from([(0,), (1,), (0, 1)]), min_size=n_bits, max_size=n_bits))
        return Superposition.pattern(allowed)
    return draw(explicit_sums(n_bits, max_terms=6))


@st.composite
def explicit_sums(draw, n_bits, max_terms):
    """Sparse explicit sums; some share a few high parts, so that groups of
    the spectral split hold several terms."""
    strings = st.integers(0, (1 << n_bits) - 1)
    if n_bits > 4 and draw(st.booleans()):
        shift = draw(st.integers(1, n_bits - 1))
        highs = draw(st.lists(st.integers(0, (1 << (n_bits - shift)) - 1), min_size=1, max_size=3))
        strings = st.builds(lambda h, low: h << shift | low, st.sampled_from(highs), st.integers(0, (1 << shift) - 1))
    terms = draw(st.dictionaries(strings, st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=max_terms))
    return Superposition.explicit(n_bits, terms)


@st.composite
def windows(draw):
    """Contiguous, shuffled or strided uint64 tick arrays, empty ones
    included, or one scalar tick."""
    start = draw(st.integers(0, 2**40))
    length = draw(st.integers(0, 150))
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
    n_bits = draw(st.one_of(st.integers(1, 5), st.integers(6, MAX_BITS)))
    return (
        ReferenceSystem(n_bits, draw(st.integers(0, 2**64 - 1))),
        draw(circuits(n_bits)),
        draw(superpositions(n_bits)),
        draw(st.integers(0, (1 << n_bits) - 1)),
        draw(windows()),
    )


# Half the examples have N <= 5, as many as before wider N was drawn.
@settings(max_examples=300, deadline=None)
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_spectral_evaluator_agrees_at_every_split(data):
    """The private low-bit count K pins the split: K = 0 (one term per
    group), a middle value, and the largest allowed (N up to 16)."""
    n_bits = data.draw(st.one_of(st.integers(1, 8), st.integers(9, MAX_BITS)))
    system = ReferenceSystem(n_bits, data.draw(st.integers(0, 2**64 - 1)))
    prog = compile_circuit(data.draw(circuits(n_bits)))
    y = data.draw(explicit_sums(n_bits, max_terms=40))
    probe = data.draw(st.integers(0, (1 << n_bits) - 1))
    window = np.atleast_1d(np.asarray(data.draw(windows()), dtype=np.uint64))
    want = reference_signal(system, prog, y, window)
    raw = WireBank.draw(system, window)
    probe_plane = raw.string_planes(probe)
    want_correlation = int(np.dot(want, reference_string(reference_wires(system, None, window), probe)))
    top = min(n_bits, hyperspace._MAX_LOW_BITS)
    for k in (0, top // 2, top):
        assert np.array_equal(hyperspace._explicit_signal(raw.apply(prog), y, k), want)
        assert hyperspace._correlation(raw.apply(prog), y, probe_plane, k) == want_correlation


def walsh_hadamard_by_definition(x: list[int]) -> list[int]:
    return [sum(xv * (-1) ** bin(u & v).count("1") for v, xv in enumerate(x)) for u in range(len(x))]


@given(st.integers(0, 6), st.integers(0, 2**32))
def test_walsh_hadamard_matches_its_definition(k, seed):
    x = np.random.default_rng(seed).integers(-(1 << 40), 1 << 40, size=1 << k)
    assert hyperspace._walsh_hadamard(x.copy()).tolist() == walsh_hadamard_by_definition(x.tolist())


def test_walsh_hadamard_is_exact_at_the_budget():
    # sum |x| = 2^62, and entry 0b110 of the transform reaches it.
    x = [1 << 61, 0, 0, -(1 << 60), 0, -(1 << 60), 0, 0]
    got = hyperspace._walsh_hadamard(np.array(x, dtype=np.int64)).tolist()
    assert got == walsh_hadamard_by_definition(x) and got[0b110] == 1 << 62


@pytest.mark.parametrize("n_bits", [1, 5, 16, 32])
def test_operator_index_reads_the_operator_sign_bits(n_bits):
    system, window = ReferenceSystem(n_bits, 3), np.arange(5, 205, dtype=np.uint64)
    wires = reference_wires(system, None, window)
    bank = WireBank.draw(system, window)
    rng = np.random.default_rng(n_bits)
    top = min(n_bits, hyperspace._MAX_LOW_BITS)
    for k in sorted({0, top // 2, top}):
        index = bank.operator_index(k)
        # Bit i of the index is 1 where N_i = w[i,0] * w[i,1] is -1.
        want = sum(((wires[i, 0] != wires[i, 1]).astype(int) << i for i in range(k)), np.zeros(window.size, int))
        assert index.tolist() == want.tolist()
        for s in rng.integers(0, 1 << n_bits, size=8).tolist():
            # P_s is the plane of its high part times chi_low(d_low).
            low = s & ((1 << k) - 1)
            chi_low = np.array([bin(low & d).count("1") & 1 for d in index.tolist()], dtype=np.uint8)
            assert np.array_equal(bank.bits(bank.string_planes(s - low)) ^ chi_low, bank.bits(bank.string_planes(s)))


@pytest.mark.parametrize("readout", [False, True], ids=["signal", "readout"])
def test_low_bit_count_takes_the_documented_decisions(readout):
    rng = np.random.default_rng(11)
    ticks = 1 << 16
    sparse = np.sort(rng.choice(1 << 32, size=1000, replace=False))
    dense = np.sort(rng.choice(1 << 16, size=1024, replace=False))
    assert hyperspace._low_bit_count(sparse, 32, ticks, readout) == 0
    assert hyperspace._low_bit_count(dense, 16, ticks, readout) == 16
    # All 2^10 low parts under four high parts: four groups from K = 10 up.
    blocks = np.sort(rng.choice(1 << 10, size=4, replace=False))[:, None] << 10 | np.arange(1 << 10)
    assert hyperspace._low_bit_count(blocks.ravel(), 20, ticks, readout) == 10
    # 32 of the 2^8 low parts under each of 16 high parts: at K = 0 a readout
    # XORs 32 wire planes per term, so 16 groups at K = 8 cost less.
    highs = np.sort(rng.choice(1 << 24, size=16, replace=False))[:, None] << 8
    partial = np.sort((highs | np.array([rng.choice(256, size=32, replace=False) for _ in range(16)])).ravel())
    assert hyperspace._low_bit_count(partial, 32, ticks, readout) == 8
    assert hyperspace._low_bit_count(np.array([], dtype=np.int64), 32, ticks, readout) == 0


def test_explicit_sums_on_an_empty_window():
    system, empty = ReferenceSystem(20, 8), np.array([], dtype=np.uint64)
    y = Superposition.explicit(20, {0: 1, 5: -2, 1 << 19: 3})
    assert superposition_sample(system, None, y, empty).tolist() == []
    bank = WireBank.draw(system, empty)
    for k in (0, 10, 16):
        assert hyperspace._explicit_signal(bank, y, k).tolist() == []
        assert hyperspace._correlation(bank, y, bank.string_planes(5), k) == 0


def budget_superpositions() -> list[Superposition]:
    """Explicit sums whose coefficient magnitudes add up to exactly 2^62."""
    signs = np.random.default_rng(7).choice([-1, 1], size=61).tolist()
    spread = {s: sign << s for s, sign in enumerate(signs)}  # magnitudes 2^61 - 1 in all
    spread[61] = (1 << 61) + 1
    return [Superposition.explicit(6, {0: 1 << 61, 0b11: -(1 << 61)}), Superposition.explicit(6, spread)]


@pytest.mark.parametrize("y", budget_superpositions(), ids=["two terms", "spread"])
@pytest.mark.parametrize("circuit", [None, GateCircuit(6, (cnot(0, 3), not_gate(2), cnot(3, 5), cnot(5, 1)))])
def test_signals_are_exact_at_the_coefficient_budget(y, circuit):
    # Every butterfly partial sum is bounded by sum |c| = 2^62, so int64 holds it.
    assert y.abs_coeff_sum() == 1 << 62
    system, ticks = ReferenceSystem(6, 99), 200
    window = tick_range(ticks)
    prog = compile_circuit(circuit) if circuit is not None else None
    wires = reference_wires(system, prog, window)
    want = [0] * ticks
    for s, c in y.terms:
        want = [w + c * int(p) for w, p in zip(want, reference_string(wires, s))]
    assert superposition_sample(system, prog, y, window).tolist() == want
    raw = WireBank.draw(system, window)
    for k in (0, 3, 6):
        assert hyperspace._explicit_signal(raw.apply(prog), y, k).tolist() == want
    probe = y.terms[0][0]
    probe_signal = reference_string(reference_wires(system, None, window), probe)
    exact = sum(w * int(p) for w, p in zip(want, probe_signal))
    for k in (0, 3, 6):
        assert hyperspace._correlation(raw.apply(prog), y, raw.string_planes(probe), k) == exact
    assert membership_estimate(system, prog, y, probe, ticks).entries[0].estimate == exact / ticks


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

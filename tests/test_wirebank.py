"""The packed wire bank against a slow int8 reference.

The reference builds every effective wire from per-wire `coin_flips`
samples, multiplies inserted NOT operators in as int8 products, and sums
expanded product strings tick by tick. The bank must match it exactly on
any window: empty ones, lengths that are not a multiple of 8, shuffled and
strided tick arrays, and scalar ticks. Explicit sums are checked up to 32 bits, and the
spectral evaluator at every kind of split of the strings.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwlogic import hyperspace, reference, verify
from rtwlogic.compiler import (
    GateCircuit,
    InsertionProgram,
    circuit_to_affine,
    cnot,
    compile_circuit,
    interacting_chain,
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
        free = draw(st.integers(0, (1 << n_bits) - 1))
        return Superposition(n_bits, offset=draw(st.integers(0, (1 << n_bits) - 1)) & ~free, free=free)
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
def test_strings_of_many_banks_are_gathered_like_each_alone(data):
    # 2-6 banks of 1-8 bits on one window, raw or under a program, and 0-20
    # rows whose owners come interleaved and in any order: each row is the
    # XOR of the planes its string selects in its owner, as one string on
    # that bank alone gives it. One bank is owned by no row.
    ticks = data.draw(windows().filter(lambda w: not np.isscalar(w)))
    banks = []
    for _ in range(data.draw(st.integers(2, 6))):
        n_bits = data.draw(st.integers(1, 8))
        bank = WireBank.draw(ReferenceSystem(n_bits, data.draw(st.integers(0, 2**64 - 1))), ticks)
        banks.append(bank.apply(compile_circuit(data.draw(circuits(n_bits)))))
    unowned = data.draw(st.integers(0, len(banks) - 1))
    owners = data.draw(st.lists(st.sampled_from([j for j in range(len(banks)) if j != unowned]), max_size=20))
    strings = [data.draw(st.integers(0, (1 << banks[j].n_bits) - 1)) for j in owners]
    rows = []
    for j, s in zip(owners, strings):
        rows.append(np.bitwise_xor.reduce([banks[j].planes[bit, (s >> bit) & 1] for bit in range(banks[j].n_bits)]))
        assert np.array_equal(banks[j].string_planes(s), rows[-1])
    got = reference.gather_string_planes(banks, np.array(owners, dtype=np.intp), strings)
    assert np.array_equal(got, np.array(rows, dtype=np.uint8).reshape(len(rows), got.shape[-1]))


def per_bit_pattern_planes(bank: WireBank, offset: int, free: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero and sign planes of a pattern built one bit at a time: the OR of
    each free bit's wire XOR, and the XOR of each bit's offset wire."""
    zero = np.zeros(bank.planes.shape[-1], dtype=np.uint8)
    sign = zero.copy()
    for bit in range(bank.n_bits):
        sign ^= bank.planes[bit, offset >> bit & 1]
        if free >> bit & 1:
            zero |= bank.planes[bit, 0] ^ bank.planes[bit, 1]
    return zero, sign


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pattern_planes_match_the_per_bit_construction(data):
    # Patterns with no free bit, some free bits, or every bit free, on
    # effective wires over windows that are empty, shorter than one word or
    # ragged at 64 ticks; the padding bits of both planes read zero.
    n_bits = data.draw(st.integers(1, MAX_BITS))
    full = (1 << n_bits) - 1
    free = data.draw(st.one_of(st.just(0), st.integers(0, full), st.just(full)))
    offset = data.draw(st.integers(0, full)) & ~free
    start = data.draw(st.integers(0, 2**64 - 200))
    length = data.draw(st.one_of(st.sampled_from([0, 1, 7, 63, 64, 65, 127, 128, 129]), st.integers(0, 200)))
    bank = WireBank.draw(ReferenceSystem(n_bits, data.draw(st.integers(0, 2**64 - 1))), range(start, start + length))
    bank = bank.apply(compile_circuit(data.draw(circuits(n_bits))))
    zero, sign = bank.pattern_planes(offset, free)
    want_zero, want_sign = per_bit_pattern_planes(bank, offset, free)
    assert zero.dtype == sign.dtype == np.uint8 and zero.shape == sign.shape == want_zero.shape
    assert np.array_equal(zero, want_zero) and np.array_equal(sign, want_sign)
    padding = np.unpackbits(np.stack([zero, sign]), axis=-1, bitorder="little")[:, length:]
    assert not padding.any()


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


def test_walsh_hadamard_is_exact_in_int32_up_to_its_bound():
    # sum |x| = 2^31 - 1, the largest int32, and entry 0b110 reaches it.
    x = [1 << 30, 0, 0, -(1 << 29), 0, -(1 << 29) + 1, 0, 0]
    got = hyperspace._walsh_hadamard(np.array(x, dtype=np.int32))
    want = hyperspace._walsh_hadamard(np.array(x, dtype=np.int64))
    assert got.dtype == np.int32 and got.tolist() == want.tolist() and got[0b110] == (1 << 31) - 1


@pytest.mark.parametrize("n_bits", [1, 5, 16, 32])
def test_operator_index_reads_the_operator_sign_bits(n_bits):
    system, window = ReferenceSystem(n_bits, 3), np.arange(5, 205, dtype=np.uint64)
    wires = reference_wires(system, None, window)
    bank = WireBank.draw(system, window)
    rng = np.random.default_rng(n_bits)
    top = min(n_bits, hyperspace._MAX_LOW_BITS)
    for k in (-1, 17, n_bits + 1):
        with pytest.raises(ValueError, match="out of range"):
            bank.operator_index(k)
    for k in sorted({0, top // 2, top}):
        index = bank.operator_index(k)
        assert index.dtype == np.uint16
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


def test_readout_over_one_full_chunk_equals_the_int8_reference():
    # At N = 1 one chunk is 2^21 ticks, so every bincount bin and every
    # partial sum of the int32 transform can reach 2^21.
    system = ReferenceSystem(1, 21)
    ticks = reference._CHUNK_SAMPLES // 2
    window = tick_range(ticks)
    y = Superposition.explicit(1, {0: 3, 1: -2})
    wires = reference_wires(system, None, window)
    signal = reference_signal(system, None, y, window)
    bank = WireBank.draw(system, range(ticks))
    for probe in (0, 1):
        want = int(np.dot(signal, reference_string(wires, probe)))
        for k in (0, 1):
            assert hyperspace._correlation(bank, y, bank.string_planes(probe), k) == want
        assert membership_estimate(system, None, y, probe, ticks).entries[0].estimate == want / ticks


def test_explicit_sum_memory_at_sixteen_low_bits():
    # 1024 of the 2^16 strings of 16 bits take K = 16: one group whose
    # 2^16-entry spectrum and transform buffer (1 MiB), the int64 signal and
    # gathered row (1 MiB, T = 2^16), the drawn planes and the uint16 index
    # make up about 2.4 MiB. A doubled +-C^ table or an intp copy of the
    # index kept for all groups would each cross the bound.
    rng = np.random.default_rng(16)
    strings = rng.choice(1 << 16, size=1024, replace=False)
    y = Superposition.explicit(16, {int(s): int(rng.choice([-3, -1, 1, 2])) for s in strings})
    for readout in (False, True):
        assert hyperspace._low_bit_count(np.sort(strings), 16, 1 << 16, readout) == 16
    system, probe = ReferenceSystem(16, 7), int(strings[0])
    calls = {
        "signal": lambda: superposition_sample(system, None, y, range(1 << 16)),
        "readout": lambda: membership_estimate(system, None, y, probe, 1 << 16),
    }
    for name, call in calls.items():
        call()  # the stream keys are built and cached on the first call
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6 * 2**20, (name, peak)


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
    assert sum(abs(c) for _, c in y.terms) == 1 << 62
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
    pattern = Superposition(6, offset=0b000010, free=0b110101)
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


def chunked_results(system, circuit, y, probe, window_start, ticks, shuffle_seed) -> list:
    """Every windowed result of the library on one case, as plain values."""
    n_bits = system.n_bits
    prog = compile_circuit(circuit)
    arrays = (
        np.arange(window_start, window_start + ticks, dtype=np.uint64),
        np.arange(window_start, window_start + 3 * ticks, dtype=np.uint64)[::3],
        np.random.default_rng(shuffle_seed).permutation(ticks).astype(np.uint64) + np.uint64(window_start),
    )
    out = [superposition_sample(system, prog, y, window).tolist() for window in (range(ticks), *arrays)]
    out.append(product_string_sample(system, prog, probe, arrays[2]).tolist())
    out.append(system.wire_table(prog, arrays[1]).tolist())
    out.append(membership_estimate(system, prog, y, probe, ticks).entries[0].estimate.hex())
    if y.is_pattern:
        out.append(zero_fraction(system, y, ticks).entries[0].estimate.hex())
    out.append([e.estimate.hex() for e in orthogonality_report(system, ticks).entries])
    out.append(signal_equivalence_check(system, circuit, y, ticks).to_dict())
    chain = interacting_chain(n_bits - 1) if n_bits > 1 else GateCircuit(1, ())
    out.append(universe_invariance_check(system, chain, ticks).to_dict())
    # A program without one of its insertions: the first mismatch, if any,
    # must be found in the same place whatever the chunks.
    for check, circ in ((signal_equivalence_check, (circuit, y)), (universe_invariance_check, (chain,))):
        insertions = sorted(verify.compile_to_insertions(circuit_to_affine(circ[0])).insertions)
        if insertions:
            broken = InsertionProgram(n_bits, frozenset(insertions[1:]))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verify, "compile_to_insertions", lambda amap: broken)
                out.append(check(system, *circ, ticks).to_dict())
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_results_do_not_depend_on_the_chunk_size(data):
    """Chunks of 64, 128 and 4096 ticks and one chunk for the whole window,
    on one thread or two, give the same signals, readouts, statistics and
    equivalence results, first mismatches included."""
    n_bits = data.draw(st.integers(1, 6))
    system = ReferenceSystem(n_bits, data.draw(st.integers(0, 2**64 - 1)))
    circuit = data.draw(circuits(n_bits))
    y = data.draw(superpositions(n_bits))
    probe = data.draw(st.integers(0, (1 << n_bits) - 1))
    ticks = data.draw(st.integers(1, 600))
    case = (system, circuit, y, probe, data.draw(st.integers(0, 2**40)), ticks, data.draw(st.integers(0, 2**32)))
    workers = data.draw(st.sampled_from([1, 2]))
    results = []
    for budget in (64, 128, 4096, 64 * -(-ticks // 64)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reference, "_CHUNK_SAMPLES", budget * 2 * n_bits)
            patch.setattr(reference, "_WORKERS", workers)
            results.append(chunked_results(*case))
    whole = results[-1]
    for budget, got in zip((64, 128, 4096), results):
        assert got == whole, budget


def test_universe_check_memory_is_flat_in_the_tick_count(monkeypatch):
    # With chunks of 2^16 ticks, every window from 2^16 to 2^22 ticks is at
    # least one chunk, so the traced peak is the same for all of them: one
    # worker's buffers and one chunk's temporaries.
    system, circuit = ReferenceSystem(4, 3), interacting_chain(3)
    monkeypatch.setattr(reference, "_CHUNK_SAMPLES", (1 << 16) * 2 * system.n_bits)
    monkeypatch.setattr(reference, "_WORKERS", 1)
    peaks = {}
    for log_ticks in range(16, 23):
        tracemalloc.start()
        try:
            assert universe_invariance_check(system, circuit, 1 << log_ticks).passed
            peaks[log_ticks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) - min(peaks.values()) < 64 << 10, peaks


def test_a_late_first_mismatch_is_found_in_its_chunk(monkeypatch):
    # The universe signal of 10 bits is nonzero on about 2^-10 of the ticks,
    # so without one of its insertions CROSSED first shows a mismatch after
    # many chunks of 64 ticks.
    n_bits, ticks = 10, 1 << 13
    system, circuit = ReferenceSystem(n_bits, 5), GateCircuit(n_bits, CROSSED.gates)
    prog = compile_circuit(circuit)
    broken = InsertionProgram(n_bits, prog.insertions - {min(prog.insertions)})
    universe = Superposition.universe(n_bits)
    want = compare_signals(
        superposition_sample(system, broken, universe, range(ticks)),
        superposition_sample(system, None, universe, range(ticks)),
    )
    assert want.first_mismatch[0] > 2048
    monkeypatch.setattr(verify, "compile_to_insertions", lambda amap: broken)
    for budget in (64, 128, 4096, ticks):
        monkeypatch.setattr(reference, "_CHUNK_SAMPLES", budget * 2 * n_bits)
        assert universe_invariance_check(system, circuit, ticks) == want, budget

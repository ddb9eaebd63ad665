"""Instantaneous logic on clocked random telegraph waves.

A reference system assigns every (bit, value) wire an independent fair
+-1 wave; product strings and their superpositions are evaluated
tick-by-tick, and NOT/CNOT circuits compile to wire-local multiplications
whose effect is exact, not statistical.
"""

from .compiler import (
    AffineMapGF2,
    CircuitParseError,
    ConjectureScanReport,
    Gate,
    GateCircuit,
    Insertion,
    InsertionProgram,
    affine_of_program,
    circuit_to_affine,
    cnot,
    compile_circuit,
    compile_to_insertions,
    conjecture_scan,
    interacting_chain,
    noninteracting_chain,
    not_gate,
    parse_circuit,
)
from .hyperspace import (
    ExpansionBudgetError,
    Superposition,
    format_bits,
    membership_coefficient,
    membership_estimate,
    oracle_apply,
    parse_bits,
    parse_superposition,
    product_string_sample,
    superposition_sample,
    zero_fraction,
)
from .reference import (
    DEFAULT_SEED,
    MAX_BITS,
    ReferenceSystem,
    orthogonality_report,
    tick_range,
)
from .report import Report, StatEntry
from .verify import (
    EquivalenceResult,
    TrialsReport,
    canonical_suite,
    random_equivalence_trials,
    signal_equivalence_check,
    universe_invariance_check,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMapGF2",
    "CircuitParseError",
    "ConjectureScanReport",
    "DEFAULT_SEED",
    "EquivalenceResult",
    "ExpansionBudgetError",
    "Gate",
    "GateCircuit",
    "Insertion",
    "InsertionProgram",
    "MAX_BITS",
    "ReferenceSystem",
    "Report",
    "StatEntry",
    "Superposition",
    "TrialsReport",
    "affine_of_program",
    "canonical_suite",
    "circuit_to_affine",
    "cnot",
    "compile_circuit",
    "compile_to_insertions",
    "conjecture_scan",
    "format_bits",
    "interacting_chain",
    "membership_coefficient",
    "membership_estimate",
    "noninteracting_chain",
    "not_gate",
    "oracle_apply",
    "orthogonality_report",
    "parse_bits",
    "parse_circuit",
    "parse_superposition",
    "product_string_sample",
    "random_equivalence_trials",
    "signal_equivalence_check",
    "superposition_sample",
    "tick_range",
    "universe_invariance_check",
    "zero_fraction",
]

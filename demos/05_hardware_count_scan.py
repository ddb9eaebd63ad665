#!/usr/bin/env python
"""How many NOT elements does a random L-gate CNOT cascade need?

Chained cascades bracket the range [L, L(L+1)/2]; random cascades land
inside it unless gates cancel, which the scan flags with the witness
cascade. Cancellation is the only way below L at these sizes.
"""
from rtwlogic import conjecture_scan

report = conjecture_scan(n_gates=4, n_bits=5, samples=5000, seed=0)
print(f"4-gate cascades on 5 bits, {report.samples} samples")
print(f"expected range: {report.lower_bound} <= M <= {report.upper_bound}")
print("histogram of hardware counts:")
peak = max(report.histogram.values())
for m in sorted(report.histogram):
    bar = "#" * max(1, round(40 * report.histogram[m] / peak))
    print(f"  M={m:2d}  {report.histogram[m]:5d}  {bar}")

print(f"\n{len(report.violations)} cascades fell below the gate count; first three witnesses:")
for v in report.violations[:3]:
    print(f"  M={v.m}: {'; '.join(v.circuit_text.splitlines())}")

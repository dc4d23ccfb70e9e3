"""End-to-end sweeps, machine-readable reports, and Monte Carlo sampling.

run_sweep drives every quantity across a geometric noise grid, fits
asymptotic orders, and grades them against the scenario's expectations.
Reports are deterministic given (scenario, seed); Monte Carlo sampling is
one multinomial draw from a counter-based generator keyed by its seed.
"""
import tempfile
from pathlib import Path

import numpy as np

from lownoise import (
    analytic_mse,
    build_povm,
    build_score_operators,
    divergent_fisher,
    emit_report,
    fisher_inverse,
    outcome_probabilities,
    parse_jsonl,
    raise_index,
    render_jsonl,
    run_sweep,
    sample_measurements,
)
from lownoise.scenarios import scenario_ancilla_bell, scenario_pauli2
from lownoise.spectral import output_spectrum_with_gradients

np.set_printoptions(precision=6, suppress=True)

# --- positive case: the ancilla-assisted scenario attains the bound
report = run_sweep(scenario_ancilla_bell())
print("ancilla-bell checks:")
for c in report.checks:
    mark = "PASS" if c["passed"] else ("XFAIL" if c["expected_failure"] else "FAIL")
    print(f"  {mark:5s} {c['name']}")

# --- negative control: two parameters on a bare qubit cannot attain
report_pauli = run_sweep(scenario_pauli2())
print("\npauli2 (no ancilla) checks:")
for c in report_pauli.checks:
    mark = "PASS" if c["passed"] else ("XFAIL" if c["expected_failure"] else "FAIL")
    print(f"  {mark:5s} {c['name']} -- {c['detail']}")
bad = [f for f in report_pauli.fits if f["name"] == "bad_direction_gap"][0]
print(f"bad-direction gap order {bad['slope']:.2e}: the O(1) error floor never decays")

# --- reports round-trip exactly and are byte-stable given the seed
with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False, mode="w") as fh:
    path = fh.name
emit_report(report, "jsonl", path)
records = parse_jsonl(Path(path).read_text())
print("\nreport records:", len(records), "; round-trip exact:",
      records[1:] == report.records())
print("byte-deterministic:",
      render_jsonl(run_sweep(scenario_ancilla_bell()), with_meta=False)
      == render_jsonl(run_sweep(scenario_ancilla_bell()), with_meta=False))

# --- Monte Carlo: sample the estimator, compare to the analytic moments
sc = scenario_ancilla_bell()
eps = np.array([1e-3, 2e-3])
spec = output_spectrum_with_gradients(sc.channel, sc.input_state, eps)
jdiv_inv = fisher_inverse(divergent_fisher(spec.shifts(), spec.shift_gradients(), [0, 1]))
povm = build_povm(raise_index(build_score_operators(spec, [0, 1]), jdiv_inv))

q = outcome_probabilities(povm, spec.probs)
analytic = analytic_mse(povm, q, eps)
mc = sample_measurements(povm, q, eps, shots=10**6, seed=2026)
print("\nanalytic error matrix:\n", analytic.entries)
print("empirical (10^6 shots):\n", mc.entries)
print("all entries within 4 standard errors:",
      bool(np.all(np.abs(mc.entries - analytic.entries) <= 4 * mc.standard_error)))
print("empirical mean:", mc.mean, " true eps:", eps)

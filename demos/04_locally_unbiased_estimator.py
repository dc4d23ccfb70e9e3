"""Constructing the locally unbiased estimator and checking attainment.

The recipe: the covariant score operators are diagonal in the output
eigenbasis, with the logarithmic derivative of each first-order shift as
their eigenvalue on its eigenvector.  Raising the index with the inverse
divergent Fisher matrix maps each such row of log-gradients to an estimate
vector, and the estimator measures in that eigenbasis.
The resulting projective estimator is unbiased to second order and its
error matrix matches the inverse divergent Fisher matrix to second order;
for the ancilla-Bell scenario the match is exact.
"""
import numpy as np

from lownoise import (
    analytic_mse,
    build_povm,
    build_score_operators,
    divergent_fisher,
    fisher_inverse,
    outcome_probabilities,
    quantum_fisher,
    raise_index,
    unbiasedness_residual,
)
from lownoise.linalg import fit_or_floor
from lownoise.scenarios import scenario_ancilla_bell, scenario_threelevel
from lownoise.spectral import output_spectrum_with_gradients

np.set_printoptions(precision=6, suppress=True)

bell = scenario_ancilla_bell()
eps = np.array([1e-3, 2e-3])
spec = output_spectrum_with_gradients(bell.channel, bell.input_state, eps)

# the score operators are held as their eigenvalues on the spectrum's basis:
# one row of log-gradients d_mu shift_n / shift_n per included shift, and,
# once raised with the inverse divergent Fisher matrix, one estimate vector
jdiv_inv = fisher_inverse(divergent_fisher(spec.shifts(), spec.shift_gradients(), [0, 1]))
score = raise_index(build_score_operators(spec, [0, 1]), jdiv_inv)
print("log-gradients (rows: shifts eps_2, eps_1):\n", score.log_gradients)
print("estimates = log-gradients mapped through the inverse:\n", score.estimates)
povm = build_povm(score)

# each outcome is a group of the spectrum's basis columns: one per distinct
# estimate, plus the kernel (column 0, the near-unit eigenvector) with estimate 0
print("outcomes: basis columns and estimate vector")
for cols, x in zip(povm.groups, povm.estimates):
    print("  columns", cols, " estimate", x)
print("basis orthonormality (completeness) residual:", povm.completeness_residual())

# The estimator's statistics need only its outcome probabilities
# q_n = Tr[P_n rho] at the true point.  rho is diagonal in the spectrum's
# basis, so q_n is the sum of the eigenvalues spec.probs in group n.
q = outcome_probabilities(povm, spec.probs)
print("\noutcome probabilities:", q)
print("unbiasedness residual:", unbiasedness_residual(povm, q, eps))

mse = analytic_mse(povm, q, eps)
jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, spec.derivatives))
print("error matrix:\n", mse.entries)
print("gap to the quantum bound (exact attainment here):\n", mse.entries - jq.inverse)

# --- attainment order for the three-level scenario: the gap to the inverse
# divergent Fisher matrix shrinks quadratically along the sweep
sc = scenario_threelevel()
scales = np.geomspace(1e-5, 1e-2, 8)
gaps = []
for s in scales:
    e = s * np.asarray(sc.sweep.direction)
    spec = output_spectrum_with_gradients(sc.channel, sc.input_state, e)
    jdiv_inv = fisher_inverse(divergent_fisher(spec.shifts(), spec.shift_gradients(), [0, 1]))
    score = raise_index(build_score_operators(spec, [0, 1]), jdiv_inv)
    povm = build_povm(score)
    v = analytic_mse(povm, outcome_probabilities(povm, spec.probs), e)
    gaps.append(np.linalg.norm(v.entries - jdiv_inv.inverse))
fit = fit_or_floor(scales, gaps, 0.0)
print(f"\nthree-level ||V - inverse divergent Fisher|| order: {fit.slope:.3f} (want 2)")

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
    cr_gap,
    divergent_fisher,
    fisher_inverse,
    quantum_fisher,
    raise_index,
    unbiasedness_residual,
)
from lownoise.linalg import power_order_fit
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

print("outcomes and their estimate vectors:")
for x, p in zip(povm.estimates, povm.projectors):
    print("  estimate", x, " projector rank", int(round(np.trace(p).real)))
print("completeness residual:", povm.completeness_residual())

# The estimator's statistics need only the output state at the true point;
# the spectrum carries it (and its derivatives) from its channel.evaluate().
print("\nunbiasedness residual:", unbiasedness_residual(povm, spec.output, eps))

mse = analytic_mse(povm, spec.output, eps)
jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, spec.derivatives))
print("error matrix:\n", mse.entries)
print("gap to the quantum bound (exact attainment here):\n", cr_gap(mse, jq))

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
    v = analytic_mse(build_povm(score), spec.output, e)
    gaps.append(np.linalg.norm(v.entries - jdiv_inv.inverse))
fit = power_order_fit(list(zip(scales, gaps)))
print(f"\nthree-level ||V - inverse divergent Fisher|| order: {fit.slope:.3f} (want 2)")

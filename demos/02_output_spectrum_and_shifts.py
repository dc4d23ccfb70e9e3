"""Output-state spectral analysis: shifts, deviation matrix, covariance.

For a pure input the output keeps one near-unit eigenvalue; the other
eigenvalues grow linearly in the noise.  Those first-order shifts are the
information carriers.  Three routes to them agree:

  1. diagonalize the output state directly,
  2. compress output-minus-input onto the complement of the input
     (the deviation matrix) and diagonalize that,
  3. for K <= N-1 jump operators, diagonalize the small K x K covariance
     matrix of the jumps on the input state.
"""
import numpy as np

from lownoise import (
    deviation_eigenvalues,
    deviation_matrix,
    jump_covariance,
    output_deviation_matrix,
    output_shift_curves,
    output_spectrum_with_gradients,
    reduced_shifts,
    trace_power_residual,
)
from lownoise.scenarios import scenario_ancilla_bell, scenario_threelevel
from lownoise.spectral import classify_shift_curves

np.set_printoptions(precision=6, suppress=True)

sc = scenario_threelevel()
eps = np.array([1e-3, 2e-3])

spec = output_spectrum_with_gradients(sc.channel, sc.input_state, eps)
print("output eigenvalues:", spec.probs)
print("shifts (the small ones):", spec.shifts())
# the spectrum carries its eigenvalue gradients: gradients[mu, n] = d p_n / d eps_mu
print("shift gradients:\n", spec.shift_gradients())

# route 2: deviation matrix in a deterministic complement frame, a plain
# Hermitian array (the full matrix compresses the output state the spectrum
# already holds; the leading one is built from the jump operators alone)
dm_full = output_deviation_matrix(spec.output, sc.input_state)
dm_lead = deviation_matrix(sc.channel, sc.input_state, eps)
print("\ndeviation eigenvalues (full):   ", deviation_eigenvalues(dm_full))
print("deviation eigenvalues (leading):", deviation_eigenvalues(dm_lead))
print("full-vs-leading difference is second order:",
      np.linalg.norm(dm_full - dm_lead))

# route 3: the K x K covariance reduction (here K = 2, N - 1 = 2)
lm = jump_covariance(sc.channel, sc.input_state, eps)
print("\ncovariance matrix:\n", lm)
print("reduced shifts:", reduced_shifts(lm, sc.channel.dim))
print("closed-form shifts:", np.sort(sc.closed_forms["shifts"](eps))[::-1])
print("trace-power identity residual (k <= 5):",
      trace_power_residual(dm_lead, lm, kmax=5))

# Shifts are classified order-1 vs higher-or-zero by log-log slope across a
# scale sweep, never by a single-point threshold: an eps^2 shift and a small
# linear shift look identical at one eps but have different slopes.
scales = np.geomspace(1e-5, 1e-2, 8)
bell = scenario_ancilla_bell()
# one spectrum for the whole grid, from one stacked channel evaluation:
# spectrum.shifts() has one row per scale
spectrum = output_shift_curves(bell.channel, bell.input_state, np.asarray(bell.sweep.direction), scales)
labels, fits = classify_shift_curves(scales, spectrum.shifts())
print("\nancilla-Bell shift labels:", labels)
print("fitted orders:", np.round(fits.slope, 3), "at the floor:", fits.at_floor)
print("(the exactly-zero third shift never rises above the floor)")

"""Fisher information three ways: quantum, classical, and divergent.

The quantum Fisher matrix bounds every locally unbiased estimator.  For
dissipative low-noise channels it diverges like 1/eps; the divergent part
assembled from the eigenvalue shifts is what the explicit estimator
construction targets, and the classical matrix of the eigenvalue
distribution matches it to a bounded remainder.
"""
import numpy as np

from lownoise import (
    classical_fisher,
    divergent_fisher,
    fisher_inverse,
    nondegeneracy_det,
    quantum_fisher,
)
from lownoise.scenarios import scenario_ancilla_bell, scenario_pauli2
from lownoise.spectral import output_spectrum_with_gradients

np.set_printoptions(precision=6, suppress=True)

# --- the qubit bit-flip/phase-flip pair is exactly solvable in Bloch form
sc = scenario_pauli2()
eps = np.array([2e-3, 3e-3])
spec, grads = output_spectrum_with_gradients(sc.channel, sc.input_state, eps)
# The spectrum comes from one channel.evaluate() at eps and carries its
# record: the output state, the exact d rho / d eps_mu and the Kraus
# completeness residual.
drho = spec.derivatives
print("completeness residual:", spec.tpcp_residual)

jq = quantum_fisher(spec.probs, spec.basis, drho)
print("quantum Fisher:\n", jq.entries)
print("closed Bloch form agrees to:",
      np.max(np.abs(jq.entries - sc.closed_forms["fisher"](eps))))

# Two parameters on a qubit are too many: one eigenvalue of the inverse
# stays O(1) no matter how small the noise - the estimation floor that
# motivates the ancilla extension.
jinv = fisher_inverse(jq).inverse
print("inverse eigenvalues:", np.linalg.eigvalsh(jinv))

# --- with an ancilla the picture changes completely
bell = scenario_ancilla_bell()
eps = np.array([1e-3, 2e-3])
spec, grads = output_spectrum_with_gradients(bell.channel, bell.input_state, eps)

jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, spec.derivatives))
print("\nancilla-Bell inverse Fisher:\n", jq.inverse)
print("reference diag(eps) - eps eps^T:\n", np.diag(eps) - np.outer(eps, eps))

jc = classical_fisher(spec.probs, grads)
jd = divergent_fisher(spec.shifts(), grads[:, 1:], [0, 1])
print("\ndivergent part:\n", jd.entries)
print("classical-minus-divergent stays bounded:\n", jc.entries - jd.entries)

# The parameterization is non-degenerate when the sqrt-probability Gram
# determinant stays away from zero; it diverges like eps^(-D) here.
print("\nsqrt-probability Gram determinant:", nondegeneracy_det(spec.probs, grads))

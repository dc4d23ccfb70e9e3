"""Building low-noise channels and probing their structure.

A low-noise channel is a family of quantum operations indexed by a vector
of small non-negative noise strengths eps.  At eps = 0 it is the identity;
each eps component switches on a dissipative jump contribution linearly.
This script builds channels two ways, applies them, and inspects the
derived quantities: trace preservation, the eps-derivatives, and the
effective Hamiltonian hiding in the identity-family Kraus term.
"""
import numpy as np

from lownoise import (
    channel_from_config,
    channel_to_config,
    pure_state_density,
    sqrt_completion_channel,
)
from lownoise.scenarios import SIGMA_X, SIGMA_Z, bloch_vector, density_from_bloch

np.set_printoptions(precision=6, suppress=True)

# --- the quickest way to a valid channel: give only the jump operators.
# The builder completes them with B(eps) = sqrt(1 - sum eps_mu M^dag M),
# which makes the Kraus completeness sum exactly the identity.
channel = sqrt_completion_channel([[SIGMA_X], [SIGMA_Z]])
print("dimension:", channel.dim, " parameters:", channel.num_params)
print("trace-preservation residual at eps=(0.01, 0.03):",
      channel.tpcp_residual([0.01, 0.03]))

# Feed it a Bloch state.  Bit flips (eps_1) shrink y/z, phase flips (eps_2)
# shrink x/y, so the output Bloch vector contracts anisotropically.
rho = density_from_bloch(np.array([1.0, 0.0, 0.0]))
out = channel.apply(rho, [0.01, 0.02])
print("input Bloch:", bloch_vector(rho), "-> output Bloch:", bloch_vector(out))

# evaluate() builds the Kraus operators once and returns the output state,
# its exact derivatives d rho / d eps_mu and the completeness residual.
ev = channel.evaluate(rho, [0.01, 0.02])
print("evaluate() output equals apply():", np.array_equal(ev.output, out))
print("d output / d eps_2 (Bloch):", bloch_vector(ev.derivatives[1]))
print("completeness residual:", ev.tpcp_residual)

# --- the first-order motion splits into dissipation plus a commutator.
# With no generators supplied the Hamiltonian part is zero.
ground = pure_state_density(np.array([1.0, 0.0], dtype=complex))
print("\nderivative of the output in eps_1 at eps=0, ground-state input:")
print(np.real(channel.derivative_at_zero(0, ground)))
print("Hamiltonian generator (should be zero):",
      np.linalg.norm(channel.hamiltonian_generator(0)))

# Supplying Hermitian generators adds coherent rotation on top of the
# dissipation, and the channel recovers them exactly from its Kraus data.
g = np.array([[0.0, 1j], [-1j, 0.0]])
rotated = sqrt_completion_channel([[SIGMA_X], [SIGMA_Z]], generators=[g, np.zeros((2, 2))])
print("recovered generator error:",
      np.linalg.norm(rotated.hamiltonian_generator(0) - g))

# --- channels serialize to a plain-JSON config (complex entries as [re, im])
cfg = channel_to_config(rotated)
clone = channel_from_config(cfg)
print("\nconfig round trip exact:",
      channel_to_config(clone) == cfg)

# Outside the validity region the completion argument goes negative and the
# channel refuses to evaluate rather than returning an unphysical state.
try:
    channel.apply(rho, [0.9, 0.9])
except Exception as exc:
    print("outside validity region:", type(exc).__name__, "-", exc)

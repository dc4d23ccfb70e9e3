"""Fisher information matrices of the channel output.

Three Fisher matrices appear for the channel output: the quantum matrix
built from the full state derivative, the classical matrix of the
eigenvalue distribution alone, and the divergent part assembled from the
first-order eigenvalue shifts, whose inverse is the quantity the
estimator construction targets.  The builders broadcast over leading
axes, so one point or a (B, ...) stack of points takes the same code.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySum, SingularFisher
from .linalg import dagger, eigensolve, guarded

SUPPORT_RTOL = 1e-12
PINV_RCOND = 1e-12
DOMINANCE_TOL = 1e-8


def support_threshold(dim: int) -> float:
    """Support cut-off of an N = dim output: eigenvalues (or pair sums) above it count."""
    return SUPPORT_RTOL * dim


@dataclass(frozen=True)
class FisherMatrix:
    """Real symmetric Fisher matrix, D x D or a (B, D, D) stack, with optional inverse."""

    entries: np.ndarray
    inverse: np.ndarray | None = None
    condition_number: float = float("nan")


def _gram(grads: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_n w_n g_n g_n^T over the columns g_n of (..., D, M) grads; a zero weight drops a column."""
    return (grads * weights[..., None, :]) @ grads.swapaxes(-1, -2)


def _per_param(values: np.ndarray, grads, name: str) -> np.ndarray:
    """grads as a float (..., D, M) array over values' (..., M); DimensionMismatch otherwise."""
    grads = np.asarray(grads, dtype=float)
    if grads.ndim != values.ndim + 1 or grads.shape[:-2] + grads.shape[-1:] != values.shape:
        raise DimensionMismatch(f"{name} of shape {grads.shape} do not fit values of shape {values.shape}")
    return grads


def _classical(probs, dprobs) -> np.ndarray:
    """sum_n dp_n dp_n^T / p_n over the eigenvalues above ``support_threshold``."""
    probs = np.asarray(probs, dtype=float)
    keep = probs > support_threshold(probs.shape[-1])
    weights = np.where(keep, 1.0 / np.where(keep, probs, 1.0), 0.0)
    return _gram(_per_param(probs, dprobs, "probability gradients"), weights)


def included_shifts(included, num_shifts: int) -> tuple[int, ...]:
    """included as a tuple; DimensionMismatch unless its indices are distinct and in [0, num_shifts)."""
    included = tuple(included)
    if any(not 0 <= n < num_shifts for n in included) or len(set(included)) < len(included):
        raise DimensionMismatch(f"included shifts {list(included)} must be distinct indices below {num_shifts}")
    return included


def quantum_fisher(probs: np.ndarray, basis: np.ndarray, drho) -> FisherMatrix:
    """Quantum Fisher matrix from the output spectrum and state derivatives.

    Entry (mu, nu) sums 2/(p_n + p_m) <n|d_mu rho|m><m|d_nu rho|n> over the
    support, where p_n + p_m exceeds ``support_threshold``; this equals
    Tr[rho (L_mu L_nu + L_nu L_mu)]/2 with the symmetric logarithmic
    derivatives L_mu solving d_mu rho = (L_mu rho + rho L_mu)/2 there.
    DimensionMismatch unless basis is (..., N, N) and drho (..., D, N, N).
    """
    probs = np.asarray(probs, dtype=float)
    basis = np.asarray(basis, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if basis.shape != probs.shape + probs.shape[-1:] or drho.shape[:-3] + drho.shape[-2:] != basis.shape:
        raise DimensionMismatch(f"basis {basis.shape} and derivatives {drho.shape} do not fit probs {probs.shape}")
    basis = basis[..., None, :, :]
    psum = probs[..., :, None] + probs[..., None, :]
    mask = psum > support_threshold(probs.shape[-1])
    weights = np.where(mask, 2.0 / np.where(mask, psum, 1.0), 0.0)
    dmats = dagger(basis) @ drho @ basis
    entries = np.einsum("...mij,...ij,...nji->...mn", dmats, weights, dmats).real
    return FisherMatrix(entries=(entries + entries.swapaxes(-1, -2)) / 2)


def classical_fisher(probs: np.ndarray, dprobs: np.ndarray) -> FisherMatrix:
    """Fisher matrix of the output eigenvalue distribution.

    Sums dp_mu dp_nu / p_n over the eigenvalues above ``support_threshold``.
    """
    return FisherMatrix(entries=_classical(probs, dprobs))


def divergent_fisher(shift_values: np.ndarray, shift_grads: np.ndarray, included) -> FisherMatrix:
    """Divergent Fisher part: sum over first-order shifts of grad grad^T / shift.

    shift_values: the N-1 small output eigenvalues; shift_grads: (D, N-1)
    per-parameter derivatives; included: indices of order-1 shifts, the
    same for every point of a stack (others carry no first-order
    information and are excluded).
    """
    shift_values = np.asarray(shift_values, dtype=float)
    grads = _per_param(shift_values, shift_grads, "shift gradients")
    included = list(included_shifts(included, shift_values.shape[-1]))
    if not included:
        raise EmptySum("no first-order eigenvalue shift; channel not dissipative along this input")
    grads = grads[..., included]
    return FisherMatrix(entries=_gram(grads, 1.0 / shift_values[..., included]))


def nondegeneracy_det(probs: np.ndarray, dprobs: np.ndarray) -> float | np.ndarray:
    """Determinant of the sqrt-probability Gram matrix sum_n d(sqrt p_n) d(sqrt p_n)^T = J_c / 4.

    A vanishing determinant signals a degenerate parameterization of the
    output eigenvalue distribution (always the case for D > N-1).
    """
    return guarded(np.linalg.det, _classical(probs, dprobs) / 4.0)


def _kept_inverse(fm: FisherMatrix) -> tuple[FisherMatrix, np.ndarray, np.ndarray]:
    """One eigensolve per matrix: fm inverted over eigenvalues above PINV_RCOND x the largest, |w|, the kept mask.

    On a rank-deficient matrix the inverse is the Moore-Penrose inverse;
    the zero matrix has the zero inverse and condition number inf.
    DimensionMismatch unless the entries are a D x D matrix or a stack of them.
    """
    entries = np.asarray(fm.entries, dtype=float)
    if entries.ndim < 2 or entries.shape[-1] != entries.shape[-2]:
        raise DimensionMismatch(f"Fisher entries of shape {entries.shape} are not square matrices")
    w, v = eigensolve((entries + entries.swapaxes(-1, -2)) / 2)
    mag = np.abs(w)
    top = np.max(mag, axis=-1, keepdims=True)
    keep = mag > PINV_RCOND * top
    inv = (v / np.where(keep, w, np.inf)[..., None, :]) @ v.swapaxes(-1, -2)
    cond = np.where(np.any(keep, axis=-1), top[..., 0] / np.min(np.where(keep, mag, np.inf), axis=-1), np.inf)[()]
    return FisherMatrix(entries, (inv + inv.swapaxes(-1, -2)) / 2, cond), mag, keep


def fisher_inverse(fm: FisherMatrix) -> FisherMatrix:
    """Populate the inverse via a Hermitian eigendecomposition, of one matrix or of each in a stack.

    Raises SingularFisher when the smallest eigenvalue magnitude is at most
    PINV_RCOND times the largest, which signals a degenerate
    parameterization or too many parameters for the system dimension.  The
    test does not depend on the number of parameters.  The message names the first singular matrix.
    """
    inverted, mag, keep = _kept_inverse(fm)
    singular = ~np.all(keep, axis=-1)
    if np.any(singular):
        bad = mag[singular][0]  # a 0-d mask takes the one matrix as a row
        raise SingularFisher(f"Fisher matrix numerically singular (eigenvalue magnitudes {min(bad):g} to {max(bad):g})")
    return inverted


def pure_input_dominance(
    ch,
    rho_mixed: np.ndarray,
    decomposition,
    u: np.ndarray,
    eps,
) -> bool:
    """Check u J[rho] u <= max_i u J[phi_i] u over a convex decomposition.

    decomposition is a list of (weight, pure state vector) reconstructing
    rho_mixed; the output Fisher information is convex in the input state,
    so some pure component always dominates the mixture.  The comparison
    allows DOMINANCE_TOL relative to the largest value.
    """
    rho_mixed = np.asarray(rho_mixed, dtype=complex)
    recon = sum(w * np.outer(np.asarray(v, complex), np.asarray(v, complex).conj()) for w, v in decomposition)
    if np.linalg.norm(recon - rho_mixed) > 1e-10:
        raise DimensionMismatch("decomposition does not reconstruct the mixed state")
    eps = np.asarray(eps, dtype=float)
    u = np.asarray(u, dtype=float)
    # the channel is linear in its input: the mixture's output and derivatives
    # are the weighted sums of its components', so each component is evaluated
    # once; the mixture is the last row of one stack through quantum_fisher
    weights = np.array([w for w, _ in decomposition])
    evs = [ch.evaluate(np.outer(np.asarray(v, complex), np.asarray(v, complex).conj()), eps) for _, v in decomposition]
    outputs = np.array([ev.output for ev in evs])
    derivs = np.array([ev.derivatives for ev in evs])
    outputs = np.concatenate([outputs, np.tensordot(weights, outputs, 1)[None]])
    derivs = np.concatenate([derivs, np.tensordot(weights, derivs, 1)[None]])
    vals = quantum_fisher(*eigensolve((outputs + dagger(outputs)) / 2), derivs).entries @ u @ u
    scale = max(1.0, float(np.max(np.abs(vals))))
    return bool(vals[-1] <= np.max(vals[:-1]) + DOMINANCE_TOL * scale)

"""Fisher information matrices of the channel output.

Three Fisher matrices appear for the channel output: the quantum matrix
built from the full state derivative, the classical matrix of the
eigenvalue distribution alone, and the divergent part assembled from the
first-order eigenvalue shifts, whose inverse is the quantity the
estimator construction targets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySum, SingularFisher
from .linalg import dagger, eigensolve, guarded

SUPPORT_RTOL = 1e-12


def default_support_threshold(dim: int) -> float:
    return SUPPORT_RTOL * dim


@dataclass(frozen=True)
class FisherMatrix:
    """D x D real symmetric Fisher matrix with optional inverse."""

    kind: str  # "quantum" | "classical" | "divergent"
    entries: np.ndarray
    inverse: np.ndarray | None = None
    condition_number: float = float("nan")


def quantum_fisher(probs: np.ndarray, basis: np.ndarray, drho, support_threshold: float | None = None) -> FisherMatrix:
    """Quantum Fisher matrix from the output spectrum and state derivatives.

    Entry (mu, nu) sums 2/(p_n + p_m) <n|d_mu rho|m><m|d_nu rho|n> over the
    support, where p_n + p_m exceeds the support threshold; this equals
    Tr[rho (L_mu L_nu + L_nu L_mu)]/2 with the symmetric logarithmic
    derivatives L_mu solving d_mu rho = (L_mu rho + rho L_mu)/2 there.
    """
    probs = np.asarray(probs, dtype=float)
    if support_threshold is None:
        support_threshold = default_support_threshold(probs.shape[0])
    psum = probs[:, None] + probs[None, :]
    mask = psum > support_threshold
    weights = np.where(mask, 2.0 / np.where(mask, psum, 1.0), 0.0)
    dmats = [dagger(basis) @ np.asarray(d, dtype=complex) @ basis for d in drho]
    num = len(dmats)
    entries = np.zeros((num, num))
    for mu in range(num):
        for nu in range(mu, num):
            val = float(np.real(np.sum(weights * dmats[mu] * dmats[nu].T)))
            entries[mu, nu] = val
            entries[nu, mu] = val
    return FisherMatrix(kind="quantum", entries=entries)


def classical_fisher(probs: np.ndarray, dprobs: np.ndarray, support_threshold: float | None = None) -> FisherMatrix:
    """Fisher matrix of the output eigenvalue distribution.

    Sums dp_mu dp_nu / p_n over the eigenvalues above the support threshold.
    """
    probs = np.asarray(probs, dtype=float)
    dprobs = np.asarray(dprobs, dtype=float)
    if support_threshold is None:
        support_threshold = default_support_threshold(probs.shape[0])
    keep = probs > support_threshold
    num = dprobs.shape[0]
    entries = np.zeros((num, num))
    for n in np.nonzero(keep)[0]:
        g = dprobs[:, n]
        entries += np.outer(g, g) / probs[n]
    return FisherMatrix(kind="classical", entries=entries)


def divergent_fisher(shift_values: np.ndarray, shift_grads: np.ndarray, included) -> FisherMatrix:
    """Divergent Fisher part: sum over first-order shifts of grad grad^T / shift.

    shift_values: the N-1 small output eigenvalues; shift_grads: (D, N-1)
    per-parameter derivatives; included: indices of order-1 shifts (others
    carry no first-order information and are excluded).
    """
    shift_values = np.asarray(shift_values, dtype=float)
    shift_grads = np.asarray(shift_grads, dtype=float)
    included = list(included)
    if not included:
        raise EmptySum("no first-order eigenvalue shift; channel not dissipative along this input")
    num = shift_grads.shape[0]
    entries = np.zeros((num, num))
    for n in included:
        g = shift_grads[:, n]
        entries += np.outer(g, g) / shift_values[n]
    return FisherMatrix(kind="divergent", entries=entries)


def sqrt_prob_gram(probs: np.ndarray, dprobs: np.ndarray, support_threshold: float | None = None) -> np.ndarray:
    """Gram matrix sum_n d(sqrt p_n)_mu d(sqrt p_n)_nu over the support."""
    probs = np.asarray(probs, dtype=float)
    dprobs = np.asarray(dprobs, dtype=float)
    if support_threshold is None:
        support_threshold = default_support_threshold(probs.shape[0])
    num = dprobs.shape[0]
    gram = np.zeros((num, num))
    for n in range(probs.shape[0]):
        if probs[n] > support_threshold:
            gs = dprobs[:, n] / (2.0 * np.sqrt(probs[n]))
            gram += np.outer(gs, gs)
    return gram


def nondegeneracy_det(probs: np.ndarray, dprobs: np.ndarray, support_threshold: float | None = None) -> float:
    """Determinant of the sqrt-probability Gram matrix.

    A vanishing determinant signals a degenerate parameterization of the
    output eigenvalue distribution (always the case for D > N-1).
    """
    return float(guarded(np.linalg.det, sqrt_prob_gram(probs, dprobs, support_threshold)))


def fisher_inverse(fm: FisherMatrix) -> FisherMatrix:
    """Populate the inverse via a Hermitian eigendecomposition.

    Raises SingularFisher when the smallest eigenvalue magnitude is at most
    1e-12 times the largest, which signals a degenerate parameterization or
    too many parameters for the system dimension.  The test does not
    depend on the number of parameters.
    """
    entries = np.asarray(fm.entries, dtype=float)
    w, v = eigensolve((entries + entries.T) / 2)
    low, high = float(np.min(np.abs(w))), float(np.max(np.abs(w)))
    if low <= 1e-12 * high:
        raise SingularFisher(f"Fisher matrix numerically singular (eigenvalue magnitudes {low:g} to {high:g})")
    inv = (v / w) @ v.T
    inv = (inv + inv.T) / 2
    return FisherMatrix(kind=fm.kind, entries=entries, inverse=inv, condition_number=high / low)


def fisher_pseudo_inverse(fm: FisherMatrix, rcond: float = 1e-12) -> FisherMatrix:
    """Moore-Penrose inverse for rank-deficient Fisher matrices.

    Used by the negative-control path when the divergent part is singular;
    the resulting estimator is only unbiased inside the row space.
    """
    entries = np.asarray(fm.entries, dtype=float)
    inv = guarded(np.linalg.pinv, (entries + entries.T) / 2, rcond=rcond, hermitian=True)
    w = np.abs(eigensolve(entries, vectors=False))
    w = w[w > rcond * np.max(w)] if np.max(w) > 0 else w
    cond = float(np.max(w) / np.min(w)) if w.size else float("inf")
    return FisherMatrix(kind=fm.kind, entries=entries, inverse=inv, condition_number=cond)


def pure_input_dominance(
    ch,
    rho_mixed: np.ndarray,
    decomposition,
    u: np.ndarray,
    eps,
    support_threshold: float | None = None,
    tol: float = 1e-8,
) -> bool:
    """Check u J[rho] u <= max_i u J[phi_i] u over a convex decomposition.

    decomposition is a list of (weight, pure state vector) reconstructing
    rho_mixed; the output Fisher information is convex in the input state,
    so some pure component always dominates the mixture.
    """
    rho_mixed = np.asarray(rho_mixed, dtype=complex)
    recon = sum(w * np.outer(np.asarray(v, complex), np.asarray(v, complex).conj()) for w, v in decomposition)
    if np.linalg.norm(recon - rho_mixed) > 1e-10:
        raise DimensionMismatch("decomposition does not reconstruct the mixed state")
    eps = np.asarray(eps, dtype=float)
    u = np.asarray(u, dtype=float)

    def quad(output: np.ndarray, derivatives: np.ndarray) -> float:
        w, v = eigensolve((output + dagger(output)) / 2)
        fm = quantum_fisher(w[::-1].copy(), v[:, ::-1].copy(), derivatives, support_threshold)
        return float(u @ fm.entries @ u)

    # the channel is linear in its input: the mixture's output and derivatives
    # are the weighted sums of its components', so each component is evaluated once
    evs = []
    for _, v in decomposition:
        v = np.asarray(v, complex)
        evs.append(ch.evaluate(np.outer(v, v.conj()), eps))
    pure_vals = [quad(ev.output, ev.derivatives) for ev in evs]
    weights = [w for w, _ in decomposition]
    mixed_val = quad(
        sum(w * ev.output for w, ev in zip(weights, evs)), sum(w * ev.derivatives for w, ev in zip(weights, evs))
    )
    scale = max(1.0, abs(mixed_val), max(abs(x) for x in pure_vals))
    return mixed_val <= max(pure_vals) + tol * scale

"""Symmetric logarithmic derivatives and Fisher information matrices.

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
class SLDSet:
    """Symmetric logarithmic derivative operators, one per parameter."""

    operators: tuple[np.ndarray, ...]
    support_threshold: float
    dropped_weight: float  # largest |<n|drho|m>| discarded by the support cutoff


def sld_operators(probs: np.ndarray, basis: np.ndarray, drho, support_threshold: float | None = None) -> SLDSet:
    """Solve d rho = (L rho + rho L)/2 for each parameter on the state's support.

    Matrix elements between basis vectors n, m are 2 <n|drho|m> / (p_n + p_m);
    elements with p_n + p_m at or below the support threshold are gauge and
    set to zero.
    """
    probs = np.asarray(probs, dtype=float)
    if support_threshold is None:
        support_threshold = default_support_threshold(probs.shape[0])
    psum = probs[:, None] + probs[None, :]
    mask = psum > support_threshold
    weights = np.where(mask, 2.0 / np.where(mask, psum, 1.0), 0.0)
    ops = []
    dropped = 0.0
    for d in drho:
        dmat = dagger(basis) @ np.asarray(d, dtype=complex) @ basis
        if np.any(~mask):
            dropped = max(dropped, float(np.max(np.abs(dmat[~mask]))))
        lmat = weights * dmat
        lmat = (lmat + dagger(lmat)) / 2
        ops.append(basis @ lmat @ dagger(basis))
    return SLDSet(operators=tuple(ops), support_threshold=float(support_threshold), dropped_weight=dropped)


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
    support; this equals Tr[rho (L_mu L_nu + L_nu L_mu)]/2 with the SLDs of
    ``sld_operators``.
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

    Raises SingularFisher when |det| falls below 1e-14 ||J||_F^D, which
    signals a degenerate parameterization or too many parameters for the
    system dimension.
    """
    entries = np.asarray(fm.entries, dtype=float)
    num = entries.shape[0]
    w, v = eigensolve((entries + entries.T) / 2)
    det = float(np.prod(w))
    scale = float(np.linalg.norm(entries))
    if abs(det) < 1e-14 * max(scale, 1e-300) ** num:
        raise SingularFisher(f"Fisher matrix numerically singular (det={det:g})")
    inv = (v / w) @ v.T
    inv = (inv + inv.T) / 2
    cond = float(np.max(np.abs(w)) / np.min(np.abs(w)))
    return FisherMatrix(kind=fm.kind, entries=entries, inverse=inv, condition_number=cond)


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

    def quad(rho_in: np.ndarray) -> float:
        ev = ch.evaluate(rho_in, eps)
        w, v = eigensolve((ev.output + dagger(ev.output)) / 2)
        w = w[::-1].copy()
        v = v[:, ::-1].copy()
        fm = quantum_fisher(w, v, ev.derivatives, support_threshold)
        return float(np.asarray(u, float) @ fm.entries @ np.asarray(u, float))

    mixed_val = quad(rho_mixed)
    pure_vals = [quad(np.outer(np.asarray(v, complex), np.asarray(v, complex).conj())) for _, v in decomposition]
    scale = max(1.0, abs(mixed_val), max(abs(x) for x in pure_vals))
    return mixed_val <= max(pure_vals) + tol * scale

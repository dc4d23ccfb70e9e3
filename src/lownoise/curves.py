"""Derivatives of Hermitian eigenvalue curves along noise-parameter directions.

Given a Hermitian matrix M(eps) and its exact derivatives d_mu M, the
eigenvalue derivatives are the Hellmann-Feynman diagonals <n|d_mu M|n>
in the base eigenbasis.  This sidesteps the curve pairing problem
entirely and survives near-degenerate spectra where matching perturbed
eigenvalue lists to base labels is ill-conditioned.

Inside degenerate clusters the base eigenvectors are first rotated to
diagonalize the restriction of d_mu M in each parameter direction, taken
in parameter order; this is exact first-order degenerate perturbation
theory whenever the restricted derivatives commute, and a documented
deterministic choice otherwise.

A stack of matrices is diagonalised by one stacked eigensolve; one
stacked pass over neighbouring eigenvalues finds the matrices that have
a cluster, only those are refined matrix by matrix, and one stacked
contraction takes every matrix's Hellmann-Feynman diagonals.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .linalg import dagger, eigensolve

CLUSTER_RTOL = 1e-10


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2


def _eigh_desc(m: np.ndarray):
    w, v = eigensolve(_sym(m))
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def _clusters(values: np.ndarray, tol: float) -> list[list[int]]:
    groups: list[list[int]] = []
    for i, x in enumerate(values):
        if groups and abs(values[groups[-1][-1]] - x) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _refine_cluster(vectors: np.ndarray, idx: list[int], perts: list[np.ndarray], depth: int, tol: float) -> None:
    if len(idx) <= 1 or depth >= len(perts):
        return
    cols = vectors[:, idx]
    restricted = _sym(dagger(cols) @ perts[depth] @ cols)
    w, r = eigensolve(restricted)
    w = w[::-1]
    r = r[:, ::-1]
    vectors[:, idx] = cols @ r
    for sub in _clusters(w, tol):
        if len(sub) > 1:
            _refine_cluster(vectors, [idx[k] for k in sub], perts, depth + 1, tol)


def eigencurve_derivatives(matrix: np.ndarray, derivatives):
    """Eigenvalues (descending), adapted eigenvectors, and per-parameter derivatives.

    derivatives[mu] is d matrix / d eps_mu.  Returns (values, vectors,
    derivs) with derivs[mu, n] = <n|d_mu matrix|n> of shape (D, N).  For a
    stack of B matrices (B, N, N) with derivatives (B, D, N, N) every
    result carries a leading B axis.  Eigenvalues within CLUSTER_RTOL times
    max(1, largest magnitude) of each other form a degenerate cluster.
    DimensionMismatch unless the shapes fit these.
    """
    matrix, derivatives = np.asarray(matrix), np.asarray(derivatives)
    fits = derivatives.ndim >= 3 and derivatives.shape[:-3] + derivatives.shape[-2:] == matrix.shape
    if not fits or matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2]:
        raise DimensionMismatch(f"derivatives of shape {derivatives.shape} do not fit matrices of shape {matrix.shape}")
    perts = _sym(derivatives)
    single = matrix.ndim == 2
    if single:
        matrix, perts = matrix[None], perts[None]
    values, vectors = _eigh_desc(matrix)
    tol = CLUSTER_RTOL * np.fmax(1.0, np.max(np.abs(values), axis=-1, initial=0.0))
    # a matrix has a cluster where two neighbouring values lie within its tolerance
    for b in np.flatnonzero(np.any(np.abs(np.diff(values, axis=-1)) <= tol[:, None], axis=-1)):
        for cluster in _clusters(values[b], tol[b]):
            if len(cluster) > 1:
                _refine_cluster(vectors[b], cluster, perts[b], 0, tol[b])
    # contiguous: a Gram sum over a strided real view rounds differently
    derivs = np.ascontiguousarray(np.einsum("bin,bmij,bjn->bmn", vectors.conj(), perts, vectors).real)
    if single:
        return values[0], vectors[0], derivs[0]
    return values, vectors, derivs

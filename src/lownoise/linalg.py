"""Dense complex linear algebra primitives and power-law order fitting.

Everything here works on plain numpy arrays. Matrices are complex 2-D
arrays; vectors are complex 1-D arrays. All functions are pure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSamples, DimensionMismatch, NoConvergence, NonHermitian

HERMITIAN_RTOL = 1e-12


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermiticity_residual(m: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part of m."""
    m = np.asarray(m)
    return float(np.linalg.norm((m - dagger(m)) / 2.0))


def require_hermitian(m: np.ndarray, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, frobenius(m))
    if frobenius(m - dagger(m)) > rtol * scale:
        raise NonHermitian(f"Hermiticity residual exceeds {rtol:g} * norm")
    return m


def guarded(solver, *args, **kwargs):
    """solver(*args, **kwargs) for a numpy solver; its LinAlgError becomes NoConvergence."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def eigensolve(m: np.ndarray, vectors: bool = True):
    """One np.linalg.eigh call, or eigvalsh without vectors; ascending order.

    Raises NoConvergence where numpy raises LinAlgError.
    """
    return guarded(np.linalg.eigh if vectors else np.linalg.eigvalsh, m)


@dataclass(frozen=True)
class PowerFit:
    """Least-squares line through (log scale, log value).

    slope estimates the power-law order; residual is the max absolute
    deviation of the log-data from the fitted line.
    """

    slope: float
    intercept: float
    residual: float


def power_order_fit(samples) -> PowerFit:
    """Fit value ~ C * scale**k on >= 4 positive samples; returns k as slope.

    samples: iterable of (scale, value) pairs, scales distinct and positive.
    """
    pts = [(float(s), float(q)) for s, q in samples]
    if len(pts) < 4:
        raise DegenerateSamples(f"need at least 4 samples, got {len(pts)}")
    scales = np.array([p[0] for p in pts])
    values = np.array([p[1] for p in pts])
    if np.any(scales <= 0) or len(np.unique(scales)) != len(scales):
        raise DegenerateSamples("scales must be distinct and positive")
    if np.any(values <= 0):
        raise DegenerateSamples("values must be positive for a log-log fit")
    x = np.log(scales)
    y = np.log(values)
    slope, intercept = guarded(np.polyfit, x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return PowerFit(slope=float(slope), intercept=float(intercept), residual=resid)


def fit_or_floor(scales, values, floor: float) -> PowerFit | None:
    """power_order_fit, or None when every |value| sits at/below the noise floor.

    A None result means the quantity is numerically zero across the sweep, which
    satisfies any decay-order claim trivially.
    """
    values = np.asarray([float(v) for v in values])
    if np.max(np.abs(values)) <= floor:
        return None
    clipped = np.maximum(values, floor * 1e-3)
    return power_order_fit(list(zip(scales, clipped)))


def richardson_zero_limit(s1: float, a1: np.ndarray, s2: float, a2: np.ndarray) -> np.ndarray:
    """Linear-in-scale extrapolation of matrix samples a(s1), a(s2) to s = 0.

    Requires s1 < s2; error is O(s1 * s2) for smooth curves.
    """
    if not 0 < s1 < s2:
        raise DegenerateSamples("need 0 < s1 < s2")
    r = s2 / s1
    return (r * np.asarray(a1) - np.asarray(a2)) / (r - 1.0)

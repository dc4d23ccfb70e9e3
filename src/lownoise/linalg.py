"""Dense complex linear algebra primitives and power-law order fitting.

Everything here works on plain numpy arrays. Matrices are complex 2-D
arrays; vectors are complex 1-D arrays. All functions are pure.  Power-law
orders are closed-form centred least squares, one call per stack: a
(..., S) stack of series over S scales is fitted in one pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSamples, DimensionMismatch, NoConvergence, NonHermitian

HERMITIAN_RTOL = 1e-12
MIN_FIT_SAMPLES = 4  # the fewest (scale, value) samples a power-law fit takes


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray) -> float | np.ndarray:
    """Frobenius norm of one matrix (a float), or of each matrix of a (B, ...) stack (a (B,) array).

    A stack's row is summed as np.linalg.norm sums one C-contiguous matrix,
    one dot product of its real parts plus one of its imaginary parts, so
    pass a C-contiguous stack for the same bits.
    """
    a = np.asarray(a)
    if a.ndim <= 2:
        return float(np.linalg.norm(a))
    x = a.reshape(a.shape[0], -1)
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return np.sqrt(sum(p[:, None, :] @ p[:, :, None] for p in parts))[:, 0, 0]


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
    """Least-squares lines through (log scale, log value): arrays over a stack's series, scalars for one.

    slope estimates the power-law order; residual is the max absolute
    deviation of the log-data from the line.  The line is NaN on a series
    at_floor.  floor_hits counts a series' samples clipped before the fit.
    """

    slope: float | np.ndarray
    intercept: float | np.ndarray
    residual: float | np.ndarray
    at_floor: bool | np.ndarray
    floor_hits: int | np.ndarray


def fit_or_floor(scales, values, floor: float) -> PowerFit:
    """Fit value ~ C * scale**k to each series of a (..., S) stack of values over S scales, in one pass.

    Closed-form centred least squares of log values on log scales,
    slope = sum y (x - mean x) / sum (x - mean x)^2; values is made
    C-contiguous, so each row is summed as a one-series call sums it.  A
    series whose every |value| is at/below floor is at_floor: numerically
    zero across the sweep, which satisfies any decay-order claim trivially.
    Samples below floor * 1e-3 are raised to it (floor_hits) before the fit;
    floor 0 clips nothing.  DimensionMismatch unless values ends in one axis
    of S; DegenerateSamples for too few, non-finite or non-positive samples.
    """
    scales, values = np.asarray(scales, dtype=float).reshape(-1), np.ascontiguousarray(values, dtype=float)
    if values.shape[-1] != scales.size:
        raise DimensionMismatch(f"values of shape {values.shape} do not end in one axis of {scales.size} scales")
    if scales.size < MIN_FIT_SAMPLES:
        raise DegenerateSamples(f"need at least {MIN_FIT_SAMPLES} samples, got {scales.size}")
    if not (np.all(np.isfinite(scales)) and np.all(np.isfinite(values))):
        raise DegenerateSamples("scales and values must be finite")
    if np.any(scales <= 0) or len(np.unique(scales)) != scales.size:
        raise DegenerateSamples("scales must be distinct and positive")
    at_floor, hits = np.max(np.abs(values), axis=-1) <= floor, np.count_nonzero(values < floor * 1e-3, axis=-1)
    clipped = np.maximum(values, floor * 1e-3)
    if np.any(clipped <= 0):  # reached only with floor <= 0
        raise DegenerateSamples("values must be positive for a log-log fit")
    x, y = np.log(scales), np.log(clipped)
    xc = x - np.mean(x)
    slope = np.sum(y * xc, axis=-1) / np.sum(xc * xc)
    intercept = np.mean(y, axis=-1) - slope * np.mean(x)
    residual = np.max(np.abs(y - (slope[..., None] * x + intercept[..., None])), axis=-1)
    line = (np.where(at_floor, np.nan, f)[()] for f in (slope, intercept, residual))
    return PowerFit(*line, at_floor=at_floor[()], floor_hits=hits[()])


def richardson_zero_limit(s1: float, a1: np.ndarray, s2: float, a2: np.ndarray) -> np.ndarray:
    """Linear-in-scale extrapolation of matrix samples a(s1), a(s2) to s = 0.

    Requires s1 < s2; error is O(s1 * s2) for smooth curves.
    """
    if not 0 < s1 < s2:
        raise DegenerateSamples("need 0 < s1 < s2")
    r = s2 / s1
    return (r * np.asarray(a1) - np.asarray(a2)) / (r - 1.0)

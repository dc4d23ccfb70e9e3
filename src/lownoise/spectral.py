"""Output-state spectral analysis: eigenvalue shifts of the channel output.

For a pure input, the output state has one near-unit eigenvalue and
N-1 small ones that grow linearly in the noise strengths.  This module
extracts those shifts three ways: directly from the output spectrum,
from the deviation matrix (the output-minus-input operator compressed
onto the orthogonal complement of the input), and from the K x K
covariance matrix of the jump operators on the input state, which
carries the same nonzero spectrum whenever K <= N-1.

``output_shift_curves`` returns one ``OutputSpectrum`` for a whole scale
grid: every point's eigenvalues, eigenbasis, (D, N) eigenvalue
``gradients`` and channel evaluation, all that downstream layers read,
each field with a leading (B,) axis.  ``spectrum[t]`` is point t alone.
Deviation and covariance matrices are plain Hermitian arrays; they take
one noise point or a (B, ...) stack of them.

``output_shift_curves``, ``deviation_matrix`` and ``jump_covariance``
also take a channel stack (``channels.stack_channels``) with one input
state per channel, a (C, N) array, through the same lines: their results
carry the stack's C axis first, and row r belongs to channel r.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .channels import LowNoiseChannel, _terms, _validate_eps, pure_state_density
from .errors import ConfigInvalid, DimensionMismatch, ReductionInvalid
from .linalg import PowerFit, dagger, eigensolve, fit_or_floor
from . import curves

ORDER_ONE_BAND = (0.85, 1.15)
SHIFT_FLOOR = 1e-13


@dataclass(frozen=True)
class OutputSpectrum:
    """Diagonalized channel output for a pure input state, at one noise point or a grid of B.

    ``output``, ``derivatives`` and ``tpcp_residual`` are the channel
    evaluation the spectrum was taken from: the output state, its exact
    eps-derivatives and the Kraus completeness residual.  On a grid every
    field carries a leading (B,) axis; the shapes below are one point's.
    """

    eps: np.ndarray
    probs: np.ndarray  # descending
    basis: np.ndarray  # unitary, columns are eigenvectors
    gradients: np.ndarray  # (D, N): gradients[mu, n] = d probs[n] / d eps_mu
    output: np.ndarray
    derivatives: np.ndarray  # (D, N, N)
    tpcp_residual: float | np.ndarray

    def shifts(self) -> np.ndarray:
        """Small eigenvalues p_1..p_{N-1}; they vanish at eps = 0."""
        return self.probs[..., 1:]

    def shift_gradients(self) -> np.ndarray:
        """(D, N-1) derivatives of the shifts: the columns 1: of gradients."""
        return self.gradients[..., 1:]

    def __getitem__(self, rows) -> OutputSpectrum:
        """Point t of a grid's spectrum for an index t, or the points rows as a grid for a list.

        Every field is a copy, so a point holds none of the grid's memory.
        """
        return OutputSpectrum(*(getattr(self, f.name)[rows].copy() for f in fields(self)))


def _fix_phases(bases: np.ndarray, phi: np.ndarray) -> None:
    """Fix, in place, the phase of every column of a (B, N, N) stack of eigenbases.

    <phi|n> becomes real and positive where it exceeds 1e-8, else the
    column's largest entry does.
    """
    for basis in bases:
        for k in range(basis.shape[1]):
            col = basis[:, k]
            overlap = np.vdot(phi, col)
            if abs(overlap) > 1e-8:
                basis[:, k] = col * (overlap.conjugate() / abs(overlap))
            else:
                j = int(np.argmax(np.abs(col)))
                pivot = col[j]
                if abs(pivot) > 0:
                    basis[:, k] = col * (pivot.conjugate() / abs(pivot))


def complement_basis(phi: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of phi (N x (N-1)).

    Gram-Schmidt over the standard basis, skipping the basis vector with
    the largest overlap with phi.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    n = phi.shape[0]
    if abs(np.linalg.norm(phi) - 1.0) > 1e-12:
        raise ConfigInvalid("input state must be normalized")
    skip = int(np.argmax(np.abs(phi)))
    cols = [phi] + [np.eye(n, dtype=complex)[:, j] for j in range(n) if j != skip]
    ortho: list[np.ndarray] = []
    for c in cols:
        for q in ortho:
            c = c - np.vdot(q, c) * q
        nc = np.linalg.norm(c)
        c = c / nc
        ortho.append(c)
    return np.column_stack(ortho[1:])


def _complement_frame(phi: np.ndarray, frame: np.ndarray | None) -> np.ndarray:
    """frame checked against phi, or ``complement_basis(phi)`` when None, one per row of a (C, N) phi.

    A given frame must be N x (N-1) with orthonormal columns orthogonal to phi.
    """
    if frame is None:
        return complement_basis(phi) if phi.ndim == 1 else np.stack([complement_basis(row) for row in phi])
    frame = np.asarray(frame, dtype=complex)
    n = phi.shape[-1]
    if frame.shape != (n, n - 1):
        raise ConfigInvalid(f"frame has shape {frame.shape}, expected {(n, n - 1)} for a {n}-level input")
    gram = dagger(frame) @ frame
    if np.linalg.norm(gram - np.eye(frame.shape[1])) > 1e-10:
        raise ConfigInvalid("frame columns must be orthonormal")
    if np.linalg.norm(dagger(frame) @ phi[..., None]) > 1e-10:
        raise ConfigInvalid("frame columns must be orthogonal to the input state")
    return frame


def output_deviation_matrix(output: np.ndarray, phi: np.ndarray, frame: np.ndarray | None = None) -> np.ndarray:
    """Full deviation matrix: output - |phi><phi| compressed to a complement frame.

    output is the channel's output state at the noise point
    (``OutputSpectrum.output``); frame defaults to ``complement_basis(phi)``.
    Returns the exact compression as an (N-1, N-1) Hermitian array.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    output = np.asarray(output, dtype=complex)
    if output.shape[-2:] != (phi.shape[0], phi.shape[0]):
        raise DimensionMismatch(f"output state has shape {output.shape}, input dimension {phi.shape[0]}")
    frame = _complement_frame(phi, frame)
    entries = dagger(frame) @ (output - pure_state_density(phi)) @ frame
    return (entries + dagger(entries)) / 2


def _input_vectors(ch: LowNoiseChannel, phi: np.ndarray) -> np.ndarray:
    """phi as a flat complex vector of the channel's dimension, or a (C, N) array of one per channel of a stack."""
    phi = np.asarray(phi, dtype=complex)
    stack = ch.jumps.shape[:-3]
    phi = phi if stack else phi.reshape(-1)
    if phi.shape[-1] != ch.dim:
        raise DimensionMismatch(f"input state has length {phi.shape[-1]}, channel dimension {ch.dim}")
    if phi.shape[:-1] != stack:
        raise DimensionMismatch(f"input states have shape {phi.shape}, expected one per channel of a stack {stack}")
    return phi


def deviation_matrix(
    ch: LowNoiseChannel,
    phi: np.ndarray,
    eps,
    frame: np.ndarray | None = None,
) -> np.ndarray:
    """Leading deviation matrix of channel[|phi><phi|] at eps in a complement frame.

    The rank-structured first-order part built from the jump operators
    alone: a Gram sum, Hermitian positive semidefinite, (N-1, N-1).  frame
    defaults to ``complement_basis(phi)``.  eps is checked as ``evaluate``
    checks it.
    """
    phi, (eps, single) = _input_vectors(ch, phi), _validate_eps(eps, ch.num_params)
    frame = _complement_frame(phi, frame)
    u = (dagger(frame)[..., None, :, :] @ (ch.jumps @ phi[..., None, :, None]))[..., 0]  # u[k] = frame^dag M_k phi
    grams = eps[:, ch.params, None, None] * (u[..., None, :, :, None] * u[..., None, :, None, :].conj())
    entries = reduce(np.add, _terms(grams), np.zeros(grams.shape[-2:], dtype=complex))
    entries = (entries + dagger(entries)) / 2
    return entries[..., 0, :, :] if single else entries


def deviation_eigenvalues(dm: np.ndarray) -> np.ndarray:
    """Eigenvalue shifts carried by a deviation matrix, descending."""
    return eigensolve(dm, vectors=False)[..., ::-1].copy()


def classify_shift_curves(scales, curve_rows) -> tuple[tuple[str, ...], PowerFit]:
    """Label each shift curve order-1 or higher-or-zero by its log-log slope; also returns the curves' stacked fit.

    curve_rows[t][i] is the i-th largest shift at scale scales[t].  A curve
    is order-1 when its slope lies in ORDER_ONE_BAND.  Curves whose
    magnitude never rises above the numerical floor are higher-or-zero
    regardless of slope (exactly degenerate directions).
    DegenerateSamples for fewer than MIN_FIT_SAMPLES scales; DimensionMismatch
    unless curve_rows is a (len(scales), n) array.
    """
    try:
        rows = np.asarray(curve_rows, dtype=float)
    except ValueError as exc:  # ragged rows
        raise DimensionMismatch(f"shift curves do not form an array: {exc}") from exc
    if rows.ndim != 2 or rows.shape[0] != len(scales):
        raise DimensionMismatch(f"shift curves have shape {rows.shape}, expected ({len(scales)}, n)")
    floor = SHIFT_FLOOR * max(1.0, float(np.max(np.abs(rows))) if rows.size else 1.0)
    fits = fit_or_floor(scales, np.abs(rows).T, floor)
    order_one = ~fits.at_floor & (ORDER_ONE_BAND[0] <= fits.slope) & (fits.slope <= ORDER_ONE_BAND[1])
    return tuple("order-1" if one else "higher-or-zero" for one in order_one.tolist()), fits


def jump_covariance(ch: LowNoiseChannel, phi: np.ndarray, eps) -> np.ndarray:
    """Entries sqrt(eps_mu) Cov(M_i, M_j) sqrt(eps_nu) over all jump operators.

    Cov(A, B) = <phi|A^dag B|phi> - <phi|A^dag|phi><phi|B|phi>.  Returns
    the K x K Hermitian PSD matrix; row i belongs to parameter
    ``ch.params[i]``.  eps is checked as ``evaluate`` checks it.
    """
    phi, (eps, single) = _input_vectors(ch, phi), _validate_eps(eps, ch.num_params)
    images = ch.jumps @ phi[..., None, :, None]  # (..., K, N, 1)
    means = (phi[..., None, None, :].conj() @ images)[..., 0]  # (..., K, 1)
    overlaps = (dagger(images)[..., :, None, :, :] @ images[..., None, :, :, :])[..., 0, 0]
    cov = overlaps - means.conj() @ means.swapaxes(-1, -2)  # conj(<M_i>) <M_j> as a rank-one matmul
    weights = eps[:, ch.params]
    entries = np.sqrt(weights[:, :, None] * weights[:, None, :]) * cov[..., None, :, :]
    entries = (entries + dagger(entries)) / 2
    return entries[..., 0, :, :] if single else entries


def reduced_shifts(lm: np.ndarray, dim: int) -> np.ndarray:
    """Nonzero eigenvalue shifts recovered from the jump covariance matrix.

    Valid when the total number of jump operators K is at most dim - 1;
    the K eigenvalues then equal the nonzero leading deviation
    eigenvalues (pad with dim - 1 - K zeros to compare full spectra).
    """
    k = lm.shape[-1]
    if k > dim - 1:
        raise ReductionInvalid(f"reduction needs K <= N-1, got K={k}, N={dim}")
    return eigensolve(lm, vectors=False)[..., ::-1].copy()


def trace_power_residual(dm_leading: np.ndarray, lm: np.ndarray, kmax: int) -> float | np.ndarray:
    """max_k |Tr Delta^k - Tr Lambda^k| for k = 1..kmax, Delta the leading deviation matrix."""
    worst = 0.0
    a = np.eye(dm_leading.shape[-1], dtype=complex)
    b = np.eye(lm.shape[-1], dtype=complex)
    for _ in range(kmax):
        a = a @ dm_leading
        b = b @ lm
        gap = np.trace(a, axis1=-2, axis2=-1) - np.trace(b, axis1=-2, axis2=-1)
        worst = np.maximum(worst, np.hypot(gap.real, gap.imag))  # as a complex scalar's abs rounds
    return worst if np.ndim(worst) else float(worst)


def output_spectrum_with_gradients(ch: LowNoiseChannel, phi: np.ndarray, eps: np.ndarray) -> OutputSpectrum:
    """Output spectrum, with its eigenvalue gradients, at one noise point.

    Row 0 of ``output_shift_curves`` on a one-point grid, with the same conventions.
    """
    return output_shift_curves(ch, phi, eps, [1.0])[0]


def output_shift_curves(
    ch: LowNoiseChannel,
    phi: np.ndarray,
    direction: np.ndarray,
    scales,
) -> OutputSpectrum:
    """Output spectrum of the grid of noise points scales[t] * direction, row t at scale t.

    Every field carries a leading (B,) axis: the shifts (``shifts()``) and
    the (B, D, N) eigenvalue-gradient array ``gradients`` (index 0 of the
    last axis is the near-unit eigenvalue; ``shift_gradients()`` is the
    rest).

    One stacked ``ch.evaluate`` gives every point's output state, its exact
    derivatives and the completeness residual, and the spectrum carries
    them for downstream consumers; one stacked eigensolve diagonalises the
    symmetrised outputs.  Eigenvalues are sorted descending.  The
    eigenvalue derivatives are Hellmann-Feynman diagonals of the state
    derivative.  Each point's basis is the cluster-refined eigenbasis,
    so degenerate eigenvectors pair correctly with their shift derivatives;
    downstream estimator construction relies on this.  Eigenvector phases
    are fixed so <phi|n> is real and non-negative whenever it is nonzero.
    A point outside the channel's validity region fails the whole call.

    A channel stack with its (C, N) inputs gives (C, B, ...) fields, the
    grid of channel r in row r; eps is every channel's grid.
    """
    phi = _input_vectors(ch, phi)
    eps = np.asarray(scales, dtype=float)[:, None] * np.asarray(direction, dtype=float).reshape(-1)
    ev = ch.evaluate(pure_state_density(phi), eps)
    values, vectors, grads = curves.eigencurve_derivatives(ev.output, ev.derivatives)
    for bases, vec in zip(vectors.reshape((-1,) + vectors.shape[-3:]), phi.reshape(-1, ch.dim)):
        _fix_phases(bases, vec)  # in place, through a view: one channel's grid at a time
    grids = np.empty(phi.shape[:-1] + eps.shape)
    grids[...] = eps  # one grid per channel, so every field indexes alike
    return OutputSpectrum(grids, values, vectors, grads, ev.output, ev.derivatives, ev.tpcp_residual)

"""Output-state spectral analysis: eigenvalue shifts of the channel output.

For a pure input, the output state has one near-unit eigenvalue and
N-1 small ones that grow linearly in the noise strengths.  This module
extracts those shifts three ways: directly from the output spectrum,
from the deviation matrix (the output-minus-input operator compressed
onto the orthogonal complement of the input), and from the K x K
covariance matrix of the jump operators on the input state, which
carries the same nonzero spectrum whenever K <= N-1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .channels import LowNoiseChannel, pure_state_density
from .errors import ConfigInvalid, DimensionMismatch, ReductionInvalid
from .linalg import PowerFit, dagger, eigensolve, fit_or_floor
from . import curves

ORDER_ONE_BAND = (0.85, 1.15)
SHIFT_FLOOR = 1e-13


@dataclass(frozen=True)
class OutputSpectrum:
    """Diagonalized channel output for a pure input state.

    ``output``, ``derivatives`` and ``tpcp_residual`` are the channel
    evaluation the spectrum was taken from: the output state, its exact
    eps-derivatives and the Kraus completeness residual.
    """

    eps: np.ndarray
    probs: np.ndarray  # descending
    basis: np.ndarray  # unitary, columns are eigenvectors
    input_state: np.ndarray
    output: np.ndarray
    derivatives: np.ndarray  # (D, N, N)
    tpcp_residual: float

    @property
    def dim(self) -> int:
        return self.probs.shape[0]

    def shifts(self) -> np.ndarray:
        """Small eigenvalues p_1..p_{N-1}; they vanish at eps = 0."""
        return self.probs[1:]


def _fix_phases(basis: np.ndarray, phi: np.ndarray) -> np.ndarray:
    out = basis.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        overlap = np.vdot(phi, col)
        if abs(overlap) > 1e-8:
            out[:, k] = col * (overlap.conjugate() / abs(overlap))
        else:
            j = int(np.argmax(np.abs(col)))
            pivot = col[j]
            if abs(pivot) > 0:
                out[:, k] = col * (pivot.conjugate() / abs(pivot))
    return out


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


@dataclass(frozen=True)
class DeviationMatrix:
    """Output-minus-input operator compressed to the complement of the input.

    variant "full" holds the exact compression of the output state at a
    noise point; variant "leading" holds the rank-structured first-order
    part built from the jump operators alone (a Gram sum, positive
    semidefinite).
    """

    entries: np.ndarray
    variant: str
    frame: np.ndarray


def _complement_frame(phi: np.ndarray, frame: np.ndarray | None) -> np.ndarray:
    """frame checked against phi, or ``complement_basis(phi)`` when None."""
    if frame is None:
        return complement_basis(phi)
    frame = np.asarray(frame, dtype=complex)
    gram = dagger(frame) @ frame
    if np.linalg.norm(gram - np.eye(frame.shape[1])) > 1e-10:
        raise ConfigInvalid("frame columns must be orthonormal")
    if np.linalg.norm(dagger(frame) @ phi) > 1e-10:
        raise ConfigInvalid("frame columns must be orthogonal to the input state")
    return frame


def output_deviation_matrix(output: np.ndarray, phi: np.ndarray, frame: np.ndarray | None = None) -> DeviationMatrix:
    """Full deviation matrix: output - |phi><phi| compressed to a complement frame.

    output is the channel's output state at the noise point
    (``OutputSpectrum.output``); frame defaults to ``complement_basis(phi)``.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    output = np.asarray(output, dtype=complex)
    if output.shape != (phi.shape[0], phi.shape[0]):
        raise DimensionMismatch(f"output state has shape {output.shape}, input dimension {phi.shape[0]}")
    frame = _complement_frame(phi, frame)
    entries = dagger(frame) @ (output - pure_state_density(phi)) @ frame
    return DeviationMatrix(entries=(entries + dagger(entries)) / 2, variant="full", frame=frame)


def deviation_matrix(
    ch: LowNoiseChannel,
    phi: np.ndarray,
    eps,
    frame: np.ndarray | None = None,
) -> DeviationMatrix:
    """Leading deviation matrix of channel[|phi><phi|] at eps in a complement frame.

    Built from the jump operators alone; frame defaults to
    ``complement_basis(phi)``.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    eps = np.asarray(eps, dtype=float)
    frame = _complement_frame(phi, frame)
    u = (dagger(frame) @ (ch.jumps @ phi)[..., None])[..., 0]  # u[k] = frame^dag M_k phi
    grams = eps[ch.params, None, None] * (u[:, :, None] * u[:, None, :].conj())
    entries = reduce(np.add, grams, np.zeros((frame.shape[1], frame.shape[1]), dtype=complex))
    return DeviationMatrix(entries=(entries + dagger(entries)) / 2, variant="leading", frame=frame)


def deviation_eigenvalues(dm: DeviationMatrix) -> np.ndarray:
    """Eigenvalue shifts carried by the deviation matrix, descending."""
    return eigensolve(dm.entries, vectors=False)[::-1].copy()


def classify_shift_curves(scales, curve_rows, band=ORDER_ONE_BAND) -> tuple[tuple[str, ...], tuple[PowerFit | None, ...]]:
    """Label each shift curve order-1 or higher-or-zero by its log-log slope.

    curve_rows[t][i] is the i-th largest shift at scale scales[t].  Curves
    whose magnitude never rises above the numerical floor are
    higher-or-zero regardless of slope (exactly degenerate directions).
    """
    rows = np.asarray(curve_rows, dtype=float)
    scales = np.asarray(scales, dtype=float)
    labels = []
    fits = []
    floor = SHIFT_FLOOR * max(1.0, float(np.max(np.abs(rows))) if rows.size else 1.0)
    for i in range(rows.shape[1]):
        vals = np.abs(rows[:, i])
        fit = fit_or_floor(scales, vals, floor)
        fits.append(fit)
        if fit is None:
            labels.append("higher-or-zero")
        elif band[0] <= fit.slope <= band[1]:
            labels.append("order-1")
        else:
            labels.append("higher-or-zero")
    return tuple(labels), tuple(fits)


@dataclass(frozen=True)
class JumpCovariance:
    """eps-weighted covariance matrix of the jump operators on the input state."""

    entries: np.ndarray  # K x K Hermitian PSD
    index: np.ndarray  # (K,) parameter of each row: the channel's parameter index
    eps: np.ndarray


def jump_covariance(ch: LowNoiseChannel, phi: np.ndarray, eps) -> JumpCovariance:
    """Entries sqrt(eps_mu) Cov(M_i, M_j) sqrt(eps_nu) over all jump operators.

    Cov(A, B) = <phi|A^dag B|phi> - <phi|A^dag|phi><phi|B|phi>.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    eps = np.asarray(eps, dtype=float)
    images = (ch.jumps @ phi)[..., None]  # (K, N, 1)
    means = phi.conj() @ images  # (K, 1)
    overlaps = (dagger(images)[:, None] @ images)[..., 0, 0]
    cov = overlaps - means.conj() @ means.T  # conj(<M_i>) <M_j> as a rank-one matmul
    weights = eps[ch.params]
    entries = np.sqrt(np.outer(weights, weights)) * cov
    return JumpCovariance(entries=(entries + dagger(entries)) / 2, index=ch.params, eps=eps)


def reduced_shifts(lm: JumpCovariance, dim: int) -> np.ndarray:
    """Nonzero eigenvalue shifts recovered from the jump covariance matrix.

    Valid when the total number of jump operators K is at most dim - 1;
    the K eigenvalues then equal the nonzero leading-variant deviation
    eigenvalues (pad with dim - 1 - K zeros to compare full spectra).
    """
    k = lm.entries.shape[0]
    if k > dim - 1:
        raise ReductionInvalid(f"reduction needs K <= N-1, got K={k}, N={dim}")
    return eigensolve(lm.entries, vectors=False)[::-1].copy()


def trace_power_residual(dm_leading: DeviationMatrix, lm: JumpCovariance, kmax: int) -> float:
    """max_k |Tr Delta^k - Tr Lambda^k| for k = 1..kmax (leading variant)."""
    if dm_leading.variant != "leading":
        raise ConfigInvalid("trace-power identity applies to the leading variant")
    worst = 0.0
    a = np.eye(dm_leading.entries.shape[0], dtype=complex)
    b = np.eye(lm.entries.shape[0], dtype=complex)
    for _ in range(kmax):
        a = a @ dm_leading.entries
        b = b @ lm.entries
        worst = max(worst, abs(np.trace(a) - np.trace(b)))
    return float(worst)


def output_spectrum_with_gradients(
    ch: LowNoiseChannel,
    phi: np.ndarray,
    eps: np.ndarray,
) -> tuple[OutputSpectrum, np.ndarray]:
    """Output spectrum plus per-parameter eigenvalue derivatives at one point.

    The one-point case of ``output_shift_curves``, with the same
    conventions; returns (spectrum, derivs) with derivs of shape (D, N).
    """
    spectra, _, grad_rows = output_shift_curves(ch, phi, eps, [1.0])
    return spectra[0], grad_rows[0]


def output_shift_curves(
    ch: LowNoiseChannel,
    phi: np.ndarray,
    direction: np.ndarray,
    scales,
):
    """Output-spectrum shift data at the noise points scales[t] * direction.

    Returns (spectra, shift_rows, grad_rows): per scale, the OutputSpectrum,
    the N-1 shifts, and the (D, N) eigenvalue-derivative array (index 0 is
    the near-unit eigenvalue).

    One stacked ``ch.evaluate`` gives every point's output state, its exact
    derivatives and the completeness residual, and each spectrum carries
    them for downstream consumers; one stacked eigensolve diagonalises the
    symmetrised outputs.  Eigenvalues are sorted descending.  The
    eigenvalue derivatives are Hellmann-Feynman diagonals of the state
    derivative.  Each spectrum's basis is the cluster-refined eigenbasis,
    so degenerate eigenvectors pair correctly with their shift derivatives;
    downstream estimator construction relies on this.  Eigenvector phases
    are fixed so <phi|n> is real and non-negative whenever it is nonzero.
    A point outside the channel's validity region fails the whole call.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    eps = np.asarray(scales, dtype=float)[:, None] * np.asarray(direction, dtype=float).reshape(-1)
    ev = ch.evaluate(pure_state_density(phi), eps)
    values, vectors, grads = curves.eigencurve_derivatives(ev.output, ev.derivatives)
    spectra = [
        OutputSpectrum(
            eps=eps[t],
            probs=values[t],
            basis=_fix_phases(vectors[t], phi),
            input_state=phi,
            output=ev.output[t],
            derivatives=ev.derivatives[t],
            tpcp_residual=float(ev.tpcp_residual[t]),
        )
        for t in range(eps.shape[0])
    ]
    return spectra, [spec.shifts() for spec in spectra], list(grads)

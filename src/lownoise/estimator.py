"""Locally unbiased estimator: commuting score operators, POVM, and errors.

The score operators are diagonal in the output eigenbasis and are held as
their eigenvalues there: d_mu shift_n / shift_n on first-order eigenvector
n (covariant), mapped through the inverse divergent Fisher matrix to a
bounded estimate vector (contravariant).  Measuring in that basis is a
projective estimator whose mean-square-error matrix matches the inverse
divergent Fisher matrix to second order in the noise strengths.

Each outcome is a group of the eigenbasis's columns, so its probability
is the sum of the output eigenvalues in the group; no N x N projector is
formed.  The Cramer-Rao margin is the smallest eigenvalue of the gap
V - J^-1, the worst case over all directions.  All but ``build_povm`` and
``sample_measurements`` also take a stack of points on a leading axis.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadProbabilities, ConfigInvalid, DimensionMismatch, EmptySum
from .fisher import FisherMatrix, included_shifts
from .linalg import dagger, eigensolve
from .spectral import OutputSpectrum

MERGE_RTOL = 1e-10


@dataclass(frozen=True)
class ScoreOperators:
    """Commuting score operators at a noise point, as eigenvalues on its output eigenbasis.

    Row k belongs to eigenvector basis[:, included[k] + 1]; the operators vanish on the others.
    """

    included: tuple[int, ...]  # shift indices (0-based into probs[1:])
    basis: np.ndarray
    log_gradients: np.ndarray  # (len(included), D): covariant eigenvalues d_mu shift_n / shift_n
    estimates: np.ndarray | None  # (len(included), D): contravariant eigenvalues, set by raise_index


def build_score_operators(spec: OutputSpectrum, included) -> ScoreOperators:
    """Covariant score operators A_mu = sum_n (d_mu shift_n / shift_n) P_n.

    The shifts, their gradients and the eigenvectors all come from spec.
    Only order-1 shifts enter; higher-or-zero shifts carry no first-order
    information and their eigenvectors are left to the kernel outcome.
    DimensionMismatch for an included index out of range or repeated.
    """
    included = included_shifts(included, spec.shifts().shape[-1])
    if not included:
        raise EmptySum("no first-order shift to build an estimator from")
    log_gradients = spec.shift_gradients()[..., included].swapaxes(-1, -2) / spec.shifts()[..., included, None]
    return ScoreOperators(included=included, basis=spec.basis, log_gradients=log_gradients, estimates=None)


def raise_index(partial: ScoreOperators, jdiv_inv: FisherMatrix) -> ScoreOperators:
    """Contravariant operators A^mu = sum_nu (Jdiv^-1)_{mu nu} A_nu.

    They share the covariant eigenbasis, so the estimate vector of shift n
    is Jdiv^-1 applied to its log-gradient row.  jdiv_inv is the divergent
    Fisher matrix as inverted by its caller: ``fisher_inverse``, or
    ``fisher_pseudo_inverse`` when it is singular (negative-control path),
    where the estimator is unbiased only inside the row space.
    """
    inv = jdiv_inv.inverse
    lg = partial.log_gradients
    if inv is None or inv.shape != lg.shape[:-2] + (lg.shape[-1],) * 2:
        raise DimensionMismatch("Fisher matrix must carry its inverse, one row and column per parameter")
    return replace(partial, estimates=lg @ inv.swapaxes(-1, -2))


@dataclass(frozen=True)
class EstimatorPOVM:
    """Projective estimator in an orthonormal basis.

    Outcome n projects onto the basis columns groups[n] and reports
    estimates[n]; the groups partition the columns.  Points that share
    the groups stack along a leading axis of basis and estimates.
    """

    groups: tuple[tuple[int, ...], ...]
    basis: np.ndarray
    estimates: np.ndarray  # (num outcomes, D)

    def completeness_residual(self) -> float:
        """||basis^H basis - I||: equal to ||sum_n P_n - I|| when the groups partition the columns."""
        return float(np.linalg.norm(dagger(self.basis) @ self.basis - np.eye(self.basis.shape[1])))


def build_povm(score: ScoreOperators) -> EstimatorPOVM:
    """Joint spectral decomposition of the contravariant score operators.

    One outcome per distinct estimate vector, grouping the eigenvectors of
    the included shifts that share it; the kernel of all score operators
    (the near-unit eigenvector and any excluded shifts) forms the
    completion outcome with estimate zero.
    """
    if score.estimates is None:
        raise EmptySum("raise_index must run before building the estimator")
    groups: list[tuple[np.ndarray, list[int]]] = []  # (estimate, basis columns)
    for x, n in zip(score.estimates, score.included):
        for gx, cols in groups:
            if np.max(np.abs(gx - x)) <= MERGE_RTOL * max(1.0, float(np.max(np.abs(gx)))):
                cols.append(n + 1)
                break
        else:
            groups.append((x, [n + 1]))
    kernel = [0] + [n + 1 for n in range(score.basis.shape[1] - 1) if n not in score.included]
    zero = np.zeros(score.estimates.shape[1])
    for gi, (gx, cols) in enumerate(groups):
        if np.max(np.abs(gx)) <= MERGE_RTOL:
            groups[gi] = (zero, cols + kernel)
            break
    else:
        groups.append((zero, kernel))
    return EstimatorPOVM(
        groups=tuple(tuple(sorted(cols)) for _, cols in groups),
        basis=score.basis,
        estimates=np.asarray([x for x, _ in groups]),
    )


def outcome_probabilities(povm: EstimatorPOVM, probs) -> np.ndarray:
    """q_n = Tr[P_n rho] for a state rho diagonal in povm.basis with eigenvalues probs.

    Each q_n is the sum of the eigenvalues in outcome n's group; the
    statistics below all read q.  DimensionMismatch unless probs has one
    eigenvalue per basis column.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != povm.basis.shape[:-1]:
        raise DimensionMismatch(f"{probs.shape} eigenvalues for a basis of shape {povm.basis.shape}")
    return np.stack([np.sum(probs[..., list(cols)], axis=-1) for cols in povm.groups], axis=-1)


def _outcomes(povm: EstimatorPOVM, q) -> np.ndarray:
    """q as a float array; DimensionMismatch unless it has one entry per outcome."""
    q = np.asarray(q, dtype=float)
    if q.shape != povm.estimates.shape[:-1]:
        raise DimensionMismatch(f"{q.shape} outcome probabilities for {povm.estimates.shape[-2]} outcomes")
    return q



def unbiasedness_residual(povm: EstimatorPOVM, q: np.ndarray, eps_true) -> np.ndarray:
    """|E[x_mu] - eps_mu| per parameter; q are the outcome probabilities at eps_true."""
    eps_true = np.asarray(eps_true, dtype=float)
    return np.abs((povm.estimates.swapaxes(-1, -2) @ _outcomes(povm, q)[..., None])[..., 0] - eps_true)


@dataclass(frozen=True)
class MSEMatrix:
    """Mean-square-error matrix about the true noise point."""

    entries: np.ndarray
    mean: np.ndarray
    standard_error: np.ndarray | None = None  # Monte Carlo estimates only


def analytic_mse(povm: EstimatorPOVM, q: np.ndarray, eps_true) -> MSEMatrix:
    """Exact second moment sum_n q_n (x_n - eps)(x_n - eps)^T.

    q are the outcome probabilities Tr[P_n rho] of the channel output rho at eps_true.
    """
    eps_true = np.asarray(eps_true, dtype=float)
    q = _outcomes(povm, q)
    dev = povm.estimates - eps_true[..., None, :]
    mean = (povm.estimates.swapaxes(-1, -2) @ q[..., None])[..., 0]
    return MSEMatrix(entries=(dev.swapaxes(-1, -2) * q[..., None, :]) @ dev, mean=mean)


def cr_direction_margin(gap: np.ndarray) -> float | np.ndarray:
    """min over unit vectors u of u (V - J^-1) u: the smallest eigenvalue of the gap's symmetric part.

    One per matrix of a stack.  NoConvergence if the eigensolver does not converge.
    """
    gap = np.asarray(gap, dtype=float)
    return eigensolve((gap + gap.swapaxes(-1, -2)) / 2, vectors=False)[..., 0]


def sample_measurements(
    povm: EstimatorPOVM,
    q: np.ndarray,
    eps_true,
    shots: int,
    seed: int,
) -> MSEMatrix:
    """Monte Carlo estimate of the mean and mean-square-error matrix.

    q are the outcome probabilities Tr[P_n rho] of the channel output rho
    at eps_true; BadProbabilities if one is negative or they do not sum to 1.

    All shots are one multinomial draw from a fresh counter-based
    ``Philox(key=[seed, 0])`` generator, so the same seed gives the same
    counts on any platform, and its cost does not grow with shots.
    ConfigInvalid if shots is below 1 or seed lies outside [0, 2**64).
    """
    if shots < 1:
        raise ConfigInvalid(f"shots must be >= 1, got {shots}")
    if not 0 <= seed < 2**64:
        raise ConfigInvalid(f"Monte Carlo seed must lie in [0, 2**64), got {seed}")
    eps_true = np.asarray(eps_true, dtype=float)
    q = _outcomes(povm, q)
    if np.any(q < -1e-8):
        raise BadProbabilities(f"negative outcome probability {np.min(q):g}")
    total = float(np.sum(q))
    if abs(total - 1.0) > 1e-8:
        raise BadProbabilities(f"outcome probabilities sum to {total!r}")
    q = np.clip(q, 0.0, None)
    q = q / np.sum(q)
    counts = np.random.Generator(np.random.Philox(key=[seed, 0])).multinomial(shots, q)

    weights = counts / shots
    dev = povm.estimates - eps_true
    sq = dev * dev
    entries = (dev.T * weights) @ dev  # first moment of each (x - eps)_mu (x - eps)_nu
    second = (sq.T * weights) @ sq  # and of its square
    se = np.sqrt(np.maximum(second - entries * entries, 0.0) / shots)
    return MSEMatrix(entries=entries, mean=povm.estimates.T @ weights, standard_error=se)

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
V - J^-1, the worst case over all directions.  Every function also takes
a stack of points on a leading axis: ``build_povm`` splits a stack into
one stacked POVM per grouping, and ``sample_measurements`` makes one
keyed draw per row of such a stack.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadProbabilities, DimensionMismatch, EmptySum, require_int
from .fisher import FisherMatrix, included_shifts
from .linalg import dagger, eigensolve, frobenius
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
    Fisher matrix as inverted by its caller: ``fisher_inverse``, or, in the
    sweep, ``fisher._kept_inverse``, whose singular rows take the
    pseudo-inverse (negative-control path), where the estimator is
    unbiased only inside the row space.
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

    def completeness_residual(self) -> float | np.ndarray:
        """||basis^H basis - I||: equal to ||sum_n P_n - I|| when the groups partition the columns.

        A float for one point, one per row for a stack.
        """
        return frobenius(dagger(self.basis) @ self.basis - np.eye(self.basis.shape[-1]))


def build_povm(score: ScoreOperators) -> EstimatorPOVM | list[tuple[list[int], EstimatorPOVM]]:
    """Joint spectral decomposition of the contravariant score operators.

    One outcome per distinct estimate vector, grouping the eigenvectors of
    the included shifts that share it; the kernel of all score operators
    (the near-unit eigenvector and any excluded shifts) forms the
    completion outcome with estimate zero.  Shifts are taken in order,
    each joining the first group whose first member's estimate lies within
    MERGE_RTOL * max(1, its largest magnitude); the first group whose
    estimate is within MERGE_RTOL of zero absorbs the kernel.

    One point gives one EstimatorPOVM.  A (B, ...) score gives a list of
    (rows, EstimatorPOVM), one stacked POVM per distinct grouping, in the
    order of their first rows; row b of a stack equals the one-point call
    on point rows[b] bit for bit.  DimensionMismatch unless the outcomes partition the basis's columns.
    """
    if score.estimates is None:
        raise EmptySum("raise_index must run before building the estimator")
    single = score.estimates.ndim == 2
    x = score.estimates[None] if single else score.estimates  # (B, K, D)
    num_shifts = x.shape[1]
    peak = np.max(np.abs(x), axis=-1)  # (B, K)
    # near[b, j, k]: shift k lies within the merge tolerance of shift j's estimate
    near = np.max(np.abs(x[:, :, None] - x[:, None]), axis=-1) <= MERGE_RTOL * np.fmax(1.0, peak)[..., None]
    first = np.zeros(peak.shape, dtype=int)  # the first member of each shift's group
    for k in range(1, num_shifts):
        joins = near[:, :k, k] & (first[:, :k] == np.arange(k))
        first[:, k] = np.where(joins.any(axis=1), joins.argmax(axis=1), k)
    zero = (first == np.arange(num_shifts)) & (peak <= MERGE_RTOL)
    absorbs = np.where(zero.any(axis=1), zero.argmax(axis=1), num_shifts)  # num_shifts: the kernel stands alone
    layouts: dict[tuple, list[int]] = {}
    for b, layout in enumerate(np.column_stack([first, absorbs]).tolist()):
        layouts.setdefault(tuple(layout), []).append(b)

    included = score.included
    kernel = [0] + [n + 1 for n in range(score.basis.shape[-1] - 1) if n not in included]
    stacks = []
    for layout, rows in layouts.items():
        heads = [j for j in range(num_shifts) if layout[j] == j]
        groups = [[included[k] + 1 for k in range(num_shifts) if layout[k] == j] for j in heads]
        estimates = np.zeros((len(rows), len(heads) + (layout[-1] == num_shifts), x.shape[-1]))
        estimates[:, : len(heads)] = x[rows][:, heads]
        if layout[-1] < num_shifts:
            g = heads.index(layout[-1])
            groups[g] += kernel
            estimates[:, g] = 0.0
        else:
            groups.append(kernel)
        groups = tuple(tuple(sorted(cols)) for cols in groups)
        if sorted(c for cols in groups for c in cols) != list(range(score.basis.shape[-1])):
            raise DimensionMismatch(f"POVM outcomes do not partition the basis: groups {groups}")
        if single:
            return EstimatorPOVM(groups=groups, basis=score.basis, estimates=estimates[0])
        stacks.append((rows, EstimatorPOVM(groups=groups, basis=score.basis[rows], estimates=estimates)))
    return stacks


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
    seed,
) -> MSEMatrix:
    """Monte Carlo estimate of the mean and mean-square-error matrix.

    q are the outcome probabilities Tr[P_n rho] of the channel output rho
    at eps_true; BadProbabilities if one is not finite or negative, or they
    do not sum to 1.

    All shots of a point are one multinomial draw from a counter-based
    Philox generator keyed by [seed, 0] at counter 0, so the same seed
    gives the same counts on any platform, and its cost does not grow with
    shots.  A stacked POVM takes (B, n) q, (B, D) eps_true and a sequence
    of B seeds: one generator is re-keyed for each row, which draws what a
    fresh generator with that key draws; with B > 1 a BadProbabilities
    error names its row.  ConfigInvalid unless shots is an integer >= 1 and
    each seed an integer in [0, 2**64); DimensionMismatch unless there is
    one seed a row.
    """
    shots = require_int(shots, "shots", 1)
    seeds = [require_int(s, "Monte Carlo seed", 0, 2**64) for s in ([seed] if povm.estimates.ndim == 2 else seed)]
    q = _outcomes(povm, q)
    estimates, q, eps_true = povm.estimates, np.atleast_2d(q), np.asarray(eps_true, dtype=float)
    if len(seeds) != len(q):
        raise DimensionMismatch(f"{len(seeds)} seeds for {len(q)} points")
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite row's sum: that row is named below
        finite, lowest, totals = np.isfinite(q).all(axis=-1), np.min(q, axis=-1), np.sum(q, axis=-1)
    bad = np.flatnonzero(~finite | (lowest < -1e-8) | (np.abs(totals - 1.0) > 1e-8))
    if bad.size:
        t = bad[0]
        where = f" in row {t}" if len(q) > 1 else ""
        if not finite[t]:
            raise BadProbabilities(f"non-finite outcome probability {q[t][~np.isfinite(q[t])][0]:g}{where}")
        if lowest[t] < -1e-8:
            raise BadProbabilities(f"negative outcome probability {lowest[t]:g}{where}")
        raise BadProbabilities(f"outcome probabilities sum to {float(totals[t])!r}{where}")
    q = np.clip(q, 0.0, None)
    q = q / np.sum(q, axis=-1, keepdims=True)
    bitgen = np.random.Philox(key=0)
    draw, fresh = np.random.Generator(bitgen), bitgen.state  # counter 0, an empty buffer
    counts = np.empty(q.shape, dtype=np.int64)
    for b, s in enumerate(seeds):
        fresh["state"]["key"] = np.array([s, 0], dtype=np.uint64)
        bitgen.state = fresh
        counts[b] = draw.multinomial(shots, q[b])

    weights = (counts / shots).reshape(estimates.shape[:-2] + (1, -1))  # a row vector per point
    dev = estimates - eps_true[..., None, :]
    sq = dev * dev
    entries = (dev.swapaxes(-1, -2) * weights) @ dev  # first moment of each (x - eps)_mu (x - eps)_nu
    second = (sq.swapaxes(-1, -2) * weights) @ sq  # and of its square
    se = np.sqrt(np.maximum(second - entries * entries, 0.0) / shots)
    mean = (estimates.swapaxes(-1, -2) @ weights.swapaxes(-1, -2))[..., 0]
    return MSEMatrix(entries=entries, mean=mean, standard_error=se)

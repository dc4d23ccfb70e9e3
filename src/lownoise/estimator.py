"""Locally unbiased estimator: commuting score operators, POVM, and errors.

The covariant score operators weight each first-order output eigenvector
by the logarithmic derivative of its eigenvalue shift; raising the index
with the inverse divergent Fisher matrix gives bounded operators whose
joint spectral decomposition defines a projective estimator.  Its
mean-square-error matrix matches the inverse divergent Fisher matrix to
second order in the noise strengths.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadProbabilities, DimensionMismatch, EmptySum
from .fisher import FisherMatrix
from .linalg import dagger
from .spectral import OutputSpectrum

MERGE_RTOL = 1e-10
# Shots per Monte Carlo block; the block grid defines the random stream.
SHOT_BLOCK = 1 << 16


@dataclass(frozen=True)
class ScoreOperators:
    """Commuting Hermitian score operators built at a reference noise point."""

    covariant: tuple[np.ndarray, ...]
    contravariant: tuple[np.ndarray, ...] | None
    included: tuple[int, ...]  # shift indices (0-based into probs[1:])
    estimates: np.ndarray | None  # per included shift, D-vector of eigenvalues
    basis: np.ndarray


def build_score_operators(spec: OutputSpectrum, included) -> ScoreOperators:
    """Covariant score operators A_mu = sum_n (d_mu shift_n / shift_n) P_n.

    The shifts, their gradients and the projectors P_n all come from spec.
    Only order-1 shifts enter; higher-or-zero shifts carry no first-order
    information and their projectors are left to the kernel outcome.
    """
    included = tuple(included)
    if not included:
        raise EmptySum("no first-order shift to build an estimator from")
    shift_values = spec.shifts()
    shift_grads = spec.shift_gradients()
    num_params = shift_grads.shape[0]
    dim = spec.basis.shape[0]
    ops = []
    for mu in range(num_params):
        acc = np.zeros((dim, dim), dtype=complex)
        for n in included:
            vec = spec.basis[:, n + 1]
            acc = acc + (shift_grads[mu, n] / shift_values[n]) * np.outer(vec, vec.conj())
        ops.append(acc)
    return ScoreOperators(
        covariant=tuple(ops),
        contravariant=None,
        included=included,
        estimates=None,
        basis=spec.basis,
    )


def raise_index(partial: ScoreOperators, jdiv_inv: FisherMatrix) -> ScoreOperators:
    """Contravariant operators A^mu = sum_nu (Jdiv^-1)_{mu nu} A_nu.

    jdiv_inv is the divergent Fisher matrix as inverted by its caller:
    ``fisher_inverse``, or ``fisher_pseudo_inverse`` when it is singular
    (negative-control path), where the estimator is unbiased only inside
    the row space.
    """
    if jdiv_inv.inverse is None:
        raise DimensionMismatch("Fisher matrix must carry its inverse")
    inv = jdiv_inv.inverse
    num_params = len(partial.covariant)
    contra = []
    for mu in range(num_params):
        acc = np.zeros_like(partial.covariant[0])
        for nu in range(num_params):
            acc = acc + inv[mu, nu] * partial.covariant[nu]
        contra.append(acc)
    # shared eigenbasis: the estimate vector of shift n is inv @ gradlog_n,
    # recovered from the covariant construction
    estimates = []
    for n in partial.included:
        vec = partial.basis[:, n + 1]
        glog = np.array([float(np.real(np.vdot(vec, a @ vec))) for a in partial.covariant])
        estimates.append(inv @ glog)
    return ScoreOperators(
        covariant=partial.covariant,
        contravariant=tuple(contra),
        included=partial.included,
        estimates=np.asarray(estimates),
        basis=partial.basis,
    )


@dataclass(frozen=True)
class EstimatorPOVM:
    """Projective estimator: orthogonal projectors with estimate vectors."""

    projectors: tuple[np.ndarray, ...]
    estimates: np.ndarray  # (num outcomes, D)

    def completeness_residual(self) -> float:
        dim = self.projectors[0].shape[0]
        return float(np.linalg.norm(sum(self.projectors) - np.eye(dim)))


def build_povm(score: ScoreOperators) -> EstimatorPOVM:
    """Joint spectral decomposition of the contravariant score operators.

    One projector per distinct estimate vector; the kernel of all score
    operators (the near-unit eigenvector and any excluded shifts) forms
    the completion outcome with estimate zero.
    """
    if score.contravariant is None or score.estimates is None:
        raise EmptySum("raise_index must run before building the estimator")
    dim = score.basis.shape[0]
    num_params = len(score.contravariant)
    groups: list[tuple[np.ndarray, np.ndarray]] = []  # (estimate, projector)
    for pos, n in enumerate(score.included):
        vec = score.basis[:, n + 1]
        proj = np.outer(vec, vec.conj())
        x = score.estimates[pos]
        merged = False
        for gi, (gx, gp) in enumerate(groups):
            if np.max(np.abs(gx - x)) <= MERGE_RTOL * max(1.0, float(np.max(np.abs(gx)))):
                groups[gi] = (gx, gp + proj)
                merged = True
                break
        if not merged:
            groups.append((x, proj))
    kernel = np.eye(dim, dtype=complex) - sum(p for _, p in groups)
    zero = np.zeros(num_params)
    zero_group = [gi for gi, (gx, _) in enumerate(groups) if np.max(np.abs(gx)) <= MERGE_RTOL]
    if zero_group:
        gi = zero_group[0]
        groups[gi] = (zero, groups[gi][1] + kernel)
    else:
        groups.append((zero, kernel))
    projectors = tuple((p + dagger(p)) / 2 for _, p in groups)
    estimates = np.asarray([x for x, _ in groups])
    return EstimatorPOVM(projectors=projectors, estimates=estimates)


def outcome_probabilities(povm: EstimatorPOVM, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != povm.projectors[0].shape:
        raise DimensionMismatch(f"state has shape {rho.shape}, estimator acts on {povm.projectors[0].shape}")
    return np.array([float(np.real(np.trace(p @ rho))) for p in povm.projectors])


def unbiasedness_residual(povm: EstimatorPOVM, rho: np.ndarray, eps_true) -> np.ndarray:
    """|E[x_mu] - eps_mu| per parameter; rho is the channel output at eps_true."""
    eps_true = np.asarray(eps_true, dtype=float)
    q = outcome_probabilities(povm, rho)
    mean = povm.estimates.T @ q
    return np.abs(mean - eps_true)


@dataclass(frozen=True)
class MSEMatrix:
    """Mean-square-error matrix about the true noise point."""

    entries: np.ndarray
    mean: np.ndarray
    standard_error: np.ndarray | None = None  # Monte Carlo estimates only


def analytic_mse(povm: EstimatorPOVM, rho: np.ndarray, eps_true) -> MSEMatrix:
    """Exact second moment sum_n q_n (x_n - eps)(x_n - eps)^T.

    rho is the channel output at eps_true; q_n = Tr[P_n rho].
    """
    eps_true = np.asarray(eps_true, dtype=float)
    q = outcome_probabilities(povm, rho)
    num_params = eps_true.shape[0]
    entries = np.zeros((num_params, num_params))
    mean = np.zeros(num_params)
    for qn, x in zip(q, povm.estimates):
        d = x - eps_true
        entries += qn * np.outer(d, d)
        mean += qn * x
    return MSEMatrix(entries=entries, mean=mean)


def cr_gap(mse: MSEMatrix, jinv: FisherMatrix) -> np.ndarray:
    """Gap matrix V - J^-1 (point-wise; aggregate order fits live in sweeps)."""
    if jinv.inverse is None:
        raise DimensionMismatch("Fisher matrix must carry its inverse")
    if mse.entries.shape != jinv.inverse.shape:
        raise DimensionMismatch("MSE and Fisher inverse have different sizes")
    return mse.entries - jinv.inverse


def cr_directions(num_directions: int, num_params: int, seed: int) -> np.ndarray:
    """num_directions random unit vectors of length num_params, one per row.

    One block drawn from the Philox stream keyed by (seed, 0x6372); row i
    holds the i-th of num_directions consecutive draws of num_params normals.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x6372]))
    directions = rng.normal(size=(num_directions, num_params))
    for u in directions:
        u /= np.linalg.norm(u)
    return directions


def cr_direction_margin(gap: np.ndarray, directions: np.ndarray) -> float:
    """min over the unit rows u of directions of u (V - J^-1) u."""
    worst = np.inf
    for u in directions:
        worst = min(worst, float(u @ gap @ u))
    return worst


def sample_measurements(
    povm: EstimatorPOVM,
    rho: np.ndarray,
    eps_true,
    shots: int,
    seed: int,
) -> MSEMatrix:
    """Monte Carlo estimate of the mean and mean-square-error matrix.

    rho is the channel output at eps_true; outcomes are drawn from
    q_n = Tr[P_n rho].

    The shots fall on a fixed grid of SHOT_BLOCK-shot blocks, the last one
    possibly partial.  Block b draws its multinomial counts from a
    counter-based Philox stream keyed by (seed, b): one generator is built
    per call and re-keyed to counter 0 before each block, which is the
    state a fresh ``Philox(key=[seed, b])`` starts in.  The same seed thus
    gives the same counts on any platform.
    """
    if shots < 1:
        raise BadProbabilities("shots must be >= 1")
    eps_true = np.asarray(eps_true, dtype=float)
    q = outcome_probabilities(povm, rho)
    if np.any(q < -1e-8):
        raise BadProbabilities(f"negative outcome probability {np.min(q):g}")
    total = float(np.sum(q))
    if abs(total - 1.0) > 1e-8:
        raise BadProbabilities(f"outcome probabilities sum to {total!r}")
    q = np.clip(q, 0.0, None)
    q = q / np.sum(q)

    bitgen = np.random.Philox(key=[seed, 0])
    rng = np.random.Generator(bitgen)
    # a fresh generator's state (counter 0, empty buffer); only the key's
    # block word changes from block to block
    state = bitgen.state
    key = state["state"]["key"]
    counts = np.zeros(len(q), dtype=np.int64)
    for b, start in enumerate(range(0, shots, SHOT_BLOCK)):
        key[1] = b
        bitgen.state = state
        counts += rng.multinomial(min(SHOT_BLOCK, shots - start), q)

    num_params = eps_true.shape[0]
    xs = povm.estimates
    dev = xs - eps_true
    weights = counts / shots
    mean = xs.T @ weights
    entries = np.zeros((num_params, num_params))
    se = np.zeros((num_params, num_params))
    for mu in range(num_params):
        for nu in range(num_params):
            w = dev[:, mu] * dev[:, nu]
            m1 = float(w @ weights)
            m2 = float((w * w) @ weights)
            entries[mu, nu] = m1
            var = max(m2 - m1 * m1, 0.0)
            se[mu, nu] = np.sqrt(var / shots)
    return MSEMatrix(entries=entries, mean=mean, standard_error=se)

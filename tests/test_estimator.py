from dataclasses import replace

import numpy as np
import pytest

from lownoise import sweep, verify
from lownoise.channels import pure_state_density, sqrt_completion_channel
from lownoise.errors import BadProbabilities, ConfigInvalid, DimensionMismatch, EmptySum, SingularFisher
from lownoise.estimator import (
    MERGE_RTOL,
    EstimatorPOVM,
    MSEMatrix,
    ScoreOperators,
    analytic_mse,
    build_povm,
    build_score_operators,
    cr_direction_margin,
    outcome_probabilities,
    raise_index,
    sample_measurements,
    unbiasedness_residual,
)
from lownoise.fisher import (
    FisherMatrix,
    _kept_inverse,
    divergent_fisher,
    fisher_inverse,
    quantum_fisher,
)
from lownoise.linalg import fit_or_floor
from lownoise.scenarios import (
    DEFAULT_SCALES,
    build_scenario,
    random_channel,
    random_input_state,
    scenario_ancilla_bell,
    scenario_threelevel,
)
from lownoise.spectral import classify_shift_curves, output_shift_curves, output_spectrum_with_gradients

SCALES = np.geomspace(1e-5, 1e-2, 8)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
# shots per block of the 65,536-shot grid that keyed the sampler's stream before
# its single draw; the sampler's key is the grid's first block
BLOCK = 1 << 16


@pytest.fixture(scope="module")
def bell():
    return scenario_ancilla_bell()


@pytest.fixture(scope="module")
def threelevel():
    return scenario_threelevel()


def dense_projectors(povm):
    """Reference: each outcome's N x N projector, the sum of |v_c><v_c| over its group's basis columns."""
    return [povm.basis[:, list(cols)] @ povm.basis[:, list(cols)].conj().T for cols in povm.groups]


def dense_probabilities(povm, rho):
    """Reference: Tr[P_n rho] for each outcome's dense projector P_n."""
    return np.array([float(np.real(np.trace(p @ rho))) for p in dense_projectors(povm)])


def score_second_moment(povm, ch, phi, eps_true):
    """Tr[rho {A^mu, A^nu}]/2 evaluated through the estimator's dense projectors."""
    rho = ch.apply(pure_state_density(phi), np.asarray(eps_true, dtype=float))
    q = dense_probabilities(povm, rho)
    num_params = povm.estimates.shape[1]
    out = np.zeros((num_params, num_params))
    for qn, x in zip(q, povm.estimates):
        out += qn * np.outer(x, x)
    return out


def one_draw_counts(q, shots, seed):
    """Counts of one multinomial draw from a fresh Philox generator keyed by the uint64 pair [seed, 0]."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))).multinomial(shots, q)


def block_grid_counts(q, shots, seed):
    """Counts summed over BLOCK-shot blocks, block b drawn from a fresh Generator(Philox(key=[seed, b]))."""
    counts = np.zeros(len(q), dtype=np.int64)
    for b, start in enumerate(range(0, shots, BLOCK)):
        counts += np.random.Generator(np.random.Philox(key=[seed, b])).multinomial(min(BLOCK, shots - start), q)
    return counts


def reference_sample(povm, q, eps_true, shots, seed, draw=one_draw_counts):
    """Monte Carlo with counts from draw(q, shots, seed), by default one fresh keyed draw.

    Returns (entries, mean, standard_error) computed as sample_measurements
    documents them, from counts drawn independently of its generator: the
    first and second moments of (x - eps)_mu (x - eps)_nu over the outcomes.
    """
    eps_true = np.asarray(eps_true, dtype=float)
    q = np.clip(q, 0.0, None)
    q = q / np.sum(q)
    counts = draw(q, shots, seed)
    xs = povm.estimates
    dev = xs - eps_true
    weights = counts / shots
    entries = (dev.T * weights) @ dev
    second = ((dev * dev).T * weights) @ (dev * dev)
    se = np.sqrt(np.maximum(second - entries * entries, 0.0) / shots)
    return entries, xs.T @ weights, se


def reference_povm(score):
    """Reference: the greedy grouping of one point, shift by shift, as a loop over its groups.

    Each shift joins the first group whose first member's estimate lies
    within MERGE_RTOL * max(1, its largest magnitude); the first group
    whose estimate is within MERGE_RTOL of zero absorbs the kernel.
    """
    groups = []  # (estimate, basis columns)
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


def loop_moments(estimates, weights, eps_true):
    """Reference: sum_n w_n (x_n - eps)(x_n - eps)^T by a loop over outcomes, and its summation error bound.

    The bound, 2 n eps sum_n |w_n (x_n - eps)(x_n - eps)^T| with eps the
    float64 machine epsilon, covers the rounding of the products and of the
    n-term sums taken in any order.
    """
    num_params = estimates.shape[1]
    first = np.zeros((num_params, num_params))
    magnitude = np.zeros((num_params, num_params))
    for w, x in zip(weights, estimates):
        d = x - eps_true
        first += w * np.outer(d, d)
        magnitude += np.abs(w * np.outer(d, d))
    return first, 2 * len(weights) * np.finfo(float).eps * magnitude


def estimator_pipeline(sc, s, included=None):
    eps = s * np.asarray(sc.sweep.direction)
    spec = output_spectrum_with_gradients(sc.channel, sc.input_state, eps)
    shifts = spec.shifts()
    if included is None:
        included = [i for i in range(shifts.shape[0]) if shifts[i] > 1e-3 * s]
    score = build_score_operators(spec, included)
    jdiv = divergent_fisher(shifts, spec.shift_gradients(), included)
    score = raise_index(score, fisher_inverse(jdiv))
    return eps, spec, jdiv, score


def dense_estimates(spec, included, inv):
    """Reference: the estimates read back from dense N x N score operators.

    Builds the D covariant operators sum_n (d_mu shift_n / shift_n) |v_n><v_n|
    and reads each included shift's log-gradient as Re<v_n|A_mu v_n>; its
    estimate is inv applied to that vector.
    """
    dim = spec.basis.shape[0]
    shifts = spec.shifts()
    grads = spec.shift_gradients()
    covariant = []
    for mu in range(grads.shape[0]):
        acc = np.zeros((dim, dim), dtype=complex)
        for n in included:
            vec = spec.basis[:, n + 1]
            acc = acc + (grads[mu, n] / shifts[n]) * np.outer(vec, vec.conj())
        covariant.append(acc)
    rows = []
    for n in included:
        vec = spec.basis[:, n + 1]
        rows.append(inv @ np.array([float(np.real(np.vdot(vec, a @ vec))) for a in covariant]))
    return np.asarray(rows)


def moment_operators(povm):
    """sum_j x_j^mu P_j per parameter: the contravariant score operators the POVM measures."""
    projectors = dense_projectors(povm)
    return [sum(x[mu] * p for x, p in zip(povm.estimates, projectors)) for mu in range(povm.estimates.shape[1])]


class TestScoreOperators:
    def test_bell_covariant_form(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        # shift index 0 is the eps_2 shift, index 1 the eps_1 shift:
        # A_1 = P_1 / eps_1 and A_2 = P_2 / eps_2 on the spectrum's eigenvectors
        assert score.included == (0, 1)
        assert score.basis is spec.basis
        want = np.array([[0.0, 1 / eps[1]], [1 / eps[0], 0.0]])
        assert np.all(np.abs(score.log_gradients - want) <= 1e-6 / eps)

    def test_bell_contravariant_bounded_projectors(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        # A^1 and A^2 are the eps_1 and eps_2 shift projectors
        assert np.max(np.abs(score.estimates - np.array([[0.0, 1.0], [1.0, 0.0]]))) <= 1e-6
        v2 = spec.basis[:, 1]
        v1 = spec.basis[:, 2]
        a1, a2 = moment_operators(build_povm(score))
        assert np.max(np.abs(a1 - np.outer(v1, v1.conj()))) <= 1e-6
        assert np.max(np.abs(a2 - np.outer(v2, v2.conj()))) <= 1e-6

    def test_single_parameter_amplitude_damping(self):
        ch = sqrt_completion_channel([[LOWER]])
        phi = np.array([0.0, 1.0], dtype=complex)
        eps = np.array([2e-3])
        spec = output_spectrum_with_gradients(ch, phi, eps)
        score = build_score_operators(spec, [0])
        assert abs(score.log_gradients[0, 0] - 1 / eps[0]) <= 1e-6 / eps[0]
        jdiv = divergent_fisher(spec.shifts(), spec.shift_gradients(), [0])
        score = raise_index(score, fisher_inverse(jdiv))
        # contravariant operator stays bounded as the noise vanishes
        assert np.max(np.abs(score.estimates)) <= 1.1

    def test_all_excluded_raises(self, bell):
        with pytest.raises(EmptySum):
            estimator_pipeline(bell, 3e-3, included=[])

    def test_covariant_operators_commute(self, threelevel):
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        vecs = spec.basis[:, [n + 1 for n in score.included]]
        a, b = [(vecs * score.log_gradients[:, mu]) @ vecs.conj().T for mu in range(2)]
        assert np.linalg.norm(a @ b - b @ a) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)
        c, d = moment_operators(build_povm(score))
        assert np.linalg.norm(c @ d - d @ c) <= 1e-10

    def test_contravariant_is_inverse_weighted_sum(self, threelevel):
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        inv = fisher_inverse(jdiv).inverse
        for mu in range(2):
            acc = inv[mu, 0] * score.log_gradients[:, 0] + inv[mu, 1] * score.log_gradients[:, 1]
            assert np.max(np.abs(score.estimates[:, mu] - acc)) <= 1e-10

    def test_inverse_of_another_size_rejected(self, threelevel):
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        with pytest.raises(DimensionMismatch):
            raise_index(score, FisherMatrix(entries=np.eye(3), inverse=np.eye(3)))


def _grid_scores(ch, phi, direction):
    """(spec, included, divergent inverse, raised score) at each grid point, the sweep's way."""
    stack = output_shift_curves(ch, phi, direction, DEFAULT_SCALES)
    labels, _ = classify_shift_curves(DEFAULT_SCALES, stack.shifts())
    included = [i for i, lab in enumerate(labels) if lab == "order-1"]
    for spec in (stack[t] for t in range(len(DEFAULT_SCALES))):
        jdiv = divergent_fisher(spec.shifts(), spec.shift_gradients(), included)
        try:
            jdiv_inv = fisher_inverse(jdiv)
        except SingularFisher:
            jdiv_inv = _kept_inverse(jdiv)[0]
        yield spec, included, jdiv_inv, raise_index(build_score_operators(spec, included), jdiv_inv)


def _estimates_and_dense_reference(ch, phi, direction):
    """Each grid point's estimates and their dense reference."""
    for spec, included, jdiv_inv, score in _grid_scores(ch, phi, direction):
        yield score.estimates, dense_estimates(spec, included, jdiv_inv.inverse)


def _random_cases(dim):
    """(channel, input state, direction) for 3 seeds at dimension dim."""
    for seed in range(3):
        num_params = 1 + seed % (dim - 1) if dim > 2 else 1
        ch = random_channel(dim, num_params, [1] * num_params, seed, with_hamiltonian=bool(seed % 2))
        yield ch, random_input_state(dim, seed), np.full(num_params, 1 / num_params)


@pytest.mark.parametrize("dim", range(2, 9))
def test_estimates_match_dense_reference_on_random_channels(dim):
    for ch, phi, direction in _random_cases(dim):
        for got, ref in _estimates_and_dense_reference(ch, phi, direction):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", range(2, 9))
def test_grouped_probabilities_match_dense_projectors_on_random_channels(dim):
    """q as grouped eigenvalue sums is Tr[P rho]; the assembled projectors form a projective measurement."""
    for ch, phi, direction in _random_cases(dim):
        for spec, included, jdiv_inv, score in _grid_scores(ch, phi, direction):
            povm = build_povm(score)
            q = outcome_probabilities(povm, spec.probs)
            ref = dense_probabilities(povm, spec.output)
            assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref))
            projectors = dense_projectors(povm)
            assert np.linalg.norm(sum(projectors) - np.eye(dim)) <= 1e-10
            for i, p in enumerate(projectors):
                assert np.linalg.norm(p @ p - p) <= 1e-10
                for other in projectors[i + 1 :]:
                    assert np.linalg.norm(p @ other) <= 1e-10


@pytest.mark.parametrize("dim", range(2, 9))
def test_moments_match_the_outcome_loop_on_random_channels(dim):
    """analytic_mse and sample_measurements sum over outcomes in array products; the loop is the reference."""
    for ch, phi, direction in _random_cases(dim):
        for spec, included, jdiv_inv, score in _grid_scores(ch, phi, direction):
            povm = build_povm(score)
            q = outcome_probabilities(povm, spec.probs)
            ref, bound = loop_moments(povm.estimates, q, spec.eps)
            assert np.all(np.abs(analytic_mse(povm, q, spec.eps).entries - ref) <= bound)
            counts = one_draw_counts(np.clip(q, 0.0, None) / np.sum(np.clip(q, 0.0, None)), 1000, 5)
            ref, bound = loop_moments(povm.estimates, counts / 1000, spec.eps)
            assert np.all(np.abs(sample_measurements(povm, q, spec.eps, 1000, 5).entries - ref) <= bound)


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
def test_estimates_match_dense_reference_on_builtins(name):
    sc = build_scenario(name)
    for got, ref in _estimates_and_dense_reference(sc.channel, sc.input_state, sc.sweep.direction):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def bell_projectors_zero(bell) -> list[np.ndarray]:
    """ancilla-bell's zero-noise projectors: the Bell input, the frame's first column, and (f2 +- f3)/sqrt(2)."""
    f1, f2, f3 = bell.frame.T
    v23p = (f2 + f3) / np.sqrt(2)
    v23m = (f2 - f3) / np.sqrt(2)
    return [np.outer(v, v.conj()) for v in (bell.input_state, f1, v23p, v23m)]


class TestBuildPOVM:
    def test_bell_projectors_match_reference_frame(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-4)
        povm = build_povm(score)
        projectors = dense_projectors(povm)
        refs = bell_projectors_zero(bell)
        # informative outcomes: the eps_1 and eps_2 shift projectors
        v23p = refs[2]
        f1 = refs[1]
        informative = [p for x, p in zip(povm.estimates, projectors) if np.max(np.abs(x)) > 1e-6]
        assert len(informative) == 2 and len(projectors) == 3
        dists = sorted(
            min(np.max(np.abs(p - f1)), np.max(np.abs(p - v23p))) for p in informative
        )
        assert dists[-1] <= 1e-9
        kernel = [p for x, p in zip(povm.estimates, projectors) if np.max(np.abs(x)) <= 1e-6]
        np.testing.assert_allclose(kernel[0], refs[0] + refs[3], atol=1e-9)

    def test_two_level_single_parameter(self):
        ch = sqrt_completion_channel([[LOWER]])
        phi = np.array([0.0, 1.0], dtype=complex)
        eps = np.array([1e-3])
        spec = output_spectrum_with_gradients(ch, phi, eps)
        score = raise_index(
            build_score_operators(spec, [0]),
            fisher_inverse(divergent_fisher(spec.shifts(), spec.shift_gradients(), [0])),
        )
        povm = build_povm(score)
        assert len(dense_projectors(povm)) == 2
        zero_rows = [x for x in povm.estimates if abs(x[0]) <= 1e-12]
        assert len(zero_rows) == 1

    def test_completeness_and_orthogonality(self, threelevel):
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        povm = build_povm(score)
        projectors = dense_projectors(povm)
        assert povm.completeness_residual() <= 1e-10
        assert np.linalg.norm(sum(projectors) - np.eye(3)) <= 1e-10
        for i, p in enumerate(projectors):
            assert np.linalg.norm(p @ p - p) <= 1e-10
            assert np.linalg.norm(p - p.conj().T) <= 1e-10
            for q in projectors[i + 1 :]:
                assert np.linalg.norm(p @ q) <= 1e-10

    def test_rescaled_shifts_leave_estimator_invariant(self, threelevel):
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        povm = build_povm(score)
        c = 3.7
        # the shifts scaled by c, their gradients left as they are
        scaled = replace(spec, probs=np.concatenate([spec.probs[:1], spec.probs[1:] * c]))
        jdiv_scaled = divergent_fisher(scaled.shifts(), scaled.shift_gradients(), [0, 1])
        score_scaled = raise_index(build_score_operators(scaled, [0, 1]), fisher_inverse(jdiv_scaled))
        povm_scaled = build_povm(score_scaled)
        assert len(dense_projectors(povm)) == len(dense_projectors(povm_scaled))
        for p, q in zip(dense_projectors(povm), dense_projectors(povm_scaled)):
            assert np.max(np.abs(p - q)) <= 1e-10
        assert np.max(np.abs(povm.estimates - povm_scaled.estimates)) <= 1e-10

    def test_outcomes_that_do_not_partition_the_basis_raise(self, threelevel):
        """Both order-1 shifts named as shift 0: column 1 lies in two outcomes and column 2 in none."""
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        broken = replace(score, included=(0, 0))
        with pytest.raises(DimensionMismatch, match="POVM outcomes do not partition the basis"):
            build_povm(broken)
        stacked = replace(broken, basis=broken.basis[None], estimates=broken.estimates[None])
        with pytest.raises(DimensionMismatch, match="POVM outcomes do not partition the basis"):
            build_povm(stacked)

    def test_sweep_records_a_broken_partition_at_each_point(self, monkeypatch):
        score_operators = sweep.est.build_score_operators

        def repeating_the_first_shift(spec, included):
            score = score_operators(spec, included)
            return replace(score, included=(score.included[0],) * len(score.included))

        monkeypatch.setattr(sweep.est, "build_score_operators", repeating_the_first_shift)
        report = sweep.run_sweep(build_scenario("three-level", seed=1))
        assert len(report.points) == len(DEFAULT_SCALES) and not report.passed
        for point in report.points:
            assert point["error"].startswith("DimensionMismatch: POVM outcomes do not partition the basis")


class TestUnbiasedness:
    def test_bell_expectation_exact(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        res = unbiasedness_residual(povm, outcome_probabilities(povm, spec.probs), eps)
        assert np.max(res) <= 1e-5  # exact appart from differencing noise

    def test_threelevel_second_order(self, threelevel):
        vals = []
        for s in SCALES:
            eps, spec, jdiv, score = estimator_pipeline(threelevel, s)
            povm = build_povm(score)
            vals.append(np.max(unbiasedness_residual(povm, outcome_probabilities(povm, spec.probs), eps)))
        fit = fit_or_floor(SCALES, vals, 0.0)
        assert 1.8 <= fit.slope <= 2.2

    def test_kernel_outcome_contributes_nothing(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        q = outcome_probabilities(povm, spec.probs)
        mean_with = povm.estimates.T @ q
        keep = [i for i in range(len(q)) if np.max(np.abs(povm.estimates[i])) > 0]
        mean_without = sum(q[i] * povm.estimates[i] for i in keep)
        np.testing.assert_allclose(mean_with, mean_without, atol=1e-15)


class TestAnalyticMSE:
    def test_bell_matches_exact_inverse(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        mse = analytic_mse(povm, outcome_probabilities(povm, spec.probs), eps)
        closed = bell.closed_forms["jinv"](eps)
        assert np.max(np.abs(mse.entries - closed)) <= 1e-9

    def test_state_of_another_dimension_rejected(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        for probs in (np.full(2, 0.5), np.eye(4) / 4):
            with pytest.raises(DimensionMismatch):
                outcome_probabilities(povm, probs)

    @pytest.mark.parametrize(
        "statistic",
        [
            unbiasedness_residual,
            analytic_mse,
            lambda povm, q, eps: sample_measurements(povm, q, eps, shots=10, seed=1),
        ],
        ids=["unbiasedness_residual", "analytic_mse", "sample_measurements"],
    )
    def test_probabilities_of_another_length_rejected(self, bell, statistic):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        q = outcome_probabilities(povm, spec.probs)
        with pytest.raises(DimensionMismatch):
            statistic(povm, q[:-1], eps)

    def test_second_moment_identity(self, threelevel):
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        povm = build_povm(score)
        mse = analytic_mse(povm, outcome_probabilities(povm, spec.probs), eps)
        second = score_second_moment(povm, threelevel.channel, threelevel.input_state, eps)
        # V = S - eps mean^T - mean eps^T + eps eps^T exactly
        recon = second - np.outer(eps, mse.mean) - np.outer(mse.mean, eps) + np.outer(eps, eps)
        assert np.max(np.abs(mse.entries - recon)) <= 1e-14

    def test_mse_vs_second_moment_second_order(self, bell):
        vals = []
        for s in SCALES:
            eps, spec, jdiv, score = estimator_pipeline(bell, s)
            povm = build_povm(score)
            mse = analytic_mse(povm, outcome_probabilities(povm, spec.probs), eps)
            second = score_second_moment(povm, bell.channel, bell.input_state, eps)
            vals.append(np.linalg.norm(mse.entries - second))
        fit = fit_or_floor(SCALES, vals, 0.0)
        assert 1.8 <= fit.slope <= 2.2

    def test_single_parameter_attains_quantum_bound(self):
        # generic input so the output eigenbasis genuinely rotates with eps
        ch = sqrt_completion_channel([[LOWER]])
        theta = 0.7
        phi = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
        gaps = []
        for s in SCALES:
            eps = np.array([s])
            spec = output_spectrum_with_gradients(ch, phi, eps)
            jdiv = divergent_fisher(spec.shifts(), spec.shift_gradients(), [0])
            score = raise_index(build_score_operators(spec, [0]), fisher_inverse(jdiv))
            povm = build_povm(score)
            mse = analytic_mse(povm, outcome_probabilities(povm, spec.probs), eps)
            jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, spec.derivatives))
            gaps.append(abs(mse.entries[0, 0] - jq.inverse[0, 0]))
        fit = fit_or_floor(SCALES, gaps, 0.0)
        assert 1.8 <= fit.slope <= 2.2

    def test_wrong_povm_fails_attainment(self, threelevel):
        # negative control: rotate the projectors away from the output eigenbasis
        rng = np.random.default_rng(11)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q_unitary, _ = np.linalg.qr(g)
        gaps = []
        for s in SCALES:
            eps, spec, jdiv, score = estimator_pipeline(threelevel, s)
            povm = build_povm(score)
            # its projectors are Q P Q^H; the output is no longer diagonal in its basis
            bad = replace(povm, basis=q_unitary @ povm.basis)
            mse = analytic_mse(bad, dense_probabilities(bad, spec.output), eps)
            jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, spec.derivatives))
            gaps.append(np.linalg.norm(mse.entries - jq.inverse))
        fit = fit_or_floor(SCALES, gaps, 0.0)
        assert fit.slope < 1.8


class TestCRGap:
    def test_exact_attainment_zero_gap(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        mse = analytic_mse(povm, outcome_probabilities(povm, spec.probs), eps)
        jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, spec.derivatives))
        gap = mse.entries - jq.inverse
        assert np.max(np.abs(gap)) <= 1e-12
        assert cr_direction_margin(gap) >= -1e-12

    def test_direction_margin_detects_violation(self):
        gap = np.diag([1.0, -0.5])
        assert cr_direction_margin(gap) < -0.3

    @pytest.mark.parametrize("num_params", [1, 2, 3, 5])
    def test_margin_is_the_worst_direction(self, num_params):
        """The smallest eigenvalue of the symmetric part bounds u gap u from below for every unit u."""
        rng = np.random.Generator(np.random.Philox(key=[num_params, 0x4D52]))
        gap = rng.normal(size=(num_params, num_params))
        margin = cr_direction_margin(gap)
        assert margin == np.linalg.eigvalsh((gap + gap.T) / 2)[0]
        directions = rng.normal(size=(1000, num_params))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        values = np.einsum("ij,jk,ik->i", directions, gap, directions)
        assert np.all(margin <= values + 1e-12 * np.linalg.norm(gap))


class TestSampling:
    def test_single_shot_rank_one(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        mc = sample_measurements(povm, outcome_probabilities(povm, spec.probs), eps, shots=1, seed=5)
        w = np.linalg.eigvalsh(mc.entries)
        assert np.sum(np.abs(w) > 1e-15) <= 1  # outer product of one outcome deviation

    def test_seed_determinism(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        q = outcome_probabilities(povm, spec.probs)
        a = sample_measurements(povm, q, eps, shots=4321, seed=7)
        b = sample_measurements(povm, q, eps, shots=4321, seed=7)
        np.testing.assert_array_equal(a.entries, b.entries)
        np.testing.assert_array_equal(a.mean, b.mean)

    def test_monte_carlo_agrees_with_analytic(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        q = outcome_probabilities(povm, spec.probs)
        analytic = analytic_mse(povm, q, eps)
        mc = sample_measurements(povm, q, eps, shots=10**6, seed=2026)
        assert np.all(np.abs(mc.entries - analytic.entries) <= 4 * mc.standard_error + 1e-300)

    def test_bad_probabilities(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        # drops an outcome's weight: probabilities no longer sum to 1
        broken = replace(povm, groups=povm.groups[:-1], estimates=povm.estimates[:-1])
        with pytest.raises(BadProbabilities):
            sample_measurements(broken, outcome_probabilities(broken, spec.probs), eps, shots=10, seed=1)

    @pytest.mark.parametrize("shots", [0, -3])
    def test_shot_count_below_one_is_a_config_error(self, bell, shots):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        with pytest.raises(ConfigInvalid):
            sample_measurements(povm, outcome_probabilities(povm, spec.probs), eps, shots=shots, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_range_is_a_config_error(self, bell, seed):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        with pytest.raises(ConfigInvalid):
            sample_measurements(povm, outcome_probabilities(povm, spec.probs), eps, shots=10, seed=seed)

    @pytest.mark.parametrize("shots, seed", [(10, 3.5), (10, "3"), (10, True), (2.5, 1), ("3", 1), (True, 1)])
    def test_count_or_seed_that_is_not_an_integer_is_a_config_error(self, bell, shots, seed):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        with pytest.raises(ConfigInvalid, match="must be an integer"):
            sample_measurements(povm, outcome_probabilities(povm, spec.probs), eps, shots=shots, seed=seed)

    def test_numpy_integers_draw_what_python_integers_draw(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        q = outcome_probabilities(povm, spec.probs)
        a = sample_measurements(povm, q, eps, shots=np.int64(1000), seed=np.uint64(2**63 + 5))
        b = sample_measurements(povm, q, eps, shots=1000, seed=2**63 + 5)
        assert np.array_equal(a.entries, b.entries) and np.array_equal(a.standard_error, b.standard_error)

    def test_verify_check_rejects_shot_count_below_one(self):
        with pytest.raises(ConfigInvalid):
            verify.check_monte_carlo(shots=0)

    @pytest.mark.parametrize("shots", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_stream_matches_one_fresh_draw(self, threelevel, shots):
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        povm = build_povm(score)
        q = outcome_probabilities(povm, spec.probs)
        mc = sample_measurements(povm, q, eps, shots=shots, seed=41)
        entries, mean, se = reference_sample(povm, q, eps, shots, 41)
        assert np.array_equal(mc.entries, entries)
        assert np.array_equal(mc.mean, mean)
        assert np.array_equal(mc.standard_error, se)

    @pytest.mark.parametrize("shots", [1, 1000, BLOCK])
    def test_draws_within_one_block_match_the_block_grid(self, threelevel, shots):
        """Up to BLOCK shots the draw is the block grid's first block: a fresh Philox(key=[seed, 0])."""
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        povm = build_povm(score)
        q = outcome_probabilities(povm, spec.probs)
        mc = sample_measurements(povm, q, eps, shots=shots, seed=41)
        entries, mean, se = reference_sample(povm, q, eps, shots, 41, draw=block_grid_counts)
        assert np.array_equal(mc.entries, entries)
        assert np.array_equal(mc.mean, mean)
        assert np.array_equal(mc.standard_error, se)

    def test_trillion_shots_agree_with_analytic(self, threelevel):
        """One draw covers 10**12 shots; the block grid would have taken 15.3 million draws."""
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        povm = build_povm(score)
        q = outcome_probabilities(povm, spec.probs)
        analytic = analytic_mse(povm, q, eps)
        mc = sample_measurements(povm, q, eps, shots=10**12, seed=2026)
        assert np.all(np.abs(mc.entries - analytic.entries) <= 4 * mc.standard_error + 1e-300)


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
def test_stacked_rows_equal_one_point_calls(name):
    """A grid's estimator through the stacked calls equals each point's one-point pipeline bit for bit."""
    sc = build_scenario(name, seed=3)
    stack = output_shift_curves(sc.channel, sc.input_state, sc.sweep.direction, sc.sweep.scales)
    labels, _ = classify_shift_curves(sc.sweep.scales, stack.shifts())
    included = [i for i, lab in enumerate(labels) if lab == "order-1"]
    jdiv = divergent_fisher(stack.shifts(), stack.shift_gradients(), included)
    score = raise_index(build_score_operators(stack, included), _kept_inverse(jdiv)[0])
    (rows, povm), = build_povm(score)  # the grid's points share one grouping
    assert rows == list(range(len(sc.sweep.scales)))
    q = outcome_probabilities(povm, stack.probs)
    bias, mse = unbiasedness_residual(povm, q, stack.eps), analytic_mse(povm, q, stack.eps)
    margins = cr_direction_margin(mse.entries)
    for t in range(len(sc.sweep.scales)):
        spec = stack[t]
        one_div = divergent_fisher(spec.shifts(), spec.shift_gradients(), included)
        one = build_povm(raise_index(build_score_operators(spec, included), _kept_inverse(one_div)[0]))
        assert np.array_equal(povm.estimates[t], one.estimates) and povm.groups == one.groups
        one_q = outcome_probabilities(one, spec.probs)
        one_mse = analytic_mse(one, one_q, spec.eps)
        assert np.array_equal(q[t], one_q)
        assert np.array_equal(bias[t], unbiasedness_residual(one, one_q, spec.eps))
        assert np.array_equal(mse.entries[t], one_mse.entries) and np.array_equal(mse.mean[t], one_mse.mean)
        assert margins[t] == cr_direction_margin(one_mse.entries)


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
def test_sweep_monte_carlo_reuses_point_estimator(monkeypatch, name):
    """Each point's mc record samples the POVM and tests against the MSE of its own analysis.

    The POVMs come from one stacked call, one stack per grouping, and the
    analytic MSE is one stacked call over a grouping's points; a POVM row
    is matched to its point by its row, an MSE row by its noise point.
    """
    built = {}  # point -> its row of its grouping's stacked POVM
    analysed = {}  # eps row -> (q, MSE) of that point
    calls = []

    def spy_povm(score):
        calls.append(build_povm(score))
        for rows, povm in calls[-1]:
            built.update((b, EstimatorPOVM(povm.groups, povm.basis[i], povm.estimates[i])) for i, b in enumerate(rows))
        return calls[-1]

    def spy_mse(povm, q, eps_true):
        mse = analytic_mse(povm, q, eps_true)
        for row, eps in enumerate(eps_true):
            analysed[tuple(eps)] = (q[row], MSEMatrix(entries=mse.entries[row], mean=mse.mean[row]))
        return mse

    monkeypatch.setattr(sweep.est, "build_povm", spy_povm)
    monkeypatch.setattr(sweep.est, "analytic_mse", spy_mse)
    sc = build_scenario(name, scales=tuple(np.geomspace(1e-5, 1e-2, 4)), seed=3)
    shots = 2 * BLOCK + 3
    report = sweep.run_sweep(sc, shots=shots)
    assert len(calls) == 1
    assert sorted(built) == list(range(len(report.points))) and len(analysed) == len(report.points)
    for t, p in enumerate(report.points):
        povm = built[t]
        q, mse = analysed[tuple(p["eps"])]
        # q are the output's outcome probabilities, read back through the dense projectors
        rho = sc.channel.apply(pure_state_density(sc.input_state), np.asarray(p["eps"]))
        assert np.max(np.abs(q - dense_probabilities(povm, rho))) <= 1e-12
        seed = 3 * 1009 + t
        entries, mean, se = reference_sample(povm, q, p["eps"], shots, seed)
        assert p["mc"] == {
            "shots": shots,
            "seed": seed,
            "mean": [float(x) for x in mean],
            "mse": [[float(x) for x in row] for row in entries],
            "standard_error": [[float(x) for x in row] for row in se],
            "within_4se_of_analytic": bool(np.all(np.abs(entries - mse.entries) <= 4.0 * se + 1e-300)),
        }


def _mixed_score():
    """A (B, K=3, D=2) score over N=5 columns whose rows group in every way build_povm distinguishes.

    Shift 3 is excluded, so the kernel is columns 0 and 4.
    """
    tol = MERGE_RTOL
    rows = [
        [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]],  # all apart; the kernel stands alone
        [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],  # shifts 0 and 2 share an estimate
        [[1.0, 0.0], [0.0, 0.0], [2.0, 2.0]],  # a zero estimate absorbs the kernel
        [[3.0, 1.0], [0.0, 2.0], [5.0, 5.0]],  # row 0's grouping, other estimates
        [[1.0, 0.0], [1.0 + tol / 100, 0.0], [0.0, 1.0]],  # within the merge tolerance
        [[tol / 100, 0.0], [0.0, 0.0], [1.0, 1.0]],  # a near-zero group: its estimate becomes exactly zero
        [[1.0, 0.0], [1.0 + 1.5 * tol, 0.0], [1.0 + 0.8 * tol, 0.0]],  # shift 2 joins the first group it matches
        [[4.0, 4.0], [4.0, 4.0], [4.0, 4.0]],  # one group
        [[tol, 0.0], [1.0, 1.0], [-tol, 0.0]],  # two near-zero groups: only the first absorbs the kernel
        [[1.0, 0.0], [0.0, 0.0], [2.0, 2.0]],  # row 2's grouping again
    ]
    estimates = np.array(rows)
    rng = np.random.Generator(np.random.Philox(key=[len(rows), 0x504F564D]))
    g = rng.normal(size=(len(rows), 5, 5)) + 1j * rng.normal(size=(len(rows), 5, 5))
    basis = np.linalg.qr(g)[0]
    return ScoreOperators(included=(0, 1, 2), basis=basis, log_gradients=estimates.copy(), estimates=estimates)


def _one_point(score, b):
    return replace(score, basis=score.basis[b], log_gradients=score.log_gradients[b], estimates=score.estimates[b])


@pytest.mark.parametrize("source", ["mixed", "random-grids"])
def test_stacked_povm_rows_equal_one_point_calls(source):
    """One stacked POVM per grouping; each row equals the one-point call and the reference loop bit for bit."""
    if source == "mixed":
        scores = [_mixed_score()]
    else:
        scores = []
        for dim in (3, 5):
            for ch, phi, direction in _random_cases(dim):
                stack = output_shift_curves(ch, phi, direction, DEFAULT_SCALES)
                labels, _ = classify_shift_curves(DEFAULT_SCALES, stack.shifts())
                included = [i for i, lab in enumerate(labels) if lab == "order-1"]
                jdiv = divergent_fisher(stack.shifts(), stack.shift_gradients(), included)
                scores.append(raise_index(build_score_operators(stack, included), _kept_inverse(jdiv)[0]))
    for score in scores:
        stacks = build_povm(score)
        refs = [reference_povm(_one_point(score, b)) for b in range(len(score.estimates))]
        assert sorted(b for rows, _ in stacks for b in rows) == list(range(len(refs)))
        assert [povm.groups for _, povm in stacks] == list(dict.fromkeys(ref.groups for ref in refs))
        for rows, povm in stacks:
            for i, b in enumerate(rows):
                one = build_povm(_one_point(score, b))
                assert povm.groups == one.groups == refs[b].groups
                assert np.array_equal(povm.estimates[i], one.estimates)
                assert np.array_equal(one.estimates, refs[b].estimates)
                assert np.array_equal(povm.basis[i], score.basis[b])
            residuals = povm.completeness_residual()
            assert residuals.shape == (len(rows),)
            assert all(residuals[i] == build_povm(_one_point(score, b)).completeness_residual()
                       for i, b in enumerate(rows))
    if source == "mixed":
        groups = {b: povm.groups for rows, povm in stacks for b in rows}
        assert groups[2] == ((1,), (0, 2, 4), (3,))  # the zero-estimate group took the kernel
        assert groups[8] == ((0, 1, 4), (2,), (3,))
        assert groups[6] == groups[1] == ((1, 3), (2,), (0, 4)) and len(stacks) == 7
        assert not np.any(next(p for rows, p in stacks if 5 in rows).estimates[:, 0])


def _threelevel_stack(threelevel):
    """The three-level grid's one stacked POVM, its (B, n) q and its (B, D) eps."""
    stack = output_shift_curves(threelevel.channel, threelevel.input_state, threelevel.sweep.direction, SCALES)
    score = raise_index(build_score_operators(stack, [0, 1]),
                        fisher_inverse(divergent_fisher(stack.shifts(), stack.shift_gradients(), [0, 1])))
    (rows, povm), = build_povm(score)
    assert rows == list(range(len(SCALES)))
    return povm, outcome_probabilities(povm, stack.probs), stack.eps


@pytest.mark.parametrize("shots", [1, 10**12])
def test_stacked_sampling_rows_equal_one_point_calls(threelevel, shots):
    """Each row of a stacked draw, one generator re-keyed per row, equals the one-point call and a fresh keyed draw."""
    povm, q, eps = _threelevel_stack(threelevel)
    seeds = [0, 41, 7, 2**63, 2**63 + 1, 2**64 - 1, 41, 3 * 1009 + 5]
    mc = sample_measurements(povm, q, eps, shots, seeds)
    assert mc.entries.shape == (len(seeds), 2, 2) and mc.mean.shape == (len(seeds), 2)
    for t, seed in enumerate(seeds):
        row = EstimatorPOVM(povm.groups, povm.basis[t], povm.estimates[t])
        one = sample_measurements(row, q[t], eps[t], shots, seed)
        entries, mean, se = reference_sample(row, q[t], eps[t], shots, seed)
        for got, want, ref in ((mc.entries, one.entries, entries), (mc.mean, one.mean, mean),
                               (mc.standard_error, one.standard_error, se)):
            assert np.array_equal(got[t], want) and np.array_equal(want, ref)


def test_keys_above_2_63_draw_distinct_counts(threelevel):
    """Every key in [0, 2**64) is used as it is: neighbouring keys above 2**63 do not share a draw."""
    povm, q, eps = _threelevel_stack(threelevel)
    row = EstimatorPOVM(povm.groups, povm.basis[0], povm.estimates[0])
    draws = [sample_measurements(row, q[0], eps[0], 10**6, seed).mean for seed in (2**63, 2**63 + 1, 2**64 - 1, 0)]
    assert all(not np.array_equal(a, b) for i, a in enumerate(draws) for b in draws[i + 1:])


def test_bad_probabilities_name_their_row(threelevel):
    povm, q, eps = _threelevel_stack(threelevel)
    seeds = list(range(len(q)))
    for t in (0, 3):
        for broken, message in ((q[t] + 0.01, f"sum to .* in row {t}$"), (q[t] - [0.1, 0, 0], f"-0.09.* in row {t}$")):
            bad = q.copy()
            bad[t] = broken
            with pytest.raises(BadProbabilities, match=message):
                sample_measurements(povm, bad, eps, 10, seeds)
    with pytest.raises(DimensionMismatch):
        sample_measurements(povm, q, eps, 10, seeds[:-1])


def test_bad_probabilities_fail_only_their_point(monkeypatch):
    """A stacked draw that raises for one row runs again point by point, and only that point fails."""
    sc = build_scenario("three-level", seed=1)
    clean = sweep.run_sweep(sc, shots=1000)
    target = np.asarray(clean.points[3]["probs"])
    probabilities = sweep.est.outcome_probabilities

    def skewed(povm, probs):
        q = probabilities(povm, probs)
        return q + 0.01 * np.all(probs == target, axis=-1)[:, None]  # 0.03 over three outcomes

    monkeypatch.setattr(sweep.est, "outcome_probabilities", skewed)
    report = sweep.run_sweep(sc, shots=1000)
    assert report.points[3]["error"].startswith("BadProbabilities: outcome probabilities sum to 1.03")
    assert "row" not in report.points[3]["error"]
    assert [p for t, p in enumerate(report.points) if t != 3] == [p for t, p in enumerate(clean.points) if t != 3]
    assert not report.passed


def test_records_of_mixed_groupings_equal_one_point_records(monkeypatch):
    """A grid whose points group two ways: each grouping's stacked tail gives every row its one-row record."""
    monkeypatch.setattr(sweep.est, "MERGE_RTOL", 3.995)  # merges the two estimate rows at the largest scale only
    sc = build_scenario("three-level", seed=1)
    spec = output_shift_curves(sc.channel, sc.input_state, sc.sweep.direction, sc.sweep.scales)
    labels, _ = classify_shift_curves(sc.sweep.scales, spec.shifts())
    rows = list(range(len(sc.sweep.scales)))
    stacked = sweep._points(sweep._records(sc, rows, spec, labels, 1000))
    assert [len(p["estimates"]) for p in stacked] == [3] * (len(rows) - 1) + [2]
    for t in rows:
        assert stacked[t] == sweep._points(sweep._records(sc, [t], spec[[t]], labels, 1000))[0]

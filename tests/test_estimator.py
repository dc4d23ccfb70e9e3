from dataclasses import replace

import numpy as np
import pytest

from lownoise import sweep
from lownoise.channels import pure_state_density, sqrt_completion_channel
from lownoise.errors import BadProbabilities, DimensionMismatch, EmptySum, SingularFisher
from lownoise.estimator import (
    SHOT_BLOCK,
    EstimatorPOVM,
    analytic_mse,
    build_povm,
    build_score_operators,
    cr_direction_margin,
    cr_directions,
    cr_gap,
    outcome_probabilities,
    raise_index,
    sample_measurements,
    unbiasedness_residual,
)
from lownoise.fisher import (
    FisherMatrix,
    divergent_fisher,
    fisher_inverse,
    fisher_pseudo_inverse,
    quantum_fisher,
)
from lownoise.linalg import power_order_fit
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


@pytest.fixture(scope="module")
def bell():
    return scenario_ancilla_bell()


@pytest.fixture(scope="module")
def threelevel():
    return scenario_threelevel()


def score_second_moment(povm, ch, phi, eps_true):
    """Tr[rho {A^mu, A^nu}]/2 evaluated through the estimator's outcomes."""
    rho = ch.apply(pure_state_density(phi), np.asarray(eps_true, dtype=float))
    q = outcome_probabilities(povm, rho)
    num_params = povm.estimates.shape[1]
    out = np.zeros((num_params, num_params))
    for qn, x in zip(q, povm.estimates):
        out += qn * np.outer(x, x)
    return out


def reference_sample(povm, ch, phi, eps_true, shots, seed):
    """Monte Carlo with a fresh Generator(Philox(key=[seed, b])) for every block b.

    Returns (entries, mean, standard_error) computed as sample_measurements
    documents them, from counts drawn independently of its re-keyed generator.
    """
    eps_true = np.asarray(eps_true, dtype=float)
    q = outcome_probabilities(povm, ch.apply(pure_state_density(phi), eps_true))
    q = np.clip(q, 0.0, None)
    q = q / np.sum(q)
    num_blocks = (shots + SHOT_BLOCK - 1) // SHOT_BLOCK
    counts = np.zeros(len(q), dtype=np.int64)
    for b in range(num_blocks):
        n = shots - SHOT_BLOCK * b if b == num_blocks - 1 else SHOT_BLOCK
        counts += np.random.Generator(np.random.Philox(key=[seed, b])).multinomial(n, q)
    xs = povm.estimates
    dev = xs - eps_true
    weights = counts / shots
    num_params = eps_true.shape[0]
    entries = np.zeros((num_params, num_params))
    se = np.zeros((num_params, num_params))
    for mu in range(num_params):
        for nu in range(num_params):
            w = dev[:, mu] * dev[:, nu]
            m1 = float(w @ weights)
            m2 = float((w * w) @ weights)
            entries[mu, nu] = m1
            se[mu, nu] = np.sqrt(max(m2 - m1 * m1, 0.0) / shots)
    return entries, xs.T @ weights, se


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
    return [sum(x[mu] * p for x, p in zip(povm.estimates, povm.projectors)) for mu in range(povm.estimates.shape[1])]


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


def _estimates_and_dense_reference(ch, phi, direction):
    """Each grid point's estimates and their dense reference, the sweep's way."""
    specs = output_shift_curves(ch, phi, direction, DEFAULT_SCALES)
    labels, _ = classify_shift_curves(DEFAULT_SCALES, [spec.shifts() for spec in specs])
    included = [i for i, lab in enumerate(labels) if lab == "order-1"]
    for spec in specs:
        jdiv = divergent_fisher(spec.shifts(), spec.shift_gradients(), included)
        try:
            jdiv_inv = fisher_inverse(jdiv)
        except SingularFisher:
            jdiv_inv = fisher_pseudo_inverse(jdiv)
        score = raise_index(build_score_operators(spec, included), jdiv_inv)
        yield score.estimates, dense_estimates(spec, included, jdiv_inv.inverse)


@pytest.mark.parametrize("dim", range(2, 9))
def test_estimates_match_dense_reference_on_random_channels(dim):
    for seed in range(3):
        num_params = 1 + seed % (dim - 1) if dim > 2 else 1
        ch = random_channel(dim, num_params, [1] * num_params, seed, with_hamiltonian=bool(seed % 2))
        phi = random_input_state(dim, seed)
        for got, ref in _estimates_and_dense_reference(ch, phi, np.full(num_params, 1 / num_params)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
def test_estimates_match_dense_reference_on_builtins(name):
    sc = build_scenario(name)
    for got, ref in _estimates_and_dense_reference(sc.channel, sc.input_state, sc.sweep.direction):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestBuildPOVM:
    def test_bell_projectors_match_reference_frame(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-4)
        povm = build_povm(score)
        refs = bell.closed_forms["projectors_zero"]()
        # informative outcomes: the eps_1 and eps_2 shift projectors
        v23p = refs[2]
        f1 = refs[1]
        got = {tuple(np.round(x, 6)): p for x, p in zip(povm.estimates, povm.projectors)}
        informative = [p for x, p in zip(povm.estimates, povm.projectors) if np.max(np.abs(x)) > 1e-6]
        assert len(informative) == 2 and len(povm.projectors) == 3
        dists = sorted(
            min(np.max(np.abs(p - f1)), np.max(np.abs(p - v23p))) for p in informative
        )
        assert dists[-1] <= 1e-9
        kernel = [p for x, p in zip(povm.estimates, povm.projectors) if np.max(np.abs(x)) <= 1e-6]
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
        assert len(povm.projectors) == 2
        zero_rows = [x for x in povm.estimates if abs(x[0]) <= 1e-12]
        assert len(zero_rows) == 1

    def test_completeness_and_orthogonality(self, threelevel):
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        povm = build_povm(score)
        assert povm.completeness_residual() <= 1e-10
        for i, p in enumerate(povm.projectors):
            assert np.linalg.norm(p @ p - p) <= 1e-10
            assert np.linalg.norm(p - p.conj().T) <= 1e-10
            for q in povm.projectors[i + 1 :]:
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
        assert len(povm.projectors) == len(povm_scaled.projectors)
        for p, q in zip(povm.projectors, povm_scaled.projectors):
            assert np.max(np.abs(p - q)) <= 1e-10
        assert np.max(np.abs(povm.estimates - povm_scaled.estimates)) <= 1e-10


class TestUnbiasedness:
    def test_bell_expectation_exact(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        res = unbiasedness_residual(povm, spec.output, eps)
        assert np.max(res) <= 1e-5  # exact appart from differencing noise

    def test_threelevel_second_order(self, threelevel):
        vals = []
        for s in SCALES:
            eps, spec, jdiv, score = estimator_pipeline(threelevel, s)
            povm = build_povm(score)
            vals.append(np.max(unbiasedness_residual(povm, spec.output, eps)))
        fit = power_order_fit(list(zip(SCALES, vals)))
        assert 1.8 <= fit.slope <= 2.2

    def test_kernel_outcome_contributes_nothing(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        q = outcome_probabilities(povm, spec.output)
        mean_with = povm.estimates.T @ q
        keep = [i for i in range(len(q)) if np.max(np.abs(povm.estimates[i])) > 0]
        mean_without = sum(q[i] * povm.estimates[i] for i in keep)
        np.testing.assert_allclose(mean_with, mean_without, atol=1e-15)


class TestAnalyticMSE:
    def test_bell_matches_exact_inverse(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        mse = analytic_mse(povm, spec.output, eps)
        closed = bell.closed_forms["jinv"](eps)
        assert np.max(np.abs(mse.entries - closed)) <= 1e-9

    def test_state_of_another_dimension_rejected(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        with pytest.raises(DimensionMismatch):
            analytic_mse(povm, np.eye(2, dtype=complex) / 2, eps)

    def test_second_moment_identity(self, threelevel):
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        povm = build_povm(score)
        mse = analytic_mse(povm, spec.output, eps)
        second = score_second_moment(povm, threelevel.channel, threelevel.input_state, eps)
        # V = S - eps mean^T - mean eps^T + eps eps^T exactly
        recon = second - np.outer(eps, mse.mean) - np.outer(mse.mean, eps) + np.outer(eps, eps)
        assert np.max(np.abs(mse.entries - recon)) <= 1e-14

    def test_mse_vs_second_moment_second_order(self, bell):
        vals = []
        for s in SCALES:
            eps, spec, jdiv, score = estimator_pipeline(bell, s)
            povm = build_povm(score)
            mse = analytic_mse(povm, spec.output, eps)
            second = score_second_moment(povm, bell.channel, bell.input_state, eps)
            vals.append(np.linalg.norm(mse.entries - second))
        fit = power_order_fit(list(zip(SCALES, vals)))
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
            mse = analytic_mse(povm, spec.output, eps)
            jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, spec.derivatives))
            gaps.append(abs(mse.entries[0, 0] - jq.inverse[0, 0]))
        fit = power_order_fit(list(zip(SCALES, gaps)))
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
            bad = EstimatorPOVM(
                projectors=tuple(q_unitary @ p @ q_unitary.conj().T for p in povm.projectors),
                estimates=povm.estimates,
            )
            mse = analytic_mse(bad, spec.output, eps)
            jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, spec.derivatives))
            gaps.append(np.linalg.norm(mse.entries - jq.inverse))
        fit = power_order_fit(list(zip(SCALES, gaps)))
        assert fit.slope < 1.8


class TestCRGap:
    def test_exact_attainment_zero_gap(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        mse = analytic_mse(povm, spec.output, eps)
        jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, spec.derivatives))
        gap = cr_gap(mse, jq)
        assert np.max(np.abs(gap)) <= 1e-12
        assert cr_direction_margin(gap, cr_directions(100, 2, seed=1)) >= -1e-12

    def test_directions_match_single_draws(self):
        directions = cr_directions(100, 3, seed=7)
        rng = np.random.Generator(np.random.Philox(key=[7, 0x6372]))
        for u in directions:
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            assert np.array_equal(u, v)

    def test_direction_margin_detects_violation(self):
        gap = np.diag([1.0, -0.5])
        assert cr_direction_margin(gap, cr_directions(200, 2, seed=2)) < -0.3


class TestSampling:
    def test_single_shot_rank_one(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        mc = sample_measurements(povm, spec.output, eps, shots=1, seed=5)
        w = np.linalg.eigvalsh(mc.entries)
        assert np.sum(np.abs(w) > 1e-15) <= 1  # outer product of one outcome deviation

    def test_seed_determinism(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        a = sample_measurements(povm, spec.output, eps, shots=4321, seed=7)
        b = sample_measurements(povm, spec.output, eps, shots=4321, seed=7)
        np.testing.assert_array_equal(a.entries, b.entries)
        np.testing.assert_array_equal(a.mean, b.mean)

    def test_monte_carlo_agrees_with_analytic(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        analytic = analytic_mse(povm, spec.output, eps)
        mc = sample_measurements(povm, spec.output, eps, shots=10**6, seed=2026)
        assert np.all(np.abs(mc.entries - analytic.entries) <= 4 * mc.standard_error + 1e-300)

    def test_bad_probabilities(self, bell):
        eps, spec, jdiv, score = estimator_pipeline(bell, 3e-3)
        povm = build_povm(score)
        broken = EstimatorPOVM(
            projectors=povm.projectors[:-1],  # drops weight: probabilities no longer sum to 1
            estimates=povm.estimates[:-1],
        )
        with pytest.raises(BadProbabilities):
            sample_measurements(broken, spec.output, eps, shots=10, seed=1)

    @pytest.mark.parametrize("shots", [1, SHOT_BLOCK, SHOT_BLOCK + 1, 3 * SHOT_BLOCK + 5])
    def test_stream_matches_fresh_generator_per_block(self, threelevel, shots):
        eps, spec, jdiv, score = estimator_pipeline(threelevel, 1e-3)
        povm = build_povm(score)
        mc = sample_measurements(povm, spec.output, eps, shots=shots, seed=41)
        entries, mean, se = reference_sample(povm, threelevel.channel, threelevel.input_state, eps, shots, 41)
        assert np.array_equal(mc.entries, entries)
        assert np.array_equal(mc.mean, mean)
        assert np.array_equal(mc.standard_error, se)


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
def test_sweep_monte_carlo_reuses_point_estimator(monkeypatch, name):
    """Each point's mc record samples the POVM and tests against the MSE of its own analysis."""
    built = []
    mses = []

    def spy_povm(score):
        built.append(build_povm(score))
        return built[-1]

    def spy_mse(povm, rho, eps_true):
        mses.append(analytic_mse(povm, rho, eps_true))
        return mses[-1]

    monkeypatch.setattr(sweep.est, "build_povm", spy_povm)
    monkeypatch.setattr(sweep.est, "analytic_mse", spy_mse)
    sc = build_scenario(name, scales=tuple(np.geomspace(1e-5, 1e-2, 4)), seed=3)
    shots = 2 * SHOT_BLOCK + 3
    report = sweep.run_sweep(sc, shots=shots)
    assert len(built) == len(mses) == len(report.points)
    for t, (p, povm, mse) in enumerate(zip(report.points, built, mses)):
        seed = 3 * 1009 + t
        entries, mean, se = reference_sample(povm, sc.channel, sc.input_state, p["eps"], shots, seed)
        assert p["mc"] == {
            "shots": shots,
            "seed": seed,
            "mean": [float(x) for x in mean],
            "mse": [[float(x) for x in row] for row in entries],
            "standard_error": [[float(x) for x in row] for row in se],
            "within_4se_of_analytic": bool(np.all(np.abs(entries - mse.entries) <= 4.0 * se + 1e-300)),
        }

import numpy as np
import pytest

from lownoise.channels import pure_state_density, sqrt_completion_channel
from lownoise.errors import ConfigInvalid, DimensionMismatch, ReductionInvalid
from lownoise.linalg import power_order_fit
from lownoise.scenarios import (
    random_channel,
    random_input_state,
    scenario_ancilla_bell,
    scenario_pauli2,
    scenario_threelevel,
)
from lownoise.spectral import (
    classify_shift_curves,
    complement_basis,
    deviation_eigenvalues,
    deviation_matrix,
    jump_covariance,
    output_deviation_matrix,
    output_shift_curves,
    output_spectrum_with_gradients,
    reduced_shifts,
    trace_power_residual,
)

SCALES = np.geomspace(1e-5, 1e-2, 8)


@pytest.fixture(scope="module")
def bell():
    return scenario_ancilla_bell()


@pytest.fixture(scope="module")
def threelevel():
    return scenario_threelevel()


class TestDiagonalizeOutput:
    def test_zero_noise_is_input_projector(self, threelevel):
        spec, _ = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, np.zeros(2))
        np.testing.assert_allclose(spec.probs, [1, 0, 0], atol=1e-14)
        assert abs(np.vdot(spec.basis[:, 0], threelevel.input_state)) >= 1 - 1e-10

    def test_bell_probs_exact(self, bell):
        eps = np.array([1e-3, 2e-3])
        spec, _ = output_spectrum_with_gradients(bell.channel, bell.input_state, eps)
        np.testing.assert_allclose(spec.probs, [1 - 3e-3, 2e-3, 1e-3, 0.0], atol=1e-14)

    def test_threelevel_probs_match_closed_shifts(self, threelevel):
        for s in (1e-4, 1e-3):
            eps = s * np.asarray(threelevel.sweep.direction)
            spec, _ = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, eps)
            dp = threelevel.closed_forms["shifts"](eps)
            want = np.array([1 - dp.sum(), dp[0], dp[1]])
            assert np.max(np.abs(spec.probs - want)) <= 10 * s * s

    def test_probability_invariants(self, threelevel):
        for s in SCALES:
            eps = s * np.asarray(threelevel.sweep.direction)
            spec, _ = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, eps)
            assert abs(spec.probs.sum() - 1) <= 1e-12
            assert spec.probs.min() >= -1e-12
            assert 1 - spec.probs[0] <= 4.0 * np.sum(eps)

    def test_phase_convention(self, threelevel):
        eps = np.array([1e-3, 1e-3])
        spec, _ = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, eps)
        overlap = np.vdot(threelevel.input_state, spec.basis[:, 0])
        assert abs(overlap.imag) <= 1e-12 and overlap.real > 0


class TestComplementBasis:
    def test_standard_basis_case(self):
        v = complement_basis(np.array([1.0, 0.0, 0.0], dtype=complex))
        np.testing.assert_allclose(v, np.eye(3, dtype=complex)[:, 1:], atol=1e-15)

    def test_nearly_normalized_input_rejected(self):
        with pytest.raises(ConfigInvalid):
            complement_basis(np.array([1.0 + 5e-6, 0.0, 0.0], dtype=complex))

    def test_orthonormal_completion(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            phi = rng.normal(size=4) + 1j * rng.normal(size=4)
            phi /= np.linalg.norm(phi)
            v = complement_basis(phi)
            full = np.column_stack([phi, v])
            assert np.linalg.norm(full.conj().T @ full - np.eye(4)) <= 1e-12

    def test_deviation_eigenvalues_frame_invariant(self, threelevel):
        eps = np.array([2e-3, 1e-3])
        phi = threelevel.input_state
        frame = complement_basis(phi)
        rng = np.random.default_rng(3)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(g)
        rotated = frame @ q
        out = threelevel.channel.apply(pure_state_density(phi), eps)
        a = deviation_eigenvalues(output_deviation_matrix(out, phi, frame))
        b = deviation_eigenvalues(output_deviation_matrix(out, phi, rotated))
        assert np.max(np.abs(a - b)) <= 1e-12


class TestDeviationMatrix:
    def test_zero_at_zero_noise(self, threelevel):
        spec, _ = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, np.zeros(2))
        dm = output_deviation_matrix(spec.output, threelevel.input_state)
        np.testing.assert_allclose(dm.entries, np.zeros((2, 2)), atol=1e-14)

    def test_bell_printed_frame(self, bell):
        for s in SCALES:
            eps = s * np.asarray(bell.sweep.direction)
            spec, _ = output_spectrum_with_gradients(bell.channel, bell.input_state, eps)
            dm = output_deviation_matrix(spec.output, bell.input_state, bell.frame)
            np.testing.assert_allclose(
                dm.entries, bell.closed_forms["deviation_printed"](eps), atol=1e-14
            )

    def test_output_of_another_dimension_rejected(self, threelevel):
        with pytest.raises(DimensionMismatch):
            output_deviation_matrix(np.eye(2) / 2, threelevel.input_state)

    def test_leading_is_psd_and_hermitian(self, threelevel):
        eps = np.array([1e-3, 2e-3])
        dm = deviation_matrix(threelevel.channel, threelevel.input_state, eps)
        assert np.linalg.norm(dm.entries - dm.entries.conj().T) <= 1e-12
        assert np.min(np.linalg.eigvalsh(dm.entries)) >= -1e-12

    def test_full_vs_leading_second_order(self, threelevel):
        vals = []
        for s in SCALES:
            eps = s * np.asarray(threelevel.sweep.direction)
            spec, _ = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, eps)
            full = output_deviation_matrix(spec.output, threelevel.input_state)
            lead = deviation_matrix(threelevel.channel, threelevel.input_state, eps)
            vals.append(np.linalg.norm(full.entries - lead.entries))
        fit = power_order_fit(list(zip(SCALES, vals)))
        assert 1.85 <= fit.slope <= 2.15

    def test_leading_eigenvalues_track_output_shifts(self, threelevel):
        vals = []
        for s in SCALES:
            eps = s * np.asarray(threelevel.sweep.direction)
            lead = deviation_matrix(threelevel.channel, threelevel.input_state, eps)
            spec, _ = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, eps)
            diff = np.sort(deviation_eigenvalues(lead)) - np.sort(spec.shifts())
            vals.append(np.max(np.abs(diff)))
        fit = power_order_fit(list(zip(SCALES, vals)))
        assert 1.8 <= fit.slope <= 2.2


class TestShiftClassification:
    def test_bell_labels(self, bell):
        spectra, _, _ = output_shift_curves(bell.channel, bell.input_state, np.asarray(bell.sweep.direction), SCALES)
        rows = [deviation_eigenvalues(output_deviation_matrix(spec.output, bell.input_state, bell.frame)) for spec in spectra]
        labels, _ = classify_shift_curves(SCALES, rows)
        assert labels == ("order-1", "order-1", "higher-or-zero")
        eps = SCALES[-1] * np.asarray(bell.sweep.direction)
        np.testing.assert_allclose(np.sort(rows[-1]), np.sort(bell.closed_forms["shifts"](eps)), atol=1e-14)

    def test_zero_curves_all_higher(self):
        rows = np.zeros((8, 3))
        labels, fits = classify_shift_curves(SCALES, rows)
        assert labels == ("higher-or-zero",) * 3
        assert all(f is None for f in fits)

    def test_quadratic_curve_excluded(self):
        rows = np.column_stack([SCALES, SCALES**2])
        labels, _ = classify_shift_curves(SCALES, rows)
        assert labels == ("order-1", "higher-or-zero")


class TestJumpCovariance:
    def test_input_fixed_by_jumps_gives_zero(self):
        # identity jump: the centered operator annihilates every state
        ch = sqrt_completion_channel([[np.eye(2, dtype=complex)]])
        phi = np.array([1.0, 0.0], dtype=complex)
        lm = jump_covariance(ch, phi, np.array([1e-3]))
        np.testing.assert_allclose(lm.entries, np.zeros((1, 1)), atol=1e-15)

    def test_threelevel_matches_covariance_elements(self, threelevel):
        eps = np.array([1e-3, 2e-3])
        lm = jump_covariance(threelevel.channel, threelevel.input_state, eps)
        dm = threelevel.closed_forms["covariance_elements"]()
        want = np.sqrt(np.outer(eps, eps)) * dm
        np.testing.assert_allclose(lm.entries, want, atol=1e-15)

    def test_diagonal_real_nonnegative(self):
        ch = random_channel(4, 2, [2, 1], seed=5)
        phi = random_input_state(4, 5)
        lm = jump_covariance(ch, phi, np.array([1e-3, 3e-3]))
        d = np.diag(lm.entries)
        assert np.max(np.abs(d.imag)) <= 1e-15
        assert np.min(d.real) >= -1e-15


    def test_rows_follow_the_jump_stack(self):
        # two jumps on parameter 2: rows carry the channel's parameter index,
        # and entries match the per-pair covariance formula
        ch = random_channel(4, 2, [1, 2], seed=8)
        phi = random_input_state(4, 8)
        eps = np.array([1e-3, 3e-3])
        lm = jump_covariance(ch, phi, eps)
        assert lm.index.tolist() == [0, 1, 1]
        images = [m @ phi for m in ch.jumps]
        means = [np.vdot(phi, x) for x in images]
        for i, j in np.ndindex(3, 3):
            cov = np.vdot(images[i], images[j]) - np.conj(means[i]) * means[j]
            want = np.sqrt(eps[lm.index[i]] * eps[lm.index[j]]) * cov
            assert abs(lm.entries[i, j] - want) <= 1e-18

    def test_leading_deviation_is_the_weighted_image_gram(self):
        ch = random_channel(4, 2, [2, 1], seed=9)
        phi = random_input_state(4, 9)
        eps = np.array([2e-3, 1e-3])
        dm = deviation_matrix(ch, phi, eps)
        want = sum(
            eps[mu] * np.outer(dm.frame.conj().T @ m @ phi, (dm.frame.conj().T @ m @ phi).conj())
            for m, mu in zip(ch.jumps, ch.params)
        )
        assert np.max(np.abs(dm.entries - want)) <= 1e-18

class TestReducedShifts:
    def test_matches_leading_deviation(self, threelevel):
        eps = np.array([1e-3, 2e-3])
        lm = jump_covariance(threelevel.channel, threelevel.input_state, eps)
        got = reduced_shifts(lm, 3)
        lead = deviation_eigenvalues(
            deviation_matrix(threelevel.channel, threelevel.input_state, eps)
        )
        assert np.max(np.abs(np.sort(got) - np.sort(lead))) <= 1e-12

    def test_single_jump_variance_formula(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m /= np.linalg.norm(m, 2)
        ch = sqrt_completion_channel([[m]])
        phi = random_input_state(3, 2)
        eps = np.array([2e-3])
        lm = jump_covariance(ch, phi, eps)
        got = reduced_shifts(lm, 3)
        mean = np.vdot(phi, m @ phi)
        var = np.vdot(m @ phi, m @ phi) - abs(mean) ** 2
        np.testing.assert_allclose(got, [eps[0] * var.real], atol=1e-15)

    def test_zero_covariance(self):
        ch = sqrt_completion_channel([[np.eye(2, dtype=complex)]])
        lm = jump_covariance(ch, np.array([1.0, 0.0], dtype=complex), np.array([1e-3]))
        np.testing.assert_allclose(reduced_shifts(lm, 2), [0.0], atol=1e-15)

    def test_reduction_invalid_when_too_many_jumps(self, bell):
        pauli = scenario_pauli2()
        lm = jump_covariance(pauli.channel, pauli.input_state, np.array([1e-3, 1e-3]))
        with pytest.raises(ReductionInvalid):
            reduced_shifts(lm, 2)


class TestTracePowerIdentity:
    def test_random_fixtures(self):
        for seed in range(50):
            dim = 4
            k_mu = [1, 1, 1] if seed % 2 else [2, 1]
            num_params = len(k_mu)
            ch = random_channel(dim, num_params, k_mu, seed=200 + seed)
            phi = random_input_state(dim, seed)
            eps = np.full(num_params, 1e-3 / num_params)
            dm = deviation_matrix(ch, phi, eps)
            lm = jump_covariance(ch, phi, eps)
            assert trace_power_residual(dm, lm, kmax=5) <= 1e-11

    def test_threelevel(self, threelevel):
        eps = np.array([1e-3, 2e-3])
        dm = deviation_matrix(threelevel.channel, threelevel.input_state, eps)
        lm = jump_covariance(threelevel.channel, threelevel.input_state, eps)
        assert trace_power_residual(dm, lm, kmax=4) <= 1e-13

    def test_zero_case(self):
        ch = sqrt_completion_channel([[np.eye(2, dtype=complex)]])
        phi = np.array([1.0, 0.0], dtype=complex)
        dm = deviation_matrix(ch, phi, np.array([1e-3]))
        lm = jump_covariance(ch, phi, np.array([1e-3]))
        assert trace_power_residual(dm, lm, kmax=5) == 0.0


def test_output_shift_curves_consistency(threelevel):
    spectra, shift_rows, grad_rows = output_shift_curves(
        threelevel.channel, threelevel.input_state, np.asarray(threelevel.sweep.direction), SCALES
    )
    assert len(spectra) == len(SCALES)
    for spec, shifts, grads in zip(spectra, shift_rows, grad_rows):
        assert shifts.shape == (2,)
        assert grads.shape == (2, 3)
        # eigenvalue gradients sum to the derivative of the total trace: zero
        assert np.max(np.abs(grads.sum(axis=1))) <= 1e-12

from dataclasses import fields

import numpy as np
import pytest

from lownoise.channels import pure_state_density, sqrt_completion_channel
from lownoise.errors import ConfigInvalid, DegenerateSamples, DimensionMismatch, ReductionInvalid
from lownoise.curves import eigencurve_derivatives
from lownoise.linalg import fit_or_floor
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
        spec = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, np.zeros(2))
        np.testing.assert_allclose(spec.probs, [1, 0, 0], atol=1e-14)
        assert abs(np.vdot(spec.basis[:, 0], threelevel.input_state)) >= 1 - 1e-10

    def test_bell_probs_exact(self, bell):
        eps = np.array([1e-3, 2e-3])
        spec = output_spectrum_with_gradients(bell.channel, bell.input_state, eps)
        np.testing.assert_allclose(spec.probs, [1 - 3e-3, 2e-3, 1e-3, 0.0], atol=1e-14)

    def test_threelevel_probs_match_closed_shifts(self, threelevel):
        for s in (1e-4, 1e-3):
            eps = s * np.asarray(threelevel.sweep.direction)
            spec = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, eps)
            dp = threelevel.closed_forms["shifts"](eps)
            want = np.array([1 - dp.sum(), dp[0], dp[1]])
            assert np.max(np.abs(spec.probs - want)) <= 10 * s * s

    def test_probability_invariants(self, threelevel):
        for s in SCALES:
            eps = s * np.asarray(threelevel.sweep.direction)
            spec = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, eps)
            assert abs(spec.probs.sum() - 1) <= 1e-12
            assert spec.probs.min() >= -1e-12
            assert 1 - spec.probs[0] <= 4.0 * np.sum(eps)


class TestComplementBasis:
    def test_standard_basis_case(self):
        v = complement_basis(np.array([1.0, 0.0, 0.0], dtype=complex))
        np.testing.assert_allclose(v, np.eye(3, dtype=complex)[:, 1:], atol=1e-15)

    def test_nearly_normalized_input_rejected(self):
        with pytest.raises(ConfigInvalid):
            complement_basis(np.array([1.0 + 5e-6, 0.0, 0.0], dtype=complex))
        with pytest.raises(ConfigInvalid, match="normalized$"):
            complement_basis(np.array([np.nan, 0.0, 0.0]))
        phis = np.eye(3, dtype=complex)  # a stack names its row
        phis[1] *= 1 + 5e-6
        with pytest.raises(ConfigInvalid, match=r"normalized \(row 1\)$"):
            complement_basis(phis)

    def test_orthonormal_completion(self):
        """Each input completes to a unitary; a (C, N) stack's rows are the one-input calls bit for bit."""
        rng = np.random.default_rng(12)
        phis = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        phis /= np.linalg.norm(phis, axis=1, keepdims=True)
        stack = complement_basis(phis)
        assert stack.shape == (5, 4, 3)
        for phi, rows in zip(phis, stack):
            v = complement_basis(phi)
            full = np.column_stack([phi, v])
            assert np.linalg.norm(full.conj().T @ full - np.eye(4)) <= 1e-12
            assert np.array_equal(rows, v)

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
        spec = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, np.zeros(2))
        dm = output_deviation_matrix(spec.output, threelevel.input_state)
        np.testing.assert_allclose(dm, np.zeros((2, 2)), atol=1e-14)

    def test_bell_printed_frame(self, bell):
        for s in SCALES:
            eps = s * np.asarray(bell.sweep.direction)
            spec = output_spectrum_with_gradients(bell.channel, bell.input_state, eps)
            dm = output_deviation_matrix(spec.output, bell.input_state, bell.frame)
            np.testing.assert_allclose(
                dm, bell.closed_forms["deviation_printed"](eps), atol=1e-14
            )

    def test_output_of_another_dimension_rejected(self, threelevel):
        with pytest.raises(DimensionMismatch):
            output_deviation_matrix(np.eye(2) / 2, threelevel.input_state)

    @pytest.mark.parametrize("build", [deviation_matrix, jump_covariance], ids=["deviation", "covariance"])
    @pytest.mark.parametrize("length", [2, 4])
    def test_input_of_another_length_rejected(self, threelevel, build, length):
        phi = np.eye(length, dtype=complex)[0]
        with pytest.raises(DimensionMismatch, match=f"input state has length {length}, channel dimension 3"):
            build(threelevel.channel, phi, np.array([1e-3, 1e-3]))

    def test_leading_is_psd_and_hermitian(self, threelevel):
        eps = np.array([1e-3, 2e-3])
        dm = deviation_matrix(threelevel.channel, threelevel.input_state, eps)
        assert np.linalg.norm(dm - dm.conj().T) <= 1e-12
        assert np.min(np.linalg.eigvalsh(dm)) >= -1e-12

    def test_full_vs_leading_second_order(self, threelevel):
        vals = []
        for s in SCALES:
            eps = s * np.asarray(threelevel.sweep.direction)
            spec = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, eps)
            full = output_deviation_matrix(spec.output, threelevel.input_state)
            lead = deviation_matrix(threelevel.channel, threelevel.input_state, eps)
            vals.append(np.linalg.norm(full - lead))
        fit = fit_or_floor(SCALES, vals, 0.0)
        assert 1.85 <= fit.slope <= 2.15

    def test_leading_eigenvalues_track_output_shifts(self, threelevel):
        vals = []
        for s in SCALES:
            eps = s * np.asarray(threelevel.sweep.direction)
            lead = deviation_matrix(threelevel.channel, threelevel.input_state, eps)
            spec = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, eps)
            diff = np.sort(deviation_eigenvalues(lead)) - np.sort(spec.shifts())
            vals.append(np.max(np.abs(diff)))
        fit = fit_or_floor(SCALES, vals, 0.0)
        assert 1.8 <= fit.slope <= 2.2


class TestShiftClassification:
    def test_bell_labels(self, bell):
        stack = output_shift_curves(bell.channel, bell.input_state, np.asarray(bell.sweep.direction), SCALES)
        rows = deviation_eigenvalues(output_deviation_matrix(stack.output, bell.input_state, bell.frame))
        labels, _ = classify_shift_curves(SCALES, rows)
        assert labels == ("order-1", "order-1", "higher-or-zero")
        eps = SCALES[-1] * np.asarray(bell.sweep.direction)
        np.testing.assert_allclose(np.sort(rows[-1]), np.sort(bell.closed_forms["shifts"](eps)), atol=1e-14)

    def test_zero_curves_all_higher(self):
        rows = np.zeros((8, 3))
        labels, fits = classify_shift_curves(SCALES, rows)
        assert labels == ("higher-or-zero",) * 3
        assert np.all(fits.at_floor)

    def test_quadratic_curve_excluded(self):
        rows = np.column_stack([SCALES, SCALES**2])
        labels, _ = classify_shift_curves(SCALES, rows)
        assert labels == ("order-1", "higher-or-zero")

    def test_empty_grid_rejected(self):
        with pytest.raises(DegenerateSamples):
            classify_shift_curves([], np.zeros((0, 2)))

    @pytest.mark.parametrize(
        "rows",
        [
            [[1e-5, 2e-5], [1e-4], [1e-3, 2e-3], [1e-2, 2e-2]],  # ragged
            np.ones((5, 2)),  # five rows against four scales
            np.ones((3, 2)),
            np.ones(4),
        ],
        ids=["ragged", "extra-row", "missing-row", "one-dimensional"],
    )
    def test_rows_not_one_per_scale_rejected(self, rows):
        with pytest.raises(DimensionMismatch):
            classify_shift_curves(SCALES[:4], rows)


class TestJumpCovariance:
    def test_input_fixed_by_jumps_gives_zero(self):
        # identity jump: the centered operator annihilates every state
        ch = sqrt_completion_channel([[np.eye(2, dtype=complex)]])
        phi = np.array([1.0, 0.0], dtype=complex)
        lm = jump_covariance(ch, phi, np.array([1e-3]))
        np.testing.assert_allclose(lm, np.zeros((1, 1)), atol=1e-15)

    def test_threelevel_matches_covariance_elements(self, threelevel):
        eps = np.array([1e-3, 2e-3])
        lm = jump_covariance(threelevel.channel, threelevel.input_state, eps)
        # <M_i^dag M_j> - <M_i^dag><M_j> on the uniform input: M_1 = |1><0|, M_2 = (|1> + |2>)<0| / sqrt(2)
        dm = np.array([[2 / 9, np.sqrt(2) / 18], [np.sqrt(2) / 18, 1 / 9]])
        want = np.sqrt(np.outer(eps, eps)) * dm
        np.testing.assert_allclose(lm, want, atol=1e-15)

    def test_diagonal_real_nonnegative(self):
        ch = random_channel(4, 2, [2, 1], seed=5)
        phi = random_input_state(4, 5)
        lm = jump_covariance(ch, phi, np.array([1e-3, 3e-3]))
        d = np.diag(lm)
        assert np.max(np.abs(d.imag)) <= 1e-15
        assert np.min(d.real) >= -1e-15


    def test_rows_follow_the_jump_stack(self):
        # two jumps on parameter 2: rows carry the channel's parameter index,
        # and entries match the per-pair covariance formula
        ch = random_channel(4, 2, [1, 2], seed=8)
        phi = random_input_state(4, 8)
        eps = np.array([1e-3, 3e-3])
        lm = jump_covariance(ch, phi, eps)
        assert ch.params.tolist() == [0, 1, 1]
        images = [m @ phi for m in ch.jumps]
        means = [np.vdot(phi, x) for x in images]
        for i, j in np.ndindex(3, 3):
            cov = np.vdot(images[i], images[j]) - np.conj(means[i]) * means[j]
            want = np.sqrt(eps[ch.params[i]] * eps[ch.params[j]]) * cov
            assert abs(lm[i, j] - want) <= 1e-18

    def test_leading_deviation_is_the_weighted_image_gram(self):
        ch = random_channel(4, 2, [2, 1], seed=9)
        phi = random_input_state(4, 9)
        eps = np.array([2e-3, 1e-3])
        dm = deviation_matrix(ch, phi, eps)
        frame = complement_basis(phi)
        want = sum(
            eps[mu] * np.outer(frame.conj().T @ m @ phi, (frame.conj().T @ m @ phi).conj())
            for m, mu in zip(ch.jumps, ch.params)
        )
        assert np.max(np.abs(dm - want)) <= 1e-18

    @pytest.mark.parametrize("build", [deviation_matrix, jump_covariance])
    @pytest.mark.parametrize(
        "eps, error",
        [
            ([1e-3], DimensionMismatch),
            ([1e-3, 2e-3, 3e-3], DimensionMismatch),
            ([-1e-3, 1e-3], ConfigInvalid),
            ([np.nan, 1e-3], ConfigInvalid),
            ([[1e-3, 2e-3], [1e-3]], ValueError),  # not an array: numpy rejects it before any check
            ([[1e-3, 2e-3], [-1e-3, 2e-3]], ConfigInvalid),
            ([[1e-3], [2e-3]], DimensionMismatch),
            (np.full((2, 2, 2), 1e-3), DimensionMismatch),
        ],
    )
    def test_eps_checked_as_evaluate_checks_it(self, threelevel, build, eps, error):
        with pytest.raises(error):
            build(threelevel.channel, threelevel.input_state, eps)
        with pytest.raises(error):
            threelevel.channel.evaluate(pure_state_density(threelevel.input_state), eps)


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
    stack = output_shift_curves(
        threelevel.channel, threelevel.input_state, np.asarray(threelevel.sweep.direction), SCALES
    )
    b = len(SCALES)
    assert stack.shifts().shape == (b, 2)
    assert stack.gradients.shape == (b, 2, 3)
    assert stack.basis.shape == stack.output.shape == (b, 3, 3)
    assert stack.derivatives.shape == (b, 2, 3, 3) and stack.tpcp_residual.shape == (b,)
    assert np.array_equal(stack.shift_gradients(), stack.gradients[:, :, 1:])
    # eigenvalue gradients sum to the derivative of the total trace: zero
    assert np.max(np.abs(stack.gradients.sum(axis=-1))) <= 1e-12
    rows = stack[[1, 4]]
    assert rows.probs.shape == (2, 3) and np.array_equal(rows.basis, stack.basis[[1, 4]])


@pytest.mark.parametrize("dim", range(2, 9))
def test_stacked_rows_equal_one_point_spectra(dim):
    """Row t of a grid's spectrum is the one-point spectrum at scales[t] * direction, bit for bit."""
    num = 1 + dim % 3
    ch = random_channel(dim, num, [1] * num, dim, with_hamiltonian=bool(dim % 2))
    phi = random_input_state(dim, dim)
    direction = np.full(num, 1.0 / num)
    stack = output_shift_curves(ch, phi, direction, SCALES)
    for t, s in enumerate(SCALES):
        row, one = stack[t], output_spectrum_with_gradients(ch, phi, s * direction)
        for f in fields(one):
            assert np.array_equal(getattr(row, f.name), getattr(one, f.name)), f.name


def test_a_point_of_a_grid_owns_its_arrays(threelevel):
    """An integer index copies every field: holding one point keeps none of the grid's memory."""
    grid = output_shift_curves(threelevel.channel, threelevel.input_state, threelevel.sweep.direction, SCALES)
    point = grid[-3]
    for f in fields(grid):
        assert not np.shares_memory(getattr(point, f.name), getattr(grid, f.name)), f.name
        assert np.array_equal(getattr(point, f.name), getattr(grid, f.name)[-3]), f.name
    assert type(point.tpcp_residual) is np.float64


def scalar_trace_power_residual(dm, lm, kmax):
    """Reference: the residual with complex scalar traces and Python's abs, one power at a time."""
    worst, a, b = 0.0, np.eye(len(dm)), np.eye(len(lm))
    for _ in range(kmax):
        a, b = a @ dm, b @ lm
        worst = max(worst, abs(np.trace(a) - np.trace(b)))
    return worst


@pytest.mark.parametrize("dim, num, seed", [(3, 2, 3), (5, 3, 1), (6, 4, 0)])
def test_stacked_cross_checks_equal_one_point_calls(dim, num, seed):
    """Each row of a call over a (B, D) eps stack equals the one-point call bit for bit."""
    ch = random_channel(dim, num, [1] * num, seed, with_hamiltonian=bool(seed % 2))
    phi = random_input_state(dim, seed)
    direction = np.full(num, 1.0 / num)
    stack = output_shift_curves(ch, phi, direction, SCALES)
    frame = complement_basis(phi)
    full = output_deviation_matrix(stack.output, phi, frame)
    lead = deviation_matrix(ch, phi, stack.eps, frame)
    lm = jump_covariance(ch, phi, stack.eps)
    residuals = trace_power_residual(lead, lm, kmax=5)
    reduced, lead_vals = reduced_shifts(lm, dim), deviation_eigenvalues(lead)
    for t in range(len(SCALES)):
        spec = stack[t]
        assert np.array_equal(full[t], output_deviation_matrix(spec.output, phi, frame))
        one_lead, one_lm = deviation_matrix(ch, phi, spec.eps), jump_covariance(ch, phi, spec.eps)
        assert np.array_equal(lead[t], one_lead) and np.array_equal(lm[t], one_lm)
        assert residuals[t] == trace_power_residual(one_lead, one_lm, kmax=5)
        assert residuals[t] == scalar_trace_power_residual(one_lead, one_lm, kmax=5)
        assert np.array_equal(reduced[t], reduced_shifts(one_lm, dim))
        assert np.array_equal(lead_vals[t], deviation_eigenvalues(one_lead))


def test_a_degenerate_row_of_a_stack_equals_its_one_point_call():
    """Only the row with a degenerate cluster is refined, and every row equals its one-point call bit for bit."""
    rng = np.random.Generator(np.random.Philox(key=[4, 0x44454745]))
    g = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    frames = np.linalg.qr(g)[0]
    spectra = np.array([[0.7, 0.2, 0.08, 0.02], [0.6, 0.15, 0.15, 0.1], [0.5, 0.3, 0.15, 0.05]])
    matrices = (frames * spectra[:, None, :]) @ frames.conj().swapaxes(-1, -2)
    h = rng.normal(size=(3, 2, 4, 4)) + 1j * rng.normal(size=(3, 2, 4, 4))
    derivatives = h + h.conj().swapaxes(-1, -2)
    values, vectors, derivs = eigencurve_derivatives(matrices, derivatives)
    for b in range(3):
        one = eigencurve_derivatives(matrices[b], derivatives[b])
        assert all(np.array_equal(stacked[b], single) for stacked, single in zip((values, vectors, derivs), one))
    # row 1's cluster at 0.15 is rotated to diagonalise the first derivative on its eigenspace
    cols = vectors[1][:, 1:3]
    restricted = cols.conj().T @ ((derivatives[1, 0] + derivatives[1, 0].conj().T) / 2) @ cols
    assert np.max(np.abs(restricted - np.diag(np.diag(restricted)))) <= 1e-12 * np.max(np.abs(restricted))


@pytest.mark.parametrize(
    "matrix,derivatives",
    [
        (np.eye(3), np.ones((2, 2, 2))),  # derivatives of another size
        (np.eye(3), np.ones((3, 3))),  # no parameter axis
        (np.ones((4, 3, 3)), np.ones((5, 2, 3, 3))),  # stacks of four and five
        (np.ones((2, 3)), np.ones((1, 2, 3))),  # not square
        (np.ones(3), np.ones((1, 3))),  # not a matrix
    ],
    ids=["size", "no-parameter-axis", "stacks", "not-square", "vector"],
)
def test_eigencurve_derivatives_of_the_wrong_shape_rejected(matrix, derivatives):
    with pytest.raises(DimensionMismatch, match="do not fit"):
        eigencurve_derivatives(matrix, derivatives)

import json

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from lownoise.channels import (
    LowNoiseChannel,
    channel_from_config,
    channel_to_config,
    matrix_to_json,
    pure_state_density,
    sqrt_completion_channel,
)
from lownoise.errors import (
    ConfigInvalid,
    DimensionMismatch,
    StepTooLarge,
    TPCPViolation,
)
from lownoise.linalg import dagger, fit_or_floor
from lownoise.spectral import output_spectrum_with_gradients
from lownoise.scenarios import (
    SIGMA_X,
    SIGMA_Z,
    bloch_vector,
    density_from_bloch,
    random_channel,
    random_input_state,
    scenario_ancilla_bell,
    scenario_pauli2,
    scenario_threelevel,
)

LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # maps |1> to |0>


@pytest.fixture(scope="module")
def pauli():
    return scenario_pauli2()


@pytest.fixture(scope="module")
def threelevel():
    return scenario_threelevel()


def test_identity_at_zero_noise(pauli):
    rng = np.random.default_rng(0)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    rho = pure_state_density(v / np.linalg.norm(v))
    out = pauli.channel.apply(rho, np.zeros(2))
    np.testing.assert_allclose(out, rho, atol=1e-14)


def test_pauli_bloch_map_example(pauli):
    rho = density_from_bloch(np.array([1.0, 0.0, 0.0]))
    out = pauli.channel.apply(rho, np.array([0.01, 0.02]))
    np.testing.assert_allclose(bloch_vector(out), [0.96, 0.0, 0.0], atol=1e-14)


def test_pauli_matches_direct_kraus_arithmetic(pauli):
    # one-line oracle: (1-e1-e2) rho + e1 X rho X + e2 Z rho Z
    rng = np.random.default_rng(5)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    rho = pure_state_density(v / np.linalg.norm(v))
    eps = np.array([3e-3, 1e-3])
    expected = (1 - eps.sum()) * rho + eps[0] * SIGMA_X @ rho @ SIGMA_X + eps[1] * SIGMA_Z @ rho @ SIGMA_Z
    np.testing.assert_allclose(pauli.channel.apply(rho, eps), expected, atol=1e-15)


def test_ancilla_output_eigenvalues_exact():
    sc = scenario_ancilla_bell()
    eps = np.array([1e-3, 2e-3])
    out = sc.channel.apply(pure_state_density(sc.input_state), eps)
    w = np.sort(np.linalg.eigvalsh(out))[::-1]
    np.testing.assert_allclose(w, [1 - 3e-3, 2e-3, 1e-3, 0.0], atol=1e-14)


class TestTPCPResidual:
    def test_pauli_exact(self, pauli):
        for eps in ([0.0, 0.0], [0.3, 0.3], [0.01, 0.5]):
            assert pauli.channel.tpcp_residual(np.array(eps)) <= 1e-13

    def test_sqrt_completion_random(self):
        ch = random_channel(3, 2, [1, 1], seed=42)
        for s in np.geomspace(1e-5, 1e-2, 8):
            assert ch.tpcp_residual(np.full(2, s / 2)) <= 1e-12


class TestDerivativeAtZero:
    def test_annihilated_input(self):
        ch = sqrt_completion_channel([[LOWER]])
        ground = pure_state_density(np.array([1.0, 0.0], dtype=complex))
        np.testing.assert_allclose(ch.derivative_at_zero(0, ground), np.zeros((2, 2)), atol=1e-15)

    def test_matches_boundary_finite_difference(self):
        ch = random_channel(3, 2, [1, 1], seed=9, with_hamiltonian=True)
        rng = np.random.default_rng(3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho = pure_state_density(v / np.linalg.norm(v))
        for mu in range(2):
            analytic = ch.derivative_at_zero(mu, rho)
            fd = ch.finite_difference_derivative(rho, mu, np.zeros(2), h=1e-6)
            assert np.linalg.norm(analytic - fd) <= 1e-8

    def test_pauli_bitflip_direction(self, pauli):
        ground = pure_state_density(np.array([1.0, 0.0], dtype=complex))
        out = pauli.channel.derivative_at_zero(0, ground)
        np.testing.assert_allclose(out, np.diag([-1.0, 1.0]).astype(complex), atol=1e-14)

    def test_traceless_hermitian(self):
        ch = random_channel(4, 2, [1, 1], seed=17, with_hamiltonian=True)
        rng = np.random.default_rng(4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = pure_state_density(v / np.linalg.norm(v))
        for mu in range(2):
            d = ch.derivative_at_zero(mu, rho)
            assert abs(np.trace(d)) <= 1e-12
            assert np.linalg.norm(d - d.conj().T) <= 1e-12

    @pytest.mark.parametrize("mu", [-1, 2, 5, 1.0])
    def test_parameter_index_outside_the_parameters_rejected(self, threelevel, mu):
        # -1 would wrap to the last parameter's S_mu but select no jump: a derivative of trace -1/3, not 0
        rho = pure_state_density(threelevel.input_state)
        with pytest.raises(ConfigInvalid, match=r"parameter index must be an integer in \[0, 2\)"):
            threelevel.channel.derivative_at_zero(mu, rho)
        with pytest.raises(ConfigInvalid, match=r"parameter index must be an integer in \[0, 2\)"):
            threelevel.channel.hamiltonian_generator(mu)


def explicit_config(per_param, terms, dim=2):
    """An "explicit" channel config: per_param[mu] lists parameter mu's jumps, terms the (kappa_i, [L[i, mu], ...])."""
    return {
        "dim": dim,
        "num_params": len(per_param),
        "builder": "explicit",
        "jump_operators": [
            {"param": mu + 1, "matrix": matrix_to_json(m)} for mu, ms in enumerate(per_param) for m in ms
        ],
        "identity_terms": [
            {"weight": [complex(w).real, complex(w).imag], "linear": [matrix_to_json(n) for n in linear]}
            for w, linear in terms
        ],
    }


def explicit_damping():
    """Amplitude damping from the explicit identity term 1 - eps S/2: the completion sqrt(1 - eps S)."""
    s = LOWER.conj().T @ LOWER
    return channel_from_config(explicit_config([[LOWER]], [(1.0, [0.5 * s])]))


def assert_matches_central_difference(ch, rho, eps, tol=1e-7):
    exact = ch.evaluate(rho, eps).derivatives
    assert len(exact) == ch.num_params
    for mu in range(ch.num_params):
        fd = ch.finite_difference_derivative(rho, mu, eps, 1e-6)
        assert np.max(np.abs(exact[mu] - fd)) <= tol


class TestDerivative:
    @pytest.mark.parametrize("with_hamiltonian", [False, True])
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_random_channel_matches_central_difference(self, dim, with_hamiltonian):
        num_params = min(dim - 1, 3) if dim > 2 else 2
        ch = random_channel(dim, num_params, [1] * num_params, seed=40 + dim, with_hamiltonian=with_hamiltonian)
        rho = pure_state_density(random_input_state(dim, dim))
        assert_matches_central_difference(ch, rho, np.linspace(1e-3, 3e-3, num_params))

    def test_explicit_channel_matches_central_difference(self):
        rho = pure_state_density(np.array([0.6, 0.8j]))
        assert_matches_central_difference(explicit_damping(), rho, np.array([1e-4]))

    def test_ancilla_extended_matches_central_difference(self):
        ch = random_channel(2, 2, [1, 1], seed=12, with_hamiltonian=True).ancilla_extend()
        rho = pure_state_density(random_input_state(4, 12))
        assert_matches_central_difference(ch, rho, np.array([2e-3, 1e-3]))

    @pytest.mark.parametrize("with_hamiltonian", [False, True])
    def test_zero_noise_matches_lindblad_form(self, with_hamiltonian):
        ch = random_channel(4, 3, [1, 2, 1], seed=21, with_hamiltonian=with_hamiltonian)
        rho = pure_state_density(random_input_state(4, 21))
        exact = ch.evaluate(rho, np.zeros(3)).derivatives
        for mu in range(3):
            assert np.max(np.abs(exact[mu] - ch.derivative_at_zero(mu, rho))) <= 1e-12

    def test_eigenvalue_gradients_match_central_difference(self, threelevel):
        eps = np.array([2e-3, 3e-3])
        spec = output_spectrum_with_gradients(threelevel.channel, threelevel.input_state, eps)
        rho = pure_state_density(threelevel.input_state)
        h = 1e-6
        for mu in range(2):
            step = h * np.eye(2)[mu]
            up = np.linalg.eigvalsh(threelevel.channel.apply(rho, eps + step))[::-1]
            down = np.linalg.eigvalsh(threelevel.channel.apply(rho, eps - step))[::-1]
            assert np.max(np.abs(spec.gradients[mu] - (up - down) / (2 * h))) <= 1e-7


EVALUATE_CASES = [
    ("random", lambda: random_channel(3, 2, [1, 2], seed=5)),
    ("random-hamiltonian", lambda: random_channel(4, 3, [1, 1, 2], seed=6, with_hamiltonian=True)),
    ("explicit", lambda: explicit_damping()),
    ("ancilla", lambda: random_channel(2, 2, [1, 1], seed=12, with_hamiltonian=True).ancilla_extend()),
]


class TestEvaluate:
    @pytest.mark.parametrize("name,build", EVALUATE_CASES, ids=[c[0] for c in EVALUATE_CASES])
    def test_matches_apply_and_tpcp_residual_bitwise(self, name, build):
        ch = build()
        rho = pure_state_density(random_input_state(ch.dim, 3))
        for s in (0.0, 1e-5, 1e-4):
            eps = np.linspace(s, 2 * s, ch.num_params)
            ev = ch.evaluate(rho, eps)
            assert np.array_equal(ev.output, ch.apply(rho, eps))
            assert ev.tpcp_residual == ch.tpcp_residual(eps)
            assert len(ev.derivatives) == ch.num_params

    def test_outside_validity_raises(self):
        ch = sqrt_completion_channel([[LOWER]])
        rho = pure_state_density(np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(TPCPViolation):
            ch.evaluate(rho, np.array([1.5]))

    def test_state_shape_checked(self, pauli):
        with pytest.raises(DimensionMismatch):
            pauli.channel.evaluate(np.eye(3, dtype=complex) / 3, np.array([1e-3, 1e-3]))


class TestStackedJumpProducts:
    """Each sum over the jump stack against the loop over jumps it replaced."""

    @pytest.mark.parametrize("name,build", EVALUATE_CASES, ids=[c[0] for c in EVALUATE_CASES])
    def test_sums_equal_the_loop_over_jumps(self, name, build):
        ch = build()
        rho = pure_state_density(random_input_state(ch.dim, 4))
        eps = np.outer([1e-5, 1e-4], np.linspace(1.0, 2.0, ch.num_params))
        k, dk = ch._identity_kraus(eps, with_derivative=True)
        out = np.zeros((2, ch.dim, ch.dim), dtype=complex) + k @ rho @ dagger(k)
        completeness = np.zeros_like(out) + dagger(k) @ k
        for m, mu in zip(ch.jumps, ch.params):
            out = out + eps[:, mu, None, None] * (m @ rho @ dagger(m))
            completeness = completeness + eps[:, mu, None, None] * (dagger(m) @ m)
        ev = ch.evaluate(rho, eps)
        assert np.array_equal(ev.output, out)
        assert ev.tpcp_residual.tolist() == [np.linalg.norm(c - np.eye(ch.dim)) for c in completeness]
        for mu in range(ch.num_params):
            acc = np.zeros_like(out) + dk[:, mu] @ rho @ dagger(k) + k @ rho @ dagger(dk[:, mu])
            for m in ch.jumps[ch.params == mu]:
                acc = acc + m @ rho @ dagger(m)
            assert np.array_equal(ev.derivatives[:, mu], acc)


STACK_CASES = [
    (
        f"random-{n}-{'hamiltonian' if gens else 'plain'}",
        lambda n=n, gens=gens: random_channel(n, 2, [1, 2], seed=20 + n, with_hamiltonian=gens),
    )
    for n in range(2, 9)
    for gens in (False, True)
] + [c for c in EVALUATE_CASES if c[0] in ("explicit", "ancilla")]


class TestStackedEvaluate:
    """A (B, D) stack of noise points against B single-point calls."""

    @pytest.mark.parametrize("name,build", STACK_CASES, ids=[c[0] for c in STACK_CASES])
    def test_rows_match_single_points(self, name, build):
        ch = build()
        rho = pure_state_density(random_input_state(ch.dim, 5))
        direction = np.linspace(1.0, 2.0, ch.num_params) / ch.num_params
        eps = np.vstack([np.zeros(ch.num_params), np.geomspace(1e-5, 1e-2, 6)[:, None] * direction])
        stacked = ch.evaluate(rho, eps)
        assert stacked.output.shape == (len(eps), ch.dim, ch.dim)
        assert stacked.derivatives.shape == (len(eps), ch.num_params, ch.dim, ch.dim)
        assert stacked.tpcp_residual.shape == (len(eps),)
        outputs = ch.apply(rho, eps)
        residuals = ch.tpcp_residual(eps)
        for b, row in enumerate(eps):
            single = ch.evaluate(rho, row)
            assert np.array_equal(stacked.output[b], single.output)
            assert np.array_equal(stacked.derivatives[b], single.derivatives)
            assert stacked.tpcp_residual[b] == single.tpcp_residual
            assert np.array_equal(outputs[b], single.output)
            assert residuals[b] == single.tpcp_residual

    def test_wrong_column_count(self, pauli):
        rho = pure_state_density(pauli.input_state)
        with pytest.raises(DimensionMismatch, match="expected 2 noise parameters, got 3"):
            pauli.channel.evaluate(rho, np.full((4, 3), 1e-3))
        with pytest.raises(DimensionMismatch):
            pauli.channel.evaluate(rho, np.full((2, 4, 2), 1e-3))

    @pytest.mark.parametrize("bad,message", [(-1e-3, "non-negative"), (np.nan, "finite"), (np.inf, "finite")])
    def test_bad_row_named(self, pauli, bad, message):
        rho = pure_state_density(pauli.input_state)
        eps = np.full((4, 2), 1e-3)
        eps[2, 1] = bad
        with pytest.raises(ConfigInvalid, match=rf"{message} \(row 2\)"):
            pauli.channel.evaluate(rho, eps)
        with pytest.raises(ConfigInvalid, match=rf"{message}$"):
            pauli.channel.evaluate(rho, eps[2])

    def test_row_outside_validity_named(self):
        ch = sqrt_completion_channel([[LOWER]])
        rho = pure_state_density(np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(TPCPViolation, match=r"\(row 1\)"):
            ch.evaluate(rho, np.array([[1e-3], [1.5], [2.5]]))


def test_nearly_normalized_vector_rejected():
    # within np.isclose's default rtol of 1, but the state's trace is 1 + 1e-5
    v = np.array([1.0 + 5e-6, 0.0], dtype=complex)
    with pytest.raises(ConfigInvalid):
        pure_state_density(v)


class TestHamiltonianGenerator:
    def test_plain_sqrt_completion_gives_zero(self, threelevel):
        for mu in range(2):
            assert np.linalg.norm(threelevel.channel.hamiltonian_generator(mu)) <= 1e-12

    def test_recovers_generators(self):
        rng = np.random.default_rng(33)
        gs = []
        for _ in range(2):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            g = (g + g.conj().T) / 2
            gs.append(g / np.linalg.norm(g, 2))
        ms = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
        ms = [m / np.linalg.norm(m, 2) for m in ms]
        ch = sqrt_completion_channel([[ms[0]], [ms[1]]], generators=gs)
        for mu in range(2):
            assert np.linalg.norm(ch.hamiltonian_generator(mu) - gs[mu]) <= 1e-10


class TestAncillaExtend:
    def test_tpcp_residual_preserved(self, pauli):
        ext = pauli.channel.ancilla_extend()
        eps = np.array([2e-3, 5e-3])
        assert abs(ext.tpcp_residual(eps) - pauli.channel.tpcp_residual(eps)) <= 1e-12

    def test_product_state_factorizes(self, pauli):
        rng = np.random.default_rng(8)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = pure_state_density(v / np.linalg.norm(v))
        sigma = pure_state_density(w / np.linalg.norm(w))
        eps = np.array([1e-3, 4e-3])
        lhs = pauli.channel.ancilla_extend().apply(np.kron(rho, sigma), eps)
        rhs = np.kron(pauli.channel.apply(rho, eps), sigma)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_bell_output_matches_orthogonal_image_sum(self):
        sc = scenario_ancilla_bell()
        eps = np.array([1e-3, 2e-3])
        psi = sc.input_state
        x_img = np.kron(SIGMA_X, np.eye(2)) @ psi
        z_img = np.kron(SIGMA_Z, np.eye(2)) @ psi
        expected = (
            (1 - eps.sum()) * np.outer(psi, psi.conj())
            + eps[0] * np.outer(x_img, x_img.conj())
            + eps[1] * np.outer(z_img, z_img.conj())
        )
        out = sc.channel.apply(pure_state_density(psi), eps)
        np.testing.assert_allclose(out, expected, atol=1e-14)


class TestFiniteDifference:
    def test_linear_channel_exact(self, pauli):
        rho = pure_state_density(pauli.input_state)
        eps = np.array([2e-3, 2e-3])
        for h in (1e-3, 1e-4):
            fd = pauli.channel.finite_difference_derivative(rho, 0, eps, h)
            expected = -rho + SIGMA_X @ rho @ SIGMA_X
            assert np.linalg.norm(fd - expected) <= 1e-10

    def test_second_order_convergence(self, threelevel):
        rho = pure_state_density(threelevel.input_state)
        eps = np.array([5e-3, 5e-3])
        ref = threelevel.channel.finite_difference_derivative(rho, 0, eps, 1e-6)
        err_h = np.linalg.norm(threelevel.channel.finite_difference_derivative(rho, 0, eps, 4e-3) - ref)
        err_h2 = np.linalg.norm(threelevel.channel.finite_difference_derivative(rho, 0, eps, 2e-3) - ref)
        assert err_h / err_h2 >= 3.0

    def test_constant_map_gives_zero(self):
        ch = LowNoiseChannel(2, 1, [], [])  # no jumps: the completion is the identity map
        rho = pure_state_density(np.array([1.0, 0.0], dtype=complex))
        fd = ch.finite_difference_derivative(rho, 0, np.zeros(1), h=1e-4)
        np.testing.assert_allclose(fd, np.zeros((2, 2)), atol=1e-12)

    def test_step_outside_validity(self):
        ch = sqrt_completion_channel([[LOWER]])
        rho = pure_state_density(np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(StepTooLarge):
            ch.finite_difference_derivative(rho, 0, np.array([0.9]), h=0.2)


def test_apply_outside_validity_raises():
    ch = sqrt_completion_channel([[LOWER]])
    rho = pure_state_density(np.array([0.0, 1.0], dtype=complex))
    with pytest.raises(TPCPViolation):
        ch.apply(rho, np.array([1.5]))


def test_negative_eps_rejected(pauli):
    rho = pure_state_density(pauli.input_state)
    with pytest.raises(ConfigInvalid):
        pauli.channel.apply(rho, np.array([-1e-3, 1e-3]))


def test_first_order_consistency_scenarios(pauli, threelevel):
    # the Pauli map is exactly linear in eps, so its remainder sits at the
    # numerical floor; the three-level completion has genuine curvature
    scales = np.geomspace(1e-5, 1e-2, 8)
    for sc, expect_floor in ((pauli, True), (threelevel, False)):
        rho = pure_state_density(sc.input_state)
        d0 = [sc.channel.derivative_at_zero(mu, rho) for mu in range(2)]
        vals = []
        for s in scales:
            eps = s * np.asarray(sc.sweep.direction)
            rem = sc.channel.apply(rho, eps) - rho - eps[0] * d0[0] - eps[1] * d0[1]
            vals.append(np.linalg.norm(rem))
        fit = fit_or_floor(scales, vals, floor=1e-13)
        if expect_floor:
            assert fit.at_floor
        else:
            assert not fit.at_floor and 1.85 <= fit.slope <= 2.15


def test_positivity_and_trace_over_grid(threelevel):
    rho = pure_state_density(threelevel.input_state)
    for s in np.geomspace(1e-5, 1e-2, 8):
        out = threelevel.channel.apply(rho, s * np.asarray(threelevel.sweep.direction))
        assert abs(np.trace(out).real - 1) <= 1e-10
        assert np.min(np.linalg.eigvalsh((out + out.conj().T) / 2)) >= -1e-10


class TestJumpStack:
    """The Kraus data are a jump stack with a parameter index plus one identity kind."""

    def test_builder_stacks_jumps_in_parameter_order(self):
        ch = sqrt_completion_channel([[SIGMA_X], [SIGMA_Z, LOWER]])
        assert ch.jumps.shape == (3, 2, 2)
        assert np.array_equal(ch.jumps, np.stack([SIGMA_X, SIGMA_Z, LOWER]))
        assert ch.params.tolist() == [0, 1, 1]
        assert ch.generators is None

    def test_completion_hamiltonian_is_its_generator(self):
        g = np.array([[0.0, 1j], [-1j, 0.0]])
        ch = sqrt_completion_channel([[SIGMA_X], [SIGMA_Z]], generators=[g, np.zeros((2, 2))])
        assert np.array_equal(ch.hamiltonian_generator(0), g)
        assert np.array_equal(ch.hamiltonian_generator(1), np.zeros((2, 2)))

    def test_ancilla_extend_lifts_every_stack(self):
        ch = random_channel(2, 2, [1, 2], seed=3, with_hamiltonian=True)
        ext = ch.ancilla_extend()
        assert np.array_equal(ext.params, ch.params)
        for small, big in ((ch.jumps, ext.jumps), (ch.generators, ext.generators)):
            assert np.array_equal(big, np.stack([np.kron(m, np.eye(2)) for m in small]))

    @pytest.mark.parametrize(
        "jumps,params,error",
        [
            ([SIGMA_X], [0, 0], DimensionMismatch),  # one index per jump
            ([SIGMA_X], [1], ConfigInvalid),  # index out of range
            ([np.eye(3)], [0], DimensionMismatch),  # wrong matrix shape
            ([SIGMA_X, np.eye(3)], [0, 0], DimensionMismatch),  # ragged stack
            ([np.full((2, 2), np.nan)], [0], ConfigInvalid),  # non-finite entries
            ([SIGMA_X, np.full((2, 2), np.inf)], [0, 0], ConfigInvalid),
            ([SIGMA_X, np.full((2, 2), -np.inf)], [0, 0], ConfigInvalid),
        ],
    )
    def test_constructor_checks_the_stack(self, jumps, params, error):
        with pytest.raises(error):
            LowNoiseChannel(2, 1, jumps, params)

    def test_constructor_rejects_a_channel_without_noise_parameters(self):
        with pytest.raises(ConfigInvalid, match="at least one noise parameter, got 0"):
            LowNoiseChannel(2, 0, [], [])

    def test_builder_needs_a_jump_per_parameter(self):
        # the per-parameter builder keeps its own check; a channel built directly may leave a parameter without a jump
        with pytest.raises(ConfigInvalid, match="at least one jump operator per parameter"):
            sqrt_completion_channel([[SIGMA_X], []])

    def test_constructor_checks_the_generator_count(self):
        with pytest.raises(ConfigInvalid):
            LowNoiseChannel(2, 1, [SIGMA_X], [0], generators=[SIGMA_Z, SIGMA_Z])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_generators_rejected(self, bad):
        with pytest.raises(ConfigInvalid, match="generators must be finite"):
            LowNoiseChannel(2, 1, [SIGMA_X], [0], generators=[np.full((2, 2), bad)])

    @pytest.mark.parametrize(
        "dim, num_params, message",
        [
            (0, 1, "channel dimension must be an integer >= 1, got 0"),
            (2.0, 1, "channel dimension must be an integer >= 1, got 2.0"),
            (2, -1, "noise parameter count must be an integer >= 0, got -1"),
            (2, True, "noise parameter count must be an integer >= 0, got True"),
        ],
    )
    def test_counts_that_are_not_integers_in_range_rejected(self, dim, num_params, message):
        with pytest.raises(ConfigInvalid, match=message):
            LowNoiseChannel(dim, num_params, [], [])


class TestConfigRoundTrip:
    def test_sqrt_completion_exact(self):
        ch = random_channel(3, 2, [1, 1], seed=77, with_hamiltonian=True)
        cfg = channel_to_config(ch)
        ch2 = channel_from_config(cfg)
        assert channel_to_config(ch2) == cfg
        rho = pure_state_density(np.array([1.0, 0, 0], dtype=complex))
        eps = np.array([1e-3, 2e-3])
        np.testing.assert_allclose(ch.apply(rho, eps), ch2.apply(rho, eps), atol=1e-15)

    def test_explicit_config_writes_back_as_its_completion(self):
        ch = channel_from_config(explicit_config([[SIGMA_X]], [(1.0, [0.5 * np.eye(2)])]))
        cfg = channel_to_config(ch)
        assert cfg == channel_to_config(sqrt_completion_channel([[SIGMA_X]]))
        ch2 = channel_from_config(cfg)
        assert channel_to_config(ch2) == cfg
        rho = pure_state_density(np.array([0.6, 0.8j]))
        eps = np.array([1e-4])
        assert np.array_equal(ch.apply(rho, eps), ch2.apply(rho, eps))

    @pytest.mark.parametrize("generators", [None, [SIGMA_Z, SIGMA_X]], ids=["plain", "generators"])
    def test_parameter_without_a_jump_round_trips(self, generators):
        ch = LowNoiseChannel(2, 2, [SIGMA_X], [0], generators=generators)
        cfg = channel_to_config(ch)
        back = channel_from_config(cfg)
        assert channel_to_config(back) == cfg
        assert back.params.tolist() == [0] and (back.generators is None) == (generators is None)
        rho = pure_state_density(np.array([0.6, 0.8j]))
        eps = np.array([1e-4, 2e-4])
        assert np.array_equal(ch.apply(rho, eps), back.apply(rho, eps))

    def test_malformed_config(self):
        with pytest.raises(ConfigInvalid):
            channel_from_config({"dim": 2})

    @pytest.mark.parametrize(
        "dim, num_params, message",
        [(2, -1, "num_params must be an integer >= 1, got -1"), (2, 0, "num_params must be an integer >= 1, got 0"),
         (0, 1, "dim must be an integer >= 1, got 0"), (2.5, 1, "dim must be an integer >= 1, got 2.5")],
    )
    def test_counts_checked_before_the_jump_lists(self, dim, num_params, message):
        with pytest.raises(ConfigInvalid, match=message):
            channel_from_config({"dim": dim, "num_params": num_params, "jump_operators": []})

    @pytest.mark.parametrize(
        "cfg",
        [
            {"dim": 2, "num_params": 1, "jump_operators": [{}]},
            {"dim": 2, "num_params": 1, "jump_operators": [{"param": 1}]},
            {"dim": 2, "num_params": 1, "jump_operators": [{"param": 1, "matrix": [[1]]}]},
            {"dim": 2, "num_params": 1, "jump_operators": [], "identity_terms": [{}]},
            {"dim": 2, "num_params": 1, "jump_operators": [], "identity_terms": [{"weight": [1.0, 0.0]}]},
        ],
        ids=["empty-item", "no-matrix", "bad-matrix", "empty-term", "no-linear"],
    )
    def test_malformed_item(self, cfg):
        with pytest.raises(ConfigInvalid, match="malformed channel config"):
            channel_from_config(cfg)

    def test_explicit_config_with_generators_rejected(self):
        # generators belong to the square-root completion; an explicit config does not drop them silently
        cfg = channel_to_config(random_channel(2, 1, [1], seed=3, with_hamiltonian=True))
        cfg.update(builder="explicit", identity_terms=[{"weight": [1.0, 0.0], "linear": [[[[0.0, 0.0]] * 2] * 2]}])
        with pytest.raises(ConfigInvalid, match="generators"):
            channel_from_config(cfg)

    @pytest.mark.parametrize("builder", ["sqrt-completion", "explicit"])
    def test_dim_is_honoured(self, builder):
        ch = random_channel(3, 2, [1, 1], seed=77)
        cfg = channel_to_config(ch)
        cfg.update(dim=2, builder=builder, identity_terms=[])
        with pytest.raises(ConfigInvalid, match=r"dim 2|expected \(2, 2\)"):
            channel_from_config(cfg)

    def test_invalid_channel_data_is_a_config_error(self):
        # the constructor's typed errors, raised from a config, are configuration errors
        cfg = channel_to_config(random_channel(2, 1, [1], seed=3))
        with pytest.raises(ConfigInvalid, match="NonHermitian"):
            channel_from_config(dict(cfg, generators=[[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]))
        zero = [[0.0, 0.0]] * 2
        terms = [{"weight": [1.0, 0.0], "linear": [[zero] * 2] * 2}]  # two parameters' coefficients for one
        with pytest.raises(ConfigInvalid, match="DimensionMismatch"):
            channel_from_config(dict(cfg, builder="explicit", identity_terms=terms))

    def test_non_finite_entries_rejected(self):
        cfg = explicit_config([[SIGMA_X]], [(1.0, [0.5 * np.eye(2)])])
        bad_matrix = json.loads(json.dumps(cfg))
        bad_matrix["jump_operators"][0]["matrix"][0][1] = [float("inf"), 0.0]
        bad_weight = json.loads(json.dumps(cfg))
        bad_weight["identity_terms"][0]["weight"] = [float("nan"), 0.0]
        for bad in (bad_matrix, bad_weight):
            with pytest.raises(ConfigInvalid, match="finite"):
                channel_from_config(bad)

    def test_proportional_jumps_rejected(self):
        with pytest.raises(ConfigInvalid):
            sqrt_completion_channel([[SIGMA_X, 2.0 * SIGMA_X]])


class TestExplicitConfig:
    """An "explicit" config's identity terms kappa_i 1 - sum eps_mu L[i, mu] are read as their completion."""

    def test_rescaled_weight_rejected(self):
        # weight 1.01 breaks the identity limit sum |kappa|^2 = 1
        with pytest.raises(ConfigInvalid, match=r"InconsistentKrausData: .*sum \|kappa\|\^2"):
            channel_from_config(explicit_config([[SIGMA_X]], [(1.01, [0.5 * np.eye(2)])]))

    def test_inconsistent_linear_term_rejected(self):
        # with S = X^dag X = 1 the consistent linear coefficient is 1 / 2; perturb it
        # without compensating the jump side
        bad = explicit_config([[SIGMA_X]], [(1.0, [0.5 * np.eye(2) + 1e-3 * SIGMA_X])])
        with pytest.raises(ConfigInvalid, match="InconsistentKrausData: effective Hamiltonian for parameter 1"):
            channel_from_config(bad)

    def test_identity_data_checked(self):
        two_weights = explicit_config([[SIGMA_X]], [(1.0, [0.5 * np.eye(2)])])
        two_weights["identity_terms"][0]["linear"] = []
        with pytest.raises(ConfigInvalid, match="one weight and one linear coefficient"):
            channel_from_config(two_weights)
        with pytest.raises(ConfigInvalid, match="DimensionMismatch"):
            channel_from_config(explicit_config([[SIGMA_X]], [(1.0, [0.5 * np.eye(2)] * 2)]))

    @pytest.mark.parametrize("builder", ["sqrt-completion", "explicit"])
    def test_completion_outside_its_region_at_scale_1e_2_rejected(self, builder):
        # S = 121 |1><1|: the completion argument 1 - eps S is negative at eps = 1e-2, whichever builder reads it
        strong = 11 * LOWER
        cfg = explicit_config([[strong]], [(1.0, [0.5 * strong.conj().T @ strong])])
        with pytest.raises(ConfigInvalid, match="TPCPViolation: completion argument has negative eigenvalue"):
            channel_from_config(dict(cfg, builder=builder))

    def test_generators_are_the_effective_hamiltonians(self):
        # kappa = e^{i theta} and L = kappa (S/2 + i H) give G = H, whatever theta is
        kappa = np.exp(0.3j)
        h = np.array([[0.2, 0.1 - 0.4j], [0.1 + 0.4j, -0.5]])
        s = LOWER.conj().T @ LOWER
        ch = channel_from_config(explicit_config([[LOWER]], [(kappa, [kappa * (0.5 * s + 1j * h)])]))
        np.testing.assert_allclose(ch.generators[0], h, atol=1e-15)
        completion = sqrt_completion_channel([[LOWER]], generators=[ch.generators[0]])
        assert channel_to_config(ch) == channel_to_config(completion)

    def test_parameter_without_a_jump_is_legal(self):
        # parameter 2 has no jump and acts only through its Hamiltonian
        s = SIGMA_X.conj().T @ SIGMA_X
        ch = channel_from_config(explicit_config([[SIGMA_X], []], [(1.0, [0.5 * s, 1j * SIGMA_Z])]))
        assert ch.params.tolist() == [0]
        np.testing.assert_array_equal(ch.generators[1], SIGMA_Z)
        rho = pure_state_density(np.array([0.6, 0.8]))
        np.testing.assert_allclose(ch.derivative_at_zero(1, rho), -1j * (SIGMA_Z @ rho - rho @ SIGMA_Z), atol=1e-15)


@st.composite
def explicit_data(draw):
    """Random explicit identity data, consistent at first order, with the Hamiltonians G they define.

    N = 2-4, D = 1-3, 1 or 2 jumps per parameter and 1-3 identity terms.
    Term 0's L[0, mu] is solved from sum_i conj(kappa_i) L[i, mu] = S_mu / 2 + i G_mu.
    """
    dim, num_params, count = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def matrix():
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return m / np.linalg.norm(m, 2)

    per_param = [[matrix() for _ in range(rng.integers(1, 3))] for _ in range(num_params)]
    kappa = np.concatenate([[1.0], 0.5 * (rng.uniform(-1, 1, count - 1) + 1j * rng.uniform(-1, 1, count - 1))])
    kappa /= np.linalg.norm(kappa)
    hams = [(m + m.conj().T) / 2 for m in (matrix() for _ in range(num_params))]
    linear = [[matrix() for _ in range(num_params)] for _ in range(count)]
    for mu, (ms, g) in enumerate(zip(per_param, hams)):
        rest = sum(np.conj(k) * lin[mu] for k, lin in zip(kappa[1:], linear[1:]))
        linear[0][mu] = (sum(m.conj().T @ m for m in ms) / 2 + 1j * g - rest) / np.conj(kappa[0])
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return per_param, list(zip(kappa, linear)), hams, pure_state_density(phi / np.linalg.norm(phi))


def linear_identity_map(per_param, terms, rho, eps):
    """The explicit data's own map: sum_i K_i rho K_i^dag plus the jumps, K_i = kappa_i 1 - sum eps_mu L[i, mu]."""
    out = sum(eps[mu] * m @ rho @ m.conj().T for mu, ms in enumerate(per_param) for m in ms)
    for kappa, linear in terms:
        k = kappa * np.eye(len(rho)) - sum(e * lin for e, lin in zip(eps, linear))
        out = out + k @ rho @ k.conj().T
    return out


@seed(29)
@settings(max_examples=40, deadline=None)
@given(explicit_data())
def test_explicit_data_give_their_first_order_and_differ_at_second(data):
    per_param, terms, hams, rho = data
    ch = channel_from_config(explicit_config(per_param, terms, dim=len(rho)))
    at_zero = ch.evaluate(rho, np.zeros(ch.num_params)).derivatives
    for mu, (ms, g) in enumerate(zip(per_param, hams)):
        s = sum(m.conj().T @ m for m in ms)
        lindblad = sum(m @ rho @ m.conj().T for m in ms) - 0.5 * (s @ rho + rho @ s) - 1j * (g @ rho - rho @ g)
        assert np.max(np.abs(ch.derivative_at_zero(mu, rho) - lindblad)) <= 1e-12
        assert np.max(np.abs(at_zero[mu] - lindblad)) <= 1e-12
    scales = np.geomspace(1e-4, 1e-2, 5)
    eps = scales[:, None] * np.full(ch.num_params, 1.0 / ch.num_params)
    outputs = ch.apply(rho, eps)
    gaps = [np.linalg.norm(linear_identity_map(per_param, terms, rho, e) - out) for e, out in zip(eps, outputs)]
    slope = np.polyfit(np.log(scales), np.log(gaps), 1)[0]
    assert 1.8 < slope < 2.2

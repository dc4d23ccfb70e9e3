from dataclasses import dataclass

import numpy as np
import pytest

from lownoise.channels import pure_state_density
from lownoise.errors import EmptySum, NoConvergence, SingularFisher
from lownoise.fisher import (
    FisherMatrix,
    classical_fisher,
    default_support_threshold,
    divergent_fisher,
    fisher_inverse,
    fisher_pseudo_inverse,
    nondegeneracy_det,
    pure_input_dominance,
    quantum_fisher,
    sqrt_prob_gram,
)
from lownoise.linalg import dagger, fit_or_floor, power_order_fit
from lownoise.scenarios import (
    random_channel,
    scenario_ancilla_bell,
    scenario_pauli2,
    scenario_threelevel,
)
from lownoise.spectral import output_spectrum_with_gradients

SCALES = np.geomspace(1e-5, 1e-2, 8)


@dataclass(frozen=True)
class SLDSet:
    """Symmetric logarithmic derivative operators, one per parameter."""

    operators: tuple[np.ndarray, ...]
    support_threshold: float
    dropped_weight: float  # largest |<n|drho|m>| discarded by the support cutoff


def sld_operators(probs, basis, drho, support_threshold=None) -> SLDSet:
    """Solve d rho = (L rho + rho L)/2 for each parameter on the state's support.

    The reference that ``quantum_fisher`` is checked against.  Matrix
    elements between basis vectors n, m are 2 <n|drho|m> / (p_n + p_m);
    elements with p_n + p_m at or below the support threshold are gauge and
    set to zero.
    """
    probs = np.asarray(probs, dtype=float)
    if support_threshold is None:
        support_threshold = default_support_threshold(probs.shape[0])
    psum = probs[:, None] + probs[None, :]
    mask = psum > support_threshold
    weights = np.where(mask, 2.0 / np.where(mask, psum, 1.0), 0.0)
    ops = []
    dropped = 0.0
    for d in drho:
        dmat = dagger(basis) @ np.asarray(d, dtype=complex) @ basis
        if np.any(~mask):
            dropped = max(dropped, float(np.max(np.abs(dmat[~mask]))))
        lmat = weights * dmat
        lmat = (lmat + dagger(lmat)) / 2
        ops.append(basis @ lmat @ dagger(basis))
    return SLDSet(operators=tuple(ops), support_threshold=float(support_threshold), dropped_weight=dropped)


def sld_fisher_cross_check(probs, basis, slds):
    """Independent Fisher evaluation Tr[rho {L_mu, L_nu}]/2."""
    rho = (basis * probs) @ dagger(basis)
    ops = slds.operators
    num = len(ops)
    out = np.zeros((num, num))
    for mu in range(num):
        for nu in range(num):
            anti = ops[mu] @ ops[nu] + ops[nu] @ ops[mu]
            out[mu, nu] = float(np.real(np.trace(rho @ anti))) / 2
    return out


@pytest.fixture(scope="module")
def pauli():
    return scenario_pauli2()


@pytest.fixture(scope="module")
def bell():
    return scenario_ancilla_bell()


@pytest.fixture(scope="module")
def threelevel():
    return scenario_threelevel()


def pipeline_quantities(sc, s):
    eps = s * np.asarray(sc.sweep.direction)
    spec, grads = output_spectrum_with_gradients(sc.channel, sc.input_state, eps)
    return eps, spec, grads, spec.derivatives


class TestSLD:
    def test_sld_equation_residual_on_support(self, pauli):
        eps, spec, grads, drho = pipeline_quantities(pauli, 1e-3)
        slds = sld_operators(spec.probs, spec.basis, drho)
        rho = (spec.basis * spec.probs) @ spec.basis.conj().T
        for l, d in zip(slds.operators, drho):
            res = d - 0.5 * (l @ rho + rho @ l)
            assert np.linalg.norm(res) <= 1e-8
            assert np.linalg.norm(l - l.conj().T) <= 1e-10

    def test_pauli_closed_form(self, pauli):
        eps, spec, grads, drho = pipeline_quantities(pauli, 1e-3)
        slds = sld_operators(spec.probs, spec.basis, drho)
        closed = pauli.closed_forms["sld"](eps)
        for got, want in zip(slds.operators, closed):
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_zero_derivative_zero_sld(self, pauli):
        eps, spec, grads, drho = pipeline_quantities(pauli, 1e-3)
        slds = sld_operators(spec.probs, spec.basis, [np.zeros((2, 2), complex)])
        np.testing.assert_allclose(slds.operators[0], np.zeros((2, 2)), atol=1e-15)

    def test_pure_state_support_convention(self):
        # rank-1 spectrum: kernel-kernel block of the SLD is gauge, set to zero
        probs = np.array([1.0, 0.0, 0.0])
        basis = np.eye(3, dtype=complex)
        d = np.zeros((3, 3), complex)
        d[0, 1] = d[1, 0] = 0.3
        d[1, 2] = d[2, 1] = 0.9  # kernel-kernel element, dropped
        slds = sld_operators(probs, basis, [d])
        l = slds.operators[0]
        assert abs(l[0, 1] - 2 * 0.3) <= 1e-12
        assert abs(l[1, 2]) == 0.0
        assert slds.dropped_weight == pytest.approx(0.9)


class TestQuantumFisher:
    def test_pauli_closed_form_every_scale(self, pauli):
        for s in SCALES:
            eps, spec, grads, drho = pipeline_quantities(pauli, s)
            jq = quantum_fisher(spec.probs, spec.basis, drho)
            closed = pauli.closed_forms["fisher"](eps)
            tol = 1e-8 * np.maximum(1.0, np.abs(closed))
            assert np.all(np.abs(jq.entries - closed) <= tol)

    def test_two_form_equality(self, pauli, threelevel):
        for sc in (pauli, threelevel):
            eps, spec, grads, drho = pipeline_quantities(sc, 2e-3)
            jq = quantum_fisher(spec.probs, spec.basis, drho)
            slds = sld_operators(spec.probs, spec.basis, drho)
            alt = sld_fisher_cross_check(spec.probs, spec.basis, slds)
            assert np.max(np.abs(jq.entries - alt)) <= 1e-8 * max(1.0, np.max(np.abs(alt)))

    def test_bell_diagonal_scaling(self, bell):
        eps, spec, grads, drho = pipeline_quantities(bell, 3e-3)
        jq = quantum_fisher(spec.probs, spec.basis, drho)
        assert abs(jq.entries[0, 0] * eps[0] - 1) <= 10 * eps.sum()
        assert abs(jq.entries[1, 1] * eps[1] - 1) <= 10 * eps.sum()
        closed = bell.closed_forms["fisher"](eps)
        assert np.max(np.abs(jq.entries - closed)) <= 1e-6 * np.max(np.abs(closed))

    def test_zero_derivatives(self, pauli):
        eps, spec, grads, drho = pipeline_quantities(pauli, 1e-3)
        jq = quantum_fisher(spec.probs, spec.basis, [np.zeros((2, 2), complex)] * 2)
        np.testing.assert_allclose(jq.entries, np.zeros((2, 2)), atol=1e-15)

    def test_symmetric_psd(self, threelevel):
        eps, spec, grads, drho = pipeline_quantities(threelevel, 1e-3)
        jq = quantum_fisher(spec.probs, spec.basis, drho)
        assert np.max(np.abs(jq.entries - jq.entries.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(jq.entries)) >= -1e-10


class TestClassicalFisher:
    def test_bernoulli_closed_form(self):
        probs = np.array([0.9, 0.1])
        dprobs = np.array([[-1.0, 1.0]])
        jc = classical_fisher(probs, dprobs)
        assert jc.entries[0, 0] == pytest.approx(1 / 0.9 + 1 / 0.1, rel=1e-12)

    def test_constant_distribution(self):
        probs = np.array([0.5, 0.5])
        dprobs = np.zeros((2, 2))
        jc = classical_fisher(probs, dprobs)
        np.testing.assert_allclose(jc.entries, np.zeros((2, 2)))

    def test_sqrt_probability_form(self, pauli, threelevel, bell):
        # sum_n dp dp^T / p_n = 4 sum_n d(sqrt p) d(sqrt p)^T on the same support
        for sc in (pauli, threelevel, bell):
            for s in SCALES[::3]:
                eps, spec, grads, drho = pipeline_quantities(sc, s)
                jc = classical_fisher(spec.probs, grads)
                alt = 4.0 * sqrt_prob_gram(spec.probs, grads)
                assert np.max(np.abs(jc.entries - alt)) <= 1e-9 * max(1.0, float(np.max(np.abs(jc.entries))))

    def test_divergent_is_leading_part(self, threelevel):
        # classical minus divergent stays bounded while each diverges as 1/s
        diffs = []
        j11 = []
        for s in SCALES:
            eps, spec, grads, drho = pipeline_quantities(threelevel, s)
            jc = classical_fisher(spec.probs, grads)
            jd = divergent_fisher(spec.shifts(), grads[:, 1:], [0, 1])
            diffs.append(np.linalg.norm(jc.entries - jd.entries))
            j11.append(jd.entries[0, 0])
        fit = fit_or_floor(SCALES, diffs, 1e-13)
        assert fit is None or fit.slope >= -0.2
        assert abs(power_order_fit(list(zip(SCALES, j11))).slope + 1) <= 0.15


class TestDivergentFisher:
    def test_bell_exact_diagonal(self, bell):
        eps, spec, grads, drho = pipeline_quantities(bell, 3e-3)
        jd = divergent_fisher(spec.shifts(), grads[:, 1:], [0, 1])
        want = np.diag([1 / eps[0], 1 / eps[1]])
        assert np.max(np.abs(jd.entries - want)) <= 1e-9 * np.max(want)

    def test_single_shift_formula(self):
        jd = divergent_fisher(np.array([2e-3]), np.array([[2.0]]), [0])
        assert jd.entries[0, 0] == pytest.approx(4.0 / 2e-3)

    def test_empty_sum(self):
        with pytest.raises(EmptySum):
            divergent_fisher(np.array([1e-3]), np.array([[1.0]]), [])

    def test_quantum_minus_divergent_bounded_for_commuting_structure(self, bell):
        diffs = []
        for s in SCALES:
            eps, spec, grads, drho = pipeline_quantities(bell, s)
            jq = quantum_fisher(spec.probs, spec.basis, drho)
            jd = divergent_fisher(spec.shifts(), grads[:, 1:], [0, 1])
            diffs.append(np.linalg.norm(jq.entries - jd.entries))
        fit = power_order_fit(list(zip(SCALES, diffs)))
        assert fit.slope >= -0.2


class TestNondegeneracy:
    def test_solver_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "det", fail)
        with pytest.raises(NoConvergence):
            nondegeneracy_det(np.array([0.9, 0.1]), np.array([[-1.0, 1.0]]))

    def test_bell_gate_order(self, bell):
        dets = []
        for s in SCALES:
            eps, spec, grads, drho = pipeline_quantities(bell, s)
            dets.append(abs(nondegeneracy_det(spec.probs, grads)))
        fit = power_order_fit(list(zip(SCALES, dets)))
        assert abs(fit.slope + 2) <= 0.3  # order -D for D = 2
        assert min(dets) > 0

    def test_duplicated_parameter_degenerate(self):
        probs = np.array([0.99, 0.006, 0.004])
        g = np.array([1.0, -0.5, -0.5])
        dprobs = np.vstack([g, g])  # identical rows
        gram = sqrt_prob_gram(probs, dprobs)
        assert abs(np.linalg.det(gram)) <= 1e-12 * max(1.0, np.linalg.norm(gram)) ** 2

    def test_too_many_parameters_on_qubit(self):
        ch = random_channel(2, 3, [1, 1, 1], seed=31)
        phi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        eps = np.full(3, 1e-3)
        spec, grads = output_spectrum_with_gradients(ch, phi, eps)
        gram = sqrt_prob_gram(spec.probs, grads)
        det = nondegeneracy_det(spec.probs, grads)
        assert abs(det) <= 1e-12 * max(1.0, np.linalg.norm(gram)) ** 3


class TestFisherInverse:
    def test_pseudo_inverse_solver_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "pinv", fail)
        fm = divergent_fisher(np.array([1e-3]), np.array([[1.0], [2.0]]), [0])
        with pytest.raises(NoConvergence):
            fisher_pseudo_inverse(fm)

    def test_bell_inverse_closed_form(self, bell):
        eps, spec, grads, drho = pipeline_quantities(bell, 3e-3)
        jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, drho))
        closed = bell.closed_forms["jinv"](eps)
        assert np.max(np.abs(jq.inverse - closed)) <= 1e-10
        assert np.linalg.norm(jq.entries @ jq.inverse - np.eye(2)) <= 1e-8 * jq.condition_number

    def test_jinv_vs_diag_second_order(self, bell):
        vals = []
        for s in SCALES:
            eps, spec, grads, drho = pipeline_quantities(bell, s)
            jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, drho))
            vals.append(np.linalg.norm(jq.inverse - np.diag(eps)))
        fit = power_order_fit(list(zip(SCALES, vals)))
        assert 1.8 <= fit.slope <= 2.2

    def test_pauli_inverse_eigenvalue_orders(self, pauli):
        eigs = []
        for s in SCALES:
            eps, spec, grads, drho = pipeline_quantities(pauli, s)
            jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, drho))
            eigs.append(np.sort(np.linalg.eigvalsh(jq.inverse))[::-1])
        eigs = np.array(eigs)
        assert abs(power_order_fit(list(zip(SCALES, eigs[:, 0]))).slope) <= 0.15
        assert abs(power_order_fit(list(zip(SCALES, eigs[:, 1]))).slope - 1) <= 0.15

    def test_pauli_closed_inverse_matches(self, pauli):
        eps, spec, grads, drho = pipeline_quantities(pauli, 1e-3)
        jq = fisher_inverse(quantum_fisher(spec.probs, spec.basis, drho))
        closed = pauli.closed_forms["jinv"](eps)
        assert np.max(np.abs(jq.inverse - closed)) <= 1e-8

    def test_singular_raises(self):
        fm = divergent_fisher(np.array([1e-3]), np.array([[1.0], [2.0]]), [0])
        with pytest.raises(SingularFisher):
            fisher_inverse(fm)
        with pytest.raises(SingularFisher):
            fisher_inverse(FisherMatrix(kind="quantum", entries=np.zeros((3, 3))))
        pinv = fisher_pseudo_inverse(fm)
        assert np.linalg.norm(pinv.inverse @ fm.entries @ pinv.inverse - pinv.inverse) <= 1e-10


    @pytest.mark.parametrize("num", [2, 8])
    def test_well_conditioned_accepted_at_any_dimension(self, num):
        # condition number 2e5: far from singular, whatever the number of parameters
        entries = np.diag(np.geomspace(1.0, 5e-6, num))
        fm = fisher_inverse(FisherMatrix(kind="divergent", entries=entries))
        np.testing.assert_allclose(fm.inverse, np.diag(1.0 / np.diag(entries)), rtol=1e-12)
        assert fm.condition_number == pytest.approx(2e5)

    def test_singularity_threshold_is_relative(self):
        for ratio, singular in ((1e-11, False), (1e-12, True), (1e-13, True)):
            fm = FisherMatrix(kind="divergent", entries=1e-20 * np.diag([1.0, ratio]))
            if singular:
                with pytest.raises(SingularFisher):
                    fisher_inverse(fm)
            else:
                assert fisher_inverse(fm).condition_number == pytest.approx(1.0 / ratio)


class TestPureInputDominance:
    def test_pure_input_trivial_equality(self, threelevel):
        phi = threelevel.input_state
        rho = pure_state_density(phi)
        assert pure_input_dominance(
            threelevel.channel, rho, [(1.0, phi)], np.array([1.0, 0.0]), np.array([2e-3, 2e-3])
        )

    def test_maximally_mixed_pauli(self, pauli):
        rho = 0.5 * np.eye(2, dtype=complex)
        decomposition = [
            (0.5, np.array([1.0, 0.0], dtype=complex)),
            (0.5, np.array([0.0, 1.0], dtype=complex)),
        ]
        for u in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            assert pure_input_dominance(pauli.channel, rho, decomposition, u, np.array([3e-3, 2e-3]))

    def test_mixture_is_the_weighted_sum_of_its_components(self):
        # the premise that lets the check evaluate each pure component once
        ch = random_channel(3, 2, [1, 2], seed=31, with_hamiltonian=True)
        rng = np.random.default_rng(31)
        vecs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        weights = (0.3, 0.7)
        rho = sum(w * pure_state_density(v) for w, v in zip(weights, vecs))
        eps = np.array([2e-3, 1e-3])
        direct = ch.evaluate(rho, eps)
        parts = [ch.evaluate(pure_state_density(v), eps) for v in vecs]
        assert np.max(np.abs(direct.output - sum(w * p.output for w, p in zip(weights, parts)))) <= 1e-15
        assert np.max(np.abs(direct.derivatives - sum(w * p.derivatives for w, p in zip(weights, parts)))) <= 1e-14

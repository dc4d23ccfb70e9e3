"""Acceptance checks: scenario closed forms, attainment orders, property suite.

Each criterion is a function returning a CheckResult so the same code
backs both the pytest acceptance module and the command-line ``verify``
subcommand.  Tolerances are fixed here, not configurable.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import curves, estimator as est, fisher, spectral
from .channels import pure_state_density
from .errors import ConfigInvalid, SingularFisher
from .linalg import eigensolve, fit_or_floor, power_order_fit, richardson_zero_limit
from .scenarios import (
    DEFAULT_SCALES,
    random_channel,
    random_input_state,
    scenario_ancilla_bell,
    scenario_pauli2,
    scenario_threelevel,
)
from .sweep import run_sweep
from .report import render_jsonl


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name: str, start: float, failures: list[str], budget: float | None = None) -> CheckResult:
    elapsed = time.perf_counter() - start
    fails = list(failures)
    if budget is not None and elapsed > budget:
        fails.append(f"runtime {elapsed:.1f}s exceeds budget {budget:.0f}s")
    detail = "ok" if not fails else "; ".join(fails)
    return CheckResult(name=name, passed=not fails, detail=detail, seconds=elapsed)


def _band(fit, lo: float, hi: float) -> bool:
    if fit is None:
        return True  # below the numerical floor: decays faster than any claim
    return lo <= fit.slope <= hi


# ---------------------------------------------------------------------------
# criterion 1: ancilla Bell closed forms


def check_ancilla_bell() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    sc = scenario_ancilla_bell()
    spectra = spectral.output_shift_curves(sc.channel, sc.input_state, sc.sweep.direction, sc.sweep.scales)
    jinv_gap = []
    for s, spec in zip(sc.sweep.scales, spectra):
        eps = spec.eps
        dm = spectral.output_deviation_matrix(spec.output, sc.input_state, sc.frame)
        printed = sc.closed_forms["deviation_printed"](eps)
        if np.max(np.abs(dm - printed)) > 1e-14:
            failures.append(f"deviation matrix deviates from the reference at scale {s:g}")
        got = np.sort(spectral.deviation_eigenvalues(dm))
        want = np.sort(sc.closed_forms["shifts"](eps))
        if np.max(np.abs(got - want)) > 1e-14:
            failures.append(f"shifts deviate from (eps2, eps1, 0) at scale {s:g}")
        jq = fisher.quantum_fisher(spec.probs, spec.basis, spec.derivatives)
        l1 = abs(jq.entries[0, 0] * eps[0] - 1.0)
        l2 = abs(jq.entries[1, 1] * eps[1] - 1.0)
        if l1 > 10 * np.sum(eps) or l2 > 10 * np.sum(eps):
            failures.append(f"diagonal Fisher entries off at scale {s:g}")
        jinv = fisher.fisher_inverse(jq).inverse
        jinv_gap.append(float(np.linalg.norm(jinv - np.diag(eps))))
    fit = power_order_fit(list(zip(sc.sweep.scales, jinv_gap)))
    if not 1.8 <= fit.slope <= 2.2:
        failures.append(f"||Jinv - diag(eps)|| order {fit.slope:.3f} outside 2.0 +/- 0.2")
    return _result("ancilla-bell closed forms", start, failures, budget=5.0)


# ---------------------------------------------------------------------------
# criterion 2: Pauli-pair closed forms


def check_pauli() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    sc = scenario_pauli2()
    spectra = spectral.output_shift_curves(sc.channel, sc.input_state, sc.sweep.direction, sc.sweep.scales)
    jinvs = []
    for s, spec in zip(sc.sweep.scales, spectra):
        eps = spec.eps
        jq = fisher.quantum_fisher(spec.probs, spec.basis, spec.derivatives)
        closed = sc.closed_forms["fisher"](eps)
        tol = 1e-8 * np.maximum(1.0, np.abs(closed))
        if np.any(np.abs(jq.entries - closed) > tol):
            worst = float(np.max(np.abs(jq.entries - closed) / np.maximum(1.0, np.abs(closed))))
            failures.append(f"Fisher matrix off the Bloch form by {worst:.2e} (scaled) at scale {s:g}")
        jinvs.append(fisher.fisher_inverse(jq).inverse)
    eigs = np.array([np.sort(eigensolve(j, vectors=False))[::-1] for j in jinvs])
    big = power_order_fit(list(zip(sc.sweep.scales, eigs[:, 0])))
    small = power_order_fit(list(zip(sc.sweep.scales, eigs[:, 1])))
    if not -0.15 <= big.slope <= 0.15:
        failures.append(f"large inverse-Fisher eigenvalue order {big.slope:.3f} outside 0 +/- 0.15")
    if not 0.85 <= small.slope <= 1.15:
        failures.append(f"small inverse-Fisher eigenvalue order {small.slope:.3f} outside 1 +/- 0.15")
    jinv0 = richardson_zero_limit(sc.sweep.scales[0], jinvs[0], sc.sweep.scales[1], jinvs[1])
    grad = sc.closed_forms["grad_norm2"](np.zeros(2))
    if np.linalg.norm(jinv0 @ grad) > 1e-8:
        failures.append(f"extrapolated inverse does not annihilate the purity gradient: {np.linalg.norm(jinv0 @ grad):.2e}")
    if np.max(np.abs(jinv0 - sc.closed_forms["jinv_zero"]())) > 1e-8:
        failures.append("extrapolated inverse misses the rank-one zero-noise form")
    return _result("pauli2 closed forms", start, failures)


# ---------------------------------------------------------------------------
# criterion 3: three-level closed forms via the covariance reduction


def _leading_inverse_fisher(ch, phi, eps: np.ndarray) -> np.ndarray:
    """Inverse divergent Fisher from the jump-covariance eigenvalue curves.

    Entry (i, j) of the covariance carries sqrt(eps_p_i eps_p_j), so
    d_mu Lambda = Lambda o (d_i + d_j) with d_i = [p_i = mu] / (2 eps_mu).
    """
    lm = spectral.jump_covariance(ch, phi, eps)
    derivatives = []
    for mu in range(ch.num_params):
        d = (ch.params == mu) / (2.0 * eps[mu])
        derivatives.append(lm * (d[:, None] + d[None, :]))
    values, _, derivs = curves.eigencurve_derivatives(lm, derivatives)
    jdiv = fisher.divergent_fisher(values, derivs, list(range(values.shape[0])))
    return fisher.fisher_inverse(jdiv).inverse


def check_threelevel() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    sc = scenario_threelevel()
    direction = np.asarray(sc.sweep.direction)
    # shift closed forms, including at an uneven reference point
    for eps in [np.array([1e-3, 2e-3]), 1e-3 * direction, 2e-3 * direction]:
        lm = spectral.jump_covariance(sc.channel, sc.input_state, eps)
        got = spectral.reduced_shifts(lm, sc.channel.dim)
        want = np.sort(sc.closed_forms["shifts"](eps))[::-1]
        rel = np.max(np.abs(got - want) / np.abs(want))
        if rel > 1e-6:
            failures.append(f"shift closed form off by rel {rel:.2e} at eps={eps}")
    for s in (1e-3, 2e-3):
        eps = s * direction
        jinv = _leading_inverse_fisher(sc.channel, sc.input_state, eps)
        closed = sc.closed_forms["jinv"](eps)
        rel = float(np.max(np.abs(jinv - closed) / np.abs(closed)))
        if rel > 1e-6:
            failures.append(f"inverse-Fisher closed form off by rel {rel:.2e} at scale {s:g}")
    for s in (1e-4, 1e-3, 1e-2):
        eps = s * direction
        dm = spectral.deviation_matrix(sc.channel, sc.input_state, eps)
        lm = spectral.jump_covariance(sc.channel, sc.input_state, eps)
        lead = spectral.deviation_eigenvalues(dm)
        reduced = spectral.reduced_shifts(lm, sc.channel.dim)
        padded = np.zeros(sc.channel.dim - 1)
        padded[: reduced.shape[0]] = reduced
        if np.max(np.abs(np.sort(lead) - np.sort(padded))) > 1e-12:
            failures.append(f"covariance reduction misses deviation eigenvalues at scale {s:g}")
    return _result("three-level closed forms", start, failures)


# ---------------------------------------------------------------------------
# criterion 4: attainment orders plus the Cramer-Rao direction check


def check_attainment() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    for sc in (scenario_ancilla_bell(), scenario_threelevel()):
        report = run_sweep(sc)
        fits = {f["name"]: f for f in report.fits}
        checks = {c["name"]: c for c in report.checks}
        for key in ("unbiasedness", "mse_vs_divergent_inverse"):
            f = fits.get(key)
            if f is None:
                failures.append(f"{sc.name}: fit {key} missing")
            elif not (f["at_floor"] or 1.8 <= f["slope"] <= 2.2):
                failures.append(f"{sc.name}: {key} order {f['slope']:.3f} outside 2.0 +/- 0.2")
        if not checks["cr_direction"]["passed"]:
            failures.append(f"{sc.name}: Cramer-Rao direction check failed")
        if not checks["attainment"]["passed"]:
            failures.append(f"{sc.name}: attainment not reached")
    return _result("attainment orders", start, failures, budget=30.0)


# ---------------------------------------------------------------------------
# criterion 5: negative control


def check_negative_control() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    report = run_sweep(scenario_pauli2())
    fits = {f["name"]: f for f in report.fits}
    gap = fits.get("bad_direction_gap")
    if gap is None or gap["at_floor"]:
        failures.append("bad-direction gap missing or at floor")
    elif gap["slope"] > 0.3:
        failures.append(f"bad-direction gap order {gap['slope']:.3f} exceeds 0.3: gap would vanish")
    att = {c["name"]: c for c in report.checks}.get("attainment")
    if att is None or att["passed"] or not att["expected_failure"]:
        failures.append("attainment row should fail by design for the no-ancilla scenario")
    return _result("negative control", start, failures)


# ---------------------------------------------------------------------------
# criterion 6: random-channel property suite


def _seed_params(seed: int) -> tuple[int, int]:
    dim = (2, 3, 4)[seed % 3]
    num_params = 1 + seed % (dim - 1) if dim > 2 else 1
    return dim, num_params


def check_property_suite(num_seeds: int = 100) -> CheckResult:
    if num_seeds < 1:
        raise ConfigInvalid(f"the property suite needs at least one seed, got {num_seeds}")
    start = time.perf_counter()
    failures: list[str] = []
    scales = np.asarray(DEFAULT_SCALES)
    for seed in range(num_seeds):
        dim, num_params = _seed_params(seed)
        ch = random_channel(dim, num_params, [1] * num_params, seed, with_hamiltonian=bool(seed % 2))
        phi = random_input_state(dim, seed)
        rho_in = pure_state_density(phi)
        direction = np.full(num_params, 1.0 / num_params)
        d0 = [ch.derivative_at_zero(mu, rho_in) for mu in range(num_params)]
        # one stacked channel evaluation for the whole grid: each spectrum
        # carries its output state, derivatives, completeness residual and
        # eigenvalue gradients
        specs = spectral.output_shift_curves(ch, phi, direction, scales)
        first_order = []
        for s, spec in zip(scales, specs):
            eps = spec.eps
            if spec.tpcp_residual > 1e-10:
                failures.append(f"seed {seed}: trace-preservation residual at scale {s:g}")
            # probs diagonalize the symmetrized output state
            if np.min(spec.probs) < -1e-10:
                failures.append(f"seed {seed}: output negativity at scale {s:g}")
            rem = spec.output - rho_in
            for mu in range(num_params):
                rem = rem - eps[mu] * d0[mu]
            first_order.append(np.linalg.norm(rem))
        fit = power_order_fit(list(zip(scales, first_order)))
        if not 1.85 <= fit.slope <= 2.15:
            failures.append(f"seed {seed}: first-order consistency slope {fit.slope:.3f}")
        labels, _ = spectral.classify_shift_curves(scales, [spec.shifts() for spec in specs])
        included = [i for i, lab in enumerate(labels) if lab == "order-1"]
        cvd = []
        jdivs = []
        for spec in specs:
            jc = fisher.classical_fisher(spec.probs, spec.gradients)
            jdivs.append(fisher.divergent_fisher(spec.shifts(), spec.shift_gradients(), included))
            cvd.append(np.linalg.norm(jc.entries - jdivs[-1].entries))
        fit_cvd = fit_or_floor(scales, cvd, 1e-13)
        if fit_cvd is not None and fit_cvd.slope < -0.2:
            failures.append(f"seed {seed}: classical-vs-divergent slope {fit_cvd.slope:.3f} diverges")
        eps = 1e-3 * direction
        dm_lead = spectral.deviation_matrix(ch, phi, eps)
        lm = spectral.jump_covariance(ch, phi, eps)
        if spectral.trace_power_residual(dm_lead, lm, kmax=5) > 1e-11:
            failures.append(f"seed {seed}: trace-power identity residual")
        try:
            score = est.build_score_operators(specs[-3], included)
            povm = est.build_povm(est.raise_index(score, fisher.fisher_inverse(jdivs[-3])))
            if povm.completeness_residual() > 1e-10:
                failures.append(f"seed {seed}: POVM completeness residual")
            for i, p in enumerate(povm.projectors):
                if np.linalg.norm(p @ p - p) > 1e-10:
                    failures.append(f"seed {seed}: POVM projector not idempotent")
                for q in povm.projectors[i + 1 :]:
                    if np.linalg.norm(p @ q) > 1e-10:
                        failures.append(f"seed {seed}: POVM projectors not orthogonal")
        except SingularFisher:
            failures.append(f"seed {seed}: divergent Fisher unexpectedly singular")
        if len(failures) > 20:
            break
    # pure-input dominance on mixed fixtures
    for seed in range(20):
        dim = 2 + seed % 2
        num_params = 1 + seed % (dim - 1) if dim > 2 else 1
        ch = random_channel(dim, num_params, [1] * num_params, 1000 + seed)
        rng = np.random.Generator(np.random.Philox(key=[seed, 0x4D4958]))
        v1 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v1 /= np.linalg.norm(v1)
        v2 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v2 /= np.linalg.norm(v2)
        w1 = float(rng.uniform(0.2, 0.8))
        decomposition = [(w1, v1), (1.0 - w1, v2)]
        rho_mixed = w1 * np.outer(v1, v1.conj()) + (1 - w1) * np.outer(v2, v2.conj())
        u = rng.normal(size=num_params)
        u /= np.linalg.norm(u)
        eps = np.full(num_params, 5e-3 / num_params)
        if not fisher.pure_input_dominance(ch, rho_mixed, decomposition, u, eps):
            failures.append(f"dominance fixture {seed}: mixed input beats every pure component")
    return _result(f"property suite ({num_seeds} seeds)", start, failures, budget=120.0)


# ---------------------------------------------------------------------------
# criterion 7: Monte Carlo consistency and determinism


def check_monte_carlo(shots: int = 10**6, seed: int = 2026) -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    sc = scenario_ancilla_bell()
    report = run_sweep(sc, shots=1000)
    included = [i for i, lab in enumerate(report.shift_labels) if lab == "order-1"]
    eps = np.array([1e-3, 2e-3])
    spec = spectral.output_spectrum_with_gradients(sc.channel, sc.input_state, eps)
    jdiv = fisher.divergent_fisher(spec.shifts(), spec.shift_gradients(), included)
    score = est.raise_index(est.build_score_operators(spec, included), fisher.fisher_inverse(jdiv))
    povm = est.build_povm(score)
    analytic = est.analytic_mse(povm, spec.output, eps)
    mc = est.sample_measurements(povm, spec.output, eps, shots, seed)
    dev = np.abs(mc.entries - analytic.entries)
    if not np.all(dev <= 4.0 * mc.standard_error + 1e-300):
        failures.append("empirical MSE outside 4 standard errors of the analytic value")
    mc2 = est.sample_measurements(povm, spec.output, eps, shots, seed)
    if not (np.array_equal(mc.entries, mc2.entries) and np.array_equal(mc.mean, mc2.mean)):
        failures.append("rerun with the same seed changed the result")
    rep_a = render_jsonl(report, with_meta=False)
    rep_b = render_jsonl(run_sweep(sc, shots=1000), with_meta=False)
    if rep_a != rep_b:
        failures.append("reports are not byte-identical across reruns")
    return _result("monte carlo", start, failures)


ALL_CHECKS = [
    check_ancilla_bell,
    check_pauli,
    check_threelevel,
    check_attainment,
    check_negative_control,
    check_property_suite,
    check_monte_carlo,
]


def run_all(num_seeds: int = 100, shots: int = 10**6) -> list[CheckResult]:
    """Every check in order; ConfigInvalid before any runs if a count is below 1."""
    if num_seeds < 1 or shots < 1:
        raise ConfigInvalid(f"verify needs at least one seed and one shot, got {num_seeds} seeds and {shots} shots")
    results = []
    for fn in ALL_CHECKS:
        if fn is check_property_suite:
            results.append(fn(num_seeds))
        elif fn is check_monte_carlo:
            results.append(fn(shots))
        else:
            results.append(fn())
    return results

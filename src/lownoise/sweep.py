"""Scale-sweep runner: drives every pipeline quantity across a noise grid.

For each scale s the runner evaluates the output spectrum, eigenvalue
shifts and gradients, the three Fisher matrices and their inverses, the
deviation/covariance cross-checks, the estimator with its error matrix,
and the Cramer-Rao direction margins.  Sweep-level slope fits then grade
each quantity against the scenario's expected asymptotic orders.
"""
from __future__ import annotations

import numpy as np

from . import estimator as est
from . import fisher, spectral
from .errors import ConfigInvalid, LowNoiseError, SingularFisher
from .linalg import eigensolve, fit_or_floor, richardson_zero_limit
from .report import Report, config_hash
from .scenarios import Scenario, scenario_to_config

CR_DIRECTIONS = 100
CR_TOL = 1e-9
FIT_FLOOR = 1e-13
ATTAINMENT_BAND = (1.8, 2.2)


def _matrix(m) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _point_record(sc: Scenario, scale: float, spec, labels, directions, shots: int, mc_seed: int) -> dict:
    """All per-point quantities; raises LowNoiseError subtypes on failure.

    Every quantity reads the output state and its derivatives from spec;
    the channel is not evaluated again.  directions are the sweep's unit
    vectors for the Cramer-Rao direction margin.

    With shots > 0 the record also carries ``mc``: the point's estimator
    sampled with seed mc_seed and tested against its analytic MSE.
    """
    eps = spec.eps
    dim = sc.channel.dim
    shifts = spec.shifts()
    shift_grads = spec.shift_gradients()
    included = [i for i, lab in enumerate(labels) if lab == "order-1"]

    jq = fisher.quantum_fisher(spec.probs, spec.basis, spec.derivatives)
    jq_inv = fisher.fisher_inverse(jq)
    jc = fisher.classical_fisher(spec.probs, spec.gradients)
    jdiv = fisher.divergent_fisher(shifts, shift_grads, included)
    nondeg = fisher.nondegeneracy_det(spec.probs, spec.gradients)

    # negative-control path: a singular divergent matrix takes the pseudo-inverse
    pseudo = False
    try:
        jdiv_inv = fisher.fisher_inverse(jdiv)
    except SingularFisher:
        jdiv_inv = fisher.fisher_pseudo_inverse(jdiv)
        pseudo = True

    score = est.raise_index(est.build_score_operators(spec, included), jdiv_inv)
    povm = est.build_povm(score)
    bias = est.unbiasedness_residual(povm, spec.output, eps)
    mse = est.analytic_mse(povm, spec.output, eps)

    gap_quantum = est.cr_gap(mse, jq_inv)
    gap_divergent = None if pseudo else mse.entries - jdiv_inv.inverse
    cr_bound = CR_TOL * max(1.0, float(np.linalg.norm(mse.entries)))
    cr_margin = est.cr_direction_margin(gap_quantum, directions)

    # deviation-matrix and covariance cross checks
    dm_full = spectral.output_deviation_matrix(spec.output, sc.input_state, sc.frame)
    dm_lead = spectral.deviation_matrix(sc.channel, sc.input_state, eps, sc.frame)
    lead_vs_full = float(np.linalg.norm(dm_full - dm_lead))
    trace_power = None
    reduced_residual = None
    if len(sc.channel.jumps) <= dim - 1:
        lm = spectral.jump_covariance(sc.channel, sc.input_state, eps)
        trace_power = spectral.trace_power_residual(dm_lead, lm, kmax=5)
        reduced = spectral.reduced_shifts(lm, dim)
        padded = np.zeros(dim - 1)
        padded[: reduced.shape[0]] = reduced
        lead_vals = spectral.deviation_eigenvalues(dm_lead)
        reduced_residual = float(np.max(np.abs(np.sort(padded) - np.sort(lead_vals))))

    jinv_eigs = eigensolve(jq_inv.inverse, vectors=False)[::-1]
    rec = {
        "scale": float(scale),
        "eps": [float(x) for x in eps],
        "probs": [float(p) for p in spec.probs],
        "shifts": [float(x) for x in shifts],
        "shift_gradients": _matrix(shift_grads),
        "quantum_fisher": _matrix(jq.entries),
        "quantum_fisher_inverse": _matrix(jq_inv.inverse),
        "classical_fisher": _matrix(jc.entries),
        "divergent_fisher": _matrix(jdiv.entries),
        "divergent_inverse": None if pseudo else _matrix(jdiv_inv.inverse),
        "jinv_eigenvalues": [float(x) for x in jinv_eigs],
        "nondegeneracy_det": float(nondeg),
        "estimates": _matrix(povm.estimates),
        "unbiasedness_residual": [float(x) for x in bias],
        "mse": _matrix(mse.entries),
        "gap_vs_quantum": _matrix(gap_quantum),
        "gap_vs_divergent": _matrix(gap_divergent) if gap_divergent is not None else None,
        "cr_margin": float(cr_margin),
        "cr_bound": float(cr_bound),
        "povm_completeness": float(povm.completeness_residual()),
        "lead_vs_full_deviation": lead_vs_full,
        "trace_power_residual": trace_power,
        "reduced_shift_residual": reduced_residual,
        "classical_vs_divergent": float(np.linalg.norm(jc.entries - jdiv.entries)),
        "pseudo": bool(pseudo),
        "error": None,
    }
    if shots > 0:
        mc = est.sample_measurements(povm, spec.output, eps, shots, mc_seed)
        dev = np.abs(mc.entries - mse.entries)
        rec["mc"] = {
            "shots": shots,
            "seed": mc_seed,
            "mean": [float(x) for x in mc.mean],
            "mse": _matrix(mc.entries),
            "standard_error": _matrix(mc.standard_error),
            "within_4se_of_analytic": bool(np.all(dev <= 4.0 * mc.standard_error + 1e-300)),
        }
    return rec


def _fit(scales, values, name: str) -> dict:
    fit = fit_or_floor(scales, values, FIT_FLOOR)
    if fit is None:
        return {"name": name, "slope": None, "intercept": None, "residual": None, "at_floor": True}
    return {
        "name": name,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "at_floor": False,
    }


def _error(exc: LowNoiseError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _norm_series(points, key) -> list[float]:
    return [float(np.linalg.norm(p[key])) for p in points]


def run_sweep(sc: Scenario, shots: int = 0) -> Report:
    """Evaluate the full pipeline over the scenario's scale grid.

    Any per-point library error is recorded in that point's record and
    fails the report; points are never silently skipped.  The spectra of
    the whole grid come from one stacked evaluation; if that fails, the
    grid is evaluated point by point so each failure is recorded at its
    own point.  Shifts are classified over the scales whose spectrum
    succeeded; if that fails, every point records the classification error.
    ConfigInvalid if shots, the Monte Carlo shots per point, is negative.
    """
    if shots < 0:
        raise ConfigInvalid(f"shots must be >= 0, got {shots}")
    scales = list(sc.sweep.scales)
    direction = np.asarray(sc.sweep.direction, dtype=float)

    spectra: dict[int, spectral.OutputSpectrum] = {}  # scale index -> spectrum
    errors: dict[int, str] = {}
    try:
        spectra = dict(enumerate(spectral.output_shift_curves(sc.channel, sc.input_state, direction, scales)))
    except LowNoiseError:
        for t, scale in enumerate(scales):
            try:
                spectra[t] = spectral.output_spectrum_with_gradients(sc.channel, sc.input_state, scale * direction)
            except LowNoiseError as exc:
                errors[t] = _error(exc)
    labels: tuple[str, ...] = ()
    if spectra:
        try:
            labels, _ = spectral.classify_shift_curves(
                [scales[t] for t in spectra], [spec.shifts() for spec in spectra.values()]
            )
        except LowNoiseError as exc:
            errors = {t: errors.get(t, _error(exc)) for t in range(len(scales))}

    directions = est.cr_directions(CR_DIRECTIONS, sc.channel.num_params, sc.sweep.seed)
    points = []
    for t, scale in enumerate(scales):
        if t in errors:
            points.append({"scale": float(scale), "error": errors[t]})
            continue
        try:
            rec = _point_record(sc, scale, spectra[t], labels, directions, shots, sc.sweep.seed * 1009 + t)
        except LowNoiseError as exc:
            rec = {"scale": float(scale), "error": _error(exc)}
        points.append(rec)

    good = [p for p in points if p["error"] is None]
    had_error = len(good) < len(points)
    fits = []
    checks = []
    if good:
        gs = [p["scale"] for p in good]
        fits.append(_fit(gs, [max(p["unbiasedness_residual"]) for p in good], "unbiasedness"))
        fits.append(_fit(gs, _norm_series(good, "gap_vs_quantum"), "mse_vs_quantum_inverse"))
        if all(p["gap_vs_divergent"] is not None for p in good):
            fits.append(_fit(gs, _norm_series(good, "gap_vs_divergent"), "mse_vs_divergent_inverse"))
        fits.append(_fit(gs, [abs(p["nondegeneracy_det"]) for p in good], "nondegeneracy_det"))
        fits.append(_fit(gs, [p["jinv_eigenvalues"][0] for p in good], "jinv_large_eigenvalue"))
        fits.append(_fit(gs, [p["jinv_eigenvalues"][-1] for p in good], "jinv_small_eigenvalue"))
        fits.append(_fit(gs, _norm_series(good, "classical_vs_divergent"), "classical_vs_divergent"))
        fits.append(_fit(gs, [p["lead_vs_full_deviation"] for p in good], "lead_vs_full_deviation"))
        if sc.reference_jinv is not None:
            vals = [
                float(
                    np.linalg.norm(
                        np.asarray(p["quantum_fisher_inverse"]) - sc.reference_jinv(np.asarray(p["eps"]))
                    )
                )
                for p in good
            ]
            fits.append(_fit(gs, vals, "quantum_jinv_vs_reference"))
        if "bad_direction_gap" in sc.expected_orders and len(good) >= 2:
            jinv0 = richardson_zero_limit(
                good[0]["scale"],
                np.asarray(good[0]["quantum_fisher_inverse"]),
                good[1]["scale"],
                np.asarray(good[1]["quantum_fisher_inverse"]),
            )
            w, v = eigensolve(jinv0)
            u0 = v[:, -1]
            vals = [
                abs(float(u0 @ (np.asarray(p["mse"]) - np.asarray(p["quantum_fisher_inverse"])) @ u0))
                for p in good
            ]
            fits.append(_fit(gs, vals, "bad_direction_gap"))

    fit_by_name = {f["name"]: f for f in fits}
    for name, band in sc.expected_orders.items():
        f = fit_by_name.get(name)
        if f is None:
            checks.append({"name": name, "passed": False, "expected_failure": False, "detail": "missing fit"})
            continue
        ok = f["at_floor"] or (band[0] <= f["slope"] <= band[1])
        checks.append(
            {
                "name": name,
                "passed": bool(ok),
                "expected_failure": False,
                "detail": f"slope={f['slope']}, band=({band[0]}, {band[1]})",
            }
        )

    if good:
        worst = min(p["cr_margin"] + p["cr_bound"] for p in good)
        any_pseudo = any(p["pseudo"] for p in good)
        checks.append(
            {
                "name": "cr_direction",
                "passed": bool(worst >= 0.0),
                # the bound presupposes local unbiasedness, which the
                # pseudo-inverse fallback cannot provide
                "expected_failure": any_pseudo,
                "detail": f"min margin + tolerance = {worst:g} over {CR_DIRECTIONS} directions/point",
            }
        )
        dim = sc.channel.dim
        num_params = sc.channel.num_params
        nd = fit_by_name.get("nondegeneracy_det")
        gate = (
            all(abs(p["nondegeneracy_det"]) > 0 for p in good)
            and nd is not None
            and not nd["at_floor"]
            and abs(nd["slope"] + num_params) <= 0.3
        )
        checks.append(
            {
                "name": "nondegeneracy_gate",
                "passed": bool(gate),
                "expected_failure": not sc.attainment_expected,
                "detail": f"det order {None if nd is None else nd['slope']}, expected -D = {-num_params}",
            }
        )
        ub = fit_by_name.get("unbiasedness")
        md = fit_by_name.get("mse_vs_divergent_inverse")
        attained = (
            not any(p["pseudo"] for p in good)
            and ub is not None
            and (ub["at_floor"] or ATTAINMENT_BAND[0] <= ub["slope"] <= ATTAINMENT_BAND[1])
            and md is not None
            and (md["at_floor"] or ATTAINMENT_BAND[0] <= md["slope"] <= ATTAINMENT_BAND[1])
            and gate
        )
        checks.append(
            {
                "name": "attainment",
                "passed": bool(attained),
                "expected_failure": not sc.attainment_expected,
                "detail": "unbiasedness and MSE-gap orders both second order with a valid gate",
            }
        )

    passed = (not had_error) and all(c["passed"] or c["expected_failure"] for c in checks)
    return Report(
        scenario_name=sc.name,
        direction=[float(x) for x in sc.sweep.direction],
        scales=[float(s) for s in scales],
        seed=sc.sweep.seed,
        config_hash=config_hash(scenario_to_config(sc)),
        shift_labels=list(labels),
        points=points,
        fits=fits,
        checks=checks,
        passed=bool(passed),
    )

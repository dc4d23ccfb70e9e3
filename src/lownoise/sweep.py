"""Scale-sweep runner: drives every pipeline quantity across a noise grid.

For each scale s the runner evaluates the output spectrum, eigenvalue
shifts and gradients, the three Fisher matrices and their inverses, the
deviation/covariance cross-checks, the estimator with its error matrix,
and the Cramer-Rao margin.  Each quantity is computed once for the whole
grid, on a (B, ...) stack of its points; only the estimator's grouping
and the Monte Carlo draw run point by point.  Sweep-level slope fits then
grade each quantity against the scenario's expected asymptotic orders.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import estimator as est
from . import fisher, spectral
from .errors import ConfigInvalid, LowNoiseError
from .linalg import eigensolve, fit_or_floor, guarded, richardson_zero_limit
from .report import Report, config_hash
from .scenarios import Scenario, scenario_to_config

CR_TOL = 1e-9
FIT_FLOOR = 1e-13
ATTAINMENT_BAND = (1.8, 2.2)
# Floor on |det G| / prod_mu G_mumu (<= 1 by Hadamard): above D <= N-1, det G is
# rounding noise of about u * prod_mu G_mumu, with a true determinant's order -D
NONDEGENERACY_FLOOR = 1e-10


def _norms(stack) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, one np.linalg.norm call each, as a one-point call rounds it."""
    return np.array([np.linalg.norm(m) for m in stack])


def _records(sc: Scenario, rows: list[int], spectra: dict, labels, shots: int) -> list[dict]:
    """The records of grid points rows, from one stacked pass over their spectra.

    Every quantity reads the output states and their derivatives from the
    spectra; the channel is not evaluated again.  Only ``build_povm`` and
    the Monte Carlo draw (with shots > 0, the record's ``mc``) run point by
    point.  Raises the first LowNoiseError of any row.
    """
    spec = spectral.stack_spectra([spectra[t] for t in rows])
    eps, dim = spec.eps, sc.channel.dim
    included = [i for i, lab in enumerate(labels) if lab == "order-1"]

    jq = fisher.fisher_inverse(fisher.quantum_fisher(spec.probs, spec.basis, spec.derivatives))
    jc = fisher.classical_fisher(spec.probs, spec.gradients)
    jdiv = fisher.divergent_fisher(spec.shifts(), spec.shift_gradients(), included)
    nondeg = guarded(np.linalg.det, jc.entries / 4.0)  # nondegeneracy_det, read from the classical stack
    # negative-control path: a row whose divergent matrix is singular takes its pseudo-inverse
    jdiv_inv, _, kept = fisher._kept_inverse(jdiv)

    score = est.raise_index(est.build_score_operators(spec, included), jdiv_inv)
    povms = [est.build_povm(replace(score, basis=v, log_gradients=g, estimates=x))
             for v, g, x in zip(spec.basis, score.log_gradients, score.estimates)]
    q, bias, mse = {}, np.empty(eps.shape), np.empty(jq.entries.shape)
    for groups in dict.fromkeys(p.groups for p in povms):  # the points of one grouping form one stacked POVM
        idx = [b for b, p in enumerate(povms) if p.groups == groups]
        stack = est.EstimatorPOVM(groups, spec.basis[idx], np.array([povms[b].estimates for b in idx]))
        q_stack = est.outcome_probabilities(stack, spec.probs[idx])
        q.update(zip(idx, q_stack))
        bias[idx] = est.unbiasedness_residual(stack, q_stack, eps[idx])
        mse[idx] = est.analytic_mse(stack, q_stack, eps[idx]).entries
    gap_quantum = mse - jq.inverse
    cr_margin = est.cr_direction_margin(gap_quantum)

    # deviation-matrix and covariance cross checks, in one complement frame
    frame = spectral.complement_basis(sc.input_state) if sc.frame is None else sc.frame
    dm_full = spectral.output_deviation_matrix(spec.output, sc.input_state, frame)
    dm_lead = spectral.deviation_matrix(sc.channel, sc.input_state, eps, frame)
    trace_power = reduced_residual = [None] * len(rows)
    if len(sc.channel.jumps) <= dim - 1:
        lm = spectral.jump_covariance(sc.channel, sc.input_state, eps)
        trace_power = spectral.trace_power_residual(dm_lead, lm, kmax=5).tolist()
        padded = np.zeros(spec.shifts().shape)
        padded[:, : lm.shape[-1]] = spectral.reduced_shifts(lm, dim)
        lead_vals = spectral.deviation_eigenvalues(dm_lead)
        reduced_residual = np.max(np.abs(np.sort(padded) - np.sort(lead_vals)), axis=-1).tolist()

    columns = dict(
        eps=eps, probs=spec.probs, shifts=spec.shifts(), shift_gradients=spec.shift_gradients(),
        quantum_fisher=jq.entries, quantum_fisher_inverse=jq.inverse, classical_fisher=jc.entries,
        divergent_fisher=jdiv.entries, divergent_inverse=jdiv_inv.inverse, nondegeneracy_det=nondeg,
        jinv_eigenvalues=eigensolve(jq.inverse, vectors=False)[:, ::-1],
        unbiasedness_residual=bias, mse=mse, gap_vs_quantum=gap_quantum, gap_vs_divergent=mse - jdiv_inv.inverse,
        cr_margin=cr_margin, cr_bound=CR_TOL * np.maximum(1.0, _norms(mse)),
        lead_vs_full_deviation=_norms(dm_full - dm_lead),
        classical_vs_divergent=_norms(jc.entries - jdiv.entries),
        pseudo=~np.all(kept, axis=-1),
    )
    columns = {key: value.tolist() for key, value in columns.items()}
    records = []
    for b, t in enumerate(rows):
        rec = {key: value[b] for key, value in columns.items()}
        rec.update(scale=float(sc.sweep.scales[t]), estimates=povms[b].estimates.tolist(), error=None)
        rec.update(trace_power_residual=trace_power[b], reduced_shift_residual=reduced_residual[b])
        rec.update(povm_completeness=povms[b].completeness_residual())
        if rec["pseudo"]:
            rec["divergent_inverse"] = rec["gap_vs_divergent"] = None
        if shots > 0:
            seed = sc.sweep.monte_carlo_seed(t)
            mc = est.sample_measurements(povms[b], q[b], eps[b], shots, seed)
            se = mc.standard_error
            rec["mc"] = dict(
                shots=shots, seed=seed, mean=mc.mean.tolist(), mse=mc.entries.tolist(), standard_error=se.tolist(),
                within_4se_of_analytic=bool(np.all(np.abs(mc.entries - mse[b]) <= 4.0 * se + 1e-300)),
            )
        records.append(rec)
    return records


def _fit(scales, values, name: str) -> dict:
    fit = fit_or_floor(scales, values, FIT_FLOOR)
    if fit is None:
        return {"name": name, "slope": None, "intercept": None, "residual": None, "at_floor": True}
    return {"name": name, "slope": fit.slope, "intercept": fit.intercept, "residual": fit.residual, "at_floor": False}


def _error(exc: LowNoiseError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _by_row(stacked, rows: list[int]) -> tuple[dict, dict]:
    """{row: result} from stacked(rows), one result per row, and {row: error}.

    If stacked(rows) raises a LowNoiseError, stacked([row]) runs for each row, so each failure is its own row's.
    """
    try:
        return (dict(zip(rows, stacked(rows))) if rows else {}), {}
    except LowNoiseError:
        results, errors = {}, {}
        for t in rows:
            try:
                results[t] = stacked([t])[0]
            except LowNoiseError as exc:
                errors[t] = _error(exc)
        return results, errors


def _hadamard_ratio(point: dict) -> float:
    """|det G| / prod_mu G_mumu, G = J_c / 4 the point's sqrt-probability Gram; 0 on a zero diagonal."""
    diag = np.prod(np.diag(point["classical_fisher"]) / 4.0)
    return abs(point["nondegeneracy_det"]) / diag if diag > 0 else 0.0


def _norm_series(points, key) -> list[float]:
    return [float(np.linalg.norm(p[key])) for p in points]


def run_sweep(sc: Scenario, shots: int = 0) -> Report:
    """Evaluate the full pipeline over the scenario's scale grid.

    Any per-point library error is recorded in that point's record and
    fails the report; points are never silently skipped.  The spectra of
    the whole grid come from one stacked evaluation, and the records of
    its points from one stacked pass; if either fails, it runs again point
    by point so each failure is recorded at its own point.  Shifts are
    classified over the scales whose spectrum succeeded; if that fails,
    every point records the classification error.
    ConfigInvalid if shots, the Monte Carlo shots per point, is negative.
    """
    if shots < 0:
        raise ConfigInvalid(f"shots must be >= 0, got {shots}")
    scales = list(sc.sweep.scales)
    direction = np.asarray(sc.sweep.direction, dtype=float)

    spectra, errors = _by_row(
        lambda rows: spectral.output_shift_curves(sc.channel, sc.input_state, direction, [scales[t] for t in rows]),
        list(range(len(scales))),
    )
    labels: tuple[str, ...] = ()
    if spectra:
        try:
            labels, _ = spectral.classify_shift_curves(
                [scales[t] for t in spectra], [spec.shifts() for spec in spectra.values()]
            )
        except LowNoiseError as exc:
            errors = {t: errors.get(t, _error(exc)) for t in range(len(scales))}
    records, failed = _by_row(
        lambda rows: _records(sc, rows, spectra, labels, shots), [t for t in range(len(scales)) if t not in errors]
    )
    errors.update(failed)
    points = [records.get(t) or {"scale": float(scales[t]), "error": errors[t]} for t in range(len(scales))]

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
            refs = [sc.reference_jinv(np.asarray(p["eps"])) for p in good]
            vals = [float(np.linalg.norm(np.asarray(p["quantum_fisher_inverse"]) - r)) for p, r in zip(good, refs)]
            fits.append(_fit(gs, vals, "quantum_jinv_vs_reference"))
        if "bad_direction_gap" in sc.expected_orders and len(good) >= 2:
            (s1, jinv1), (s2, jinv2) = [(p["scale"], np.asarray(p["quantum_fisher_inverse"])) for p in good[:2]]
            jinv0 = richardson_zero_limit(s1, jinv1, s2, jinv2)
            u0 = eigensolve(jinv0)[1][:, -1]
            gaps = [np.asarray(p["mse"]) - np.asarray(p["quantum_fisher_inverse"]) for p in good]
            vals = [abs(float(u0 @ gap @ u0)) for gap in gaps]
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
                "detail": f"min eigenvalue + tolerance = {worst:g}",
            }
        )
        num_params = sc.channel.num_params
        nd = fit_by_name.get("nondegeneracy_det")
        ratio, at = min((_hadamard_ratio(p), p["scale"]) for p in good)
        gate = (
            ratio > NONDEGENERACY_FLOOR
            and nd is not None
            and not nd["at_floor"]
            and abs(nd["slope"] + num_params) <= 0.3
        )
        checks.append(
            {
                "name": "nondegeneracy_gate",
                "passed": bool(gate),
                "expected_failure": not sc.attainment_expected,
                "detail": f"det order {None if nd is None else nd['slope']}, expected -D = {-num_params}; "
                f"min |det G|/prod diag G = {ratio:g} at scale {at:g}, floor {NONDEGENERACY_FLOOR:g}",
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

"""Scale-sweep runner: drives every pipeline quantity across a noise grid.

For each scale s the runner evaluates the output spectrum, eigenvalue
shifts and gradients, the three Fisher matrices and their inverses, the
deviation/covariance cross-checks, the estimator with its error matrix,
and the Cramer-Rao margin.  Each quantity is computed once for the whole
grid, on a (B, ...) stack of its points that starts from the grid's one
stacked spectrum; the estimator's tail runs once per grouping of the
grid's POVMs, and only the Monte Carlo draw itself is made row by row.
One stacked slope fit of every series over the grid then grades each
quantity against the scenario's expected asymptotic orders.  The records
pass takes a channel stack too, a cell of ``verify``'s property suite.
"""
from __future__ import annotations

import numpy as np

from . import estimator as est
from . import fisher, spectral
from .errors import LowNoiseError, require_int
from .linalg import MIN_FIT_SAMPLES, eigensolve, fit_or_floor, frobenius, guarded, richardson_zero_limit
from .report import Report, config_hash
from .scenarios import Scenario, scenario_to_config

CR_TOL = 1e-9
FIT_FLOOR = 1e-13
ATTAINMENT_BAND = (1.8, 2.2)
# Floor on |det G| / prod_mu G_mumu (<= 1 by Hadamard): above D <= N-1, det G is
# rounding noise of about u * prod_mu G_mumu, with a true determinant's order -D
NONDEGENERACY_FLOOR = 1e-10


def _records(sc: Scenario, rows: list[int], spec: spectral.OutputSpectrum, labels, shots: int) -> dict:
    """The records of grid points rows as columns, from one stacked pass over their spectrum spec.

    sc's channel may be a channel stack (``channels.stack_channels``) with
    (C, N) inputs, and frames None or one per input; spec is then the
    stack's, and every channel shares the labels.  Each column has one row
    per point, channel by channel (row r * B + t is channel r's point t):
    an array, or a list where the points may differ in shape.  The POVM
    tail runs once per grouping of the points; only the multinomial draw
    is made row by row.  Raises the first LowNoiseError of any row.
    """
    ch, phi, dim = sc.channel, spectral._input_vectors(sc.channel, sc.input_state), sc.channel.dim
    included = [i for i, lab in enumerate(labels) if lab == "order-1"]
    frame = spectral._complement_frame(phi, sc.frame)  # one per channel, made once
    dm_full = spectral.output_deviation_matrix(spec.output, phi, frame).reshape(-1, dim - 1, dim - 1)
    lead = spec.probs.ndim - 1  # the grid's axis, or a stack's and its grid's
    if lead > 1:  # a stack's (C, B) points on one axis of C * B rows, channel by channel
        spec = spectral.OutputSpectrum(**{key: np.reshape(v, (-1,) + v.shape[lead:]) for key, v in vars(spec).items()})
    eps, reps = spec.eps, len(spec.eps) // len(rows)

    jq = fisher.fisher_inverse(fisher.quantum_fisher(spec.probs, spec.basis, spec.derivatives))
    jc = fisher.classical_fisher(spec.probs, spec.gradients)
    jdiv = fisher.divergent_fisher(spec.shifts(), spec.shift_gradients(), included)
    nondeg = guarded(np.linalg.det, jc.entries / 4.0)  # nondegeneracy_det, read from the classical stack
    # negative-control path: a row whose divergent matrix is singular takes its pseudo-inverse
    jdiv_inv, _, kept = fisher._kept_inverse(jdiv)

    score = est.raise_index(est.build_score_operators(spec, included), jdiv_inv)
    bias, mse, completeness = np.empty(eps.shape), np.empty(jq.entries.shape), np.empty(len(eps))
    estimates, mc, seeds = [None] * len(eps), [None] * len(eps), [sc.sweep.monte_carlo_seed(t) for t in rows] * reps
    for idx, povm in est.build_povm(score):  # one stacked POVM per grouping of the points
        q = est.outcome_probabilities(povm, spec.probs[idx])
        bias[idx] = est.unbiasedness_residual(povm, q, eps[idx])
        mse[idx] = est.analytic_mse(povm, q, eps[idx]).entries
        completeness[idx] = povm.completeness_residual()
        for b, x in zip(idx, povm.estimates.tolist()):
            estimates[b] = x
        if shots > 0:
            drawn = est.sample_measurements(povm, q, eps[idx], shots, [seeds[b] for b in idx])
            se = drawn.standard_error
            within = np.all(np.abs(drawn.entries - mse[idx]) <= 4.0 * se + 1e-300, axis=(-2, -1))
            for b, mean, entries, se_b, ok in zip(idx, drawn.mean.tolist(), drawn.entries.tolist(), se.tolist(),
                                                  within.tolist()):
                mc[b] = dict(shots=shots, seed=seeds[b], mean=mean, mse=entries, standard_error=se_b,
                             within_4se_of_analytic=ok)
    gap_quantum = mse - jq.inverse
    cr_margin = est.cr_direction_margin(gap_quantum)

    # deviation-matrix and covariance cross checks, in each channel's one complement frame
    grid = eps[: len(rows)]  # every channel of a stack sweeps the same points
    dm_lead = spectral.deviation_matrix(ch, phi, grid, frame).reshape(dm_full.shape)
    trace_power = reduced_residual = [None] * len(eps)
    if len(ch.params) <= dim - 1:
        lm = spectral.jump_covariance(ch, phi, grid).reshape(len(eps), len(ch.params), len(ch.params))
        trace_power = spectral.trace_power_residual(dm_lead, lm, kmax=5).tolist()
        padded = np.zeros(spec.shifts().shape)
        padded[:, : lm.shape[-1]] = spectral.reduced_shifts(lm, dim)
        lead_vals = spectral.deviation_eigenvalues(dm_lead)
        reduced_residual = np.max(np.abs(np.sort(padded) - np.sort(lead_vals)), axis=-1).tolist()

    columns = dict(
        scale=np.tile(np.asarray(sc.sweep.scales, dtype=float)[rows], reps), eps=eps, probs=spec.probs,
        shifts=spec.shifts(), shift_gradients=spec.shift_gradients(),
        quantum_fisher=jq.entries, quantum_fisher_inverse=jq.inverse, classical_fisher=jc.entries,
        divergent_fisher=jdiv.entries, divergent_inverse=jdiv_inv.inverse, nondegeneracy_det=nondeg,
        jinv_eigenvalues=eigensolve(jq.inverse, vectors=False)[:, ::-1],
        unbiasedness_residual=bias, mse=mse, gap_vs_quantum=gap_quantum, gap_vs_divergent=mse - jdiv_inv.inverse,
        cr_margin=cr_margin, cr_bound=CR_TOL * np.maximum(1.0, frobenius(mse)),
        lead_vs_full_deviation=frobenius(dm_full - dm_lead),
        classical_vs_divergent=frobenius(jc.entries - jdiv.entries),
        pseudo=~np.all(kept, axis=-1),
        estimates=estimates, povm_completeness=completeness,
        trace_power_residual=trace_power, reduced_shift_residual=reduced_residual,
    )
    if shots > 0:
        columns["mc"] = mc
    return columns


def _points(columns: dict) -> list[dict]:
    """One record per row of the columns: plain Python values, the divergent inverse None on a pseudo row."""
    lists = {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in columns.items()}
    records = [dict(zip(lists, row), error=None) for row in zip(*lists.values())]
    for rec in records:
        if rec["pseudo"]:
            rec["divergent_inverse"] = rec["gap_vs_divergent"] = None
    return records


def _fit_rows(scales, series: dict) -> list[dict]:
    """One report row per named series, from one fit of their stack; a series at the floor has no line."""
    fit = fit_or_floor(scales, list(series.values()), FIT_FLOOR)
    keys = ("slope", "intercept", "residual", "floor_hits")
    columns = zip(*(getattr(fit, key).tolist() for key in keys))
    return [dict(name=name, at_floor=floor, **{key: None if floor else v for key, v in zip(keys, column)})
            for name, floor, column in zip(series, fit.at_floor.tolist(), columns)]


def _order(fit: dict | None, band) -> str:
    """An order row's detail: the fit's slope and the band, or that the fit is missing."""
    return "missing fit" if fit is None else f"slope={fit['slope']}, band=({band[0]}, {band[1]})"


def _within(fit: dict | None, band) -> bool:
    """Whether a fit's order lies in band, or its series sits at the floor."""
    return fit is not None and (fit["at_floor"] or band[0] <= fit["slope"] <= band[1])


def _check(name: str, passed, expected_failure: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "expected_failure": expected_failure, "detail": detail}


def _error(exc: LowNoiseError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _join(parts: list):
    """One-row stacks joined along their leading axis: an OutputSpectrum field by field, columns key by key."""
    if isinstance(parts[0], spectral.OutputSpectrum):
        return spectral.OutputSpectrum(**_join([vars(p) for p in parts]))
    columns = {key: [p[key] for p in parts] for key in parts[0]}
    return {key: np.concatenate(c) if isinstance(c[0], np.ndarray) else sum(c, []) for key, c in columns.items()}


def _by_row(stacked, rows: list[int]) -> tuple[list[int], object, dict]:
    """(the rows that succeeded, stacked over them, {row: error}).

    If stacked(rows) raises a LowNoiseError, stacked([row]) runs for each
    row, so each failure is its own row's, and the one-row results of the
    others are joined.  The result is None when no row succeeds.
    """
    try:
        return rows, (stacked(rows) if rows else None), {}
    except LowNoiseError:
        results, errors = {}, {}
        for t in rows:
            try:
                results[t] = stacked([t])
            except LowNoiseError as exc:
                errors[t] = _error(exc)
        return list(results), (_join(list(results.values())) if results else None), errors


def run_sweep(sc: Scenario, shots: int = 0) -> Report:
    """Evaluate the full pipeline over the scenario's scale grid.

    Any per-point library error is recorded in that point's record and
    fails the report; points are never silently skipped.  The spectra of
    the whole grid come from one stacked evaluation, and the records of
    its points from one stacked pass; if either fails, it runs again point
    by point so each failure is recorded at its own point.  Shifts are
    classified over the scales whose spectrum succeeded; if that fails,
    every point records the classification error.
    ConfigInvalid unless shots, the Monte Carlo shots per point, is an integer >= 0.
    """
    shots = require_int(shots, "shots", 0)
    scales = np.asarray(sc.sweep.scales, dtype=float)
    direction = np.asarray(sc.sweep.direction, dtype=float)

    spec_rows, spec, errors = _by_row(
        lambda rows: spectral.output_shift_curves(sc.channel, sc.input_state, direction, scales[rows]),
        list(range(len(scales))),
    )
    labels: tuple[str, ...] = ()
    if spec_rows:
        try:
            labels, _ = spectral.classify_shift_curves(scales[spec_rows], spec.shifts())
        except LowNoiseError as exc:
            errors = {t: errors.get(t, _error(exc)) for t in range(len(scales))}
    rows, cols, failed = _by_row(  # the whole spectrum on the first try, one-row spectra on the fallback
        lambda r: _records(sc, r, spec if r == spec_rows else spec[[spec_rows.index(t) for t in r]], labels, shots),
        [t for t in spec_rows if t not in errors],
    )
    errors.update(failed)
    records = dict(zip(rows, _points(cols))) if rows else {}
    points = [records.get(t) or {"scale": float(scales[t]), "error": errors[t]} for t in range(len(scales))]

    fits, checks = [], []
    if rows:
        gs, jinv, pseudo = cols["scale"], cols["quantum_fisher_inverse"], bool(np.any(cols["pseudo"]))
        series = {
            "unbiasedness": np.max(cols["unbiasedness_residual"], axis=-1),
            "mse_vs_quantum_inverse": frobenius(cols["gap_vs_quantum"]),
            "mse_vs_divergent_inverse": None if pseudo else frobenius(cols["gap_vs_divergent"]),
            "nondegeneracy_det": np.abs(cols["nondegeneracy_det"]),
            "jinv_large_eigenvalue": cols["jinv_eigenvalues"][:, 0],
            "jinv_small_eigenvalue": cols["jinv_eigenvalues"][:, -1],
            "classical_vs_divergent": cols["classical_vs_divergent"],
            "lead_vs_full_deviation": cols["lead_vs_full_deviation"],
        }
        if sc.reference_jinv is not None:
            series["quantum_jinv_vs_reference"] = frobenius(jinv - [sc.reference_jinv(eps) for eps in cols["eps"]])
        if "bad_direction_gap" in sc.expected_orders and len(rows) >= 2:
            u0 = eigensolve(richardson_zero_limit(gs[0], jinv[0], gs[1], jinv[1]))[1][:, -1]
            series["bad_direction_gap"] = [abs(float(u0 @ gap @ u0)) for gap in cols["gap_vs_quantum"]]
        if len(rows) >= MIN_FIT_SAMPLES:  # fewer records leave every fit missing, and their rows fail
            fits = _fit_rows(gs, {name: values for name, values in series.items() if values is not None})

    fit_by_name = {f["name"]: f for f in fits}
    for name, band in sc.expected_orders.items():
        checks.append(_check(name, _within(fit_by_name.get(name), band), False, _order(fit_by_name.get(name), band)))

    if rows:
        worst = np.min(cols["cr_margin"] + cols["cr_bound"])
        # the bound presupposes local unbiasedness, which the pseudo-inverse fallback cannot provide
        checks.append(_check("cr_direction", worst >= 0.0, pseudo, f"min eigenvalue + tolerance = {worst:g}"))
        num_params = sc.channel.num_params
        nd = fit_by_name.get("nondegeneracy_det")
        # |det G| / prod_mu G_mumu, G = J_c / 4 the sqrt-probability Gram; 0 on a zero diagonal
        diag = np.prod(np.diagonal(cols["classical_fisher"], axis1=-2, axis2=-1) / 4.0, axis=-1)
        ratios = np.divide(np.abs(cols["nondegeneracy_det"]), diag, out=np.zeros_like(diag), where=diag > 0)
        ratio, at = ratios.min(), gs[np.argmin(ratios)]
        gate = (ratio > NONDEGENERACY_FLOOR and nd is not None and not nd["at_floor"] and nd["floor_hits"] == 0
                and abs(nd["slope"] + num_params) <= 0.3)
        checks.append(_check(
            "nondegeneracy_gate", gate, not sc.attainment_expected,
            f"det order {None if nd is None else nd['slope']}, expected -D = {-num_params}; "
            f"min |det G|/prod diag G = {ratio:g} at scale {at:g}, floor {NONDEGENERACY_FLOOR:g}",
        ))
        missed = [f"pseudo-inverse rows at {int(np.sum(cols['pseudo']))} of {len(rows)} scales"] if pseudo else []
        missed += [f"{name} {_order(fit_by_name.get(name), ATTAINMENT_BAND)}"
                   for name in ("unbiasedness", "mse_vs_divergent_inverse")
                   if not _within(fit_by_name.get(name), ATTAINMENT_BAND)]
        if not gate:
            missed.append("nondegeneracy gate failed")
        checks.append(_check(
            "attainment", not missed, not sc.attainment_expected,
            "; ".join(missed) or "unbiasedness and MSE-gap orders both second order with a valid gate",
        ))

    passed = (not errors) and all(c["passed"] or c["expected_failure"] for c in checks)
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

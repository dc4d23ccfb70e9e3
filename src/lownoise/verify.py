"""Acceptance checks: scenario closed forms, attainment orders, property suite.

Each criterion is a function returning a CheckResult so the same code
backs both the pytest acceptance module and the command-line ``verify``
subcommand.  Tolerances are fixed here, not configurable.  Criteria 1, 2,
4 and 7 grade the report ``run_sweep`` returns for their built-in scenario:
its point columns and Monte Carlo records, and its check rows, whose order
bands the scenario's ``expected_orders`` and ``sweep.ATTAINMENT_BAND`` set;
``run_all`` sweeps each built-in's default grid once for them all.
Criterion 6 takes each cell of its random channels of one shape as one
channel stack (``channels.stack_channels``) through one evaluation and the
sweep's own records pass, whose rows equal each seed's own sweep bit for bit.
"""
from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from . import curves, fisher, spectral, sweep
from .channels import pure_state_density, stack_channels
from .errors import LowNoiseError, require_int
from .linalg import fit_or_floor, richardson_zero_limit
from .scenarios import (
    DEFAULT_SCALES,
    Scenario,
    random_channel,
    random_scenario,
    scenario_ancilla_bell,
    scenario_pauli2,
    scenario_threelevel,
)
from .sweep import FIT_FLOOR, run_sweep
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


def _report_failures(report, rows) -> list[str]:
    """Failure lines of a sweep report: each errored point, then each named check row that failed.

    A point's line carries its scale and error, a row's line the row's own
    detail (for an order row, its slope and band); a missing row fails.
    """
    name, checks = report.scenario_name, {c["name"]: c for c in report.checks}
    fails = [f"{name}: point at scale {p['scale']:g}: {p['error']}" for p in report.points if p["error"]]
    for row in rows:
        check = checks.get(row, {"passed": False, "detail": "row missing"})
        if not check["passed"]:
            fails.append(f"{name}: {row} failed ({check['detail']})")
    return fails


# {scenario builder: (scenario, default-grid report)} of the run_all call in progress
_ROUND: ContextVar[dict] = ContextVar("verify_round")


def _default_report(build) -> tuple:
    """build()'s scenario and its shots-0 report; within ``run_all``, one sweep per builder for every check."""
    made = _ROUND.get({})
    if build not in made:
        sc = build()
        made[build] = sc, run_sweep(sc)
    return made[build]


# ---------------------------------------------------------------------------
# criterion 1: ancilla Bell closed forms


def check_ancilla_bell() -> CheckResult:
    start = time.perf_counter()
    sc, report = _default_report(scenario_ancilla_bell)
    failures = _report_failures(report, ["quantum_jinv_vs_reference"])
    good = [p for p in report.points if p["error"] is None]
    if good:
        eps = np.array([p["eps"] for p in good])
        outputs = sc.channel.apply(pure_state_density(sc.input_state), eps)
        dms = spectral.output_deviation_matrix(outputs, sc.input_state, sc.frame)
        shifts = np.sort(spectral.deviation_eigenvalues(dms))
        for p, e, dm, got in zip(good, eps, dms, shifts):
            s, entries = p["scale"], np.asarray(p["quantum_fisher"])
            if np.max(np.abs(dm - sc.closed_forms["deviation_printed"](e))) > 1e-14:
                failures.append(f"deviation matrix deviates from the reference at scale {s:g}")
            if np.max(np.abs(got - np.sort(sc.closed_forms["shifts"](e)))) > 1e-14:
                failures.append(f"shifts deviate from (eps2, eps1, 0) at scale {s:g}")
            l1 = abs(entries[0, 0] * e[0] - 1.0)
            l2 = abs(entries[1, 1] * e[1] - 1.0)
            if l1 > 10 * np.sum(e) or l2 > 10 * np.sum(e):
                failures.append(f"diagonal Fisher entries off at scale {s:g}")
    return _result("ancilla-bell closed forms", start, failures, budget=5.0)


# ---------------------------------------------------------------------------
# criterion 2: Pauli-pair closed forms


def check_pauli() -> CheckResult:
    start = time.perf_counter()
    sc, report = _default_report(scenario_pauli2)
    failures = _report_failures(report, ["jinv_large_eigenvalue", "jinv_small_eigenvalue"])
    good = [p for p in report.points if p["error"] is None]
    for p in good:
        entries, closed = np.asarray(p["quantum_fisher"]), sc.closed_forms["fisher"](np.asarray(p["eps"]))
        tol = 1e-8 * np.maximum(1.0, np.abs(closed))
        if np.any(np.abs(entries - closed) > tol):
            worst = float(np.max(np.abs(entries - closed) / np.maximum(1.0, np.abs(closed))))
            failures.append(f"Fisher matrix off the Bloch form by {worst:.2e} (scaled) at scale {p['scale']:g}")
    if len(good) >= 2:
        (s1, a1), (s2, a2) = [(p["scale"], np.asarray(p["quantum_fisher_inverse"])) for p in good[:2]]
        jinv0 = richardson_zero_limit(s1, a1, s2, a2)
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
    for build in (scenario_ancilla_bell, scenario_threelevel):
        failures += _report_failures(
            _default_report(build)[1], ["unbiasedness", "mse_vs_divergent_inverse", "cr_direction", "attainment"]
        )
    return _result("attainment orders", start, failures, budget=30.0)


# ---------------------------------------------------------------------------
# criterion 5: negative control


def check_negative_control() -> CheckResult:
    start = time.perf_counter()
    failures: list[str] = []
    report = _default_report(scenario_pauli2)[1]
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


def _cells(num_seeds: int) -> list[list[int]]:
    """The suite's seeds grouped into cells whose channels share a shape, in first-seed order.

    A seed's shape is its (N, D) from ``_seed_params`` and whether it has
    generators, which ``random_scenario`` gives odd seeds; ``stack_channels``
    checks it.
    """
    cells: dict[tuple, list[int]] = {}
    for seed in range(num_seeds):
        cells.setdefault(_seed_params(seed) + (seed % 2,), []).append(seed)
    return list(cells.values())


def _stacked_cell(seeds: list[int], scales: np.ndarray, head: dict) -> tuple:
    """The first pass over a cell of seeds: their ``random_scenario``, one stacked evaluation, one d0 pass.

    Each seed's trace-preservation and negativity lines go to head[seed].
    Returns the first-order remainders, row r for seeds[r], the scenarios
    and their stacked spectrum, which the second pass reads.
    """
    scenarios = [random_scenario(*_seed_params(seed), seed) for seed in seeds]
    ch = stack_channels([sc.channel for sc in scenarios])
    phi = np.array([sc.input_state for sc in scenarios])
    direction = np.asarray(scenarios[0].sweep.direction)  # every seed of a cell sweeps the uniform direction
    rho_in = pure_state_density(phi)
    d0 = np.stack([ch.derivative_at_zero(mu, rho_in) for mu in range(ch.num_params)], axis=-3)
    spec = spectral.output_shift_curves(ch, phi, direction, scales)
    linear = (spec.eps @ d0.reshape(len(seeds), ch.num_params, -1)).reshape(spec.output.shape)  # sum_mu eps_mu d0_mu
    remainders = np.linalg.norm(spec.output - rho_in[:, None] - linear, axis=(-2, -1))
    # probs diagonalize the symmetrized output state
    for seed, tpcp, lowest in zip(seeds, spec.tpcp_residual, np.min(spec.probs, axis=-1)):
        head[seed] = [f"seed {seed}: trace-preservation residual at scale {s:g}" for s in scales[tpcp > 1e-10]]
        head[seed] += [f"seed {seed}: output negativity at scale {s:g}" for s in scales[lowest < -1e-10]]
    return remainders, scenarios, spec


# the sweep's point columns criterion 6 grades at every scale: each one's bound and failure line
_GRADED = {
    "trace_power_residual": (1e-11, "trace-power identity residual"),
    "povm_completeness": (1e-10, "POVM basis not orthonormal"),
    "pseudo": (0.0, "divergent Fisher unexpectedly singular"),
}


def _graded_records(seeds: list[int], scenarios, spec, labels: tuple[str, ...], tail: dict) -> np.ndarray:
    """The (C, B) classical-vs-divergent columns of C seeds sharing their shift labels; their lines go to tail[seed].

    One ``sweep._records`` pass over the seeds' channel stack and stacked spectrum spec.  If it raises,
    each seed runs alone through ``run_sweep``, whose row fallback fails only its own points, NaN in each column.
    """
    names, sweep_config = ["classical_vs_divergent", *_GRADED], scenarios[0].sweep  # every seed sweeps one grid
    scales, errors = np.asarray(sweep_config.scales), [{}] * len(seeds)
    try:
        ch, phi = stack_channels([sc.channel for sc in scenarios]), np.array([sc.input_state for sc in scenarios])
        cols = sweep._records(Scenario("random", ch, phi, sweep_config), list(range(len(scales))), spec, labels, 0)
    except LowNoiseError:
        points = [run_sweep(sc).points for sc in scenarios]
        cols = {name: [p.get(name, np.nan) for own in points for p in own] for name in names}
        errors = [{p["scale"]: p["error"] for p in own if p["error"]} for own in points]
    cols = {name: np.asarray(cols[name], dtype=float).reshape(len(seeds), -1) for name in names}
    for i, seed in enumerate(seeds):
        tail[seed] = [f"seed {seed}: point at scale {s:g}: {error}" for s, error in errors[i].items()]
        for name, (bound, line) in _GRADED.items():
            tail[seed] += [f"seed {seed}: {line} at scale {s:g}" for s in scales[cols[name][i] > bound]]
    return cols["classical_vs_divergent"]


def check_property_suite(num_seeds: int = 100) -> CheckResult:
    """Criterion 6: two stacked passes per cell of seeds of one channel shape, around three fits over all seeds."""
    num_seeds = require_int(num_seeds, "the property suite's seed count", 1)
    start = time.perf_counter()
    scales = np.asarray(DEFAULT_SCALES)  # every seed's sweep scales, so the stacked fits take them
    head: dict[int, list[str]] = {}
    tail: dict[int, list[str]] = {}
    remainders, shifts, cells = np.empty((num_seeds, len(scales))), [None] * num_seeds, []
    for seeds in _cells(num_seeds):
        remainders[seeds], scenarios, spec = _stacked_cell(seeds, scales, head)
        for seed, seed_shifts in zip(seeds, spec.shifts()):
            shifts[seed] = seed_shifts
        cells.append((seeds, scenarios, spec))
    first_order = fit_or_floor(scales, remainders, 0.0)  # floor 0 clips nothing
    # every shift is a probability, so max(1, max |shift|) = 1 and all seeds share one shift floor
    labels = iter(spectral.classify_shift_curves(scales, np.concatenate(shifts, axis=-1))[0])
    # each seed takes the next N - 1 labels, one per shift curve
    seed_labels = [tuple(next(labels) for _ in range(s.shape[-1])) for s in shifts]
    cvd = np.empty((num_seeds, len(scales)))
    while cells:  # a cell's spectrum goes once its records are graded, and the records with it
        seeds, scenarios, spec = cells.pop(0)
        groups: dict[tuple, list[int]] = {}  # one set of shift labels per cell as a rule
        for r, seed in enumerate(seeds):
            groups.setdefault(seed_labels[seed], []).append(r)
        for shared, rows in groups.items():
            picked, cell = [seeds[r] for r in rows], spec if len(rows) == len(seeds) else spec[rows]
            cvd[picked] = _graded_records(picked, [scenarios[r] for r in rows], cell, shared, tail)
    fitted = ~np.any(np.isnan(cvd), axis=-1)  # a seed with an errored point fails by its point lines
    cvd_slope = np.full(num_seeds, np.nan)
    cvd_slope[fitted] = fit_or_floor(scales, cvd[fitted], FIT_FLOOR).slope  # NaN at the floor
    failures: list[str] = []
    for seed in range(num_seeds):
        failures += head[seed]
        if not 1.85 <= first_order.slope[seed] <= 2.15:
            failures.append(f"seed {seed}: first-order consistency slope {first_order.slope[seed]:.3f}")
        if cvd_slope[seed] < -0.2:
            failures.append(f"seed {seed}: classical-vs-divergent slope {cvd_slope[seed]:.3f} diverges")
        failures += tail[seed]
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


MONTE_CARLO_SEED = 2026  # the sweep seed
# ancilla-bell's grid for criterion 7: its first point is eps = (1e-3, 2e-3), and
# at 10^4 shots every outcome at every point expects at least 10 counts
MONTE_CARLO_SCALES = tuple(np.geomspace(3e-3, 3e-2, 4))


def check_monte_carlo(shots: int = 10**6) -> CheckResult:
    """Criterion 7: the ``mc`` records of an ancilla-bell sweep with shots draws per point.

    Each point's empirical MSE must lie within 4 standard errors of its
    analytic MSE, and a second sweep must render the same bytes.
    """
    shots = require_int(shots, "the Monte Carlo check's shot count", 1)
    start = time.perf_counter()
    sc = scenario_ancilla_bell(scales=MONTE_CARLO_SCALES, seed=MONTE_CARLO_SEED)
    report = run_sweep(sc, shots)
    failures = _report_failures(report, [])
    failures += [
        f"{report.scenario_name}: empirical MSE outside 4 standard errors of the analytic value at scale {p['scale']:g}"
        for p in report.points if p["error"] is None and not p["mc"]["within_4se_of_analytic"]
    ]
    if render_jsonl(run_sweep(sc, shots), with_meta=False) != render_jsonl(report, with_meta=False):
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
    """Every check in order, each built-in's default grid swept once; ConfigInvalid unless both counts are ints >= 1."""
    num_seeds, shots = require_int(num_seeds, "verify's seed count", 1), require_int(shots, "verify's shot count", 1)
    counts, token = {check_property_suite: (num_seeds,), check_monte_carlo: (shots,)}, _ROUND.set({})
    try:
        return [fn(*counts.get(fn, ())) for fn in ALL_CHECKS]
    finally:
        _ROUND.reset(token)

"""Criteria 1, 2, 4 and 7 grade the report run_sweep returns; criterion 6's stacked fits and failure lines.

Each criterion 1, 2, 4 and 7 test wraps ``verify.run_sweep`` so that it
alters the real report of one scenario, and checks that the criterion
reading that report fails and names what failed: the point's scale and
error or Monte Carlo record, or the scenario, the check row and the row's
own detail.

The property suite (criterion 6) fits the series of each cell of seeds of
one channel shape in stacked calls, and grades the columns of the sweep's
records pass over the cell at every scale.  Its tests check each seed's
share of those calls against the call on that seed alone, or its own
sweep, and pin the failure detail when checks are forced to fail: the
lines in seed order, in the order of the checks within a seed, cut off
after the seed that takes them past 20; a cell whose pass raises fails
only the seeds that raise alone.  ``run_all`` sweeps each built-in's
default grid once.
"""
from dataclasses import replace

import numpy as np
import pytest

from lownoise import fisher, spectral, sweep, verify
from lownoise.channels import LowNoiseChannel, pure_state_density
from lownoise.errors import ConfigInvalid, DegenerateSamples, TPCPViolation
from lownoise.linalg import fit_or_floor, frobenius
from lownoise.scenarios import DEFAULT_SCALES, random_scenario, scenario_ancilla_bell, scenario_pauli2
from lownoise.sweep import FIT_FLOOR, run_sweep


def _alter_reports(monkeypatch, scenario: str, alter) -> None:
    """Make verify's sweeps apply alter to each report of the named scenario."""

    def altered(sc, *args, **kwargs):
        report = run_sweep(sc, *args, **kwargs)
        if report.scenario_name == scenario:
            alter(report)
        return report

    monkeypatch.setattr(verify, "run_sweep", altered)


def test_errored_bell_point_fails_criterion_1(monkeypatch):
    error = "NoConvergence: Eigenvalues did not converge"

    def error_at_2(report):
        report.points[2] = {"scale": report.points[2]["scale"], "error": error}

    _alter_reports(monkeypatch, "ancilla-bell", error_at_2)
    result = verify.check_ancilla_bell()
    assert not result.passed
    assert result.detail == f"ancilla-bell: point at scale {scenario_ancilla_bell().sweep.scales[2]:g}: {error}"


def test_pauli_fisher_entry_off_fails_criterion_2_at_its_scale(monkeypatch):
    def off_at_3(report):
        report.points[3]["quantum_fisher"][0][0] *= 1 + 1e-6

    _alter_reports(monkeypatch, "pauli2", off_at_3)
    result = verify.check_pauli()
    assert not result.passed
    assert result.detail.startswith("Fisher matrix off the Bloch form")
    assert result.detail.endswith(f"at scale {scenario_pauli2().sweep.scales[3]:g}")
    assert ";" not in result.detail


@pytest.mark.parametrize(
    "scenario, row", [("ancilla-bell", "cr_direction"), ("three-level", "mse_vs_divergent_inverse")]
)
def test_failed_row_fails_criterion_4_with_its_detail(monkeypatch, scenario, row):
    details = []

    def fail_row(report):
        check = next(c for c in report.checks if c["name"] == row)
        check["passed"] = False
        details.append(check["detail"])

    _alter_reports(monkeypatch, scenario, fail_row)
    result = verify.check_attainment()
    assert not result.passed
    assert result.detail == f"{scenario}: {row} failed ({details[0]})"


def test_attainment_outside_its_band_fails_criterion_4_with_slope_and_band(monkeypatch):
    monkeypatch.setattr(sweep, "ATTAINMENT_BAND", (5.0, 6.0))
    result = verify.check_attainment()
    assert not result.passed
    # three-level is graded last, and its attainment row is its last row
    assert "three-level: attainment failed (unbiasedness slope=" in result.detail
    assert result.detail.endswith("band=(5.0, 6.0))")


# ---------------------------------------------------------------------------
# criterion 6: the property suite's stacked fits and its failure lines


def _seed_spectrum(seed: int):
    """The grid spectrum, input state and zero-noise derivatives of one property-suite seed, built as the suite builds them."""
    sc = random_scenario(*verify._seed_params(seed), seed)
    rho_in = pure_state_density(sc.input_state)
    d0 = np.array([sc.channel.derivative_at_zero(mu, rho_in) for mu in range(sc.channel.num_params)])
    spec = spectral.output_shift_curves(sc.channel, sc.input_state, np.asarray(sc.sweep.direction), DEFAULT_SCALES)
    return spec, rho_in, d0


def test_stacked_property_suite_fits_match_one_seed_calls(monkeypatch):
    """Each seed's share of its cell's stacked calls equals the call on that seed alone, bit for bit.

    A cell's shift classification uses one floor for every seed's curves;
    each seed's own floor is the same because its shifts are probabilities.
    """
    classified, fitted = [], []
    classify, fit = spectral.classify_shift_curves, verify.fit_or_floor

    def recording_classify(scales, rows):
        labels, fits = classify(scales, rows)
        classified.append(labels)
        return labels, fits

    def recording_fit(scales, values, floor):
        fitted.append(fit(scales, values, floor))
        return fitted[-1]

    monkeypatch.setattr(spectral, "classify_shift_curves", recording_classify)
    monkeypatch.setattr(verify, "fit_or_floor", recording_fit)
    num_seeds = 100
    assert verify.check_property_suite(num_seeds).passed
    cells = verify._cells(num_seeds)
    # one classification per cell, and per cell the first-order then the classical-vs-divergent fit
    assert len(classified) == len(cells) and len(fitted) == 2 * len(cells)
    monkeypatch.undo()
    scales = np.asarray(DEFAULT_SCALES)
    for seeds, labels, first_order, cvd in zip(cells, classified, fitted[::2], fitted[1::2]):
        start = 0
        for r, seed in enumerate(seeds):
            spec, rho_in, d0 = _seed_spectrum(seed)
            own = spectral.classify_shift_curves(scales, spec.shifts())[0]
            assert labels[start : start + len(own)] == own
            start += len(own)
            remainder = np.linalg.norm(spec.output - rho_in - np.tensordot(spec.eps, d0, axes=1), axis=(-2, -1))
            assert first_order.slope[r] == fit_or_floor(scales, remainder, 0.0).slope
            included = [i for i, lab in enumerate(own) if lab == "order-1"]
            jc = fisher.classical_fisher(spec.probs, spec.gradients).entries
            jdiv = fisher.divergent_fisher(spec.shifts(), spec.shift_gradients(), included).entries
            one = fit_or_floor(scales, frobenius(jc - jdiv), FIT_FLOOR)  # the sweep's classical_vs_divergent column
            assert cvd.at_floor[r] == one.at_floor
            assert np.array_equal(cvd.slope[r], one.slope, equal_nan=True)
        assert start == len(labels)


def _forced(monkeypatch, module, name, make):
    """Replace module.name by make(original)."""
    monkeypatch.setattr(module, name, make(getattr(module, name)))


def _at_scale_index(values: np.ndarray, index: int, value: float) -> np.ndarray:
    """values, a column of the sweep's records pass, with value at grid point index of every channel.

    The pass's rows run channel by channel, a grid of the suite's scales each.
    """
    values = np.array(values, dtype=float)
    values.reshape((-1, len(DEFAULT_SCALES)) + values.shape[1:])[:, index] = value
    return values


def test_failing_trace_power_identity_cuts_the_detail_after_the_seed_past_20(monkeypatch):
    """The residual fails at every scale, one line each: the third seed takes the lines past 20."""
    _forced(monkeypatch, spectral, "trace_power_residual", lambda original: lambda dm, *a, **k: np.ones(dm.shape[:-2]))
    result = verify.check_property_suite()
    assert not result.passed
    assert result.detail == "; ".join(
        f"seed {seed}: trace-power identity residual at scale {s:g}" for seed in range(3) for s in DEFAULT_SCALES
    )


def test_property_suite_failure_lines_keep_their_order_within_a_seed(monkeypatch):
    """Five checks fail at every seed; the lines come seed by seed, in the order the checks were written.

    The suite evaluates a cell of seeds in one stacked call, and takes the
    cell's records in one more, so each patch marks scale index 2 of every
    seed's rows of its call.  A zero divergent matrix at that scale takes
    its pseudo-inverse, and the kept mask's ``pseudo`` row gives the
    singular line.
    """

    def residual_and_offset_at_a_scale(original):
        def altered(*args):
            spec = original(*args)
            residual = spec.tpcp_residual.copy()
            residual[..., 2] = 1.0
            return replace(spec, tpcp_residual=residual, output=spec.output + 1e-3 * np.eye(spec.output.shape[-1]))

        return altered

    def diverging_classical(original):
        # divided by the summed shifts, which grow linearly in the scale
        return lambda probs, gradients: fisher.FisherMatrix(
            entries=original(probs, gradients).entries / (1.0 - probs[..., :1, None])
        )

    def singular(original):
        return lambda *args: fisher.FisherMatrix(entries=_at_scale_index(original(*args).entries, 2, 0.0))

    _forced(monkeypatch, spectral, "output_shift_curves", residual_and_offset_at_a_scale)
    _forced(
        monkeypatch, spectral, "trace_power_residual",
        lambda original: lambda *args, **kwargs: _at_scale_index(original(*args, **kwargs), 2, 1.0),
    )
    _forced(monkeypatch, fisher, "classical_fisher", diverging_classical)
    _forced(monkeypatch, fisher, "divergent_fisher", singular)
    result = verify.check_property_suite()
    assert not result.passed
    expected = []
    for seed in range(5):  # 25 lines: the cut-off comes after the fifth seed
        expected += [
            f"seed {seed}: trace-preservation residual at scale 7.19686e-05",
            f"seed {seed}: first-order consistency slope 0.000",
            f"seed {seed}: classical-vs-divergent slope {'-2.002' if seed == 0 else '-2.000'} diverges",
            f"seed {seed}: trace-power identity residual at scale 7.19686e-05",
            f"seed {seed}: divergent Fisher unexpectedly singular at scale 7.19686e-05",
        ]
    assert result.detail == "; ".join(expected)


def test_stacked_records_equal_each_seeds_own_sweep(monkeypatch):
    """Each seed's rows of the suite's records pass equal the points of its own run_sweep, bit for bit."""
    passes, records = [], sweep._records

    def recording(sc, *args):
        columns = records(sc, *args)
        passes.append((sc.input_state, sweep._points(columns)))
        return columns

    monkeypatch.setattr(sweep, "_records", recording)
    num_seeds = 100
    assert verify.check_property_suite(num_seeds).passed
    monkeypatch.undo()
    rows = {}  # each seed's records, by its input state
    for phi, points in passes:
        grid = len(points) // len(phi)
        for r, state in enumerate(phi):
            rows[state.tobytes()] = points[r * grid : (r + 1) * grid]
    assert len(rows) == num_seeds
    for seed in range(num_seeds):
        sc = random_scenario(*verify._seed_params(seed), seed)
        assert rows[sc.input_state.tobytes()] == run_sweep(sc).points, seed


@pytest.mark.parametrize("line", ["trace-power identity residual", "POVM basis not orthonormal"])
def test_column_over_its_bound_at_another_scale_fails_criterion_6(monkeypatch, line):
    """The suite grades the sweep's columns at every scale: here only at the grid's smallest."""

    def covariance_doubled_at_the_smallest_scale(original):
        def altered(ch, phi, eps):
            smallest = np.isclose(np.sum(eps, axis=-1), DEFAULT_SCALES[0])  # eps = scale * direction, summing to scale
            lm = original(ch, phi, eps)
            return np.where(smallest[..., None, None], 2.0 * lm, lm)

        return altered

    def basis_stretched_at_the_smallest_scale(original):
        def altered(*args):
            spec = original(*args)
            basis = spec.basis.copy()
            basis[..., 0, :, :] *= 1.0 + 1e-6
            return replace(spec, basis=basis)

        return altered

    if line == "POVM basis not orthonormal":
        _forced(monkeypatch, spectral, "output_shift_curves", basis_stretched_at_the_smallest_scale)
    else:
        _forced(monkeypatch, spectral, "jump_covariance", covariance_doubled_at_the_smallest_scale)
    num_seeds = 12
    result = verify.check_property_suite(num_seeds)
    assert not result.passed
    assert result.detail == "; ".join(f"seed {s}: {line} at scale {DEFAULT_SCALES[0]:g}" for s in range(num_seeds))


def test_singular_quantum_fisher_fails_only_its_seed_at_its_scale(monkeypatch):
    """The cell's records pass raises, so each of its seeds runs alone; only the singular point errors."""
    seed, index, num_seeds = 4, 3, 12
    target = _seed_spectrum(seed)[0].probs[index]
    quantum = fisher.quantum_fisher

    def singular_at_the_target(probs, *args):
        entries = quantum(probs, *args).entries
        if probs.shape[-1] == len(target):
            entries = np.where(np.all(probs == target, axis=-1)[..., None, None], 0.0, entries)
        return fisher.FisherMatrix(entries=entries)

    monkeypatch.setattr(fisher, "quantum_fisher", singular_at_the_target)
    result = verify.check_property_suite(num_seeds)
    assert not result.passed
    assert result.detail == (
        f"seed {seed}: point at scale {DEFAULT_SCALES[index]:g}: "
        "SingularFisher: Fisher matrix numerically singular (eigenvalue magnitudes 0 to 0)"
    )


def test_cell_whose_evaluation_raises_fails_only_its_seed_at_its_points(monkeypatch):
    """Seed 4's cell raises in its stacked evaluation, so each of its seeds runs alone; seed 4's sweep names its points."""
    target = random_scenario(*verify._seed_params(4), 4).input_state
    curves = spectral.output_shift_curves

    def violating_with_seed_4(ch, phi, direction, scales):
        rows = np.reshape(phi, (-1, np.shape(phi)[-1]))
        if any(np.array_equal(row, target) for row in rows) and np.max(scales) > 1e-3:
            raise TPCPViolation("forced violation")
        return curves(ch, phi, direction, scales)

    monkeypatch.setattr(spectral, "output_shift_curves", violating_with_seed_4)
    result = verify.check_property_suite(12)
    assert not result.passed
    assert result.detail == "; ".join(
        f"seed 4: point at scale {s}: TPCPViolation: forced violation" for s in ("0.0013895", "0.00372759", "0.01")
    )


@pytest.mark.parametrize("sweep_raises", [False, True])
def test_seed_that_raises_alone_fails_without_an_errored_point(monkeypatch, sweep_raises):
    """Seed 4's zero-noise derivative is non-finite, so its first-order fit raises, in its cell and alone.

    Its own sweep reads no such derivative and errs at no point, or raises
    itself; either way the seed fails with the error of its pass.
    """
    target = pure_state_density(random_scenario(*verify._seed_params(4), 4).input_state)
    derivative = LowNoiseChannel.derivative_at_zero

    def non_finite_for_seed_4(self, mu, rho):
        d0 = derivative(self, mu, rho)
        if rho.shape[-2:] != target.shape:
            return d0
        return np.where(np.all(rho == target, axis=(-2, -1))[..., None, None], np.nan, d0)

    def raising(*args):
        raise DegenerateSamples("forced")

    monkeypatch.setattr(LowNoiseChannel, "derivative_at_zero", non_finite_for_seed_4)
    if sweep_raises:
        monkeypatch.setattr(sweep, "fit_or_floor", raising)  # the sweep's order fits, which the suite does not make
    result = verify.check_property_suite(12)
    assert not result.passed
    assert result.detail == "seed 4: DegenerateSamples: scales and values must be finite"


def test_cell_with_two_label_sets_takes_one_records_pass_each(monkeypatch):
    """Seed 4's second shift is labelled order-1 and its cell mate's is not: each set takes its own pass."""
    classify, records, classified, passes = spectral.classify_shift_curves, sweep._records, [], []

    def seed_4_differs(scales, rows):
        labels, fits = classify(scales, rows)
        classified.append(labels)
        if len(classified) == 5:  # the fifth cell holds seeds 4 and 10 (N = 3): seed 4 takes labels 0 and 1
            assert labels[1] == "higher-or-zero"
            labels = labels[:1] + ("order-1",) + labels[2:]
        return labels, fits

    def recording(sc, *args):  # args: rows, spec, labels, shots
        columns = records(sc, *args)
        passes.append((sc.input_state, args[-2], sweep._points(columns)))
        return columns

    monkeypatch.setattr(spectral, "classify_shift_curves", seed_4_differs)
    monkeypatch.setattr(sweep, "_records", recording)
    verify.check_property_suite(12)
    monkeypatch.undo()
    assert len(classified) == 6
    assert [len(phi) for phi, _, _ in passes] == [2, 2, 2, 2, 1, 1, 2]
    for seed, (phi, labels, points) in zip((4, 10), passes[4:6]):
        spec, _, _ = _seed_spectrum(seed)
        sc = random_scenario(*verify._seed_params(seed), seed)
        assert phi[0].tobytes() == sc.input_state.tobytes()
        assert labels == (("order-1",) * 2 if seed == 4 else ("order-1", "higher-or-zero"))
        assert points == sweep._points(sweep._records(sc, list(range(len(DEFAULT_SCALES))), spec, labels, 0))


def test_property_suite_runs_on_one_seed():
    result = verify.check_property_suite(1)
    assert (result.name, result.passed, result.detail) == ("property suite (1 seeds)", True, "ok")


@pytest.mark.parametrize("count", [2.5, "3", True, 0])
@pytest.mark.parametrize("check", [verify.check_property_suite, verify.check_monte_carlo])
def test_check_count_that_is_not_a_positive_integer_is_a_config_error(check, count):
    with pytest.raises(ConfigInvalid, match="must be an integer >= 1"):
        check(count)


def test_run_all_sweeps_each_builtin_once(monkeypatch):
    """Criteria 1 and 4 share ancilla-bell's default-grid report, 2 and 5 pauli2's; criterion 7 sweeps twice."""
    swept = []

    def counting(sc, shots=0):
        swept.append((sc.name, tuple(sc.sweep.scales), shots))
        return run_sweep(sc, shots)

    monkeypatch.setattr(verify, "run_sweep", counting)
    results = verify.run_all(num_seeds=3, shots=10**4)
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    assert sorted(swept[:3]) == [(name, DEFAULT_SCALES, 0) for name in ("ancilla-bell", "pauli2", "three-level")]
    assert swept[3:] == [("ancilla-bell", verify.MONTE_CARLO_SCALES, 10**4)] * 2
    # nothing is shared past the round: the next round sweeps again
    verify.run_all(num_seeds=3, shots=10**4)
    assert len(swept) == 10


@pytest.mark.parametrize("counts", [(2.5, 10), (1, "3"), (True, 10)])
def test_run_all_rejects_a_count_before_any_check_runs(monkeypatch, counts):
    def unreachable(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "ALL_CHECKS", [unreachable])
    with pytest.raises(ConfigInvalid, match="must be an integer >= 1"):
        verify.run_all(*counts)


# ---------------------------------------------------------------------------
# criterion 7: the Monte Carlo records of an ancilla-bell sweep


@pytest.mark.parametrize("shots", [10**4, 10**6])
def test_criterion_7_grades_two_sweeps_of_its_grid(monkeypatch, shots):
    reports = []
    _alter_reports(monkeypatch, "ancilla-bell", reports.append)
    result = verify.check_monte_carlo(shots)
    assert (result.passed, result.detail) == (True, "ok")
    assert len(reports) == 2
    for report in reports:
        assert report.scales == list(verify.MONTE_CARLO_SCALES) and report.seed == verify.MONTE_CARLO_SEED
        assert report.points[0]["eps"] == [1e-3, 2e-3]
        assert all(p["mc"]["shots"] == shots and p["mc"]["within_4se_of_analytic"] for p in report.points)


def test_mc_record_outside_4_se_fails_criterion_7_at_its_scale(monkeypatch):
    def outside_at_1(report):
        report.points[1]["mc"]["within_4se_of_analytic"] = False

    _alter_reports(monkeypatch, "ancilla-bell", outside_at_1)
    result = verify.check_monte_carlo(10**4)
    assert not result.passed
    scale = verify.MONTE_CARLO_SCALES[1]
    assert result.detail == f"ancilla-bell: empirical MSE outside 4 standard errors of the analytic value at scale {scale:g}"


def test_errored_point_fails_criterion_7_at_its_scale(monkeypatch):
    error = "BadProbabilities: outcome probabilities do not sum to 1"

    def error_at_2(report):
        report.points[2] = {"scale": report.points[2]["scale"], "error": error}

    _alter_reports(monkeypatch, "ancilla-bell", error_at_2)
    result = verify.check_monte_carlo(10**4)
    assert not result.passed
    assert result.detail == f"ancilla-bell: point at scale {verify.MONTE_CARLO_SCALES[2]:g}: {error}"


def test_rerun_that_differs_fails_criterion_7(monkeypatch):
    reports = []

    def second_differs(report):
        reports.append(report)
        if len(reports) == 2:
            report.points[0]["mc"]["seed"] += 1

    _alter_reports(monkeypatch, "ancilla-bell", second_differs)
    result = verify.check_monte_carlo(10**4)
    assert not result.passed
    assert result.detail == "reports are not byte-identical across reruns"

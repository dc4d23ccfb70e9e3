"""Criteria 1, 2, 4 and 7 grade the report run_sweep returns; criterion 6's stacked fits and failure lines.

Each criterion 1, 2, 4 and 7 test wraps ``verify.run_sweep`` so that it
alters the real report of one scenario, and checks that the criterion
reading that report fails and names what failed: the point's scale and
error or Monte Carlo record, or the scenario, the check row and the row's
own detail.

The property suite (criterion 6) fits the series of all its seeds in
stacked calls.  Its tests check each seed's share of those calls against
the call on that seed alone, and pin the failure detail when checks are
forced to fail: the lines in seed order, in the order of the checks within
a seed, cut off after the seed that takes them past 20.
"""
from dataclasses import replace

import numpy as np
import pytest

from lownoise import fisher, spectral, sweep, verify
from lownoise.channels import pure_state_density
from lownoise.errors import ConfigInvalid, SingularFisher
from lownoise.linalg import fit_or_floor
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
    """Each seed's share of the suite's stacked calls equals the call on that seed alone, bit for bit.

    The stacked shift classification uses one floor for every seed's
    curves; each seed's own floor is the same because its shifts are
    probabilities.
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
    (labels,), (first_order, cvd) = classified, fitted
    monkeypatch.undo()
    scales, start = np.asarray(DEFAULT_SCALES), 0
    for seed in range(num_seeds):
        spec, rho_in, d0 = _seed_spectrum(seed)
        own = spectral.classify_shift_curves(scales, spec.shifts())[0]
        assert labels[start : start + len(own)] == own
        start += len(own)
        remainder = np.linalg.norm(spec.output - rho_in - np.tensordot(spec.eps, d0, axes=1), axis=(-2, -1))
        assert first_order.slope[seed] == fit_or_floor(scales, remainder, 0.0).slope
        included = [i for i, lab in enumerate(own) if lab == "order-1"]
        jc = fisher.classical_fisher(spec.probs, spec.gradients).entries
        jdiv = fisher.divergent_fisher(spec.shifts(), spec.shift_gradients(), included).entries
        one = fit_or_floor(scales, np.linalg.norm(jc - jdiv, axis=(1, 2)), FIT_FLOOR)
        assert cvd.at_floor[seed] == one.at_floor
        assert np.array_equal(cvd.slope[seed], one.slope, equal_nan=True)
    assert start == len(labels)


def _forced(monkeypatch, module, name, make):
    """Replace module.name by make(original)."""
    monkeypatch.setattr(module, name, make(getattr(module, name)))


def test_failing_trace_power_identity_cuts_the_detail_after_the_seed_past_20(monkeypatch):
    _forced(monkeypatch, spectral, "trace_power_residual", lambda original: lambda *args, **kwargs: 1.0)
    result = verify.check_property_suite()
    assert not result.passed
    assert result.detail == "; ".join(f"seed {seed}: trace-power identity residual" for seed in range(21))


def test_property_suite_failure_lines_keep_their_order_within_a_seed(monkeypatch):
    """Five checks fail at every seed; the lines come seed by seed, in the order the checks were written."""

    def residual_and_offset_at_a_scale(original):
        def altered(*args):
            spec = original(*args)
            residual = spec.tpcp_residual.copy()
            residual[2] = 1.0
            return replace(spec, tpcp_residual=residual, output=spec.output + 1e-3 * np.eye(spec.output.shape[-1]))

        return altered

    def diverging_classical(original):
        # divided by the summed shifts, which grow linearly in the scale
        return lambda probs, gradients: fisher.FisherMatrix(
            entries=original(probs, gradients).entries / (1.0 - probs[..., :1, None])
        )

    def singular(original):
        def raising(fm):
            raise SingularFisher("forced")

        return raising

    _forced(monkeypatch, spectral, "output_shift_curves", residual_and_offset_at_a_scale)
    _forced(monkeypatch, spectral, "trace_power_residual", lambda original: lambda *args, **kwargs: 1.0)
    _forced(monkeypatch, fisher, "classical_fisher", diverging_classical)
    _forced(monkeypatch, fisher, "fisher_inverse", singular)
    result = verify.check_property_suite()
    assert not result.passed
    expected = []
    for seed in range(5):  # 25 lines: the cut-off comes after the fifth seed
        expected += [
            f"seed {seed}: trace-preservation residual at scale 7.19686e-05",
            f"seed {seed}: first-order consistency slope 0.000",
            f"seed {seed}: classical-vs-divergent slope {'-2.002' if seed == 0 else '-2.000'} diverges",
            f"seed {seed}: trace-power identity residual",
            f"seed {seed}: divergent Fisher unexpectedly singular",
        ]
    assert result.detail == "; ".join(expected)


def test_property_suite_runs_on_one_seed():
    result = verify.check_property_suite(1)
    assert (result.name, result.passed, result.detail) == ("property suite (1 seeds)", True, "ok")


@pytest.mark.parametrize("count", [2.5, "3", True, 0])
@pytest.mark.parametrize("check", [verify.check_property_suite, verify.check_monte_carlo])
def test_check_count_that_is_not_a_positive_integer_is_a_config_error(check, count):
    with pytest.raises(ConfigInvalid, match="must be an integer >= 1"):
        check(count)


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

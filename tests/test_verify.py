"""Criteria 1, 2 and 4 grade the report run_sweep returns for their built-in.

Each test wraps ``verify.run_sweep`` so that it alters the real report of
one scenario, and checks that the criterion reading that report fails and
names what failed: the point's scale and error, or the scenario, the check
row and the row's own detail.
"""
import pytest

from lownoise import sweep, verify
from lownoise.scenarios import scenario_ancilla_bell, scenario_pauli2
from lownoise.sweep import run_sweep


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

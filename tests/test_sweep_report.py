import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lownoise import fisher, spectral, sweep
from lownoise.channels import channel_from_config, matrix_to_json
from lownoise.errors import ConfigInvalid, IOFailure, LowNoiseError, SingularFisher
from lownoise.report import (
    CSV_COLUMNS,
    emit_report,
    parse_csv,
    parse_jsonl,
    render_csv,
    render_jsonl,
)
from lownoise.scenarios import (
    DEFAULT_SCALES,
    Scenario,
    SweepConfig,
    random_channel,
    random_input_state,
    random_scenario,
    scenario_ancilla_bell,
    scenario_pauli2,
    scenario_threelevel,
)
from lownoise.sweep import FIT_FLOOR, NONDEGENERACY_FLOOR, run_sweep

FAST_SCALES = tuple(np.geomspace(1e-5, 1e-2, 5))


@pytest.fixture(scope="module")
def bell_report():
    return run_sweep(scenario_ancilla_bell(scales=FAST_SCALES))


@pytest.fixture(scope="module")
def pauli_report():
    return run_sweep(scenario_pauli2(scales=FAST_SCALES))


class TestRunSweep:
    def test_bell_all_checks_pass(self, bell_report):
        assert bell_report.passed
        by_name = {c["name"]: c for c in bell_report.checks}
        assert by_name["attainment"]["passed"]
        assert by_name["cr_direction"]["passed"]
        assert by_name["nondegeneracy_gate"]["passed"]
        assert all(p["error"] is None for p in bell_report.points)

    def test_bell_shift_labels(self, bell_report):
        assert bell_report.shift_labels == ["order-1", "order-1", "higher-or-zero"]

    def test_threelevel_passes(self):
        report = run_sweep(scenario_threelevel(scales=FAST_SCALES))
        assert report.passed
        fits = {f["name"]: f for f in report.fits}
        assert 1.8 <= fits["mse_vs_divergent_inverse"]["slope"] <= 2.2
        assert 1.8 <= fits["unbiasedness"]["slope"] <= 2.2

    def test_pauli_attainment_fails_by_design(self, pauli_report):
        assert pauli_report.passed  # expected failures do not fail the report
        by_name = {c["name"]: c for c in pauli_report.checks}
        att = by_name["attainment"]
        assert not att["passed"] and att["expected_failure"]
        gate = by_name["nondegeneracy_gate"]
        assert not gate["passed"] and gate["expected_failure"]
        assert all(p["pseudo"] for p in pauli_report.points if p.get("error") is None)

    def test_pauli_attainment_detail_names_the_pseudo_rows(self, pauli_report):
        att = {c["name"]: c for c in pauli_report.checks}["attainment"]
        assert att["detail"].startswith(f"pseudo-inverse rows at {len(FAST_SCALES)} of {len(FAST_SCALES)} scales; ")
        assert att["detail"].endswith("; nondegeneracy gate failed")

    def test_attainment_detail_names_the_slopes_outside_the_band(self, monkeypatch):
        monkeypatch.setattr(sweep, "ATTAINMENT_BAND", (5.0, 6.0))
        report = run_sweep(scenario_threelevel(scales=FAST_SCALES))
        assert not report.passed
        att = {c["name"]: c for c in report.checks}["attainment"]
        fits = {f["name"]: f for f in report.fits}
        assert not att["passed"] and att["detail"] == (
            f"unbiasedness slope={fits['unbiasedness']['slope']}, band=(5.0, 6.0); "
            f"mse_vs_divergent_inverse slope={fits['mse_vs_divergent_inverse']['slope']}, band=(5.0, 6.0)"
        )

    def test_fit_rows_count_their_floor_hits(self, pauli_report):
        # pauli2's determinants are exactly zero at most scales: those samples are clipped before the fit
        fits = {f["name"]: f for f in pauli_report.fits}
        dets = [abs(p["nondegeneracy_det"]) for p in pauli_report.points]
        assert fits["nondegeneracy_det"]["floor_hits"] == sum(d < FIT_FLOOR * 1e-3 for d in dets) > 0
        for fit in pauli_report.fits:
            if fit["at_floor"]:
                assert fit["floor_hits"] is None and fit["slope"] is None
            else:
                assert isinstance(fit["floor_hits"], int) and 0 <= fit["floor_hits"] <= len(FAST_SCALES)

    @pytest.mark.parametrize("dim, seed", [(3, 1), (4, 0)])
    def test_gate_fails_above_the_bound(self, dim, seed):
        # D = N: det G is rounding noise that scales as s^-D like a true
        # determinant, so the order test alone passes; the floor fails it
        report = run_sweep(random_scenario(dim, dim, seed))
        fit = {f["name"]: f for f in report.fits}["nondegeneracy_det"]
        assert abs(fit["slope"] + dim) <= 0.3
        gate = {c["name"]: c for c in report.checks}["nondegeneracy_gate"]
        assert not gate["passed"]
        assert f"floor {NONDEGENERACY_FLOOR:g}" in gate["detail"]

    def test_gate_fails_a_det_fit_with_floor_hits(self, monkeypatch):
        # half of pauli2's determinants are exactly zero and clipped before the fit;
        # with the ratio floor out of the way the clipped fit's slope alone passes
        # the order test, and only its floor hits fail the gate
        monkeypatch.setattr(sweep, "NONDEGENERACY_FLOOR", -1.0)
        report = run_sweep(scenario_pauli2())
        fit = {f["name"]: f for f in report.fits}["nondegeneracy_det"]
        assert fit["floor_hits"] > 0 and abs(fit["slope"] + 2) <= 0.3
        assert not {c["name"]: c for c in report.checks}["nondegeneracy_gate"]["passed"]

    def test_gate_detail_names_the_worst_point(self, bell_report):
        gate = {c["name"]: c for c in bell_report.checks}["nondegeneracy_gate"]
        ratios = [
            abs(p["nondegeneracy_det"]) / np.prod(np.diag(p["classical_fisher"]) / 4) for p in bell_report.points
        ]
        worst = int(np.argmin(ratios))
        assert f"= {ratios[worst]:g} at scale {bell_report.points[worst]['scale']:g}," in gate["detail"]
        assert NONDEGENERACY_FLOOR < ratios[worst] <= 1.0

    def test_pauli_bad_direction_gap_persists(self, pauli_report):
        fits = {f["name"]: f for f in pauli_report.fits}
        gap = fits["bad_direction_gap"]
        assert not gap["at_floor"]
        assert gap["slope"] <= 0.3

    def test_failed_classification_fails_every_point(self):
        # three scales are too few for the slope fit that classifies the shifts
        report = run_sweep(scenario_threelevel(scales=(1e-4, 1e-3, 1e-2)))
        assert not report.passed
        assert [p["error"].split(":")[0] for p in report.points] == ["DegenerateSamples"] * 3

    @pytest.mark.parametrize("solver", ["eigh", "eigvalsh"])
    def test_eigensolver_failure_recorded_per_point(self, monkeypatch, solver):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        sc = scenario_threelevel(scales=FAST_SCALES)
        monkeypatch.setattr(np.linalg, solver, fail)
        report = run_sweep(sc)
        assert not report.passed
        assert len(report.points) == len(FAST_SCALES)
        assert [p["error"] for p in report.points] == ["NoConvergence: Eigenvalues did not converge"] * len(FAST_SCALES)

    @pytest.mark.parametrize("shots", [0, 1000])
    def test_points_outside_validity_recorded_alone(self, shots):
        # the two largest scales leave the square-root completion's validity region
        sc = scenario_threelevel(scales=FAST_SCALES + (3.0, 30.0))
        report = run_sweep(sc, shots=shots)
        assert not report.passed
        # reference for the failed points: the grid evaluated one point at a time
        direction = np.asarray(sc.sweep.direction, dtype=float)
        errors = {}
        for t, scale in enumerate(sc.sweep.scales):
            try:
                spectral.output_spectrum_with_gradients(sc.channel, sc.input_state, scale * direction)
            except LowNoiseError as exc:
                errors[t] = f"{type(exc).__name__}: {exc}"
        assert sorted(errors) == [len(FAST_SCALES), len(FAST_SCALES) + 1]
        # reference for the others: a sweep over the valid scales alone
        valid = run_sweep(scenario_threelevel(scales=FAST_SCALES), shots=shots)
        assert report.shift_labels == valid.shift_labels
        for t, (point, scale) in enumerate(zip(report.points, sc.sweep.scales)):
            if t in errors:
                assert point == {"scale": scale, "error": errors[t]}
            else:
                assert json.dumps(point, sort_keys=True) == json.dumps(valid.points[t], sort_keys=True)

    @pytest.mark.parametrize("bad", [None, 2])
    def test_failed_stacked_solve_falls_back_point_by_point(self, monkeypatch, bad):
        # eigh fails on every real stack of several matrices (the grid's Fisher inverses),
        # and on any stack holding point bad's quantum Fisher matrix
        sc = scenario_threelevel(scales=FAST_SCALES)
        want = run_sweep(sc, shots=1000)
        target = None if bad is None else np.asarray(want.points[bad]["quantum_fisher"])
        eigh = np.linalg.eigh

        def failing(m, *args, **kwargs):
            m = np.asarray(m)
            if m.dtype == float and m.ndim == 3 and (len(m) > 1 or np.array_equal(m[0], target)):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        report = run_sweep(sc, shots=1000)
        assert report.passed == (bad is None)
        for t, (point, good) in enumerate(zip(report.points, want.points)):
            if t == bad:
                assert point == {"scale": good["scale"], "error": "NoConvergence: Eigenvalues did not converge"}
            else:
                assert json.dumps(point, sort_keys=True) == json.dumps(good, sort_keys=True)

    def test_singular_quantum_fisher_recorded_at_its_point(self, monkeypatch):
        sc = scenario_threelevel(scales=FAST_SCALES)
        want = run_sweep(sc)
        bad = 3
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        quantum = fisher.quantum_fisher

        def singular_at_bad(probs, basis, drho):
            fm = quantum(probs, basis, drho)
            rows = np.all(np.atleast_2d(probs) == np.asarray(want.points[bad]["probs"]), axis=-1)
            entries = fm.entries.copy()
            entries[rows.reshape(entries.shape[:-2])] = singular
            return fisher.FisherMatrix(entries=entries)

        monkeypatch.setattr(fisher, "quantum_fisher", singular_at_bad)
        report = run_sweep(sc)
        with pytest.raises(SingularFisher) as exc:
            fisher.fisher_inverse(fisher.FisherMatrix(entries=singular))
        assert not report.passed
        for t, (point, good) in enumerate(zip(report.points, want.points)):
            if t == bad:
                assert point == {"scale": good["scale"], "error": f"SingularFisher: {exc.value}"}
            else:
                assert json.dumps(point, sort_keys=True) == json.dumps(good, sort_keys=True)

    def test_too_few_records_to_fit_still_make_a_report(self, monkeypatch):
        # the spectrum fails at 3.0, so four spectra classify the shifts; the stacked
        # inverse fails, and point 0's one-row quantum Fisher matrix is zero, which
        # leaves three records, one fewer than a fit takes
        sc = scenario_threelevel(scales=(1e-5, 1e-4, 1e-3, 1e-2, 3.0))
        first = spectral.output_shift_curves(sc.channel, sc.input_state, sc.sweep.direction, [1e-5]).probs
        inverse, quantum = fisher.fisher_inverse, fisher.quantum_fisher

        def stacked_fails(fm):
            if np.ndim(fm.entries) == 3 and len(fm.entries) > 1:
                raise SingularFisher("stacked inverse fails")
            return inverse(fm)

        def zero_at_first(probs, basis, drho):
            fm = quantum(probs, basis, drho)
            if np.array_equal(probs, first):
                return fisher.FisherMatrix(entries=np.zeros_like(fm.entries))
            return fm

        monkeypatch.setattr(fisher, "fisher_inverse", stacked_fails)
        monkeypatch.setattr(fisher, "quantum_fisher", zero_at_first)
        report = run_sweep(sc)
        assert not report.passed
        errors = [p["error"] for p in report.points]
        assert errors[0].startswith("SingularFisher") and errors[4].startswith("TPCPViolation")
        assert errors[1:4] == [None] * 3
        assert report.fits == []
        checks = {c["name"]: c for c in report.checks}
        for name in sc.expected_orders:
            assert not checks[name]["passed"] and checks[name]["detail"] == "missing fit"
        assert not checks["attainment"]["passed"]
        assert parse_jsonl(render_jsonl(report, with_meta=False)) == report.records()
        assert parse_csv(render_csv(report, with_meta=False)) == report.records()

    def test_partly_pseudo_grid_records_every_point(self, monkeypatch):
        # point 0's divergent matrix is made singular, so only that row takes the pseudo-inverse
        sc = scenario_threelevel(scales=FAST_SCALES)
        want = run_sweep(sc, shots=1000)
        divergent = fisher.divergent_fisher

        def singular_first_row(*args):
            fm = divergent(*args)
            entries = fm.entries.copy()
            entries[0] = np.full((2, 2), entries[0, 0, 0])
            return fisher.FisherMatrix(entries=entries)

        monkeypatch.setattr(fisher, "divergent_fisher", singular_first_row)
        report = run_sweep(sc, shots=1000)
        assert [p["error"] for p in report.points] == [None] * len(FAST_SCALES)
        assert [p["pseudo"] for p in report.points] == [True] + [False] * (len(FAST_SCALES) - 1)
        assert report.points[0]["divergent_inverse"] is None and report.points[0]["gap_vs_divergent"] is None
        for point, good in zip(report.points[1:], want.points[1:]):
            assert json.dumps(point, sort_keys=True) == json.dumps(good, sort_keys=True)
        fits = {f["name"] for f in report.fits}
        assert "mse_vs_divergent_inverse" not in fits and "unbiasedness" in fits
        checks = {c["name"]: c for c in report.checks}
        assert checks["cr_direction"]["expected_failure"] and not checks["attainment"]["passed"]
        assert parse_jsonl(render_jsonl(report, with_meta=False)) == report.records()

    @pytest.mark.parametrize("shots", [2.5, "3", True, -1])
    def test_shots_that_are_not_a_count_are_rejected_before_any_point(self, monkeypatch, shots):
        def unreachable(*args, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(spectral, "output_shift_curves", unreachable)
        with pytest.raises(ConfigInvalid, match="shots must be an integer >= 0"):
            run_sweep(scenario_ancilla_bell(), shots=shots)

    def test_numpy_shot_count_gives_the_python_count_report(self):
        sc = scenario_ancilla_bell(scales=FAST_SCALES)
        want = render_jsonl(run_sweep(sc, shots=1000), with_meta=False)
        assert render_jsonl(run_sweep(sc, shots=np.int64(1000)), with_meta=False) == want

    def test_monte_carlo_points(self):
        report = run_sweep(scenario_ancilla_bell(scales=FAST_SCALES), shots=2000)
        for p in report.points:
            assert p["mc"]["shots"] == 2000
            assert p["mc"]["within_4se_of_analytic"] in (True, False)


@pytest.fixture(scope="module")
def record_keys():
    """The keys of a full point record of a sweep with Monte Carlo shots."""
    return set(run_sweep(scenario_threelevel(scales=FAST_SCALES), shots=1000).points[0])


@st.composite
def random_scenarios(draw):
    """A random channel with N = 2-8, D = 1..N+1 and 1 or 2 jumps per parameter, so K > N-1 occurs,
    on a jump eigenstate or a random input state."""
    dim = draw(st.integers(2, 8))
    num_params = draw(st.integers(1, dim + 1))
    counts = draw(st.lists(st.integers(1, 2), min_size=num_params, max_size=num_params))
    seed = draw(st.integers(0, 10_000))
    ch = random_channel(dim, num_params, counts, seed, with_hamiltonian=draw(st.booleans()))
    phi = np.linalg.eig(ch.jumps[0])[1][:, 0] if draw(st.booleans()) else random_input_state(dim, seed)
    return Scenario("random", ch, phi, SweepConfig(direction=(1.0 / num_params,) * num_params))


@settings(max_examples=25, deadline=None)
@given(random_scenarios())
def test_random_sweep_always_makes_a_whole_report(record_keys, sc):
    report = run_sweep(sc, shots=1000)
    assert len(report.points) == len(sc.sweep.scales)
    for point in report.points:
        assert set(point) == record_keys if point["error"] is None else set(point) == {"scale", "error"}
    if any(point["error"] for point in report.points):
        assert not report.passed
    assert parse_jsonl(render_jsonl(report, with_meta=False)) == report.records()
    assert parse_csv(render_csv(report, with_meta=False)) == report.records()


def test_explicit_damping_and_dephasing_sweeps_the_default_grid():
    # the identity term 1 - sum eps_mu S_mu / 2 is trace-preserving only to first order;
    # read as its completion, no point of the default grid leaves the channel
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    dephase = np.diag([1.0, -1.0]).astype(complex)
    cfg = {
        "dim": 2,
        "num_params": 2,
        "builder": "explicit",
        "jump_operators": [{"param": mu + 1, "matrix": matrix_to_json(m)} for mu, m in enumerate((lower, dephase))],
        "identity_terms": [
            {"weight": [1.0, 0.0], "linear": [matrix_to_json(m.conj().T @ m / 2) for m in (lower, dephase)]}
        ],
    }
    phi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    report = run_sweep(Scenario("explicit", channel_from_config(cfg), phi, SweepConfig(direction=(0.5, 0.5))))
    assert [p["error"] for p in report.points] == [None] * len(DEFAULT_SCALES)


class TestDeterminism:
    def test_jsonl_byte_identical(self):
        sc = scenario_ancilla_bell(scales=FAST_SCALES)
        a = render_jsonl(run_sweep(sc, shots=500), with_meta=False)
        b = render_jsonl(run_sweep(sc, shots=500), with_meta=False)
        assert a == b

    def test_meta_record_isolated(self, bell_report):
        text = render_jsonl(bell_report)
        first = json.loads(text.splitlines()[0])
        assert first["kind"] == "meta" and "timestamp" in first
        rest = "\n".join(text.splitlines()[1:])
        assert "timestamp" not in rest


class TestRoundTrip:
    def test_jsonl_exact(self, bell_report):
        text = render_jsonl(bell_report, with_meta=False)
        records = parse_jsonl(text)
        assert records == bell_report.records()

    def test_csv_exact(self, bell_report):
        text = render_csv(bell_report, with_meta=False)
        records = parse_csv(text)
        assert records == bell_report.records()

    def test_csv_header_contract(self, bell_report):
        text = render_csv(bell_report)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_fit_rows_match_in_memory(self, bell_report):
        records = parse_jsonl(render_jsonl(bell_report, with_meta=False))
        fit_rows = [r for r in records if r["kind"] == "fit"]
        for row, fit in zip(fit_rows, bell_report.fits):
            assert row["slope"] == fit["slope"]
            assert row["residual"] == fit["residual"]


class TestEmission:
    def test_emit_and_read_back(self, tmp_path, bell_report):
        path = tmp_path / "report.jsonl"
        emit_report(bell_report, "jsonl", str(path))
        records = parse_jsonl(path.read_text())
        assert records[0]["kind"] == "meta"
        assert records[1:] == bell_report.records()
        path_csv = tmp_path / "report.csv"
        emit_report(bell_report, "csv", str(path_csv))
        assert parse_csv(path_csv.read_text())[1:] == bell_report.records()

    @pytest.mark.parametrize("bad", ["not json", "[1, 2]"], ids=["not-json", "not-an-object"])
    def test_jsonl_line_that_is_not_a_record_is_an_io_failure(self, bell_report, bad):
        lines = render_jsonl(bell_report, with_meta=False).splitlines()
        lines.insert(2, bad)
        with pytest.raises(IOFailure, match="report line 3 is not"):
            parse_jsonl("\n".join(lines))

    @pytest.mark.parametrize("column", ["record", "payload"])
    def test_csv_without_its_columns_is_an_io_failure(self, bell_report, column):
        text = render_csv(bell_report, with_meta=False).replace(column, "other", 1)
        with pytest.raises(IOFailure, match="record and payload columns"):
            parse_csv(text)

    def test_unknown_format(self, tmp_path, bell_report):
        with pytest.raises(IOFailure):
            emit_report(bell_report, "xml", str(tmp_path / "x"))

    def test_unwritable_path(self, bell_report):
        with pytest.raises(IOFailure):
            emit_report(bell_report, "jsonl", "/nonexistent-dir/report.jsonl")

"""Tests of the benchmark itself: metric names, exact trace counts, failure counting.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def cli(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_what_the_run_emits():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.layer_metrics()
    assert NAMES == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"] and SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    human = "\n".join(lines[:-1])
    assert "fail_ratio" in human if not trace else "spans written" in human
    if not trace and workload != "verify":
        assert "points_per_s" in human
    if not trace and workload == "monte-carlo":
        assert "shots_per_s" in human


@pytest.mark.parametrize("workload", ["sweep-builtin", "monte-carlo"])
def test_throughput_counts_only_the_timed_rounds(workload):
    # --seconds 0 times one round after a one-round warm-up.
    result = bench.run(workload, 3, 0, False, "tiny")
    report, wall_s = result["report"], result["metrics"]["wall_s"]["value"]
    assert report["rounds"] == 1 and result["attempted"] == 2 * len(workloads.BUILTINS)
    points = 8 * len(workloads.BUILTINS)
    assert report["points_per_s"] * wall_s == pytest.approx(points)
    shots = points * workloads.SIZES["tiny"].mc_shots if workload == "monte-carlo" else 0
    assert report["shots_per_s"] * wall_s == pytest.approx(shots)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    runs = [bench.run(workload, 3, 0, True, "tiny", tmp_path) for _ in range(2)]
    counts = [
        {k: m["value"] for k, m in r["metrics"].items()
         if k.endswith((".calls", ".raised", ".per_point", ".setup_calls")) or k.startswith("numpy.")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["channels.LowNoiseChannel.apply.calls"] > 0
    assert counts[0]["numpy.eigh.calls"] > 0
    assert (tmp_path / f"spans-{workload}-seed3.npz").is_file()


def test_wrappers_reach_every_namespace_and_come_off():
    ln = bench.fresh_import()
    originals = (ln.sweep.fit_or_floor, list(ln.verify.ALL_CHECKS), np.linalg.eigh, ln.LowNoiseChannel.apply)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for holder in (ln.sweep, ln.spectral, ln.verify):
            assert holder.fit_or_floor is ln.linalg.fit_or_floor
        assert ln.sweep.fit_or_floor is not originals[0]
        assert ln.verify.run_sweep is ln.sweep.run_sweep is ln.run_sweep
        assert ln.verify.ALL_CHECKS[5] is ln.verify.check_property_suite
        assert np.linalg.eigh is not originals[2]
        tracer.on = True
        ln.verify.run_all(num_seeds=1, shots=10**4)
        tracer.on = False
        totals = tracing.aggregate(tracer, 0, 0)
        for name in tracing.SPAN_NAMES:
            if name.startswith("verify."):
                assert totals[f"{name}.calls"] == 1, name
        assert totals["linalg.fit_or_floor.calls"] > 0
    finally:
        uninstall()
    assert (ln.sweep.fit_or_floor, list(ln.verify.ALL_CHECKS), np.linalg.eigh, ln.LowNoiseChannel.apply) == originals


def _failing(op):
    base = workloads.WORKLOADS["sweep-builtin"]
    return workloads.Workload(name=base.name, build=base.build, op=op, check=base.check)


def _raises(ln, sc, size):
    raise RuntimeError("stubbed failure")


def _point_error(ln, sc, size):
    report = ln.run_sweep(sc)
    report.points[0] = {"scale": report.points[0]["scale"], "error": "Stubbed: failed point"}
    return report


def _not_passed(ln, sc, size):
    report = ln.run_sweep(sc)
    report.passed = False
    return report


def _outside_4se(ln, sc, size):
    report = ln.run_sweep(sc, shots=10**7)
    report.points[-1]["mc"]["within_4se_of_analytic"] = False
    return report


@pytest.mark.parametrize("op", [_raises, _point_error, _not_passed, _outside_4se])
def test_stubbed_failing_op_raises_fail_ratio(op, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "sweep-builtin", _failing(op))
    result = bench.run("sweep-builtin", 3, 0, False, "tiny")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["report"]["fail_ratio"] == 1.0


def test_failing_check_result_fails_a_verify_op():
    ln = bench.fresh_import()
    bad = ln.CheckResult(name="stub", passed=False, detail="stubbed", seconds=0.0)
    assert workloads.WORKLOADS["verify"].check(ln, [bad]).failures == ["stub: stubbed"]


def test_changed_digest_fails_the_op():
    tally = bench.Tally()
    wl = workloads.WORKLOADS["sweep-builtin"]
    ln = bench.fresh_import()
    sc = ln.build_scenario("pauli2", seed=3)
    report = ln.run_sweep(sc)
    assert bench.check(ln, wl, report, tally) == []
    report.points[0]["cr_margin"] += 1.0
    assert "differs from an earlier run" in bench.check(ln, wl, report, tally)[0]


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = cli("sweep-builtin", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The benchmark's workloads: the inputs of one round, one op, and when an op has failed.

Every workload is a closed loop with one client in one process: the next
op starts when the previous one has returned.  A round runs one op per
input; the same seed gives the same rounds.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

BUILTINS = ("three-level", "pauli2", "ancilla-bell")


@dataclass(frozen=True)
class Size:
    mc_shots: int  # Monte Carlo shots per sweep point
    verify_seeds: int  # property-suite seeds of verify.run_all
    verify_shots: int  # shots of verify's Monte Carlo check


# "full" is what users run: the sizes of ``lownoise verify`` and a
# sampling-bound Monte Carlo sweep.  "tiny" is for the benchmark's tests.
SIZES = {
    "full": Size(mc_shots=10**8, verify_seeds=100, verify_shots=10**6),
    "tiny": Size(mc_shots=10**7, verify_seeds=3, verify_shots=10**4),
}


@dataclass
class Outcome:
    """What the benchmark learned from one op's output."""

    failures: list[str] = field(default_factory=list)
    points: int = 0  # sweep points completed
    shots: int = 0  # Monte Carlo shots completed
    digest_key: tuple | None = None  # (scenario, seed) the digest belongs to
    digest: str | None = None  # SHA-256 of render_jsonl(report, with_meta=False)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (lownoise, seed) -> inputs of one round
    op: Callable  # (lownoise, input, Size) -> output; the timed part
    check: Callable  # (lownoise, output) -> Outcome; untimed


def report_outcome(ln, report) -> Outcome:
    """Failure rules for a sweep report.

    A point carrying an ``error`` fails the op, and so does a report with
    ``passed == False``; the designed pauli2 XFAIL rows already count as
    passing inside ``passed``.  A Monte Carlo point outside four standard
    errors of the analytic MSE fails it too.
    """
    out = Outcome(points=len(report.points))
    name = report.scenario_name
    for p in report.points:
        if p.get("error") is not None:
            out.failures.append(f"{name} point at scale {p['scale']:g}: {p['error']}")
        mc = p.get("mc")
        if mc is not None:
            out.shots += mc["shots"]
            if not mc["within_4se_of_analytic"]:
                out.failures.append(f"{name} point at scale {p['scale']:g}: Monte Carlo MSE outside 4 SE")
    if not report.passed:
        failed = [c["name"] for c in report.checks if not (c["passed"] or c["expected_failure"])]
        out.failures.append(f"{name}: report failed (checks {failed})")
    text = ln.render_jsonl(report, with_meta=False)
    out.digest_key = (name, report.seed)
    out.digest = hashlib.sha256(text.encode()).hexdigest()
    return out


def _builtins(ln, seed: int) -> list:
    return [ln.build_scenario(name, seed=seed) for name in BUILTINS]


def _sweep_op(ln, sc, size: Size):
    report = ln.run_sweep(sc)
    ln.render_jsonl(report)
    ln.render_csv(report)
    return report


def _monte_carlo_op(ln, sc, size: Size):
    return ln.run_sweep(sc, shots=size.mc_shots)


def _verify_build(ln, seed: int) -> list:
    # run_all takes its seeds from inside the library; the workload seed
    # does not reach it.  Set-up builds the three built-ins its checks use.
    for name in BUILTINS:
        ln.build_scenario(name)
    return [None]


def _verify_op(ln, _unused, size: Size):
    return ln.verify.run_all(num_seeds=size.verify_seeds, shots=size.verify_shots)


def _verify_outcome(ln, results) -> Outcome:
    return Outcome(failures=[f"{r.name}: {r.detail}" for r in results if not r.passed])


# Why each workload (BENCHMARK.json carries the same reasons):
# - sweep-builtin is ``lownoise run`` on each built-in, the path users run
#   most.  It is bound by per-point overhead across the channel, spectral,
#   fisher and estimator layers, and it is the only workload that renders.
# - verify is ``lownoise verify``.  Its property suite builds ~120 random
#   channels and is bound by channel evaluation.
# - monte-carlo samples 1e8 shots per point, so sampling dominates: a
#   sampling change shows here, a channel or derivative change barely does.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="sweep-builtin", build=_builtins, op=_sweep_op, check=report_outcome),
        Workload(name="verify", build=_verify_build, op=_verify_op, check=_verify_outcome),
        Workload(name="monte-carlo", build=_builtins, op=_monte_carlo_op, check=report_outcome),
    )
}

"""lownoise benchmark: one workload, one process, one command.

    python3 perfbench/run.py --workload sweep-builtin --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; lownoise is imported from ``src/``.  The
untraced run (``--trace 0``) reports the end-to-end metrics of
BENCHMARK.json.  The traced run (``--trace 1``) alternates untraced rounds
with rounds that record spans around lownoise's public functions (see
``tracing.py``), and reports the per-layer metrics; spans are written to
``perfbench/out/``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

# The untraced run times a set-up between rounds about this often.  Set-ups
# spread over the run see the same machine as its rounds do; a burst of
# them at the start sees a single moment of it.
SETUP_EVERY_S = 1.0
# Untimed rounds first, so that lazy set-up and a core's first seconds of
# load stay out of the figures; ops in them still count as attempted.
WARMUP_S = 2.0

END_TO_END = [
    ("setup_s", "s"),  # import lownoise + build the workload's scenarios, median over the run
    ("wall_s", "s"),  # median wall time of one round, the workload's fixed unit of work
    ("op_p50_ms", "ms"),  # median latency of one op
    ("op_p90_ms", "ms"),  # 90th percentile latency of one op
    ("peak_rss_mb", "MB"),  # ru_maxrss of the benchmark's own process
]


class SetupError(RuntimeError):
    """lownoise cannot be imported from this checkout."""


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def fresh_import():
    """Import lownoise from this checkout's ``src/``, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "lownoise" or k.startswith("lownoise.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if not (src / "lownoise" / "__init__.py").is_file():
        raise SetupError(f"no lownoise package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    ln = importlib.import_module("lownoise")
    if Path(ln.__file__).resolve().parent != (src / "lownoise").resolve():
        raise SetupError(f"lownoise imported from {ln.__file__}, not from {src}")
    return ln


def setup(workload, seed: int):
    """Time ``import lownoise`` plus building the workload's inputs.

    numpy is already loaded, so its import is not counted.  The first
    import writes lownoise's bytecode cache, whatever the environment says,
    so the later ones load bytecode as an installed package does; compiling
    from source would double the time and its spread.  Garbage from the
    previous import is collected before the clock starts.
    """
    sys.dont_write_bytecode = False
    gc.collect()
    start = time.perf_counter()
    ln = fresh_import()
    inputs = workload.build(ln, seed)
    return time.perf_counter() - start, ln, inputs


@dataclass
class Tally:
    op_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    points: int = 0
    shots: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def measure(ln, workload, size, inputs, seconds: float, tally: Tally, tracer=None) -> None:
    """Closed loop of whole rounds until ``seconds`` have passed (at least one round).

    Only the op is timed; the failure checks run after the clock stops,
    with the tracer off.
    """
    deadline = time.perf_counter() + seconds
    while True:
        round_s = 0.0
        for item in inputs:
            tally.attempted += 1
            if tracer is not None:
                tracer.op = tally.attempted
                tracer.on = True
            start = time.perf_counter()
            try:
                output = workload.op(ln, item, size)
                error = None
            except Exception:  # an op that raises is a failed op; the run goes on
                error = traceback.format_exc(limit=4)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.on = False
            tally.op_s.append(elapsed)
            round_s += elapsed
            failures = [error] if error else check(ln, workload, output, tally)
            if failures:
                tally.failed += 1
                tally.failures += failures
        tally.round_s.append(round_s)
        if time.perf_counter() >= deadline:
            return


def check(ln, workload, output, tally: Tally) -> list[str]:
    try:
        outcome = workload.check(ln, output)
    except Exception:  # a malformed output fails the op
        return [traceback.format_exc(limit=4)]
    tally.points += outcome.points
    tally.shots += outcome.shots
    failures = list(outcome.failures)
    if outcome.digest_key is not None:
        first = tally.digests.setdefault(outcome.digest_key, outcome.digest)
        if first != outcome.digest:
            failures.append(f"{outcome.digest_key}: report differs from an earlier run with the same seed")
    return failures


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full", out_dir: Path | None = None) -> dict:
    """One benchmark run; returns the result object plus a ``report`` of human-readable extras."""
    workload = WORKLOADS[workload_name]
    sz = SIZES[size]
    _, ln, inputs = setup(workload, seed)  # may compile lownoise, so it is not counted
    tally = Tally()
    extras: dict = {"env": environment(), "workload": workload_name, "seed": seed, "size": size}
    measure(ln, workload, sz, inputs, min(WARMUP_S, seconds), tally)
    if not trace:
        first_op, first_round = len(tally.op_s), len(tally.round_s)
        warm_points, warm_shots = tally.points, tally.shots  # the warm-up's, not timed
        setups = []
        deadline = time.perf_counter() + seconds
        while True:
            measure(ln, workload, sz, inputs, min(SETUP_EVERY_S, deadline - time.perf_counter()), tally)
            # The ops keep the first import, whose code the interpreter has warmed.
            setups.append(setup(workload, seed)[0])
            if time.perf_counter() >= deadline:
                break
        ops = tally.op_s[first_op:]
        rounds = tally.round_s[first_round:]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(rounds),
            "op_p50_ms": 1e3 * statistics.median(ops),
            "op_p90_ms": 1e3 * p90(ops),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = dict(END_TO_END)
        busy = sum(ops)
        extras.update(
            ops=len(ops),
            rounds=len(rounds),
            setups=len(setups),
            beyond_p90=sum(1 for t in ops if 1e3 * t > metrics["op_p90_ms"]),
            points_per_s=(tally.points - warm_points) / busy,
            shots_per_s=(tally.shots - warm_shots) / busy,
        )
    else:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            tracer.on = True  # op id 0 is one traced set-up build
            workload.build(ln, seed)
        finally:
            tracer.on = False
            uninstall()
        # Untraced and traced rounds alternate, so that the machine's drift
        # falls on both sides of the overhead alike.
        untraced_rounds, traced_rounds = [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not traced_rounds:
            measure(ln, workload, sz, inputs, 0.0, tally)
            untraced_rounds.append(tally.round_s[-1])
            uninstall = tracing.install(tracer)
            try:
                measure(ln, workload, sz, inputs, 0.0, tally, tracer)
            finally:
                uninstall()
            traced_rounds.append(tally.round_s[-1])
        metrics = tracing.per_layer(
            tracing.aggregate(tracer, 1, tally.attempted),  # only traced ops have spans
            len(traced_rounds),
            tracing.aggregate(tracer, 0, 0),
            (statistics.median(traced_rounds), statistics.median(untraced_rounds)),
            ROOT,
        )
        units = dict(tracing.layer_metrics())
        out_dir = out_dir or HERE / "out"
        spans_path = out_dir / f"spans-{workload_name}-seed{seed}.npz"
        tracer.write(spans_path)
        extras.update(spans=os.path.relpath(spans_path, ROOT), span_count=len(tracer), traced_rounds=len(traced_rounds))
    extras.update(
        fail_ratio=tally.failed / tally.attempted,
        failures=tally.failures[:5],
        digests={f"{k[0]} seed {k[1]}": v for k, v in sorted(tally.digests.items())},
    )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "report": extras,
    }


def print_human(result: dict) -> None:
    r = result["report"]
    env = r["env"]
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} blas_threads={env['blas_threads']}")
    print(f"workload {r['workload']} seed {r['seed']} size {r['size']}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed, fail_ratio {r['fail_ratio']:g}")
    metrics = result["metrics"]
    if "setup_s" in metrics:
        notes = {
            "setup_s": f"median of {r['setups']} set-ups between rounds",
            "wall_s": f"median of {r['rounds']} rounds",
            "op_p50_ms": f"n={r['ops']}",
            "op_p90_ms": f"n={r['ops']}, {r['beyond_p90']} beyond",
        }
        for name, m in metrics.items():
            print(f"  {name:<14} {m['value']:<12.6g} {m['unit']:<9} {notes.get(name, '')}")
        if r["workload"] != "verify":
            print(f"  {'points_per_s':<14} {r['points_per_s']:<12.6g} points/s")
        if r["workload"] == "monte-carlo":
            print(f"  {'shots_per_s':<14} {r['shots_per_s']:<12.6g} shots/s")
        print(f"  {'fail_ratio':<14} {r['fail_ratio']:<12.6g} ratio     {result['failed']}/{result['attempted']}")
    else:
        print(f"  traced rounds {r['traced_rounds']}, {r['span_count']} spans written to {r['spans']}")
        busiest = sorted((k for k in metrics if k.endswith(".self_s")), key=lambda k: -metrics[k]["value"])
        for name in busiest[:8] + [k for k in metrics if not k.endswith((".self_s", ".calls", ".raised"))]:
            print(f"  {name:<52} {metrics[name]['value']:<12.6g} {metrics[name]['unit']}")
    for key, digest in r["digests"].items():
        print(f"  digest {key}: sha256 {digest}")
    for failure in r["failures"]:
        print(f"  FAILED: {failure.strip().splitlines()[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full", help="tiny is for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_human(result)
    result.pop("report")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

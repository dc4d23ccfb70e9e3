"""Repeat the benchmark over seeds and summarise it: median, quartiles, spread.

    python3 perfbench/repeat.py --out perfbench/baseline.json

For each workload of BENCHMARK.json this runs ``run.py --trace 0`` for
its ``run_seconds`` once per seed 1..10, one run at a time, and reports
each end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median) against a third of the
metric's bound.  It then makes two runs with ``--trace 1`` on seed 1 and
checks that their
counts (``*.calls``, ``*.raised``, ``*.per_point``, ``numpy.*``,
``sweep.points`` and ``src.lines``) repeat exactly.  ``report.bytes`` is
left out: the meta record's timestamp varies in length.  The first traced
run's per-layer metrics and every traced run's overhead go into the
summary.  It exits 1 if a run fails an op, a spread is wider than a
third of its bound, or a traced count does not repeat.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

RUNS = 10  # seeds per workload, as the benchmark's steadiness rule asks
TRACED_RUNS = 2
EXACT_SUFFIXES = (".calls", ".raised", ".per_point", ".setup_calls")
EXACT_NAMES = ("sweep.points", "src.lines")


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact_counts(metrics: dict) -> dict:
    return {
        k: m["value"]
        for k, m in metrics.items()
        if k.endswith(EXACT_SUFFIXES) or k.startswith("numpy.") or k in EXACT_NAMES
    }


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"env": bench.environment(), "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        results = [one_run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {
            "seeds": list(range(1, RUNS + 1)),
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "all_correct": all(r["correct"] for r in results),
            "metrics": {},
        }
        print(f"{workload}: {attempted} ops, {failed} failed, all correct {entry['all_correct']}")
        ok = ok and entry["all_correct"]
        for name, m in e2e.items():
            s = summarise([r["metrics"][name]["value"] for r in results], m["bound"])
            entry["metrics"][name] = {"unit": m["unit"], **s}
            ok = ok and s["steady"]
            print(f"  {name:<12} median {s['median']:<11.5g} {m['unit']:<3} IQR/median {s['iqr_share']:.4f} "
                  f"(bound {m['bound']}, third {m['bound'] / 3:.4f}){'' if s['steady'] else '  NOT STEADY'}")
        traced = [one_run(workload, 1, seconds, 1) for _ in range(TRACED_RUNS)]
        counts = [exact_counts(t["metrics"]) for t in traced]
        repeat = all(c == counts[0] for c in counts)
        ok = ok and repeat and all(t["correct"] for t in traced)
        overhead = [t["metrics"]["trace.overhead_s"]["value"] for t in traced]
        untraced = [t["metrics"]["trace.untraced_wall_s"]["value"] for t in traced]
        entry["traced"] = {
            "runs": TRACED_RUNS,
            "seed": 1,
            "counts_repeat_exactly": repeat,
            "overhead_s": overhead,
            "overhead_share": [o / u for o, u in zip(overhead, untraced)],
            "per_layer": {k: m["value"] for k, m in traced[0]["metrics"].items()},
        }
        print(f"  traced x{TRACED_RUNS}: counts repeat exactly {repeat}; overhead "
              + ", ".join(f"{o:.4f} s ({o / u:+.1%})" for o, u in zip(overhead, untraced)))
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

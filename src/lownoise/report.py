"""Report container and machine-readable emission (JSON lines / CSV).

Reports are deterministic given (scenario, seed): the wall-clock
timestamp lives in a separate metadata record so byte comparisons can
exclude it.  Floats are serialized with repr round-trip fidelity in JSON
and 17 significant digits in CSV, so parsing a report reproduces every
numeric field exactly.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field

from .errors import IOFailure

CSV_COLUMNS = [
    "record",  # meta | point | fit | check | summary
    "scale",
    "name",
    "value",
    "slope",
    "residual",
    "passed",
    "expected_failure",
    "payload",  # JSON blob with the full record
]


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Report:
    scenario_name: str
    direction: list[float]
    scales: list[float]
    seed: int
    config_hash: str
    shift_labels: list[str]
    points: list[dict]
    fits: list[dict]
    checks: list[dict]
    passed: bool
    version: str = "0.1.0"
    meta: dict = field(default_factory=dict)

    def records(self) -> list[dict]:
        """Deterministic records, excluding the timestamped meta record."""
        head = {
            "kind": "header",
            "scenario": self.scenario_name,
            "direction": self.direction,
            "scales": self.scales,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "version": self.version,
            "shift_labels": self.shift_labels,
        }
        out = [head]
        out += [{"kind": "point", **p} for p in self.points]
        out += [{"kind": "fit", **f} for f in self.fits]
        out += [{"kind": "check", **c} for c in self.checks]
        out.append({"kind": "summary", "passed": self.passed})
        return out


def render_jsonl(report: Report, with_meta: bool = True) -> str:
    lines = []
    if with_meta:
        meta = {"kind": "meta", "timestamp": report.meta.get("timestamp", time.time())}
        lines.append(json.dumps(meta, sort_keys=True))
    for rec in report.records():
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


def render_csv(report: Report, with_meta: bool = True) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    if with_meta:
        writer.writerow(
            ["meta", "", "", "", "", "", "", "", json.dumps({"timestamp": report.meta.get("timestamp", time.time())})]
        )
    for rec in report.records():
        kind = rec["kind"]
        payload = json.dumps({k: v for k, v in rec.items() if k != "kind"}, sort_keys=True)
        row = {c: "" for c in CSV_COLUMNS}
        row["record"] = kind
        row["payload"] = payload
        if kind == "point":
            row["scale"] = _fmt(rec.get("scale"))
        elif kind == "fit":
            row["name"] = rec.get("name", "")
            row["slope"] = _fmt(rec.get("slope"))
            row["residual"] = _fmt(rec.get("residual"))
        elif kind == "check":
            row["name"] = rec.get("name", "")
            row["passed"] = _fmt(rec.get("passed"))
            row["expected_failure"] = _fmt(rec.get("expected_failure"))
        elif kind == "summary":
            row["passed"] = _fmt(rec.get("passed"))
        writer.writerow([row[c] for c in CSV_COLUMNS])
    return buf.getvalue()


def emit_report(report: Report, fmt: str, path: str) -> str:
    """Write the report; returns the path.  fmt is "jsonl" or "csv"."""
    if fmt == "jsonl":
        text = render_jsonl(report)
    elif fmt == "csv":
        text = render_csv(report)
    else:
        raise IOFailure(f"unknown report format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailure(f"cannot write report to {path}: {exc}") from exc
    return path


def _record(text, line: int) -> dict:
    """One JSON object of a report; IOFailure naming its line otherwise."""
    try:
        rec = json.loads(text)
    except (TypeError, json.JSONDecodeError) as exc:
        raise IOFailure(f"report line {line} is not JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise IOFailure(f"report line {line} is not a JSON object")
    return rec


def parse_jsonl(text: str) -> list[dict]:
    """The records of a JSONL report; IOFailure on a line that is not a JSON object."""
    return [_record(line, n) for n, line in enumerate(text.splitlines(), 1) if line.strip()]


def parse_csv(text: str) -> list[dict]:
    """The records of a CSV report; IOFailure without its record and payload columns or on a bad payload."""
    reader = csv.DictReader(io.StringIO(text))
    if not {"record", "payload"} <= set(reader.fieldnames or ()):
        raise IOFailure(f"CSV report needs record and payload columns, got {reader.fieldnames}")
    return [{"kind": row["record"], **_record(row["payload"], reader.line_num)} for row in reader]

"""Spans around lownoise's public functions, installed from outside the library.

The traced run wraps every function in ``TRACED`` on every namespace that
holds it (``from .linalg import fit_or_floor`` copies the name into
``sweep`` and ``verify``; ``verify.ALL_CHECKS`` lists the check functions),
or on the class for ``LowNoiseChannel`` methods, plus ``numpy.linalg.eigh``
and ``numpy.linalg.eigvalsh``.  A wrapper on only one namespace would miss
calls silently.  Spans live in memory; per-layer metrics are derived from
them at the end of the run.  The untraced run never installs the
wrappers, so it runs lownoise unmodified.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) of every wrapped lownoise function.  Methods are
# written Class.method and wrapped on the class.
TRACED = [
    ("channels", "LowNoiseChannel.__init__"),
    ("channels", "LowNoiseChannel.apply"),
    ("channels", "LowNoiseChannel.tpcp_residual"),
    ("channels", "LowNoiseChannel.finite_difference_derivative"),
    ("channels", "LowNoiseChannel.derivative_at_zero"),
    ("curves", "eigencurve_derivatives"),
    ("spectral", "output_spectrum_with_gradients"),
    ("spectral", "output_shift_curves"),
    ("spectral", "deviation_matrix"),
    ("spectral", "jump_covariance"),
    ("spectral", "classify_shift_curves"),
    ("fisher", "quantum_fisher"),
    ("fisher", "classical_fisher"),
    ("fisher", "divergent_fisher"),
    ("fisher", "fisher_inverse"),
    ("fisher", "nondegeneracy_det"),
    ("fisher", "pure_input_dominance"),
    ("estimator", "build_score_operators"),
    ("estimator", "raise_index"),
    ("estimator", "build_povm"),
    ("estimator", "analytic_mse"),
    ("estimator", "unbiasedness_residual"),
    ("estimator", "cr_direction_margin"),
    ("estimator", "sample_measurements"),
    ("sweep", "run_sweep"),
    ("linalg", "fit_or_floor"),
    ("report", "render_jsonl"),
    ("report", "render_csv"),
    ("verify", "check_ancilla_bell"),
    ("verify", "check_pauli"),
    ("verify", "check_threelevel"),
    ("verify", "check_attainment"),
    ("verify", "check_negative_control"),
    ("verify", "check_property_suite"),
    ("verify", "check_monte_carlo"),
]
NUMPY_TRACED = ("eigh", "eigvalsh")

# Functions that raise library errors themselves (or, for raise_index,
# through fisher_inverse's SingularFisher) get a .raised count.
RAISING = {
    "channels.LowNoiseChannel.__init__",
    "channels.LowNoiseChannel.apply",
    "channels.LowNoiseChannel.tpcp_residual",
    "channels.LowNoiseChannel.finite_difference_derivative",
    "spectral.deviation_matrix",
    "fisher.classical_fisher",
    "fisher.divergent_fisher",
    "fisher.fisher_inverse",
    "estimator.build_score_operators",
    "estimator.raise_index",
    "estimator.build_povm",
    "estimator.sample_measurements",
    "sweep.run_sweep",
}

SPAN_NAMES = [f"{mod}.{attr}" for mod, attr in TRACED]
INIT = "channels.LowNoiseChannel.__init__"


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit)."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name in RAISING:
            out.append((f"{name}.raised", "count"))
    out += [
        (f"{INIT}.setup_calls", "count"),
        (f"{INIT}.setup_self_s", "s"),
        ("numpy.eigh.calls", "count"),
        ("numpy.eigvalsh.calls", "count"),
        ("numpy.eigensolves.per_point", "calls/point"),
        ("channels.apply.per_point", "calls/point"),
        ("estimator.build_povm.per_point", "calls/point"),
        ("sweep.points", "count"),
        ("report.bytes", "bytes"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("src.lines", "lines"),
    ]
    return out


# Counts taken from a function's result at its boundary.
RESULT_COUNTS = {
    "sweep.run_sweep": ("sweep.points", lambda report: len(report.points)),
    "report.render_jsonl": ("report.bytes", lambda text: len(text.encode())),
    "report.render_csv": ("report.bytes", lambda text: len(text.encode())),
}


class Tracer:
    """In-memory span recorder.

    Span i has a name, start and end times, the index of its parent span
    (-1 at the top), the id of the op it belongs to, and whether it raised.
    Spans are kept column-wise in typed arrays, because verify makes
    hundreds of thousands of them.  Wrappers record only while ``on`` is
    set, so the benchmark's own correctness checks, which call the same
    library functions, stay out of the trace.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.raised = array("b")
        self.counts: dict[tuple[int, str], int] = {}
        self.op = 0
        self.on = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self.names:  # the same name keeps its id across installs
            self.names.append(name)
        nid = self.names.index(name)
        stack = self._stack
        counter = RESULT_COUNTS.get(name)
        name_id, start, end, parent, op_id, raised = (
            self.name_id, self.start, self.end, self.parent, self.op_id, self.raised
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            raised.append(0)
            end.append(0.0)
            stack.append(index)
            start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[index] = 1
                raise
            finally:
                end[index] = time.perf_counter()
                stack.pop()
            if counter is not None:
                key = (self.op, counter[0])
                self.counts[key] = self.counts.get(key, 0) + counter[1](result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.name_id)

    def write(self, path: Path) -> None:
        """All spans as one .npz of columns: names, name_id, start, end, parent, op, raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_id, dtype=np.int64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
        )


def _lownoise_namespaces() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == "lownoise" or k.startswith("lownoise.")]


def install(tracer: Tracer):
    """Wrap every traced function everywhere lownoise holds it; returns an undo callable."""
    undo = []

    def put(holder, key, value):
        if isinstance(holder, list):
            old = holder[key]
            holder[key] = value
            undo.append(lambda: holder.__setitem__(key, old))
        else:
            old = holder.__dict__[key]
            setattr(holder, key, value)
            undo.append(lambda: setattr(holder, key, old))

    namespaces = _lownoise_namespaces()
    for mod, attr in TRACED:
        module = sys.modules[f"lownoise.{mod}"]
        name = f"{mod}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            put(cls, meth, tracer.wrap(name, cls.__dict__[meth]))
            continue
        orig = getattr(module, attr)
        wrapped = tracer.wrap(name, orig)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    put(ns, key, wrapped)
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if item is orig:
                            put(value, i, wrapped)
    for fn in NUMPY_TRACED:
        put(np.linalg, fn, tracer.wrap(f"numpy.{fn}", getattr(np.linalg, fn)))

    def uninstall():
        for step in reversed(undo):
            step()

    return uninstall


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    duration = end - start
    nested = parent >= 0
    child = np.zeros_like(duration)
    np.add.at(child, parent[nested], duration[nested])
    return duration - child


def aggregate(tracer: Tracer, first_op: int, last_op: int) -> dict[str, float]:
    """Totals of calls, self time, raised and boundary counts over ops first_op..last_op."""
    start = np.frombuffer(tracer.start)
    end = np.frombuffer(tracer.end)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    op = np.frombuffer(tracer.op_id, dtype=np.int64)
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    raised = np.frombuffer(tracer.raised, dtype=np.int8)
    keep = (op >= first_op) & (op <= last_op)
    own = self_times(start, end, parent)[keep]
    ids = name_id[keep]
    n = len(tracer.names)
    calls = np.bincount(ids, minlength=n)
    self_s = np.bincount(ids, weights=own, minlength=n)
    raises = np.bincount(ids, weights=raised[keep], minlength=n)
    totals: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        totals[f"{name}.calls"] = int(calls[i])
        totals[f"{name}.self_s"] = float(self_s[i])
        totals[f"{name}.raised"] = int(raises[i])
    for (op_index, key), value in tracer.counts.items():
        if first_op <= op_index <= last_op:
            totals[key] = totals.get(key, 0) + value
    return totals


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "lownoise").glob("*.py")))


def per_layer(round_totals: dict, rounds: int, setup_totals: dict, walls: tuple[float, float], root: Path) -> dict:
    """Per-layer metrics: per-round averages over the traced rounds, plus set-up and overhead."""
    get = lambda key: round_totals.get(key, 0) / rounds
    points = get("sweep.points")
    per_point = lambda value: value / points if points else 0.0
    values = {name: get(name) for name, _ in layer_metrics()}
    values[f"{INIT}.setup_calls"] = setup_totals.get(f"{INIT}.calls", 0)
    values[f"{INIT}.setup_self_s"] = setup_totals.get(f"{INIT}.self_s", 0.0)
    values["numpy.eigensolves.per_point"] = per_point(get("numpy.eigh.calls") + get("numpy.eigvalsh.calls"))
    values["channels.apply.per_point"] = per_point(get("channels.LowNoiseChannel.apply.calls"))
    values["estimator.build_povm.per_point"] = per_point(get("estimator.build_povm.calls"))
    traced, untraced = walls
    values["trace.wall_s"] = traced
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    values["src.lines"] = src_lines(root)
    return values

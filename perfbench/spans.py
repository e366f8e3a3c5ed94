"""Spans at the package's public-function boundaries, recorded from outside.

Each traced function is replaced by a wrapper where its caller looks it up
(the calling module's global, or the class attribute for a method), so the
package itself is not edited. A span is (name, start, end, parent); all
spans of one benchmark run share its run id. Spans are kept in flat integer
arrays and written out once, at the end of the run. A few boundaries also
record counts taken from their arguments or results (skip reasons, RK4
seed-steps, frontier bins filled, bytes written).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import traceback
from array import array
from collections import Counter

import numpy as np

from check import physicality, skip_class

# (owner inside the package, attribute, span name). The owner is the module
# (or class) through which the caller looks the function up.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "frontier_suite", "frontier.frontier_suite"),
    ("cli", "sweep", "frontier.sweep"),
    ("frontier", "sweep", "frontier.sweep"),
    ("frontier", "frontier", "frontier.frontier"),
    ("frontier", "squeeze_metrics", "core.squeeze_metrics"),
    ("cli", "squeeze_metrics", "core.squeeze_metrics"),
    ("beamsplitter", "bs_evaluate", "beamsplitter.evaluate"),
    ("opo", "opo_evaluate", "opo.evaluate"),
    ("opo", "amplitude_cutoff_index", "opo.cutoff"),
    ("optomech", "om_evaluate", "optomech.evaluate"),
    ("opa", "propagate_batch", "opa.propagate"),
    ("opa.OpaTrajectory", "point", "opa.point"),
    ("cli", "sweep_csv", "cli.serialize"),
    ("cli", "sweep_json", "cli.serialize"),
    ("cli", "frontier_csv", "cli.serialize"),
    ("cli", "frontier_json", "cli.serialize"),
    ("cli", "_write", "cli.serialize"),
    ("cli", "frontier_svg", "svg.render"),
)

# The thresholds of perfbench/figures.conf, one bins-filled count each.
THRESHOLDS = (1.001, 1.01, 1.1, 2.0, 10.0)

# method name prefix -> layer, for counts taken from sweep results
LAYER_OF_METHOD = {"bs": "beamsplitter", "opo": "opo", "opa": "opa", "om": "optomech"}


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.sweeps: list[dict] = []
        self.frontiers: list[tuple[float, int, int]] = []
        self.seed_steps = 0
        self.bytes_out = 0
        self.hook_errors: list[str] = []

    def wrap(self, name: str, fn, hook=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter_ns
        names, parents, starts, ends = (
            self.name.append, self.parent.append, self.start.append, self.end.append
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = self.current
            names(nid)
            parents(parent)
            ends(0)
            self.current = idx
            starts(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.current = parent
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except Exception:  # a diagnostic must not fail the run
                    self.hook_errors.append(traceback.format_exc(limit=2))
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }


def _on_sweep(tracer: Tracer, args, kwargs, records) -> None:
    grid = args[0] if args else kwargs["grid"]
    stats = [r.point.stats for r in records if r.point is not None]
    tracer.sweeps.append({
        "method": grid.method.value,
        "skips": Counter(skip_class(r.skip_reason) for r in records),
        **physicality(
            np.fromiter((s.var_x for s in stats), float, len(stats)),
            np.fromiter((s.var_p for s in stats), float, len(stats)),
        ),
    })


def _on_propagate(tracer: Tracer, args, kwargs, trajectories) -> None:
    tracer.seed_steps += sum(len(t.times) - 1 for t in trajectories)


def _on_frontier(tracer: Tracer, args, kwargs, curve) -> None:
    points = args[0] if args else kwargs["points"]
    tracer.frontiers.append((curve.threshold, len(points), len(curve.points)))


def _on_write(tracer: Tracer, args, kwargs, _result) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.bytes_out += len(text.encode())


HOOKS = {
    ("cli", "sweep"): _on_sweep,
    ("frontier", "sweep"): _on_sweep,
    ("opa", "propagate_batch"): _on_propagate,
    ("frontier", "frontier"): _on_frontier,
    ("cli", "_write"): _on_write,
}


def _owner(path: str):
    module, _, cls = path.partition(".")
    try:
        owner = importlib.import_module(f"sqzlab.{module}")
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


def missing_targets() -> list[str]:
    """Traced boundaries that this version of the package does not have."""
    return [
        f"{path}.{attr}" for path, attr, _ in TARGETS
        if not hasattr(_owner(path) or object(), attr)
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target present in the package; restore them on exit."""
    saved = []
    try:
        for path, attr, name in TARGETS:
            owner = _owner(path)
            if owner is None or not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, HOOKS.get((path, attr))))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, extra_physicality: dict | None = None) -> dict[str, float]:
    """Per-layer numbers of one traced pass, derived from its spans."""
    a = tracer.arrays()
    names = a["name"]
    dur = (a["end_ns"] - a["start_ns"]).astype(float) / 1e9
    child = np.zeros(len(dur))
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_time = dur - child

    def mask(name: str) -> np.ndarray:
        if name not in tracer.names:
            return np.zeros(len(names), dtype=bool)
        return names == tracer.names.index(name)

    def busy(name: str) -> float:
        return float(dur[mask(name)].sum())

    def calls(name: str) -> int:
        return int(mask(name).sum())

    def p50_us(name: str) -> float:
        d = dur[mask(name)]
        return float(np.median(d) * 1e6) if d.size else 0.0

    skips: dict[str, Counter] = {layer: Counter() for layer in LAYER_OF_METHOD.values()}
    phys: dict[str, list[dict]] = {layer: [] for layer in LAYER_OF_METHOD.values()}
    for s in tracer.sweeps:
        layer = LAYER_OF_METHOD[s["method"].split("_")[0]]
        skips[layer] += s["skips"]
        phys[layer].append(s)
    for layer, diag in (extra_physicality or {}).items():
        phys[layer].append(diag)
    ok_points = sum(s["skips"]["ok"] for s in tracer.sweeps)
    steps = tracer.seed_steps

    m = {
        "opa.propagate_s": busy("opa.propagate"),
        "opa.rk4_seed_steps": steps,
        "opa.tau_used_ratio": calls("opa.point") / steps if steps else 0.0,
        "opo.evaluate_calls": calls("opo.evaluate"),
        "opo.evaluate_s": busy("opo.evaluate"),
        "opo.cutoff_calls": calls("opo.cutoff"),
        "opo.cutoff_s": busy("opo.cutoff"),
        "opo.cutoff_skipped": skips["opo"]["cutoff"],
        "beamsplitter.evaluate_calls": calls("beamsplitter.evaluate"),
        "beamsplitter.evaluate_s": busy("beamsplitter.evaluate"),
        "optomech.evaluate_calls": calls("optomech.evaluate"),
        "optomech.evaluate_s": busy("optomech.evaluate"),
        "optomech.domain_skipped": skips["optomech"]["domain"],
        "frontier.sweep_s": busy("frontier.sweep"),
        "frontier.sweep_self_s": float(self_time[mask("frontier.sweep")].sum()),
        "frontier.reduce_s": busy("frontier.frontier"),
        "frontier.reduce_points_in": sum(n for _, n, _ in tracer.frontiers),
        **{
            f"frontier.bins_filled.U{thr:g}": sum(f for t, _, f in tracer.frontiers if t == thr)
            for thr in THRESHOLDS
        },
        "core.squeeze_metrics_calls_per_point": (
            calls("core.squeeze_metrics") / ok_points if ok_points else 0.0
        ),
        "cli.serialize_s": busy("cli.serialize"),
        "cli.bytes_out": tracer.bytes_out,
        "svg.render_s": busy("svg.render"),
        "beamsplitter.call_us_p50": p50_us("beamsplitter.evaluate"),
        "opo.call_us_p50": p50_us("opo.evaluate"),
        "optomech.call_us_p50": p50_us("optomech.evaluate"),
    }
    for layer, diags in phys.items():
        m[f"{layer}.below_floor"] = sum(d["below_floor"] for d in diags)
        if layer in ("opo", "optomech"):
            mins = [d["min_uncertainty"] for d in diags if d["ok_points"]]
            m[f"{layer}.min_uncertainty"] = min(mins) if mins else 0.0
    m["trace.spans"] = len(names)
    return m

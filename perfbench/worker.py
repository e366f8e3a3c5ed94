"""The measured process of one benchmark run: one closed-loop caller.

Started by run.py with SQZLAB_THREADS=1 and single-threaded numpy, it
imports sqzlab from the checkout's src/, runs passes of the workload until
its time is up and writes what it measured to a JSON file. The host's
speed is sampled all the while (speed.py), and every pass has its time in
reference seconds next to its wall time. With --trace 1 it alternates
untraced and traced passes, so that the tracing overhead is the difference
of their mean times. Outputs are hashed after every pass (the
rerun byte-identity check) and the last pass's outputs are left on disk for
run.py to check against the references.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spans
from check import points_physicality
from speed import SpeedSampler
from workloads import (
    OUT_DIR, WORKLOADS, call_args, import_package, point_calls, point_inputs,
)

WARMUP_CALLS = 20_000
HIST_NS = 1_000_000  # scalar calls slower than 1 ms share the last bin


class CliPass:
    """One pass of `figures` or `export`: the workload's CLI invocations."""

    def __init__(self, workload, sqzlab) -> None:
        self.workload = workload
        self.sqzlab = sqzlab
        self.files = [Path(argv[argv.index("--out") + 1]) for argv in workload.argv]

    def run(self) -> tuple[list[int], int]:
        latencies, failed = [], 0
        for argv in self.workload.argv:
            t0 = time.perf_counter_ns()
            try:
                rc = self.sqzlab.cli.main(list(argv))
            except Exception as exc:  # a crash is a failed call, not a dead run
                print(f"error: sqzlab {' '.join(argv)}: {exc!r}", file=sys.stderr)
                rc = -1
            latencies.append(time.perf_counter_ns() - t0)
            failed += rc != 0
        return latencies, failed

    def digest(self) -> str:
        h = hashlib.sha256()
        for pattern in self.files:
            for path in sorted(pattern.parent.glob(pattern.name + "*")):
                h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


class PointsPass:
    """One pass of `points`: every drawn record as one scalar call."""

    def __init__(self, seed: int, sqzlab) -> None:
        self.sqzlab = sqzlab
        self.kind, params = point_inputs(seed)
        calls = point_calls(sqzlab)
        self.records = [
            (k, call_args(p, calls[k][2], calls[k][3]))
            for k, p in zip(self.kind.tolist(), params.tolist())
        ]
        self.results: list[tuple[float, float, float]] = []
        self.first: np.ndarray | None = None
        self.identity_mismatches = 0
        self.run(limit=WARMUP_CALLS)

    def run(self, limit: int | None = None) -> tuple[list[int], int]:
        # looked up on every pass, so that a traced pass calls the wrappers
        calls = [(fn, cls) for fn, cls, _, _ in point_calls(self.sqzlab)]
        clock = time.perf_counter_ns
        latencies, results, failed = [], [], 0
        for k, args in self.records[:limit]:
            fn, cls = calls[k]
            t0 = clock()
            try:
                pt = fn(cls(*args))
            except Exception as exc:  # includes DomainError: none is expected
                latencies.append(clock() - t0)
                results.append((np.nan, np.nan, np.nan))
                failed += 1
                print(f"error: {fn.__name__}{tuple(args)}: {exc!r}", file=sys.stderr)
                continue
            latencies.append(clock() - t0)
            results.append((pt.alpha_sq, pt.stats.var_x, pt.stats.var_p))
        self.results = results
        return latencies, failed

    @property
    def out(self) -> np.ndarray:
        return np.array(self.results)

    def digest(self) -> str:
        out = self.out
        if self.first is None:
            self.first = out
        else:
            self.identity_mismatches += int((self.first != out).any(axis=1).sum())
        return hashlib.sha256(out.tobytes()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sqzlab = import_package()
    workload = WORKLOADS[args.workload]
    if workload.name == "points":
        runner = PointsPass(args.seed, sqzlab)
    else:
        runner = CliPass(workload, sqzlab)

    # At least two passes, so that reruns can be compared byte for byte;
    # with tracing they alternate untraced, traced, untraced, ...
    passes, tracers = [], []
    latencies = CallLatencies(pooled=workload.name == "points")
    begin = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer = spans.Tracer(f"{workload.name}-seed{args.seed}") if traced else None
            mark = sampler.mark()
            t0 = time.perf_counter()
            if tracer is not None:
                with spans.installed(tracer):
                    lat, failed = runner.run()
                tracers.append(tracer)
            else:
                lat, failed = runner.run()
            wall = time.perf_counter() - t0
            ref, factor = sampler.reference_time(wall, mark)
            passes.append({
                "traced": traced, "wall_s": wall, "ref_s": ref, "factor": factor,
                "calls": len(lat), "failed": failed, "digest": runner.digest(),
            })
            if not traced:
                latencies.add(lat, factor, ref)
            if len(passes) >= 2 and time.perf_counter() - begin + wall > args.seconds:
                break

    result = {
        "workload": workload.name,
        "passes": passes,
        "call_us": latencies.percentiles_us(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if workload.name == "points":
        np.save(Path(OUT_DIR) / "points_outputs.npy", runner.out)
        result["identity_mismatches"] = runner.identity_mismatches
    if tracers:
        result["trace"] = trace_summary(tracers, runner, workload.name)
    Path(args.result).write_text(json.dumps(result))
    return 0


class CallLatencies:
    """Per-call latencies of the untraced passes, in reference time.

    `points` pools every scalar call of the run, scaled by its pass's speed
    factor, in a fixed histogram of 1 ns bins (memory stays flat however
    many passes run); its p50 and p99 are exact, with about 2,000 calls per
    pass beyond p99. The few calls a speed sample interrupts (about 40 a
    pass) keep the sample's time. For `figures` and `export` one call is one
    whole pass, so that the two unequal sweeps of
    `export` do not make the median bimodal; with a few such calls the
    percentiles are Harrell-Davis estimates, which move smoothly where the
    sample quantile of a few values jumps from one to the next.
    """

    def __init__(self, pooled: bool) -> None:
        self.hist = np.zeros(HIST_NS + 1, dtype=np.int64) if pooled else None
        self.passes_us: list[float] = []

    def add(self, lat_ns: list[int], factor: float, pass_ref_s: float) -> None:
        if self.hist is not None:
            ref_ns = np.rint(np.asarray(lat_ns) * factor).astype(np.int64)
            self.hist += np.bincount(np.minimum(ref_ns, HIST_NS), minlength=HIST_NS + 1)
        else:
            self.passes_us.append(pass_ref_s * 1e6)

    def percentiles_us(self) -> dict[str, float]:
        if self.hist is not None:
            cum = np.cumsum(self.hist)
            rank = {q: np.searchsorted(cum, q / 100 * cum[-1]) for q in (50, 99)}
            return {f"p{q}": float(r) / 1e3 for q, r in rank.items()}
        return {f"p{q}": harrell_davis(self.passes_us, q / 100) for q in (50, 99)}


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis p-quantile: the order statistics weighted by the mass
    the Beta(p(n+1), (1-p)(n+1)) distribution puts on each ((i-1)/n, i/n]."""
    x = np.sort(values)
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    edges = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return float(np.diff(edges) @ x)


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) by its power series, taken on
    the side of the mean where the series converges fast."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    term = total = 1.0
    k = 0
    while term > 1e-17 * total:
        term *= (a + b + k) / (a + 1.0 + k) * x
        total += term
        k += 1
    log_front = (
        a * math.log(x) + b * math.log1p(-x) - math.log(a)
        - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b)
    )
    return math.exp(log_front) * total


def trace_summary(tracers, runner, name: str) -> dict:
    """Per-layer metrics of the last traced pass, span dump of all of them."""
    extra = points_physicality(runner.kind, runner.out) if name == "points" else None
    columns = [t.arrays() for t in tracers]
    np.savez(
        Path(OUT_DIR).parent / f"trace_{name}.npz",
        run_id=tracers[0].run_id,
        names=np.array(tracers[0].names),
        traced_pass=np.concatenate([np.full(len(c["name"]), i) for i, c in enumerate(columns)]),
        **{col: np.concatenate([c[col] for c in columns]) for col in columns[0]},
    )
    return {
        "metrics": spans.layer_metrics(tracers[-1], extra),
        "hook_errors": tracers[-1].hook_errors,
        "missing_targets": spans.missing_targets(),
    }


if __name__ == "__main__":
    sys.exit(main())

"""sqzlab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {figures,export,points} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. The program is the sqzlab package in
src/; nothing is installed or built. A run

1. times the package's set-up: 7 fresh interpreters (after one warm-up)
   importing sqzlab.cli, median (trace 0 only);
2. starts worker.py, one fresh single-threaded process with
   SQZLAB_THREADS=1 pinned, which runs passes of the workload for S seconds
   as one closed-loop caller (see workloads.py for why each workload
   exists and which layer it bypasses) while it samples the host's speed
   (speed.py);
3. checks the last pass's outputs against perfbench/reference/ with
   numeric tolerances (check.py) and that every pass produced
   byte-identical output;
4. prints the environment, the physicality diagnostics, every metric by
   name with its unit, and last the JSON line
   {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the worker alternates untraced and traced passes and the metrics
are the per-layer ones (spans.py), plus the tracing overhead. Spans are
written to .perfbench/trace_<workload>.npz.

The timings of the workload are in reference seconds: wall time scaled to
a fixed host speed, because the speed of a shared host can move by 2.3x
within a run (speed.py). ref_wall_s is the mean untraced pass time,
ref_points_per_s the grid points (or calls) of one pass over it,
ref_call_us_p50/p99 the per-call latency (see worker.CallLatencies). The
measured wall_s and points_per_s are printed beside them. setup_s is the
median set-up time, as measured, and peak_rss_mb the worker's peak
resident memory. The per-layer times are those of the last traced pass,
scaled by its speed factor.

`failed_frac` (failed / attempted) is printed but is not a JSON metric, as
it is 0 when all is well; the result line carries its two counts. An
operation is one CLI invocation (figures, export) or one scalar call
(points); it fails on an exception, a nonzero exit, a reference mismatch
or output that differs from the other passes of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
from workloads import ANCHOR_COUNT, OUT_DIR, ROOT, WORKLOADS, point_inputs

BENCH = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 7

ENV = {
    "SQZLAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(ENV)
    return env


def setup_seconds() -> float:
    """Median time from interpreter start to `import sqzlab.cli` done."""
    code = (
        "import sys; sys.path.insert(0, 'src'); import sqzlab.cli; "
        "sys.stdout.write('ready\\n'); sys.stdout.flush()"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            ready = proc.stdout.readline() == "ready\n"
            t1 = time.perf_counter()
            proc.wait(timeout=30)
        if not ready or proc.returncode != 0:
            raise RuntimeError("importing sqzlab.cli failed")
        if i:  # the first start also writes the bytecode caches
            times.append(t1 - t0)
    return statistics.median(times)


def environment() -> dict[str, object]:
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "SQZLAB_THREADS": ENV["SQZLAB_THREADS"],
        "commit": commit,
        "src.lines": src_lines,
    }


def run_worker(args, deadline: float) -> dict:
    result_path = ROOT / ".perfbench" / f"worker_{args.workload}.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--result", str(result_path),
    ]
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env()) as proc:
        try:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("the workload did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


# ----------------------------------------------------------- correctness


def check_outputs(name: str, seed: int) -> tuple[list[str], dict[str, int], dict]:
    """Reference errors, wrong `points` outputs by kind, physicality per layer."""
    out = ROOT / OUT_DIR
    ref = check.load_reference(name)
    errors: list[str] = []
    wrong = {"calls": 0, "anchors": 0}
    phys: dict = {}
    if name == "points":
        kind, params = point_inputs(seed)
        got = np.load(out / "points_outputs.npy")
        wrong["calls"] = int(check.point_mismatches(kind, got, check.reference_points(kind, params)).sum())
        wrong["anchors"] = check.bad_anchors(ref)
        errors += [f"{n} {what} differ from the reference" for what, n in wrong.items() if n]
        return errors, wrong, check.points_physicality(kind, got)
    for fname, want in ref.items():
        path = out / name / fname
        if not path.exists():
            errors.append(f"{fname}: missing")
        elif name == "figures":
            got = check.svg_curves(path.read_text())
            errors += [f"{fname}: {e}" for e in check.compare_svg(got, want)]
        else:
            read = check.read_csv_table if fname.endswith(".csv") else check.read_json_table
            table = read(path)
            got = check.table_summary(table)
            errors += [f"{fname}: {e}" for e in check.compare_table(got, want)]
            ok = np.array([c == "ok" for c in table["classes"]], dtype=bool)
            layer = "opo" if table["method"].startswith("opo") else "optomech"
            num = table["numeric"]
            phys[layer] = check.physicality(num["var_x"][ok], num["var_p"][ok])
    return errors, wrong, phys


def count_failures(name: str, worker: dict, errors: list[str], wrong: dict) -> tuple[int, int]:
    """(attempted, failed) operations over every pass of the run."""
    passes = worker["passes"]
    attempted = sum(p["calls"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if name == "points":
        # the anchor records are evaluated once more, after the passes
        attempted += ANCHOR_COUNT
        failed += worker["identity_mismatches"] + wrong["calls"] * len(passes) + wrong["anchors"]
        return attempted, min(failed, attempted)
    # a pass is wrong when its output is not that of the checked last pass,
    # or when the last pass failed its reference check
    last = passes[-1]["digest"]
    for p in passes:
        if p["failed"] == 0 and (p["digest"] != last or errors):
            failed += p["calls"]
    return attempted, failed


# --------------------------------------------------------------- metrics


def mean_pass(worker: dict, traced: bool, key: str = "ref_s") -> float:
    """Mean pass time, in reference seconds or (key="wall_s") as measured.
    A figures pass lasts seconds, so the mean, which weighs every pass by
    its time, is steadier from run to run than the median of a few."""
    return statistics.fmean(p[key] for p in worker["passes"] if p["traced"] == traced)


def end_to_end(name: str, worker: dict, setup_s: float) -> dict[str, float]:
    wall = mean_pass(worker, traced=False)
    return {
        "ref_wall_s": wall,
        "ref_points_per_s": WORKLOADS[name].points_per_pass / wall,
        "ref_call_us_p50": worker["call_us"]["p50"],
        "ref_call_us_p99": worker["call_us"]["p99"],
        "setup_s": setup_s,
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def per_layer(worker: dict, units: dict[str, str]) -> dict[str, float]:
    factor = [p for p in worker["passes"] if p["traced"]][-1]["factor"]
    metrics = {
        k: v * factor if units.get(k) in ("s", "us") else v
        for k, v in worker["trace"]["metrics"].items()
    }
    metrics["trace.overhead_s"] = mean_pass(worker, traced=True) - mean_pass(worker, traced=False)
    return metrics


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "sqzlab" / "cli.py").is_file():
        print(f"error: no sqzlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / OUT_DIR
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        setup_s = setup_seconds() if args.trace == 0 else None
        worker = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors, wrong, phys = check_outputs(args.workload, args.seed)
    attempted, failed = count_failures(args.workload, worker, errors, wrong)

    w = WORKLOADS[args.workload]
    passes = worker["passes"]
    print(f"# workload {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {w.why}")
    print(f"# bypasses: {w.bypasses}")
    print("# env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(
        f"# passes={len(passes)} (traced {sum(p['traced'] for p in passes)}) "
        f"byte-identical={len({p['digest'] for p in passes}) == 1}"
    )
    wall = mean_pass(worker, traced=False, key="wall_s")
    factors = [p["factor"] for p in passes]
    print(
        f"# measured wall_s = {wall:.6g} s, points_per_s = "
        f"{w.points_per_pass / wall:.6g} 1/s; host speed factor "
        f"{min(factors):.3f} to {max(factors):.3f} (reference / sampled)"
    )
    for layer, diag in phys.items():
        print("# physicality " + layer + " " + " ".join(f"{k}={v}" for k, v in diag.items()))
    for e in errors:
        print(f"# check failed: {e}")
    print(f"# reference check: {'ok' if not errors else 'FAILED'}")
    if args.trace:
        units = declared("per_layer")
        metrics = per_layer(worker, units)
        for msg in worker["trace"]["hook_errors"]:
            print(f"# trace hook failed: {msg!r}")
        for target in worker["trace"]["missing_targets"]:
            print(f"# trace target missing: {target}")
    else:
        metrics, units = end_to_end(args.workload, worker, setup_s), declared("end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} are not as declared")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for k, unit in units.items():
        print(f"{k} = {metrics[k]:.6g} {unit}")
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

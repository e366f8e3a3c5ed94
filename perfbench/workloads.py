"""The benchmark's fixed workloads and the inputs each one feeds the program.

Each workload is one closed-loop caller in one fresh Python process. The
`why` and `bypasses` lines say which layer a workload is meant to exercise
and which one it is meant to leave alone, so that an optimisation of one
layer has a workload that shows the gain and one that should not move.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench/out"
# records whose outputs at the reference commit are kept in reference/points.json
ANCHOR_SEED, ANCHOR_COUNT = 20231114, 100


def import_package():
    """The sqzlab package of this checkout's src/, never an installed one."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sqzlab.cli  # noqa: F401  (loads every module the workloads use)

    if src.resolve() not in Path(sqzlab.cli.__file__).resolve().parents:
        raise SystemExit(f"sqzlab was imported from {sqzlab.cli.__file__}, not {src}")
    return sys.modules["sqzlab"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bypasses: str
    # one pass is these `sqzlab` invocations, each one closed-loop call
    argv: tuple[tuple[str, ...], ...] = ()
    # grid points evaluated by one pass (calls, for `points`)
    points_per_pass: int = 0


FIGURES = Workload(
    name="figures",
    why=(
        "the four-figure `sqzlab frontier --config` run users make to reproduce "
        "the paper; it holds the OPA RK4 loop and the frontier reduction"
    ),
    bypasses="nothing: every layer but oracle runs; serialization is ~0.1% of it",
    argv=(
        (
            "frontier", "--config", "perfbench/figures.conf",
            "--out", f"{OUT_DIR}/figures/frontier",
        ),
    ),
    # bs 121*400 + opo_phase 190*480 + opa_phase 40*240 + om_amplitude 160*160
    points_per_pass=48_400 + 91_200 + 9_600 + 25_600,
)

EXPORT = Workload(
    name="export",
    why=(
        "full default-grid `sqzlab sweep` exports: serialization, the OPO "
        "amplitude-cutoff post-pass and the om domain-skip path"
    ),
    bypasses="the OPA integrator and the frontier reduction",
    argv=(
        (
            "sweep", "--method", "opo_amplitude", "--format", "csv",
            "--out", f"{OUT_DIR}/export/opo_amplitude.csv",
        ),
        (
            "sweep", "--method", "om_phase", "--format", "json",
            "--out", f"{OUT_DIR}/export/om_phase.json",
        ),
    ),
    points_per_pass=91_200 + 25_600,
)

POINTS = Workload(
    name="points",
    why=(
        "scalar evaluator calls from a user's script, one at a time: the "
        "per-call cost of parameter validation and record building"
    ),
    bypasses="the CLI, sweeps, frontier, serialization and the OPA (1 s per call)",
    points_per_pass=200_000,
)

WORKLOADS = {w.name: w for w in (FIGURES, EXPORT, POINTS)}

# The kinds of scalar call in `points`, in equal shares so that the latency
# mix does not depend on the seed. Each is (module, evaluator, parameter
# class, numeric arguments, enum class in sqzlab.core or None, enum value).
POINT_KINDS = (
    ("beamsplitter", "bs_evaluate", "BsParams", 2, None, None),
    ("opo", "opo_evaluate", "OpoParams", 2, "Regime", "phase"),
    ("opo", "opo_evaluate", "OpoParams", 2, "Regime", "amplitude"),
    ("optomech", "om_evaluate", "OmParams", 3, "SqueezedAxis", "amplitude"),
    ("optomech", "om_evaluate", "OmParams", 3, "SqueezedAxis", "phase"),
)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)


def point_inputs(seed: int, n: int = POINTS.points_per_pass) -> tuple[np.ndarray, np.ndarray]:
    """Parameter records for `points`, drawn from the documented domains.

    Returns (kind, params): kind[i] indexes POINT_KINDS and params[i] holds
    the numeric arguments of the parameter class in declaration order
    (unused trailing columns are 0). The domains are those of the default
    grids: bs b in [0, 12], theta in [1e-4, pi/2]; opo c0 in [0.05, 0.995],
    seed_ratio in [1e-6, 10]; om cc in [1e-3, 100], dd in [0.005, 1] with
    cc*dd <= 1 and n_bar in [0, 1]. No drawn record raises.
    """
    rng = np.random.default_rng(seed)
    per = n // len(POINT_KINDS)
    kind = np.repeat(np.arange(len(POINT_KINDS)), per)
    params = np.zeros((len(kind), 3))
    for k, (module, *_rest) in enumerate(POINT_KINDS):
        rows = params[k * per:(k + 1) * per]
        if module == "beamsplitter":
            rows[:, 0] = rng.uniform(0.0, 12.0, per)
            rows[:, 1] = _log_uniform(rng, 1e-4, math.pi / 2, per)
        elif module == "opo":
            rows[:, 0] = rng.uniform(0.05, 0.995, per)
            rows[:, 1] = _log_uniform(rng, 1e-6, 10.0, per)
        else:
            cc = _log_uniform(rng, 1e-3, 100.0, per)
            rows[:, 0] = cc
            rows[:, 1] = rng.uniform(0.005, np.minimum(1.0, 1.0 / cc))
            rows[:, 2] = rng.uniform(0.0, 1.0, per)
    order = rng.permutation(len(kind))
    return kind[order], params[order]


def point_calls(sqzlab) -> list[tuple]:
    """(evaluator, parameter class, argument count, enum) per POINT_KINDS
    entry, looked up on the package's modules at the time of the call."""
    out = []
    for module, fn, cls, nargs, enum_cls, value in POINT_KINDS:
        mod = getattr(sqzlab, module)
        enum = getattr(sqzlab.core, enum_cls)(value) if enum_cls else None
        out.append((getattr(mod, fn), getattr(mod, cls), nargs, enum))
    return out


def call_args(params: list[float], nargs: int, enum) -> list:
    return params[:nargs] if enum is None else params[:nargs] + [enum]


def evaluate(sqzlab, kind: np.ndarray, params: np.ndarray) -> np.ndarray:
    """(alpha_sq, var_x, var_p) per record, one scalar call each, untimed."""
    calls = point_calls(sqzlab)
    out = np.empty((len(kind), 3))
    for i, (k, p) in enumerate(zip(kind.tolist(), params.tolist())):
        fn, cls, nargs, enum = calls[k]
        pt = fn(cls(*call_args(p, nargs, enum)))
        out[i] = pt.alpha_sq, pt.stats.var_x, pt.stats.var_p
    return out

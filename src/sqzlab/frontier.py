"""Parameter sweeps and optimal-squeezing frontier extraction.

A sweep evaluates one method over the Cartesian product of named
parameter axes, in row-major order over the axes as declared, recording
skipped points (domain errors, cutoffs, constraint violations) with a
machine-readable reason instead of dropping them. A frontier bins the
surviving points by alpha_sq on a log grid and keeps, per bin, the best
squeeze factor among points whose overall uncertainty stays below a
threshold.

Everything here is deterministic: identical inputs produce identical
outputs, including tie-breaking (smaller uncertainty first, then smaller
alpha_sq, then input order).

A frontier ranks a sweep's ok points once, with one stable np.lexsort by
bin, then best first; each threshold keeps the rows with U within it and
each bin's first row. Logarithms are math.log10 per value: np.log10 can
differ in the last ulp and move a point across a bin edge.

Per-method facts live in one table, METHODS: the parameter names a method
accepts (also its frontier CSV parameter columns), the axes a grid must
have, its default grid axes and the runner that turns a grid into sweep
records.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from . import beamsplitter, opa, opo, optomech
from .core import (
    DomainError,
    MethodPoint,
    Regime,
    SqueezedAxis,
    squeeze_columns,
)


class ConfigError(ValueError):
    """A sweep or frontier configuration is malformed."""


class Method(enum.Enum):
    BEAM_SPLITTER = "bs"
    OPO_PHASE = "opo_phase"
    OPO_AMPLITUDE = "opo_amplitude"
    OPA_PHASE = "opa_phase"
    OPA_AMPLITUDE = "opa_amplitude"
    OM_AMPLITUDE = "om_amplitude"
    OM_PHASE = "om_phase"


class Spacing(enum.Enum):
    LINEAR = "linear"
    LOG = "log"


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int
    spacing: Spacing = Spacing.LINEAR

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ConfigError(f"axis {self.name!r} needs count >= 2")
        if not self.lo < self.hi:
            raise ConfigError(f"axis {self.name!r} needs lo < hi")
        if self.spacing is Spacing.LOG and self.lo <= 0.0:
            raise ConfigError(f"log axis {self.name!r} needs lo > 0")

    def values(self) -> np.ndarray:
        if self.spacing is Spacing.LOG:
            return np.logspace(math.log10(self.lo), math.log10(self.hi), self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepGrid:
    method: Method
    axes: tuple[Axis, ...]
    constraints: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spec = METHODS[self.method]
        allowed = spec.params
        seen = set()
        for ax in self.axes:
            if ax.name not in allowed:
                raise ConfigError(
                    f"unknown parameter {ax.name!r} for method {self.method.value};"
                    f" expected one of {allowed}"
                )
            if ax.name in seen:
                raise ConfigError(f"duplicate axis {ax.name!r}")
            seen.add(ax.name)
        missing = [name for name in spec.required if name not in seen]
        if missing:
            raise ConfigError(
                f"method {self.method.value} needs a sweep axis for"
                f" {', '.join(missing)}"
            )
        for key, value in self.constraints.items():
            if key != "seed_input_cap":
                raise ConfigError(f"unknown constraint {key!r}")
            if math.isnan(value):
                raise ConfigError("seed_input_cap must be a number, got nan")


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: axis values, the evaluated point or a skip reason."""

    values: dict[str, float]
    point: MethodPoint | None
    status: str  # "ok" or "skipped"
    skip_reason: str = ""


@dataclass(frozen=True)
class FrontierPoint:
    alpha_sq: float  # bin center
    squeeze_db: float
    uncertainty: float
    params: dict[str, object]


@dataclass(frozen=True)
class FrontierCurve:
    threshold: float
    points: tuple[FrontierPoint, ...]


@dataclass(frozen=True)
class LogBins:
    """Log-spaced alpha_sq bins over [lo, hi]."""

    lo: float = 1e-6
    hi: float = 1.0
    count: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.lo < self.hi < math.inf or self.count < 1:
            raise ConfigError("bins need 0 < lo < hi < inf and count >= 1")

    def edges(self) -> np.ndarray:
        return np.logspace(math.log10(self.lo), math.log10(self.hi), self.count + 1)

    def centers(self) -> np.ndarray:
        e = self.edges()
        return np.sqrt(e[:-1] * e[1:])

    def indices(self, alpha_sq: np.ndarray) -> np.ndarray:
        """Bin index per value, -1 where it falls outside [lo, hi]."""
        inside = (alpha_sq >= self.lo) & (alpha_sq <= self.hi)
        logs = np.fromiter(map(math.log10, alpha_sq[inside]), float, inside.sum())
        t = (logs - math.log10(self.lo)) / (math.log10(self.hi) - math.log10(self.lo))
        out = np.full(alpha_sq.shape, -1, dtype=np.intp)
        out[inside] = np.minimum((t * self.count).astype(np.intp), self.count - 1)
        return out

    def index(self, alpha_sq: float) -> int | None:
        """Bin index for a value, or None when it falls outside [lo, hi]."""
        i = int(self.indices(np.array([alpha_sq], dtype=float))[0])
        return None if i < 0 else i


def _grid_rows(axes: Sequence[Axis]) -> list[dict[str, float]]:
    rows: list[dict[str, float]] = [{}]
    for ax in axes:
        rows = [dict(r, **{ax.name: float(v)}) for r in rows for v in ax.values()]
    return rows


def _record(
    evaluate: Callable[[dict[str, float]], MethodPoint], row: dict[str, float]
) -> SweepRecord:
    try:
        point = evaluate(row)
    except DomainError as exc:
        return SweepRecord(values=row, point=None, status="skipped", skip_reason=str(exc))
    return SweepRecord(values=row, point=point, status="ok")


def _pointwise(
    evaluate: Callable[[dict[str, float]], MethodPoint],
) -> Callable[[SweepGrid], list[SweepRecord]]:
    """Runner that evaluates each grid row on its own, in grid order."""
    return lambda grid: [_record(evaluate, row) for row in _grid_rows(grid.axes)]


def _sweep_opa(regime: Regime, grid: SweepGrid) -> list[SweepRecord]:
    """One closed-form evaluation of every live seed at every requested tau."""
    axes = {ax.name: ax for ax in grid.axes}
    taus = axes["tau"].values()
    if taus[0] < 0.0:
        raise ConfigError("tau axis must be non-negative")
    cap = grid.constraints.get("seed_input_cap")
    seeds = axes["seed_ratio"].values()
    live = seeds if cap is None else seeds[seeds <= cap]
    a_s, _, cov_x, cov_p = opa.evolve(live, regime, taus)
    seed_index = {float(s): j for j, s in enumerate(live)}
    tau_index = {float(t): k for k, t in enumerate(taus)}

    def evaluate(row: dict[str, float]) -> MethodPoint:
        seed, tau = row["seed_ratio"], row["tau"]
        if seed < 0.0:
            raise DomainError(f"seed_ratio must be >= 0, got {seed!r}")
        j, k = seed_index[seed], tau_index[tau]
        return opa.output_point(
            seed, regime, tau, a_s[j, k], cov_x[j, k, 0, 0], cov_p[j, k, 0, 0]
        )

    records: list[SweepRecord] = []
    for row in _grid_rows(grid.axes):
        seed = row["seed_ratio"]
        if seed in seed_index:
            records.append(_record(evaluate, row))
        else:
            records.append(
                SweepRecord(
                    values=row,
                    point=None,
                    status="skipped",
                    skip_reason=f"seed_ratio {seed:g} exceeds seed input cap {cap:g}",
                )
            )
    return records


def _apply_opo_amplitude_cutoff(
    grid: SweepGrid, records: list[SweepRecord]
) -> list[SweepRecord]:
    """Mark points past the alpha_sq turnaround of each seed scan."""
    seed_axis = next((ax for ax in grid.axes if ax.name == "seed_ratio"), None)
    if seed_axis is None:
        return records
    groups: dict[tuple, list[int]] = {}
    for i, rec in enumerate(records):
        key = tuple(
            (k, v) for k, v in sorted(rec.values.items()) if k != "seed_ratio"
        )
        groups.setdefault(key, []).append(i)
    out = list(records)
    for idxs in groups.values():
        # points skipped already keep their reason; the cutoff runs over the rest
        live = sorted(
            (i for i in idxs if records[i].point is not None),
            key=lambda i: records[i].values["seed_ratio"],
        )
        cut = opo.amplitude_cutoff_index([records[i].point.alpha_sq for i in live])
        if cut is None:
            continue
        for i in live[cut:]:
            out[i] = SweepRecord(
                values=records[i].values,
                point=None,
                status="skipped",
                skip_reason="nonmonotonic alpha_sq vs seed_ratio (past cutoff)",
            )
    return out


def _bs_point(row: dict[str, float]) -> MethodPoint:
    return beamsplitter.bs_evaluate(
        beamsplitter.BsParams(b=row.get("b", 0.0), theta=row.get("theta", 0.0))
    )


def _opo_point(regime: Regime) -> Callable[[dict[str, float]], MethodPoint]:
    return lambda row: opo.opo_evaluate(
        opo.OpoParams(row["c0"], row.get("seed_ratio", 0.0), regime)
    )


def _om_point(axis: SqueezedAxis) -> Callable[[dict[str, float]], MethodPoint]:
    return lambda row: optomech.om_evaluate(
        optomech.OmParams(row["cc"], row["dd"], row.get("n_bar", 0.0), axis)
    )


def _opo_amplitude(grid: SweepGrid) -> list[SweepRecord]:
    records = _pointwise(_opo_point(Regime.AMPLITUDE_SQUEEZING))(grid)
    return _apply_opo_amplitude_cutoff(grid, records)


@dataclass(frozen=True)
class MethodSpec:
    """What sweeps, default grids and outputs need to know about a method."""

    params: tuple[str, ...]  # accepted axis names, also frontier CSV columns
    required: tuple[str, ...]  # axes every grid must have
    axes: tuple[Axis, ...]  # default grid
    run: Callable[[SweepGrid], list[SweepRecord]]


_BS = ("b", "theta")
_BS_AXES = (
    Axis("b", 0.0, 12.0, 121),
    Axis("theta", 1e-4, math.pi / 2, 400, Spacing.LOG),
)
_OPO = ("c0", "seed_ratio")
_OPO_AXES = (
    Axis("c0", 0.05, 0.995, 190),
    Axis("seed_ratio", 1e-6, 10.0, 480, Spacing.LOG),
)
_OPA = ("seed_ratio", "tau")
_OPA_AXES = (
    Axis("seed_ratio", 1e-3, 30.0, 40, Spacing.LOG),
    Axis("tau", 0.0, 6.0, 240),
)
_OM = ("cc", "dd", "n_bar")
_OM_AXES = (
    Axis("cc", 1e-3, 100.0, 160, Spacing.LOG),
    Axis("dd", 0.005, 1.0, 160),
)

# Runners look evaluators up on their modules at call time, never at import,
# so that a module attribute replaced at run time takes effect.
METHODS: dict[Method, MethodSpec] = {
    Method.BEAM_SPLITTER: MethodSpec(_BS, (), _BS_AXES, _pointwise(_bs_point)),
    Method.OPO_PHASE: MethodSpec(
        _OPO, ("c0",), _OPO_AXES, _pointwise(_opo_point(Regime.PHASE_SQUEEZING))
    ),
    Method.OPO_AMPLITUDE: MethodSpec(_OPO, ("c0",), _OPO_AXES, _opo_amplitude),
    Method.OPA_PHASE: MethodSpec(
        _OPA, _OPA, _OPA_AXES, functools.partial(_sweep_opa, Regime.PHASE_SQUEEZING)
    ),
    Method.OPA_AMPLITUDE: MethodSpec(
        _OPA, _OPA, _OPA_AXES,
        functools.partial(_sweep_opa, Regime.AMPLITUDE_SQUEEZING),
    ),
    Method.OM_AMPLITUDE: MethodSpec(
        _OM, ("cc", "dd"), _OM_AXES, _pointwise(_om_point(SqueezedAxis.AMPLITUDE))
    ),
    Method.OM_PHASE: MethodSpec(
        _OM, ("cc", "dd"), _OM_AXES, _pointwise(_om_point(SqueezedAxis.PHASE))
    ),
}


def sweep(grid: SweepGrid) -> list[SweepRecord]:
    """Evaluate a method over the full grid, in row-major axis order."""
    return METHODS[grid.method].run(grid)


def ok_points(records: Iterable[SweepRecord]) -> list[MethodPoint]:
    return [r.point for r in records if r.status == "ok" and r.point is not None]


class _Ranked(list):
    """The ok points of one sweep, ranked once for every threshold."""

    def __init__(self, points: Iterable[MethodPoint], bins: LogBins) -> None:
        super().__init__(points)
        self.bins = bins

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(input row, squeeze_db, U, bin) of in-range points, by bin, then best."""
        alpha_sq = np.fromiter(map(attrgetter("alpha_sq"), self), float, len(self))
        b = self.bins.indices(alpha_sq)
        rows = np.flatnonzero(b >= 0)
        stats = [self[i].stats for i in rows.tolist()]
        var_x = np.fromiter(map(attrgetter("var_x"), stats), float, len(stats))
        var_p = np.fromiter(map(attrgetter("var_p"), stats), float, len(stats))
        db, u = squeeze_columns(var_x, var_p)
        rank = np.lexsort((alpha_sq[rows], u, -db, b[rows]))  # stable: ties keep order
        return rows[rank], db[rank], u[rank], b[rows[rank]]


def frontier(
    points: Iterable[MethodPoint],
    threshold: float,
    bins: LogBins = LogBins(),
) -> FrontierCurve:
    """Best squeeze factor per alpha_sq bin under an uncertainty ceiling."""
    if not threshold >= 1.0:
        raise ConfigError(f"threshold must be >= 1, got {threshold!r}")
    reuse = isinstance(points, _Ranked) and points.bins == bins
    ranked = points if reuse else _Ranked(points, bins)
    rows, db, u, b = ranked.columns
    keep = np.flatnonzero(u <= threshold + 1e-12)
    best = keep[np.diff(b[keep], prepend=-1) != 0]  # first kept row of each bin
    centers = bins.centers().tolist()
    pts = tuple(
        FrontierPoint(centers[i], d, v, dict(ranked[r].params))
        for r, d, v, i in zip(*(col[best].tolist() for col in (rows, db, u, b)))
    )
    return FrontierCurve(threshold=threshold, points=pts)


def frontier_suite(
    method: Method,
    thresholds: Sequence[float],
    grid: SweepGrid,
    bins: LogBins = LogBins(),
) -> list[FrontierCurve]:
    """One sweep, ranked once, shared across a list of uncertainty thresholds."""
    if grid.method is not method:
        raise ConfigError("grid method does not match the requested method")
    bad = [thr for thr in thresholds if not thr >= 1.0]
    if bad:
        raise ConfigError(f"threshold must be >= 1, got {bad[0]!r}")
    ranked = _Ranked(ok_points(sweep(grid)), bins)
    return [frontier(ranked, thr, bins) for thr in thresholds]


DEFAULT_THRESHOLDS = (1.001, 1.01, 1.1, 2.0, 10.0)


def default_grid(method: Method, seed_input_cap: float | None = None) -> SweepGrid:
    """Documented default sweep grids behind the stock frontier figures."""
    constraints = {} if seed_input_cap is None else {"seed_input_cap": seed_input_cap}
    return SweepGrid(method=method, axes=METHODS[method].axes, constraints=constraints)

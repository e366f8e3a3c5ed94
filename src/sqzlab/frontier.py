"""Parameter sweeps and optimal-squeezing frontier extraction.

A sweep evaluates one method over the Cartesian product of named
parameter axes, in row-major order over the axes as declared, recording
skipped points (domain errors, cutoffs, seeds over the seed cap) with a
machine-readable reason instead of dropping them. A frontier bins the
surviving points by alpha_sq on a log grid and keeps, per bin, the best
squeeze factor among points whose overall uncertainty stays below a
threshold.

Everything here is deterministic: identical inputs produce identical
outputs, including tie-breaking (smaller uncertainty first, then smaller
alpha_sq, then input order).

A sweep's result is one SweepTable of columns: the axis values per row,
alpha_sq, var_x, var_p, an ok mask and a skip reason per row. Every
method's runner evaluates the whole grid with one call of the method's
column form, which shares its formulas and skip messages with the scalar
evaluator. The reasons are formatted when first read (core.Skips), so a
frontier run formats none. A seed input cap skips the rows of a seed_ratio
column above it, whatever the evaluator made of them. A table reads as a
sequence of SweepRecord views, built on access.

A frontier suite ranks a sweep's ok rows once, and ranks only the rows
with U within the largest threshold, since no curve can keep any other:
one stable np.lexsort by bin, then best first, after which each run of
rows tied on both is sorted by U, then alpha_sq. Each threshold keeps the
rows with U within it and each bin's first row, and gathers the params
records of those from the axis columns at once. Squeeze factors are
math.log10 per value, as the scalar path prints them. Bins come from
np.log10, which can differ from math.log10 in the last ulps, and are
computed again with math.log10 for the values near enough a bin edge for
that to move them (LogBins.indices), so they are math.log10's bins.

Per-method facts live in one table, METHODS: the parameter names a method
accepts (also its frontier CSV parameter columns), the axes a grid must
have, its default grid axes and the runner that turns a grid into a
SweepTable. A grid may have at most MAX_GRID_POINTS rows.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from . import beamsplitter, opa, opo, optomech
from .core import (
    MAX_GRID_POINTS,
    MethodPoint,
    QuadratureStats,
    Regime,
    Skips,
    SqueezedAxis,
    mapped,
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
        if not self.hi - self.lo < math.inf:
            raise ConfigError(f"axis {self.name!r} needs a finite span hi - lo")
        if self.spacing is Spacing.LOG:
            if self.lo <= 0.0:
                raise ConfigError(f"log axis {self.name!r} needs lo > 0")
            with np.errstate(over="ignore"):  # the last value, as values() computes it
                top = np.power(10.0, math.log10(self.hi))
            if not top < math.inf:
                raise ConfigError(f"log axis {self.name!r} needs 10**log10(hi) finite")

    def values(self) -> np.ndarray:
        if self.spacing is Spacing.LOG:
            return np.logspace(math.log10(self.lo), math.log10(self.hi), self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepGrid:
    method: Method
    axes: tuple[Axis, ...]
    seed_cap: float | None = None  # rows with seed_ratio above it are skipped

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
        if self.seed_cap is not None:
            if math.isnan(self.seed_cap):
                raise ConfigError("seed_cap must be a number, got nan")
            if "seed_ratio" not in seen:
                raise ConfigError(
                    f"seed_cap caps a seed_ratio axis; the {self.method.value}"
                    " grid has none"
                )
        if self.rows > MAX_GRID_POINTS:
            raise ConfigError(
                f"grid has {self.rows} points; the limit is {MAX_GRID_POINTS}"
            )
        if any(ax.name == "tau" and ax.lo < 0.0 for ax in self.axes):
            raise ConfigError("tau axis must be non-negative")

    @property
    def rows(self) -> int:
        """The count of grid points, one row of its sweep each."""
        return math.prod(ax.count for ax in self.axes)


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: axis values, the evaluated point or a skip reason."""

    values: dict[str, float]
    point: MethodPoint | None
    status: str  # "ok" or "skipped"
    skip_reason: str = ""


_VIEW_BLOCK = 4096  # rows whose columns iteration gathers at once


@dataclass(frozen=True, eq=False)
class SweepTable(Sequence):
    """A sweep's result as columns, one row per grid point in row-major order.

    A skipped row has ok False, its reason and NaN outputs. Indexing gives
    a SweepRecord view of a row, built on access; iteration gathers the
    columns a block of rows at a time.
    """

    values: dict[str, np.ndarray]  # axis columns, in grid axis order
    alpha_sq: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray
    ok: np.ndarray
    reason: Skips | np.ndarray  # skip reason per row, "" where ok
    params: tuple[str, ...]  # point params; one without an axis is 0.0
    tags: dict[str, str]  # point params of fixed value, e.g. the regime

    def __len__(self) -> int:
        return len(self.ok)

    def _skip(self, rows: np.ndarray, template: str, *columns: np.ndarray) -> None:
        """Mark rows skipped, in place of what they held; the template,
        formatted with their values in columns, is their reason."""
        self.ok[rows] = False
        self.reason.skip(rows, template, *columns)
        for col in (self.alpha_sq, self.var_x, self.var_p):
            col[rows] = math.nan

    def params_at(self, rows: np.ndarray) -> list[dict[str, object]]:
        """The params records of the points at rows, in that order, from one
        gather of each axis column."""
        cols = [
            self.values[n][rows].tolist() if n in self.values else [0.0] * len(rows)
            for n in self.params
        ]
        return [dict(zip(self.params, vals)) | self.tags for vals in zip(*cols)]

    def _views(self, rows: range) -> Iterator[SweepRecord]:
        """SweepRecord views of rows, one at a time, from one gather of each
        column; a view the caller drops is freed before the next is built."""
        idx = np.arange(rows.start, rows.stop, rows.step)
        ok = self.ok[idx]
        params = iter(self.params_at(idx[ok]))
        names = list(self.values)
        columns = (self.alpha_sq, self.var_x, self.var_p, *self.values.values())
        for is_ok, reason, alpha_sq, var_x, var_p, *row in zip(
            ok.tolist(), self.reason[idx].tolist(), *(c[idx].tolist() for c in columns)
        ):
            values = dict(zip(names, row))
            if is_ok:
                point = MethodPoint(alpha_sq, QuadratureStats(var_x, var_p), next(params))
                yield SweepRecord(values, point, "ok")
            else:
                yield SweepRecord(values, None, "skipped", reason)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self._views(range(len(self))[i]))
        i = range(len(self))[i]
        return next(self._views(range(i, i + 1)))

    def __iter__(self):
        for start in range(0, len(self), _VIEW_BLOCK):
            yield from self._views(range(start, min(start + _VIEW_BLOCK, len(self))))


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


# np.log10 and math.log10 each lie within a few ulp of the true log: numpy's
# accuracy tests hold its float64 log10 to 1 ulp and glibc documents 2, so
# the two differ by at most 3 ulp. LogBins.indices allows this many.
_LOG10_ULPS = 8


@dataclass(frozen=True)
class LogBins:
    """Log-spaced alpha_sq bins over [lo, hi]."""

    lo: float = 1e-6
    hi: float = 1.0
    count: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.lo < self.hi < math.inf or self.count < 1:
            raise ConfigError("bins need 0 < lo < hi < inf and count >= 1")
        if self.count > MAX_GRID_POINTS:
            raise ConfigError(f"{self.count} bins exceed the limit of {MAX_GRID_POINTS}")

    def edges(self) -> np.ndarray:
        return np.logspace(math.log10(self.lo), math.log10(self.hi), self.count + 1)

    def centers(self) -> np.ndarray:
        e = self.edges()
        return np.sqrt(e[:-1] * e[1:])

    def indices(self, alpha_sq: np.ndarray) -> np.ndarray:
        """Bin index per value, -1 where it falls outside [lo, hi].

        The index is the integer part of the position
        (log10 x - log10 lo) / span * count, with math.log10 as the log.
        np.log10 gives every position; those within margin of an integer
        are computed again with math.log10. The two logs differ by at most
        _LOG10_ULPS * eps * big, big >= |log10 x|, which moves the position
        by count / span times that; its three roundings move each position
        by at most 1.5 * eps * count. margin is the sum of the two, so a
        position farther than it from every integer has the integer part
        math.log10 would give.
        """
        inside = (alpha_sq >= self.lo) & (alpha_sq <= self.hi)
        x = alpha_sq[inside]
        lo, hi = math.log10(self.lo), math.log10(self.hi)
        span, big = hi - lo, max(abs(lo), abs(hi))
        eps = sys.float_info.epsilon  # ulp(y) <= eps * |y|

        def position(logs: np.ndarray) -> np.ndarray:
            return (logs - lo) / span * self.count

        margin = self.count * eps * (_LOG10_ULPS * big / span + 3.0)
        if margin < 0.5:
            pos = position(np.log10(x))
            near = np.flatnonzero(abs(pos - np.rint(pos)) <= margin)
            pos[near] = position(mapped(math.log10, x[near]))
        else:  # every position lies within margin of an integer
            pos = position(mapped(math.log10, x))
        out = np.full(alpha_sq.shape, -1, dtype=np.intp)
        out[inside] = np.minimum(pos.astype(np.intp), self.count - 1)
        return out

    def index(self, alpha_sq: float) -> int | None:
        """Bin index for a value, or None when it falls outside [lo, hi]."""
        i = int(self.indices(np.array([alpha_sq], dtype=float))[0])
        return None if i < 0 else i


def _grid_columns(axes: Sequence[Axis]) -> dict[str, np.ndarray]:
    """Each axis's value per row, in row-major grid order."""
    mesh = np.meshgrid(*(ax.values() for ax in axes), indexing="ij")
    return {ax.name: m.ravel() for ax, m in zip(axes, mesh)}


def _kernel(
    evaluate: Callable[..., tuple], **fixed: enum.Enum
) -> Callable[[SweepGrid], SweepTable]:
    """Runner that evaluates a grid's parameter columns, then the fixed
    arguments (also the points' tags, by value), in one call."""
    tags = {key: value.value for key, value in fixed.items()}

    def run(grid: SweepGrid) -> SweepTable:
        values = _grid_columns(grid.axes)
        zeros = np.zeros(grid.rows)
        params = METHODS[grid.method].params
        cols = (values.get(name, zeros) for name in params)
        table = SweepTable(values, *evaluate(*cols, *fixed.values()), params, tags)
        cap, seed = grid.seed_cap, values.get("seed_ratio")
        if cap is not None:  # a capped grid has a seed axis; in place of any reason
            over = np.flatnonzero(~(seed <= cap))
            table._skip(over, f"seed_ratio {{:g}} exceeds seed input cap {cap:g}", seed)
        return table

    return run


def _opo_amplitude(grid: SweepGrid) -> SweepTable:
    """OPO deamplifying sweep; rows past the alpha_sq turnaround of each
    seed scan are skipped. Rows skipped already keep their reason."""
    table = _kernel(opo.opo_columns, regime=Regime.AMPLITUDE_SQUEEZING)(grid)
    names = [ax.name for ax in grid.axes]
    if "seed_ratio" not in names:
        return table
    pos = names.index("seed_ratio")
    rows = np.arange(len(table)).reshape([ax.count for ax in grid.axes])
    for scan in np.moveaxis(rows, pos, -1).reshape(-1, grid.axes[pos].count):
        live = scan[table.ok[scan]]  # in seed order
        cut = opo.amplitude_cutoff_index(table.alpha_sq[live])
        if cut is not None:
            table._skip(live[cut:], "nonmonotonic alpha_sq vs seed_ratio (past cutoff)")
    return table


@dataclass(frozen=True)
class MethodSpec:
    """What sweeps, default grids and outputs need to know about a method."""

    params: tuple[str, ...]  # accepted axis names, also frontier CSV columns
    required: tuple[str, ...]  # axes every grid must have
    axes: tuple[Axis, ...]  # default grid
    run: Callable[[SweepGrid], SweepTable]


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

# The OPO cutoff is looked up on its module at call time, never at import,
# so that a module attribute replaced at run time takes effect.
METHODS: dict[Method, MethodSpec] = {
    Method.BEAM_SPLITTER: MethodSpec(
        _BS, (), _BS_AXES, _kernel(beamsplitter.bs_columns)
    ),
    Method.OPO_PHASE: MethodSpec(
        _OPO, ("c0",), _OPO_AXES,
        _kernel(opo.opo_columns, regime=Regime.PHASE_SQUEEZING),
    ),
    Method.OPO_AMPLITUDE: MethodSpec(_OPO, ("c0",), _OPO_AXES, _opo_amplitude),
    Method.OPA_PHASE: MethodSpec(
        _OPA, _OPA, _OPA_AXES, _kernel(opa.opa_columns, regime=Regime.PHASE_SQUEEZING)
    ),
    Method.OPA_AMPLITUDE: MethodSpec(
        _OPA, _OPA, _OPA_AXES,
        _kernel(opa.opa_columns, regime=Regime.AMPLITUDE_SQUEEZING),
    ),
    Method.OM_AMPLITUDE: MethodSpec(
        _OM, ("cc", "dd"), _OM_AXES,
        _kernel(optomech.om_columns, axis=SqueezedAxis.AMPLITUDE),
    ),
    Method.OM_PHASE: MethodSpec(
        _OM, ("cc", "dd"), _OM_AXES,
        _kernel(optomech.om_columns, axis=SqueezedAxis.PHASE),
    ),
}


def sweep(grid: SweepGrid) -> SweepTable:
    """Evaluate a method over the full grid, in row-major axis order."""
    return METHODS[grid.method].run(grid)


def ok_points(records: Iterable[SweepRecord]) -> list[MethodPoint]:
    return [r.point for r in records if r.status == "ok" and r.point is not None]


def _within(u: np.ndarray, threshold: float) -> np.ndarray:
    """Where an uncertainty is within a threshold, with the reduction's tolerance."""
    return u <= threshold + 1e-12


class _Ranked:
    """The ok points of one sweep with U within a ceiling, as columns, ranked
    once for every threshold up to the ceiling."""

    def __init__(
        self, alpha_sq: np.ndarray, var_x: np.ndarray, var_p: np.ndarray,
        params: Callable[[np.ndarray], list[dict[str, object]]], bins: LogBins,
        ceiling: float = math.inf,
    ) -> None:
        self.alpha_sq, self.var_x, self.var_p = alpha_sq, var_x, var_p
        self.params = params  # params records of points, built only for winners
        self.bins = bins
        self.ceiling = ceiling

    @classmethod
    def of_points(cls, points: Iterable[MethodPoint], bins: LogBins) -> _Ranked:
        pts = list(points)

        def col(attr: str) -> np.ndarray:
            return np.fromiter(map(attrgetter(attr), pts), float, len(pts))

        return cls(
            col("alpha_sq"), col("stats.var_x"), col("stats.var_p"),
            lambda idx: [dict(pts[i].params) for i in idx.tolist()], bins,
        )

    @classmethod
    def of_table(cls, table: SweepTable, bins: LogBins, ceiling: float) -> _Ranked:
        """The table's ok rows with U within ceiling."""
        u = np.sqrt(table.var_x * table.var_p)  # NaN in skipped rows
        rows = np.flatnonzero(table.ok & _within(u, ceiling))
        return cls(
            table.alpha_sq[rows], table.var_x[rows], table.var_p[rows],
            lambda idx: table.params_at(rows[idx]), bins, ceiling,
        )

    def __len__(self) -> int:
        return len(self.alpha_sq)

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(input row, squeeze_db, U, bin) of in-range points, by bin, then best."""
        b = self.bins.indices(self.alpha_sq)
        rows = np.flatnonzero(b >= 0)
        db, u = squeeze_columns(self.var_x[rows], self.var_p[rows])
        b = b[rows]
        rank = np.lexsort((-db, b))  # stable: ties keep their order
        # each run of rows tied on (bin, db), by U, then alpha_sq, then order
        tied = (np.diff(b[rank]) == 0) & (np.diff(db[rank]) == 0)
        if tied.any():
            run = np.cumsum(np.r_[True, ~tied])  # the run each ranked row is in
            at = np.flatnonzero(np.r_[tied, False] | np.r_[False, tied])
            r = rank[at]
            rank[at] = r[np.lexsort((self.alpha_sq[rows[r]], u[r], run[at]))]
        return rows[rank], db[rank], u[rank], b[rank]


def frontier(
    points: Iterable[MethodPoint],
    threshold: float,
    bins: LogBins = LogBins(),
) -> FrontierCurve:
    """Best squeeze factor per alpha_sq bin under an uncertainty ceiling."""
    if not threshold >= 1.0:
        raise ConfigError(f"threshold must be >= 1, got {threshold!r}")
    if not isinstance(points, _Ranked):
        points = _Ranked.of_points(points, bins)
    elif points.bins != bins or threshold > points.ceiling:
        raise ValueError("a ranked sweep serves its own bins, up to its ceiling")
    rows, db, u, b = points.columns
    keep = np.flatnonzero(_within(u, threshold))
    best = keep[np.diff(b[keep], prepend=-1) != 0]  # first kept row of each bin
    centers = bins.centers().tolist()
    pts = tuple(
        FrontierPoint(centers[i], d, v, params)
        for d, v, i, params in zip(
            db[best].tolist(), u[best].tolist(), b[best].tolist(),
            points.params(rows[best]),
        )
    )
    return FrontierCurve(threshold=threshold, points=pts)


def frontier_suite(
    grid: SweepGrid, thresholds: Sequence[float], bins: LogBins = LogBins()
) -> list[FrontierCurve]:
    """One sweep, ranked once, shared across a list of uncertainty thresholds."""
    bad = [thr for thr in thresholds if not thr >= 1.0]
    if bad:
        raise ConfigError(f"threshold must be >= 1, got {bad[0]!r}")
    ranked = _Ranked.of_table(sweep(grid), bins, max(thresholds, default=math.inf))
    return [frontier(ranked, thr, bins) for thr in thresholds]


DEFAULT_THRESHOLDS = (1.001, 1.01, 1.1, 2.0, 10.0)


def default_grid(method: Method) -> SweepGrid:
    """Documented default sweep grids behind the stock frontier figures."""
    return SweepGrid(method, METHODS[method].axes)

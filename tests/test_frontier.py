import importlib
import math

import numpy as np
import pytest

from sqzlab.core import (
    MethodPoint,
    QuadratureStats,
    Regime,
    squeeze_columns,
    squeeze_metrics,
    uncertainty,
)
from sqzlab.frontier import (
    DEFAULT_THRESHOLDS,
    METHODS,
    Axis,
    ConfigError,
    FrontierCurve,
    FrontierPoint,
    LogBins,
    Method,
    Spacing,
    SweepGrid,
    default_grid,
    frontier,
    frontier_suite,
    ok_points,
    sweep,
)
from sqzlab.opa import OpaParams, opa_evaluate

# the package exports the function `frontier` under the module's name
frontier_module = importlib.import_module("sqzlab.frontier")


def bs_grid(nb=10, nt=10, b_hi=3.0):
    return SweepGrid(
        method=Method.BEAM_SPLITTER,
        axes=(Axis("b", 0.0, b_hi, nb), Axis("theta", 0.0, math.pi / 2, nt)),
    )


def test_bs_sweep_cardinality_and_order():
    records = sweep(bs_grid())
    assert len(records) == 100
    assert all(r.status == "ok" for r in records)
    # row-major: b outer, theta inner
    assert records[0].values["b"] == 0.0
    assert records[9].values["b"] == 0.0
    assert records[10].values["b"] == pytest.approx(1.0 / 3.0)
    thetas = [r.values["theta"] for r in records[:10]]
    assert thetas == sorted(thetas)


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ConfigError):
        SweepGrid(method=Method.BEAM_SPLITTER, axes=(Axis("c0", 0.1, 0.9, 5),))


def test_axis_validation():
    with pytest.raises(ConfigError):
        Axis("b", 0.0, 1.0, 1)
    with pytest.raises(ConfigError):
        Axis("b", 1.0, 0.5, 5)
    with pytest.raises(ConfigError):
        Axis("b", 0.0, 1.0, 5, Spacing.LOG)
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)):
        with pytest.raises(ConfigError, match="needs a finite span hi - lo"):
            Axis("b", lo, hi, 3)


def test_om_sweep_records_domain_errors_as_skips():
    grid = SweepGrid(
        method=Method.OM_AMPLITUDE,
        axes=(Axis("cc", 0.5, 4.0, 8), Axis("dd", 0.1, 1.0, 8)),
    )
    records = sweep(grid)
    skipped = [r for r in records if r.status == "skipped"]
    assert skipped and all("cc*dd" in r.skip_reason for r in skipped)
    assert len(records) == 64  # nothing silently dropped


def test_opo_amplitude_cutoff_skips():
    grid = SweepGrid(
        method=Method.OPO_AMPLITUDE,
        axes=(Axis("c0", 0.3, 0.7, 3), Axis("seed_ratio", 1e-3, 10.0, 60, Spacing.LOG)),
    )
    records = sweep(grid)
    skipped = [r for r in records if r.status == "skipped"]
    assert skipped
    assert all("nonmonotonic alpha_sq" in r.skip_reason for r in skipped)
    # surviving alpha_sq values are monotone along each c0 scan
    for c0 in {r.values["c0"] for r in records}:
        scan = [
            r.point.alpha_sq
            for r in records
            if r.values["c0"] == c0 and r.status == "ok"
        ]
        assert all(x <= y for x, y in zip(scan, scan[1:]))


def test_opa_sweep_samples_trajectories():
    grid = SweepGrid(
        method=Method.OPA_PHASE,
        axes=(Axis("seed_ratio", 0.01, 0.1, 3, Spacing.LOG), Axis("tau", 0.0, 2.0, 9)),
    )
    records = sweep(grid)
    assert len(records) == 27
    first = records[:9]
    assert all(r.values["seed_ratio"] == 0.01 for r in first)
    assert [r.values["tau"] for r in first] == pytest.approx(list(np.linspace(0, 2, 9)))
    assert first[0].point.stats.var_x == 1.0  # tau = 0 is vacuum


def test_opa_seed_cap_constraint():
    grid = SweepGrid(
        method=Method.OPA_AMPLITUDE,
        axes=(Axis("seed_ratio", 0.1, 10.0, 5, Spacing.LOG), Axis("tau", 0.0, 1.0, 4)),
        seed_cap=1.0,
    )
    records = sweep(grid)
    capped = [r for r in records if r.values["seed_ratio"] > 1.0]
    assert capped and all(r.status == "skipped" for r in capped)
    assert all("seed input cap" in r.skip_reason for r in capped)
    live = [r for r in records if r.values["seed_ratio"] <= 1.0]
    assert all(r.status == "ok" for r in live)


def test_opa_sweep_evaluates_each_tau_exactly():
    # taus off any integration grid are used as given, not snapped
    grid = SweepGrid(
        method=Method.OPA_AMPLITUDE,
        axes=(Axis("tau", 0.0, 1.0, 7), Axis("seed_ratio", 0.01, 3.0, 4, Spacing.LOG)),
    )
    records = sweep(grid)
    assert [r.status for r in records] == ["ok"] * 28
    for rec in records:
        seed, tau = rec.values["seed_ratio"], rec.values["tau"]
        assert rec.point.params["tau"] == tau
        pt = opa_evaluate(OpaParams(seed, 1.0, Regime.AMPLITUDE_SQUEEZING), tau)
        assert rec.point.alpha_sq == pytest.approx(pt.alpha_sq, rel=1e-14)
        assert rec.point.stats.var_x == pytest.approx(pt.stats.var_x, rel=1e-14)
        assert rec.point.stats.var_p == pytest.approx(pt.stats.var_p, rel=1e-14)


def test_opa_sweep_skips_overflowing_points():
    grid = SweepGrid(
        method=Method.OPA_PHASE,
        axes=(Axis("seed_ratio", 0.1, 1.0, 3), Axis("tau", 0.0, 1e9, 3)),
    )
    records = sweep(grid)
    for rec in records:
        if rec.values["tau"] == 0.0:
            assert rec.status == "ok"
        else:
            assert rec.status == "skipped"
            assert "overflows double precision" in rec.skip_reason
    curve = frontier(ok_points(records), math.inf, LogBins(1e-4, 10.0, 10))
    assert all(math.isfinite(p.uncertainty) for p in curve.points)


@pytest.mark.parametrize(
    "method, axes, missing",
    [
        (Method.OPO_PHASE, (Axis("seed_ratio", 0.1, 1.0, 3),), "c0"),
        (Method.OM_PHASE, (Axis("cc", 0.1, 1.0, 3),), "dd"),
        (Method.OPA_AMPLITUDE, (Axis("seed_ratio", 0.1, 1.0, 3),), "tau"),
    ],
)
def test_grid_missing_required_axis_rejected(method, axes, missing):
    with pytest.raises(ConfigError, match=f"needs a sweep axis for {missing}"):
        SweepGrid(method=method, axes=axes)


def test_negative_tau_axis_rejected_by_the_grid():
    with pytest.raises(ConfigError, match="tau axis must be non-negative"):
        SweepGrid(Method.OPA_PHASE, (Axis("seed_ratio", 0.1, 1.0, 3), Axis("tau", -1.0, 1.0, 3)))


@pytest.mark.parametrize(
    "method, axes",
    [
        (Method.BEAM_SPLITTER, default_grid(Method.BEAM_SPLITTER).axes),
        (Method.OPO_PHASE, (Axis("c0", 0.1, 0.9, 3),)),
        (Method.OM_AMPLITUDE, default_grid(Method.OM_AMPLITUDE).axes),
    ],
    ids=lambda v: getattr(v, "value", ""),
)
def test_seed_cap_without_seed_axis_rejected(method, axes):
    with pytest.raises(ConfigError, match=f"the {method.value} grid has none"):
        SweepGrid(method, axes, seed_cap=1.0)


def test_nan_seed_cap_rejected():
    axes = default_grid(Method.OPA_PHASE).axes
    with pytest.raises(ConfigError, match="seed_cap must be a number, got nan"):
        SweepGrid(Method.OPA_PHASE, axes, seed_cap=math.nan)


def test_methods_table_drives_grids_and_validation():
    assert set(METHODS) == set(Method)
    for method, spec in METHODS.items():
        grid = default_grid(method)
        assert grid.axes == spec.axes
        assert {ax.name for ax in grid.axes} <= set(spec.params)
        with pytest.raises(ConfigError, match="unknown parameter"):
            SweepGrid(method=method, axes=(Axis("bogus", 0.0, 1.0, 2),))


def test_opo_amplitude_cutoff_skips_past_turnaround_around_domain_skips():
    # seed_ratio < 0 is a domain skip; the cutoff still applies to the rest
    grid = SweepGrid(
        method=Method.OPO_AMPLITUDE,
        axes=(Axis("c0", 0.5, 0.9, 3), Axis("seed_ratio", -0.5, 10.0, 43)),
    )
    records = sweep(grid)
    domain = [r for r in records if r.values["seed_ratio"] < 0.0]
    assert len(domain) == 6
    assert all(r.skip_reason.startswith("seed_ratio must be finite and >= 0") for r in domain)
    assert any("past cutoff" in r.skip_reason for r in records)
    for c0 in (0.5, 0.7, 0.9):
        scan = sorted(
            (r for r in records if r.values["c0"] == c0 and r.status == "ok"),
            key=lambda r: r.values["seed_ratio"],
        )
        alpha = [r.point.alpha_sq for r in scan]
        assert len(alpha) > 1
        assert all(b >= a for a, b in zip(alpha, alpha[1:]))


def test_bins():
    bins = LogBins(1e-4, 1.0, 40)
    assert len(bins.edges()) == 41
    assert bins.index(1e-4) == 0
    assert bins.index(1.0) == 39
    assert bins.index(2.0) is None
    assert bins.index(5e-5) is None
    centers = bins.centers()
    assert all(bins.index(c) == i for i, c in enumerate(centers))


def test_frontier_threshold_validation():
    with pytest.raises(ConfigError):
        frontier([], 0.5)


def test_frontier_unit_threshold_keeps_only_pure_points():
    pts = ok_points(sweep(bs_grid(7, 9)))
    curve = frontier(pts, 1.0, LogBins(1e-6, 1.0, 50))
    # only b = 0 rows (and the theta = pi/2 bin) reach uncertainty 1,
    # so no surviving point is squeezed
    for p in curve.points:
        assert p.squeeze_db == pytest.approx(0.0, abs=1e-12)
        assert p.uncertainty <= 1.0 + 1e-12


def test_frontier_nested_thresholds_monotone():
    pts = ok_points(sweep(bs_grid(15, 30)))
    bins = LogBins(1e-4, 1.0, 50)
    lo = frontier(pts, 1.1, bins)
    hi = frontier(pts, 2.0, bins)
    lo_map = {p.alpha_sq: p.squeeze_db for p in lo.points}
    hi_map = {p.alpha_sq: p.squeeze_db for p in hi.points}
    shared = set(lo_map) & set(hi_map)
    assert shared
    for a2 in shared:
        assert lo_map[a2] <= hi_map[a2] + 1e-12


def test_frontier_matches_analytic_bs_envelope():
    grid = SweepGrid(
        method=Method.BEAM_SPLITTER,
        axes=(
            Axis("b", 0.0, 12.0, 61),
            Axis("theta", 1e-3, math.pi / 2, 300, Spacing.LOG),
        ),
    )
    bins = LogBins(1e-5, 1.0, 100)
    curve = frontier(ok_points(sweep(grid)), math.inf, bins)
    bin_db = 10.0 * math.log10(bins.edges()[1] / bins.edges()[0])
    assert len(curve.points) > 90
    for p in curve.points:
        if p.alpha_sq > 0.5:
            continue  # bound only meaningful where alpha_sq term dominates
        bound = -10.0 * math.log10(p.alpha_sq)
        assert abs(p.squeeze_db - bound) <= bin_db + 0.05


def test_frontier_grid_refinement_never_hurts():
    bins = LogBins(1e-4, 1.0, 30)
    coarse = frontier(ok_points(sweep(bs_grid(7, 13))), 2.0, bins)
    fine = frontier(ok_points(sweep(bs_grid(13, 25))), 2.0, bins)  # supersets
    c = {p.alpha_sq: p.squeeze_db for p in coarse.points}
    f = {p.alpha_sq: p.squeeze_db for p in fine.points}
    for a2, db in c.items():
        assert f[a2] >= db - 1e-12


def test_frontier_deterministic_tiebreak():
    def pt(alpha_sq, var_x, var_p, tag):
        return MethodPoint(alpha_sq, QuadratureStats(var_x, var_p), {"tag": tag})

    bins = LogBins(1e-2, 1.0, 1)
    # same squeeze_db, second has lower uncertainty
    pts = [pt(0.1, 0.5, 4.0, "a"), pt(0.1, 0.5, 3.0, "b"), pt(0.1, 0.5, 3.0, "c")]
    curve = frontier(pts, 10.0, bins)
    assert curve.points[0].params["tag"] == "b"
    # then lower alpha_sq
    pts = [pt(0.2, 0.5, 3.0, "hi"), pt(0.1, 0.5, 3.0, "lo")]
    assert frontier(pts, 10.0, bins).points[0].params["tag"] == "lo"
    # then input order
    pts = [pt(0.1, 0.5, 3.0, "first"), pt(0.1, 0.5, 3.0, "second")]
    assert frontier(pts, 10.0, bins).points[0].params["tag"] == "first"


def test_frontier_suite_shares_one_sweep():
    grid = bs_grid(8, 16)
    curves = frontier_suite(grid, (1.01, 1.1, 2.0))
    assert [c.threshold for c in curves] == [1.01, 1.1, 2.0]
    maps = [{p.alpha_sq: p.squeeze_db for p in c.points} for c in curves]
    shared = set(maps[0]) & set(maps[1]) & set(maps[2])
    for a2 in shared:
        assert maps[0][a2] <= maps[1][a2] + 1e-12 <= maps[2][a2] + 2e-12


def test_om_low_brightness_penalty_under_tight_threshold():
    # at the tightest uncertainty ceiling the dissipative squeezer does
    # worse at low finite alpha_sq than at high alpha_sq
    curves = frontier_suite(
        default_grid(Method.OM_AMPLITUDE), (1.001,), LogBins(1e-6, 1.0, 60)
    )
    pts = curves[0].points
    assert len(pts) > 10
    low = [p.squeeze_db for p in pts if p.alpha_sq < 1e-4]
    high = [p.squeeze_db for p in pts if p.alpha_sq > 0.1]
    assert low and high
    assert max(low) < max(high)


def test_opo_phase_nested_threshold_curves():
    grid = SweepGrid(
        method=Method.OPO_PHASE,
        axes=(Axis("c0", 0.1, 0.95, 18), Axis("seed_ratio", 1e-5, 0.5, 60, Spacing.LOG)),
    )
    curves = frontier_suite(grid, (1.01, 1.1, 2.0), LogBins(1e-5, 1.0, 40))
    maps = [{p.alpha_sq: p.squeeze_db for p in c.points} for c in curves]
    shared = set(maps[0]) & set(maps[1]) & set(maps[2])
    assert len(shared) > 5
    for a2 in shared:
        assert maps[0][a2] <= maps[1][a2] + 1e-12
        assert maps[1][a2] <= maps[2][a2] + 1e-12


def test_opa_amplitude_seed_cap_truncates_bright_output():
    # deamplification means bright outputs need seed inputs brighter than
    # the pump; capping the seed at the pump power collapses the high
    # alpha_sq end of the frontier
    axes = (
        Axis("seed_ratio", 1e-2, 30.0, 24, Spacing.LOG),
        Axis("tau", 0.0, 5.0, 120),
    )
    bins = LogBins(1e-4, 1.0, 40)
    best = {}
    for cap in (None, 1.0):
        grid = SweepGrid(method=Method.OPA_AMPLITUDE, axes=axes, seed_cap=cap)
        curve = frontier(ok_points(sweep(grid)), 2.0, bins)
        best[cap] = max(
            (p.squeeze_db for p in curve.points if p.alpha_sq > 0.2), default=-1.0
        )
    assert best[None] > best[1.0] + 3.0


def test_determinism_repeated_runs():
    grid = bs_grid(9, 9)
    a = frontier_suite(grid, (1.5,))
    b = frontier_suite(grid, (1.5,))
    assert a == b


def _reference_index(bins, alpha_sq):
    """The scalar bin index the columnar one replaced."""
    if not bins.lo <= alpha_sq <= bins.hi:
        return None
    t = (math.log10(alpha_sq) - math.log10(bins.lo)) / (
        math.log10(bins.hi) - math.log10(bins.lo)
    )
    return min(int(t * bins.count), bins.count - 1)


def _reference_frontier(points, threshold, bins):
    """The per-point tuple-compare reduction the columnar one replaced."""
    best = {}
    for order, pt in enumerate(points):
        u = uncertainty(pt.stats)
        if u > threshold + 1e-12:
            continue
        i = _reference_index(bins, pt.alpha_sq)
        if i is None:
            continue
        db = squeeze_metrics(pt.stats).squeeze_db
        # rank: higher squeeze first, then lower uncertainty, lower alpha_sq,
        # then first-seen
        cand = (db, u, order, pt)
        cur = best.get(i)
        if cur is None or (-db, u, pt.alpha_sq, order) < (
            -cur[0], cur[1], cur[3].alpha_sq, cur[2]
        ):
            best[i] = cand
    centers = bins.centers()
    return FrontierCurve(
        threshold=threshold,
        points=tuple(
            FrontierPoint(
                float(centers[i]), best[i][0], best[i][1], dict(best[i][3].params)
            )
            for i in sorted(best)
        ),
    )


def _point(alpha_sq, var_x, var_p, tag):
    return MethodPoint(alpha_sq, QuadratureStats(var_x, var_p), {"tag": tag})


REFERENCE_THRESHOLDS = (1.0, 1.001, 2.0, math.inf)


# REFERENCE_THRESHOLDS end in inf, so the suite's ceiling (the largest
# threshold) ranks every ok row; DEFAULT_THRESHOLDS end in 10, which drops rows.
@pytest.mark.parametrize(
    "method, thresholds",
    [pytest.param(m, REFERENCE_THRESHOLDS, id=m.value) for m in Method]
    + [pytest.param(m, DEFAULT_THRESHOLDS, id=f"{m.value}-default") for m in Method],
)
def test_columnar_frontier_matches_scalar_reference(method, thresholds):
    axes = tuple(
        Axis(ax.name, ax.lo, ax.hi, 17, ax.spacing) for ax in METHODS[method].axes
    )
    grid = SweepGrid(method=method, axes=axes)
    pts = ok_points(sweep(grid))
    for bins in (LogBins(), LogBins(1e-4, 0.5, 23)):
        curves = frontier_suite(grid, thresholds, bins)
        expected = [_reference_frontier(pts, thr, bins) for thr in thresholds]
        assert curves == expected
        assert any(c.points for c in curves)
        if method is Method.BEAM_SPLITTER and thresholds is DEFAULT_THRESHOLDS:
            ceiling = max(thresholds) + 1e-12
            assert any(
                uncertainty(p.stats) > ceiling
                and _reference_index(bins, p.alpha_sq) is not None
                for p in pts
            )


def test_ranked_sweep_serves_only_thresholds_up_to_its_ceiling():
    table = sweep(bs_grid())
    ranked = frontier_module._Ranked.of_table(table, LogBins(), 2.0)
    assert len(ranked) < table.ok.sum()
    assert frontier(ranked, 2.0) == frontier(ok_points(table), 2.0)
    with pytest.raises(ValueError, match="up to its ceiling"):
        frontier(ranked, 2.5)
    with pytest.raises(ValueError, match="its own bins"):
        frontier(ranked, 2.0, LogBins(1e-4, 1.0, 7))


def test_columnar_frontier_tie_break_order():
    # in one bin: higher squeeze, then lower uncertainty, then lower
    # alpha_sq, then the first seen
    bins = LogBins(1e-2, 1.0, 2)
    cases = [
        [_point(0.05, 0.5, 2.0, "less-db"), _point(0.07, 0.25, 8.0, "win")],
        [_point(0.05, 0.5, 2.5, "more-u"), _point(0.06, 0.5, 2.0, "win")],
        [_point(0.06, 0.5, 2.0, "more-alpha"), _point(0.05, 0.5, 2.0, "win")],
    ]
    for pts in cases:
        for order in (pts, pts[::-1]):
            curve = frontier(order, 10.0, bins)
            assert curve == _reference_frontier(order, 10.0, bins)
            assert curve.points[0].params["tag"] == "win"
    pts = [
        _point(0.05, 0.5, 3.0, "worse"),
        _point(0.05, 0.5, 2.0, "first"),
        _point(0.05, 0.5, 2.0, "second"),
        _point(0.5, 0.5, 2.0, "other-bin"),
        _point(0.05, 0.5, 2.0, "third"),
    ]
    for order, first in ((pts, "first"), (pts[::-1], "third")):
        curve = frontier(order, 10.0, bins)
        assert curve == _reference_frontier(order, 10.0, bins)
        assert [p.params["tag"] for p in curve.points] == [first, "other-bin"]


def test_columnar_frontier_bin_edges_and_range():
    bins = LogBins(1e-4, 1.0, 4)  # edges 1e-4, 1e-3, 1e-2, 1e-1, 1
    cases = {1e-4: 0, 1e-2: 2, 1.0: 3, 5e-5: None, 2.0: None, 0.0: None}
    for alpha_sq, expected in cases.items():
        assert bins.index(alpha_sq) == _reference_index(bins, alpha_sq) == expected
    pts = [_point(a, 0.5, 2.0, repr(a)) for a in cases]
    curve = frontier(pts, 2.0, bins)
    assert curve == _reference_frontier(pts, 2.0, bins)
    assert [p.params["tag"] for p in curve.points] == ["0.0001", "0.01", "1.0"]


def test_columnar_frontier_keeps_uncertainty_at_the_tolerance():
    threshold = 2.0
    at = threshold + 1e-12
    bins = LogBins(1e-2, 1.0, 2)
    kept = _point(0.05, at / 4, 4 * at, "at")
    above = math.nextafter(at, math.inf)
    dropped = _point(0.5, above / 4, 4 * above, "above")
    assert uncertainty(kept.stats) == at
    assert uncertainty(dropped.stats) > at
    curve = frontier([kept, dropped], threshold, bins)
    assert curve == _reference_frontier([kept, dropped], threshold, bins)
    assert [p.params["tag"] for p in curve.points] == ["at"]


def test_columnar_frontier_empty_input():
    assert frontier([], 2.0).points == ()
    assert frontier(iter(()), 1.0).points == ()


def test_bin_index_uses_math_log10_not_numpy():
    # np.log10 and math.log10 can differ in the last ulp, which moves values
    # within a few ulps of a bin edge into the neighbouring bin
    bins = LogBins()
    lo, span = math.log10(bins.lo), math.log10(bins.hi) - math.log10(bins.lo)
    edges = bins.edges()
    near = np.concatenate([edges + k * np.spacing(edges) for k in range(-40, 41)])
    near = near[(near >= bins.lo) & (near <= bins.hi)]
    numpy_index = np.minimum(
        ((np.log10(near) - lo) / span * bins.count).astype(int), bins.count - 1
    )
    moved = [
        _point(float(a), 0.5, 2.0, i)
        for i, (a, k) in enumerate(zip(near, numpy_index))
        if k != _reference_index(bins, float(a))
    ]
    assert moved
    for p in moved:
        assert bins.index(p.alpha_sq) == _reference_index(bins, p.alpha_sq)
    assert frontier(moved, 2.0, bins) == _reference_frontier(moved, 2.0, bins)


def _reference_indices(bins, values):
    """_reference_index per value, -1 outside [lo, hi]."""
    return np.array(
        [-1 if i is None else i for i in (_reference_index(bins, v) for v in values)]
    )


def _numpy_indices(bins, values):
    """The bin index from np.log10 alone, -1 outside [lo, hi]."""
    lo, hi = math.log10(bins.lo), math.log10(bins.hi)
    with np.errstate(invalid="ignore", divide="ignore"):
        pos = (np.log10(values) - lo) / (hi - lo) * bins.count
    inside = (values >= bins.lo) & (values <= bins.hi)
    return np.where(inside, np.minimum(pos, bins.count - 1), -1).astype(int)


def test_bin_indices_equal_math_log10_formula_on_default_grids():
    bins = LogBins()
    for method in Method:
        alpha_sq = sweep(default_grid(method)).alpha_sq  # NaN where skipped
        expected = _reference_indices(bins, alpha_sq.tolist())
        assert (expected >= 0).any()
        assert bins.indices(alpha_sq).tolist() == expected.tolist(), method


# the default bins; narrow, many bins, where np.log10 moves many edge values;
# and a span so narrow against |log10 x| that every value takes math.log10
EDGE_BINS = [LogBins(), LogBins(1e-3, 7.0, 5000), LogBins(1e10, 1.00000000001e10, 200)]


@pytest.mark.parametrize("bins", EDGE_BINS, ids=["default", "narrow", "libm-only"])
def test_bin_indices_equal_math_log10_formula_beside_every_edge(bins):
    edges = bins.edges()
    below, above = np.nextafter(edges, 0.0), np.nextafter(edges, math.inf)
    values = np.concatenate([edges, below, above, np.nextafter(below, 0.0)])
    expected = _reference_indices(bins, values.tolist())
    assert bins.indices(values).tolist() == expected.tolist()
    if bins == LogBins(1e-3, 7.0, 5000):  # np.log10 alone would miss these
        assert (_numpy_indices(bins, values) != expected).sum() > 100


def _reference_rank(ranked):
    """(input row, squeeze_db, U, bin) as the four-key np.lexsort ranked them."""
    b = ranked.bins.indices(ranked.alpha_sq)
    rows = np.flatnonzero(b >= 0)
    db, u = squeeze_columns(ranked.var_x[rows], ranked.var_p[rows])
    rank = np.lexsort((ranked.alpha_sq[rows], u, -db, b[rows]))
    return rows[rank], db[rank], u[rank], b[rows[rank]]


def _assert_rank_equals_reference(ranked):
    got, expected = ranked.columns, _reference_rank(ranked)
    assert [c.tobytes() for c in got] == [c.tobytes() for c in expected]


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_rank_equals_four_key_lexsort_on_default_grids(method):
    table = sweep(default_grid(method))
    _assert_rank_equals_reference(frontier_module._Ranked.of_table(table, LogBins(), 10.0))


def test_rank_equals_four_key_lexsort_on_forced_ties():
    # rows tied on (bin, db) that differ in U and alpha_sq, rows tied on U
    # too, and identical rows, which keep their input order
    rng = np.random.default_rng(7)
    n = 3000
    alpha_sq = rng.choice([0.011, 0.012, 0.02, 0.5, 0.6, 5.0], n)
    squeezed = rng.choice([0.25, 0.5], n)
    anti = rng.choice([4.0, 5.0, 8.0], n)
    swap = rng.random(n) < 0.5
    var_x, var_p = np.where(swap, anti, squeezed), np.where(swap, squeezed, anti)
    bins = LogBins(1e-2, 1.0, 2)
    ranked = frontier_module._Ranked(alpha_sq, var_x, var_p, None, bins)
    _assert_rank_equals_reference(ranked)
    b = bins.indices(alpha_sq)
    db, _ = squeeze_columns(var_x, var_p)
    two_keys = np.lexsort((-db, b))[np.count_nonzero(b < 0):]
    assert not np.array_equal(two_keys, _reference_rank(ranked)[0])  # ties reorder


@pytest.mark.parametrize(
    "method", [Method.BEAM_SPLITTER, Method.OPO_PHASE], ids=lambda m: m.value
)
def test_column_forms_match_scalar_metrics_bitwise(method):
    stats = [p.stats for p in ok_points(sweep(default_grid(method)))]
    var_x = np.array([s.var_x for s in stats])
    var_p = np.array([s.var_p for s in stats])
    db, u = squeeze_columns(var_x, var_p)
    scalar_db = np.array([squeeze_metrics(s).squeeze_db for s in stats])
    assert db.tobytes() == scalar_db.tobytes()
    assert u.tobytes() == np.array([uncertainty(s) for s in stats]).tobytes()


def test_frontier_suite_rejects_bad_threshold_before_sweeping(monkeypatch):
    def no_sweep(grid):
        raise AssertionError("sweep ran for a rejected threshold")

    monkeypatch.setattr(frontier_module, "sweep", no_sweep)
    grid = default_grid(Method.OPO_PHASE)
    with pytest.raises(ConfigError, match="threshold must be >= 1"):
        frontier_suite(grid, (2.0, 0.5))
    with pytest.raises(ConfigError, match="threshold must be >= 1"):
        frontier_suite(grid, (math.nan,))


def test_bins_reject_infinite_edges():
    with pytest.raises(ConfigError, match="bins need"):
        LogBins(1e-6, math.inf, 5)
    with pytest.raises(ConfigError, match="bins need"):
        LogBins(math.inf, math.inf, 5)
    with pytest.raises(ConfigError, match="bins need"):
        LogBins(1e-6, math.nan, 5)

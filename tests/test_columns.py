"""The columnar sweep against the scalar evaluators, the sweep writers against
the per-row writers they replaced, a multi-method frontier computed in parts
against one process, the OPO root against a 50-digit root, and the work cap
on grids and trajectories."""

import csv
import errno
import importlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
from decimal import Decimal, localcontext

import numpy as np
import pytest

from sqzlab import beamsplitter, cli, core, opa, opo, optomech
from sqzlab.beamsplitter import BsParams, bs_columns, bs_evaluate
from sqzlab.core import MAX_GRID_POINTS, DomainError, Regime, SqueezedAxis, squeeze_columns
from sqzlab.frontier import (
    DEFAULT_THRESHOLDS,
    Axis,
    ConfigError,
    Method,
    Spacing,
    SweepGrid,
    SweepTable,
    default_grid,
)
from sqzlab.opa import OpaParams, opa_columns, opa_evaluate
from sqzlab.opo import OpoParams, amplitude_cutoff_index, opo_columns, opo_evaluate
from sqzlab.optomech import OmParams, om_evaluate

# the package exports the function `frontier` under the module's name
frontier_module = importlib.import_module("sqzlab.frontier")
CUTOFF = "nonmonotonic alpha_sq vs seed_ratio (past cutoff)"


def scalar_point(method: Method, row: dict[str, float]):
    """The scalar evaluator's point for one grid row, as the parent sweep made it."""
    if method is Method.BEAM_SPLITTER:
        return bs_evaluate(BsParams(row.get("b", 0.0), row.get("theta", 0.0)))
    if method in (Method.OPO_PHASE, Method.OPO_AMPLITUDE):
        regime = Regime.PHASE_SQUEEZING if method is Method.OPO_PHASE else Regime.AMPLITUDE_SQUEEZING
        return opo_evaluate(OpoParams(row["c0"], row.get("seed_ratio", 0.0), regime))
    if method in (Method.OM_AMPLITUDE, Method.OM_PHASE):
        axis = SqueezedAxis.AMPLITUDE if method is Method.OM_AMPLITUDE else SqueezedAxis.PHASE
        return om_evaluate(OmParams(row["cc"], row["dd"], row.get("n_bar", 0.0), axis))
    regime = Regime.PHASE_SQUEEZING if method is Method.OPA_PHASE else Regime.AMPLITUDE_SQUEEZING
    tau = row["tau"]
    return opa_evaluate(OpaParams(row["seed_ratio"], max(tau, 1e-12), regime), tau)


def assert_matches_scalar(method: Method, table: SweepTable) -> set[str]:
    """Every row equals the scalar path: the same floats, bit for bit, or
    the message it raises. Returns the skip reasons met."""
    assert isinstance(table, SweepTable)
    names = list(table.values)
    rows = zip(*(table.values[n].tolist() for n in names))
    outputs = zip(table.alpha_sq.tolist(), table.var_x.tolist(), table.var_p.tolist())
    reasons = set()
    for i, (row, out) in enumerate(zip(rows, outputs)):
        values = dict(zip(names, row))
        try:
            pt = scalar_point(method, values)
        except DomainError as exc:
            assert not table.ok[i] and table.reason[i] == str(exc), (values, table.reason[i])
            reasons.add(str(exc))
            continue
        if table.reason[i] == CUTOFF:  # a post-pass of the sweep, not an evaluator check
            assert method is Method.OPO_AMPLITUDE
            reasons.add(CUTOFF)
            continue
        assert table.ok[i] and table.reason[i] == "", (values, table.reason[i])
        assert out == (pt.alpha_sq, pt.stats.var_x, pt.stats.var_p), values
        assert table[i].point == pt
    return reasons


@pytest.mark.parametrize(
    "method",
    [m for m in Method],
    ids=lambda m: m.value,
)
def test_default_grid_columns_equal_scalar_evaluators(method):
    table = frontier_module.sweep(default_grid(method))
    reasons = assert_matches_scalar(method, table)
    expected_skips = {
        Method.OPO_AMPLITUDE: 9_491, Method.OM_AMPLITUDE: 8_089, Method.OM_PHASE: 8_089,
    }.get(method, 0)
    assert (~table.ok).sum() == expected_skips
    assert (method is Method.OPO_AMPLITUDE) == (CUTOFF in reasons)


# Small grids that cross every domain edge, so that each check meets a row
# it skips. Each entry: method, axes, seed_cap, the reason prefixes met.
EDGE_GRIDS = [
    (
        Method.BEAM_SPLITTER,
        (Axis("b", -1.0, 3.0, 3), Axis("theta", -0.5, 2.0, 11)),
        None,
        ("theta must lie in [0, pi/2]",),
    ),
    (
        Method.BEAM_SPLITTER,
        # the widest span an axis takes; b = max float overflowed e^(2|b|)
        (Axis("theta", 0.0, 1.0, 2), Axis("b", 0.0, sys.float_info.max, 3)),
        None,
        ("|b| must be at most 354.891356446692",),
    ),
    (
        Method.BEAM_SPLITTER,
        # e^(2|b|) overflows from |b| = 354.891356446692 on; b = 400 raised OverflowError
        (Axis("b", -400.0, 400.0, 9), Axis("theta", 0.0, 1.0, 3)),
        None,
        ("|b| must be at most 354.891356446692",),
    ),
    (
        Method.OPO_PHASE,
        (Axis("c0", -0.5, 1.5, 9), Axis("seed_ratio", -1.0, 3.0, 9)),
        None,
        ("c0 must lie in (0, 1)", "seed_ratio must be finite and >= 0"),
    ),
    (
        Method.OPO_AMPLITUDE,
        (Axis("seed_ratio", 1e-3, 1e200, 9, Spacing.LOG), Axis("c0", 0.2, 0.995, 4)),
        None,
        ("steady-state residual", "var_x must be finite and positive"),
    ),
    (
        Method.OM_AMPLITUDE,
        (
            Axis("cc", -1.0, 4.0, 6),
            Axis("dd", -0.5, 1.0, 7),
            Axis("n_bar", -1.0, 1.0, 3),
        ),
        None,
        ("cc must be > 0", "dd must be >= 0", "n_bar must be >= 0", "cc*dd must not exceed 1"),
    ),
    (
        Method.OM_PHASE,
        # cc = 1e-160 leaves cc^2 subnormal, not 0, so alpha_sq overflows
        (Axis("dd", 0.0, 0.5, 3), Axis("cc", 1e-160, 1e308, 5, Spacing.LOG)),
        None,
        ("var_x must be finite and positive", "alpha_sq must be finite and >= 0",
         "cc*dd must not exceed 1"),
    ),
    (
        Method.OPA_PHASE,
        (Axis("tau", 0.0, 1e3, 5), Axis("seed_ratio", -1.0, 3.0, 5)),
        2.0,
        ("seed_ratio 3 exceeds seed input cap 2", "seed_ratio must be finite and >= 0",
         "noise covariance overflows double precision"),
    ),
]

# cc = 1e-200 underflows cc^2 to 0; the scalar path raised ZeroDivisionError
OM_CC_UNDERFLOW = (
    Method.OM_AMPLITUDE,
    (Axis("cc", 1e-200, 1e-160, 2, Spacing.LOG), Axis("dd", 0.0, 0.5, 2)),
    None,
    ("alpha_sq must be finite and >= 0, got inf",),
)

# seed_ratio -1, 0, 1, ..., 10 under a cap of 1; the OPO sweep ignored the cap
OPO_SEED_CAP = (
    Method.OPO_PHASE,
    (Axis("c0", 0.5, 0.6, 2), Axis("seed_ratio", -1.0, 10.0, 12)),
    1.0,
    ("seed_ratio must be finite and >= 0", "seed_ratio 2 exceeds seed input cap 1"),
)

# var_x and var_p finite, their product not: uncertainty = inf was an ok row
OM_PRODUCT_OVERFLOW = (
    Method.OM_AMPLITUDE,
    (Axis("cc", 0.5, 1.0, 2), Axis("dd", 0.5, 1.0, 2), Axis("n_bar", 1e150, 1e160, 2)),
    None,
    ("var_x*var_p must be finite, got inf",),
)


def _rows(table, keep):
    """The table of the rows where keep is True."""
    return SweepTable(
        {k: v[keep] for k, v in table.values.items()},
        *(c[keep] for c in (table.alpha_sq, table.var_x, table.var_p, table.ok, table.reason)),
        table.params, table.tags,
    )


@pytest.mark.parametrize(
    "method, axes, seed_cap, prefixes",
    [
        *EDGE_GRIDS,
        pytest.param(*OM_CC_UNDERFLOW, id="om_amplitude-cc-underflow"),
        pytest.param(*OM_PRODUCT_OVERFLOW, id="om_amplitude-product-overflow"),
        pytest.param(*OPO_SEED_CAP, id="opo_phase-seed-cap"),
    ],
    ids=lambda v: getattr(v, "value", ""),
)
def test_edge_grid_masks_match_scalar_messages(method, axes, seed_cap, prefixes):
    grid = SweepGrid(method, axes, seed_cap)
    table = frontier_module.sweep(grid)
    reasons = set()
    if seed_cap is not None:  # the cap is a sweep setting, not a scalar check
        seed = table.values["seed_ratio"]
        capped = seed > seed_cap
        assert table.reason[capped].tolist() == [
            f"seed_ratio {s:g} exceeds seed input cap {seed_cap:g}"
            for s in seed[capped].tolist()
        ]
        assert not table.ok[capped].any()
        reasons |= set(table.reason[capped])
        uncapped = frontier_module.sweep(SweepGrid(method, axes))
        table, uncapped = (_rows(t, ~capped) for t in (table, uncapped))
        for col in ("alpha_sq", "var_x", "var_p", "ok"):  # bit for bit, NaN too
            assert getattr(table, col).tobytes() == getattr(uncapped, col).tobytes()
        assert table.reason.tolist() == uncapped.reason.tolist()
    reasons |= assert_matches_scalar(method, table)
    for prefix in prefixes:
        assert any(r.startswith(prefix) for r in reasons), prefix


def _numbers(table):
    db, u = squeeze_columns(table.var_x, table.var_p)
    return [c.tolist() for c in (table.alpha_sq, table.var_x, table.var_p, db, u)]


def csv_per_row(method, records, config):
    """The CSV writer the columnar one replaced: _fnum for every value, and each
    row's fields as the csv module writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf)  # the default \r\n terminator: \r is quoted, as \n is

    def line(fields):
        buf.seek(0)
        buf.truncate()
        writer.writerow(fields)
        return buf.getvalue()[:-2]

    names = list(records.values)
    lines = [f"# {k} = {config[k]}" for k in sorted(config)]
    lines.append(",".join(["method", *names, "alpha_sq", "var_x", "var_p", "squeeze_db",
                           "uncertainty", "status", "skip_reason"]))
    ok = records.ok.tolist()
    columns = [
        [method.value] * len(ok),
        *(map(cli._fnum, records.values[n].tolist()) for n in names),
        *([cli._fnum(v) if k else "" for v, k in zip(col, ok)] for col in _numbers(records)),
        ["ok" if k else "skipped" for k in ok],
        records.reason.tolist(),
    ]
    lines.extend(map(line, zip(*columns)))
    return "\n".join(lines) + "\n"


def json_per_row(method, records, config):
    """The JSON writer the columnar one replaced: a dict per point, then
    json.dumps(indent=1, sort_keys=True)."""
    names = list(records.values)
    rows = zip(records.ok.tolist(), *(records.values[n].tolist() for n in names))
    points = []
    for i, ((ok, *row), numbers) in enumerate(zip(rows, zip(*_numbers(records)))):
        entry = {
            "method": method.value,
            "values": dict(zip(names, row)),
            "status": "ok" if ok else "skipped",
            "skip_reason": records.reason[i],
        }
        if ok:
            alpha_sq, var_x, var_p, db, u = numbers
            params = {n: entry["values"].get(n, 0.0) for n in records.params}
            entry.update(
                alpha_sq=alpha_sq, var_x=var_x, var_p=var_p, squeeze_db=db,
                uncertainty=u, params=params | records.tags,
            )
        points.append(entry)
    doc = {"config": {k: str(v) for k, v in sorted(config.items())}, "points": points}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def assert_writers_match_per_row(method, table, config):
    with np.errstate(over="ignore"):  # U = inf in a hand-made row
        text = cli.sweep_csv(method, table, config)
        assert text == csv_per_row(method, table, config)
        assert cli.sweep_json(method, table, config) == json_per_row(method, table, config)
    # past the metadata lines, csv.reader reads every row to the header's width
    body = text.split("\n", len(config))[-1]
    header, *rows = csv.reader(io.StringIO(body, newline=""))
    assert len(rows) == len(table)
    assert all(len(row) == len(header) for row in rows)
    assert [row[-1] for row in rows] == table.reason.tolist()


@pytest.mark.parametrize("method", [m for m in Method], ids=lambda m: m.value)
def test_writers_match_per_row_writers_on_default_grids(method):
    grid = default_grid(method)
    table = frontier_module.sweep(grid)
    assert_writers_match_per_row(method, table, cli._echo("sweep", grid, format="json"))


WRITER_GRIDS = [
    *((method, axes, seed_cap) for method, axes, seed_cap, _ in EDGE_GRIDS),
    pytest.param(*OM_CC_UNDERFLOW[:3], id="om_amplitude-cc-underflow"),
    pytest.param(*OM_PRODUCT_OVERFLOW[:3], id="om_amplitude-product-overflow"),
    pytest.param(*OPO_SEED_CAP[:3], id="opo_phase-seed-cap"),
    # -0.0 in both axes, in ok and skipped rows; linspace ends exactly at hi
    (Method.BEAM_SPLITTER, (Axis("b", -1.0, -0.0, 3), Axis("theta", -1.0, -0.0, 3)), None),
    (Method.BEAM_SPLITTER, (), None),  # one row, no axes: empty "values"
    # cutoff rows after negative-seed rows
    (Method.OPO_AMPLITUDE, (Axis("c0", 0.5, 0.95, 4), Axis("seed_ratio", -0.5, 10.0, 30)), None),
]


# WRITER_GRIDS without pytest.param wrappers
WRITER_GRIDS_PLAIN = [getattr(g, "values", g) for g in WRITER_GRIDS]


@pytest.mark.parametrize(
    "method, axes, seed_cap", WRITER_GRIDS, ids=lambda v: getattr(v, "value", "")
)
def test_writers_match_per_row_writers_on_edge_grids(method, axes, seed_cap):
    grid = SweepGrid(method, axes, seed_cap)
    table = frontier_module.sweep(grid)
    assert_writers_match_per_row(method, table, cli._echo("sweep", grid, format="csv"))


class EagerSkips(core.Skips):
    """The Skips that formatted every message when its check ran, as the
    reference for the one that formats them when they are read."""

    def __init__(self, n):
        super().__init__(n)
        self.text = np.full(n, "", dtype=object)

    def skip(self, rows, template, *columns):
        super().skip(rows, template, *columns)
        values = zip(*(c[rows].tolist() for c in columns))
        self.text[rows] = [template.format(*v) for v in values] if columns else template

    def _reasons(self):
        return self.text


def test_reasons_formatted_on_read_equal_eager_reasons(monkeypatch):
    lazy = {}
    for method, axes, seed_cap in WRITER_GRIDS_PLAIN:
        grid = SweepGrid(method, axes, seed_cap)
        lazy[grid] = frontier_module.sweep(grid)
    for module in (beamsplitter, opa, opo, optomech):
        monkeypatch.setattr(module, "Skips", EagerSkips)
    met = set()
    for grid, table in lazy.items():
        eager = frontier_module.sweep(grid)
        assert isinstance(eager.reason, EagerSkips)
        assert table.reason.tolist() == eager.reason.tolist()
        config = cli._echo("sweep", grid, format="csv")
        for write in (cli.sweep_csv, cli.sweep_json):
            assert write(grid.method, table, config) == write(grid.method, eager, config)
        met |= set(table.reason)
    # domain, branch (the OPO residual), cutoff and seed cap
    for kind in ("seed_ratio must be finite", "steady-state residual", CUTOFF,
                 "exceeds seed input cap"):
        assert any(kind in r for r in met), kind


class Unformattable(str):
    def format(self, *args):
        raise AssertionError(f"formatted {str(self)!r}")


@pytest.mark.parametrize(
    "method", [Method.OM_AMPLITUDE, Method.OPO_AMPLITUDE], ids=lambda m: m.value
)
def test_frontier_formats_no_skip_message(monkeypatch, method):
    skip = core.Skips.skip
    monkeypatch.setattr(
        core.Skips, "skip", lambda self, rows, template, *columns: skip(
            self, rows, Unformattable(template), *columns
        ),
    )
    grid = default_grid(method)
    curves = frontier_module.frontier_suite(grid, DEFAULT_THRESHOLDS)
    assert all(c.points for c in curves)
    table = frontier_module.sweep(grid)
    assert not table.ok.all()
    with pytest.raises(AssertionError, match="formatted"):  # reading formats
        table.reason[0]


def _nonfinite_table():
    """Hand-made rows: NaN and +-inf axis values, 0.0 beside -0.0, an ok row
    whose U overflows, reasons that need quoting, and a tag that holds
    template syntax (format fields, %s, a quote, cli._MARK and a marked
    field), which the JSON writer must write as text."""
    nan, inf = math.nan, math.inf
    ok = np.array([True, True, False, False, False, True, False])
    return SweepTable(
        # 0.0 and -0.0 in one column keep their own text
        {"b": np.array([0.0, -0.0, nan, inf, -inf, -0.0, 0.0]), "theta": np.full(7, 0.5)},
        np.array([0.0, 1e-300, nan, nan, nan, 0.5, nan]),
        np.array([1.0, 1e200, nan, nan, nan, 0.25, nan]),  # 1e200 * 1e200: U = inf
        np.array([1.0, 1e200, nan, nan, nan, 4.0, nan]),
        ok,
        np.array(["", "", "b must be finite, got nan", 'a "quoted", non-ASCII \u00e9 reason',
                  "tab\there", "", "{} braces {0}"], dtype=object),
        ("b", "theta", "extra"),  # a param without an axis reads 0.0
        {"tag": 't\u00e4g {0} %s "q" ' + cli._MARK + " " + cli._field(1)},
    )


def _empty_table():
    return SweepTable(
        {"b": np.array([])}, *(np.array([]) for _ in range(3)), np.array([], dtype=bool),
        np.array([], dtype=object), ("b",), {},
    )


NONFINITE_CONFIG = {"command": "sweep", "note": "\u00fc, \"q\""}


def test_writers_spell_nonfinite_values_signed_zeros_and_strings_as_before():
    table = _nonfinite_table()
    config = NONFINITE_CONFIG
    assert_writers_match_per_row(Method.BEAM_SPLITTER, table, config)
    with np.errstate(over="ignore"):
        text = cli.sweep_json(Method.BEAM_SPLITTER, table, config)
        csv_text = cli.sweep_csv(Method.BEAM_SPLITTER, table, config)
    assert '"b": NaN' in text and '"b": -Infinity' in text and '"uncertainty": Infinity' in text
    assert '"b": -0.0' in text and '"b": 0.0' in text
    assert '\nbs,nan,0.5,,,,,,skipped,"b must be finite, got nan"\n' in csv_text
    assert "\nbs,-0.0,0.5,1e-300,1e+200,1e+200,-2000.0,inf,ok,\n" in csv_text
    assert_writers_match_per_row(Method.BEAM_SPLITTER, _empty_table(), config)


# The writers cut a table into parts and format all but the first in forked
# children (cli._bounds, cli._in_parts). These tests cut every table of two
# rows or more into three parts, one more than a 2-core host makes; the
# conftest fixture fails a test that leaves a child behind.
SPLIT_CPUS = 3


@pytest.fixture
def split_writers(monkeypatch):
    monkeypatch.setattr(cli, "_PART_ROWS", 1)
    monkeypatch.setattr(
        cli.os, "sched_getaffinity", lambda pid: set(range(SPLIT_CPUS)), raising=False
    )


def both_writers(method, table, config):
    """The text of the CSV and the JSON writer."""
    with np.errstate(over="ignore"):  # U = inf in a hand-made row
        return cli.sweep_csv(method, table, config), cli.sweep_json(method, table, config)


def both_per_row(method, table, config):
    with np.errstate(over="ignore"):
        return csv_per_row(method, table, config), json_per_row(method, table, config)


def writers_in_one_part(method, table, config):
    """both_writers with the table in one part, formatted in this process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_PART_ROWS", len(table) + 1)
        return both_writers(method, table, config)


def _writer_cases():
    """(id, method, table, config) of every WRITER_GRIDS grid and the hand-made tables."""
    cases = []
    for param in WRITER_GRIDS:
        method, axes, seed_cap = getattr(param, "values", param)
        grid = SweepGrid(method, axes, seed_cap)
        name = getattr(param, "id", None) or f"{method.value}-{len(cases)}"
        table = frontier_module.sweep(grid)
        cases.append((name, method, table, cli._echo("sweep", grid, format="csv")))
    cases.append(("nonfinite", Method.BEAM_SPLITTER, _nonfinite_table(), NONFINITE_CONFIG))
    cases.append(("empty", Method.BEAM_SPLITTER, _empty_table(), NONFINITE_CONFIG))
    return cases


def test_split_writers_match_in_process_and_per_row_writers(split_writers):
    cases = _writer_cases()
    for name, method, table, config in cases:
        bounds = cli._bounds(table.ok)
        assert bounds[0] == 0 and bounds[-1] == len(table), name
        assert len(bounds) - 1 == max(1, min(SPLIT_CPUS, len(table))), name
        assert all(a < b for a, b in zip(bounds, bounds[1:])) or not len(table), name
        split = both_writers(method, table, config)
        assert split == writers_in_one_part(method, table, config), name
        assert split == both_per_row(method, table, config), name
    # the cases split all-skipped tables, one row, no rows, -0.0 axes, and
    # cut right after a skipped row
    tables = [table for _, _, table, _ in cases]
    assert any(len(t) >= SPLIT_CPUS and not t.ok.any() for t in tables)
    assert {0, 1} <= {len(t) for t in tables}
    assert any(
        np.signbit(col[col == 0.0]).any() for t in tables for col in t.values.values()
    )
    assert any(
        t.ok.any() and not all(t.ok[b - 1] for b in cli._bounds(t.ok)[1:-1]) for t in tables
    )


def test_bounds_hold_equal_counts_of_ok_rows(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    table = frontier_module.sweep(default_grid(Method.OM_PHASE))
    half = len(table) // 2  # 12,800 ok rows in the first half of the rows, 4,711 in the second
    assert (table.ok[:half].sum(), table.ok[half:].sum()) == (12_800, 4_711)
    start, cut, stop = cli._bounds(table.ok)
    assert (start, stop) == (0, len(table))
    assert (table.ok[:cut].sum(), table.ok[cut:].sum()) == (8_755, 8_756)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._bounds(table.ok) == [0, len(table)]
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    assert cli._bounds(table.ok) == [0, len(table)]
    # a part of fewer than _PART_ROWS rows is not worth a fork
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli, "_PART_ROWS", len(table) // 2 + 1)
    assert cli._bounds(table.ok) == [0, len(table)]


def test_default_grid_writers_fork_one_child_each(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(cli.os, "fork", counted_fork)
    grid = default_grid(Method.OM_PHASE)
    table = frontier_module.sweep(grid)
    config = cli._echo("sweep", grid, format="json")
    split = both_writers(grid.method, table, config)
    assert forks == [os.getpid()] * 2
    assert split == writers_in_one_part(grid.method, table, config)


def _fork_raising():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def _child_exiting(status):
    def fork():
        pid = REAL_FORK()
        if pid == 0:
            os._exit(status)
        return pid
    return fork


def _child_sending_half():
    pid = REAL_FORK()
    if pid == 0:  # in the child only: write half of the text, then exit 0
        def write_half(fd, data):
            REAL_WRITE(fd, bytes(data[: len(data) // 2]))
            os._exit(0)
        os.write = write_half
    return pid


REAL_FORK, REAL_WRITE = getattr(os, "fork", None), os.write


@pytest.mark.parametrize(
    "fork",
    [_fork_raising, None, _child_exiting(1), _child_exiting(0), _child_sending_half],
    ids=["fork-raises", "no-fork", "child-exits-1", "child-sends-nothing", "child-sends-half"],
)
def test_writers_format_a_failed_part_in_process(split_writers, monkeypatch, fork):
    cases = _writer_cases()
    if fork is None:
        monkeypatch.delattr(cli.os, "fork", raising=False)
    else:
        monkeypatch.setattr(cli.os, "fork", fork)
    for name, method, table, config in cases:
        split = both_writers(method, table, config)
        assert split == both_per_row(method, table, config), name


def test_writers_do_not_fork_beside_another_thread(split_writers, monkeypatch):
    def no_fork():
        raise AssertionError("forked beside another live thread")

    monkeypatch.setattr(cli.os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        for name, method, table, config in _writer_cases():
            split = both_writers(method, table, config)
            assert split == both_per_row(method, table, config), name
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


# A multi-method frontier computes its methods in parts too (cli._task_parts
# groups them; cli._in_parts runs the parts). At threshold 1 both OPO grids
# have an empty feasible set, so the run warns for two methods that are not
# first. FRONTIER_PARTS puts the later of them in the first part and the
# other in a child, so warnings in part order would be out of config order.
FRONTIER_METHODS = ("bs", "opo_phase", "om_amplitude", "opo_amplitude")
FRONTIER_PARTS = [[3], [1, 0], [2]]
FRONTIER_WARNINGS = "".join(
    f"warning: empty feasible set for {m} at all thresholds\n"
    for m in ("opo_phase", "opo_amplitude")
)
FIGURES_CONF = (
    "methods = bs, opo_phase, opa_phase, om_amplitude\n"
    "thresholds = 1.001, 1.01, 1.1, 2.0, 10.0\n"
    "bins = 1e-6:1:200\n"
    "format = svg\n"
)


def counted_forks(monkeypatch):
    """The pids that call cli.os.fork from now on; the fork is the real one."""
    forks = []

    def counted_fork():
        forks.append(os.getpid())
        return REAL_FORK()

    monkeypatch.setattr(cli.os, "fork", counted_fork)
    return forks


def frontier_files(tmp_path, capsys, *argv):
    """(exit code, stdout, stderr, {file name: bytes}) of a frontier run
    that writes its files into a new directory under tmp_path."""
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    code = cli.main(["frontier", *argv, "--out", str(out / "f")])
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, captured.out, captured.err, files


def frontier_in_one_process(tmp_path, capsys, *argv):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        forks = counted_forks(patch)
        run = frontier_files(tmp_path, capsys, *argv)
    assert forks == []
    return run


def test_task_parts_group_longest_grid_first(monkeypatch):
    rows = [48_400, 91_200, 9_600, 25_600]  # the four-figure grids, in config order
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._task_parts(rows) == [[1], [0, 3, 2]]
    assert cli._task_parts(rows[:1]) == [[0]]
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert cli._task_parts(rows) == [[1], [0], [3, 2]]
    monkeypatch.setattr(cli, "_PART_ROWS", 48_400)  # the third part joins the first
    assert cli._task_parts(rows) == [[1, 3, 2], [0]]
    monkeypatch.setattr(cli, "_PART_ROWS", 48_400 + 9_600 + 25_600 + 1)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._task_parts(rows) == [[1, 0, 3, 2]]
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._task_parts(rows) == [[1, 0, 3, 2]]
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    assert cli._task_parts(rows) == [[1, 0, 3, 2]]


def test_four_figure_config_forks_once_on_two_cpus(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "figures.conf"
    conf.write_text(FIGURES_CONF)
    one = frontier_in_one_process(tmp_path, capsys, "--config", str(conf))
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = counted_forks(monkeypatch)
    two = frontier_files(tmp_path, capsys, "--config", str(conf))
    assert forks == [os.getpid()]
    assert two == one
    assert one[:3] == (0, "", "")
    methods = ("bs", "om_amplitude", "opa_phase", "opo_phase")
    assert sorted(one[3]) == [f"f_{m}.svg" for m in methods]


def test_frontier_of_small_grids_forks_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = counted_forks(monkeypatch)
    grid = ("--axis", "c0=0.1:0.9:40", "--axis", "seed_ratio=1e-4:1:50:log")
    assert 40 * 50 < cli._PART_ROWS
    code, _, _, files = frontier_files(
        tmp_path, capsys, "--method", "opo_phase,opo_amplitude", *grid
    )
    assert forks == []
    assert (code, sorted(files)) == (0, ["f_opo_amplitude.csv", "f_opo_phase.csv"])


def _no_fork():
    raise AssertionError("forked beside another live thread")


@pytest.mark.parametrize(
    "fork",
    [None, _fork_raising, "missing", _child_exiting(1), _child_exiting(0),
     _child_sending_half, _no_fork],
    ids=["forks", "fork-raises", "no-fork", "child-exits-1", "child-sends-nothing",
         "child-sends-half", "thread"],
)
def test_frontier_parts_give_the_bytes_and_warnings_of_one_process(
    tmp_path, capsys, monkeypatch, fork
):
    argv = ("--method", ",".join(FRONTIER_METHODS), "--thresholds", "1", "--format", "json")
    one = frontier_in_one_process(tmp_path, capsys, *argv)
    assert one[:3] == (0, "", FRONTIER_WARNINGS)
    assert sorted(one[3]) == sorted(f"f_{m}.json" for m in FRONTIER_METHODS)
    monkeypatch.setattr(cli, "_task_parts", lambda rows: FRONTIER_PARTS)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    if fork is None:
        forks = counted_forks(monkeypatch)
    elif fork == "missing":
        monkeypatch.delattr(cli.os, "fork", raising=False)
    else:
        monkeypatch.setattr(cli.os, "fork", fork)
    if fork is _no_fork:
        thread.start()
    try:
        assert frontier_files(tmp_path, capsys, *argv) == one
    finally:
        release.set()
        if thread.is_alive():
            thread.join(timeout=30)
    assert not thread.is_alive()
    if fork is None:
        assert forks == [os.getpid()] * 2


def test_bs_columns_equal_scalar_evaluator_bitwise_over_repeated_values():
    # -0.0 beside 0.0, values repeated out of order, and skipped values among them
    b_values = [0.0, -0.0, 1.5, -0.0, 1.5, 0.0, -2.0, math.nan, 400.0, 1.5, 12.0]
    theta_values = [-0.0, 0.3, 0.0, 0.3, math.pi / 2, -0.0, 2.0, 0.3, 1e-4]
    b, theta = (m.ravel() for m in np.meshgrid(b_values, theta_values, indexing="ij"))
    alpha_sq, var_x, var_p, ok, reason = bs_columns(b, theta)
    for i, (b_i, theta_i) in enumerate(zip(b.tolist(), theta.tolist())):
        try:
            pt = bs_evaluate(BsParams(b_i, theta_i))
        except DomainError as exc:
            assert not ok[i] and reason[i] == str(exc)
            continue
        expected = np.array([pt.alpha_sq, pt.stats.var_x, pt.stats.var_p])
        assert ok[i] and reason[i] == ""
        assert np.array([alpha_sq[i], var_x[i], var_p[i]]).tobytes() == expected.tobytes()
    assert ok.sum() == 9 * 8  # the rows of the valid b and theta values


@pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
def test_seed_columns_skip_nonfinite_seeds_as_the_scalar_path(regime):
    # opa_columns skipped an infinite or NaN seed as a covariance overflow
    seeds = [math.inf, math.nan, -1.0, -math.inf, 0.5]
    seed, ones = np.array(seeds), np.ones(len(seeds))
    for columns, scalar in (
        (opa_columns(seed, ones, regime), lambda s: opa_evaluate(OpaParams(s, 1.0, regime), 1.0)),
        (opo_columns(0.5 * ones, seed, regime), lambda s: opo_evaluate(OpoParams(0.5, s, regime))),
    ):
        *_, ok, reason = columns
        assert ok.tolist() == [False] * 4 + [True]
        for i, s in enumerate(seeds[:4]):
            with pytest.raises(DomainError) as exc:
                scalar(s)
            assert reason[i] == str(exc.value) == f"seed_ratio must be finite and >= 0, got {s!r}"
        assert reason[4] == "" and scalar(0.5)


def test_table_views_read_like_records():
    table = frontier_module.sweep(
        SweepGrid(Method.OM_AMPLITUDE, (Axis("cc", 0.5, 4.0, 3), Axis("dd", 0.1, 0.9, 3)))
    )
    assert len(table) == 9 and len(table[2:5]) == 3
    assert table[-1].values == {"cc": 4.0, "dd": 0.9}
    assert table[-1].status == "skipped" and table[-1].point is None
    first = table[0]
    assert first.status == "ok" and first.skip_reason == ""
    assert first.point.params == {"cc": 0.5, "dd": 0.1, "n_bar": 0.0, "axis": "amplitude"}
    assert [r.values for r in table] == [table[i].values for i in range(9)]
    with pytest.raises(IndexError):
        table[9]
    # iteration builds views in blocks; rows on both sides of a block edge,
    # skipped rows among them, read as one at a time
    big = frontier_module.sweep(
        SweepGrid(Method.BEAM_SPLITTER, (Axis("b", 0.0, 1.0, 70), Axis("theta", 0.0, 2.0, 70)))
    )
    assert len(big) > frontier_module._VIEW_BLOCK and not big.ok.all()
    assert list(big) == [big[i] for i in range(len(big))]
    assert big[::-7] == [big[i] for i in range(len(big))[::-7]]
    assert big[-1] == big[len(big) - 1] and big[5:5] == []


def test_cutoff_is_per_seed_scan_in_either_axis_order():
    c0 = Axis("c0", 0.5, 0.95, 6)
    seed = Axis("seed_ratio", -0.5, 10.0, 40)  # negative seeds: domain skips first
    cut = {}
    for axes in ((c0, seed), (seed, c0)):
        table = frontier_module.sweep(SweepGrid(Method.OPO_AMPLITUDE, axes))
        rows = zip(table.values["c0"].tolist(), table.values["seed_ratio"].tolist())
        cut[axes[0].name] = {row for row, r in zip(rows, table.reason) if r == CUTOFF}
    assert cut["c0"] == cut["seed_ratio"]
    # the loop the cutoff replaced: per c0, the ok points in seed order,
    # cut from the first decrease of alpha_sq on
    expected = set()
    for c in c0.values().tolist():
        scan = []
        for s in seed.values().tolist():
            try:
                scan.append((s, scalar_point(Method.OPO_AMPLITUDE, {"c0": c, "seed_ratio": s})))
            except DomainError:
                continue
        drops = [i for i in range(1, len(scan)) if scan[i][1].alpha_sq < scan[i - 1][1].alpha_sq]
        expected |= {(c, s) for s, _ in scan[drops[0]:]} if drops else set()
    assert expected and cut["c0"] == expected


def test_cutoff_index_over_arrays():
    assert amplitude_cutoff_index(np.array([0.1, 0.2, 0.3])) is None
    assert amplitude_cutoff_index(np.array([0.1, 0.3, 0.3, 0.2])) == 3
    assert amplitude_cutoff_index(np.array([])) is None


def _root_50_digits(c0: float, seed_ratio: float, regime: Regime) -> Decimal:
    """alpha_sq from the cubic solved by Newton's method in 60-digit decimals,
    from the double-precision inputs taken exactly."""
    with localcontext() as ctx:
        ctx.prec = 60
        e_p = Decimal(c0) / 4
        if regime is Regime.PHASE_SQUEEZING:
            e_p = -e_p
        e_s = Decimal(seed_ratio) * abs(e_p)
        p, q = (1 + 4 * e_p) / 2, e_s
        a = -q / p  # the cubic is increasing (p > 0); the root lies in [-q/p, 0]
        for _ in range(200):
            step = (a * a * a + p * a + q) / (3 * a * a + p)
            a -= step
            if abs(step) <= abs(a) * Decimal("1e-55"):
                break
        return ((e_s + a) / e_p) ** 2


@pytest.mark.parametrize(
    "method, regime",
    [(Method.OPO_PHASE, Regime.PHASE_SQUEEZING),
     (Method.OPO_AMPLITUDE, Regime.AMPLITUDE_SQUEEZING)],
    ids=["phase", "amplitude"],
)
def test_opo_root_matches_50_digit_root(method, regime):
    table = frontier_module.sweep(default_grid(method))
    rows = [i for i in range(0, len(table), 7) if table.ok[i]]
    worst = 0.0
    for i in rows:
        c0, seed = float(table.values["c0"][i]), float(table.values["seed_ratio"][i])
        exact = _root_50_digits(c0, seed, regime)
        worst = max(worst, float(abs((Decimal(float(table.alpha_sq[i])) - exact) / exact)))
    # measured: 8.8e-14 (phase), 2.0e-13 (amplitude); Cardano alone gave
    # 5.4e-9 and 1.76e-7
    assert worst < 2e-12


def test_grid_over_the_work_cap_is_rejected_before_allocation():
    side = 2_000
    SweepGrid(Method.BEAM_SPLITTER, (Axis("b", 0, 1, side), Axis("theta", 0, 1, MAX_GRID_POINTS // side)))
    with pytest.raises(ConfigError, match="limit"):
        SweepGrid(
            Method.BEAM_SPLITTER,
            (Axis("b", 0, 1, side), Axis("theta", 0, 1, MAX_GRID_POINTS // side + 1)),
        )


def _limited() -> None:
    # a regression must fail fast, not fill the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--method", "bs", "--axis", "b=0:1:1000000000", "--axis", "theta=0:1:3",
         "--out", "-"),
        ("frontier", "--method", "opo_phase", "--axis", "c0=0.1:0.9:100000",
         "--axis", "seed_ratio=0.1:1:100000", "--out", "-"),
        ("opa-trajectory", "--seed-ratio", "0.1", "--t-max", "1e9", "--check-steps"),
        ("opa-trajectory", "--seed-ratio", "0.1", "--n-steps", "1000000000000",
         "--check-steps"),
        ("opa-trajectory", "--seed-ratio", "0.1", "--t-max", "inf"),
        ("frontier", "--method", "bs", "--bins", "1e-6:1:1000000000", "--out", "-"),
        ("opa-trajectory", "--seed-ratio", "0.1", "--samples", "1000000000000"),
    ],
    ids=["sweep", "frontier", "trajectory-t-max", "trajectory-n-steps", "trajectory-inf",
         "frontier-bins", "trajectory-samples"],
)
def test_work_cap_exits_2(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "sqzlab.cli", *argv], capture_output=True, text=True,
        timeout=60, preexec_fn=_limited,
    )
    assert proc.returncode == 2, proc.stderr
    assert "limit" in proc.stderr or "t_max must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr

"""Command-line front end: point evaluation, sweeps, frontiers, trajectories.

Subcommands
-----------
point           evaluate one operating point of a method
sweep           evaluate a parameter grid, emit CSV or JSON
frontier        sweep + optimal-squeezing envelopes, emit CSV/JSON/SVG
opa-trajectory  time series of one amplifier trajectory

Exit codes: 0 success, 2 configuration or domain error, 3 numerical
non-convergence. All file output is deterministic: rerunning an identical
configuration produces byte-identical files. Flags override values read
from an optional key=value config file, and the effective configuration
is echoed into the output metadata.

Parameter defaults used when an axis or flag is omitted: b=0, theta=0,
seed_ratio=0, n_bar=0. c0, cc and dd have no defaults and must be given.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .beamsplitter import BsParams, bs_evaluate, bs_uncertainty
from .core import (
    DomainError, MethodPoint, QuadratureStats, Regime, SqueezedAxis, distinct,
    squeeze_columns, squeeze_metrics, uncertainty,
)
from .frontier import (
    Axis,
    ConfigError,
    FrontierCurve,
    LogBins,
    Method,
    Spacing,
    SweepGrid,
    SweepTable,
    DEFAULT_THRESHOLDS,
    METHODS,
    frontier_suite,
    sweep,
)
from .opa import NonConvergenceError, OpaParams, opa_evaluate, opa_propagate
from .opo import OpoParams, opo_evaluate
from .optomech import OmParams, om_evaluate
from .svg import frontier_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3

RK4_STEPS_PER_UNIT_TIME = 4096  # the default of opa-trajectory --n-steps


def _fnum(x: float) -> str:
    """Shortest round-trip decimal form; deterministic across platforms."""
    return repr(float(x))


# ---------------------------------------------------------------- config


def read_config_file(path: str) -> dict[str, str]:
    """Parse a key = value file; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {path!r}: {reason}") from exc
    conf: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r};"
                f" expected one of {', '.join(SCHEMA)}"
            )
        conf[key] = value.strip()
    return conf


def parse_axis(spec: str) -> Axis:
    """Axis syntax: name=lo:hi:count[:linear|log]."""
    try:
        name, rest = spec.split("=", 1)
        fields = rest.split(":")
        lo, hi, count = float(fields[0]), float(fields[1]), int(fields[2])
        spacing = Spacing(fields[3]) if len(fields) > 3 else Spacing.LINEAR
    except (ValueError, IndexError) as exc:
        raise ConfigError(
            f"bad axis {spec!r}; expected name=lo:hi:count[:linear|log]"
        ) from exc
    return Axis(name.strip(), lo, hi, count, spacing)


def parse_axes(spec: str) -> tuple[Axis, ...]:
    """Axes joined by ';'."""
    return tuple(parse_axis(s) for s in spec.split(";") if s.strip())


def parse_bins(spec: str) -> LogBins:
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad bins {spec!r}; expected lo:hi:count") from exc
    return LogBins(lo, hi, count)


def parse_thresholds(spec: str) -> tuple[float, ...]:
    try:
        vals = tuple(
            math.inf if t.strip() in ("inf", "Infinity") else float(t)
            for t in spec.split(",")
            if t.strip()
        )
    except ValueError as exc:
        raise ConfigError(f"bad thresholds {spec!r}") from exc
    if not vals:
        raise ConfigError("thresholds list is empty")
    return vals


def parse_methods(spec: str) -> list[Method]:
    out = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            method = Method(name)
        except ValueError:
            valid = ", ".join(m.value for m in Method)
            raise ConfigError(f"unknown method {name!r}; expected one of {valid}")
        if method in out:
            raise ConfigError(f"method {name!r} is given twice")
        out.append(method)
    if not out:
        raise ConfigError("methods list is empty")
    return out


def parse_format(spec: str) -> str:
    if spec not in ("csv", "json", "svg"):
        raise ConfigError(f"unknown format {spec!r}; expected csv, json or svg")
    return spec


def parse_out(spec: str) -> str:
    if not spec or "\0" in spec:
        raise ConfigError(f"out must name a file, or '-' for stdout, got {spec!r}")
    return spec


def parse_seed_cap(spec: str) -> float:
    try:
        return float(spec)
    except ValueError as exc:
        raise ConfigError(f"bad seed_cap {spec!r}") from exc


# Each key a config file may set, in the order keys are parsed and listed:
# its parser and its default text (None: unset unless given). The sweep and
# frontier flags have the keys as their dests.
SCHEMA: dict[str, tuple[Callable[[str], object], str | None]] = {
    "methods": (parse_methods, None),
    "thresholds": (parse_thresholds, ",".join(map(str, DEFAULT_THRESHOLDS))),
    "bins": (parse_bins, "1e-6:1:200"),
    "format": (parse_format, "csv"),
    "out": (parse_out, None),
    "seed_cap": (parse_seed_cap, None),
    "axes": (parse_axes, None),
}


def _resolve_config(args: argparse.Namespace) -> tuple[dict[str, str], dict[str, object]]:
    """The text and the parsed value of each key that is set: from the config
    file, then from the flags given, then from the schema's defaults."""
    raw = read_config_file(args.config) if args.config else {}
    for key, (_, default) in SCHEMA.items():
        flag = getattr(args, key)
        if flag is not None:
            raw[key] = ";".join(flag) if key == "axes" else flag
        elif default is not None:
            raw.setdefault(key, default)
    return raw, {
        key: parse(raw[key]) for key, (parse, _) in SCHEMA.items() if key in raw
    }


# ---------------------------------------------------------------- output


def _point_lines(pt: MethodPoint) -> list[str]:
    m = squeeze_metrics(pt.stats)
    return [
        f"alpha_sq = {pt.alpha_sq:.12g}",
        f"var_x = {pt.stats.var_x:.12g}",
        f"var_p = {pt.stats.var_p:.12g}",
        f"squeeze_db = {m.squeeze_db:.12g}",
        f"uncertainty = {m.uncertainty:.12g}",
    ]


def _metadata_lines(config: dict[str, object]) -> list[str]:
    return [f"{k} = {config[k]}" for k in sorted(config)]


def _reprs(col: np.ndarray, json_numbers: bool = False) -> list[str]:
    """_fnum of each value of a column, from one repr of the whole list; with
    json_numbers, NaN and +-Infinity are spelled as json.dumps spells them."""
    text = repr(col.tolist())[1:-1]
    if json_numbers:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text.split(", ") if text else []


def _axis_reprs(col: np.ndarray, json_numbers: bool) -> np.ndarray:
    """_reprs of an axis column, each distinct value formatted once."""
    values, row_of = distinct(col)
    return np.array(_reprs(values, json_numbers), dtype=object)[row_of]


def _csv_field(text: str) -> str:
    """text as csv.writer's QUOTE_MINIMAL writes a field: in double quotes,
    inner ones doubled, where it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _joined(pieces: list) -> list[str]:
    """The text of each row: the str pieces as they are, and from each column
    piece (a list of str, one per row) the row's own item."""
    merged: list = []
    for piece in pieces:
        if isinstance(piece, str) and merged and isinstance(merged[-1], str):
            merged[-1] += piece
        else:
            merged.append(piece)
    columns = (itertools.repeat(p) if isinstance(p, str) else p for p in merged)
    return list(map("".join, zip(*columns)))


def _rows(
    table: SweepTable,
    ok_row: Callable[[list[list[str]], list[list[str]]], list],
    skipped_row: Callable[[list[str], list[list[str]]], list],
    json_numbers: bool = False,
) -> list[str]:
    """The text of each row of a table, in row order, one column formatted at
    a time.

    ok_row gets the text of the ok rows' alpha_sq, var_x, var_p, squeeze_db
    and uncertainty (as squeeze_metrics gives them) and of their axis values,
    and returns the pieces of those rows (see _joined); skipped_row gets the
    skipped rows' reasons (JSON strings with json_numbers, else CSV fields)
    and axis values.
    """
    ok = table.ok
    axes = [_axis_reprs(col, json_numbers) for col in table.values.values()]
    db, u = squeeze_columns(table.var_x[ok], table.var_p[ok])
    numbers = (table.alpha_sq[ok], table.var_x[ok], table.var_p[ok], db, u)
    good = _joined(ok_row(
        [_reprs(c, json_numbers) for c in numbers], [a[ok].tolist() for a in axes]
    ))
    if len(good) == len(ok):
        return good
    rows = np.empty(len(ok), dtype=object)
    rows[ok] = good
    del good
    reasons = table.reason[~ok].tolist()
    quote = encode_basestring_ascii if json_numbers else _csv_field
    text = {reason: quote(reason) for reason in set(reasons)}  # each one once
    quoted = [text[reason] for reason in reasons]
    rows[~ok] = _joined(skipped_row(quoted, [a[~ok].tolist() for a in axes]))
    return rows.tolist()


def _json_object(members: dict[str, list], depth: int) -> list:
    """The pieces of the object that json.dumps(indent=1, sort_keys=True)
    writes at nesting depth; each member maps to the pieces of its value."""
    if not members:
        return ["{}"]
    pieces: list = ["{"]
    for i, key in enumerate(sorted(members)):
        pad = "," * (i > 0) + "\n" + " " * (depth + 1)
        pieces += [pad, encode_basestring_ascii(key), ": ", *members[key]]
    return pieces + ["\n" + " " * depth + "}"]


def sweep_csv(method: Method, records: SweepTable, config: dict[str, object]) -> str:
    names = list(records.values)
    lines = [f"# {line}" for line in _metadata_lines(config)]
    lines.append(
        ",".join(
            ["method", *names, "alpha_sq", "var_x", "var_p", "squeeze_db",
             "uncertainty", "status", "skip_reason"]
        )
    )

    def fields(*columns: str | list[str]) -> list:
        return [piece for col in columns for piece in (",", col)][1:]

    lines.extend(_rows(
        records,
        lambda numbers, axes: fields(method.value, *axes, *numbers, "ok", ""),
        lambda reasons, axes: fields(method.value, *axes, *[""] * 5, "skipped", reasons),
    ))
    return "\n".join(lines) + "\n"


def sweep_json(method: Method, records: SweepTable, config: dict[str, object]) -> str:
    """The text of json.dumps(doc, indent=1, sort_keys=True), written from the
    columns: each point's keys are laid out once, in order, for every row."""
    names = list(records.values)
    tags = {key: [encode_basestring_ascii(v)] for key, v in records.tags.items()}

    def point(status: str, reasons: str | list[str], axes: list[list[str]]) -> dict:
        return {
            "method": [encode_basestring_ascii(method.value)],
            "values": _json_object({n: [col] for n, col in zip(names, axes)}, 3),
            "status": [encode_basestring_ascii(status)],
            "skip_reason": [reasons],
        }

    def ok_point(numbers: list[list[str]], axes: list[list[str]]) -> list:
        by_name = dict(zip(names, axes))
        params = {n: [by_name.get(n, "0.0")] for n in records.params} | tags
        keys = ("alpha_sq", "var_x", "var_p", "squeeze_db", "uncertainty")
        return _json_object(
            point("ok", encode_basestring_ascii(""), axes)
            | {key: [col] for key, col in zip(keys, numbers)}
            | {"params": _json_object(params, 3)},
            2,
        )

    def skipped_point(reasons: list[str], axes: list[list[str]]) -> list:
        return _json_object(point("skipped", reasons, axes), 2)

    doc = {"config": {k: str(v) for k, v in sorted(config.items())}, "points": []}
    head = json.dumps(doc, indent=1, sort_keys=True)  # ends in "[]\n}"
    points = ",\n  ".join(_rows(records, ok_point, skipped_point, json_numbers=True))
    if not points:
        return head + "\n"
    return f"{head[:-4]}[\n  {points}\n ]\n}}\n"


def points_from_json(text: str) -> list[MethodPoint]:
    """Re-ingest a sweep JSON document as a list of evaluated points."""
    doc = json.loads(text)
    out = []
    for entry in doc["points"]:
        if entry.get("status") != "ok":
            continue
        out.append(
            MethodPoint(
                alpha_sq=float(entry["alpha_sq"]),
                stats=QuadratureStats(float(entry["var_x"]), float(entry["var_p"])),
                params=entry.get("params", {}),
            )
        )
    return out


def frontier_csv(
    curves: Sequence[FrontierCurve], param_names: Sequence[str],
    config: dict[str, object],
) -> str:
    lines = [f"# {line}" for line in _metadata_lines(config)]
    lines.append(
        ",".join(["threshold", "alpha_sq_bin", "squeeze_db", "uncertainty",
                  *param_names])
    )
    for curve in curves:
        thr = "inf" if math.isinf(curve.threshold) else _fnum(curve.threshold)
        for p in curve.points:
            row = [thr, _fnum(p.alpha_sq), _fnum(p.squeeze_db), _fnum(p.uncertainty)]
            for name in param_names:
                v = p.params.get(name, "")
                row.append(_fnum(v) if isinstance(v, float) else str(v))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def frontier_json(
    curves: Sequence[FrontierCurve], config: dict[str, object]
) -> str:
    doc = {
        "config": {k: str(v) for k, v in sorted(config.items())},
        "curves": [
            {
                "threshold": ("inf" if math.isinf(c.threshold) else c.threshold),
                "points": [
                    {
                        "alpha_sq": p.alpha_sq,
                        "squeeze_db": p.squeeze_db,
                        "uncertainty": p.uncertainty,
                        "params": p.params,
                    }
                    for p in c.points
                ],
            }
            for c in curves
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


# ------------------------------------------------------------- commands


def cmd_point(args: argparse.Namespace) -> int:
    if args.method == "bs":
        pt = bs_evaluate(BsParams(b=args.b, theta=args.theta))
        extra = [f"bs_uncertainty = {bs_uncertainty(BsParams(args.b, args.theta)):.12g}"]
    elif args.method == "opo":
        if args.c0 is None:
            raise ConfigError("point opo requires --c0")
        pt = opo_evaluate(OpoParams(args.c0, args.seed_ratio, Regime(args.regime)))
        extra = []
    elif args.method == "opa":
        if not 0.0 <= args.tau < math.inf:
            raise ConfigError(f"tau must be finite and >= 0, got {args.tau!r}")
        params = OpaParams(args.seed_ratio, max(args.tau, 1e-12), Regime(args.regime))
        pt = opa_evaluate(params, args.tau)
        extra = []
    else:
        if args.cc is None or args.dd is None:
            raise ConfigError("point om requires --cc and --dd")
        axis = SqueezedAxis(args.axis)
        pt = om_evaluate(OmParams(args.cc, args.dd, args.nbar, axis))
        extra = []
    for line in _point_lines(pt) + extra:
        print(line)
    return EXIT_OK


def _grid_for(method: Method, conf: dict[str, object]) -> SweepGrid:
    axes = conf.get("axes", METHODS[method].axes)
    return SweepGrid(method, axes, conf.get("seed_cap"))


def _echo(command: str, grid: SweepGrid, **fields: object) -> dict[str, object]:
    """The effective configuration of one output; it reproduces the run."""
    echo: dict[str, object] = {
        "command": command, "method": grid.method.value, **fields,
        "axes": ";".join(
            f"{a.name}={_fnum(a.lo)}:{_fnum(a.hi)}:{a.count}:{a.spacing.value}"
            for a in grid.axes
        ),
        "tool_version": __version__,
    }
    if grid.seed_cap is not None:
        echo["seed_cap"] = grid.seed_cap
    return echo


def cmd_sweep(args: argparse.Namespace) -> int:
    raw, conf = _resolve_config(args)
    if "methods" not in conf:
        raise ConfigError("sweep requires --method")
    if len(conf["methods"]) != 1:
        raise ConfigError("sweep takes exactly one method")
    if conf["format"] == "svg":
        raise ConfigError("sweep cannot emit format 'svg'")
    method = conf["methods"][0]
    grid = _grid_for(method, conf)
    records = sweep(grid)
    echo = _echo("sweep", grid, format=raw["format"])
    write = sweep_json if conf["format"] == "json" else sweep_csv
    _write(conf.get("out"), write(method, records, echo))
    return EXIT_OK


def cmd_frontier(args: argparse.Namespace) -> int:
    raw, conf = _resolve_config(args)
    if "methods" not in conf:
        raise ConfigError("frontier requires --method or a config file with methods")
    methods, fmt, out_base = conf["methods"], conf["format"], conf.get("out")
    if out_base in (None, "-") and len(methods) > 1:
        raise ConfigError(
            "multi-method frontier requires out to name output files, not stdout"
        )

    grids = [_grid_for(method, conf) for method in methods]  # all checked first
    for method, grid in zip(methods, grids):
        curves = frontier_suite(grid, conf["thresholds"], conf["bins"])
        if all(len(c.points) == 0 for c in curves):
            print(
                f"warning: empty feasible set for {method.value} at all thresholds",
                file=sys.stderr,
            )
        echo = _echo(
            "frontier", grid,
            thresholds=raw["thresholds"], bins=raw["bins"], format=fmt,
        )
        if len(methods) == 1:
            path = out_base
        else:
            path = f"{out_base}_{method.value}.{fmt}"
        if fmt == "svg":
            text = frontier_svg(
                curves,
                title=f"optimal squeezing: {method.value}",
                metadata=_metadata_lines(echo),
            )
        elif fmt == "json":
            text = frontier_json(curves, echo)
        else:
            text = frontier_csv(curves, METHODS[method].params, echo)
        _write(path, text)
    return EXIT_OK


def cmd_opa_trajectory(args: argparse.Namespace) -> int:
    out = parse_out(args.out)
    params = OpaParams(args.seed_ratio, args.t_max, Regime(args.regime))
    if args.n_steps is not None and not args.check_steps:
        raise ConfigError("--n-steps is the step count of --check-steps; give both")
    steps = 0  # no RK4 check
    if args.check_steps:  # the product is inf for t_max past 4.4e304
        default = min(RK4_STEPS_PER_UNIT_TIME * args.t_max, sys.maxsize)
        steps = args.n_steps or max(2, round(default))
    traj = opa_propagate(params, args.samples, check_steps=steps)
    lines = [
        f"# command = opa-trajectory",
        f"# regime = {args.regime}",
        f"# seed_ratio = {args.seed_ratio}",
        f"# t_max = {args.t_max}",
        f"# samples = {args.samples}",
        *([f"# n_steps = {steps}"] if steps else []),
        "t,a_s,a_p,var_x_s,var_p_s,uncertainty",
    ]
    for i, t in enumerate(traj.times):
        s = traj.seed_stats(i)
        row = (t, traj.a_s[i], traj.a_p[i], s.var_x, s.var_p, uncertainty(s))
        lines.append(",".join(map(_fnum, row)))
    _write(out, "\n".join(lines) + "\n")
    return EXIT_OK


# --------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzlab",
        description="Brightness/squeezing/uncertainty trade-offs for "
        "squeezed-light sources.",
    )
    parser.add_argument("--version", action="version", version=f"sqzlab {__version__}")
    sub = parser.add_subparsers(dest="cmd")

    p_point = sub.add_parser("point", help="evaluate one operating point")
    p_point.add_argument("method", choices=("bs", "opo", "opa", "om"))
    p_point.add_argument("--b", type=float, default=0.0)
    p_point.add_argument("--theta", type=float, default=0.0)
    p_point.add_argument("--c0", type=float, default=None)
    p_point.add_argument("--seed-ratio", dest="seed_ratio", type=float, default=0.0)
    p_point.add_argument("--regime", default="phase", choices=[r.value for r in Regime])
    p_point.add_argument("--tau", type=float, default=0.0)
    p_point.add_argument("--cc", type=float, default=None)
    p_point.add_argument("--dd", type=float, default=None)
    p_point.add_argument("--nbar", type=float, default=0.0)
    p_point.add_argument(
        "--axis", default="amplitude", choices=[a.value for a in SqueezedAxis]
    )
    p_point.set_defaults(fn=cmd_point)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument(
        "--method", dest="methods", help="method name(s), comma separated"
    )
    common.add_argument(
        "--axis", dest="axes", action="append",
        help="axis as name=lo:hi:count[:linear|log]; repeatable",
    )
    common.add_argument("--thresholds", help="comma-separated uncertainty ceilings")
    common.add_argument("--bins", help="alpha_sq bins as lo:hi:count (log spaced)")
    common.add_argument("--format", help="csv, json or svg")
    common.add_argument("--out", help="output path ('-' = stdout)")
    common.add_argument("--seed-cap", dest="seed_cap")

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="evaluate a parameter grid"
    )
    p_sweep.set_defaults(fn=cmd_sweep)

    p_front = sub.add_parser(
        "frontier", parents=[common], help="optimal squeezing vs alpha_sq"
    )
    p_front.set_defaults(fn=cmd_frontier)

    p_traj = sub.add_parser(
        "opa-trajectory", parents=[], help="amplifier time series"
    )
    p_traj.add_argument("--seed-ratio", dest="seed_ratio", type=float, required=True)
    p_traj.add_argument("--regime", default="phase", choices=[r.value for r in Regime])
    p_traj.add_argument("--t-max", dest="t_max", type=float, default=6.0)
    p_traj.add_argument(
        "--n-steps", dest="n_steps", type=int, default=None,
        help="RK4 steps of --check-steps (default 4096 per unit of t_max)",
    )
    p_traj.add_argument("--samples", type=int, default=200, help="time-grid intervals")
    p_traj.add_argument(
        "--check-steps", dest="check_steps", action="store_true",
        help="integrate with RK4 over --n-steps steps; exit 3 if it departs from"
        " the closed form by more than 1e-6 (relative)",
    )
    p_traj.add_argument("--out", default="-")
    p_traj.set_defaults(fn=cmd_opa_trajectory)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "fn"):
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())

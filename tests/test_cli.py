import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sqzlab.cli import (
    SCHEMA, main, parse_axis, parse_bins, parse_thresholds, points_from_json, read_config_file,
)
from sqzlab.core import Regime
from sqzlab.frontier import METHODS, ConfigError, LogBins, Method, frontier, ok_points, sweep
from sqzlab.opa import OpaParams, opa_evaluate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split("=", 1)[1])
    raise AssertionError(f"{key} not in output:\n{out}")


def data_lines(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def test_point_bs(capsys):
    code, out, _ = run(capsys, "point", "bs", "--b", "1", "--theta", "0.7853981634")
    assert code == 0
    assert grab(out, "alpha_sq") == pytest.approx(0.5, abs=1e-9)
    assert grab(out, "var_x") == pytest.approx(0.5676676416183064, rel=1e-11)


def test_point_om_vacuum_limit(capsys):
    code, out, _ = run(capsys, "point", "om", "--cc", "2", "--dd", "0.5", "--nbar", "0")
    assert code == 0
    assert grab(out, "var_x") == 0.5
    assert grab(out, "var_p") == 2.0


def test_point_opo_domain_error(capsys):
    code, _, err = run(capsys, "point", "opo", "--c0", "1.5")
    assert code == 2
    assert "c0 must lie in (0, 1)" in err


def test_point_opa(capsys):
    code, out, _ = run(
        capsys, "point", "opa", "--seed-ratio", "0.05", "--tau", "0", "--regime",
        "amplitude",
    )
    assert code == 0
    assert grab(out, "alpha_sq") == pytest.approx(0.0025, rel=1e-12)
    assert grab(out, "uncertainty") == 1.0


@pytest.mark.parametrize("tau", ["-1", "inf", "nan"])
def test_point_opa_bad_tau_exits_2(capsys, tau):
    code, out, err = run(capsys, "point", "opa", "--seed-ratio", "0.05", "--tau", tau)
    assert (code, out) == (2, "")
    assert err == f"error: tau must be finite and >= 0, got {float(tau)!r}\n"


@pytest.mark.parametrize(
    "argv",
    [("opo", "--c0", "0.5"), ("opa", "--tau", "1")],
    ids=["opo", "opa"],
)
@pytest.mark.parametrize("seed", ["inf", "nan", "-1"])
def test_point_bad_seed_exits_2(capsys, argv, seed):
    # an infinite seed was refused as "seed_ratio must be >= 0"
    code, out, err = run(capsys, "point", *argv, "--seed-ratio", seed)
    assert (code, out) == (2, "")
    assert err == f"error: seed_ratio must be finite and >= 0, got {float(seed)!r}\n"


def test_sweep_csv_cardinality(tmp_path, capsys):
    out = tmp_path / "bs.csv"
    code, _, _ = run(
        capsys, "sweep", "--method", "bs", "--axis", "b=0:3:10",
        "--axis", "theta=0:1.5707:10", "--out", str(out),
    )
    assert code == 0
    lines = data_lines(out.read_text())
    assert len(lines) == 101  # header + 100 rows
    header = lines[0].split(",")
    assert header == [
        "method", "b", "theta", "alpha_sq", "var_x", "var_p", "squeeze_db",
        "uncertainty", "status", "skip_reason",
    ]


def test_sweep_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--method", "om_amplitude", "--axis", "cc=0.1:3:7:log",
            "--axis", "dd=0.1:1:7", "--format", "csv"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_opa_row_order(tmp_path, capsys):
    out = tmp_path / "opa.csv"
    code, _, _ = run(
        capsys, "sweep", "--method", "opa_phase", "--axis",
        "seed_ratio=0.01:0.1:2:log", "--axis", "tau=0:1:3", "--out", str(out),
    )
    assert code == 0
    rows = [l.split(",") for l in data_lines(out.read_text())[1:]]
    seeds = [float(r[1]) for r in rows]
    taus = [float(r[2]) for r in rows]
    assert seeds == [0.01, 0.01, 0.01, 0.1, 0.1, 0.1]  # seed outer
    assert taus == [0.0, 0.5, 1.0, 0.0, 0.5, 1.0]  # tau inner


def test_sweep_requires_single_method(capsys):
    code, _, err = run(capsys, "sweep", "--method", "bs,om_phase")
    assert code == 2
    assert "exactly one" in err


def test_json_round_trip_reproduces_frontier(tmp_path, capsys):
    out = tmp_path / "pts.json"
    code, _, _ = run(
        capsys, "sweep", "--method", "bs", "--axis", "b=0:4:12",
        "--axis", "theta=0.001:1.5:24:log", "--format", "json", "--out", str(out),
    )
    assert code == 0
    reloaded = points_from_json(out.read_text())
    from sqzlab.frontier import Axis, Method, Spacing, SweepGrid

    grid = SweepGrid(
        method=Method.BEAM_SPLITTER,
        axes=(Axis("b", 0.0, 4.0, 12), Axis("theta", 0.001, 1.5, 24, Spacing.LOG)),
    )
    direct = ok_points(sweep(grid))
    bins = LogBins(1e-5, 1.0, 50)
    assert frontier(reloaded, 2.0, bins) == frontier(direct, 2.0, bins)


def test_frontier_svg_output(tmp_path, capsys):
    out = tmp_path / "bs.svg"
    code, _, _ = run(
        capsys, "frontier", "--method", "bs", "--axis", "b=0:6:25",
        "--axis", "theta=0.001:1.57:60:log", "--thresholds", "1.1,2",
        "--format", "svg", "--out", str(out),
    )
    assert code == 0
    doc = xml.dom.minidom.parse(str(out))
    polylines = doc.getElementsByTagName("polyline")
    assert len(polylines) == 2
    for pl in polylines:
        for pair in pl.getAttribute("points").split():
            x, y = pair.split(",")
            assert math.isfinite(float(x)) and math.isfinite(float(y))


def test_frontier_csv_columns_and_values(tmp_path, capsys):
    out = tmp_path / "bs.csv"
    code, _, _ = run(
        capsys, "frontier", "--method", "bs", "--axis", "b=0:8:33",
        "--axis", "theta=0.001:1.57:80:log", "--thresholds", "inf",
        "--bins", "1e-4:1:40", "--out", str(out),
    )
    assert code == 0
    lines = data_lines(out.read_text())
    assert lines[0].split(",") == [
        "threshold", "alpha_sq_bin", "squeeze_db", "uncertainty", "b", "theta",
    ]
    rows = [l.split(",") for l in lines[1:]]
    assert rows
    for r in rows:
        assert r[0] == "inf"
        a2, db = float(r[1]), float(r[2])
        if a2 < 0.3:
            assert db == pytest.approx(-10.0 * math.log10(a2), abs=1.2)


def test_frontier_empty_feasible_set(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code, _, err = run(
        capsys, "frontier", "--method", "bs", "--axis", "b=1:2:4",
        "--axis", "theta=0.3:1.2:4", "--thresholds", "1.0", "--out", str(out),
    )
    assert code == 0
    assert "empty feasible set" in err
    assert len(data_lines(out.read_text())) == 1  # header only, still valid


def test_frontier_multi_method_config_file(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "methods = bs, om_amplitude\n"
        "thresholds = 1.1, 2\n"
        "bins = 1e-4:1:30\n"
        "format = csv\n"
        f"out = {tmp_path}/multi\n"
        "axes = b=0:4:10;theta=0.01:1.57:20:log\n"  # applies to bs only if single
    )
    # per-method axes are ambiguous for multi-method runs, so use defaults:
    conf.write_text(
        "methods = bs, om_amplitude\n"
        "thresholds = 1.1, 2\n"
        "bins = 1e-3:1:20\n"
        "format = csv\n"
        f"out = {tmp_path}/multi\n"
    )
    code, _, _ = run(capsys, "frontier", "--config", str(conf))
    assert code == 0
    assert (tmp_path / "multi_bs.csv").exists()
    assert (tmp_path / "multi_om_amplitude.csv").exists()


def test_config_flags_override_file(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("methods = bs\nthresholds = 1.5\nformat = csv\n")
    out = tmp_path / "o.csv"
    code, _, _ = run(
        capsys, "frontier", "--config", str(conf), "--thresholds", "2.5",
        "--axis", "b=0:2:5", "--axis", "theta=0.1:1.5:5", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert "# thresholds = 2.5" in text
    assert all(l.split(",")[0] == "2.5" for l in data_lines(text)[1:])


def test_opa_trajectory_columns(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys, "opa-trajectory", "--seed-ratio", "0.05", "--t-max", "2",
        "--samples", "16", "--out", str(out),
    )
    assert code == 0
    lines = data_lines(out.read_text())
    assert lines[0] == "t,a_s,a_p,var_x_s,var_p_s,uncertainty"
    assert len(lines) == 1 + 17
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.05, 1.0, 1.0, 1.0, 1.0]
    for line in lines[1:]:
        assert all(math.isfinite(float(v)) for v in line.split(","))


def test_opa_trajectory_rows_are_exact_samples(capsys):
    code, out, _ = run(
        capsys, "opa-trajectory", "--seed-ratio", "0.05", "--t-max", "6", "--samples", "200",
    )
    assert code == 0
    assert "# samples = 200" in out and "n_steps" not in out
    rows = [[float(v) for v in line.split(",")] for line in data_lines(out)[1:]]
    assert [r[0] for r in rows] == np.linspace(0.0, 6.0, 201).tolist()
    params = OpaParams(0.05, 6.0, Regime.PHASE_SQUEEZING)
    for t, a_s, _, var_x, var_p, u in rows:
        pt = opa_evaluate(params, t)
        assert (a_s**2, var_x, var_p) == (pt.alpha_sq, pt.stats.var_x, pt.stats.var_p)
        assert u == pt.uncertainty


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--samples", "-3"), "samples must be >= 1 and within the limit"),
        (("--samples", "0"), "samples must be >= 1 and within the limit"),
        (("--n-steps", "512"), "--n-steps is the step count of --check-steps"),
        (("--n-steps", "1", "--check-steps"), "an RK4 check takes from 2 steps"),
        (("--t-max", "1e9"), "noise covariance overflows double precision"),
    ],
    ids=["negative-samples", "zero-samples", "n-steps-without-check", "one-n-step",
         "overflow"],
)
def test_opa_trajectory_bad_requests_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "opa-trajectory", "--seed-ratio", "0.1", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_opa_trajectory_nonconvergence_exit_code(capsys):
    code, _, err = run(
        capsys, "opa-trajectory", "--seed-ratio", "0.3", "--t-max", "6",
        "--n-steps", "4", "--check-steps", "--out", "-",
    )
    assert code == 3
    assert "n_steps" in err


def test_all_emitted_numbers_finite(tmp_path, capsys):
    out = tmp_path / "om.csv"
    code, _, _ = run(
        capsys, "frontier", "--method", "om_phase", "--thresholds", "1.01,2,10",
        "--out", str(out),
    )
    assert code == 0
    for line in data_lines(out.read_text())[1:]:
        fields = line.split(",")
        for v in fields[:4]:
            assert math.isfinite(float(v))


def test_parse_helpers():
    ax = parse_axis("b=0.1:3:11:log")
    assert (ax.name, ax.lo, ax.hi, ax.count) == ("b", 0.1, 3.0, 11)
    assert parse_bins("1e-5:1:100").count == 100
    assert parse_thresholds("1.1, 2, inf") == (1.1, 2.0, math.inf)
    with pytest.raises(ConfigError):
        parse_axis("b=0:3")
    with pytest.raises(ConfigError):
        parse_thresholds("abc")


def test_config_file_parse(tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("# comment\nmethods = bs\n\nthresholds = 1.1, 2 # trailing\n")
    conf = read_config_file(str(p))
    assert conf == {"methods": "bs", "thresholds": "1.1, 2"}
    p.write_text("not a kv line\n")
    with pytest.raises(ConfigError):
        read_config_file(str(p))


def cli_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "sqzlab.cli", *argv], capture_output=True, text=True,
    )


def test_bad_seed_cap_in_config_exits_2(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("methods = opa_phase\nseed_cap = abc\n")
    proc = cli_subprocess("frontier", "--config", str(conf), "--out", "-")
    assert proc.returncode == 2
    assert "seed_cap" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "method, axis, missing",
    [
        ("opo_phase", "seed_ratio=0.1:1:3", "c0"),
        ("om_phase", "cc=0.1:1:3", "dd"),
        ("opa_phase", "seed_ratio=0.1:1:3", "tau"),
    ],
)
def test_sweep_missing_required_axis_exits_2(method, axis, missing):
    proc = cli_subprocess("sweep", "--method", method, "--axis", axis, "--out", "-")
    assert proc.returncode == 2
    assert missing in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("route", ["flag", "config"])
def test_nan_seed_cap_exits_2(tmp_path, route):
    argv = ["sweep", "--out", "-"]
    if route == "flag":
        argv += ["--method", "opa_phase", "--seed-cap", "nan"]
    else:
        conf = tmp_path / "run.conf"
        conf.write_text("methods = opa_phase\nseed_cap = nan\n")
        argv += ["--config", str(conf)]
    proc = cli_subprocess(*argv, "--axis", "seed_ratio=0.1:1:3", "--axis", "tau=0:1:3")
    assert proc.returncode == 2
    assert "seed_cap must be a number, got nan" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_point_opa_huge_tau_is_bounded(capsys):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "point", "opa", "--seed-ratio", "0.1", "--tau", "1e9")
    assert time.perf_counter() - t0 < 0.25
    assert code == 2
    assert "overflows double precision" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("point", "bs", "--b", "400"), "|b| must be at most 354.891356446692"),
        (("point", "om", "--cc", "1e-200", "--dd", "0"),
         "alpha_sq must be finite and >= 0, got inf"),
        (("sweep", "--method", "bs", "--axis", "b=0:400:3", "--axis", "theta=0:1:3",
          "--out", "-"), None),
        (("point", "om", "--cc", "1", "--dd", "0.5", "--nbar", "1e160"),
         "var_x*var_p must be finite, got inf"),
    ],
    ids=["bs-overflow", "om-underflow", "bs-sweep-overflow", "om-product-overflow"],
)
def test_overflow_and_underflow_are_domain_errors(argv, message):
    proc = cli_subprocess(*argv)
    assert "Traceback" not in proc.stderr
    if message is None:  # a sweep skips the row with the scalar path's message
        assert proc.returncode == 0
        skipped = [l for l in proc.stdout.splitlines() if l.startswith("bs,400.0,")]
        assert len(skipped) == 3
        assert all(',skipped,"|b| must be at most 354.891356446692, ' in l for l in skipped)
    else:
        assert proc.returncode == 2
        assert message in proc.stderr


def test_sweep_skips_om_rows_whose_uncertainty_overflows_without_warning():
    proc = cli_subprocess(
        "sweep", "--method", "om_amplitude", "--axis", "cc=0.5:1:2", "--axis", "dd=0.5:1:2",
        "--axis", "n_bar=1e150:1e160:2", "--out", "-",
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = data_lines(proc.stdout)[1:]
    skipped = [r for r in rows if ",1e+160," in r]
    assert len(rows) == 8 and len(skipped) == 4
    assert all(r.endswith(',skipped,"var_x*var_p must be finite, got inf"') for r in skipped)
    assert all(",ok," in r for r in rows if r not in skipped)


def test_unknown_config_key_rejected(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("methods = bs\nthreshold = 1.5\n")
    code, _, err = run(capsys, "frontier", "--config", str(conf), "--out", "-")
    assert code == 2
    assert "'threshold'" in err
    assert "methods, thresholds, bins, format, out, seed_cap, axes" in err


def test_echoed_axes_reproduce_default_grid_sweep(tmp_path, capsys):
    default, echoed = tmp_path / "default.csv", tmp_path / "echoed.csv"
    assert main(["sweep", "--method", "bs", "--out", str(default)]) == 0
    head = default.read_text().split("\n", 1)[0]
    assert head.startswith("# axes = ")
    axes = head[len("# axes = "):].split(";")
    assert f"theta=0.0001:{math.pi / 2!r}:400:log" in axes
    argv = ["sweep", "--method", "bs", "--out", str(echoed)]
    for spec in axes:
        argv += ["--axis", spec]
    assert main(argv) == 0
    capsys.readouterr()
    assert echoed.read_bytes() == default.read_bytes()


@pytest.mark.parametrize("command", ["sweep", "frontier"])
@pytest.mark.parametrize("cap", [(), ("--seed-cap", "0.5")], ids=["no-cap", "cap"])
def test_echo_keys_are_config_keys(capsys, command, cap):
    code, out, _ = run(
        capsys, command, "--method", "opa_phase", "--axis", "seed_ratio=0.1:1:3",
        "--axis", "tau=0:1:3", *cap, "--out", "-",
    )
    assert code == 0
    echo = dict(l[2:].split(" = ", 1) for l in out.splitlines() if l.startswith("# "))
    assert set(echo) - {"command", "method", "tool_version"} <= set(SCHEMA)
    assert echo.get("seed_cap") == (cap[1] if cap else None)


def test_echo_only_keys_read_back(tmp_path, capsys):
    grid = ("--axis", "b=0:1:2", "--axis", "theta=0:1:2")
    code, out, _ = run(capsys, "sweep", "--method", "bs", *grid, "--out", "-")
    assert code == 0
    echo = [l[2:] for l in out.splitlines() if l.startswith("# ")]
    assert {l.split(" = ")[0] for l in echo} >= {"command", "method", "tool_version"}
    conf = tmp_path / "echo.conf"
    other_version = ["tool_version = 0.0.0" if l.startswith("tool_version") else l for l in echo]
    conf.write_text("\n".join(other_version) + "\n")
    assert run(capsys, "sweep", "--config", str(conf), "--out", "-") == (0, out, "")
    code, again, err = run(capsys, "frontier", "--config", str(conf), "--out", "-")
    assert (code, again) == (2, "")
    assert err == "error: the config file is for command 'sweep', not 'frontier'\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sqzlab.cli", "point", "om", "--cc", "1", "--dd",
         "0.25"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "alpha_sq = 0.198529411765" in proc.stdout


def test_bad_threshold_exits_2_before_sweeping(capsys, monkeypatch):
    def no_sweep(grid):
        raise AssertionError("sweep ran for a rejected threshold")

    monkeypatch.setattr(importlib.import_module("sqzlab.frontier"), "sweep", no_sweep)
    code, _, err = run(
        capsys, "frontier", "--method", "opo_phase", "--thresholds", "0.5", "--out", "-"
    )
    assert code == 2
    assert "threshold must be >= 1" in err
    assert "Traceback" not in err


def test_infinite_bin_edge_exits_2():
    proc = cli_subprocess(
        "frontier", "--method", "bs", "--bins", "1e-6:inf:5", "--thresholds", "2",
        "--axis", "b=0:1:3", "--axis", "theta=0.1:1:3", "--out", "-",
    )
    assert proc.returncode == 2
    assert "bins need" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, conf_text, message",
    [
        (("sweep", "--method", "bs", "--format", "xml"), None, "unknown format 'xml'"),
        (("frontier", "--method", "bs", "--format", "xml"), None, "unknown format 'xml'"),
        (("sweep", "--method", "bs", "--format", "svg"), None,
         "sweep cannot emit format 'svg'"),
        (("sweep", "--method", "opa_phase", "--seed-cap", "abc"), None,
         "bad seed_cap 'abc'"),
        (("sweep", "--method", "bs", "--out", ""), None, "out must name a file"),
        (("sweep",), "methods = bs\nout = \x00\n", "out must name a file"),
        (("sweep",), "methods = bs\nbins = 1e-6:1\n", "bad bins '1e-6:1'"),
        (("sweep", "--method", "bs", "--config", "missing.conf"), None,
         "cannot read config file 'missing.conf': No such file or directory"),
        # an infinite bound, or a span hi - lo that overflows, is never swept
        (("sweep", "--method", "bs", "--axis", "b=0:inf:3"), None,
         "axis 'b' needs a finite span hi - lo"),
        (("sweep", "--method", "bs", "--axis", "b=-1e308:1e308:3"), None,
         "axis 'b' needs a finite span hi - lo"),
        (("sweep", "--method", "opa_phase", "--axis", "seed_ratio=0:inf:3"), None,
         "axis 'seed_ratio' needs a finite span hi - lo"),
        # a seed cap on a grid with no seed_ratio axis caps nothing
        (("sweep", "--method", "bs", "--seed-cap", "0.5"), None,
         "seed_cap caps a seed_ratio axis; the bs grid has none"),
        (("frontier", "--method", "bs,opo_phase", "--seed-cap", "1", "--out", "run"), None,
         "seed_cap caps a seed_ratio axis; the bs grid has none"),
        (("frontier", "--method", "bs,bs", "--out", "run"), None, "method 'bs' is given twice"),
        # 10**log10(hi) rounds past the largest double: the last value was inf
        (("sweep", "--method", "bs", "--axis", "b=1:1.7976931348623157e308:3:log"), None,
         "log axis 'b' needs 10**log10(hi) finite"),
    ],
    ids=["sweep-format", "frontier-format", "sweep-svg", "seed-cap", "empty-out",
         "nul-out", "sweep-bad-bins", "missing-config", "inf-axis", "overflowing-axis",
         "inf-seed-axis", "unseeded-seed-cap", "multi-method-unseeded-seed-cap",
         "repeated-method", "overflowing-log-axis"],
)
def test_schema_rejects_bad_values_before_sweeping(
    tmp_path, capsys, monkeypatch, argv, conf_text, message
):
    monkeypatch.chdir(tmp_path)
    for module in ("sqzlab.cli", "sqzlab.frontier"):
        monkeypatch.setattr(importlib.import_module(module), "sweep", None)
    if conf_text is not None:
        (tmp_path / "run.conf").write_text(conf_text)
        argv += ("--config", "run.conf")
    code, out, err = run(capsys, *argv, "--axis", "b=0:1:2", "--axis", "theta=0:1:2")
    assert (code, out) == (2, "")
    assert message in err
    assert list(tmp_path.iterdir()) == ([tmp_path / "run.conf"] if conf_text else [])


def test_multi_method_frontier_checks_every_grid_before_writing(tmp_path, capsys):
    code, _, err = run(
        capsys, "frontier", "--method", "bs,om_phase", "--axis", "b=0:1:2",
        "--axis", "theta=0.1:1:2", "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert "unknown parameter 'b' for method om_phase" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep", "frontier"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    (tmp_path / "file").write_text("")
    for out in (tmp_path, tmp_path / "file" / "run.csv"):  # a directory; under a file
        code, stdout, err = run(
            capsys, command, "--method", "bs", "--axis", "b=0:1:2",
            "--axis", "theta=0:1:2", "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write {str(out)!r}: ")
        assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


# Runs main in a fresh interpreter with text already buffered on stdout; the
# writers make two parts on any host. It reports on stderr a child process
# left behind after main returns.
_MAIN_AFTER_BUFFERED_TEXT = """
import os, sys
import sqzlab.cli as cli
cli.os.sched_getaffinity = lambda pid: {0, 1}
sys.stdout.write("buffered before main\\n")
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    sys.stderr.write("a child process was left behind\\n")
except ChildProcessError:
    pass
sys.exit(code)
"""


def main_subprocess(*argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-c", _MAIN_AFTER_BUFFERED_TEXT, *argv],
        capture_output=True, text=True, env=env,
    )


def test_sweep_to_stdout_writes_the_bytes_of_its_file(tmp_path):
    out = tmp_path / "opo_amplitude.csv"
    to_file = cli_subprocess("sweep", "--method", "opo_amplitude", "--out", str(out))
    to_stdout = subprocess.run(
        [sys.executable, "-m", "sqzlab.cli", "sweep", "--method", "opo_amplitude",
         "--out", "-"],
        capture_output=True,
    )
    assert (to_file.returncode, to_stdout.returncode) == (0, 0)
    assert (to_file.stdout, to_file.stderr, to_stdout.stderr) == ("", "", b"")
    assert to_stdout.stdout == out.read_bytes()


def test_text_buffered_before_main_is_written_once(tmp_path):
    grid = ("--method", "bs", "--axis", "b=0:3:100", "--axis", "theta=0.1:1.5:100")
    out = tmp_path / "bs.json"
    assert main(["sweep", *grid, "--format", "json", "--out", str(out)]) == 0
    proc = main_subprocess("sweep", *grid, "--format", "json", "--out", "-")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "buffered before main\n" + out.read_text()


def test_unwritable_out_exits_2_and_leaves_no_child(tmp_path):
    proc = main_subprocess("sweep", "--method", "opo_amplitude", "--out", str(tmp_path))
    assert (proc.returncode, proc.stdout) == (2, "buffered before main\n")
    assert proc.stderr.startswith(f"error: cannot write {str(tmp_path)!r}: ")
    assert proc.stderr.count("\n") == 1  # no traceback, no child left


def test_multi_method_frontier_to_stdout_exits_2_before_sweeping(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    for module in ("sqzlab.cli", "sqzlab.frontier"):
        monkeypatch.setattr(importlib.import_module(module), "sweep", None)
    code, out, err = run(
        capsys, "frontier", "--method", "opo_phase,opo_amplitude",
        "--axis", "c0=0.1:0.9:2", "--out", "-",
    )
    assert (code, out) == (2, "")
    assert "multi-method frontier requires out to name output files" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_writes_to_the_config_files_out(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"methods = bs\nout = {tmp_path / 'bs.csv'}\naxes = b=0:1:2;theta=0:1:2\n")
    code, out, _ = run(capsys, "sweep", "--config", str(conf))
    assert (code, out) == (0, "")
    assert len(data_lines((tmp_path / "bs.csv").read_text())) == 5


# Generated sweep/frontier runs: a valid run, every key a flag or a config
# line, and in about half the runs one key or line made malformed. Axes are
# always set, at most 4 values each, so no run falls back to a full default grid.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
_VALID = {
    "thresholds": st.lists(st.sampled_from(("1", "1.1", "2", "inf")), min_size=1, max_size=4)
    .map(",".join),
    "bins": st.builds("{}:{}:{}".format, st.sampled_from(("1e-6", "1e-3")),
                      st.sampled_from(("1", "10")), st.integers(1, 50)),
    "format": st.sampled_from(("csv", "json", "svg")),
    "out": st.sampled_from(("run.out", "sub/run", "-", ".")),  # "." is a directory
    "seed_cap": st.sampled_from(("1", "0.01", "inf")),
}
_MALFORMED = {
    "methods": ("", "xyz", "bs,,q"),
    "thresholds": ("", "0.5", "nan", "1;2"),
    "bins": ("0:1:5", "1e-6:inf:5", "1e-6:1:0", "1e-6:1", "1:1e-6:5"),
    "format": ("xml", ""),
    "out": ("", "\x00"),
    "seed_cap": ("nan", "abc", ""),
    "axes": ("q=0.1:1:2", "b=0:1", "tau=1:0:3", "c0=0:1:x", "cc=-1:1:2:log"),
    "line": ("threshold = 2", "no equals sign", "axes"),
}
_FLAGS = {"methods": "--method", "thresholds": "--thresholds", "bins": "--bins",
          "format": "--format", "out": "--out", "seed_cap": "--seed-cap"}


def _axis(name):
    return st.builds(
        "{}={}:{}:{}{}".format, st.just(name), st.sampled_from(("0.1", "0.5")),
        st.sampled_from(("0.9", "2")), st.integers(2, 4),
        st.sampled_from(("", ":linear", ":log")),
    )


@st.composite
def _runs(draw):
    command = draw(st.sampled_from(("sweep", "frontier")))
    spec = METHODS[draw(st.sampled_from(list(Method)))]
    family = [m.value for m, s in METHODS.items() if s.params == spec.params]
    methods = draw(st.lists(st.sampled_from(family), min_size=1, max_size=2, unique=True))
    names = draw(st.lists(st.sampled_from(spec.params), unique=True))
    names = list(dict.fromkeys([*spec.required, *names]))
    text = {"methods": ",".join(methods)}
    text |= {key: draw(strategy) for key, strategy in _VALID.items()}
    text["axes"] = ";".join(draw(_axis(name)) for name in names)
    if "seed_ratio" not in names:  # a cap without a seed axis is malformed
        del text["seed_cap"]
    if command == "sweep" and text["format"] == "svg":
        text["format"] = "csv"
    lines = ["# generated"]
    malformed = draw(st.booleans())
    if malformed:
        key = draw(st.sampled_from(list(_MALFORMED)))
        bad = draw(st.one_of(st.sampled_from(_MALFORMED[key]), _TEXT))
        if key == "line":
            lines.append(bad)
        else:
            text[key] = bad
    argv = [command]
    for key, value in text.items():
        if key == "axes" and draw(st.booleans()):
            argv += [arg for spec in value.split(";") for arg in ("--axis", spec)]
        elif key != "axes" and draw(st.booleans()):
            argv += [_FLAGS[key], value]
        else:
            lines.append(f"{key} = {value}")
    return argv, "\n".join(lines) + "\n", malformed


def _echo_of(text):
    """The settings an output echoes: a CSV's '# ' lines, a JSON document's
    config, an SVG's desc."""
    if text.startswith("{"):
        return json.loads(text)["config"]
    if text.startswith("<"):
        desc = xml.dom.minidom.parseString(text).getElementsByTagName("desc")[0]
        lines = desc.firstChild.data.splitlines()
    else:
        lines = [l[2:] for l in text.splitlines() if l.startswith("# ")]
    return dict(l.split(" = ", 1) for l in lines)


def assert_echo_reproduces(output: bytes):
    """Fed back as a config file, the echo of an output writes the same bytes."""
    echo = _echo_of(output.decode("utf-8"))
    conf = "".join(f"{key} = {value}\n" for key, value in echo.items())
    Path("echo.conf").write_text(conf, encoding="utf-8")
    with np.errstate(all="ignore"):
        assert main([echo["command"], "--config", "echo.conf", "--out", "again"]) == 0
    assert Path("again").read_bytes() == output


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_runs())
def test_generated_runs_keep_the_exit_contract(tmp_path, capsys, monkeypatch, run_spec):
    """Every run exits 0, 2 or 3 without a traceback, and the echo of each
    output of a valid run reproduces it byte for byte."""
    argv, conf_text, malformed = run_spec
    work = Path(tempfile.mkdtemp(dir=tmp_path))  # one per example
    monkeypatch.chdir(work)
    (work / "run.conf").write_text(conf_text, encoding="utf-8")
    try:
        with np.errstate(all="ignore"):
            code = main([*argv, "--config", "run.conf"])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
        assert code == 2
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0 and not malformed:
        outputs = [p.read_bytes() for p in work.rglob("*") if p.is_file() and p.name != "run.conf"]
        outputs += [out.encode("utf-8")] if out else []
        assert outputs
        for output in outputs:
            assert_echo_reproduces(output)
            capsys.readouterr()

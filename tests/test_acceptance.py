"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py`; the per-criterion PASS/FAIL
lines are echoed in the terminal summary (see conftest.py) and printed
inline with -s.

Criterion 2 note: the optomechanical closed forms report an unphysical
sub-unity uncertainty product over part of their documented grid (they
are asymptotic expressions, exact only near the zero-displacement
limit). The uncertainty-floor check for that method therefore fails, is
expected to fail, and is deliberately not weakened; the other three
methods hold the floor. See README "Known limitations".
"""

import math
import time
import xml.dom.minidom

import numpy as np
import pytest

from sqzlab.beamsplitter import BsParams, bs_evaluate, bs_uncertainty
from sqzlab.cli import main
from sqzlab.core import Regime, SqueezedAxis, squeeze_metrics, uncertainty
from sqzlab.frontier import (
    Axis,
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
from sqzlab.opa import OpaParams, mean_fields, opa_evaluate, propagate_batch
from sqzlab.opo import OpoParams, opo_evaluate, perturbative_gain, perturbative_stats
from sqzlab.optomech import OmParams, cooperativity_for_alpha_sq, om_evaluate, om_leading_order
from sqzlab.oracle import (
    apply_beamsplitter,
    apply_displacement,
    apply_squeeze,
    mean_field_ode,
    mode_variances,
    vacuum,
)

CRITERION_LINES: list[str] = []

PHASE = Regime.PHASE_SQUEEZING
AMP = Regime.AMPLITUDE_SQUEEZING


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


# ------------------------------------------------------------ criterion 1


def test_criterion_01_beamsplitter_oracle_equivalence():
    t0 = time.perf_counter()
    worst_var = 0.0
    worst_forms = 0.0
    for b in np.linspace(0.0, 3.0, 50):
        for theta in np.linspace(0.0, math.pi / 2, 50):
            p = BsParams(b=float(b), theta=float(theta))
            pt = bs_evaluate(p)
            state = apply_squeeze(vacuum(2), 0, float(b))
            state = apply_displacement(state, 1, 50.0)
            state = apply_beamsplitter(state, 0, 1, float(theta))
            vx, vp = mode_variances(state, 0)
            worst_var = max(
                worst_var, abs(pt.stats.var_x - vx), abs(pt.stats.var_p - vp)
            )
            alt = math.sqrt(
                1.0
                + 2.0
                * math.cos(theta) ** 2
                * math.sin(theta) ** 2
                * (math.cosh(2.0 * b) - 1.0)
            )
            worst_forms = max(worst_forms, abs(bs_uncertainty(p) - alt))
    elapsed = time.perf_counter() - t0
    ok = worst_var < 1e-10 and worst_forms < 1e-12 and elapsed < 1.0
    report(
        1,
        ok,
        f"beam-splitter oracle equivalence on 50x50 grid "
        f"(max var err {worst_var:.2e} < 1e-10, uncertainty forms agree to "
        f"{worst_forms:.2e} < 1e-12, {elapsed:.2f} s < 1 s)",
    )


# ------------------------------------------------------------ criterion 2


def _heisenberg_bs() -> tuple[int, float]:
    low = math.inf
    for b in np.linspace(0.0, 3.0, 101):
        for theta in np.linspace(0.0, math.pi / 2, 101):
            pt = bs_evaluate(BsParams(b=float(b), theta=float(theta)))
            low = min(low, uncertainty(pt.stats))
    return 101 * 101, low


def _heisenberg_opo() -> tuple[int, float]:
    low = math.inf
    n = 0
    for regime in (PHASE, AMP):
        for c0 in np.linspace(0.01, 0.99, 100):
            for sr in np.logspace(-8, 1.0, 100):
                pt = opo_evaluate(OpoParams(float(c0), float(sr), regime))
                low = min(low, uncertainty(pt.stats))
                n += 1
    return n, low


def _heisenberg_opa() -> tuple[int, float]:
    low = math.inf
    n = 0
    seeds = np.logspace(-3, math.log10(0.5), 40)
    for regime in (PHASE, AMP):
        for traj in propagate_batch(list(seeds), regime, 4.0, 16384):
            idx = np.linspace(0, len(traj.times) - 1, 128).astype(int)
            u = np.sqrt(traj.cov_x[idx, 0, 0] * traj.cov_p[idx, 0, 0])
            low = min(low, float(u.min()))
            n += len(idx)
    return n, low


def _heisenberg_om() -> tuple[int, float, tuple[float, float, float]]:
    low = math.inf
    argmin = (0.0, 0.0, 0.0)
    n = 0
    for n_bar in (0.0, 1.0, 10.0):
        for cc in np.logspace(-2, 1.0, 100):
            for dd in np.linspace(0.01, 1.0, 100):
                if cc * dd > 1.0:
                    continue
                pt = om_evaluate(OmParams(float(cc), float(dd), n_bar))
                u = uncertainty(pt.stats)
                n += 1
                if u < low:
                    low, argmin = u, (float(cc), float(dd), n_bar)
    return n, low, argmin


def test_criterion_02_heisenberg_suite():
    t0 = time.perf_counter()
    n_bs, low_bs = _heisenberg_bs()
    n_opo, low_opo = _heisenberg_opo()
    n_opa, low_opa = _heisenberg_opa()
    n_om, low_om, om_at = _heisenberg_om()
    elapsed = time.perf_counter() - t0
    floor = 1.0 - 1e-9
    parts = []
    for name, n, low in (
        ("bs", n_bs, low_bs),
        ("opo", n_opo, low_opo),
        ("opa", n_opa, low_opa),
        ("om", n_om, low_om),
    ):
        verdict = "ok" if low >= floor else "VIOLATED"
        parts.append(f"{name}: {n} pts, min U = {low:.6f} {verdict}")
    ok = (
        min(low_bs, low_opo, low_opa, low_om) >= floor
        and min(n_bs, n_opo, n_opa, n_om) >= 10_000
        and elapsed < 30.0
    )
    report(
        2,
        ok,
        "heisenberg floor U >= 1 - 1e-9: "
        + "; ".join(parts)
        + f"; om worst at (cc={om_at[0]:.3g}, dd={om_at[1]:.3g}, n_bar={om_at[2]:g})"
        + f"; {elapsed:.1f} s < 30 s"
        + " [om closed forms are asymptotic and violate the floor away from"
        " the vacuum limit; deliberate honest failure, see module docstring]",
    )


# ------------------------------------------------------------ criterion 3


def test_criterion_03_opo_vacuum_limit():
    worst_u = 0.0
    worst_vp = 0.0
    for c0 in np.arange(0.10, 0.9901, 0.01):
        pt = opo_evaluate(OpoParams(float(c0), 0.0, PHASE))
        worst_u = max(worst_u, abs(uncertainty(pt.stats) - 1.0))
        expected = ((1.0 - c0) / (1.0 + c0)) ** 2
        worst_vp = max(worst_vp, abs(pt.stats.var_p - expected))
    near_threshold = opo_evaluate(OpoParams(0.999, 0.0, PHASE)).stats.var_p
    ok = worst_u < 1e-10 and worst_vp < 1e-10 and near_threshold < 1e-3
    report(
        3,
        ok,
        f"opo vacuum limit (|U-1| <= {worst_u:.1e} < 1e-10, "
        f"|var_p - ((1-c0)/(1+c0))^2| <= {worst_vp:.1e} < 1e-10, "
        f"var_p(c0=0.999) = {near_threshold:.2e} < 1e-3)",
    )


# ------------------------------------------------------------ criterion 4


def test_criterion_04_opo_perturbative_convergence():
    orders = {}
    for c0 in (0.3, 0.6, 0.9):
        diffs, a2s = [], []
        for a2 in (1e-2, 5e-3, 2.5e-3):
            sr = math.sqrt(a2) / perturbative_gain(c0, PHASE)
            exact = opo_evaluate(OpoParams(c0, sr, PHASE))
            pert = perturbative_stats(c0, exact.alpha_sq, PHASE)
            diffs.append(
                max(
                    abs(exact.stats.var_x - pert.var_x),
                    abs(exact.stats.var_p - pert.var_p),
                )
            )
            a2s.append(exact.alpha_sq)
        orders[c0] = float(np.polyfit(np.log(a2s), np.log(diffs), 1)[0])
    ok = all(abs(o - 2.0) <= 0.2 for o in orders.values())
    detail = ", ".join(f"c0={c}: {o:.3f}" for c, o in orders.items())
    report(4, ok, f"opo exact-vs-expansion error order in alpha_sq ({detail}; "
                  f"required 2.0 +/- 0.2)")


# ------------------------------------------------------------ criterion 5


def test_criterion_05_opa_conservation_oracle_purity():
    t0 = time.perf_counter()
    seeds = (0.01, 0.05, 0.2)
    worst_cons = 0.0
    worst_oracle = 0.0
    worst_det = 0.0
    for regime in (PHASE, AMP):
        pump = 1.0 if regime is PHASE else -1.0
        for seed, traj in zip(seeds, propagate_batch(list(seeds), regime, 5.0, 20480)):
            c1 = 1.0 + seed**2 / 2.0
            cons = np.abs(traj.a_s**2 / 2.0 + traj.a_p**2 - c1) / c1
            worst_cons = max(worst_cons, float(cons.max()))
            times, a_s, a_p, _ = mean_field_ode(seed, pump, 5.0, 4096)
            cs, cp = mean_fields(times, seed, pump)
            worst_oracle = max(
                worst_oracle,
                float(np.abs(a_s - cs).max()),
                float(np.abs(a_p - cp).max()),
            )
            det = np.linalg.det(traj.cov_x) * np.linalg.det(traj.cov_p)
            worst_det = max(worst_det, float(np.abs(det - 1.0).max()))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_cons < 1e-8
        and worst_oracle < 1e-8
        and worst_det < 1e-6
        and elapsed < 10.0
    )
    report(
        5,
        ok,
        f"opa conservation ({worst_cons:.1e} < 1e-8 rel), closed-form vs RK4 "
        f"({worst_oracle:.1e} < 1e-8), joint purity |det-1| ({worst_det:.1e} "
        f"< 1e-6), {elapsed:.1f} s < 10 s",
    )


# ------------------------------------------------------------ criterion 6


def test_criterion_06_opa_qualitative_dynamics():
    traj = propagate_batch([0.05], PHASE, 6.0, 24576)[0]
    i_squeeze = int(traj.cov_p[:, 0, 0].argmin())
    i_amp = int((traj.a_s**2).argmax())
    tau_squeeze = float(traj.times[i_squeeze])
    tau_amp = float(traj.times[i_amp])
    params = OpaParams(0.1, 1.0, AMP)
    a2 = [opa_evaluate(params, t).alpha_sq for t in (0.0, 0.05, 0.15)]
    decreasing = a2[0] > a2[1] > a2[2]
    ok = tau_squeeze < tau_amp and decreasing
    report(
        6,
        ok,
        f"opa dynamics: max squeezing at tau={tau_squeeze:.3f} strictly before "
        f"max amplitude at tau={tau_amp:.3f}; deamplifying alpha_sq initially "
        f"decreasing ({a2[0]:.5f} > {a2[1]:.5f} > {a2[2]:.5f})",
    )


# ------------------------------------------------------------ criterion 7


def test_criterion_07_om_vacuum_limit_and_expansion():
    worst = 0.0
    for cc in (0.5, 2.0, 10.0):
        for n_bar in (0.0, 1.0, 10.0):
            pt = om_evaluate(OmParams(cc, 1.0 / cc, n_bar))
            thermal = 2.0 * n_bar + 1.0
            worst = max(
                worst,
                abs(pt.alpha_sq),
                abs(pt.stats.var_x - thermal / cc),
                abs(pt.stats.var_p - cc * thermal),
            )
    orders = {}
    for dd in (0.2, 0.5):
        a2s, diffs = [], []
        for a2 in (1e-4, 5e-5, 2.5e-5):
            cc = cooperativity_for_alpha_sq(dd, a2)
            exact = om_evaluate(OmParams(cc, dd, 0.0))
            lead = om_leading_order(OmParams(cc, dd), exact.alpha_sq)
            a2s.append(exact.alpha_sq)
            diffs.append(abs(exact.stats.var_x - lead.var_x))
        # slope in alpha = 2 * slope in alpha_sq
        orders[dd] = 2.0 * float(np.polyfit(np.log(a2s), np.log(diffs), 1)[0])
    ok = worst < 1e-12 and all(abs(o - 4.0 / 3.0) <= 0.3 for o in orders.values())
    detail = ", ".join(f"dd={d}: {o:.3f}" for d, o in orders.items())
    report(
        7,
        ok,
        f"om vacuum limit exact to {worst:.1e} < 1e-12; leading-order "
        f"correction order in alpha ({detail}; required 4/3 +/- 0.3)",
    )


# ------------------------------------------------------------ criterion 8


def test_criterion_08_frontier_properties(tmp_path):
    grid = SweepGrid(
        method=Method.BEAM_SPLITTER,
        axes=(
            Axis("b", 0.0, 12.0, 61),
            Axis("theta", 1e-4, math.pi / 2, 300, Spacing.LOG),
        ),
    )
    bins = LogBins(1e-6, 1.0, 200)
    pts = ok_points(sweep(grid))
    thresholds = (1.001, 1.01, 1.1, 2.0, 10.0, math.inf)
    curves = [frontier(pts, thr, bins) for thr in thresholds]
    # threshold monotonicity on every shared bin
    monotone = True
    for lo_curve, hi_curve in zip(curves, curves[1:]):
        lo_map = {p.alpha_sq: p.squeeze_db for p in lo_curve.points}
        hi_map = {p.alpha_sq: p.squeeze_db for p in hi_curve.points}
        for a2 in set(lo_map) & set(hi_map):
            if lo_map[a2] > hi_map[a2] + 1e-12:
                monotone = False
    # envelope agreement with -10 log10(alpha_sq) at threshold = inf
    bin_db = 10.0 * math.log10(bins.edges()[1] / bins.edges()[0])
    env_err = 0.0
    for p in curves[-1].points:
        if p.alpha_sq <= 0.1:  # where the squeezed term dominates the bound
            env_err = max(
                env_err, abs(p.squeeze_db - (-10.0 * math.log10(p.alpha_sq)))
            )
    # byte-identical reruns through the CLI
    args = [
        "frontier", "--method", "bs", "--axis", "b=0:6:25",
        "--axis", "theta=0.001:1.5707:50:log", "--thresholds", "1.1,2",
        "--format", "csv",
    ]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    identical = f1.read_bytes() == f2.read_bytes()
    ok = monotone and env_err <= bin_db + 0.05 and identical
    report(
        8,
        ok,
        f"frontier properties: threshold monotonicity {monotone}, analytic "
        f"bs envelope within {env_err:.3f} dB of bound (bin width "
        f"{bin_db:.3f} dB), byte-identical reruns {identical}",
    )


# ------------------------------------------------------------ criterion 9


def test_criterion_09_cross_method_ordering():
    bins = LogBins(1e-6, 1.0, 200)
    target_bin = bins.index(0.1)
    dbs = {}
    for method in (Method.OPO_PHASE, Method.BEAM_SPLITTER, Method.OM_AMPLITUDE):
        curves = frontier_suite(default_grid(method), (2.0,), bins)
        match = [
            p for p in curves[0].points if bins.index(p.alpha_sq) == target_bin
        ]
        assert match, f"no frontier point in the alpha_sq = 0.1 bin for {method}"
        dbs[method] = match[0].squeeze_db
    ok = (
        dbs[Method.OPO_PHASE]
        >= dbs[Method.BEAM_SPLITTER]
        >= dbs[Method.OM_AMPLITUDE]
    )
    report(
        9,
        ok,
        f"ordering at alpha_sq = 0.1, threshold 2: opo_phase "
        f"{dbs[Method.OPO_PHASE]:.2f} dB >= bs {dbs[Method.BEAM_SPLITTER]:.2f} "
        f"dB >= om_amplitude {dbs[Method.OM_AMPLITUDE]:.2f} dB",
    )


# ----------------------------------------------------------- criterion 10


def test_criterion_10_end_to_end_figures(tmp_path):
    conf = tmp_path / "figures.conf"
    conf.write_text(
        "methods = bs, opo_phase, opa_phase, om_amplitude\n"
        "thresholds = 1.001, 1.01, 1.1, 2.0, 10.0\n"
        "bins = 1e-6:1:200\n"
        "format = svg\n"
        f"out = {tmp_path}/frontier\n"
    )
    t0 = time.perf_counter()
    code = main(["frontier", "--config", str(conf)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    finite = True
    names = []
    for method in ("bs", "opo_phase", "opa_phase", "om_amplitude"):
        path = tmp_path / f"frontier_{method}.svg"
        names.append(path.name)
        assert path.exists(), f"missing {path}"
        doc = xml.dom.minidom.parse(str(path))
        polylines = doc.getElementsByTagName("polyline")
        assert polylines, f"no curves in {path}"
        for pl in polylines:
            for pair in pl.getAttribute("points").split():
                x, y = pair.split(",")
                if not (math.isfinite(float(x)) and math.isfinite(float(y))):
                    finite = False
    ok = elapsed < 60.0 and finite
    report(
        10,
        ok,
        f"end-to-end figure regeneration: {', '.join(names)} from one config "
        f"in {elapsed:.1f} s < 60 s; all emitted values finite",
    )

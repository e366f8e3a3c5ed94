import importlib
import itertools
import math

import numpy as np
import pytest

from sqzlab.core import MAX_GRID_POINTS, DomainError, Regime
from sqzlab.frontier import Method, default_grid
from sqzlab.opa import evolve, mean_fields
from sqzlab.opo import OpoParams, opo_evaluate, opo_steady_state
from sqzlab.oracle import (
    GaussianState,
    apply_beamsplitter,
    apply_displacement,
    apply_squeeze,
    is_physical,
    mean_field_ode,
    mode_variances,
    opa_covariance_gap,
    opa_covariance_rk4,
    opo_output_covariance,
    opo_output_variances,
    opo_steady_state_bisect,
    parametric_drift,
    symplectic_form,
    vacuum,
)

# the package exports the function `frontier` under the module's name
frontier_module = importlib.import_module("sqzlab.frontier")


def test_vacuum_state():
    st = vacuum(2)
    assert np.array_equal(st.mean, np.zeros(4))
    assert np.array_equal(st.cov, np.eye(4))
    assert is_physical(st)


def test_squeeze_identity_at_zero():
    st = apply_squeeze(vacuum(1), 0, 0.0)
    assert np.allclose(st.cov, np.eye(2))


def test_squeeze_variances():
    st = apply_squeeze(vacuum(1), 0, 1.0)
    vx, vp = mode_variances(st, 0)
    assert vx == pytest.approx(math.exp(-2), rel=1e-14)
    assert vp == pytest.approx(math.exp(2), rel=1e-14)


def test_squeeze_composes():
    twice = apply_squeeze(apply_squeeze(vacuum(1), 0, 0.5), 0, 0.5)
    once = apply_squeeze(vacuum(1), 0, 1.0)
    assert np.allclose(twice.cov, once.cov, atol=1e-12)


def test_displacement():
    st = apply_displacement(vacuum(1), 0, 3.0)
    assert np.allclose(st.mean, [6.0, 0.0])
    assert np.allclose(st.cov, np.eye(2))
    st = apply_displacement(vacuum(1), 0, 1.0 + 2.0j)
    assert np.allclose(st.mean, [2.0, 4.0])


def test_displacement_identity():
    st = apply_displacement(vacuum(1), 0, 0.0)
    assert np.array_equal(st.mean, np.zeros(2))


def test_displace_and_squeeze_do_not_commute():
    b = 0.7
    ds = apply_squeeze(apply_displacement(vacuum(1), 0, 2.0), 0, b)
    sd = apply_displacement(apply_squeeze(vacuum(1), 0, b), 0, 2.0)
    # means differ by the e^{-b} scaling on X
    assert ds.mean[0] == pytest.approx(math.exp(-b) * sd.mean[0], rel=1e-12)
    assert not np.allclose(ds.mean, sd.mean)


def test_beamsplitter_identity_and_swap():
    st = apply_displacement(vacuum(2), 0, 1.5)
    same = apply_beamsplitter(st, 0, 1, 0.0)
    assert np.allclose(same.mean, st.mean)
    swapped = apply_beamsplitter(st, 0, 1, math.pi / 2)
    # full exchange up to sign
    assert abs(swapped.mean[2]) == pytest.approx(abs(st.mean[0]), rel=1e-12)
    assert swapped.mean[0] == pytest.approx(0.0, abs=1e-12)


def test_beamsplitter_rejects_same_mode():
    with pytest.raises(DomainError):
        apply_beamsplitter(vacuum(2), 1, 1, 0.3)


def test_bad_mode_index():
    with pytest.raises(DomainError):
        apply_squeeze(vacuum(1), 2, 1.0)
    with pytest.raises(DomainError):
        apply_displacement(vacuum(1), -1, 1.0)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2])
@pytest.mark.parametrize("b", [-1.0, 0.0, 0.8, 2.5])
def test_symplectic_preservation(b, theta):
    omega = symplectic_form(2)
    # recover the implied transform by acting on basis columns
    base = vacuum(2)
    cols = []
    for k in range(4):
        mean = np.zeros(4)
        mean[k] = 1.0
        st = GaussianState(mean, np.eye(4))
        st = apply_squeeze(st, 0, b)
        st = apply_beamsplitter(st, 0, 1, theta)
        cols.append(st.mean)
    s = np.column_stack(cols)
    assert np.allclose(s @ omega @ s.T, omega, atol=1e-12)


def test_purity_preserved():
    st = apply_squeeze(vacuum(2), 0, 1.3)
    st = apply_displacement(st, 1, 2.0)
    st = apply_beamsplitter(st, 0, 1, 0.6)
    assert np.linalg.det(st.cov) == pytest.approx(1.0, rel=1e-10)
    assert is_physical(st)


def test_mean_field_ode_fixed_point():
    _, a_s, a_p, _ = mean_field_ode(0.0, -1.0, 3.0, 256)
    assert np.all(a_s == 0.0)
    assert np.allclose(a_p, -1.0)


def test_mean_field_ode_conservation():
    seed, pump = 0.2, 1.0
    c1 = pump**2 + seed**2 / 2.0
    _, a_s, a_p, _ = mean_field_ode(seed, pump, 5.0, 4096)
    drift = np.abs(a_s**2 / 2.0 + a_p**2 - c1).max()
    assert drift < 1e-10 * 5.0  # spec: < 1e-10 per unit time


def test_mean_field_ode_step_cap_is_checked_before_the_loop():
    with pytest.raises(DomainError, match="limit"):
        mean_field_ode(0.1, 1.0, 2.0, MAX_GRID_POINTS + 1)


@pytest.mark.parametrize("seed", [0.01, 0.1, 0.5])
@pytest.mark.parametrize("pump", [1.0, -1.0])
def test_mean_field_ode_matches_closed_form(seed, pump):
    times, a_s, a_p, err = mean_field_ode(seed, pump, 4.0, 4096)
    cs, cp = mean_fields(times, seed, pump)
    assert np.abs(a_s - cs).max() < 1e-8
    assert np.abs(a_p - cp).max() < 1e-8
    assert err < 1e-8


@pytest.mark.parametrize("regime", [Regime.PHASE_SQUEEZING, Regime.AMPLITUDE_SQUEEZING])
def test_opa_closed_form_covariance_matches_rk4(regime):
    # the default-grid seeds over tau <= 6; RK4's error at a fixed step
    # grows with the rate sqrt(1 + seed^2/2), so bright seeds get finer steps
    pump = 1.0 if regime is Regime.PHASE_SQUEEZING else -1.0
    seeds = np.logspace(-3, math.log10(30.0), 40)
    for band, n_steps in ((seeds <= 5.0, 6144), (seeds > 5.0, 36864)):
        times, _, _, rk4_x, rk4_p = opa_covariance_rk4(seeds[band], pump, 6.0, n_steps)
        _, _, cov_x, cov_p = evolve(seeds[band], regime, times)
        for j in range(band.sum()):
            assert opa_covariance_gap(cov_x[j], cov_p[j], rk4_x[j], rk4_p[j]) <= 1e-8


OPO_GRIDS = [
    (Method.OPO_PHASE, Regime.PHASE_SQUEEZING),
    (Method.OPO_AMPLITUDE, Regime.AMPLITUDE_SQUEEZING),
]


def test_opo_bisection_solves_the_cubic():
    c0 = np.array([0.1, 0.5, 0.95, 0.5])
    seed = np.array([1e-3, 0.1, 2.0, 0.0])
    for regime in Regime:
        a_s, a_p, alpha_sq = opo_steady_state_bisect(c0, seed, regime)
        e_p = (-c0 if regime is Regime.PHASE_SQUEEZING else c0) / 4.0
        e_s = seed * np.abs(e_p)
        # the steady-state pair A_s = 2 A_s A_p - 2 e_s, A_p = -A_s^2 - 2 e_p
        assert np.allclose(a_s, 2.0 * a_s * a_p - 2.0 * e_s, rtol=0.0, atol=1e-15)
        assert np.array_equal(a_p, -a_s * a_s - 2.0 * e_p)
        assert np.array_equal(alpha_sq, ((e_s + a_s) / e_p) ** 2)
        assert a_s[-1] == 0.0 and alpha_sq[-1] == 0.0


@pytest.mark.parametrize("method, regime", OPO_GRIDS, ids=["phase", "amplitude"])
def test_opo_evaluate_matches_bisection_on_default_grid(method, regime):
    values = frontier_module.sweep(default_grid(method)).values
    c0, seed = values["c0"], values["seed_ratio"]
    a_s, _, alpha_sq = opo_steady_state_bisect(c0, seed, regime)
    params = [OpoParams(c, s, regime) for c, s in zip(c0.tolist(), seed.tolist())]
    got_a_s = np.array([opo_steady_state(p).a_s for p in params])
    got = np.array([opo_evaluate(p).alpha_sq for p in params])
    unseeded = seed == 0.0
    assert np.all(got_a_s[unseeded] == 0.0) and np.all(got[unseeded] == 0.0)
    # the root itself: measured 6.7e-16 in both regimes
    assert np.max(np.abs(got_a_s / a_s - 1.0)[~unseeded]) < 1e-12
    # alpha_sq = ((e_s + A_s)/e_p)^2, and e_s + A_s cancels where the output
    # displacement turns through zero: a root error of a few ulps is then
    # amplified by kappa = (|e_s| + |A_s|)/|e_s + A_s|, up to 1e6 on these
    # grids. Measured: within 1e-12 except 3 (phase) and 10 (amplitude) rows,
    # worst 1.5e-11 at kappa 1e6; the gap over kappa is at most 1.3e-15.
    e_s = seed * c0 / 4.0
    kappa = (e_s + np.abs(a_s)) / np.abs(e_s + a_s)
    gap = np.abs(got / alpha_sq - 1.0)[~unseeded]
    bound = 1e-12 + 32 * np.finfo(float).eps * kappa[~unseeded]
    assert np.all(gap <= bound), np.max(gap / bound)


# c0 in {0.1, 0.5, 0.95}, four seeds including 0, both regimes
OPO_MAP_POINTS = list(itertools.product((0.1, 0.5, 0.95), (0.0, 1e-3, 0.1, 2.0), Regime))


def test_opo_variances_match_input_output_map():
    worst = 0.0
    for c0, seed, regime in OPO_MAP_POINTS:
        a_s, a_p, _ = opo_steady_state_bisect(np.array([c0]), np.array([seed]), regime)
        var_x, var_p = opo_output_variances(a_s, a_p)
        pt = opo_evaluate(OpoParams(c0, seed, regime))
        for want, got in ((var_x[0], pt.stats.var_x), (var_p[0], pt.stats.var_p)):
            worst = max(worst, abs(got / want - 1.0))
    assert len(OPO_MAP_POINTS) == 24
    assert worst < 1e-13  # measured 1.5e-14


def test_opo_input_output_map_of_the_vacuum():
    # unseeded, A_s = 0: the signal quadratures are squeezed by the pump alone
    c0 = np.array([0.1, 0.5, 0.95])
    for sign in (1.0, -1.0):  # A_p = -2 e_p: +c0/2 amplifying, -c0/2 deamplifying
        var_x, var_p = opo_output_variances(np.zeros(3), sign * c0 / 2.0)
        u = sign * c0
        assert np.allclose(var_x, ((1.0 + u) / (1.0 - u)) ** 2, rtol=1e-14)
        assert np.allclose(var_p, ((1.0 - u) / (1.0 + u)) ** 2, rtol=1e-14)


@pytest.mark.parametrize("method, regime", OPO_GRIDS, ids=["phase", "amplitude"])
def test_opo_output_covariance_is_physical_pure_and_sector_diagonal(method, regime):
    values = frontier_module.sweep(default_grid(method)).values
    a_s, a_p, _ = opo_steady_state_bisect(values["c0"], values["seed_ratio"], regime)
    v = opo_output_covariance(a_s, a_p)
    # measured: min eigenvalue of V + i Omega -1.7e-13, |det V - 1| 3.2e-13
    assert is_physical(GaussianState(np.zeros(4), v))
    assert np.abs(np.linalg.det(v) - 1.0).max() <= 1e-9
    # X_s and P_s are uncorrelated, so U = sqrt(var_x var_p) is sqrt(det) of
    # the signal's block
    assert np.all(v[:, 0, 1] == 0.0) and np.all(v[:, 1, 0] == 0.0)


def test_parametric_drift_sectors():
    m = parametric_drift(np.array([0.3, 0.0]), np.array([-0.7, 1.0]))
    assert m.shape == (2, 4, 4)
    assert np.array_equal(m[0, 0::2, 0::2], [[-0.7, 0.3], [-0.3, 0.0]])
    assert np.array_equal(m[0, 1::2, 1::2], [[0.7, 0.3], [-0.3, 0.0]])
    assert not m[:, 0::2, 1::2].any() and not m[:, 1::2, 0::2].any()
    # the X sector is the Jacobian of (A_s A_p, -A_s^2/2); the P sector is -M_x^T
    assert np.array_equal(m[:, 1::2, 1::2], -m[:, 0::2, 0::2].swapaxes(-1, -2))

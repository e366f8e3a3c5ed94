import math

import numpy as np
import pytest

from sqzlab.cli import main
from sqzlab.core import MAX_GRID_POINTS, DomainError, Regime, uncertainty
from sqzlab.opa import (
    NonConvergenceError,
    OpaParams,
    OpaTrajectory,
    evolve,
    mean_fields,
    opa_evaluate,
    opa_mean_field,
    opa_propagate,
    propagate_batch,
)
from sqzlab.oracle import mean_field_ode, opa_covariance_rk4

PHASE = Regime.PHASE_SQUEEZING
AMP = Regime.AMPLITUDE_SQUEEZING


@pytest.mark.parametrize("regime", [PHASE, AMP])
@pytest.mark.parametrize("seed", [0.0, 0.01, 0.3])
def test_mean_field_initial_condition(regime, seed):
    params = OpaParams(seed, 2.0, regime)
    a_s, a_p = opa_mean_field(params, 0.0)
    assert a_s == pytest.approx(seed, abs=1e-14)
    assert a_p == pytest.approx(params.pump_sign, abs=1e-14)


@pytest.mark.parametrize("regime", [PHASE, AMP])
def test_mean_field_long_time_limit(regime):
    seed = 0.05
    params = OpaParams(seed, 50.0, regime)
    c1 = 1.0 + seed**2 / 2.0
    a_s, a_p = opa_mean_field(params, 50.0)
    assert a_s == pytest.approx(0.0, abs=1e-12)
    assert a_p == pytest.approx(-math.sqrt(c1), abs=1e-12)


@pytest.mark.parametrize("regime", [PHASE, AMP])
@pytest.mark.parametrize("seed", [0.01, 0.1, 0.5])
def test_mean_field_matches_rk4_oracle(regime, seed):
    pump = 1.0 if regime is PHASE else -1.0
    times, a_s, a_p, _ = mean_field_ode(seed, pump, 4.0, 4096)
    cs, cp = mean_fields(times, seed, pump)
    assert np.abs(a_s - cs).max() < 1e-8
    assert np.abs(a_p - cp).max() < 1e-8


def test_conservation_along_trajectory():
    seed = 0.2
    traj = opa_propagate(OpaParams(seed, 5.0, PHASE), 2048)
    c1 = 1.0 + seed**2 / 2.0
    drift = np.abs(traj.a_s**2 / 2.0 + traj.a_p**2 - c1) / c1
    assert drift.max() < 1e-12  # closed form conserves it to roundoff


def test_vacuum_initial_noise():
    traj = opa_propagate(OpaParams(0.1, 1.0, PHASE), 64)
    assert np.allclose(traj.cov_x[0], np.eye(2))
    assert np.allclose(traj.cov_p[0], np.eye(2))
    assert uncertainty(traj.seed_stats(0)) == 1.0


def test_unseeded_constant_pump_limit():
    # with no seed the pump stays put and the seed noise evolves as e^{-/+2 tau}
    traj = opa_propagate(OpaParams(0.0, 2.0, AMP), 2048)
    taus = traj.times
    vx = traj.cov_x[:, 0, 0]
    vp = traj.cov_p[:, 0, 0]
    assert np.abs(vx - np.exp(-2.0 * taus)).max() < 1e-8
    assert np.abs(vp - np.exp(2.0 * taus)).max() < 1e-6  # abs error on e^{+4} scale


def test_covariance_positive_definite():
    traj = opa_propagate(OpaParams(0.05, 6.0, PHASE), 4096)
    for cov in (traj.cov_x, traj.cov_p):
        eig_min = np.linalg.eigvalsh(cov).min()
        assert eig_min > 0.0


def test_joint_state_stays_pure():
    for seed, regime in ((0.01, PHASE), (0.2, AMP)):
        traj = opa_propagate(OpaParams(seed, 5.0, regime), 20480)
        det_x = np.linalg.det(traj.cov_x)
        det_p = np.linalg.det(traj.cov_p)
        assert np.abs(det_x * det_p - 1.0).max() < 1e-6


def test_seed_marginal_respects_heisenberg():
    traj = opa_propagate(OpaParams(0.05, 6.0, PHASE), 8192)
    u = np.sqrt(traj.cov_x[:, 0, 0] * traj.cov_p[:, 0, 0])
    assert u.min() >= 1.0 - 1e-9


def test_rk4_convergence_order():
    # the RK4 covariance validator converges at 4th order in the step
    vals = []
    for n in (512, 1024, 2048):
        _, _, _, _, rk4_p = opa_covariance_rk4(np.array([0.05]), 1.0, 3.0, n)
        vals.append(rk4_p[0, -1, 0, 0])  # vp_ss at t = 3
    order = math.log2(abs(vals[0] - vals[1]) / abs(vals[1] - vals[2]))
    assert order == pytest.approx(4.0, abs=0.4)


def test_nonconvergence_flag():
    with pytest.raises(NonConvergenceError):
        opa_propagate(OpaParams(0.3, 6.0, PHASE), 4, check_steps=4)
    # a well resolved trajectory passes the same check
    opa_propagate(OpaParams(0.3, 1.0, PHASE), 2048, check_steps=2048)


@pytest.mark.parametrize("regime", [PHASE, AMP])
def test_zero_seed_limit_is_exact(regime):
    # no seed: the pump stays put and the sectors decouple into exponentials
    p = 1.0 if regime is PHASE else -1.0
    times = np.linspace(0.0, 6.0, 61)
    a_s, a_p, cov_x, cov_p = evolve([0.0], regime, times)
    assert np.all(a_s == 0.0) and np.all(a_p == p)
    for cov, sign in ((cov_x[0], p), (cov_p[0], -p)):
        assert np.all(cov[:, 0, 1] == 0.0) and np.all(cov[:, 1, 0] == 0.0)
        assert np.all(cov[:, 1, 1] == 1.0)
        np.testing.assert_allclose(cov[:, 0, 0], np.exp(2.0 * sign * times), rtol=4e-15)


@pytest.mark.parametrize("regime", [PHASE, AMP])
def test_closed_form_joint_purity(regime):
    for seed in (0.0, 1e-3, 0.05, 1.0, 3.0):
        traj = opa_propagate(OpaParams(seed, 6.0, regime), 24576)
        det = np.linalg.det(traj.cov_x) * np.linalg.det(traj.cov_p)
        assert np.abs(det - 1.0).max() <= 1e-10


def test_evaluate_is_exact_at_t():
    # t is used as given, off any time grid
    pt = opa_evaluate(OpaParams(0.3, 2.0, PHASE), 1.2345)
    _, a_s, _, rk4_x, rk4_p = opa_covariance_rk4(np.array([0.3]), 1.0, 1.2345, 4096)
    assert pt.params["tau"] == 1.2345
    assert pt.stats.var_x == pytest.approx(rk4_x[0, -1, 0, 0], rel=1e-10)
    assert pt.stats.var_p == pytest.approx(rk4_p[0, -1, 0, 0], rel=1e-10)
    assert pt.alpha_sq == pytest.approx(a_s[0, -1] ** 2, rel=1e-12)


def test_evaluate_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="overflows double precision"):
        opa_evaluate(OpaParams(0.1, 1e9), 1e9)


def test_evaluate_at_zero():
    pt = opa_evaluate(OpaParams(0.07, 2.0, PHASE), 0.0)
    assert pt.alpha_sq == pytest.approx(0.07**2, rel=1e-15)
    assert pt.stats.var_x == 1.0 and pt.stats.var_p == 1.0


def test_deamplifying_brightness_initially_decreasing():
    params = OpaParams(0.1, 1.0, AMP)
    a0 = opa_evaluate(params, 0.0).alpha_sq
    a1 = opa_evaluate(params, 0.1).alpha_sq
    a2 = opa_evaluate(params, 0.2).alpha_sq
    assert a1 < a0 and a2 < a1


def test_amplifying_brightness_rises_then_falls():
    traj = opa_propagate(OpaParams(0.05, 8.0, PHASE), 4096)
    a2 = traj.a_s**2
    peak = int(a2.argmax())
    assert 0 < peak < len(a2) - 1
    assert a2[peak] > a2[0] and a2[peak] > a2[-1]


def test_max_squeezing_before_max_amplitude():
    traj = opa_propagate(OpaParams(0.05, 6.0, PHASE), 24576)
    i_squeeze = int(traj.cov_p[:, 0, 0].argmin())
    i_amp = int((traj.a_s**2).argmax())
    assert traj.times[i_squeeze] < traj.times[i_amp]


def test_propagate_batch_matches_single():
    seeds = [0.01, 0.1, 0.4]
    batch = propagate_batch(seeds, PHASE, 2.0, 512)
    for seed, traj in zip(seeds, batch):
        single = opa_propagate(OpaParams(seed, 2.0, PHASE), 512)
        assert np.allclose(traj.cov_x, single.cov_x, atol=1e-14)
        assert np.allclose(traj.cov_p, single.cov_p, atol=1e-14)
        assert np.allclose(traj.a_s, single.a_s)


def test_param_validation():
    with pytest.raises(DomainError):
        OpaParams(-0.1, 1.0)
    with pytest.raises(DomainError):
        OpaParams(0.1, 0.0)
    for samples, check_steps in ((0, 0), (MAX_GRID_POINTS, 0), (16, 1), (16, MAX_GRID_POINTS + 1)):
        with pytest.raises(DomainError):
            opa_propagate(OpaParams(0.1, 1.0), samples, check_steps)
    with pytest.raises(DomainError):
        opa_evaluate(OpaParams(0.1, 1.0), 2.0)


def test_default_step_density(capsys):
    # 4096 RK4 steps per unit of t_max, only when the check runs
    assert main(["opa-trajectory", "--seed-ratio", "0.1", "--t-max", "2", "--samples", "4",
                 "--check-steps"]) == 0
    assert "# n_steps = 8192\n" in capsys.readouterr().out
    assert main(["opa-trajectory", "--seed-ratio", "0.1", "--t-max", "2", "--samples", "4"]) == 0
    assert "n_steps" not in capsys.readouterr().out

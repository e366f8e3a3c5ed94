import math

import numpy as np
import pytest

from sqzlab.core import DomainError, Regime, uncertainty
from sqzlab.opo import (
    BranchError,
    OpoParams,
    _outputs,
    _solve_cubic,
    amplitude_cutoff_index,
    opo_evaluate,
    opo_perturbative,
    opo_steady_state,
    perturbative_gain,
    perturbative_stats,
)

PHASE = Regime.PHASE_SQUEEZING
AMP = Regime.AMPLITUDE_SQUEEZING


def steady_residuals(ss):
    r_s = ss.a_s - (2.0 * ss.a_s * ss.a_p - 2.0 * ss.seed_in)
    r_p = ss.a_p - (-ss.a_s**2 - 2.0 * ss.pump_in)
    return max(abs(r_s), abs(r_p))


@pytest.mark.parametrize("regime", [PHASE, AMP])
def test_evaluate_equals_outputs_of_steady_state_bit_for_bit(regime):
    # opo_evaluate solves the steady state without building an OpoSteadyState
    for c0 in (0.05, 0.3, 0.6, 0.9, 0.995):
        for seed in (0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0):
            params = OpoParams(c0, seed, regime)
            ss = opo_steady_state(params)
            pt = opo_evaluate(params)
            want = _outputs(ss.a_s, ss.a_p, ss.seed_in, ss.pump_in)
            assert (pt.alpha_sq, pt.stats.var_x, pt.stats.var_p) == want
            assert pt.params == {"c0": c0, "seed_ratio": seed, "regime": regime.value}


@pytest.mark.parametrize("regime", [PHASE, AMP])
def test_unseeded_cavity(regime):
    ss = opo_steady_state(OpoParams(0.5, 0.0, regime))
    assert ss.a_s == 0.0
    assert abs(2.0 * ss.a_p) == pytest.approx(0.5, rel=1e-15)


def test_perturbative_gain_at_high_cooperativity():
    pt = opo_evaluate(OpoParams(0.9, 1e-6, PHASE))
    gain = math.sqrt(pt.alpha_sq) / 1e-6
    assert gain == pytest.approx(19.0, rel=1e-3)


def test_residual_small_at_moderate_seed():
    ss = opo_steady_state(OpoParams(0.6, 0.05, AMP))
    assert steady_residuals(ss) < 1e-9


@pytest.mark.parametrize("regime", [PHASE, AMP])
def test_residuals_over_grid(regime):
    worst = 0.0
    for c0 in np.linspace(0.01, 0.99, 30):
        for sr in np.logspace(-8, 1.0, 30):
            worst = max(
                worst,
                steady_residuals(opo_steady_state(OpoParams(float(c0), float(sr), regime))),
            )
    assert worst < 1e-9


def test_vacuum_output_variances():
    pt = opo_evaluate(OpoParams(0.5, 0.0, PHASE))
    assert pt.stats.var_p == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert pt.stats.var_x == pytest.approx(9.0, abs=1e-11)
    assert pt.alpha_sq == 0.0


def test_vacuum_limit_uncertainty_and_threshold_squeeze():
    for c0 in np.linspace(0.05, 0.99, 40):
        pt = opo_evaluate(OpoParams(float(c0), 0.0, PHASE))
        assert abs(uncertainty(pt.stats) - 1.0) < 1e-10
        expected = ((1.0 - c0) / (1.0 + c0)) ** 2
        assert pt.stats.var_p == pytest.approx(expected, rel=1e-10)
    near = opo_evaluate(OpoParams(0.999, 0.0, PHASE))
    assert near.stats.var_p < 1e-3


@pytest.mark.parametrize("c0", [0.2, 0.5, 0.8])
def test_regime_amplifies_or_deamplifies(c0):
    sr = 1e-4
    amped = opo_evaluate(OpoParams(c0, sr, PHASE))
    deamped = opo_evaluate(OpoParams(c0, sr, AMP))
    assert amped.alpha_sq > sr**2
    assert deamped.alpha_sq < sr**2


def test_perturbative_vacuum_values():
    stats = perturbative_stats(0.5, 0.0, PHASE)
    assert stats.var_p == pytest.approx((0.5 / 1.5) ** 2, rel=1e-15)
    assert stats.var_x == pytest.approx((1.5 / 0.5) ** 2, rel=1e-15)
    for c0 in (0.1, 0.4, 0.75, 0.95):
        s = perturbative_stats(c0, 0.0, PHASE)
        assert s.var_x * s.var_p == pytest.approx(1.0, rel=1e-12)


def _convergence_order(c0, regime, targets):
    diffs, a2s = [], []
    for a2 in targets:
        sr = math.sqrt(a2) / perturbative_gain(c0, regime)
        exact = opo_evaluate(OpoParams(c0, sr, regime))
        pert = perturbative_stats(c0, exact.alpha_sq, regime)
        diffs.append(
            max(
                abs(exact.stats.var_x - pert.var_x),
                abs(exact.stats.var_p - pert.var_p),
            )
        )
        a2s.append(exact.alpha_sq)
    slope = np.polyfit(np.log(a2s), np.log(diffs), 1)[0]
    return slope


@pytest.mark.parametrize("c0", [0.3, 0.6, 0.9])
def test_perturbative_convergence_phase(c0):
    order = _convergence_order(c0, PHASE, (1e-2, 5e-3, 2.5e-3))
    assert order == pytest.approx(2.0, abs=0.2)


@pytest.mark.parametrize("c0", [0.3, 0.6, 0.9])
def test_perturbative_convergence_amplitude(c0):
    # deamplification needs smaller alpha_sq before the asymptotics kick in
    order = _convergence_order(c0, AMP, (1e-5, 5e-6, 2.5e-6))
    assert order == pytest.approx(2.0, abs=0.2)


def test_perturbative_point_consistent_with_exact():
    params = OpoParams(0.5, 0.02, PHASE)
    pert = opo_perturbative(params)
    exact = opo_evaluate(params)
    # relative error bound of 10*alpha_sq from the expansion order
    bound = 10.0 * exact.alpha_sq
    assert abs(pert.stats.var_p - exact.stats.var_p) / exact.stats.var_p < bound
    assert abs(pert.stats.var_x - exact.stats.var_x) / exact.stats.var_x < bound


@pytest.mark.parametrize("regime", [PHASE, AMP])
def test_heisenberg_on_grid(regime):
    for c0 in np.linspace(0.02, 0.98, 25):
        for sr in np.logspace(-6, 1.0, 25):
            pt = opo_evaluate(OpoParams(float(c0), float(sr), regime))
            assert uncertainty(pt.stats) >= 1.0 - 1e-9


def test_c0_domain():
    with pytest.raises(DomainError):
        OpoParams(1.5, 0.0)
    with pytest.raises(DomainError):
        OpoParams(0.0, 0.0)
    with pytest.raises(DomainError):
        OpoParams(0.5, -0.1)


@pytest.mark.parametrize("regime", ["amplitude", "phase", None, 1])
def test_regime_must_be_the_enum(regime):
    # a string used to solve the phase regime silently
    with pytest.raises(DomainError, match="regime must be a Regime"):
        OpoParams(0.5, 0.1, regime)


def test_branch_error_above_threshold():
    # above threshold the pump term flips p negative and the root branch
    # can leave the real axis; the solver must refuse, not switch
    with pytest.raises(BranchError):
        _solve_cubic(1e-6, -0.5)  # e_p = -0.5 means c0 = 2


def test_amplitude_cutoff_detector():
    assert amplitude_cutoff_index([0.1, 0.2, 0.3]) is None
    assert amplitude_cutoff_index([0.1, 0.3, 0.2, 0.5]) == 2
    assert amplitude_cutoff_index([0.3, 0.1]) == 1


def test_amplitude_alpha_sq_nonmonotone_in_seed():
    c0 = 0.6
    seeds = np.logspace(-3, 1.0, 120)
    a2 = [opo_evaluate(OpoParams(c0, float(s), AMP)).alpha_sq for s in seeds]
    cut = amplitude_cutoff_index(a2)
    assert cut is not None  # deamplified branch always turns around
    assert 0 < cut < len(seeds)


@pytest.mark.parametrize("regime, name", [(PHASE, "phase"), (AMP, "amplitude")])
def test_evaluate_tags_the_regime_by_its_string(regime, name):
    params = opo_evaluate(OpoParams(0.5, 0.01, regime)).params
    assert params == {"c0": 0.5, "seed_ratio": 0.01, "regime": name}
    assert type(params["regime"]) is str

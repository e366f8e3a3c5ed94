import math

import numpy as np
import pytest

from sqzlab.core import DomainError, Regime
from sqzlab.opa import evolve, mean_fields
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
    symplectic_form,
    vacuum,
)


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
        times, _, _, comp = opa_covariance_rk4(seeds[band], pump, 6.0, n_steps)
        _, _, cov_x, cov_p = evolve(seeds[band], regime, times)
        for j in range(band.sum()):
            assert opa_covariance_gap(cov_x[j], cov_p[j], comp[:, :, j]) <= 1e-8

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sqzlab.core import DomainError, SqueezedAxis, uncertainty
from sqzlab.optomech import (
    OmParams,
    cooperativity_for_alpha_sq,
    om_evaluate,
    om_leading_order,
)

AMPLITUDE = SqueezedAxis.AMPLITUDE
PHASE = SqueezedAxis.PHASE


@pytest.mark.parametrize("cc", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("n_bar", [0.0, 1.0, 10.0])
def test_vacuum_limit(cc, n_bar):
    pt = om_evaluate(OmParams(cc, 1.0 / cc, n_bar, AMPLITUDE))
    thermal = 2.0 * n_bar + 1.0
    assert pt.alpha_sq == pytest.approx(0.0, abs=1e-15)
    assert pt.stats.var_x == pytest.approx(thermal / cc, abs=1e-12)
    assert pt.stats.var_p == pytest.approx(cc * thermal, abs=1e-12)
    assert pt.stats.var_x * pt.stats.var_p == pytest.approx(thermal**2, abs=1e-12)


def test_vacuum_limit_example_values():
    pt = om_evaluate(OmParams(2.0, 0.5, 0.0, AMPLITUDE))
    assert (pt.stats.var_x, pt.stats.var_p) == (0.5, 2.0)
    hot = om_evaluate(OmParams(2.0, 0.5, 1.0, AMPLITUDE))
    assert (hot.stats.var_x, hot.stats.var_p) == (1.5, 6.0)


def test_seeded_point_values():
    pt = om_evaluate(OmParams(1.0, 0.25, 0.0, AMPLITUDE))
    assert pt.alpha_sq == pytest.approx(27.0 / 136.0, abs=1e-15)
    assert pt.stats.var_x == pytest.approx(0.4609375, abs=1e-15)
    assert pt.stats.var_p == pytest.approx(2.92, abs=1e-12)


@given(
    cc=st.floats(min_value=0.05, max_value=10.0),
    dd=st.floats(min_value=0.01, max_value=1.0),
    n_bar=st.sampled_from([0.0, 1.0, 10.0]),
)
def test_axis_swap_exact(cc, dd, n_bar):
    if cc * dd > 1.0:
        return
    amp = om_evaluate(OmParams(cc, dd, n_bar, AMPLITUDE))
    ph = om_evaluate(OmParams(cc, dd, n_bar, PHASE))
    assert amp.stats.var_x == ph.stats.var_p
    assert amp.stats.var_p == ph.stats.var_x
    assert amp.alpha_sq == ph.alpha_sq


@given(
    cc=st.floats(min_value=0.05, max_value=10.0),
    dd=st.floats(min_value=0.01, max_value=1.0),
)
def test_antisqueezed_variance_matches_printed_form(cc, dd):
    # the implementation folds 4/(1 + 1/(cc dd))^2 * 1/(cc dd^2) into
    # 4 cc/(1 + cc dd)^2; check against the unsimplified expression
    if cc * dd > 1.0:
        return
    cd = cc * dd
    printed = (1 - cd) ** 2 / (1 + cd) ** 2 + 4.0 / (1 + 1 / cd) ** 2 / (cc * dd * dd)
    pt = om_evaluate(OmParams(cc, dd, 0.0, AMPLITUDE))
    assert pt.stats.var_p == pytest.approx(printed, rel=1e-12)


def test_leading_order_zeroth_order():
    stats = om_leading_order(OmParams(1.0, 0.4), 0.0)
    assert stats.var_x == pytest.approx(0.4, rel=1e-15)
    assert stats.var_p == pytest.approx(2.5, rel=1e-15)


@pytest.mark.parametrize("axis", ["amplitude", "phase", None, 0])
def test_axis_must_be_the_enum(axis):
    with pytest.raises(DomainError, match="axis must be a SqueezedAxis"):
        OmParams(1.0, 0.5, 0.0, axis)


@pytest.mark.parametrize(
    "dd, alpha_sq",
    [(0.5, math.nan), (math.nan, 0.1), (0.5, math.inf), (math.inf, 0.1),
     (0.0, 0.1), (0.5, 0.0), (-0.5, 0.1), (0.5, -1.0)],
)
def test_cooperativity_inversion_rejects_nan_and_out_of_range(dd, alpha_sq):
    with pytest.raises(DomainError):
        cooperativity_for_alpha_sq(dd, alpha_sq)


def test_leading_order_flat_at_unit_asymmetry():
    stats = om_leading_order(OmParams(1.0, 1.0), 0.37)
    assert stats.var_x == pytest.approx(1.0, rel=1e-15)
    assert stats.var_p == pytest.approx(1.0, rel=1e-15)


def test_leading_order_matches_exact_at_small_brightness():
    dd = 0.3
    a2 = 1e-6
    cc = cooperativity_for_alpha_sq(dd, a2)
    exact = om_evaluate(OmParams(cc, dd, 0.0, AMPLITUDE))
    lead = om_leading_order(OmParams(cc, dd), exact.alpha_sq)
    assert abs(lead.var_x - exact.stats.var_x) / exact.stats.var_x < 0.01
    assert abs(lead.var_p - exact.stats.var_p) / exact.stats.var_p < 0.01


@pytest.mark.parametrize("dd", [0.2, 0.5])
def test_expansion_order_of_residual(dd):
    # squeezed-variance residual falls off as alpha^{4/3}, i.e. order 2/3
    # in alpha_sq; the antisqueezed one at the next order, alpha^2
    a2s, dxs, dps = [], [], []
    for a2 in (1e-4, 5e-5, 2.5e-5):
        cc = cooperativity_for_alpha_sq(dd, a2)
        exact = om_evaluate(OmParams(cc, dd, 0.0, AMPLITUDE))
        lead = om_leading_order(OmParams(cc, dd), exact.alpha_sq)
        a2s.append(exact.alpha_sq)
        dxs.append(abs(exact.stats.var_x - lead.var_x))
        dps.append(abs(exact.stats.var_p - lead.var_p))
    order_x = 2.0 * np.polyfit(np.log(a2s), np.log(dxs), 1)[0]  # in alpha
    order_p = 2.0 * np.polyfit(np.log(a2s), np.log(dps), 1)[0]
    assert order_x == pytest.approx(4.0 / 3.0, abs=0.3)
    assert order_p == pytest.approx(2.0, abs=0.3)


def test_squeezing_degrades_with_brightness():
    dd = 0.3
    ccs = np.linspace(1.0 / dd, 0.05, 60)
    prev_a2, prev_var = -1.0, 0.0
    for cc in ccs:
        pt = om_evaluate(OmParams(float(cc), dd, 0.0, AMPLITUDE))
        assert pt.alpha_sq >= prev_a2
        assert pt.stats.var_x >= prev_var - 1e-15
        prev_a2, prev_var = pt.alpha_sq, pt.stats.var_x


def test_heisenberg_near_vacuum_limit():
    # close to the zero-displacement boundary the closed forms are
    # uncertainty-consistent
    for dd in np.linspace(0.05, 1.0, 20):
        for eps in np.linspace(0.0, 0.05, 10):
            cc = (1.0 - eps) / dd
            pt = om_evaluate(OmParams(float(cc), float(dd), 0.0, AMPLITUDE))
            assert uncertainty(pt.stats) >= 1.0 - 1e-9


def test_uncertainty_dips_below_vacuum_at_moderate_brightness():
    # the closed forms are asymptotic near the vacuum-output limit; away
    # from it they can report an unphysical sub-unity uncertainty product.
    # Pin the known behaviour so any change to the formulas is caught.
    pt = om_evaluate(OmParams(0.5, 0.5, 0.0, AMPLITUDE))
    assert uncertainty(pt.stats) == pytest.approx(0.9867877177995275, abs=1e-12)
    assert uncertainty(pt.stats) < 1.0


def test_domain_errors():
    with pytest.raises(DomainError):
        OmParams(2.0, 0.6)  # cc*dd > 1
    with pytest.raises(DomainError):
        OmParams(0.0, 0.5)
    with pytest.raises(DomainError):
        OmParams(1.0, -0.1)
    with pytest.raises(DomainError):
        OmParams(1.0, 0.5, -1.0)
    with pytest.raises(DomainError):
        om_leading_order(OmParams(1.0, 0.0), 0.1)  # dd = 0 divides by dd
    with pytest.raises(DomainError):
        om_leading_order(OmParams(1.0, 0.5, 1.0), 0.1)  # n_bar != 0


def test_dd_zero_allowed_for_evaluate():
    pt = om_evaluate(OmParams(0.5, 0.0, 0.0, AMPLITUDE))
    assert pt.stats.var_x == pytest.approx(0.5)
    assert math.isfinite(pt.stats.var_p)


@pytest.mark.parametrize("axis, name", [(AMPLITUDE, "amplitude"), (PHASE, "phase")])
def test_evaluate_tags_the_axis_by_its_string(axis, name):
    params = om_evaluate(OmParams(0.5, 0.3, 0.1, axis)).params
    assert params == {"cc": 0.5, "dd": 0.3, "n_bar": 0.1, "axis": name}
    assert type(params["axis"]) is str

from __future__ import annotations

import dataclasses
import inspect
import math
import pickle
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sqzlab.beamsplitter import B_MAX, HALF_PI, BsParams
from sqzlab.core import (
    DomainError,
    MethodPoint,
    QuadratureStats,
    Regime,
    Skips,
    SqueezedAxis,
    squeeze_metrics,
    uncertainty,
)
from sqzlab.opo import OpoParams
from sqzlab.optomech import OmParams

variances = st.floats(min_value=0.01, max_value=100.0)


def test_uncertainty_vacuum():
    assert uncertainty(QuadratureStats(1.0, 1.0)) == 1.0


def test_uncertainty_pure_squeezed():
    assert uncertainty(QuadratureStats(math.exp(-2), math.exp(2))) == pytest.approx(
        1.0, abs=1e-12
    )


def test_uncertainty_mixed_value():
    # sqrt(0.56767 * 4.19453), frozen from a 40-digit evaluation
    got = uncertainty(QuadratureStats(0.56767, 4.19453))
    assert got == pytest.approx(1.5430841989664725, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_uncertainty_rejects_bad_input(bad):
    with pytest.raises(DomainError):
        QuadratureStats(bad, 1.0)
    with pytest.raises(DomainError):
        QuadratureStats(1.0, bad)


def test_metrics_vacuum():
    m = squeeze_metrics(QuadratureStats(1.0, 1.0))
    assert m.squeeze_db == 0.0
    assert m.uncertainty == 1.0


def test_metrics_squeezed_vacuum():
    m = squeeze_metrics(QuadratureStats(math.exp(-2), math.exp(2)))
    assert m.squeeze_db == pytest.approx(8.685889638065035, abs=1e-12)
    assert m.squeezed_axis is SqueezedAxis.AMPLITUDE


def test_metrics_phase_squeezed():
    m = squeeze_metrics(QuadratureStats(4.0, 0.25))
    assert m.squeezed_axis is SqueezedAxis.PHASE
    assert m.squeeze_db == pytest.approx(6.020599913279624, abs=1e-12)


def test_metrics_sign_convention():
    # squeeze_db >= 0 exactly when the smaller variance is at or below vacuum
    assert squeeze_metrics(QuadratureStats(0.9, 2.0)).squeeze_db > 0.0
    assert squeeze_metrics(QuadratureStats(1.1, 2.0)).squeeze_db < 0.0


@given(var_x=variances, var_p=variances)
def test_uncertainty_symmetric(var_x, var_p):
    a = uncertainty(QuadratureStats(var_x, var_p))
    b = uncertainty(QuadratureStats(var_p, var_x))
    assert a == b


@given(var_x=variances, var_p=variances)
def test_db_mismatch_identity(var_x, var_p):
    # for product >= 1: |antisqueeze_db| - squeeze_db = 10 log10(U^2)
    stats = QuadratureStats(var_x, var_p)
    if var_x * var_p < 1.0:
        return
    m = squeeze_metrics(stats)
    mismatch = abs(m.antisqueeze_db) - m.squeeze_db
    assert mismatch == pytest.approx(10.0 * math.log10(m.uncertainty**2), abs=1e-12)
    assert mismatch >= -1e-12


@given(var_x=variances, var_p=variances)
def test_axis_assignment(var_x, var_p):
    m = squeeze_metrics(QuadratureStats(var_x, var_p))
    if var_x <= var_p:
        assert m.squeezed_axis is SqueezedAxis.AMPLITUDE
    else:
        assert m.squeezed_axis is SqueezedAxis.PHASE


def test_method_point_rejects_negative_alpha_sq():
    with pytest.raises(DomainError):
        MethodPoint(alpha_sq=-0.1, stats=QuadratureStats(1.0, 1.0))


class CountingTemplate(str):
    """A template that counts the messages formatted from it."""

    calls = 0

    def format(self, *args):
        CountingTemplate.calls += 1
        return super().format(*args)


def test_skips_format_each_reason_once_and_later_skips_win():
    CountingTemplate.calls = 0
    skips = Skips(5)
    values = np.array([1.0, -2.0, 3.0, -4.0, 5.0])
    skips.check(values > 0.0, CountingTemplate("negative {!r}"), values)
    # row 3, skipped already, keeps its reason
    skips.check(values < 4.0, CountingTemplate("large {!r}"), values)
    assert CountingTemplate.calls == 0
    assert skips.ok.tolist() == [True, False, True, False, False]
    assert skips.tolist() == ["", "negative -2.0", "", "negative -4.0", "large 5.0"]
    assert CountingTemplate.calls == 3
    skips.skip(np.array([0, 3]), CountingTemplate("capped"))  # in place of any reason
    assert skips[3] == "capped" and skips[1:3].tolist() == ["negative -2.0", ""]
    assert list(skips) == ["capped", "negative -2.0", "", "capped", "large 5.0"]
    assert CountingTemplate.calls == 4 and not skips.ok[0]


# The value types as generated dataclasses that validate in __post_init__,
# as they were defined before their __init__ was written out by hand: the
# reference for fields, signature, repr, eq, hash and every message.
# __qualname__ makes the generated repr print the same class name.


def _finite_positive(name, value):
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class RefQuadratureStats:
    __qualname__ = "QuadratureStats"
    var_x: float
    var_p: float

    def __post_init__(self):
        _finite_positive("var_x", self.var_x)
        _finite_positive("var_p", self.var_p)


@dataclass(frozen=True)
class RefMethodPoint:
    __qualname__ = "MethodPoint"
    alpha_sq: float
    stats: QuadratureStats
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.alpha_sq) or self.alpha_sq < 0.0:
            raise DomainError(f"alpha_sq must be finite and >= 0, got {self.alpha_sq!r}")


@dataclass(frozen=True)
class RefBsParams:
    __qualname__ = "BsParams"
    b: float
    theta: float

    def __post_init__(self):
        if not math.isfinite(self.b):
            raise DomainError(f"b must be finite, got {self.b!r}")
        if abs(self.b) > B_MAX:
            raise DomainError(
                f"|b| must be at most {B_MAX!r}, beyond which e^(2|b|) overflows, "
                f"got {self.b!r}"
            )
        if not 0.0 <= self.theta <= HALF_PI:
            raise DomainError(f"theta must lie in [0, pi/2], got {self.theta!r}")


@dataclass(frozen=True)
class RefOpoParams:
    __qualname__ = "OpoParams"
    c0: float
    seed_ratio: float
    regime: Regime = Regime.PHASE_SQUEEZING

    def __post_init__(self):
        if not 0.0 < self.c0 < 1.0:
            raise DomainError(f"c0 must lie in (0, 1), got {self.c0!r}")
        if not math.isfinite(self.seed_ratio) or self.seed_ratio < 0.0:
            raise DomainError(
                f"seed_ratio must be finite and >= 0, got {self.seed_ratio!r}"
            )


@dataclass(frozen=True)
class RefOmParams:
    __qualname__ = "OmParams"
    cc: float
    dd: float
    n_bar: float = 0.0
    axis: SqueezedAxis = SqueezedAxis.AMPLITUDE

    def __post_init__(self):
        if not math.isfinite(self.cc) or self.cc <= 0.0:
            raise DomainError(f"cc must be > 0, got {self.cc!r}")
        if not math.isfinite(self.dd) or self.dd < 0.0:
            raise DomainError(f"dd must be >= 0, got {self.dd!r}")
        if not math.isfinite(self.n_bar) or self.n_bar < 0.0:
            raise DomainError(f"n_bar must be >= 0, got {self.n_bar!r}")
        if self.cc * self.dd > 1.0:
            raise DomainError(f"cc*dd must not exceed 1, got {self.cc * self.dd!r}")


NAN, INF = math.nan, math.inf
STATS = QuadratureStats(0.5, 3.0)

# class, reference, valid positional arguments (all fields; the first two
# are required in every class), and invalid positional arguments (several
# bad at once where the order of the checks decides the message)
VALUE_TYPES = [
    (QuadratureStats, RefQuadratureStats, (0.5, 3.0),
     [(0.0, 1.0), (-1.0, 1.0), (INF, 1.0), (NAN, 1.0), (1.0, 0.0), (1.0, -INF),
      (1.0, NAN), (0.0, NAN)]),
    (MethodPoint, RefMethodPoint, (0.25, STATS, {"k": 1.0}),
     [(-0.1, STATS), (NAN, STATS), (INF, STATS), (-INF, STATS)]),
    (BsParams, RefBsParams, (1.5, 0.3),
     [(NAN, 0.3), (INF, 0.3), (400.0, 0.3), (-355.0, 0.3), (1.0, -0.1), (1.0, 2.0),
      (1.0, NAN), (NAN, NAN), (400.0, 2.0)]),
    (OpoParams, RefOpoParams, (0.6, 0.2, Regime.AMPLITUDE_SQUEEZING),
     [(0.0, 0.1), (1.0, 0.1), (NAN, 0.1), (-0.5, 0.1), (0.5, -1.0), (0.5, INF),
      (0.5, NAN), (1.5, -1.0)]),
    (OmParams, RefOmParams, (0.5, 0.7, 0.2, SqueezedAxis.PHASE),
     [(0.0, 0.5), (-1.0, 0.5), (INF, 0.5), (NAN, 0.5), (1.0, -0.5), (1.0, NAN),
      (1.0, 0.5, -1.0), (1.0, 0.5, INF), (4.0, 0.5), (NAN, NAN, NAN), (1.0, -0.5, -1.0),
      (4.0, 0.5, -1.0)]),
]
value_types = pytest.mark.parametrize(
    "cls, ref, args, invalid",
    [pytest.param(*case, id=case[0].__name__) for case in VALUE_TYPES],
)


def _values(obj):
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def _message(make):
    with pytest.raises(DomainError) as exc:
        make()
    return str(exc.value)


@value_types
def test_value_type_shape_matches_reference(cls, ref, args, invalid):
    assert dataclasses.is_dataclass(cls)
    assert cls.__dataclass_params__.frozen
    # the parameters as they print; a written-out `-> None` is the string 'None'
    # under postponed annotations, where the generated one is None itself
    got_params, want_params = (inspect.signature(c).parameters.values() for c in (cls, ref))
    assert list(map(str, got_params)) == list(map(str, want_params))
    got, want = dataclasses.fields(cls), dataclasses.fields(ref)
    assert [(f.name, f.type, f.default, f.default_factory) for f in got] == [
        (f.name, f.type, f.default, f.default_factory) for f in want
    ]
    assert cls.__match_args__ == ref.__match_args__


@value_types
def test_value_type_construction_eq_hash_repr(cls, ref, args, invalid):
    names = [f.name for f in dataclasses.fields(cls)]
    obj = cls(*args)
    assert _values(obj) == list(args) == _values(ref(*args))
    assert cls(**dict(zip(names, args))) == obj
    assert _values(cls(*args[:2])) == _values(ref(*args[:2]))
    assert repr(obj) == repr(ref(*args))
    assert obj == cls(*args) and not obj != cls(*args)
    assert obj != ref(*args)  # eq compares within one class, as before
    try:
        want_hash = hash(ref(*args))
    except TypeError:  # a MethodPoint's params dict is unhashable
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == want_hash == hash(cls(*args))


@value_types
def test_value_type_is_frozen_and_pickles(cls, ref, args, invalid):
    obj = cls(*args)
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, args[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)
    assert _values(obj) == list(args)
    back = pickle.loads(pickle.dumps(obj))
    assert back == obj and type(back) is cls
    assert dataclasses.replace(obj) == obj


@value_types
def test_value_type_rejects_what_the_reference_rejects(cls, ref, args, invalid):
    names = [f.name for f in dataclasses.fields(cls)]
    obj, ref_obj = cls(*args), ref(*args)
    for bad in invalid:
        want = _message(lambda: ref(*bad))
        assert _message(lambda: cls(*bad)) == want, bad
        assert _message(lambda: cls(**dict(zip(names, bad)))) == want, bad
        # the fields not in `bad` keep the valid values, which change no message
        change = dict(zip(names, bad))
        want = _message(lambda: dataclasses.replace(ref_obj, **change))
        assert _message(lambda: dataclasses.replace(obj, **change)) == want, bad


def test_method_point_default_params_are_fresh_per_instance():
    a, b = MethodPoint(0.1, STATS), MethodPoint(0.1, STATS)
    assert a.params == {} and b.params == {}
    assert a.params is not b.params
    assert MethodPoint(0.1, STATS, None).params is None  # an explicit value is kept


def test_quadrature_stats_rejects_an_overflowing_uncertainty():
    assert QuadratureStats(1e154, 1e154).var_x == 1e154  # product 1e308 is finite
    for var_x, var_p in ((1e200, 1e200), (2.5e149, 2.56e160)):
        RefQuadratureStats(var_x, var_p)  # accepted before: uncertainty = inf
        assert _message(lambda: QuadratureStats(var_x, var_p)) == (
            "var_x*var_p must be finite, got inf"
        )
    # the variance checks run first
    assert _message(lambda: QuadratureStats(INF, 1e200)).startswith("var_x must be")

"""Shared conventions, scalar types and squeezing metrics.

Conventions used throughout the package:

* Quadratures are X = a + a† and P = i(a† - a), so the vacuum has
  variance 1 in both. A squeeze parameter b maps the variances of a
  squeezed vacuum to (e^{-2b}, e^{2b}).
* The squeeze factor is reported in dB, positive when the smaller
  variance lies below the vacuum level: squeeze_db = -10*log10(min var).
* The overall uncertainty is the product of the standard deviations,
  sqrt(var_x * var_p); it equals 1 for pure minimum-uncertainty states.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np


class DomainError(ValueError):
    """A parameter or input lies outside the physically valid domain."""


class SqueezedAxis(enum.Enum):
    AMPLITUDE = "amplitude"
    PHASE = "phase"


class Regime(enum.Enum):
    """Operating mode of a seeded parametric process.

    PHASE_SQUEEZING is the amplifying configuration (seed grows, phase
    quadrature squeezed); AMPLITUDE_SQUEEZING is the deamplifying one.
    """

    PHASE_SQUEEZING = "phase"
    AMPLITUDE_SQUEEZING = "amplitude"


def _require_finite_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class QuadratureStats:
    """Pair of dimensionless quadrature variances (vacuum = 1)."""

    var_x: float
    var_p: float

    def __post_init__(self) -> None:
        _require_finite_positive("var_x", self.var_x)
        _require_finite_positive("var_p", self.var_p)


@dataclass(frozen=True)
class SqueezeMetrics:
    """Derived squeezing figures for one quadrature pair."""

    squeeze_db: float
    antisqueeze_db: float
    uncertainty: float
    squeezed_axis: SqueezedAxis


@dataclass(frozen=True)
class MethodPoint:
    """One evaluated operating point of a squeezing method.

    ``alpha_sq`` is the squared output displacement relative to the pump
    input displacement. ``params`` is an opaque method-specific record;
    each method module documents its keys.
    """

    alpha_sq: float
    stats: QuadratureStats
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha_sq) or self.alpha_sq < 0.0:
            raise DomainError(f"alpha_sq must be finite and >= 0, got {self.alpha_sq!r}")

    @property
    def uncertainty(self) -> float:
        return uncertainty(self.stats)

    @property
    def squeeze_db(self) -> float:
        return squeeze_metrics(self.stats).squeeze_db


def uncertainty(stats: QuadratureStats) -> float:
    """Overall uncertainty sqrt(var_x * var_p) of a quadrature pair."""
    return math.sqrt(stats.var_x * stats.var_p)


def squeeze_columns(var_x: np.ndarray, var_p: np.ndarray) -> tuple[np.ndarray, ...]:
    """(squeeze_db, uncertainty) over arrays, equal to squeeze_metrics bit for bit."""
    lo = np.minimum(var_x, var_p)  # math.log10: np.log10 can differ by an ulp
    db = -10.0 * np.fromiter(map(math.log10, lo), float, len(lo))
    return db, np.sqrt(var_x * var_p)


def squeeze_metrics(stats: QuadratureStats) -> SqueezeMetrics:
    """Compute squeeze/antisqueeze factors in dB and the uncertainty product.

    The axis is AMPLITUDE when var_x <= var_p, PHASE otherwise. The sign
    convention makes squeeze_db positive exactly when the smaller variance
    is below vacuum.
    """
    lo = min(stats.var_x, stats.var_p)
    hi = max(stats.var_x, stats.var_p)
    axis = SqueezedAxis.AMPLITUDE if stats.var_x <= stats.var_p else SqueezedAxis.PHASE
    return SqueezeMetrics(
        squeeze_db=-10.0 * math.log10(lo),
        antisqueeze_db=-10.0 * math.log10(hi),
        uncertainty=uncertainty(stats),
        squeezed_axis=axis,
    )

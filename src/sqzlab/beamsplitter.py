"""Beam-splitter mixing of a squeezed vacuum with a strong coherent state.

Closed forms in the high-pump-displacement limit, where the pump
amplitude drops out of both the variances and the displacement ratio:

    var_x = e^{-2b} cos^2(theta) + sin^2(theta)
    var_p = e^{+2b} cos^2(theta) + sin^2(theta)
    alpha_sq = sin^2(theta)

b is the input squeeze parameter (b > 0 squeezes amplitude) and theta the
mixing angle. Squeezing degrades linearly in alpha_sq while the overall
uncertainty grows as sqrt(1 + 4 alpha_sq (1 - alpha_sq) sinh^2 b).

`bs_evaluate` (one point) and `bs_columns` (a sweep's columns) share one
formula; exp, cos and sin are libm's in both. The column form calls them
once per distinct b and theta value, as a grid repeats each over many rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import DomainError, MethodPoint, QuadratureStats, Skips, distinct, mapped

HALF_PI = math.pi / 2.0
B_MAX = math.log(sys.float_info.max) / 2.0  # the largest |b| with e^(2|b|) finite
_B_FINITE = "b must be finite, got {!r}"
_B_RANGE = f"|b| must be at most {B_MAX!r}, beyond which e^(2|b|) overflows, got {{!r}}"
_THETA_RANGE = "theta must lie in [0, pi/2], got {!r}"


@dataclass(frozen=True)
class BsParams:
    """Squeeze parameter of the input vacuum and beam-splitter angle."""

    b: float
    theta: float

    def __init__(self, b: float, theta: float) -> None:
        if not math.isfinite(b):
            raise DomainError(_B_FINITE.format(b))
        if abs(b) > B_MAX:
            raise DomainError(_B_RANGE.format(b))
        if not 0.0 <= theta <= HALF_PI:
            raise DomainError(_THETA_RANGE.format(theta))
        d = self.__dict__
        d["b"] = b
        d["theta"] = theta


def _outputs(e_minus, e_plus, cos, sin):
    """(alpha_sq, var_x, var_p) from e^{-2b}, e^{2b}, cos(theta), sin(theta)."""
    c2, s2 = cos * cos, sin * sin
    return s2, e_minus * c2 + s2, e_plus * c2 + s2


def bs_evaluate(params: BsParams) -> MethodPoint:
    """Output displacement ratio and quadrature variances for one setting."""
    b, theta = params.b, params.theta
    alpha_sq, var_x, var_p = _outputs(
        math.exp(-2.0 * b), math.exp(2.0 * b), math.cos(theta), math.sin(theta)
    )
    stats = QuadratureStats(var_x, var_p)
    return MethodPoint(alpha_sq, stats, {"b": b, "theta": theta})


def bs_columns(b: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """bs_evaluate over columns: (alpha_sq, var_x, var_p, ok, reason)."""
    skips = Skips(len(b))
    with np.errstate(invalid="ignore"):
        skips.check(abs(b) < math.inf, _B_FINITE, b)
        skips.check(abs(b) <= B_MAX, _B_RANGE, b)
        skips.check((theta >= 0.0) & (theta <= HALF_PI), _THETA_RANGE, theta)
    b, theta = (np.where(skips.ok, c, 0.0) for c in (b, theta))  # math.cos(inf) raises
    b, b_row = distinct(b)
    theta, theta_row = distinct(theta)
    e_minus, e_plus = (mapped(math.exp, sign * b)[b_row] for sign in (-2.0, 2.0))
    cos, sin = (mapped(fn, theta)[theta_row] for fn in (math.cos, math.sin))
    return skips.outputs(*_outputs(e_minus, e_plus, cos, sin))


def bs_uncertainty(params: BsParams) -> float:
    """Overall uncertainty sqrt(1 + 4 a2 (1 - a2) sinh^2 b), a2 = sin^2 theta.

    Algebraically identical to sqrt(var_x * var_p) of :func:`bs_evaluate`
    and to sqrt(1 + 2 cos^2 sin^2 (cosh 2b - 1)).
    """
    a2 = math.sin(params.theta) ** 2
    return math.sqrt(1.0 + 4.0 * a2 * (1.0 - a2) * math.sinh(params.b) ** 2)

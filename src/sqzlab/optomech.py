"""Seeded dissipative optomechanical squeezer, closed forms.

The evaluator is parameterized directly by the cooperativity cc, the
two-tone probe asymmetry dd and the mechanical thermal occupation n_bar;
the underlying rate assumptions (mechanical damping below the cavity
linewidth, both far below the mechanical frequency) are baked into the
closed forms and are not runtime inputs.

For the amplitude-squeezing drive phase:

    alpha_sq = (1 - cc*dd)^3 / (2 cc^2 (1 + dd^2))
    var_x    = (1 + dd^2)(1 - cc*dd)/2 + cc dd^2 (2 n_bar + 1)
    var_p    = (1 - cc*dd)^2/(1 + cc*dd)^2
               + 4 cc (2 n_bar + 1)/(1 + cc*dd)^2

with var_x and var_p interchanged for the phase-squeezing phase. The
vacuum output limit is cc*dd = 1, where alpha_sq = 0 and the variances
reduce to ((2 n_bar + 1)/cc, cc (2 n_bar + 1)).

These expressions are asymptotic and break the vacuum floor away from
the cc*dd = 1 limit, by far more than rounding: 13,942 of the 17,511 ok
rows of the default grid have U < 1 - 1e-9, down to U = 0.7085. As
cc -> 0 the two variances tend to (1 + dd^2)/2 and 1, not to the
vacuum's 1 and 1, so U tends to sqrt((1 + dd^2)/2): cc = 1e-6, dd = 0
gives U = 0.7071. Unlike the other evaluators they should not be relied
on as quantum states at moderate brightness.

`om_evaluate` (one point), `om_columns` (a sweep's columns) and the
inversion `cooperativity_for_alpha_sq` share the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, MethodPoint, QuadratureStats, Skips, SqueezedAxis

_CC = "cc must be > 0, got {!r}"
_DD = "dd must be >= 0, got {!r}"
_N_BAR = "n_bar must be >= 0, got {!r}"
_CC_DD = "cc*dd must not exceed 1, got {!r}"
# The scalar evaluators compare with a member bound here and read a member's
# _value_: on Python 3.11 an enum class attribute lookup costs about 125 ns
# and the .value property about 150 ns, a call.
_AMPLITUDE = SqueezedAxis.AMPLITUDE


@dataclass(frozen=True)
class OmParams:
    cc: float
    dd: float
    n_bar: float = 0.0
    axis: SqueezedAxis = SqueezedAxis.AMPLITUDE

    def __init__(
        self,
        cc: float,
        dd: float,
        n_bar: float = 0.0,
        axis: SqueezedAxis = SqueezedAxis.AMPLITUDE,
    ) -> None:
        if not math.isfinite(cc) or cc <= 0.0:
            raise DomainError(_CC.format(cc))
        if not math.isfinite(dd) or dd < 0.0:
            raise DomainError(_DD.format(dd))
        if not math.isfinite(n_bar) or n_bar < 0.0:
            raise DomainError(_N_BAR.format(n_bar))
        if cc * dd > 1.0:
            raise DomainError(_CC_DD.format(cc * dd))
        if not isinstance(axis, SqueezedAxis):
            raise DomainError(f"axis must be a SqueezedAxis, got {axis!r}")
        d = self.__dict__
        d["cc"] = cc
        d["dd"] = dd
        d["n_bar"] = n_bar
        d["axis"] = axis


def _outputs(cc, dd, n_bar, axis: SqueezedAxis):
    """(alpha_sq, var_x, var_p) of one drive setting."""
    thermal = 2.0 * n_bar + 1.0
    cd = cc * dd
    u, v = 1.0 - cd, (1.0 + cd) * (1.0 + cd)
    alpha_sq = u * u * u / (2.0 * cc * cc * (1.0 + dd * dd))
    squeezed = (1.0 + dd * dd) * u / 2.0 + cc * dd * dd * thermal
    anti = u * u / v + 4.0 * cc * thermal / v
    if axis is _AMPLITUDE:
        return alpha_sq, squeezed, anti
    return alpha_sq, anti, squeezed


def om_evaluate(params: OmParams) -> MethodPoint:
    """Output displacement ratio and variances for one drive setting."""
    cc, dd = params.cc, params.dd
    try:
        alpha_sq, var_x, var_p = _outputs(cc, dd, params.n_bar, params.axis)
    except ZeroDivisionError:  # cc*cc underflowed to 0: the column form's
        # IEEE division gives inf or NaN, and the reason it skips the row
        row = (np.array([v]) for v in (cc, dd, params.n_bar))
        *_, reason = om_columns(*row, params.axis)
        raise DomainError(reason[0]) from None
    return MethodPoint(
        alpha_sq,
        QuadratureStats(var_x, var_p),
        {"cc": cc, "dd": dd, "n_bar": params.n_bar, "axis": params.axis._value_},
    )


def om_columns(
    cc: np.ndarray, dd: np.ndarray, n_bar: np.ndarray, axis: SqueezedAxis
) -> tuple[np.ndarray, ...]:
    """om_evaluate over columns: (alpha_sq, var_x, var_p, ok, reason)."""
    skips = Skips(len(cc))
    with np.errstate(all="ignore"):
        skips.check((abs(cc) < math.inf) & (cc > 0.0), _CC, cc)
        skips.check((abs(dd) < math.inf) & (dd >= 0.0), _DD, dd)
        skips.check((abs(n_bar) < math.inf) & (n_bar >= 0.0), _N_BAR, n_bar)
        skips.check(~(cc * dd > 1.0), _CC_DD, cc * dd)
        return skips.outputs(*_outputs(cc, dd, n_bar, axis))


def om_leading_order(params: OmParams, alpha_sq: float) -> QuadratureStats:
    """Leading-order variances in alpha_sq at zero thermal occupation.

    Valid for 0 < dd <= 1 and small alpha_sq:

        squeezed ~ dd [1 + (1 - dd)^2/dd * k],  k = ((1 + 1/dd^2)/4 * alpha_sq)^{1/3}
        anti     ~ (1/dd) [1 - (1 - dd) k^2]

    The residual against :func:`om_evaluate` shrinks as alpha^{4/3} on the
    squeezed variance and as alpha^2 on the antisqueezed one.
    """
    dd = params.dd
    if dd <= 0.0:
        raise DomainError(f"dd must be > 0 for the expansion, got {dd!r}")
    if dd > 1.0:
        raise DomainError(f"dd must be <= 1 for the expansion, got {dd!r}")
    if params.n_bar != 0.0:
        raise DomainError("the expansion assumes n_bar = 0")
    if alpha_sq < 0.0:
        raise DomainError(f"alpha_sq must be >= 0, got {alpha_sq!r}")
    k = ((1.0 + 1.0 / dd**2) / 4.0 * alpha_sq) ** (1.0 / 3.0)
    squeezed = dd * (1.0 + (1.0 - dd) ** 2 / dd * k)
    anti = (1.0 / dd) * (1.0 - (1.0 - dd) * k * k)
    if params.axis is SqueezedAxis.AMPLITUDE:
        return QuadratureStats(var_x=squeezed, var_p=anti)
    return QuadratureStats(var_x=anti, var_p=squeezed)


def cooperativity_for_alpha_sq(dd: float, alpha_sq: float) -> float:
    """Invert alpha_sq(cc) at fixed dd by bisection.

    alpha_sq decreases monotonically from +inf at cc -> 0 to 0 at
    cc = 1/dd, so the root is unique.
    """
    if not 0.0 < dd < math.inf:
        raise DomainError(f"dd must be finite and > 0, got {dd!r}")
    if not 0.0 < alpha_sq < math.inf:
        raise DomainError(f"alpha_sq must be finite and > 0, got {alpha_sq!r}")

    lo, hi = 1e-12, 1.0 / dd
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _outputs(mid, dd, 0.0, SqueezedAxis.AMPLITUDE)[0] > alpha_sq:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

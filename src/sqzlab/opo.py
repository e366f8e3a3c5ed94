"""Seeded degenerate optical parametric oscillator, single-sided cavity.

Steady state is computed in the dimensionless chart kappa = 1, g = 1. The
pump drive is fixed by the zero-seed cooperativity c0 = g*A_p0/(kappa/2)
through A_p0 = -2*e_p, i.e. e_p = -c0/4 in the amplifying (phase
squeezing) regime and +c0/4 in the deamplifying (amplitude squeezing)
one; the seed drive is e_s = seed_ratio * |e_p|.

Eliminating A_p from the steady-state pair gives a depressed cubic

    A_s^3 + p A_s + q = 0,   p = (1 + 4 e_p)/2,   q = e_s,

with one real root for p > 0. Cardano's formula gives it as
p / (3c) - c, c = cbrt(q/2 + sqrt(q^2/4 + p^3/27)); at small seeds the two
terms cancel (up to 2.2e-7 relative in alpha_sq on the default
deamplifying grid), so one Newton step on the cubic follows. Against a
50-digit root on a 1-in-7 subsample of the default grids, alpha_sq is then
within 8.8e-14 (amplifying) and 2.0e-13 (deamplifying, where e_s + A_s
cancels) relative. The auxiliary value chi = e_s (1 - sqrt(1 + S)) =
q - 2 sqrt(D), S = 4 p^3 / (27 q^2), D = q^2/4 + p^3/27, identifies the
root branch, which is real while D >= 0. Every returned state is verified
against the steady-state pair to a 1e-9 residual; failure raises instead
of silently switching branches.

Output quadrature variances (vacuum = 1) at zero detection frequency:

    var_x = [(A_s^2 - A_p/2 - 1/4)^2 + A_s^2] / (A_s^2 - A_p/2 + 1/4)^2
    var_p = [(A_s^2 + A_p/2 - 1/4)^2 + A_s^2] / (A_s^2 + A_p/2 + 1/4)^2

and the relative squared output displacement is
alpha_sq = ((e_s + A_s)/e_p)^2.

`opo_evaluate` (one point) and `opo_columns` (a sweep's columns) share
each formula, with math.cbrt in both; the column form records a failed
check as a skipped row with the message the scalar form raises.
`opo_evaluate` takes the residual-checked steady state as plain floats and
builds no OpoSteadyState; `opo_steady_state` returns the same values as one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, MethodPoint, QuadratureStats, Regime, Skips, mapped

_RESIDUAL_TOL = 1e-9
# The scalar evaluators compare with a member bound here and read a member's
# _value_: on Python 3.11 an enum class attribute lookup costs about 125 ns
# and the .value property about 150 ns, a call.
_AMPLITUDE = Regime.AMPLITUDE_SQUEEZING
_C0_RANGE = "c0 must lie in (0, 1), got {!r}"
_SEED_RANGE = "seed_ratio must be finite and >= 0, got {!r}"
_BRANCH = "steady-state branch is complex for seed {!r}, pump {!r}"
_RESIDUAL = (
    "steady-state residual {:.3e} exceeds " + f"{_RESIDUAL_TOL:g}"
    + " at c0={}, seed_ratio={}"
)


class BranchError(DomainError):
    """The selected cubic branch stopped being real for these inputs."""


@dataclass(frozen=True)
class OpoParams:
    """Zero-seed cooperativity, seed-to-pump drive ratio and regime."""

    c0: float
    seed_ratio: float
    regime: Regime = Regime.PHASE_SQUEEZING

    def __init__(
        self, c0: float, seed_ratio: float, regime: Regime = Regime.PHASE_SQUEEZING
    ) -> None:
        if not 0.0 < c0 < 1.0:
            raise DomainError(_C0_RANGE.format(c0))
        if not math.isfinite(seed_ratio) or seed_ratio < 0.0:
            raise DomainError(_SEED_RANGE.format(seed_ratio))
        if not isinstance(regime, Regime):
            raise DomainError(f"regime must be a Regime, got {regime!r}")
        d = self.__dict__
        d["c0"] = c0
        d["seed_ratio"] = seed_ratio
        d["regime"] = regime


@dataclass(frozen=True)
class OpoSteadyState:
    """Intracavity amplitudes and the cubic auxiliary chi (kappa = g = 1)."""

    a_s: float
    a_p: float
    chi: float
    seed_in: float
    pump_in: float


def _drives(c0, seed_ratio, regime: Regime):
    """Seed and pump drives (e_s, e_p)."""
    pump = -c0 / 4.0
    if regime is _AMPLITUDE:
        pump = -pump
    return seed_ratio * abs(pump), pump


def _cubic(e_s, e_p):
    """p, q and the discriminant D = q^2/4 + p^3/27 of A^3 + pA + q = 0."""
    p = (1.0 + 4.0 * e_p) / 2.0
    return p, e_s, e_s * e_s / 4.0 + p * p * p / 27.0


def _root(p, q, d, sqrt, cbrt):
    """Real root of A^3 + pA + q = 0 and chi = q - 2 sqrt(D), for q, D >= 0.

    Cardano's root, then one Newton step to restore the digits its two
    terms cancel at small q.
    """
    root_d = sqrt(d)
    c = cbrt(q / 2.0 + root_d)
    a = p / (3.0 * c) - c
    return a - (a * a * a + p * a + q) / (3.0 * a * a + p), q - 2.0 * root_d


def _solve_cubic(e_s: float, e_p: float) -> tuple[float, float]:
    """Real root of A_s^3 + p A_s + q = 0 and the chi auxiliary."""
    if e_s == 0.0:
        return 0.0, 0.0
    p, q, d = _cubic(e_s, e_p)
    if d < 0.0:
        raise BranchError(_BRANCH.format(e_s, e_p))
    return _root(p, q, d, math.sqrt, math.cbrt)


def _pump(a_s, e_s, e_p):
    """A_p and the residuals |r_s|, |r_p| of the steady-state pair."""
    a_p = -a_s * a_s - 2.0 * e_p
    r_s = a_s - (2.0 * a_s * a_p - 2.0 * e_s)
    r_p = a_p - (-a_s * a_s - 2.0 * e_p)
    return a_p, abs(r_s), abs(r_p)


def _steady_state(c0: float, seed_ratio: float, regime: Regime) -> tuple[float, ...]:
    """(a_s, a_p, chi, e_s, e_p) of the steady state; residual-checked."""
    e_s, e_p = _drives(c0, seed_ratio, regime)
    a_s, chi = _solve_cubic(e_s, e_p)
    a_p, r_s, r_p = _pump(a_s, e_s, e_p)
    residual = r_p if r_p > r_s else r_s  # max(r_s, r_p), NaN handling included
    if residual > _RESIDUAL_TOL:
        raise BranchError(_RESIDUAL.format(residual, c0, seed_ratio))
    return a_s, a_p, chi, e_s, e_p


def opo_steady_state(params: OpoParams) -> OpoSteadyState:
    """Solve for the intracavity amplitudes; residual-checked."""
    a_s, a_p, chi, e_s, e_p = _steady_state(params.c0, params.seed_ratio, params.regime)
    return OpoSteadyState(a_s=a_s, a_p=a_p, chi=chi, seed_in=e_s, pump_in=e_p)


def _outputs(a_s, a_p, e_s, e_p):
    """(alpha_sq, var_x, var_p) of a steady state."""
    r, h = a_s * a_s, a_p / 2.0
    gain = (e_s + a_s) / e_p
    var_x = ((r - h - 0.25) * (r - h - 0.25) + r) / ((r - h + 0.25) * (r - h + 0.25))
    var_p = ((r + h - 0.25) * (r + h - 0.25) + r) / ((r + h + 0.25) * (r + h + 0.25))
    return gain * gain, var_x, var_p


def opo_evaluate(params: OpoParams) -> MethodPoint:
    """Exact output point from the residual-checked steady state."""
    c0, seed_ratio, regime = params.c0, params.seed_ratio, params.regime
    a_s, a_p, _, e_s, e_p = _steady_state(c0, seed_ratio, regime)
    alpha_sq, var_x, var_p = _outputs(a_s, a_p, e_s, e_p)
    return MethodPoint(
        alpha_sq,
        QuadratureStats(var_x, var_p),
        {"c0": c0, "seed_ratio": seed_ratio, "regime": regime._value_},
    )


def opo_columns(
    c0: np.ndarray, seed_ratio: np.ndarray, regime: Regime
) -> tuple[np.ndarray, ...]:
    """opo_evaluate over columns: (alpha_sq, var_x, var_p, ok, reason)."""
    skips = Skips(len(c0))
    with np.errstate(all="ignore"):  # skipped rows compute garbage
        skips.check((c0 > 0.0) & (c0 < 1.0), _C0_RANGE, c0)
        finite = abs(seed_ratio) < math.inf
        skips.check(finite & (seed_ratio >= 0.0), _SEED_RANGE, seed_ratio)
        e_s, e_p = _drives(c0, seed_ratio, regime)
        p, q, d = _cubic(e_s, e_p)
        unseeded = q == 0.0
        skips.check(unseeded | ~(d < 0.0), _BRANCH, e_s, e_p)
        a_s, _ = _root(p, q, d, np.sqrt, lambda x: mapped(math.cbrt, x))
        a_s = np.where(unseeded, 0.0, a_s)
        a_p, r_s, r_p = _pump(a_s, e_s, e_p)
        residual = np.where(r_p > r_s, r_p, r_s)  # max() as the scalar takes it
        skips.check(
            ~(residual > _RESIDUAL_TOL), _RESIDUAL, residual, c0, seed_ratio
        )
        return skips.outputs(*_outputs(a_s, a_p, e_s, e_p))


def perturbative_stats(c0: float, alpha_sq: float, regime: Regime) -> QuadratureStats:
    """Small-seed expansion of the output variances at a given alpha_sq.

    In the amplifying regime the intracavity seed obeys, to leading order,
    A_s^2 = c0^2 alpha_sq / (4 (1 + c0)^2); substituting it into the exact
    variance forms yields the expansion. The deamplifying regime follows
    by flipping the sign of the cooperativity. Residual error against the
    exact evaluator is O(alpha_sq^2).
    """
    if not 0.0 < c0 < 1.0:
        raise DomainError(f"c0 must lie in (0, 1), got {c0!r}")
    if alpha_sq < 0.0:
        raise DomainError(f"alpha_sq must be >= 0, got {alpha_sq!r}")
    c = c0 if regime is Regime.PHASE_SQUEEZING else -c0
    a2 = c * c * alpha_sq / (4.0 * (1.0 + c) ** 2)
    var_x = ((6.0 * a2 - c - 1.0) ** 2 + 16.0 * a2) / (6.0 * a2 - c + 1.0) ** 2
    var_p = ((2.0 * a2 + c - 1.0) ** 2 + 16.0 * a2) / (2.0 * a2 + c + 1.0) ** 2
    return QuadratureStats(var_x=var_x, var_p=var_p)


def perturbative_gain(c0: float, regime: Regime) -> float:
    """Small-seed output/input displacement ratio magnitude."""
    if regime is Regime.PHASE_SQUEEZING:
        return (1.0 + c0) / (1.0 - c0)
    return (1.0 - c0) / (1.0 + c0)


def opo_perturbative(params: OpoParams) -> MethodPoint:
    """Perturbative analogue of :func:`opo_evaluate` for small seeds."""
    alpha_sq = (perturbative_gain(params.c0, params.regime) * params.seed_ratio) ** 2
    return MethodPoint(
        alpha_sq=alpha_sq,
        stats=perturbative_stats(params.c0, alpha_sq, params.regime),
        params={
            "c0": params.c0,
            "seed_ratio": params.seed_ratio,
            "regime": params.regime.value,
        },
    )


def amplitude_cutoff_index(alpha_sqs) -> int | None:
    """First index at which alpha_sq stops increasing along a seed sweep.

    Deamplifying sweeps lose their one-to-one map between seed input and
    output brightness once the seed needed to overcome deamplification
    turns alpha_sq(seed) around; points from the first decrease onward
    should be discarded. Returns None for a monotone sequence.
    """
    drops = np.flatnonzero(np.diff(np.asarray(alpha_sqs, dtype=float)) < 0.0)
    return int(drops[0]) + 1 if drops.size else None

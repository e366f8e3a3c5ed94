"""Seeded traveling-wave optical parametric amplifier.

Mean fields are analytic. With g = 1 and |e_p| = 1 (time is then the
dimensionless tau = g*e_p*t) the pump/seed pair

    dA_s/dt = A_s A_p,   dA_p/dt = -A_s^2 / 2

conserves c1 = A_s^2/2 + A_p^2 and is solved by

    A_s(t) = sqrt(2 c1) sech(u),  A_p(t) = -sqrt(c1) tanh(u),
    u = t sqrt(c1) - artanh(e_p / sqrt(c1)).

The amplifying regime takes e_p = +1 (seed grows, phase squeezed), the
deamplifying one e_p = -1. At long times the seed always dies out and the
pump tends to -sqrt(c1).

Quadrature fluctuations are linearized around the mean fields. For real
fields the X and P sectors decouple:

    d/dt (x_s, x_p) = M_x (x_s, x_p),  M_x = [[ A_p, A_s], [-A_s, 0]]
    d/dt (p_s, p_p) = M_p (p_s, p_p),  M_p = [[-A_p, A_s], [-A_s, 0]]

and each 2x2 covariance block is V = Phi Phi^T for the sector's
fundamental matrix Phi, starting from the vacuum (identity). Both Phi are
closed form:

* X sector. M_x is the Jacobian of the mean-field vector field
  f(A) = (A_s A_p, -A_s^2/2), so symmetries of the flow give solutions of
  the linearized equation: time translation gives f(A_t) and the scaling
  A -> lambda A(lambda t) gives A_t + t f(A_t). Hence
  Phi_x = [f(A_t), A_t + t f(A_t)] [f(A_0), A_0]^-1.
* P sector. M_p = -M_x^T (the linearized flow is symplectic), so
  Phi_p = Phi_x^-T, and det Phi_x = A_s(t)/A_s(0) by Liouville's formula.
  This is the matrix that the phase-rotation solution (A_s, 2 A_p) and its
  reduction-of-order partner give; written this way it has no 0/0 as the
  seed goes to zero.

The seed's own amplitude divides out of every entry, so one formula covers
the zero-seed limit, where the sectors decouple into diag(e^{2 e_p t}, 1)
and diag(e^{-2 e_p t}, 1). det(V_x) det(V_p) = 1: the joint
four-quadrature state stays pure even as the seed marginal becomes mixed.

One helper evaluates the mean fields and both blocks at seeds and times
that broadcast: `evolve` and trajectories take every seed at every time,
sweeps (`opa_columns`) and `opa_evaluate` the rows of two columns. A
covariance that overflows double precision is reported as a DomainError.
`sqzlab.oracle.opa_covariance_rk4` integrates dV/dt = M V + V M^T with
fixed-step RK4 on all four quadratures at once, with the oracle's
`parametric_drift` (M_x and M_p are its X and P slices);
`opa_propagate(..., check_steps=n)` runs it over n steps and raises
NonConvergenceError when it departs from the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    MAX_GRID_POINTS, DomainError, MethodPoint, QuadratureStats, Regime, Skips, mapped,
)

_SEED = "seed_ratio must be finite and >= 0, got {!r}"
OVERFLOW = "noise covariance overflows double precision at tau={!r} (seed_ratio={!r})"


class NonConvergenceError(RuntimeError):
    """RK4 at the requested step count departs from the closed form."""


def _pump_sign(regime: Regime) -> float:
    return 1.0 if regime is Regime.PHASE_SQUEEZING else -1.0


@dataclass(frozen=True)
class OpaParams:
    seed_ratio: float
    t_max: float
    regime: Regime = Regime.PHASE_SQUEEZING

    def __post_init__(self) -> None:
        if not math.isfinite(self.seed_ratio) or self.seed_ratio < 0.0:
            raise DomainError(_SEED.format(self.seed_ratio))
        if not 0.0 < self.t_max < math.inf:
            raise DomainError(f"t_max must be finite and > 0, got {self.t_max!r}")

    @property
    def pump_sign(self) -> float:
        return _pump_sign(self.regime)


@dataclass(frozen=True)
class OpaTrajectory:
    """Mean fields and quadrature covariance blocks on a time grid.

    cov_x[i] and cov_p[i] are the 2x2 (seed, pump) covariance blocks of
    the X and P sectors at times[i].
    """

    times: np.ndarray
    a_s: np.ndarray
    a_p: np.ndarray
    cov_x: np.ndarray
    cov_p: np.ndarray
    params: OpaParams = field(repr=False)

    def seed_stats(self, i: int) -> QuadratureStats:
        return QuadratureStats(
            var_x=float(self.cov_x[i, 0, 0]), var_p=float(self.cov_p[i, 0, 0])
        )

    def point(self, i: int) -> MethodPoint:
        return opa_evaluate(self.params, float(self.times[i]))


def _fields(
    s: float | np.ndarray, pump_sign: float, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """r = A_s(t)/A_s(0) and A_p(t), broadcast over seeds s and times t >= 0.

    The closed form, rewritten with e = exp(-2x), x = sqrt(c1) t and
    k = 1 - pump/sqrt(c1) (that is, 1 + tanh u0):

        r = 2 sqrt(e) / N,   A_p = pump - s^2 (1 - e) / (2 sqrt(c1) N),
        N = 2e + k (1 - e).

    Every term of N is >= 0, so nothing cancels as the seed goes to zero;
    t = 0 gives r = 1 and A_p = pump exactly, and large t underflows rather
    than overflowing.
    """
    s2 = s * s
    c1 = 1.0 + s2 / 2.0
    rc = np.sqrt(c1)
    # 1 - 1/sqrt(c1) written without cancellation for the amplifying pump
    k = s2 / (2.0 * (c1 + rc)) if pump_sign > 0 else 1.0 + 1.0 / rc
    x = rc * t
    q = np.exp(-x)
    one_minus_e = -np.expm1(-2.0 * x)
    n = 2.0 * q * q + k * one_minus_e
    return 2.0 * q / n, pump_sign - s2 * one_minus_e / (2.0 * rc * n)


def mean_fields(
    times: np.ndarray, seed_ratio: float, pump_sign: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (A_s, A_p) on a time grid (times >= 0)."""
    times = np.asarray(times, dtype=float)
    if seed_ratio == 0.0:
        return np.zeros_like(times), np.full_like(times, pump_sign)
    r, a_p = _fields(seed_ratio, pump_sign, times)
    return seed_ratio * r, a_p


def opa_mean_field(params: OpaParams, t: float) -> tuple[float, float]:
    """Mean amplitudes (A_s, A_p) at one time."""
    a_s, a_p = mean_fields(np.array([t]), params.seed_ratio, params.pump_sign)
    return float(a_s[0]), float(a_p[0])


def _gram(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Phi Phi^T for the stack of 2x2 matrices with rows (a, b) and (c, d)."""
    out = np.empty(a.shape + (2, 2))
    out[..., 0, 0] = a * a + b * b
    out[..., 0, 1] = out[..., 1, 0] = a * c + b * d
    out[..., 1, 1] = c * c + d * d
    return out


def _evolve(s: np.ndarray, p: float, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """a_s, a_p, cov_x and cov_p at seeds s and times t >= 0, broadcast
    against each other; the blocks have two more axes of length 2."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        r, a_p = _fields(s, p, t)
        s2 = s * s
        c1 = 1.0 + s2 / 2.0
        rr = r * r
        # Phi_x with the 1/s of [f(A_0), A_0]^-1 divided into A_s = s r
        f11 = r * (p * a_p + 0.5 * s2 * (1.0 + t * a_p)) / c1
        f12 = s * r * (p + (p * t - 1.0) * a_p) / c1
        f21 = s * (a_p - p * rr - 0.5 * t * s2 * rr) / (2.0 * c1)
        f22 = (p * a_p + 0.5 * s2 * rr * (1.0 - p * t)) / c1
        cov_x = _gram(f11, f12, f21, f22)
        # Phi_p = Phi_x^-T, with 1/det Phi_x = 1/r
        cov_p = _gram(f22 / r, -f21 / r, -f12 / r, f11 / r)
        a_s = s * r
    return a_s, a_p, cov_x, cov_p


def evolve(
    seed_ratios: Sequence[float] | np.ndarray, regime: Regime,
    times: Sequence[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean fields and covariance blocks of each seed at each time >= 0.

    Returns a_s and a_p of shape (seeds, times) and cov_x, cov_p of shape
    (seeds, times, 2, 2). Entries past the range of double precision come
    out inf or nan; callers report them as a DomainError (OVERFLOW).
    """
    s = np.asarray(seed_ratios, dtype=float)[:, None]
    t = np.asarray(times, dtype=float)[None, :]
    return _evolve(s, _pump_sign(regime), t)


def opa_columns(
    seed_ratio: np.ndarray, tau: np.ndarray, regime: Regime
) -> tuple[np.ndarray, ...]:
    """The seed's output at each row of two columns, as opa_evaluate gives it:
    (alpha_sq, var_x, var_p, ok, reason)."""
    skips = Skips(len(seed_ratio))
    finite = abs(seed_ratio) < math.inf
    skips.check(finite & (seed_ratio >= 0.0), _SEED, seed_ratio)
    a_s, _, cov_x, cov_p = _evolve(seed_ratio, _pump_sign(regime), tau)
    alpha_sq = mapped(lambda a: a**2, a_s)  # libm pow; |e_p| = 1
    var_x, var_p = cov_x[:, 0, 0], cov_p[:, 0, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        skips.check(abs(var_x * var_p) < math.inf, OVERFLOW, tau, seed_ratio)
    return skips.outputs(alpha_sq, var_x, var_p)


def propagate_batch(
    seed_ratios: Sequence[float], regime: Regime, t_max: float, samples: int
) -> list[OpaTrajectory]:
    """Trajectories of many seeds at the samples + 1 times
    linspace(0, t_max, samples + 1)."""
    if not 1 <= samples < MAX_GRID_POINTS:
        raise DomainError(
            f"samples must be >= 1 and within the limit of {MAX_GRID_POINTS - 1},"
            f" got {samples!r}"
        )
    params = [OpaParams(s, t_max, regime) for s in seed_ratios]
    times = np.linspace(0.0, t_max, samples + 1)
    a_s, a_p, cov_x, cov_p = evolve([p.seed_ratio for p in params], regime, times)
    with np.errstate(over="ignore", invalid="ignore"):
        over = np.argwhere(~(abs(cov_x[..., 0, 0] * cov_p[..., 0, 0]) < math.inf))
    if over.size:
        j, i = over[0]
        raise DomainError(OVERFLOW.format(float(times[i]), params[j].seed_ratio))
    return [
        OpaTrajectory(times, a_s[j], a_p[j], cov_x[j], cov_p[j], p)
        for j, p in enumerate(params)
    ]


def opa_propagate(
    params: OpaParams, samples: int, check_steps: int = 0
) -> OpaTrajectory:
    """Noise covariance from vacuum at linspace(0, t_max, samples + 1).

    With check_steps > 0 the RK4 validator integrates over that many steps
    and is compared with the closed form on its own grid; a departure above
    1e-6 (relative to sqrt(V_ii V_jj) for each entry V_ij) raises
    NonConvergenceError.
    """
    if check_steps and not 2 <= check_steps <= MAX_GRID_POINTS:
        raise DomainError(
            f"an RK4 check takes from 2 steps to the limit of {MAX_GRID_POINTS},"
            f" got {check_steps!r}"
        )
    traj = propagate_batch([params.seed_ratio], params.regime, params.t_max, samples)[0]
    if check_steps:
        from .oracle import opa_covariance_gap, opa_covariance_rk4  # oracle imports us

        times, _, _, rk4_x, rk4_p = opa_covariance_rk4(
            np.array([params.seed_ratio]), params.pump_sign, params.t_max, check_steps
        )
        _, _, cov_x, cov_p = evolve([params.seed_ratio], params.regime, times)
        gap = opa_covariance_gap(cov_x, cov_p, rk4_x, rk4_p)
        if not gap <= 1e-6:
            raise NonConvergenceError(
                f"RK4 at n_steps={check_steps} departs from the closed-form "
                f"covariance by {gap:.3e} (relative); refine the step count"
            )
    return traj


def opa_evaluate(params: OpaParams, t: float) -> MethodPoint:
    """Output point at interaction time exactly t."""
    if not 0.0 <= t <= params.t_max:
        raise DomainError(f"t must lie in [0, t_max], got {t!r}")
    seed, tau = np.array([params.seed_ratio], float), np.array([t], float)
    *numbers, ok, reason = opa_columns(seed, tau, params.regime)
    if not ok[0]:
        raise DomainError(reason[0])
    alpha_sq, var_x, var_p = (c.item() for c in numbers)
    return MethodPoint(
        alpha_sq=alpha_sq,
        stats=QuadratureStats(var_x=var_x, var_p=var_p),
        params={
            "seed_ratio": float(params.seed_ratio), "tau": float(t),
            "regime": params.regime.value,
        },
    )

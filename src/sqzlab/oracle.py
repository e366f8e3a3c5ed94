"""Brute-force validators independent of the closed-form evaluators.

Four small engines live here:

* a symplectic Gaussian-state simulator (squeeze, displace, beam-splitter)
  used to cross-check the beam-splitter evaluator,
* a fixed-step RK4 integrator for the nonlinear parametric-amplifier
  mean-field pair, used to cross-check the analytic tanh/sech solution,
* a fixed-step RK4 integrator for the amplifier's linearized noise
  covariance (dV/dt = M V + V M^T on all four quadratures, mean fields
  taken from the closed form), used to cross-check `sqzlab.opa` and behind
  `opa_propagate(..., check_steps=n)`, and
* for the OPO, a bisection for the steady state and the zero-frequency
  input-output map of the linearized cavity (Gardiner & Collett, PRA 31,
  3761 (1985)), used to cross-check `sqzlab.opo`.

The amplifier and the OPO share one interaction, linearized once in
`parametric_drift`; the OPO's cavity adds the damping -I/2 to it.

They are shipped (not test-only) so every published number can be
reproduced from the installed package.

Phase-space ordering is (X1, P1, X2, P2, ...) with vacuum covariance equal
to the identity. The beam splitter is realised as the real rotation
mixing the two modes with cos/sin weights; with that choice a squeezed
mode mixed with an X-displaced mode reproduces real variances and a real
output mean, which is the convention the rest of the package assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_GRID_POINTS, DomainError, Regime
from .opa import mean_fields

OPO_BISECT_STEPS = 100


@dataclass(frozen=True)
class GaussianState:
    """N-mode Gaussian state: mean vector and covariance matrix.

    Parameters
    ----------
    mean : ndarray, shape (2N,)
        Quadrature means ordered (X1, P1, X2, P2, ...).
    cov : ndarray, shape (2N, 2N)
        Symmetric covariance matrix; the vacuum is the identity.
    """

    mean: np.ndarray
    cov: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.mean) // 2


def vacuum(n_modes: int) -> GaussianState:
    """The n-mode vacuum state."""
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, [[0, 1], [-1, 0]] per mode."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def is_physical(state: GaussianState, tol: float = 1e-9) -> bool:
    """Check cov + i*Omega >= 0 via its eigenvalues."""
    m = state.cov + 1j * symplectic_form(state.n_modes)
    return bool(np.linalg.eigvalsh(m).min() >= -tol)


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.n_modes:
        raise DomainError(f"mode index {mode} out of range for {state.n_modes} modes")


def _apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


def apply_squeeze(state: GaussianState, mode: int, b: float) -> GaussianState:
    """Squeeze one mode: (X, P) -> (e^{-b} X, e^{b} P)."""
    _check_mode(state, mode)
    s = np.eye(2 * state.n_modes)
    s[2 * mode, 2 * mode] = np.exp(-b)
    s[2 * mode + 1, 2 * mode + 1] = np.exp(b)
    return _apply_symplectic(state, s)


def apply_displacement(state: GaussianState, mode: int, amp: complex) -> GaussianState:
    """Displace one mode by a complex amplitude.

    With X = a + a† the mean shifts by (2 Re amp, 2 Im amp); the
    covariance is unchanged.
    """
    _check_mode(state, mode)
    mean = state.mean.copy()
    mean[2 * mode] += 2.0 * complex(amp).real
    mean[2 * mode + 1] += 2.0 * complex(amp).imag
    return GaussianState(mean, state.cov.copy())


def apply_beamsplitter(
    state: GaussianState, mode_a: int, mode_b: int, theta: float
) -> GaussianState:
    """Mix two modes with cos(theta)/sin(theta) weights.

    theta = 0 is the identity; theta = pi/2 exchanges the modes up to a
    sign on one of them.
    """
    _check_mode(state, mode_a)
    _check_mode(state, mode_b)
    if mode_a == mode_b:
        raise DomainError("beam splitter needs two distinct modes")
    c, s = np.cos(theta), np.sin(theta)
    m = np.eye(2 * state.n_modes)
    for off in (0, 1):  # same rotation on X and P sectors
        ia, ib = 2 * mode_a + off, 2 * mode_b + off
        m[ia, ia] = c
        m[ia, ib] = s
        m[ib, ia] = -s
        m[ib, ib] = c
    return _apply_symplectic(state, m)


def mode_variances(state: GaussianState, mode: int) -> tuple[float, float]:
    """(var_X, var_P) marginal of one mode."""
    _check_mode(state, mode)
    i = 2 * mode
    return float(state.cov[i, i]), float(state.cov[i + 1, i + 1])


def parametric_drift(a_s: np.ndarray, a_p: np.ndarray) -> np.ndarray:
    """Drift (..., 4, 4) of the linearized parametric interaction on
    (X_s, P_s, X_p, P_p) about real mean fields (a_s, a_p).

    The pair dA_s/dt = A_s A_p, dA_p/dt = -A_s^2/2 drives both the
    amplifier and, with the cavity's damping added, the OPO. Real fields
    decouple the X and P sectors, the slices [..., 0::2, 0::2] and
    [..., 1::2, 1::2]: [[A_p, A_s], [-A_s, 0]] and [[-A_p, A_s], [-A_s, 0]].
    """
    a_s, a_p = np.broadcast_arrays(np.asarray(a_s, float), np.asarray(a_p, float))
    m = np.zeros(a_s.shape + (4, 4))
    m[..., 0, 0], m[..., 1, 1] = a_p, -a_p
    m[..., 0, 2] = m[..., 1, 3] = a_s
    m[..., 2, 0] = m[..., 3, 1] = -a_s
    return m


def mean_field_ode(
    seed_amp: float,
    pump_amp: float,
    t_max: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Integrate the nonlinear mean-field pair with fixed-step RK4.

    The pair is dA_s/dt = A_s A_p, dA_p/dt = -A_s^2/2 with real
    initial amplitudes (seed_amp, pump_amp).

    Returns
    -------
    times, a_s, a_p : ndarray
        The step grid and the two amplitude trajectories on it.
    err_estimate : float
        Max absolute terminal difference against a half-step integration,
        a cheap a-posteriori error bound.
    """
    if t_max <= 0.0 or n_steps < 1:
        raise DomainError("t_max must be > 0 and n_steps >= 1")
    if n_steps > MAX_GRID_POINTS:  # the loop is pure Python
        raise DomainError(f"n_steps {n_steps} exceeds the limit of {MAX_GRID_POINTS}")

    def run(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        h = t_max / n
        a_s = np.empty(n + 1)
        a_p = np.empty(n + 1)
        a_s[0], a_p[0] = seed_amp, pump_amp
        ys, yp = seed_amp, pump_amp
        for i in range(n):
            k1s, k1p = ys * yp, -0.5 * ys * ys
            s2, p2 = ys + 0.5 * h * k1s, yp + 0.5 * h * k1p
            k2s, k2p = s2 * p2, -0.5 * s2 * s2
            s3, p3 = ys + 0.5 * h * k2s, yp + 0.5 * h * k2p
            k3s, k3p = s3 * p3, -0.5 * s3 * s3
            s4, p4 = ys + h * k3s, yp + h * k3p
            k4s, k4p = s4 * p4, -0.5 * s4 * s4
            ys += (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
            yp += (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            a_s[i + 1], a_p[i + 1] = ys, yp
        return np.linspace(0.0, t_max, n + 1), a_s, a_p

    times, a_s, a_p = run(n_steps)
    _, a_s2, a_p2 = run(2 * n_steps)
    err = max(abs(a_s[-1] - a_s2[-1]), abs(a_p[-1] - a_p2[-1]))
    return times, a_s, a_p, float(err)


def opa_covariance_rk4(
    seed_ratios: np.ndarray, pump_sign: float, t_max: float, n_steps: int
) -> tuple[np.ndarray, ...]:
    """RK4 on the amplifier's 4x4 covariance for a batch of seeds at once.

    Integrates dV/dt = M V + V M^T from the vacuum, with M the
    parametric_drift at the closed-form mean fields. Returns times (n+1,),
    fields a_s and a_p (seeds, n+1) and the sector blocks cov_x, cov_p
    (seeds, n+1, 2, 2), in the layout of `sqzlab.opa.evolve`.
    """
    half_times = np.linspace(0.0, t_max, 2 * n_steps + 1)
    a_s, a_p = fields = np.empty((2, 2 * n_steps + 1, len(seed_ratios)))
    for j, sr in enumerate(seed_ratios):
        fields[:, :, j] = mean_fields(half_times, float(sr), pump_sign)

    def rate(m: np.ndarray, v: np.ndarray) -> np.ndarray:
        mv = m @ v
        return mv + mv.swapaxes(-1, -2)

    h = t_max / n_steps
    y = np.tile(np.eye(4), (len(seed_ratios), 1, 1))  # vacuum
    cov_x = np.empty((len(seed_ratios), n_steps + 1, 2, 2))
    cov_p = np.empty_like(cov_x)
    cov_x[:, 0], cov_p[:, 0] = y[:, 0::2, 0::2], y[:, 1::2, 1::2]
    m0 = parametric_drift(a_s[0], a_p[0])
    for i in range(n_steps):
        mm, m1 = parametric_drift(a_s[2 * i + 1:2 * i + 3], a_p[2 * i + 1:2 * i + 3])
        k1 = rate(m0, y)
        k2 = rate(mm, y + 0.5 * h * k1)
        k3 = rate(mm, y + 0.5 * h * k2)
        k4 = rate(m1, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        cov_x[:, i + 1], cov_p[:, i + 1] = y[:, 0::2, 0::2], y[:, 1::2, 1::2]
        m0 = m1
    return half_times[::2], a_s[::2].T, a_p[::2].T, cov_x, cov_p


def opa_covariance_gap(
    cov_x: np.ndarray, cov_p: np.ndarray, rk4_x: np.ndarray, rk4_p: np.ndarray
) -> float:
    """Largest departure of RK4 blocks from closed-form ones, all (..., 2, 2):
    each entry V_ij relative to sqrt(V_ii V_jj), which bounds |V_ij|, so an
    off-diagonal entry passing through zero is not divided by zero."""
    gap = 0.0
    for cov, rk4 in ((cov_x, rk4_x), (cov_p, rk4_p)):
        d = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
        scale = d[..., :, None] * d[..., None, :]
        gap = max(gap, float(np.max(np.abs(rk4 - cov) / scale)))
    return gap


def opo_steady_state_bisect(
    c0: np.ndarray, seed_ratio: np.ndarray, regime: Regime
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OPO steady state by bisection: (a_s, a_p, alpha_sq) per (c0, seed_ratio).

    In the chart kappa = g = 1 the drives are e_p = -c0/4 (amplifying) or
    +c0/4 (deamplifying) and e_s = seed_ratio |e_p|. The intracavity seed
    A is the real root of f(A) = A^3 + pA + q, p = (1 + 4 e_p)/2 > 0,
    q = e_s >= 0. f increases, f(0) = q >= 0 and f(-m) < 0 for
    m = 2 min(q/p, cbrt(q)), so [-m, 0] brackets the root; every step
    halves it in double precision, and OPO_BISECT_STEPS steps shrink it
    below one ulp of the root. Then A_p = -A^2 - 2 e_p and
    alpha_sq = ((e_s + A)/e_p)^2.
    """
    c0 = np.asarray(c0, dtype=float)
    pump = (-c0 if regime is Regime.PHASE_SQUEEZING else c0) / 4.0
    seed = np.asarray(seed_ratio, dtype=float) * np.abs(pump)
    p = (1.0 + 4.0 * pump) / 2.0
    lo = -2.0 * np.minimum(seed / p, np.cbrt(seed))
    hi = np.zeros_like(lo)
    for _ in range(OPO_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        above = mid * mid * mid + p * mid + seed > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    a_s = 0.5 * (lo + hi)
    gain = (seed + a_s) / pump
    return a_s, -a_s * a_s - 2.0 * pump, gain * gain


def opo_output_covariance(a_s: np.ndarray, a_p: np.ndarray) -> np.ndarray:
    """Zero-frequency output covariance (..., 4, 4) of the OPO from its steady state.

    The cavity damps both modes at rate 1/2 on top of the parametric
    interaction, so the linearized drift is M - I/2 with M =
    parametric_drift(a_s, a_p). For vacuum inputs at unit coupling the
    output quadratures are T = I + (M - I/2)^-1 times the inputs, and
    their covariance is V = T T^T.
    """
    t = np.eye(4) + np.linalg.inv(parametric_drift(a_s, a_p) - 0.5 * np.eye(4))
    return t @ t.swapaxes(-1, -2)


def opo_output_variances(a_s: np.ndarray, a_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(var_x, var_p) of the OPO's signal output: V[0, 0] and V[1, 1] of
    opo_output_covariance."""
    v = opo_output_covariance(a_s, a_p)
    return v[..., 0, 0], v[..., 1, 1]

"""Single-pass parametric amplifier: nothing here is steady state.

The pump depletes (or recharges) as the seed grows (or dies), so the
squeezing at the output is a question of when you stop the interaction.
The punchline: peak squeezing comes well before peak seed amplitude, so
the brightest output is not the most squeezed one.
"""

import numpy as np

from sqzlab import OpaParams, Regime, opa_propagate, uncertainty

for regime, label in (
    (Regime.PHASE_SQUEEZING, "amplifying / phase squeezing"),
    (Regime.AMPLITUDE_SQUEEZING, "deamplifying / amplitude squeezing"),
):
    traj = opa_propagate(
        OpaParams(seed_ratio=0.05, t_max=6.0, regime=regime), samples=24576
    )
    print(f"--- {label} (seed_ratio = 0.05) ---")
    print(f"{'tau':>5} {'A_s':>8} {'A_p':>8} {'var_x':>9} {'var_p':>9} {'U':>8}")
    for tau in np.linspace(0.0, 6.0, 13):
        i = int(round(tau / 6.0 * (len(traj.times) - 1)))
        s = traj.seed_stats(i)
        print(
            f"{traj.times[i]:5.2f} {traj.a_s[i]:8.4f} {traj.a_p[i]:8.4f} "
            f"{s.var_x:9.4f} {s.var_p:9.4f} {uncertainty(s):8.4f}"
        )
    sq_var = traj.cov_p if regime is Regime.PHASE_SQUEEZING else traj.cov_x
    i_squeeze = int(sq_var[:, 0, 0].argmin())
    i_bright = int((traj.a_s**2).argmax())
    print(
        f"max squeezing at tau = {traj.times[i_squeeze]:.3f}, "
        f"max seed amplitude at tau = {traj.times[i_bright]:.3f}"
    )
    print()

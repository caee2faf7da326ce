"""Shapley attribution of Delta co-risk across sectors.

On a simulated 4-series panel with one strongly coupled pair, allocates
each sector's total Delta-CoVaR across the other sectors by exact Shapley
values and contrasts the result with the standard bivariate pairwise
Delta, which ignores the remaining sectors.
"""

import numpy as np

from msrisk import (
    MsTModel,
    MvtParams,
    attribution_series,
    fit_restarts,
    marginalize_fit,
    sample_path,
    standard_pairwise_delta,
    vis_a_vis,
)
from msrisk.simulate import SimSpec

# Sectors 0 and 1 are tightly coupled; 2 and 3 are peripheral.
corr = np.array(
    [
        [1.0, 0.85, 0.25, 0.20],
        [0.85, 1.0, 0.30, 0.25],
        [0.25, 0.30, 1.0, 0.35],
        [0.20, 0.25, 0.35, 1.0],
    ]
)
truth = MsTModel(
    [
        MvtParams([0.002, 0.002, 0.001, 0.001], 0.010**2 * corr, 7.0),
        MvtParams([-0.005, -0.006, -0.004, -0.003], 0.030**2 * corr, 5.0),
    ],
    np.array([[0.95, 0.05], [0.10, 0.90]]),
    [0.5, 0.5],
)
_, panel = sample_path(SimSpec(truth, T=600, seed=31))
fit = fit_restarts(panel, 2, n_restarts=3, seed=0)

series = attribution_series(fit, measure="covar", tau1=0.05, tau2=0.05)
t = panel.n_obs - 1
print(f"Shapley shares of Delta-CoVaR at {panel.dates[t]}:")
print(f"{'target':>8} " + " ".join(f"{n:>9}" for n in panel.names) + f" {'total':>9}")
for i in range(4):
    cells = [
        f"{series.shares[(i, j)][t]:>9.4f}" if j != i else f"{'-':>9}"
        for j in range(4)
    ]
    print(f"{panel.names[i]:>8} " + " ".join(cells) + f" {series.grand[i][t]:>9.4f}")
print("(rows sum to the grand-coalition Delta: the efficiency axiom)")

share_ab, share_ba = vis_a_vis(fit, (0, 1))
print(f"\nvis-a-vis s1/s2 at the last date: "
      f"s2 onto s1 = {share_ab[t]:.4f}, s1 onto s2 = {share_ba[t]:.4f}")

std = standard_pairwise_delta(marginalize_fit(fit, [0, 1]), 0, measure="covar")
print(f"\nstandard bivariate Delta (s1 | s2) at the last date: {std[t]:.4f}")
print("The bivariate measure absorbs the co-movement of the sectors it")
print("omits, so it overstates the partner's own contribution; the Shapley")
print("share isolates it. The two coincide only under block independence.")

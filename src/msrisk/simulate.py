"""Panel simulation and independent brute-force oracles.

The oracles here deliberately avoid the library's fast code paths: the
joint density is evaluated via explicit matrix inversion (no Cholesky
machinery shared with the conditioning code) and likelihoods are summed
over explicitly enumerated state paths.  Sampling uses the normal-over-
gamma scale-mixture representation of the Student-t with counter-based
seeding so parallel draws reproduce serial output.
"""

from __future__ import annotations

import datetime
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .markov import MsTModel
from .panel import ReturnPanel


@dataclass(frozen=True)
class SimSpec:
    """Simulation request: model, sample length and seed."""

    model: MsTModel
    T: int
    seed: int

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")


def _stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_path(spec: SimSpec):
    """Draw (states, panel) from the generative model.

    The chain is drawn from stream 0; observation t from stream t + 1, so
    per-time draws are reproducible independently of evaluation order.
    """
    model, t_len, seed = spec.model, spec.T, spec.seed
    L, p = model.n_states, model.dim

    u = _stream(seed, 0).uniform(size=t_len)
    states = np.empty(t_len, dtype=int)
    states[0] = np.searchsorted(np.cumsum(model.initial), u[0])
    for t in range(1, t_len):
        row = np.cumsum(model.transition[states[t - 1]])
        states[t] = np.searchsorted(row, u[t])
    states = np.clip(states, 0, L - 1)

    y = np.empty((t_len, p))
    for t in range(t_len):
        rng = _stream(seed, t + 1)
        reg = model.regimes[states[t]]
        w = rng.gamma(shape=reg.nu / 2.0, scale=2.0 / reg.nu)
        z = rng.standard_normal(p)
        y[t] = reg.mu + (reg.chol @ z) / np.sqrt(w)

    start = datetime.date(2000, 1, 7)
    dates = [start + datetime.timedelta(weeks=t) for t in range(t_len)]
    names = [f"s{i+1}" for i in range(p)]
    if p >= 2:
        return states, ReturnPanel(dates, names, y)
    return states, y


def _joint_logpdf(x, mu, sigma, nu):
    """Direct multivariate-t log-density (inverse/determinant formulation)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    k = mu.size
    dev = x - mu
    maha = np.einsum("ti,ij,tj->t", dev, np.linalg.inv(sigma), dev)
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise ValueError("scale matrix must be positive definite")
    const = (
        gammaln(0.5 * (nu + k))
        - gammaln(0.5 * nu)
        - 0.5 * k * np.log(nu * np.pi)
        - 0.5 * logdet
    )
    return const - 0.5 * (nu + k) * np.log1p(maha / nu)


def _mixture_density_on_grid(params, cond_idx, cond_values, target, grid):
    """Joint density along the free coordinate with conditioning values fixed."""
    if isinstance(params, tuple):
        weights, comps = params
    else:
        weights, comps = [1.0], [params]
    dim = comps[0].dim
    full = np.zeros((grid.size, dim))
    full[:, target] = grid
    for idx, val in zip(cond_idx, cond_values):
        full[:, idx] = val
    dens = np.zeros(grid.size)
    for w, comp in zip(weights, comps):
        dens += w * np.exp(_joint_logpdf(full, comp.mu, comp.sigma, comp.nu))
    return dens


def grid_conditional_quantile(params, cond_idx, cond_values, tau, *,
                              n_nodes: int = 20001) -> float:
    """Conditional quantile by grid slicing of the joint density.

    Independent oracle for the conditional-t plus mixture-quantile path:
    evaluates the joint density along the single free coordinate with the
    conditioning coordinates fixed, normalizes by trapezoid integration,
    and inverts the resulting CDF at tau.  The grid covers +-60 marginal
    scales around the density peak and widens (up to 3 times) when the
    power-law tail estimate says more than 1e-6 of mass lies outside.

    params is either a single MvtParams or a (weights, [MvtParams, ...])
    mixture; exactly one coordinate must remain unconditioned.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly in (0, 1)")
    if isinstance(params, tuple):
        weights, comps = params
    else:
        weights, comps = [1.0], [params]
    dim = comps[0].dim
    cond_idx = list(cond_idx)
    free = [i for i in range(dim) if i not in set(cond_idx)]
    if len(free) != 1:
        raise ValueError("exactly one coordinate must remain unconditioned")
    i = free[0]

    center = float(sum(w * c.mu[i] for w, c in zip(weights, comps)))
    scale = max(float(np.sqrt(c.sigma[i, i])) for c in comps)

    # Coarse pass to recenter on the conditional peak (the conditional
    # location can sit far from the marginal one under strong dependence).
    coarse = np.linspace(center - 100 * scale, center + 100 * scale, 2001)
    dens = _mixture_density_on_grid(params, cond_idx, cond_values, i, coarse)
    center = float(coarse[np.argmax(dens)])

    half = 60.0 * scale
    for _ in range(4):
        grid = np.linspace(center - half, center + half, n_nodes)
        dens = _mixture_density_on_grid(params, cond_idx, cond_values, i, grid)
        dx = grid[1] - grid[0]
        total = np.trapezoid(dens, grid)
        if total <= 0.0:
            raise ValueError("grid carries no density mass")
        # Geometric tail estimate from the edge decay ratio on each side.
        tail = 0.0
        for f_edge, f_in in ((dens[-1], dens[-2]), (dens[0], dens[1])):
            if f_in > 0.0 and f_edge > 0.0:
                r = f_edge / f_in
                if r < 1.0:
                    tail += f_edge * dx * r / (1.0 - r)
        if tail <= 1e-6 * total:
            cdf = np.concatenate(
                ([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * dx))
            )
            cdf /= cdf[-1]
            return float(np.interp(tau, cdf, grid))
        half *= 2.0
    raise ValueError("grid mass below 1 - 1e-6 after 3 expansions")


def _path_logprobs(model: MsTModel, panel):
    """Every state path and its joint log-probability with the observations.

    Guarded at L^T <= 1e6 paths.
    """
    y = panel.returns if isinstance(panel, ReturnPanel) else np.atleast_2d(
        np.asarray(panel, dtype=float)
    )
    t_len = y.shape[0]
    L = model.n_states
    if L**t_len > 1_000_000:
        raise ValueError(f"instance too large: {L}^{t_len} paths")
    log_b = np.column_stack(
        [_joint_logpdf(y, r.mu, r.sigma, r.nu) for r in model.regimes]
    )
    with np.errstate(divide="ignore"):
        log_q = np.log(model.transition)
        log_delta = np.log(model.initial)
    paths = list(itertools.product(range(L), repeat=t_len))
    logp = np.empty(len(paths))
    for n, path in enumerate(paths):
        lp = log_delta[path[0]] + log_b[0, path[0]]
        for t in range(1, t_len):
            lp += log_q[path[t - 1], path[t]] + log_b[t, path[t]]
        logp[n] = lp
    return paths, logp


def brute_force_loglik(model: MsTModel, panel) -> float:
    """Exact log-likelihood by enumeration over all state paths.

    Independent oracle for the forward recursion; guarded at L^T <= 1e6.
    """
    return float(logsumexp(_path_logprobs(model, panel)[1]))


def brute_force_posteriors(model: MsTModel, panel):
    """(smoothed, pairwise) state posteriors by path enumeration."""
    paths, logp = _path_logprobs(model, panel)
    t_len = len(paths[0])
    L = model.n_states
    post = np.exp(logp - logsumexp(logp))
    smoothed = np.zeros((t_len, L))
    pairwise = np.zeros((t_len - 1, L, L))
    for n, path in enumerate(paths):
        for t, s in enumerate(path):
            smoothed[t, s] += post[n]
        for t in range(t_len - 1):
            pairwise[t, path[t], path[t + 1]] += post[n]
    return smoothed, pairwise

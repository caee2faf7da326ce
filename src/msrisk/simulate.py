"""Panel simulation and independent brute-force oracles.

The oracles here deliberately avoid the library's fast code paths: the
joint density is evaluated via explicit matrix inversion (no Cholesky
machinery shared with the conditioning code) and likelihoods are summed
over explicitly enumerated state paths.

Sampling uses the normal-over-gamma scale-mixture representation of the
Student-t with counter-based streams: stream k is Philox keyed by
(seed mod 2**64, k) from counter 0, stream 0 drives the chain and stream
t + 1 observation t.  So draw t depends only on (seed, t), never on T or on
the order in which draws are made, and a shorter path is a prefix of a
longer one at the same seed.
"""

from __future__ import annotations

import datetime
import itertools
from dataclasses import dataclass

import numpy as np

from .markov import MsTModel, _check_integer
from .panel import ReturnPanel
from .studentt import _check_levels, _coordinates

# Date of the first simulated observation; later ones follow weekly.
START = datetime.date(2000, 1, 7)
# Longest path whose last weekly date is still a datetime.date (9999-12-31).
MAX_T = (datetime.date.max - START).days // 7 + 1


@dataclass(frozen=True)
class SimSpec:
    """Simulation request: model, sample length and seed, both integers.

    A negative seed is read modulo 2**64 (see sample_path).
    """

    model: MsTModel
    T: int
    seed: int

    def __post_init__(self):
        if self.model.dim < 2:
            raise ValueError(
                f"model dimension {self.model.dim}: a panel needs at least two series"
            )
        _check_integer(self.T, "T", 1)
        _check_integer(self.seed, "seed")
        if self.T > MAX_T:
            raise ValueError(
                f"T = {self.T}: weekly dates from {START} end after "
                f"{datetime.date.max}; T must be <= {MAX_T}"
            )


def sample_path(spec: SimSpec):
    """Draw (states, panel) from the generative model.

    One Philox bit generator serves the whole path: before each stream it is
    reset to the state Philox(key=(seed mod 2**64, k)) starts from (counter
    0, empty buffer), so stream 0 gives the T chain uniforms and stream
    t + 1 the gamma scale and then the p normals of observation t.  Draw t
    thus depends only on (seed, t).  The chain steps through a successor
    table, one searchsorted of the uniforms per from-state, with every step
    clipped to the last state (a uniform above a row's rounded cumulative
    sum would otherwise name state L).
    """
    model, t_len = spec.model, spec.T
    L, p = model.n_states, model.dim
    key = [spec.seed % (1 << 64), 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    # A list key would reach Philox through float and lose bits above 2**53.
    bit_gen = np.random.Philox(key=np.array(key, dtype=np.uint64))
    rng = np.random.Generator(bit_gen)

    u = rng.uniform(size=t_len)
    successor = [
        np.minimum(np.searchsorted(row, u), L - 1).tolist()
        for row in np.cumsum(model.transition, axis=1)
    ]
    s = min(int(np.searchsorted(np.cumsum(model.initial), u[0])), L - 1)
    path = [s]
    for t in range(1, t_len):
        s = successor[s][t]
        path.append(s)

    shapes = [reg.nu / 2.0 for reg in model.regimes]
    scales = [2.0 / reg.nu for reg in model.regimes]
    w = np.empty(t_len)
    z = np.empty((t_len, p))
    for t, s in enumerate(path):
        key[1] = t + 1
        bit_gen.state = fresh
        w[t] = rng.gamma(shapes[s], scales[s])
        z[t] = rng.standard_normal(p)

    # np.matmul over a stack of (p, 1) columns makes one matrix-vector
    # product per row, bit for bit the `chol @ z[t]` of a per-row loop;
    # z @ chol.T and einsum sum in another order and differ in the last bits.
    states = np.array(path)
    y = np.empty((t_len, p))
    for l, reg in enumerate(model.regimes):
        idx = np.flatnonzero(states == l)
        y[idx] = reg.mu + np.matmul(reg.chol, z[idx][..., None])[..., 0] / np.sqrt(w[idx])[:, None]

    dates = (np.datetime64(START) + np.arange(t_len) * np.timedelta64(7, "D")).tolist()
    names = [f"s{i+1}" for i in range(p)]
    return states, ReturnPanel(dates, names, y)


def _joint_logpdf(x, mu, sigma, nu):
    """Direct multivariate-t log-density (inverse/determinant formulation)."""
    from scipy.special import gammaln

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


def grid_conditional_quantile(params, cond_idx, cond_values, tau) -> float:
    """Conditional quantile by grid slicing of the joint density.

    Independent oracle for the conditional-t plus mixture-quantile path:
    evaluates the joint density along the single free coordinate with the
    conditioning coordinates fixed, normalizes by trapezoid integration,
    and inverts the resulting CDF at tau.  The grid of 20001 nodes covers
    +-60 marginal scales around the density peak and widens (up to 3
    times) when the power-law tail estimate says more than 1e-6 of mass
    lies outside.

    params is either a single MvtParams or a (weights, [MvtParams, ...])
    mixture; exactly one coordinate must remain unconditioned.
    """
    _check_levels(tau)
    if isinstance(params, tuple):
        weights, comps = params
    else:
        weights, comps = [1.0], [params]
    dim = comps[0].dim
    cond_idx = _coordinates(cond_idx, dim, "cond_idx").tolist()
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
        grid = np.linspace(center - half, center + half, 20001)
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
    from scipy.special import logsumexp

    return float(logsumexp(_path_logprobs(model, panel)[1]))


def brute_force_posteriors(model: MsTModel, panel):
    """(smoothed, pairwise) state posteriors by path enumeration."""
    from scipy.special import logsumexp

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

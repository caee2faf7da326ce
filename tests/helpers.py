"""Shared constructors for the test suite."""

import numpy as np
from scipy import special

from msrisk import MsTModel, MvtParams, PredictiveMixture
from msrisk.markov import fit_from_model  # noqa: F401  (re-exported for the tests)
from msrisk.studentt import _mixture_arrays, _one_regime


def mixture_cdf(x, weights, comps):
    """CDF of a finite mixture of univariate t components at x."""
    w, mus, sigmas, nus = _mixture_arrays(weights, comps)
    return float(np.sum(w * special.stdtr(nus, (x - mus) / sigmas)))


def mvt_mahalanobis(x, p: MvtParams):
    """Quadratic form (x - mu)' sigma^{-1} (x - mu), batched over leading axes."""
    return _one_regime(x, p)[1]


def univariate(p: MvtParams):
    """(mu, scale, nu) triple of a one-dimensional MvtParams."""
    if p.dim != 1:
        raise ValueError("expected a univariate distribution")
    return float(p.mu[0]), float(np.sqrt(p.sigma[0, 0])), p.nu


def random_pd(rng, k, scale=1.0):
    """Random well-conditioned positive-definite k x k matrix."""
    a = rng.normal(size=(k, k))
    return scale**2 * (a @ a.T + k * np.eye(k))


def random_mvt(rng, k, nu=None, scale=1.0):
    if nu is None:
        nu = float(rng.uniform(3.0, 20.0))
    return MvtParams(rng.normal(size=k) * scale, random_pd(rng, k, scale), nu)


def random_model(rng, L, p, scale=1.0):
    regimes = [random_mvt(rng, p, scale=scale) for _ in range(L)]
    q = rng.uniform(0.2, 1.0, size=(L, L))
    q /= q.sum(axis=1, keepdims=True)
    delta = rng.uniform(0.2, 1.0, size=L)
    delta /= delta.sum()
    return MsTModel(regimes, q, delta)


def random_mixture(rng, L, p, scale=0.02, nu_range=(4.0, 20.0)):
    comps = [
        MvtParams(
            rng.normal(scale=scale, size=p),
            random_pd(rng, p, scale),
            float(rng.uniform(*nu_range)),
        )
        for _ in range(L)
    ]
    w = rng.uniform(0.2, 1.0, size=L)
    w /= w.sum()
    return PredictiveMixture(weights=w, components=comps)


def shift_mixture(mix, i, c):
    """New mixture with constant c added to coordinate i."""
    comps = []
    for comp in mix.components:
        mu = comp.mu.copy()
        mu[i] += c
        comps.append(MvtParams(mu, comp.sigma, comp.nu))
    return PredictiveMixture(weights=mix.weights, components=comps)


def scale_mixture(mix, c):
    """New mixture with every coordinate multiplied by c > 0."""
    comps = [
        MvtParams(c * comp.mu, c * c * comp.sigma, comp.nu) for comp in mix.components
    ]
    return PredictiveMixture(weights=mix.weights, components=comps)

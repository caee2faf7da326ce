"""Property-based checks over randomly generated parameters."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats
from scipy.optimize import brentq

from msrisk import (
    FitResult,
    MsTModel,
    MvtParams,
    PredictiveMixture,
    characteristic_values,
    decompose_sigma,
    mixture_quantile,
    t_cdf,
    t_quantile,
    total_risk_series,
)
from msrisk.markov import _scan_rows
from msrisk.studentt import batched_mixture_quantile, condition_mvt

from helpers import mixture_cdf, univariate

taus = st.floats(min_value=0.001, max_value=0.999)
dfs = st.floats(min_value=1.0, max_value=200.0)
locs = st.floats(min_value=-5.0, max_value=5.0)
scales = st.floats(min_value=0.1, max_value=10.0)


@settings(max_examples=50, deadline=None)
@given(tau=taus, nu=dfs)
def test_quantile_cdf_round_trip(tau, nu):
    assert abs(t_cdf(t_quantile(tau, nu), nu) - tau) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    mus=st.lists(locs, min_size=1, max_size=4),
    tau=st.floats(min_value=0.01, max_value=0.99),
    data=st.data(),
)
def test_mixture_quantile_is_cdf_root(mus, tau, data):
    n = len(mus)
    sds = [data.draw(scales) for _ in range(n)]
    nus = [data.draw(st.floats(min_value=2.1, max_value=100.0)) for _ in range(n)]
    raw = [data.draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(n)]
    w = np.array(raw) / np.sum(raw)
    comps = list(zip(mus, sds, nus))
    q = mixture_quantile(w, comps, tau)
    assert abs(mixture_cdf(q, w, comps) - tau) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    tau1=st.floats(min_value=0.01, max_value=0.98),
    gap=st.floats(min_value=0.001, max_value=0.01),
    mu=locs,
    sd=scales,
    nu=st.floats(min_value=2.1, max_value=100.0),
)
def test_mixture_quantile_monotone(tau1, gap, mu, sd, nu):
    comps = [(mu, sd, nu), (mu + 1.0, 2.0 * sd, nu)]
    w = [0.5, 0.5]
    assert mixture_quantile(w, comps, tau1) < mixture_quantile(w, comps, tau1 + gap)


@settings(max_examples=30, deadline=None)
@given(
    diag=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=4),
    rho=st.floats(min_value=-0.9, max_value=0.9),
)
def test_decompose_sigma_round_trip(diag, rho):
    k = len(diag)
    omega = np.full((k, k), rho)
    np.fill_diagonal(omega, 1.0)
    sd = np.sqrt(np.array(diag))
    sigma = omega * np.outer(sd, sd)
    lam, corr = decompose_sigma(sigma)
    np.testing.assert_allclose(lam @ corr @ lam, sigma, atol=1e-12)
    np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# The batched co-risk engine against a scalar oracle built from
# condition_mvt, scipy.stats.multivariate_t and brentq on scipy.stats.t.cdf.

ENGINE_ATOL = 1e-10
raw_weights = st.one_of(st.just(1e-12), st.floats(min_value=0.05, max_value=1.0))
engine_dfs = st.floats(min_value=2.1, max_value=200.0)


@st.composite
def regime_sets(draw):
    """L <= 3 regimes of dimension p <= 5, sometimes all identical."""
    L = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=2, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.floats(min_value=0.01, max_value=2.0))
    comps = []
    for _ in range(L):
        a = rng.normal(size=(p, p))
        sigma = scale**2 * (a @ a.T + p * np.eye(p))
        comps.append(MvtParams(rng.normal(scale=scale, size=p), sigma, draw(engine_dfs)))
    if draw(st.booleans()):
        comps = [comps[0]] * L
    return comps


def simplex(draw, n):
    raw = np.array([draw(raw_weights) for _ in range(n)])
    return raw / raw.sum()


def oracle_quantile(w, mus, sds, nus, tau):
    def gap(x):
        return float(np.sum(w * stats.t.cdf((x - mus) / sds, df=nus))) - tau

    comp_q = mus + sds * stats.t.ppf(tau, df=nus)
    width = 1.0 + np.ptp(comp_q)
    return brentq(gap, comp_q.min() - width, comp_q.max() + width,
                  xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=500)


def oracle_tail_mean(w, mus, sds, nus, cutoff):
    z = (cutoff - mus) / sds
    cdf = stats.t.cdf(z, df=nus)
    partial = mus * cdf - sds * stats.t.pdf(z, df=nus) * (nus + z * z) / (nus - 1.0)
    return float(np.sum(w * partial) / np.sum(w * cdf))


def oracle_marginal(w, comps, j):
    mus = np.array([c.mu[j] for c in comps])
    sds = np.array([np.sqrt(c.sigma[j, j]) for c in comps])
    return mus, sds, np.array([c.nu for c in comps])


def oracle_level(w, comps, j, tau, kind):
    mus, sds, nus = oracle_marginal(w, comps, j)
    q = oracle_quantile(w, mus, sds, nus, tau)
    return q if kind == "var" else oracle_tail_mean(w, mus, sds, nus, q)


def oracle_measure(w, comps, target, coalition, measure, tau1, tau2):
    """Multiple-CoVaR/CoES of target with `coalition` at tau2, the rest at 0.5."""
    kind = "var" if measure == "covar" else "es"
    others = [j for j in range(comps[0].dim) if j != target]
    x = np.array([
        oracle_level(w, comps, j, tau2 if j in coalition else 0.5, kind) for j in others
    ])
    log_w, params = [], []
    for wl, c in zip(w, comps):
        log_w.append(np.log(wl) + stats.multivariate_t.logpdf(
            x, c.mu[others], c.sigma[np.ix_(others, others)], df=c.nu))
        params.append(univariate(condition_mvt(c, others, x)))
    cw = np.exp(np.array(log_w) - max(log_w))
    cw /= cw.sum()
    mus, sds, nus = (np.array(v) for v in zip(*params))
    q = oracle_quantile(cw, mus, sds, nus, tau1)
    return q if measure == "covar" else oracle_tail_mean(cw, mus, sds, nus, q)


@settings(max_examples=25, deadline=None)
@given(comps=regime_sets(), tau1=taus, tau2=taus,
       measure=st.sampled_from(["covar", "coes"]), data=st.data())
def test_characteristic_values_match_scalar_oracle(comps, tau1, tau2, measure, data):
    w = simplex(data.draw, len(comps))
    p = comps[0].dim
    target = data.draw(st.integers(min_value=0, max_value=p - 1))
    mix = PredictiveMixture(w, comps)
    cmap = characteristic_values(mix, target, measure, tau1, tau2)
    base = oracle_measure(w, comps, target, set(), measure, tau1, tau2)
    for coalition, value in cmap.values.items():
        want = oracle_measure(w, comps, target, coalition, measure, tau1, tau2) - base
        assert abs(value - want) < ENGINE_ATOL


@settings(max_examples=15, deadline=None)
@given(comps=regime_sets(), tau1=taus, tau2=taus, data=st.data())
def test_total_risk_rows_match_scalar_oracle(comps, tau1, tau2, data):
    L, p = len(comps), comps[0].dim
    probs = np.array([simplex(data.draw, L) for _ in range(2)])
    model = MsTModel(comps, np.eye(L), np.full(L, 1.0 / L))
    fit = FitResult(model=model, loglik=0.0, iterations=0, converged=True,
                    smoothed=probs, filtered=probs)
    for s in total_risk_series(fit, "both", tau1, tau2):
        others = set(s.distress)
        for t, w in enumerate(probs):
            want = {
                "var": oracle_level(w, comps, s.target, tau1, "var"),
                "es": oracle_level(w, comps, s.target, tau1, "es"),
            }
            for m in ("covar", "coes"):
                want[m] = oracle_measure(w, comps, s.target, others, m, tau1, tau2)
                want["delta_" + m] = want[m] - oracle_measure(
                    w, comps, s.target, set(), m, tau1, tau2)
            for key, value in want.items():
                assert abs(getattr(s, key)[t] - value) < ENGINE_ATOL, key


@settings(max_examples=50, deadline=None)
@given(L=st.integers(min_value=1, max_value=3), n=st.integers(min_value=1, max_value=6),
       identical=st.booleans(), data=st.data())
def test_batched_quantile_is_mixture_cdf_root(L, n, identical, data):
    w = np.array([simplex(data.draw, L) for _ in range(n)])
    mus = np.array([[data.draw(locs) for _ in range(L)] for _ in range(n)])
    sds = np.array([[data.draw(scales) for _ in range(L)] for _ in range(n)])
    nus = np.array([[data.draw(engine_dfs) for _ in range(L)] for _ in range(n)])
    if identical:
        mus, sds, nus = (np.repeat(a[:, :1], L, axis=1) for a in (mus, sds, nus))
    tau = np.array([data.draw(taus) for _ in range(n)])
    q = batched_mixture_quantile(w, mus, sds, nus, tau)
    for r in range(n):
        comps = list(zip(mus[r], sds[r], nus[r]))
        assert abs(mixture_cdf(q[r], w[r], comps) - tau[r]) < 1e-10
        assert abs(mixture_quantile(w[r], comps, tau[r]) - q[r]) <= 1e-12 * (1.0 + abs(q[r]))
        if identical:
            assert q[r] == mus[r, 0] + sds[r, 0] * t_quantile(tau[r], nus[r, 0])


# Exact zeros or entries in [1e-3, 1], so that no product of up to 64
# matrices nears the subnormal range, where relative precision is lost.
stack_entries = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))


@settings(max_examples=100, deadline=None)
@given(L=st.integers(min_value=1, max_value=5), n=st.integers(min_value=0, max_value=64),
       data=st.data())
def test_scan_columns_match_reversed_transposed_row_scan(L, n, data):
    m = data.draw(hnp.arrays(float, (n, L, L), elements=stack_entries))
    diag = np.arange(L)
    m[:, diag, diag] = data.draw(
        hnp.arrays(float, (n, L), elements=st.floats(min_value=1e-3, max_value=1.0))
    )
    _, _, cols = _scan_rows(np.ones(L), m)
    old = _scan_rows(np.ones(L), m[::-1].transpose(0, 2, 1))[0][::-1]
    np.testing.assert_allclose(cols, old, rtol=1e-12, atol=0)

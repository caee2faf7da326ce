import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import logsumexp
from scipy.stats import t as tdist

from msrisk import (
    MsTModel,
    MvtParams,
    PredictiveMixture,
    delta_m_coes,
    delta_m_covar,
    grid_conditional_quantile,
    marginal_es,
    marginal_var,
    marginalize_fit,
    multiple_coes,
    multiple_covar,
    sample_path,
    standard_pairwise_delta,
    t_es,
    t_quantile,
    total_risk_series,
)
from msrisk import corisk, studentt
from msrisk.attribution import (
    _shapley_shares,
    attribution_series,
    characteristic_values,
    vis_a_vis,
)
from msrisk.corisk import (
    MEASURES,
    CoRiskEngine,
    RiskQuery,
    coalition_masks,
    conditional_mixture,
    write_risk_csv,
)
from msrisk.predictive import build_predictive
from msrisk.simulate import SimSpec
from msrisk.studentt import (
    _mvt_log_norm,
    batched_mixture_quantile,
    batched_mixture_truncated_mean,
    condition_mvt,
    marginal_mvt,
    mvt_logpdf,
)

from helpers import (
    fit_from_model,
    random_mixture,
    random_model,
    scale_mixture,
    shift_mixture,
    univariate,
)


def single_mixture(comp):
    return PredictiveMixture([1.0], [comp])


# ---------------------------------------------------------------------------
# Independent bivariate oracle: every formula below is written from scratch
# against scipy.stats.t, sharing no code with the library implementation.


def oracle_marginal_quantile(weights, comps, coord, tau):
    mus = np.array([c.mu[coord] for c in comps])
    sds = np.array([np.sqrt(c.sigma[coord, coord]) for c in comps])
    nus = np.array([c.nu for c in comps])
    w = np.asarray(weights)

    def cdf(x):
        return float(np.sum(w * tdist.cdf((x - mus) / sds, df=nus))) - tau

    lo, hi = mus.min() - 200 * sds.max(), mus.max() + 200 * sds.max()
    return brentq(cdf, lo, hi, xtol=1e-14)


def oracle_marginal_es(weights, comps, coord, tau):
    q = oracle_marginal_quantile(weights, comps, coord, tau)
    mus = np.array([c.mu[coord] for c in comps])
    sds = np.array([np.sqrt(c.sigma[coord, coord]) for c in comps])
    nus = np.array([c.nu for c in comps])
    w = np.asarray(weights)

    def integrand(x):
        return x * float(
            np.sum(w * tdist.pdf((x - mus) / sds, df=nus) / sds)
        )

    val, _ = integrate.quad(integrand, -np.inf, q, limit=200)
    return val / tau


def oracle_bivariate_conditional(weights, comps, target, value):
    """Reweighted conditional mixture of `target` given the other coordinate."""
    j = 1 - target
    new_w, new_comps = [], []
    for w, c in zip(weights, comps):
        s = c.sigma
        dev = value - c.mu[j]
        q = dev**2 / s[j, j]
        mu_c = c.mu[target] + s[target, j] / s[j, j] * dev
        schur = s[target, target] - s[target, j] ** 2 / s[j, j]
        scale_c = np.sqrt((c.nu + q) / (c.nu + 1.0) * schur)
        dens = tdist.pdf(dev / np.sqrt(s[j, j]), df=c.nu) / np.sqrt(s[j, j])
        new_w.append(w * dens)
        new_comps.append((mu_c, scale_c, c.nu + 1.0))
    new_w = np.array(new_w)
    return new_w / new_w.sum(), new_comps


def oracle_uni_mixture_quantile(w, comps, tau):
    mus = np.array([c[0] for c in comps])
    sds = np.array([c[1] for c in comps])
    nus = np.array([c[2] for c in comps])

    def cdf(x):
        return float(np.sum(w * tdist.cdf((x - mus) / sds, df=nus))) - tau

    lo, hi = mus.min() - 200 * sds.max(), mus.max() + 200 * sds.max()
    return brentq(cdf, lo, hi, xtol=1e-14)


def oracle_bivariate_covar(weights, comps, target, tau1, tau2):
    v = oracle_marginal_quantile(weights, comps, 1 - target, tau2)
    w, cond = oracle_bivariate_conditional(weights, comps, target, v)
    return oracle_uni_mixture_quantile(w, cond, tau1)


def oracle_bivariate_coes(weights, comps, target, tau1, tau2):
    v = oracle_marginal_es(weights, comps, 1 - target, tau2)
    w, cond = oracle_bivariate_conditional(weights, comps, target, v)
    q = oracle_uni_mixture_quantile(w, cond, tau1)
    mus = np.array([c[0] for c in cond])
    sds = np.array([c[1] for c in cond])
    nus = np.array([c[2] for c in cond])

    def integrand(x):
        return x * float(np.sum(w * tdist.pdf((x - mus) / sds, df=nus) / sds))

    val, _ = integrate.quad(integrand, -np.inf, q, limit=200)
    return val / tau1


def oracle_conditional_mixture(mix, target, cond_idx, cond_values):
    """Per-component scalar conditioning loop: condition_mvt plus log-sum-exp weights."""
    cond_idx = list(cond_idx)
    cond_values = np.asarray(cond_values, dtype=float)
    keep = [i for i in range(mix.dim) if i not in set(cond_idx)]
    pos = keep.index(target)
    log_w = np.empty(len(mix.components))
    comps = []
    with np.errstate(divide="ignore"):
        log_pi = np.log(mix.weights)
    for l, comp in enumerate(mix.components):
        log_w[l] = log_pi[l] + mvt_logpdf(cond_values, marginal_mvt(comp, cond_idx))
        cond = condition_mvt(comp, cond_idx, cond_values)
        comps.append(univariate(marginal_mvt(cond, [pos])))
    weights = np.exp(log_w - logsumexp(log_w))
    return weights / weights.sum(), comps


# ---------------------------------------------------------------------------
# The per-target path that CoRiskEngine's one grid replaced: one conditioning
# block, one measure family and one quantile root per target, all dates at
# once, with every marginal level solved on its own.  The batched engine must
# reproduce it bit for bit.


def oracle_level(engine, kind, tau):
    """T x p marginal VaR or ES at tau, one tau per root."""
    rows = (engine.weights[:, None, :], engine.mu.T, engine.sd.T, engine.nu)
    var = batched_mixture_quantile(*rows, tau)
    return var if kind == "var" else batched_mixture_truncated_mean(*rows, var)


def oracle_coalition_values(engine, target, measure, tau1, tau2, masks):
    """T x C Multiple-CoVaR or -CoES of one target, from that target's own block."""
    others = [j for j in range(engine.dim) if j != target]
    d = len(others)
    s22 = engine.sigma[:, others][:, :, others]
    s21 = engine.sigma[:, others, target]
    chol = np.linalg.cholesky(s22)
    reg = np.linalg.solve(s22, s21[..., None])[..., 0]
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    schur = engine.sigma[:, target, target] - np.sum(reg * s21, axis=1)
    log_const = _mvt_log_norm(engine.nu, d, logdet)
    mu_cond = engine.mu[:, others]
    kind = "var" if measure == "covar" else "es"
    distress = oracle_level(engine, kind, tau2)[:, others]
    normal = oracle_level(engine, kind, 0.5)[:, others]
    x = np.where(np.asarray(masks, dtype=bool), distress[:, None, :], normal[:, None, :])
    dev = [x[..., k, None] - mu_cond[:, k] for k in range(d)]
    z = []
    for r in range(d):
        acc = dev[r]
        for k in range(r):
            acc = acc - chol[:, r, k] * z[k]
        z.append(acc / chol[:, r, r])
    maha = sum(zk * zk for zk in z)
    loc = engine.mu[:, target] + sum(reg[:, k] * dev[k] for k in range(d))
    scale = np.sqrt((engine.nu + maha) / (engine.nu + d) * schur)
    log_w = (
        engine.log_weights[:, None, :]
        + log_const - 0.5 * (engine.nu + d) * np.log1p(maha / engine.nu)
    )
    w = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    nu = engine.nu + d
    cut = batched_mixture_quantile(w, loc, scale, nu, tau1)
    if measure == "covar":
        return cut
    return batched_mixture_truncated_mean(w, loc, scale, nu, cut)


def oracle_total_risk_series(fit, measure, tau1, tau2):
    """Per target, a dict of the RiskSeries fields, one family and target at a time."""
    engine = CoRiskEngine.from_fit(fit)
    p = engine.dim
    masks = [[True] * (p - 1), [False] * (p - 1)]
    out = []
    for i in range(p):
        fields = {
            "var": oracle_level(engine, "var", tau1)[:, i],
            "es": oracle_level(engine, "es", tau1)[:, i],
        }
        for family in MEASURES:
            if measure in (family, "both"):
                values = oracle_coalition_values(engine, i, family, tau1, tau2, masks)
                fields[family] = values[:, 0]
                fields["delta_" + family] = values[:, 0] - values[:, 1]
        out.append(fields)
    return out


def oracle_attribution_series(fit, measure, tau1, tau2):
    """(shares, grand) dicts of the Shapley attribution, one target at a time."""
    engine = CoRiskEngine.from_fit(fit)
    p = engine.dim
    shares, grand = {}, {}
    for i in range(p):
        values = oracle_coalition_values(engine, i, measure, tau1, tau2, coalition_masks(p - 1))
        delta = values - values[:, :1]
        by_player = _shapley_shares(delta, p - 1)
        grand[i] = delta[:, -1]
        for k, j in enumerate(j for j in range(p) if j != i):
            shares[(i, j)] = by_player[:, k]
    return shares, grand


def assert_series_equal(got, want):
    for series, fields in zip(got, want, strict=True):
        for name in ("var", "es", "covar", "coes", "delta_covar", "delta_coes"):
            if name in fields:
                np.testing.assert_array_equal(getattr(series, name), fields[name], err_msg=name)
            else:
                assert getattr(series, name) is None


def assert_attribution_equal(got, shares, grand):
    assert got.shares.keys() == shares.keys()
    for key, values in shares.items():
        np.testing.assert_array_equal(got.shares[key], values, err_msg=str(key))
    for i in got.targets:
        np.testing.assert_array_equal(got.grand[i], grand[i])


def engine_fit(seed, L, p, t_len=12):
    rng = np.random.default_rng(seed)
    model = random_model(rng, L, p, scale=0.02)
    _, panel = sample_path(SimSpec(model, t_len, seed))
    return fit_from_model(model, panel), rng


# ---------------------------------------------------------------------------


class TestRiskQuery:
    def test_normalizes_distress(self):
        q = RiskQuery(0, (3, 1))
        assert q.distress == (1, 3)

    def test_rejects_self_distress(self):
        with pytest.raises(ValueError):
            RiskQuery(0, (0, 1))

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            RiskQuery(0, (1,), tau1=0.0)

    @pytest.mark.parametrize(
        "target, distress", [(1.0, (0,)), (1, (0.0, 2)), (np.float64(0.5), ())]
    )
    def test_rejects_fractional_series(self, target, distress):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            RiskQuery(target, distress)

    def test_integer_types_become_int(self):
        q = RiskQuery(np.int64(2), (np.int32(1), 0))
        assert q == RiskQuery(2, (0, 1)) and type(q.target) is int


class TestMarginals:
    def test_median_of_common_location(self):
        rng = np.random.default_rng(70)
        comps = [
            MvtParams([0.3, -0.1], np.diag([1.0, 2.0]) * s, nu)
            for s, nu in ((1.0, 4.0), (3.0, 9.0))
        ]
        mix = PredictiveMixture([0.4, 0.6], comps)
        assert abs(marginal_var(mix, 0, 0.5) - 0.3) < 1e-10
        assert abs(marginal_var(mix, 1, 0.5) - (-0.1)) < 1e-10

    def test_single_component_closed_form(self):
        comp = MvtParams([0.2, -0.4], [[4.0, 0.5], [0.5, 1.0]], 7.0)
        mix = single_mixture(comp)
        assert abs(
            marginal_var(mix, 0, 0.05) - (0.2 + 2.0 * t_quantile(0.05, 7.0))
        ) < 1e-10
        assert abs(
            marginal_es(mix, 0, 0.05) - (0.2 + 2.0 * t_es(0.05, 7.0))
        ) < 1e-9

    def test_monte_carlo_quantile_and_es(self):
        rng = np.random.default_rng(71)
        mix = random_mixture(rng, 4, 2, scale=1.0)
        tau = 0.05
        n = 10**7
        ks = rng.choice(len(mix.weights), size=n, p=mix.weights)
        draws = np.empty(n)
        for k, c in enumerate(mix.components):
            mask = ks == k
            draws[mask] = c.mu[0] + np.sqrt(c.sigma[0, 0]) * rng.standard_t(
                c.nu, size=mask.sum()
            )
        q = marginal_var(mix, 0, tau)
        # Quantile SE from the density at the quantile.
        dens = sum(
            w * tdist.pdf((q - c.mu[0]) / np.sqrt(c.sigma[0, 0]), df=c.nu)
            / np.sqrt(c.sigma[0, 0])
            for w, c in zip(mix.weights, mix.components)
        )
        se_q = np.sqrt(tau * (1 - tau) / n) / dens
        assert abs(q - np.quantile(draws, tau)) < 3 * se_q
        tail = draws[draws <= q]
        se_es = tail.std(ddof=1) / np.sqrt(tail.size)
        assert abs(marginal_es(mix, 0, tau) - tail.mean()) < 3 * se_es

    def test_es_below_var(self):
        rng = np.random.default_rng(72)
        mix = random_mixture(rng, 3, 2)
        assert marginal_es(mix, 0, 0.05) < marginal_var(mix, 0, 0.05)

    def test_index_bounds(self):
        rng = np.random.default_rng(73)
        mix = random_mixture(rng, 2, 2)
        with pytest.raises(IndexError):
            marginal_var(mix, 2, 0.05)


class TestConditionalMixture:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_scalar_loop(self, L, k):
        rng = np.random.default_rng(1000 + 10 * L + k)
        for _ in range(10):
            mix = random_mixture(rng, L, k, scale=float(rng.uniform(0.5, 2.0)))
            if L > 1:
                w = mix.weights.copy()
                w[rng.integers(L)] = 0.0
                mix = PredictiveMixture(w / w.sum(), mix.components)
            target = int(rng.integers(k))
            others = rng.permutation([j for j in range(k) if j != target])
            cond_idx = [int(j) for j in others[: rng.integers(1, k)]]
            values = rng.normal(scale=2.0, size=len(cond_idx))
            w, comps = conditional_mixture(mix, target, cond_idx, values)
            w_ref, comps_ref = oracle_conditional_mixture(mix, target, cond_idx, values)
            np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(w[mix.weights == 0.0], 0.0)
            np.testing.assert_allclose(comps, comps_ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize(
        "target, cond_idx, values, error",
        [
            (0, [], [], ValueError),
            (0, [0, 1], [0.1, 0.2], ValueError),
            (0, [1, 1], [0.1, 0.2], ValueError),
            (0, [1, 3], [0.1, 0.2], ValueError),
            (0, [1, -1], [0.1, 0.2], ValueError),
            (3, [1, 2], [0.1, 0.2], IndexError),
            (0, [1, 2], [0.1], ValueError),
            (0, [1, 2], [0.1, 0.2, 0.3], ValueError),
        ],
    )
    def test_rejects_bad_conditioning(self, target, cond_idx, values, error):
        mix = random_mixture(np.random.default_rng(1100), 2, 3)
        with pytest.raises(error):
            conditional_mixture(mix, target, cond_idx, values)


class TestMultipleCovar:
    def test_matches_independent_bivariate_path(self):
        rng = np.random.default_rng(74)
        for _ in range(100):
            L = int(rng.integers(1, 4))
            mix = random_mixture(rng, L, 2, scale=float(rng.uniform(0.5, 2.0)))
            tau1 = float(rng.uniform(0.02, 0.3))
            tau2 = float(rng.uniform(0.02, 0.3))
            target = int(rng.integers(0, 2))
            got = multiple_covar(
                mix, RiskQuery(target, (1 - target,), tau1, tau2)
            )
            want = oracle_bivariate_covar(
                mix.weights, mix.components, target, tau1, tau2
            )
            assert abs(got - want) < 1e-8

    def test_symmetric_single_component_median(self):
        comp = MvtParams([0.5, 0.0, 0.0], np.eye(3) + 0.3, 6.0)
        mix = single_mixture(comp)
        q = RiskQuery(0, (1, 2), tau1=0.5, tau2=0.05)
        # tau1 = 0.5 picks the symmetric conditional's location.
        levels = [marginal_var(mix, j, 0.05) for j in (1, 2)]
        mu_c, _, _ = univariate(condition_mvt(comp, [1, 2], levels))
        assert abs(multiple_covar(mix, q) - mu_c) < 1e-10

    def test_empty_distress_is_baseline(self):
        rng = np.random.default_rng(75)
        mix = random_mixture(rng, 2, 3)
        got = multiple_covar(mix, RiskQuery(0, (), 0.05, 0.05))
        medians = [marginal_var(mix, j, 0.5) for j in (1, 2)]
        w, comps = conditional_mixture(mix, 0, [1, 2], medians)
        from msrisk.studentt import mixture_quantile

        assert abs(got - mixture_quantile(w, comps, 0.05)) < 1e-12

    def test_grid_slice_full_check(self):
        comp = MvtParams(
            [0.1, -0.2, 0.3],
            np.array([[1.0, 0.5, 0.2], [0.5, 2.0, 0.6], [0.2, 0.6, 1.5]]),
            6.0,
        )
        mix = single_mixture(comp)
        q = RiskQuery(0, (1, 2), 0.05, 0.05)
        levels = [marginal_var(mix, j, 0.05) for j in (1, 2)]
        oracle = grid_conditional_quantile(comp, [1, 2], levels, 0.05)
        assert abs(multiple_covar(mix, q) - oracle) < 1e-4


class TestMultipleCoes:
    def test_symmetric_single_component_closed_form(self):
        comp = MvtParams([0.5, 0.0], [[1.0, 0.4], [0.4, 1.0]], 6.0)
        mix = single_mixture(comp)
        level = marginal_es(mix, 1, 0.05)
        mu_c, s_c, nu_c = univariate(condition_mvt(comp, [1], [level]))
        got = multiple_coes(mix, RiskQuery(0, (1,), tau1=0.5, tau2=0.05))
        assert abs(got - (mu_c + s_c * t_es(0.5, nu_c))) < 1e-10
        assert got < multiple_covar(mix, RiskQuery(0, (1,), tau1=0.5, tau2=0.05))

    def test_matches_independent_bivariate_path(self):
        rng = np.random.default_rng(76)
        for _ in range(30):
            L = int(rng.integers(1, 4))
            mix = random_mixture(rng, L, 2, scale=1.0)
            tau1 = float(rng.uniform(0.02, 0.2))
            tau2 = float(rng.uniform(0.02, 0.2))
            target = int(rng.integers(0, 2))
            got = multiple_coes(mix, RiskQuery(target, (1 - target,), tau1, tau2))
            want = oracle_bivariate_coes(
                mix.weights, mix.components, target, tau1, tau2
            )
            assert abs(got - want) < 1e-7

    def test_coes_below_covar(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            mix = random_mixture(rng, 2, 3)
            q = RiskQuery(0, (1, 2), 0.05, 0.05)
            assert multiple_coes(mix, q) < multiple_covar(mix, q)


class TestDeltaMeasures:
    def test_tau2_half_is_exactly_zero(self):
        rng = np.random.default_rng(79)
        mix = random_mixture(rng, 3, 3)
        q = RiskQuery(0, (1, 2), tau1=0.05, tau2=0.5)
        assert delta_m_covar(mix, q) == 0.0
        assert delta_m_coes(mix, q) == 0.0

    def test_positive_dependence_negative_delta(self):
        comp = MvtParams([0.0, 0.0], [[1.0, 0.7], [0.7, 1.0]], 8.0)
        mix = single_mixture(comp)
        q = RiskQuery(0, (1,), 0.05, 0.05)
        assert delta_m_covar(mix, q) < 0.0
        assert delta_m_coes(mix, q) < 0.0

    def test_independence_near_gaussian_zero(self):
        # Independent block with essentially Gaussian tails: the conditional
        # scale inflation vanishes and the Delta collapses to zero.
        comp = MvtParams([0.0, 0.0], np.diag([1.0, 2.0]), 1e12)
        mix = single_mixture(comp)
        q = RiskQuery(0, (1,), 0.05, 0.05)
        assert abs(delta_m_covar(mix, q)) < 1e-10
        assert abs(delta_m_coes(mix, q)) < 1e-10

    def test_requires_nonempty_distress(self):
        rng = np.random.default_rng(80)
        mix = random_mixture(rng, 2, 2)
        with pytest.raises(ValueError):
            delta_m_covar(mix, RiskQuery(0, ()))


class TestEquivariance:
    def test_translation_and_scaling(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            mix = random_mixture(rng, 2, 3)
            q = RiskQuery(0, (1, 2), 0.05, 0.05)
            base = {
                "var": marginal_var(mix, 0, 0.05),
                "es": marginal_es(mix, 0, 0.05),
                "covar": multiple_covar(mix, q),
                "coes": multiple_coes(mix, q),
                "dcovar": delta_m_covar(mix, q),
                "dcoes": delta_m_coes(mix, q),
            }
            c = 0.37
            shifted = shift_mixture(mix, 0, c)
            assert abs(marginal_var(shifted, 0, 0.05) - base["var"] - c) < 1e-9
            assert abs(multiple_covar(shifted, q) - base["covar"] - c) < 1e-9
            assert abs(multiple_coes(shifted, q) - base["coes"] - c) < 1e-9
            assert abs(delta_m_covar(shifted, q) - base["dcovar"]) < 1e-9
            scaled = scale_mixture(mix, 2.0)
            for key, fn in (
                ("var", lambda m: marginal_var(m, 0, 0.05)),
                ("es", lambda m: marginal_es(m, 0, 0.05)),
                ("covar", lambda m: multiple_covar(m, q)),
                ("coes", lambda m: multiple_coes(m, q)),
                ("dcovar", lambda m: delta_m_covar(m, q)),
                ("dcoes", lambda m: delta_m_coes(m, q)),
            ):
                assert abs(fn(scaled) - 2.0 * base[key]) < 1e-9


class TestSeries:
    def build_fit(self, seed, L=2, p=2, t_len=12):
        rng = np.random.default_rng(seed)
        model = random_model(rng, L, p, scale=0.02)
        _, panel = sample_path(SimSpec(model, t_len, seed))
        return fit_from_model(model, panel), panel

    def test_bivariate_total_risk_is_pairwise(self):
        fit, _ = self.build_fit(82)
        series = total_risk_series(fit, measure="covar")
        from msrisk.predictive import build_predictive

        for t in (0, 5, 11):
            mix = build_predictive(fit, t)
            expected = multiple_covar(mix, RiskQuery(0, (1,), 0.05, 0.05))
            assert abs(series[0].covar[t] - expected) < 1e-12

    def test_constant_filtered_constant_series(self):
        fit, _ = self.build_fit(83)
        const = fit.filtered.copy()
        const[:] = const[0]
        fit.filtered = const
        series = total_risk_series(fit, measure="both")
        for s in series:
            for values in (s.var, s.es, s.covar, s.coes):
                assert np.ptp(values) < 1e-12

    def test_high_volatility_regime_more_negative(self):
        quiet = MvtParams([0.0, 0.0], 0.01**2 * np.eye(2), 8.0)
        loud = MvtParams([0.0, 0.0], 0.05**2 * (np.eye(2) + 0.5), 8.0)
        model = MsTModel(
            [quiet, loud], np.array([[0.95, 0.05], [0.05, 0.95]]), [0.5, 0.5]
        )
        states, panel = sample_path(SimSpec(model, 300, 5))
        fit = fit_from_model(model, panel)
        series = total_risk_series(fit, measure="covar")
        in_loud = series[0].covar[states == 1].mean()
        in_quiet = series[0].covar[states == 0].mean()
        assert in_loud < in_quiet

    def test_measure_validation(self):
        fit, _ = self.build_fit(84)
        with pytest.raises(ValueError):
            total_risk_series(fit, measure="cvar")

    def test_write_risk_csv(self, tmp_path):
        fit, panel = self.build_fit(85)
        series = total_risk_series(fit, measure="both")
        out = tmp_path / "risk.csv"
        write_risk_csv(out, panel.dates, panel.names, series)
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema: msrisk/1"
        assert lines[1].split(",")[:4] == ["date", "target", "distress_set", "measure"]
        # 2 targets x 6 measures x 12 dates data rows.
        assert len(lines) == 2 + 2 * 6 * 12


class TestStandardPairwise:
    def test_definitional_identity(self):
        fit, _ = TestSeries().build_fit(86)
        series = standard_pairwise_delta(fit, 0, "covar")
        from msrisk.predictive import build_predictive

        for t in (0, 4, 11):
            mix = build_predictive(fit, t)
            expected = delta_m_covar(mix, RiskQuery(0, (1,), 0.05, 0.05))
            assert abs(series[t] - expected) < 1e-12

    def test_marginalize_fit_consistency(self):
        fit, _ = TestSeries().build_fit(87, p=3)
        sub = marginalize_fit(fit, [0, 2])
        assert sub.model.dim == 2
        np.testing.assert_array_equal(sub.filtered, fit.filtered)
        np.testing.assert_allclose(
            sub.model.regimes[0].mu, fit.model.regimes[0].mu[[0, 2]]
        )
        series = standard_pairwise_delta(sub, 0, "covar")
        assert series.shape == (12,)

    def test_requires_bivariate(self):
        fit, _ = TestSeries().build_fit(88, p=3)
        with pytest.raises(ValueError, match="^standard pairwise Delta needs a bivariate model$"):
            standard_pairwise_delta(fit, 0)


class TestBatchedEngine:
    """One coalition grid over dates, families, targets and coalitions."""

    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_matches_per_target_path(self, L, p):
        fit, rng = engine_fit(3000 + 10 * L + p, L, p)
        tau1, tau2 = (float(t) for t in rng.uniform(0.02, 0.2, size=2))
        masks = coalition_masks(p - 1)
        for measure in ("covar", "coes", "both"):
            assert_series_equal(
                total_risk_series(fit, measure, tau1, tau2),
                oracle_total_risk_series(fit, measure, tau1, tau2),
            )
        for measure in MEASURES:
            assert_attribution_equal(
                attribution_series(fit, measure, tau1, tau2),
                *oracle_attribution_series(fit, measure, tau1, tau2),
            )
        engine = CoRiskEngine.from_fit(fit)
        for measures in (("covar",), ("coes",), ("coes", "covar")):
            got = engine.coalition_values(range(p), measures, tau1, tau2, masks)
            assert got.shape == (12, len(measures), p, len(masks))
            for f, measure in enumerate(measures):
                for i in range(p):
                    want = oracle_coalition_values(engine, i, measure, tau1, tau2, masks)
                    np.testing.assert_array_equal(got[:, f, i], want)

    def test_date_blocks_split_mid_sample(self, monkeypatch):
        fit, _ = engine_fit(3100, 2, 4)
        # 2 families x 4 targets x 2 coalitions x 2 components per date: blocks
        # of 5 dates for the total risk series and of 2 for the attribution.
        # The marginal levels, 4 series x 2 taus x 2 components per date, are
        # solved in blocks of 10 dates.
        monkeypatch.setattr(corisk, "ROW_BUDGET", 5 * 32)
        assert_series_equal(
            total_risk_series(fit, "both"),
            oracle_total_risk_series(fit, "both", 0.05, 0.05),
        )
        for measure in MEASURES:
            assert_attribution_equal(
                attribution_series(fit, measure),
                *oracle_attribution_series(fit, measure, 0.05, 0.05),
            )

    def test_target_subsets_match_full_run(self):
        fit, _ = engine_fit(3200, 3, 4)
        for measure in MEASURES:
            full = attribution_series(fit, measure)
            part = attribution_series(fit, measure, targets=(3, 1))
            assert part.targets == (3, 1)
            assert set(part.shares) == {(i, j) for i in (3, 1) for j in range(4) if j != i}
            for key, values in part.shares.items():
                np.testing.assert_array_equal(values, full.shares[key])
            for i in part.targets:
                np.testing.assert_array_equal(part.grand[i], full.grand[i])
            a_on_b, b_on_a = vis_a_vis(fit, (2, 0), measure)
            np.testing.assert_array_equal(a_on_b, full.shares[(2, 0)])
            np.testing.assert_array_equal(b_on_a, full.shares[(0, 2)])

    def test_no_targets_no_shares(self):
        fit, _ = engine_fit(3300, 2, 3)
        series = attribution_series(fit, targets=())
        assert series.targets == () and series.shares == {} and series.grand == {}


class TestEngineLayout:
    """The engine builds its conditioning layout at construction and owns the player order."""

    def test_others_is_every_callers_player_order(self):
        fit, _ = engine_fit(3600, 2, 4)
        engine = CoRiskEngine.from_fit(fit)
        assert engine.others.shape == (4, 3)
        series = total_risk_series(fit)
        attribution = attribution_series(fit)
        mix = build_predictive(fit, 5)
        for i in range(4):
            players = tuple(engine.others[i].tolist())
            assert players == tuple(j for j in range(4) if j != i)
            assert series[i].distress == players
            assert characteristic_values(mix, i).players == players
            assert tuple(j for t, j in attribution.shares if t == i) == players

    @pytest.mark.parametrize("L", [1, 2])
    def test_one_series_engine(self, L):
        mix = random_mixture(np.random.default_rng(3610 + L), L, 1)
        engine = CoRiskEngine.from_mixture(mix)
        assert engine.others.shape == (1, 0)
        level = engine.level("var", 0.05)
        assert level.shape == (1, 1) and level[0, 0] == marginal_var(mix, 0, 0.05)
        with pytest.raises(ValueError, match="at least two series"):
            engine.coalition_values([0], ["covar"], 0.05, 0.05, np.zeros((1, 0), dtype=bool))

    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_marginals_equal_engine_levels(self, L, p):
        mix = random_mixture(np.random.default_rng(3620 + 10 * L + p), L, p)
        engine = CoRiskEngine.from_mixture(mix)
        for tau in (0.01, 0.05, 0.5, 0.9):
            for i in range(p):
                assert marginal_var(mix, i, tau) == engine.level("var", tau)[0, i]
                assert marginal_es(mix, i, tau) == engine.level("es", tau)[0, i]

    @pytest.mark.parametrize("weights, date", [
        ([[0.7, 0.7]], 0),
        ([[np.nan, 1.0]], 0),
        ([[0.5, 0.5], [1.5, -0.5]], 1),
        ([[0.5, 0.5], [np.inf, 0.0]], 1),
    ])
    def test_weights_off_the_simplex_named(self, weights, date):
        regimes = random_model(np.random.default_rng(3630), 2, 3).regimes
        with pytest.raises(ValueError, match=f"^weights at date {date} must be finite, "
                                             "nonnegative and sum to 1 within 1e-10"):
            CoRiskEngine(weights, regimes)

    @pytest.mark.parametrize("weights", [[[0.2, 0.3, 0.5]], [1.0], np.full((1, 1, 2), 0.5)])
    def test_weights_need_one_column_per_component(self, weights):
        regimes = random_model(np.random.default_rng(3630), 2, 3).regimes
        with pytest.raises(ValueError, match="^weights must be T x L with one column per "
                                             "component$"):
            CoRiskEngine(weights, regimes)

    def test_weights_within_tolerance_accepted(self):
        regimes = random_model(np.random.default_rng(3631), 2, 3).regimes
        assert CoRiskEngine([[0.5, 0.5 + 5e-11], [1.0, 0.0]], regimes).weights.shape == (2, 2)


class TestEsNeedsNuAboveOne:
    """A component with nu <= 1 has no ES; every ES path names it, the engine before any root."""

    MESSAGE = r"^ES needs every component nu > 1, component 1 has nu = 0\.8$"

    @staticmethod
    def mixture():
        mix = random_mixture(np.random.default_rng(3640), 3, 3)
        comps = [MvtParams(c.mu, c.sigma, nu) for c, nu in zip(mix.components, (5.0, 0.8, 1.0))]
        return PredictiveMixture(mix.weights, comps)

    @pytest.mark.parametrize("call", [
        lambda mix: CoRiskEngine.from_mixture(mix).level("es", 0.05),
        lambda mix: CoRiskEngine.from_mixture(mix).solve_levels([0.05, 0.5], es=True),
        lambda mix: multiple_coes(mix, RiskQuery(0, (1, 2))),
        lambda mix: delta_m_coes(mix, RiskQuery(2, (0,))),
        lambda mix: CoRiskEngine.from_mixture(mix).coalition_values(
            [0, 1], ["covar", "coes"], 0.05, 0.05, [[True, False]]),
    ], ids=["level", "solve_levels", "multiple_coes", "delta_m_coes", "coalition_values"])
    def test_named_before_any_root(self, monkeypatch, call):
        def no_root(*args, **kwargs):
            raise AssertionError("a quantile root ran before nu was checked")

        monkeypatch.setattr(corisk, "batched_mixture_quantile", no_root)
        with pytest.raises(ValueError, match=self.MESSAGE):
            call(self.mixture())

    def test_marginal_es_names_the_component(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            marginal_es(self.mixture(), 0, 0.05)

    def test_marginal_es_checks_before_its_root(self, monkeypatch):
        mix = random_mixture(np.random.default_rng(3641), 2, 2)
        comps = [MvtParams(c.mu, c.sigma, nu) for c, nu in zip(mix.components, (5.0, 0.8))]
        mix = PredictiveMixture(mix.weights, comps)
        calls, real = [], studentt.batched_mixture_quantile

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(studentt, "batched_mixture_quantile", counted)
        with pytest.raises(ValueError, match=self.MESSAGE):
            marginal_es(mix, 0, 0.05)
        assert calls == []

    def test_var_levels_need_no_finite_mean(self):
        mix = self.mixture()
        engine = CoRiskEngine.from_mixture(mix)
        assert engine.level("var", 0.05)[0, 1] == marginal_var(mix, 1, 0.05)
        assert np.isfinite(multiple_covar(mix, RiskQuery(0, (1, 2))))


class TestCoalitionBoundary:
    def engine(self):
        fit, _ = engine_fit(3400, 2, 4)
        return CoRiskEngine.from_fit(fit)

    def test_wrong_width_named(self):
        with pytest.raises(ValueError, match=r"\(C, 3\) boolean array, got shape \(1, 2\)"):
            self.engine().coalition_values([0], ["covar"], 0.05, 0.05, [[True, False]])

    @pytest.mark.parametrize("coalitions", [[], np.zeros((0, 3), dtype=bool), [True] * 3])
    def test_empty_or_flat_rejected(self, coalitions):
        with pytest.raises(ValueError, match=r"nonempty \(C, 3\) boolean array"):
            self.engine().coalition_values([0], ["covar"], 0.05, 0.05, coalitions)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError, match="series index 7 outside dimension 4"):
            self.engine().coalition_values([0, 7], ["covar"], 0.05, 0.05, [[True] * 3])

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="measure must be"):
            self.engine().coalition_values([0], ["covar", "cvar"], 0.05, 0.05, [[True] * 3])

    @pytest.mark.parametrize("target", [1.9, 1.0, np.float64(2.0)])
    def test_fractional_target_rejected(self, target):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            self.engine().coalition_values([target], ["covar"], 0.05, 0.05, [[True] * 3])


# Every public entry point that takes a measure family, called with "var";
# the fit is (3 series, 2 regimes), the bivariate fit its first two series.
MEASURE_ENTRY_POINTS = {
    "coalition_values": lambda fit, fit2: CoRiskEngine.from_fit(fit).coalition_values(
        [0], ["var"], 0.05, 0.05, [[True, True]]),
    "total_risk_series": lambda fit, fit2: total_risk_series(fit, measure="var"),
    "standard_pairwise_delta": lambda fit, fit2: standard_pairwise_delta(fit2, 0, "var"),
    "characteristic_values": lambda fit, fit2: characteristic_values(
        build_predictive(fit, 3), 0, "var"),
    "attribution_series": lambda fit, fit2: attribution_series(fit, measure="var"),
    "vis_a_vis": lambda fit, fit2: vis_a_vis(fit, (0, 1), measure="var"),
}


@pytest.mark.parametrize("entry", sorted(MEASURE_ENTRY_POINTS))
def test_measure_checked_before_any_solve(entry, monkeypatch):
    fit, _ = engine_fit(3500, 2, 3)
    fit2 = marginalize_fit(fit, [0, 1])

    def no_solve(*args, **kwargs):
        raise AssertionError("a level solve ran before the measure was checked")

    monkeypatch.setattr(CoRiskEngine, "solve_levels", no_solve)
    message = ("measure must be 'covar', 'coes' or 'both'" if entry == "total_risk_series"
               else "measure must be 'covar' or 'coes'")
    with pytest.raises(ValueError) as info:
        MEASURE_ENTRY_POINTS[entry](fit, fit2)
    assert str(info.value) == message

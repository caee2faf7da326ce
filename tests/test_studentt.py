import contextlib
import io
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg, special, stats
from scipy.optimize import brentq

from msrisk import (
    MvtParams,
    load_csv,
    condition_mvt,
    marginal_mvt,
    mixture_es,
    mixture_quantile,
    mvt_logpdf,
    t_cdf,
    t_es,
    t_quantile,
)
from msrisk import attribution, corisk, markov, studentt
from msrisk.cli import main
from msrisk.studentt import (
    EPS,
    _bracketed_newton,
    _digamma_gaps,
    _log_gamma_ratio,
    _mvt_log_norm,
    _rows,
    batched_mixture_quantile,
    batched_mixture_truncated_mean,
    mixture_truncated_mean,
    t_lower_partial,
)

from helpers import mixture_cdf, mvt_mahalanobis, random_mvt, random_pd, univariate

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"
# `msrisk simulate` arguments of the benchmark's risk and shapley inputs at
# seed 0 and of the north-star chain panel, and the co-risk pass each runs
PASS_INPUTS = {
    "risk": (["--model", str(MODELS / "risk_truth.json"), "--T", "12", "--seed", "0"],
             corisk.total_risk_series, {"measure": "both"}),
    "shapley": (["--model", str(MODELS / "shapley_truth.json"), "--T", "6", "--seed", "0"],
                attribution.attribution_series, {"measure": "covar"}),
    "chain": (["--L", "2", "--p", "4", "--T", "500", "--seed", "7"],
              attribution.attribution_series, {"measure": "covar"}),
}


def oracle_mixture_quantile(weights, mu, scale, nu, tau):
    """batched_mixture_quantile with plain Newton steps: the density is the slope, curvature 0."""
    nu, tau = np.asarray(nu, dtype=float), np.asarray(tau, dtype=float)
    shape, tau, (w, mu, s, nu, std_q, log_norm) = _rows(
        tau, weights, mu, scale, nu, special.stdtrit(nu, tau[..., None]), _mvt_log_norm(nu, 1)
    )
    comp_q = mu + s * std_q
    live = w > 0.0
    a = np.min(np.where(live, comp_q, np.inf), axis=1)
    b = np.max(np.where(live, comp_q, -np.inf), axis=1)
    log_c = log_norm - np.log(s)

    def cdf_and_density(x, rows):
        wr, mr, sr, nr = w[rows], mu[rows], s[rows], nu[rows]
        z = (x[:, None] - mr) / sr
        dens = wr * np.exp(log_c[rows] - 0.5 * (nr + 1.0) * np.log1p(z * z / nr))
        return np.sum(wr * special.stdtr(nr, z), axis=1) - tau[rows], np.sum(dens, axis=1), 0.0

    x = np.clip(np.sum(w * comp_q, axis=1), a, b)
    q = studentt._bracketed_newton(cdf_and_density, x, a, b, 4.0 * EPS * np.min(s, axis=1))
    return q.reshape(shape)


class TestMvtParams:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            MvtParams([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]], 5.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            MvtParams([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], 5.0)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError, match="nu"):
            MvtParams([0.0], [[1.0]], 0.0)

    @pytest.mark.parametrize("mu, sigma, message", [
        ([[0.0, 0.0]], np.eye(2), "mu must be a vector"),
        ([0.0, 0.0], np.eye(3), "sigma must be 2x2, got (3, 3)"),
        ([0.0, 0.0], [1.0, 0.0], "sigma must be 2x2, got (1, 2)"),
    ])
    def test_rejects_bad_shapes(self, mu, sigma, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MvtParams(mu, sigma, 5.0)

    @pytest.mark.parametrize("mu, sigma, field", [
        ([0.0, np.nan], np.eye(2), "mu"),
        ([np.inf, 0.0], np.eye(2), "mu"),
        ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]], "sigma"),
        ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]], "sigma"),
    ])
    def test_rejects_non_finite(self, mu, sigma, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MvtParams(mu, sigma, 5.0)


class TestMvtLogpdf:
    def test_gaussian_limit_at_zero(self):
        p = MvtParams([0.0], [[1.0]], 1e6)
        assert abs(mvt_logpdf(np.array([0.0]), p) - np.log(1.0 / np.sqrt(2 * np.pi))) < 1e-3

    def test_mode_at_location(self):
        rng = np.random.default_rng(5)
        p = random_mvt(rng, 3, nu=7.0)
        grid = p.mu + rng.normal(scale=2.0, size=(500, 3))
        assert mvt_logpdf(p.mu, p) > np.max(mvt_logpdf(grid, p))

    def test_integrates_to_one_2d(self):
        p = MvtParams([0.3, -0.2], [[1.0, 0.4], [0.4, 2.0]], 12.0)
        xs = np.linspace(-25, 25, 801)
        ys = np.linspace(-35, 35, 801)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        dens = np.exp(mvt_logpdf(np.stack([gx + 0.3, gy - 0.2], axis=-1), p))
        mass = np.trapezoid(np.trapezoid(dens, ys, axis=1), xs)
        assert abs(mass - 1.0) < 1e-3

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        p = random_mvt(rng, 4, nu=5.0)
        x = rng.normal(size=4)
        perm = rng.permutation(4)
        p2 = MvtParams(p.mu[perm], p.sigma[np.ix_(perm, perm)], p.nu)
        assert abs(mvt_logpdf(x, p) - mvt_logpdf(x[perm], p2)) < 1e-12

    def test_univariate_matches_scipy(self):
        p = MvtParams([0.5], [[4.0]], 6.0)
        x = np.array([-1.0, 0.5, 3.0])
        expected = stats.t.logpdf((x - 0.5) / 2.0, df=6.0) - np.log(2.0)
        np.testing.assert_allclose(mvt_logpdf(x[:, None], p), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        p = MvtParams([0.0, 0.0], np.eye(2), 5.0)
        with pytest.raises(ValueError):
            mvt_logpdf(np.zeros(3), p)

    @pytest.mark.parametrize("k", [3, 300, 700])
    @pytest.mark.parametrize("nu", [2.5, 200.0])
    def test_wide_matches_scipy(self, k, nu):
        # Gamma((nu + k)/2) / Gamma(nu/2) overflows a double from k of about 300 on.
        rng = np.random.default_rng(k)
        p = MvtParams(rng.normal(size=k), np.diag(rng.uniform(0.5, 2.0, size=k)), nu)
        x = p.mu + rng.normal(size=(4, k))
        expected = stats.multivariate_t(p.mu, p.sigma, df=nu).logpdf(x)
        np.testing.assert_allclose(mvt_logpdf(x, p), expected, rtol=1e-12)

    @pytest.mark.parametrize("nu", [1e4, 1e6, 1e8, 1e10])
    def test_univariate_large_nu_matches_mpmath(self, nu):
        # The log of scipy's Pochhammer symbol Gamma((nu + 1)/2) / Gamma(nu/2),
        # used before, put the log-density 2.3e-12 relative off at nu = 1e4.
        x = np.array([-3.0, -0.5, 0.0, 1.0, 2.5])
        with mpmath.workdps(40):
            n = mpmath.mpf(nu)
            norm = (mpmath.loggamma((n + 1) / 2) - mpmath.loggamma(n / 2)
                    - mpmath.log(n * mpmath.pi) / 2)
            expected = [float(norm - (n + 1) / 2 * mpmath.log1p(mpmath.mpf(v) ** 2 / n))
                        for v in x]
        got = mvt_logpdf(x[:, None], MvtParams([0.0], [[1.0]], nu))
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)


class TestGammaFunctionGaps:
    """The nu step's psi, psi' and psi'' differences and the t normaliser's log-gamma
    difference against 40-digit mpmath, at a log-uniform in [0.01, 1e8]."""

    A = np.exp(np.random.default_rng(26).uniform(np.log(0.01), np.log(1e8), 150))
    STEPS = [0.5, 1.0, 1.5, 2.5, 3.0, 350.0]

    @staticmethod
    def ulps(got, expected):
        """Largest error in units of EPS * max(1, |expected|)."""
        expected = np.array([float(v) for v in expected])
        return np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))) / EPS

    @pytest.mark.parametrize("m", STEPS)
    def test_digamma_gaps(self, m):
        psi, trigamma, tetragamma = _digamma_gaps(self.A, m)
        with mpmath.workdps(40):
            a = [mpmath.mpf(v) for v in self.A]
            assert self.ulps(psi, [mpmath.digamma(v) - mpmath.digamma(v + m) for v in a]) <= 6
            assert self.ulps(trigamma, [mpmath.polygamma(1, v) - mpmath.polygamma(1, v + m)
                                        for v in a]) <= 6
            assert self.ulps(tetragamma, [mpmath.polygamma(2, v) - mpmath.polygamma(2, v + m)
                                          for v in a]) <= 6

    @pytest.mark.parametrize("m", STEPS)
    def test_log_gamma_ratio(self, m):
        # Where the value is near 0 (a < 1), the shift sum and the Stirling
        # part are each about m log 8 and their roundings leave some ulp.
        with mpmath.workdps(40):
            expected = [mpmath.loggamma(v + m) - mpmath.loggamma(v)
                        for v in map(mpmath.mpf, self.A)]
        assert self.ulps(_log_gamma_ratio(self.A, m), expected) <= 12

    def test_log_gamma_ratio_keeps_shape(self):
        a = np.array([[0.7, 3.0, 40.0], [1e3, 2.5e5, 9e7]])
        expected = np.array([[_log_gamma_ratio(np.array([v]), 2.0)[0] for v in row] for row in a])
        np.testing.assert_array_equal(_log_gamma_ratio(a, 2.0), expected)
        assert np.ndim(_log_gamma_ratio(3.0, 2.0)) == 0


class TestMvtMahalanobis:
    """The whitened quadratic form against triangular-solve oracles."""

    @staticmethod
    def spd(rng, k, cond):
        # Eigenvalues log-spaced over the condition number, random rotation
        # and overall scale.
        rot, _ = np.linalg.qr(rng.normal(size=(k, k)))
        eig = np.logspace(0.0, -np.log10(cond), k) * 10.0 ** rng.uniform(-6.0, 2.0)
        sigma = (rot * eig) @ rot.T
        return 0.5 * (sigma + sigma.T)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
    def test_matches_triangular_solve(self, k, cond):
        rng = np.random.default_rng(int(np.log10(cond)) * 10 + k)
        for _ in range(10):
            sigma = self.spd(rng, k, cond)
            p = MvtParams(rng.normal(size=k), sigma, 5.0)
            scale = np.sqrt(np.diag(sigma)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(300, 1))
            x = p.mu + rng.normal(size=(300, k)) * scale
            sol = linalg.solve_triangular(p.chol, (x - p.mu).T, lower=True)
            expected = np.sum(sol * sol, axis=0)
            np.testing.assert_allclose(mvt_mahalanobis(x, p), expected, rtol=1e-11, atol=0)

    @staticmethod
    def long_double_forms(chol, dev):
        """|z|^2 for chol z = dev by forward substitution in long double."""
        chol, dev = chol.astype(np.longdouble), dev.astype(np.longdouble)
        z = np.empty_like(dev)
        for i in range(len(chol)):
            z[:, i] = (dev[:, i] - z[:, :i] @ chol[i, :i]) / chol[i, i]
        return np.sum(z * z, axis=1)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("cond", [1e1, 1e3, 1e5, 1e7, 1e9, 1e11])
    def test_matches_long_double_substitution(self, k, cond):
        rng = np.random.default_rng(k * 100 + int(np.log10(cond)))
        for _ in range(20):
            sigma = self.spd(rng, k, cond)
            p = MvtParams(rng.normal(size=k), sigma, 5.0)
            scale = np.sqrt(np.diag(sigma)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(300, 1))
            x = p.mu + rng.normal(size=(300, k)) * scale
            expected = self.long_double_forms(p.chol, x - p.mu)
            np.testing.assert_allclose(mvt_mahalanobis(x, p), expected, rtol=1e-12, atol=0)


class TestUnivariateTail:
    @pytest.mark.parametrize("nu", [1.0, 2.5, 10.0, 100.0])
    def test_cdf_quantile_round_trip(self, nu):
        taus = np.array([0.001, 0.05, 0.3, 0.5, 0.9, 0.999])
        np.testing.assert_allclose(t_cdf(t_quantile(taus, nu), nu), taus, atol=1e-10)

    def test_median_zero(self):
        assert abs(t_quantile(0.5, 7.3)) < 1e-15

    def test_cauchy_quartile(self):
        assert abs(t_quantile(0.75, 1.0) - 1.0) < 1e-10

    def test_quantile_vs_pdf_inversion(self):
        # Quadrature-inversion oracle at the frozen nu = 15.6839.
        nu = 15.6839

        def pdf(z):
            return np.exp(
                stats.t.logpdf(z, df=nu)
            )

        def cdf(z):
            val, _ = integrate.quad(pdf, -np.inf, z)
            return val

        oracle = brentq(lambda z: cdf(z) - 0.05, -10.0, 0.0, xtol=1e-12)
        assert abs(t_quantile(0.05, nu) - oracle) < 1e-8

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            t_quantile(0.0, 5.0)
        with pytest.raises(ValueError):
            t_quantile(0.5, -1.0)

    def test_es_gaussian_limit(self):
        assert abs(t_es(0.5, 1e6) - (-0.7979)) < 1e-3

    def test_es_below_quantile(self):
        for nu in (1.5, 4.0, 30.0):
            assert t_es(0.05, nu) < t_quantile(0.05, nu)

    def test_es_quadrature(self):
        nu = 5.0
        q = t_quantile(0.05, nu)
        integral, _ = integrate.quad(lambda z: z * stats.t.pdf(z, df=nu), -np.inf, q)
        assert abs(t_es(0.05, nu) - integral / 0.05) < 1e-6

    def test_es_requires_nu_gt_one(self):
        with pytest.raises(ValueError):
            t_es(0.05, 1.0)

    @pytest.mark.parametrize("call", [
        lambda: t_quantile(np.nan, 5.0),
        lambda: t_quantile(0.05, np.nan),
        lambda: t_quantile([0.05, np.nan], 5.0),
        lambda: t_cdf(0.0, np.nan),
        lambda: t_cdf([0.0, 1.0], [5.0, np.nan]),
        lambda: t_lower_partial(0.0, np.nan),
        lambda: t_es(0.05, np.nan),
    ])
    def test_nan_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestConditionMvt:
    def test_center_conditioning(self):
        rng = np.random.default_rng(7)
        p = random_mvt(rng, 3, nu=6.0)
        cond = condition_mvt(p, [2], p.mu[2:])
        keep = [0, 1]
        s = p.sigma
        schur = s[np.ix_(keep, keep)] - np.outer(s[keep, 2], s[2, keep]) / s[2, 2]
        np.testing.assert_allclose(cond.mu, p.mu[keep], atol=1e-12)
        np.testing.assert_allclose(cond.sigma, 6.0 / 7.0 * schur, atol=1e-12)
        assert cond.nu == 7.0

    def test_diagonal_sigma_location_unchanged(self):
        p = MvtParams([1.0, -2.0, 3.0], np.diag([1.0, 4.0, 9.0]), 5.0)
        cond = condition_mvt(p, [1, 2], [10.0, -10.0])
        np.testing.assert_allclose(cond.mu, [1.0], atol=1e-12)
        assert cond.nu == 7.0

    def test_grid_slice_density(self):
        # Conditional density equals the normalized slice of the joint.
        rng = np.random.default_rng(8)
        p = random_mvt(rng, 3, nu=5.0)
        values = p.mu[1:] + rng.normal(size=2)
        cond = condition_mvt(p, [1, 2], values)
        mu_c, s_c, nu_c = univariate(cond)
        grid = np.linspace(mu_c - 40 * s_c, mu_c + 40 * s_c, 40001)
        pts = np.column_stack([grid, np.full_like(grid, values[0]),
                               np.full_like(grid, values[1])])
        slice_dens = np.exp(mvt_logpdf(pts, p))
        slice_dens /= np.trapezoid(slice_dens, grid)
        cond_dens = stats.t.pdf((grid - mu_c) / s_c, df=nu_c) / s_c
        assert np.max(np.abs(slice_dens - cond_dens)) < 1e-4

    def test_iterated_conditioning(self):
        rng = np.random.default_rng(9)
        p = random_mvt(rng, 4, nu=8.0)
        va, vb = 0.7, -1.1
        joint = condition_mvt(p, [1, 3], [va, vb])
        step1 = condition_mvt(p, [1], [va])
        # After dropping coordinate 1, original coordinate 3 sits at index 2.
        step2 = condition_mvt(step1, [2], [vb])
        np.testing.assert_allclose(step2.mu, joint.mu, atol=1e-10)
        np.testing.assert_allclose(step2.sigma, joint.sigma, atol=1e-10)
        assert step2.nu == joint.nu

    def test_bad_cond_sets(self):
        p = MvtParams([0.0, 0.0], np.eye(2), 5.0)
        with pytest.raises(ValueError):
            condition_mvt(p, [], [])
        with pytest.raises(ValueError):
            condition_mvt(p, [0, 1], [0.0, 0.0])
        with pytest.raises(ValueError):
            condition_mvt(p, [0, 0], [0.0, 0.0])

    def test_values_must_match_the_set(self):
        p = MvtParams([0.0, 0.0, 0.0], np.eye(3), 5.0)
        with pytest.raises(ValueError, match="^cond_values must match cond_idx in length$"):
            condition_mvt(p, [0], [1.0, 2.0])

    def test_singular_block_named(self):
        # Sigma's Cholesky factor exists: its second pivot 3 - fl(sqrt 3)^2 is
        # 4.4e-16.  Taken in the order [1, 0], the block's factor is fl(sqrt 3)
        # and then 1 - (fl(sqrt 3) / fl(sqrt 3))^2 = 0, so no factor exists.
        s = np.sqrt(3.0)
        p = MvtParams([0.0, 0.0, 0.0], [[1.0, s, 0.0], [s, 3.0, 0.0], [0.0, 0.0, 1.0]], 5.0)
        assert condition_mvt(p, [0, 1], [0.0, 0.0]).dim == 1
        with pytest.raises(ValueError, match="^singular conditioning block$"):
            condition_mvt(p, [1, 0], [0.0, 0.0])


class TestMarginalMvt:
    def test_keep_all_identity(self):
        rng = np.random.default_rng(10)
        p = random_mvt(rng, 3, nu=4.0)
        m = marginal_mvt(p, [0, 1, 2])
        np.testing.assert_allclose(m.mu, p.mu)
        np.testing.assert_allclose(m.sigma, p.sigma)
        assert m.nu == p.nu

    def test_block_extraction(self):
        p = MvtParams([1.0, 2.0], [[4.0, 1.0], [1.0, 9.0]], 6.0)
        m = marginal_mvt(p, [0])
        assert (float(m.mu[0]), float(m.sigma[0, 0]), m.nu) == (1.0, 4.0, 6.0)

    def test_quadrature_over_dropped_coordinate(self):
        p = MvtParams([0.2, -0.4], [[1.0, 0.6], [0.6, 2.0]], 5.0)
        m = marginal_mvt(p, [0])
        mu, s, nu = univariate(m)
        for x in (-2.0, 0.2, 1.5):
            integral, _ = integrate.quad(
                lambda y, x=x: np.exp(mvt_logpdf(np.array([x, y]), p)),
                -np.inf, np.inf,
            )
            assert abs(integral - stats.t.pdf((x - mu) / s, df=nu) / s) < 1e-4

    def test_empty_keep(self):
        p = MvtParams([0.0, 0.0], np.eye(2), 5.0)
        with pytest.raises(ValueError):
            marginal_mvt(p, [])

    def test_univariate_needs_one_dimension(self):
        p = MvtParams([0.0, 0.0], np.eye(2), 5.0)
        assert univariate(marginal_mvt(p, [1])) == (0.0, 1.0, 5.0)
        with pytest.raises(ValueError, match="^expected a univariate distribution$"):
            univariate(p)


class TestMixtureQuantile:
    def test_single_component(self):
        got = mixture_quantile([1.0], [(0.3, 2.0, 6.0)], 0.05)
        assert abs(got - (0.3 + 2.0 * t_quantile(0.05, 6.0))) < 1e-10

    def test_duplicated_components(self):
        comp = (0.1, 1.5, 8.0)
        single = mixture_quantile([1.0], [comp], 0.1)
        double = mixture_quantile([0.3, 0.7], [comp, comp], 0.1)
        assert abs(single - double) < 1e-10

    def test_symmetric_pair_median(self):
        got = mixture_quantile([0.5, 0.5], [(-1.0, 1.0, 5.0), (1.0, 1.0, 5.0)], 0.5)
        assert abs(got) < 1e-10

    def test_root_property(self):
        rng = np.random.default_rng(11)
        w = rng.dirichlet(np.ones(3))
        comps = [(float(rng.normal()), float(rng.uniform(0.5, 2.0)),
                  float(rng.uniform(2.5, 15.0))) for _ in range(3)]
        for tau in (0.01, 0.3, 0.97):
            q = mixture_quantile(w, comps, tau)
            assert abs(mixture_cdf(q, w, comps) - tau) < 1e-10

    def test_monotone_in_tau(self):
        comps = [(0.0, 1.0, 3.0), (2.0, 0.5, 10.0)]
        w = [0.4, 0.6]
        qs = [mixture_quantile(w, comps, t) for t in np.linspace(0.05, 0.95, 10)]
        assert np.all(np.diff(qs) > 0)

    def test_affine_equivariance(self):
        comps = [(0.0, 1.0, 4.0), (1.0, 2.0, 7.0)]
        w = [0.5, 0.5]
        base = mixture_quantile(w, comps, 0.05)
        shifted = [(m + 3.0, s, n) for m, s, n in comps]
        assert abs(mixture_quantile(w, shifted, 0.05) - (base + 3.0)) < 1e-9
        scaled = [(2.0 * m, 2.0 * s, n) for m, s, n in comps]
        assert abs(mixture_quantile(w, scaled, 0.05) - 2.0 * base) < 1e-9

    @pytest.mark.parametrize("weights, comps", [
        ([np.nan, 1.0], [(0.0, 1.0, 5.0), (1.0, 1.0, 5.0)]),
        ([0.5, 0.5], [(0.0, np.nan, 5.0), (1.0, 1.0, 5.0)]),
        ([0.5, 0.5], [(0.0, 1.0, 5.0), (1.0, 1.0, np.nan)]),
        ([0.5, 0.5], [(np.nan, 1.0, 5.0), (1.0, 1.0, 5.0)]),
    ])
    @pytest.mark.parametrize("call", ["quantile", "cdf", "truncated_mean"])
    def test_nan_rejected(self, call, weights, comps):
        with pytest.raises(ValueError):
            if call == "quantile":
                mixture_quantile(weights, comps, 0.05)
            elif call == "cdf":
                mixture_cdf(0.0, weights, comps)
            else:
                mixture_truncated_mean(weights, comps, 0.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            mixture_quantile([0.6, 0.6], [(0.0, 1.0, 5.0), (1.0, 1.0, 5.0)], 0.5)
        with pytest.raises(ValueError):
            mixture_quantile([1.0], [(0.0, -1.0, 5.0)], 0.5)
        with pytest.raises(ValueError):
            mixture_quantile([1.0], [(0.0, 1.0, 5.0)], 1.0)

    @pytest.mark.parametrize("weights", [[1.0], [0.2, 0.3, 0.5]])
    def test_one_weight_per_component(self, weights):
        with pytest.raises(ValueError, match="^weights and components disagree in length$"):
            mixture_quantile(weights, [(0.0, 1.0, 5.0), (1.0, 1.0, 5.0)], 0.05)


class TestBatchedKernels:
    def test_broadcast_rows_equal_materialised_rows(self):
        # The t quantiles and log-normalisers are taken on the unbroadcast
        # nu and tau; every row must equal the one solved from full arrays.
        rng = np.random.default_rng(140)
        L = 3
        w = rng.dirichlet(np.ones(L), size=(7, 1, 1))
        w[0, 0, 0, 1] = 0.0
        mu = rng.normal(size=(1, 4, 1, L))
        s = rng.uniform(0.5, 2.0, size=(1, 4, 1, L))
        nu = rng.uniform(2.5, 30.0, size=L)
        tau = np.array([0.01, 0.05, 0.5])
        shape = (7, 4, 3, L)
        full = [np.broadcast_to(a, shape).copy() for a in (w, mu, s, nu)]
        tau_full = np.broadcast_to(tau, shape[:-1]).copy()
        q = batched_mixture_quantile(w, mu, s, nu, tau)
        assert q.shape == shape[:-1]
        np.testing.assert_array_equal(q, batched_mixture_quantile(*full, tau_full))
        np.testing.assert_array_equal(
            batched_mixture_truncated_mean(w, mu, s, nu, q),
            batched_mixture_truncated_mean(*full, q),
        )


def pass_values(result):
    """Every value of a total_risk_series or attribution_series result, as one array."""
    if isinstance(result, list):
        fields = ("var", "es", "covar", "coes", "delta_covar", "delta_coes")
        return np.concatenate([getattr(r, f) for r in result for f in fields])
    return np.concatenate([*result.shares.values(), *result.grand.values()])


@st.composite
def mixture_rows(draw):
    """1 to 4 rows of L-component mixtures, L from 1 to 4, and their levels.

    Weights may be zero, scales and locations span six decades, and a tied
    row repeats one component, so that its bracket is a single point.
    """
    L, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def table(values):
        return np.array(draw(st.lists(
            st.lists(values, min_size=L, max_size=L), min_size=n, max_size=n)))

    w = table(st.just(0.0) | st.floats(0.01, 1.0))
    w[w.sum(axis=1) == 0.0, 0] = 1.0
    w /= w.sum(axis=1, keepdims=True)
    s = 10.0 ** table(st.floats(-3.0, 3.0))
    mu = table(st.floats(-5.0, 5.0)) * 10.0 ** table(st.floats(-3.0, 3.0))
    nu = table(st.floats(2.1, 300.0))
    tied = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    for a in (mu, s, nu):
        a[tied] = a[tied, :1]
    tau = np.array(draw(st.lists(st.floats(1e-4, 1.0 - 1e-4), min_size=n, max_size=n)))
    return w, mu, s, nu, tau


class TestQuantileOracle:
    """The Halley-sloped root against the plain Newton root it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(mixture_rows())
    def test_same_root_as_newton(self, case):
        w, mu, s, nu, tau = case
        q = batched_mixture_quantile(w, mu, s, nu, tau)
        oracle = oracle_mixture_quantile(w, mu, s, nu, tau)
        # g = sum_l w_l F_l - tau is a sum of probabilities each rounded to
        # about eps, so its root is fixed only to about eps / f(q), f the
        # mixture density there: a wide flat valley between two modes.
        dens = np.sum(w * stats.t.pdf((oracle[:, None] - mu) / s, nu) / s, axis=1)
        tol = 4.0 * EPS * (np.abs(q) + np.min(s, axis=1) + 1.0 / dens)
        assert np.all(np.abs(q - oracle) <= tol)

    def test_subnormal_density_warns_nothing(self):
        # The start, the weighted mean, lies between two modes 1000 scales
        # apart, where the density is subnormal: g / slope overflows and
        # the step falls back to bisection.
        w, mu, s = [0.5, 0.5], [0.0, 1000.0], [1.0, 1.0]
        nu, tau = [258.0, 175.0], 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = batched_mixture_quantile(w, mu, s, nu, tau)
        assert abs(q - oracle_mixture_quantile(w, mu, s, nu, tau)) <= 4.0 * EPS * (abs(q) + 1.0)

    @pytest.mark.parametrize("name", sorted(PASS_INPUTS))
    def test_no_more_sweeps_than_newton(self, name, monkeypatch, tmp_path):
        argv, run, kwargs = PASS_INPUTS[name]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", *argv, "--out", str(tmp_path)]) == 0
        fit = markov.fit_from_model(markov.load_model(tmp_path / "truth_model.json")[0],
                                    load_csv(tmp_path / "panel.csv"))
        calls = []

        def counted(fun, *args):
            def fun_counted(x, rows):
                calls.append(rows.size)
                return fun(x, rows)
            return real(fun_counted, *args)

        real = studentt._bracketed_newton
        monkeypatch.setattr(studentt, "_bracketed_newton", counted)
        got = run(fit, **kwargs)
        sweeps = len(calls)
        calls.clear()
        monkeypatch.setattr(corisk, "batched_mixture_quantile", oracle_mixture_quantile)
        expected = run(fit, **kwargs)
        assert 0 < sweeps <= len(calls)
        np.testing.assert_allclose(pass_values(got), pass_values(expected), rtol=0.0, atol=1e-12)


class TestBracketedNewton:
    def test_solved_rows_untouched(self):
        seen = []

        def line(x, rows):
            seen.append(rows.tolist())
            return x - 1.0, np.ones_like(x), np.zeros_like(x)

        x = np.array([0.5, 7.0, -3.0, 1.5])
        a = np.array([0.0, 2.0, -3.0, 1.0])
        b = np.array([2.0, 2.0, -3.0, 3.0])
        root = _bracketed_newton(line, x, a, b, 1e-12)
        np.testing.assert_array_equal(root, [1.0, 7.0, -3.0, 1.0])
        assert seen and all(set(rows) <= {0, 3} for rows in seen)
        np.testing.assert_array_equal(x, [0.5, 7.0, -3.0, 1.5])

    def test_nan_values_never_converge(self):
        # A NaN value moves neither bracket end, so each row is sent back to
        # the same midpoint at every step until the step bound runs out.
        def nan(x, rows):
            return np.full_like(x, np.nan), np.ones_like(x), np.zeros_like(x)

        with pytest.raises(RuntimeError, match="^bracketed Newton: 2 rows did not converge$"):
            _bracketed_newton(nan, [0.5, 2.0, 5.0], [0.0, 1.0, 5.0], [1.0, 3.0, 5.0], 1e-12)

    @staticmethod
    def cubic(c, seen):
        """x^3 + x - c for the row constants c, with its slope and curvature, recording
        each evaluation as (row, x)."""
        def fun(x, rows):
            seen.extend(zip(rows.tolist(), x.tolist()))
            return x ** 3 + x - c[rows], 3.0 * x * x + 1.0, 6.0 * x
        return fun

    def test_root_beyond_an_end_stops_on_it(self):
        # Roots near 1.516 and -1.516 lie beyond [0, 1.5]: a row reaches the end
        # its steps cross, evaluates there once and stops on it, from inside the
        # bracket (rows 0, 1) or from the end itself (rows 2, 3).
        seen = []
        c = np.array([5.0, -5.0, 5.0, -5.0])
        root = _bracketed_newton(self.cubic(c, seen), [1.0, 1.0, 1.5, 0.0], np.zeros(4),
                                 np.full(4, 1.5), 1e-12)
        np.testing.assert_array_equal(root, [1.5, 0.0, 1.5, 0.0])
        for row, end in enumerate(root):
            assert [x for r, x in seen if r == row].count(end) == 1

    def test_bisection_fallback_converges(self):
        # Far from its root atan is flat: from 15 the step leaves the bracket and
        # goes to the end -10, from where it leaves the bracket again, so the row
        # is bisected until Halley steps take over.
        seen = []

        def atan(x, rows):
            seen.append(float(x[0]))
            return np.arctan(x), 1.0 / (1.0 + x * x), -2.0 * x / (1.0 + x * x) ** 2

        root = _bracketed_newton(atan, [15.0], [-10.0], [20.0], 1e-12)
        assert seen[:3] == [15.0, -10.0, 2.5]
        assert abs(root[0]) <= 1e-12

    def test_predicted_stop_within_tol_of_brentq(self):
        c = np.linspace(-40.0, 40.0, 81)
        seen, xtol = [], 1e-12
        root = _bracketed_newton(self.cubic(c, seen), np.zeros(c.size), np.full(c.size, -4.0),
                                 np.full(c.size, 4.0), xtol)
        expected = [brentq(lambda x: x ** 3 + x - ci, -4.0, 4.0, xtol=1e-15) for ci in c]
        np.testing.assert_array_less(np.abs(root - expected), 4.0 * EPS * np.abs(root) + xtol)
        # Most rows stop on a prediction: their last evaluation's own step is above tol.
        last = dict(seen)
        xs = np.array([last[i] for i in range(c.size)])
        g, d, curv = xs ** 3 + xs - c, 3.0 * xs * xs + 1.0, 6.0 * xs
        step = g / (d - g * curv / (2.0 * d))
        assert np.sum(np.abs(step) > 4.0 * EPS * np.abs(xs) + xtol) > c.size // 2


class TestMixtureEs:
    def test_single_component_closed_form(self):
        got = mixture_es([1.0], [(0.4, 1.5, 6.0)], 0.05)
        assert abs(got - (0.4 + 1.5 * t_es(0.05, 6.0))) < 1e-10

    def test_es_below_var(self):
        rng = np.random.default_rng(12)
        w = rng.dirichlet(np.ones(3))
        comps = [(float(rng.normal()), float(rng.uniform(0.5, 2.0)),
                  float(rng.uniform(2.5, 15.0))) for _ in range(3)]
        assert mixture_es(w, comps, 0.05) < mixture_quantile(w, comps, 0.05)

    def test_monte_carlo(self):
        rng = np.random.default_rng(13)
        w = np.array([0.2, 0.5, 0.3])
        comps = [(-0.5, 1.0, 4.0), (0.3, 0.7, 9.0), (1.0, 2.0, 25.0)]
        n = 10**7
        ks = rng.choice(3, size=n, p=w)
        draws = np.empty(n)
        for k, (m, s, nu) in enumerate(comps):
            mask = ks == k
            draws[mask] = m + s * rng.standard_t(nu, size=mask.sum())
        tau = 0.05
        q = mixture_quantile(w, comps, tau)
        tail = draws[draws <= q]
        se = tail.std(ddof=1) / np.sqrt(tail.size)
        assert abs(mixture_es(w, comps, tau) - tail.mean()) < 3 * se

    def test_requires_nu_above_one(self):
        with pytest.raises(ValueError):
            mixture_es([1.0], [(0.0, 1.0, 0.9)], 0.05)

    def test_mixture_checked_once(self, monkeypatch):
        w, comps, tau = [0.3, 0.7], [(-0.5, 1.0, 4.0), (0.3, 0.7, 9.0)], 0.05
        composed = mixture_truncated_mean(w, comps, mixture_quantile(w, comps, tau))
        calls, real = [], studentt._mixture_arrays
        monkeypatch.setattr(studentt, "_mixture_arrays",
                            lambda *args: calls.append(args) or real(*args))
        assert mixture_es(w, comps, tau) == composed
        assert len(calls) == 1

    def test_truncated_mean_no_mass(self):
        with pytest.raises(ValueError):
            mixture_truncated_mean([1.0], [(0.0, 1.0, 5.0)], -1e80)

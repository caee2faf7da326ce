import itertools
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, special, stats

from msrisk import (
    MsTModel,
    MvtParams,
    brute_force_loglik,
    brute_force_posteriors,
    decompose_sigma,
    em_fit,
    fit_restarts,
    forward_loglik,
    information_criteria,
    mvt_logpdf,
    param_count,
    sample_path,
    select_L,
    smooth,
)
from msrisk import markov
from msrisk.markov import (
    NU_MAX,
    NU_MIN,
    LikelihoodDecreaseError,
    RegimeCollapseError,
    _e_step,
    _nu_step,
    _scan_rows,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from msrisk.panel import ReturnPanel
from msrisk.simulate import SimSpec

from helpers import mvt_mahalanobis, random_model, random_mvt


# Well-separated two-regime design reused across estimation tests.
CORR = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]])
TRUE_MODEL = MsTModel(
    [
        MvtParams([0.005, 0.004, 0.006], 0.010**2 * CORR, 5.0),
        MvtParams([-0.010, -0.012, -0.008], 0.030**2 * CORR, 5.0),
    ],
    np.array([[0.95, 0.05], [0.05, 0.95]]),
    [0.5, 0.5],
)


def simulated_panel(t_len, seed):
    _, panel = sample_path(SimSpec(TRUE_MODEL, t_len, seed))
    return panel


class TestForwardLoglik:
    def test_single_state_sum_of_logpdfs(self):
        rng = np.random.default_rng(20)
        reg = random_mvt(rng, 2, nu=6.0)
        model = MsTModel([reg], np.array([[1.0]]), [1.0])
        y = rng.normal(size=(20, 2))
        assert abs(forward_loglik(model, y) - float(np.sum(mvt_logpdf(y, reg)))) < 1e-10

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, 2, 2)
        y = rng.normal(size=(5, 2))
        assert abs(forward_loglik(model, y) - brute_force_loglik(model, y)) < 1e-10

    def test_duplicated_regime_equals_single(self):
        rng = np.random.default_rng(22)
        reg = random_mvt(rng, 2, nu=5.0)
        y = rng.normal(size=(15, 2))
        one = MsTModel([reg], np.array([[1.0]]), [1.0])
        two = MsTModel([reg, reg], np.full((2, 2), 0.5), [0.5, 0.5])
        assert abs(forward_loglik(one, y) - forward_loglik(two, y)) < 1e-10

    def test_scale_shift_identity(self):
        # Scaling data and model by c shifts the loglik by -T * p * ln c.
        rng = np.random.default_rng(23)
        model = random_model(rng, 2, 2)
        y = rng.normal(size=(30, 2))
        c = 2.5
        scaled = MsTModel(
            [MvtParams(c * r.mu, c * c * r.sigma, r.nu) for r in model.regimes],
            model.transition,
            model.initial,
        )
        expected = forward_loglik(model, y) - 30 * 2 * np.log(c)
        assert abs(forward_loglik(scaled, c * y) - expected) < 1e-8

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(24)
        model = random_model(rng, 2, 3)
        with pytest.raises(ValueError, match="dimension"):
            forward_loglik(model, rng.normal(size=(10, 2)))


class TestSmooth:
    def test_single_state_all_ones(self):
        rng = np.random.default_rng(25)
        model = MsTModel([random_mvt(rng, 2, nu=6.0)], np.array([[1.0]]), [1.0])
        smoothed, pairwise, filtered = smooth(model, rng.normal(size=(12, 2)))
        np.testing.assert_allclose(smoothed, 1.0)
        np.testing.assert_allclose(filtered, 1.0)
        np.testing.assert_allclose(pairwise, 1.0)

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(26)
        model = random_model(rng, 3, 2)
        y = rng.normal(size=(5, 2))
        smoothed, pairwise, _ = smooth(model, y)
        bf_smoothed, bf_pairwise = brute_force_posteriors(model, y)
        np.testing.assert_allclose(smoothed, bf_smoothed, atol=1e-10)
        np.testing.assert_allclose(pairwise, bf_pairwise, atol=1e-10)

    def test_rows_normalize(self):
        rng = np.random.default_rng(27)
        model = random_model(rng, 3, 2)
        smoothed, pairwise, filtered = smooth(model, rng.normal(size=(40, 2)))
        np.testing.assert_allclose(smoothed.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(filtered.sum(axis=1), 1.0, atol=1e-10)
        # Pairwise marginals are consistent with the smoothed rows.
        np.testing.assert_allclose(pairwise.sum(axis=(1, 2)), 1.0, atol=1e-10)
        np.testing.assert_allclose(pairwise.sum(axis=2), smoothed[:-1], atol=1e-10)
        np.testing.assert_allclose(pairwise.sum(axis=1), smoothed[1:], atol=1e-10)

    def test_palindrome_symmetry(self):
        # Symmetric transition matrix + uniform start = reversible chain, so a
        # palindromic observation sequence yields palindromic posteriors.
        regimes = [
            MvtParams([-1.0, 0.0], np.eye(2), 5.0),
            MvtParams([1.0, 0.0], np.eye(2), 5.0),
        ]
        model = MsTModel(regimes, np.array([[0.8, 0.2], [0.2, 0.8]]), [0.5, 0.5])
        rng = np.random.default_rng(28)
        half = rng.normal(size=(6, 2))
        y = np.vstack([half, half[::-1]])
        smoothed, _, _ = smooth(model, y)
        np.testing.assert_allclose(smoothed, smoothed[::-1], atol=1e-10)


def sequential_e_step(model, y):
    """Reference forward-backward: Rabiner's scaled recursion, one step per t."""
    log_b = np.column_stack([mvt_logpdf(y, r) for r in model.regimes])
    t_len, n = log_b.shape
    shift = log_b.max(axis=1)
    b = np.exp(log_b - shift[:, None])
    q = model.transition
    alpha = np.empty((t_len, n))
    scale = np.empty(t_len)
    a = model.initial * b[0]
    for t in range(t_len):
        if t > 0:
            a = (alpha[t - 1] @ q) * b[t]
        scale[t] = a.sum()
        alpha[t] = a / scale[t]
    beta = np.ones((t_len, n))
    for t in range(t_len - 2, -1, -1):
        beta[t] = (q @ (b[t + 1] * beta[t + 1])) / scale[t + 1]
    post = alpha * beta
    pairwise = (
        alpha[:-1, :, None] * q[None] * (b[1:] * beta[1:])[:, None, :]
        / scale[1:, None, None]
    )
    loglik = float(np.sum(np.log(scale)) + np.sum(shift))
    return loglik, post / post.sum(axis=1, keepdims=True), pairwise, alpha


class TestScanRows:
    """The two-sided scan against sequential vector-matrix products."""

    @staticmethod
    def stack(rng, n_mat, L):
        # Entries spanning 30 orders of magnitude with exact zeros; a
        # positive diagonal keeps every product row non-zero.
        m = rng.uniform(size=(n_mat, L, L)) * 10.0 ** rng.uniform(-30.0, 0.0, size=(n_mat, L, L))
        m[rng.uniform(size=(n_mat, L, L)) < 0.3] = 0.0
        diag = np.arange(L)
        m[:, diag, diag] = 10.0 ** rng.uniform(-8.0, 0.0, size=(n_mat, L))
        return m

    @pytest.mark.parametrize("L", [1, 2, 3, 6])
    @pytest.mark.parametrize("n_mat", [0, 1, 2, 3, 4, 5, 8, 9, 1024, 1025])
    def test_matches_sequential_products(self, L, n_mat):
        rng = np.random.default_rng(100 * L + n_mat)
        m = self.stack(rng, n_mat, L)
        seed = 10.0 ** rng.uniform(-5.0, 5.0, size=L)
        if L > 1:
            seed[0] = 0.0
        rows, log_scale, cols = _scan_rows(seed, m)
        assert rows.shape == (n_mat + 1, L) and log_scale.shape == (n_mat + 1,)
        row, log_total = seed, 0.0
        for t in range(n_mat + 1):
            if t > 0:
                row = row @ m[t - 1]
            total = row.sum()
            row = row / total
            log_total += np.log(total)
            np.testing.assert_allclose(rows[t], row, rtol=0, atol=1e-10)
            assert abs(log_scale[t] - log_total) <= 1e-10 * max(1.0, abs(log_total))
        assert cols.shape == (n_mat + 1, L)
        col = np.ones(L)
        for t in range(n_mat, -1, -1):
            if t < n_mat:
                col = m[t] @ col
            col = col / col.sum()
            np.testing.assert_allclose(cols[t], col, rtol=0, atol=1e-10)


class TestScanOracle:
    """The prefix-product E-step against the sequential scaled recursion."""

    @staticmethod
    def sparse_model(rng, L):
        # Heavy-tailed regimes and a chain with exact zero transitions
        # (every state keeps a positive self-transition, so it stays feasible).
        regimes = [random_mvt(rng, 2, nu=float(rng.uniform(2.1, 4.0))) for _ in range(L)]
        q = rng.uniform(0.1, 1.0, size=(L, L))
        q[rng.uniform(size=(L, L)) < 0.4] = 0.0
        q[-1, 0] = 0.0
        np.fill_diagonal(q, rng.uniform(0.5, 1.0, size=L))
        q /= q.sum(axis=1, keepdims=True)
        delta = rng.uniform(size=L)
        delta[0] = 0.0 if L > 1 else 1.0
        return MsTModel(regimes, q, delta / delta.sum())

    @pytest.mark.parametrize("L", [1, 2, 3, 6])
    # 4, 5, 8, 9, 1024 and 1025 sit on the odd-even scan's halving boundaries.
    @pytest.mark.parametrize("t_len", [1, 2, 3, 4, 5, 7, 8, 9, 513, 1024, 1025, 3001])
    def test_matches_sequential_recursion(self, L, t_len):
        rng = np.random.default_rng(1000 * L + t_len)
        model = self.sparse_model(rng, L)
        if L > 1:
            assert np.any(model.transition == 0.0)
        # Cauchy-scale draws: far outliers make the emissions span many
        # orders of magnitude within a row.
        y = 3.0 * rng.standard_t(1.0, size=(t_len, 2))
        loglik, smoothed, counts, filtered, _ = _e_step(markov._stack(model), y)
        ref = sequential_e_step(model, y)
        _, pairwise, _ = smooth(model, y)
        assert pairwise.shape == (t_len - 1, L, L)
        assert abs(loglik - ref[0]) <= 1e-10 * max(1.0, abs(ref[0]))
        np.testing.assert_allclose(smoothed, ref[1], rtol=0, atol=1e-10)
        np.testing.assert_allclose(pairwise, ref[2], rtol=0, atol=1e-10)
        np.testing.assert_allclose(counts, ref[2].sum(axis=0), rtol=0, atol=1e-10 * t_len)
        np.testing.assert_allclose(filtered, ref[3], rtol=0, atol=1e-10)
        assert forward_loglik(model, y) == loglik


class TestEmFit:
    def test_simulation_recovery(self):
        panel = simulated_panel(1500, seed=100)
        fit = fit_restarts(panel, 2, n_restarts=3, seed=0)
        assert fit.converged
        for est, true in zip(fit.model.regimes, TRUE_MODEL.regimes):
            np.testing.assert_allclose(
                est.mu, true.mu, atol=0.1 * np.sqrt(np.diag(true.sigma)).max()
            )
            assert abs(est.nu - true.nu) < 0.3 * true.nu
        np.testing.assert_allclose(
            fit.model.transition, TRUE_MODEL.transition, atol=0.05
        )

    def test_monotone_loglik_path(self):
        panel = simulated_panel(400, seed=101)
        fit = em_fit(panel, 2)
        assert np.all(np.diff(fit.loglik_path) >= -1e-8 * (1 + np.abs(fit.loglik)))
        assert fit.loglik == fit.loglik_path[-1]

    def test_single_state_matches_direct_mle(self):
        # Direct-optimizer oracle: unconstrained MLE over (mu, chol, nu).
        rng = np.random.default_rng(29)
        nu_true = 6.0
        chol = np.array([[1.0, 0.0], [0.6, 0.8]])
        w = rng.gamma(nu_true / 2.0, 2.0 / nu_true, size=400)
        y = (rng.standard_normal((400, 2)) @ chol.T) / np.sqrt(w)[:, None]

        def unpack(theta):
            mu = theta[:2]
            low = np.array([[np.exp(theta[2]), 0.0], [theta[3], np.exp(theta[4])]])
            nu = 2.1 + np.exp(theta[5])
            return mu, low @ low.T, nu

        def negll(theta):
            mu, sigma, nu = unpack(theta)
            try:
                return -float(np.sum(mvt_logpdf(y, MvtParams(mu, sigma, nu))))
            except (ValueError, np.linalg.LinAlgError):
                return 1e12

        x0 = np.array([*y.mean(axis=0), 0.0, 0.5, 0.0, np.log(8.0 - 2.1)])
        res = optimize.minimize(
            negll, x0, method="Nelder-Mead",
            options={"maxiter": 20000, "fatol": 1e-12, "xatol": 1e-10},
        )
        fit = em_fit(y, 1, tol=1e-13, max_iter=5000)
        assert abs(fit.loglik - (-res.fun)) < 1e-6

    def test_loop_builds_no_model_objects(self, monkeypatch):
        # MvtParams and MsTModel are checked at the result, never per iteration.
        counts = []
        for cls in (MvtParams, MsTModel):
            def counted(self, real=cls.__post_init__, name=cls.__name__):
                counts.append(name)
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        y = simulated_panel(400, seed=116).returns
        built = {}
        for k in (5, 20):
            counts.clear()
            assert em_fit(y, 2, tol=1e-300, max_iter=k).iterations == k
            built[k] = sorted(counts)
        assert built[5] == built[20]

    def test_label_symmetry_across_inits(self):
        panel = simulated_panel(600, seed=102)
        lls = [
            em_fit(panel, 2, init="random", seed=s, tol=1e-12).loglik
            for s in (1, 2)
        ]
        assert abs(lls[0] - lls[1]) < 1e-6

    def test_relabeling_order(self):
        panel = simulated_panel(600, seed=103)
        fit = em_fit(panel, 2)
        means = [r.mu[0] for r in fit.model.regimes]
        assert means == sorted(means, reverse=True)

    def test_short_panel_guard(self):
        panel = simulated_panel(20, seed=104)
        with pytest.raises(ValueError, match="guard"):
            em_fit(panel, 2)

    def test_bad_arguments(self):
        panel = simulated_panel(100, seed=105)
        with pytest.raises(ValueError):
            em_fit(panel, 0)
        with pytest.raises(ValueError):
            em_fit(panel, 2, tol=-1.0)

    def test_constant_series_named(self):
        panel = simulated_panel(100, seed=111)
        y = panel.returns.copy()
        y[:, 1] = 0.01
        flat = ReturnPanel(panel.dates, panel.names, y)
        for fit in (em_fit, fit_restarts):
            with pytest.raises(ValueError, match="series 's2' is constant"):
                fit(flat, 2)
            with pytest.raises(ValueError, match="column 1 is constant"):
                fit(y, 2)

    def test_near_constant_series_is_a_collapse(self):
        # Constant but for its first row: Sigma's smallest eigenvalue falls
        # towards 0 along column 1 while the log-likelihood rises, until the
        # M-step passes condition number 1e12 and names the collapse.
        y = np.random.default_rng(0).normal(size=(120, 2))
        y[1:, 1] = 0.5
        with pytest.raises(RegimeCollapseError, match=r"^regime 0 .* column 1$"):
            em_fit(y, 1)
        with pytest.raises(RuntimeError, match=r"^all 1 restarts failed: regime 0 .* column 1$"):
            fit_restarts(y, 1)
        with pytest.raises(RuntimeError) as info:
            select_L(y, [1, 2], n_restarts=1)
        message = str(info.value)
        assert message.startswith("every candidate L failed to fit (L=1: all 1 restarts failed")
        assert "; L=2: all 1 restarts failed: regime" in message


class TestMetamorphicFit:
    """Fits of transformed panels from the deterministic PCA start, to 1e-8 relative."""

    @staticmethod
    def assert_close(got, want):
        want = np.asarray(want, dtype=float)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8 * np.max(np.abs(want)))

    @pytest.mark.parametrize("shift, c", [([0.3, -1.0, 2.0], 3.0), ([-0.01, 0.02, 0.0], 0.25)])
    def test_shift_and_scale(self, shift, c):
        # Percent returns, so the start's absolute 1e-10 ridge is negligible
        # against every variance.
        y = 100.0 * simulated_panel(600, seed=112).returns
        a = np.array(shift)
        # The stopping rule's 1 + |loglik| term moves with the log-likelihood,
        # so both fits run the same fixed number of ECM iterations.
        base = em_fit(y, 2, tol=1e-300, max_iter=30)
        fit = em_fit(a + c * y, 2, tol=1e-300, max_iter=30)
        assert fit.iterations == base.iterations == 30
        t_len, p = y.shape
        for got, want in zip(fit.model.regimes, base.model.regimes, strict=True):
            self.assert_close(got.mu, a + c * want.mu)
            self.assert_close(got.sigma, c * c * want.sigma)
            self.assert_close(got.nu, want.nu)
        self.assert_close(fit.model.transition, base.model.transition)
        self.assert_close(fit.model.initial, base.model.initial)
        self.assert_close(fit.smoothed, base.smoothed)
        self.assert_close(fit.loglik, base.loglik - t_len * p * np.log(c))

    def test_series_permutation(self):
        # The regimes rank the first and the last series in opposite orders,
        # so moving the last series first reverses the fitted state order.
        corr = 0.010**2 * CORR
        model = MsTModel(
            [
                MvtParams([0.004, 0.0, -0.010], corr, 5.0),
                MvtParams([-0.010, 0.0, 0.004], 9.0 * corr, 5.0),
            ],
            np.array([[0.95, 0.05], [0.05, 0.95]]),
            [0.5, 0.5],
        )
        _, panel = sample_path(SimSpec(model, 600, 113))
        y = 100.0 * panel.returns
        perm = [2, 0, 1]
        base = em_fit(y, 2)
        fit = em_fit(y[:, perm], 2)
        assert fit.iterations == base.iterations
        self.assert_close(fit.loglik, base.loglik)
        # order[l] is the permuted fit's state that matches the base's state l
        order = min(
            itertools.permutations(range(2)),
            key=lambda o: sum(
                np.abs(fit.model.regimes[k].mu - base.model.regimes[l].mu[perm]).sum()
                for l, k in enumerate(o)
            ),
        )
        assert order == (1, 0)
        for l, k in enumerate(order):
            got, want = fit.model.regimes[k], base.model.regimes[l]
            self.assert_close(got.mu, want.mu[perm])
            self.assert_close(got.sigma, want.sigma[np.ix_(perm, perm)])
            self.assert_close(got.nu, want.nu)
        self.assert_close(fit.model.transition[np.ix_(order, order)], base.model.transition)
        self.assert_close(fit.model.initial[list(order)], base.model.initial)
        self.assert_close(fit.smoothed[:, order], base.smoothed)


class TestNuStep:
    """The nu step of the second CM cycle against brentq on the marginal t score."""

    @staticmethod
    def score(nu, maha, w, p):
        # d/dnu of sum_t w_t log t_p(y_t; mu, sigma, nu) at Mahalanobis forms maha
        log_kernel = -0.5 * np.log1p(maha / nu) + 0.5 * (nu + p) * maha / (nu * (nu + maha))
        return (
            0.5 * special.digamma(0.5 * (nu + p)) - 0.5 * special.digamma(0.5 * nu)
            - 0.5 * p / nu + np.sum(w * log_kernel)
        )

    @classmethod
    def brentq_nu(cls, maha, w, p):
        if cls.score(NU_MIN, maha, w, p) <= 0.0:
            return NU_MIN
        if cls.score(NU_MAX, maha, w, p) >= 0.0:
            return NU_MAX
        return optimize.brentq(cls.score, NU_MIN, NU_MAX, args=(maha, w, p), xtol=1e-10)

    @staticmethod
    def regimes(rng, p, t_len=400):
        """Panels y (K x T x p) and scales c with mu = 0, sigma = c I: t draws of
        several degrees of freedom and Gaussian draws, each under three scales."""
        panels, scales = [], []
        for df in (1.0, 1.5, 3.0, 6.0, 12.0, np.inf):
            z = rng.standard_normal((t_len, p))
            if np.isfinite(df):
                z /= np.sqrt(rng.chisquare(df, size=(t_len, 1)) / df)
            for c in (0.5, 1.0, 2.0):
                panels.append(z)
                scales.append(c)
        return np.array(panels), np.array(scales)

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_matches_brentq(self, p):
        rng = np.random.default_rng(140 + p)
        y, c = self.regimes(rng, p)
        maha = np.sum(y * y, axis=2) / c[:, None]
        gam = rng.uniform(size=maha.shape)
        nu_old = np.exp(rng.uniform(np.log(NU_MIN), np.log(NU_MAX), len(c)))
        nu = _nu_step(maha, (gam / gam.sum(axis=1, keepdims=True))[:, :, None], nu_old, p)
        for k in range(len(c)):
            w = gam[k] / gam[k].sum()
            root = self.brentq_nu(maha[k], w, p)
            # A rounding error e in either score moves a root by e / |s'|, which
            # passes 2e-10 with e ~ 1e-16 only where the score is flat (nu >~ 50).
            slope = (self.score(root + 1e-3, maha[k], w, p)
                     - self.score(root - 1e-3, maha[k], w, p)) / 2e-3
            assert abs(nu[k] - root) <= 2e-10 + 1e-15 / abs(slope)
            # The weighted marginal log-likelihood is maximal at the step's nu,
            # up to the rounding of a sum of T log-densities.
            dist = lambda df: stats.multivariate_t(np.zeros(p), c[k] * np.eye(p), df=df)
            best = gam[k] @ dist(nu[k]).logpdf(y[k])
            for other in (nu[k] - 1e-3, nu[k] + 1e-3, nu_old[k]):
                if NU_MIN <= other <= NU_MAX:
                    assert best >= gam[k] @ dist(other).logpdf(y[k]) - 1e-12 * abs(best)
        assert np.any(nu == NU_MIN) and np.any(nu == NU_MAX)
        assert np.sum((nu > NU_MIN) & (nu < NU_MAX)) >= 6

    def test_cli_import_skips_scipy_optimize(self):
        # scipy.optimize costs a noticeable share of every CLI start-up.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, msrisk.cli; sys.exit('scipy.optimize' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]


class TestAecmMonotone:
    """Both CM cycles raise the expected log-likelihood, so no EM step lowers the likelihood."""

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_loglik_never_falls(self, L):
        for seed in range(4):
            panel = simulated_panel(300, seed=150 + seed)
            for init in ("pca", "random"):
                # A fall beyond the 1e-8 slack would raise LikelihoodDecreaseError.
                fit = em_fit(panel, L, init=init, seed=seed)
                path = fit.loglik_path
                assert fit.converged
                assert np.all(np.diff(path) >= -1e-12 * np.abs(path[1:]))


class TestMStepRidge:
    """The M-step's conditioning check.  The M-step adds no ridge: a sigma
    within condition number 1e12 is the weighted moment as computed, and
    one past it raises RegimeCollapseError."""

    @staticmethod
    def weighted_sigma(y, reg):
        p = y.shape[1]
        u = (reg.nu + p) / (reg.nu + mvt_mahalanobis(y, reg))
        dev = y - (u @ y) / u.sum()
        sigma = (u[:, None] * dev).T @ dev / len(y)
        return 0.5 * (sigma + sigma.T)

    @staticmethod
    def m_step(y, reg):
        model = MsTModel([reg], np.array([[1.0]]), [1.0])
        maha = mvt_mahalanobis(y, reg)[:, None]
        return markov._m_step(
            y, markov._stack(model), np.ones((len(y), 1)), np.array([[len(y) - 1.0]]), maha
        )

    @staticmethod
    def collinear_panel(noise):
        rng = np.random.default_rng(141)
        x = rng.standard_t(5.0, size=300)
        return np.column_stack([x, x + noise * rng.normal(size=300)])

    @pytest.mark.parametrize("noise", [1.0])
    def test_near_collinear_sigma_gets_ridge(self, noise):
        y = self.collinear_panel(noise)
        reg = MvtParams([0.0, 0.0], np.eye(2), 8.0)
        new = self.m_step(y, reg)
        sigma = self.weighted_sigma(y, reg)
        assert np.linalg.cond(sigma) <= 1e12
        np.testing.assert_allclose(new.sigma[0], sigma, rtol=1e-12, atol=0.0)

    def test_near_collinear_sigma_is_a_collapse(self):
        # The weighted sigma of x and x + 1e-9 noise has a condition number
        # above 1e12; the M-step names the regime and the column that the
        # collapsing direction loads on instead of adding a ridge.
        y = self.collinear_panel(1e-9)
        reg = MvtParams([0.0, 0.0], np.eye(2), 8.0)
        assert np.linalg.cond(self.weighted_sigma(y, reg)) > 1e12
        with pytest.raises(RegimeCollapseError, match=r"^regime 0 collapsed .* column [01]$"):
            self.m_step(y, reg)

    def test_collapse_names_the_regime_and_flat_column(self):
        # Regime 1 holds rows 20-39, where the third series is constant.
        y = np.random.default_rng(142).normal(size=(40, 3))
        y[20:, 2] = 0.25
        reg = MvtParams(np.zeros(3), np.eye(3), 8.0)
        model = MsTModel([reg, reg], np.full((2, 2), 0.5), [0.5, 0.5])
        smoothed = np.repeat(np.eye(2), 20, axis=0)
        maha = np.repeat(mvt_mahalanobis(y, reg)[:, None], 2, axis=1)
        with pytest.raises(RegimeCollapseError, match=r"^regime 1 .* column 2$"):
            markov._m_step(y, markov._stack(model), smoothed, np.full((2, 2), 9.75), maha)


class TestRawArrayValidation:
    """Raw arrays skip ReturnPanel, so the markov entry points check them."""

    def entry_points(self):
        model = random_model(np.random.default_rng(107), 2, 2)
        return [
            lambda y: em_fit(y, 2),
            lambda y: forward_loglik(model, y),
            lambda y: smooth(model, y),
        ]

    def test_non_finite_cell_named(self):
        y = np.random.default_rng(108).normal(size=(60, 2))
        y[17, 1] = np.nan
        for call in self.entry_points():
            with pytest.raises(ValueError, match="row 17, column 1"):
                call(y)
        y[17, 1] = np.inf
        y[3, 0] = -np.inf
        for call in self.entry_points():
            with pytest.raises(ValueError, match="finite.*row 3, column 0"):
                call(y)

    def test_non_2d_rejected(self):
        for bad in (np.zeros(60), np.zeros((60, 2, 1))):
            for call in self.entry_points():
                with pytest.raises(ValueError, match="T x p"):
                    call(bad)


class TestFitRestarts:
    def test_single_restart_is_em_fit(self):
        panel = simulated_panel(300, seed=106)
        a = fit_restarts(panel, 2, n_restarts=1, seed=0)
        b = em_fit(panel, 2, init="pca", seed=0)
        assert a.loglik == b.loglik
        np.testing.assert_array_equal(a.model.transition, b.model.transition)

    def test_more_restarts_never_worse(self):
        panel = simulated_panel(300, seed=107)
        lls = [
            fit_restarts(panel, 2, n_restarts=n, seed=0).loglik for n in (1, 2, 4)
        ]
        assert lls[0] <= lls[1] + 1e-12 and lls[1] <= lls[2] + 1e-12

    def test_decreasing_loglik_raises(self, monkeypatch):
        panel = simulated_panel(300, seed=109)
        real, calls = markov._e_step, []

        def falling(model, y):
            calls.append(None)
            loglik, *rest = real(model, y)
            return (loglik - 1e6 * (len(calls) == 2), *rest)

        monkeypatch.setattr(markov, "_e_step", falling)
        with pytest.raises(LikelihoodDecreaseError, match="decreased at iteration 1"):
            em_fit(panel, 2)

    def test_decreasing_start_is_skipped(self, monkeypatch):
        panel = simulated_panel(300, seed=110)
        real, seeds, fits = markov.em_fit, [], {}

        def second_start_fails(panel, L, *, seed, **kwargs):
            seeds.append(seed)
            if seed == 1:
                raise LikelihoodDecreaseError("log-likelihood decreased")
            fits[seed] = real(panel, L, seed=seed, **kwargs)
            return fits[seed]

        monkeypatch.setattr(markov, "em_fit", second_start_fails)
        best = fit_restarts(panel, 2, n_restarts=4, seed=0)
        assert seeds == [0, 1, 2, 3]
        assert best.loglik == max(f.loglik for f in fits.values())
        assert any(best is f for f in fits.values())

    def test_linalg_error_start_is_skipped(self, monkeypatch):
        panel = simulated_panel(300, seed=110)
        real, seeds = markov.em_fit, []

        def second_start_fails(panel, L, *, seed, **kwargs):
            seeds.append(seed)
            if seed == 1:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return real(panel, L, seed=seed, **kwargs)

        monkeypatch.setattr(markov, "em_fit", second_start_fails)
        best = fit_restarts(panel, 2, n_restarts=3, seed=0)
        assert seeds == [0, 1, 2]
        assert best.loglik == max(real(panel, 2, init=init, seed=s).loglik
                                  for init, s in (("pca", 0), ("random", 2)))

    def test_bug_in_a_start_propagates(self, monkeypatch):
        # Only estimation failures skip a start; any other error is a fault.
        def bug(*args):
            raise ValueError("bug")

        monkeypatch.setattr(markov, "_m_step", bug)
        with pytest.raises(ValueError, match="^bug$"):
            fit_restarts(simulated_panel(300, seed=110), 2, n_restarts=3)

    def test_argument_errors_raised_before_any_start(self, monkeypatch):
        starts = []
        monkeypatch.setattr(markov, "em_fit", lambda *a, **kw: starts.append(a))
        panel = simulated_panel(300, seed=108)
        with pytest.raises(ValueError, match="^L must be >= 1$"):
            fit_restarts(panel, 0, n_restarts=3)
        with pytest.raises(ValueError, match="^fitting guard: T=20 < 10 p=30$"):
            fit_restarts(simulated_panel(20, seed=108), 2, n_restarts=3)
        assert starts == []

    def test_restart_count_guard(self):
        with pytest.raises(ValueError):
            fit_restarts(simulated_panel(300, seed=108), 2, n_restarts=0)


# Every EM entry point that takes tol and max_iter, called with two states;
# fit_restarts and select_L run each start at em_fit's defaults.
FIT_ENTRY_POINTS = {
    "em_fit": lambda panel, **kw: em_fit(panel, 2, **kw),
}


class TestFitArguments:
    """tol, max_iter, the state count, n_restarts and seed are checked before any E-step runs."""

    @pytest.fixture
    def no_e_step(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an E-step ran before the arguments were checked")

        monkeypatch.setattr(markov, "_e_step", fail)

    @pytest.mark.parametrize("entry", sorted(FIT_ENTRY_POINTS))
    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
    def test_tol_must_be_positive(self, entry, tol, no_e_step):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            FIT_ENTRY_POINTS[entry](simulated_panel(300, seed=116), tol=tol)

    @pytest.mark.parametrize("entry", sorted(FIT_ENTRY_POINTS))
    def test_negative_max_iter_rejected(self, entry, no_e_step):
        with pytest.raises(ValueError, match="^max_iter must be >= 0$"):
            FIT_ENTRY_POINTS[entry](simulated_panel(300, seed=116), max_iter=-5)

    def test_zero_max_iter_returns_the_start(self):
        fit = em_fit(simulated_panel(300, seed=116), 2, max_iter=0)
        assert fit.iterations == 0 and not fit.converged
        assert fit.loglik_path.shape == (1,) and fit.loglik_path[0] == fit.loglik

    # p=3 and T=40: the M-step's p + 2 observations per regime allow L <= 8.
    @pytest.mark.parametrize("call", [
        lambda panel: em_fit(panel, 9),
        lambda panel: em_fit(panel, 9, init="random", seed=0),
        lambda panel: fit_restarts(panel, 9, n_restarts=2),
        lambda panel: select_L(panel, [2, 9], n_restarts=1),
        lambda panel: select_L(panel, range(1, 10), n_restarts=1),
    ], ids=["em_fit", "em_fit-random", "fit_restarts", "select_L-max", "select_L-range"])
    def test_state_count_the_panel_cannot_hold(self, call, no_e_step):
        with pytest.raises(ValueError, match=r"^L=9 states with p=3 series need "
                                             r"T >= L \(p \+ 2\) = 45 observations, got T=40$"):
            call(simulated_panel(40, seed=117))

    @pytest.mark.parametrize("call, message", [
        (lambda panel: em_fit(panel, 2.5), "L must be an integer, got 2.5"),
        (lambda panel: fit_restarts(panel, 2.0), "L must be an integer, got 2.0"),
        (lambda panel: fit_restarts(panel, 2, n_restarts=2.5),
         "n_restarts must be an integer, got 2.5"),
        (lambda panel: select_L(panel, [2, 2.5]), "L must be an integer, got 2.5"),
        (lambda panel: select_L(panel, [1, 2.5, 3], n_restarts=1),
         "L must be an integer, got 2.5"),
        (lambda panel: select_L(panel, [2], n_restarts=1.0),
         "n_restarts must be an integer, got 1.0"),
        (lambda panel: em_fit(panel, 2, init="random", seed=-1), "seed must be >= 0"),
        (lambda panel: em_fit(panel, 2, init="random", seed=0.5),
         "seed must be an integer, got 0.5"),
        (lambda panel: fit_restarts(panel, 2, n_restarts=3, seed=-5), "seed must be >= 0"),
        (lambda panel: fit_restarts(panel, 2, n_restarts=2, seed=-1), "seed must be >= 0"),
        (lambda panel: select_L(panel, [1, 2], n_restarts=1, seed=-1), "seed must be >= 0"),
    ], ids=["em_fit-L", "fit_restarts-L", "fit_restarts-n_restarts", "select_L-max",
            "select_L-middle", "select_L-n_restarts", "em_fit-seed", "em_fit-float-seed",
            "fit_restarts-seed", "fit_restarts-seed-first-unused", "select_L-seed"])
    def test_bad_integer_named_before_any_start(self, call, message, no_e_step):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(simulated_panel(300, seed=116))

    @pytest.mark.parametrize("call, message", [
        (lambda panel: em_fit(panel, 2, init="kmeans"), "unknown init 'kmeans'"),
        (lambda panel: select_L(panel, [2], criterion="hqc"), "criterion must be 'aic' or 'bic'"),
    ], ids=["em_fit-init", "select_L-criterion"])
    def test_unknown_choice_named_before_any_start(self, call, message, no_e_step):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(simulated_panel(300, seed=116))

    def test_state_count_at_the_bound_is_fitted(self, no_e_step):
        with pytest.raises(AssertionError, match="an E-step ran"):
            em_fit(simulated_panel(40, seed=117), 8)


class TestInformationCriteria:
    def test_param_count_table(self):
        assert [param_count(L, 4) for L in range(2, 7)] == [33, 53, 75, 99, 125]

    def test_frozen_rows(self):
        aic, _ = information_criteria(11969.138, param_count(4, 4), 1044)
        assert abs(aic - (-23788.276)) < 1e-9
        aic, _ = information_criteria(11889.544, param_count(2, 4), 1044)
        assert abs(aic - (-23713.088)) < 1e-9

    def test_zero_params(self):
        aic, bic = information_criteria(-10.0, 0, 100)
        assert aic == 20.0 and bic == 20.0

    def test_small_sample_warning(self):
        with pytest.warns(UserWarning, match="parameter count"):
            information_criteria(0.0, 50, 40)


class TestSelectL:
    def test_recovers_state_count(self):
        hits = 0
        for seed in (110, 111, 112):
            panel = simulated_panel(500, seed=seed)
            table = select_L(panel, [1, 2, 3], n_restarts=2, seed=0)
            hits += table.chosen == 2
        assert hits >= 2

    def test_single_candidate(self):
        table = select_L(simulated_panel(300, seed=113), [2], n_restarts=1)
        assert table.chosen == 2 and len(table.rows) == 1

    def test_empty_range(self):
        with pytest.raises(ValueError):
            select_L(simulated_panel(300, seed=114), [])

    def test_data_checked_once_before_sweep(self, monkeypatch):
        fits = []
        monkeypatch.setattr(markov, "fit_restarts", lambda *a, **kw: fits.append(a))
        y = np.random.default_rng(115).normal(size=(100, 2))
        y[:, 1] = 0.25
        with pytest.raises(ValueError, match="^column 1 is constant"):
            select_L(y, [1, 2])
        with pytest.raises(ValueError, match="^fitting guard: T=15 < 10 p=20$"):
            select_L(y[:15, :], [1, 2])
        with pytest.raises(ValueError, match="^L must be >= 1$"):
            select_L(simulated_panel(300, seed=115), [0, 1])
        assert fits == []

    def test_small_sample_warns_once_per_fitted_l(self):
        # p=3: k=10 for L=1 and k=38 for L=3, against T=36.
        panel = simulated_panel(36, seed=120)
        for call in (
            lambda: select_L(panel, [1, 3], n_restarts=2),
            lambda: fit_restarts(panel, 3, n_restarts=2),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [str(w.message) for w in caught] == [
                "sample size T=36 does not exceed parameter count k=38"
            ]


class TestDecomposeSigma:
    def test_identity(self):
        lam, omega = decompose_sigma(np.eye(3))
        np.testing.assert_allclose(lam, np.eye(3))
        np.testing.assert_allclose(omega, np.eye(3))

    def test_unit_correlation_diagonal(self):
        rng = np.random.default_rng(30)
        _, omega = decompose_sigma(random_mvt(rng, 4, nu=5.0).sigma)
        np.testing.assert_allclose(np.diag(omega), 1.0, atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        sigma = random_mvt(rng, 4, nu=5.0).sigma
        lam, omega = decompose_sigma(sigma)
        np.testing.assert_allclose(lam @ omega @ lam, sigma, atol=1e-12)


class TestSerialization:
    def test_round_trip_bit_stable(self, tmp_path):
        rng = np.random.default_rng(32)
        model = random_model(rng, 3, 2)
        path = tmp_path / "model.json"
        save_model(path, model, labels=["x", "y"], loglik=-12.5, t_len=100)
        loaded, meta = load_model(path)
        for a, b in zip(loaded.regimes, model.regimes):
            np.testing.assert_array_equal(a.mu, b.mu)
            np.testing.assert_array_equal(a.sigma, b.sigma)
            assert a.nu == b.nu
        np.testing.assert_array_equal(loaded.transition, model.transition)
        np.testing.assert_array_equal(loaded.initial, model.initial)
        assert meta["labels"] == ["x", "y"]
        assert meta["loglik"] == -12.5 and meta["T"] == 100

    @pytest.mark.parametrize("content, reason", [
        (b"date,a\n2000-01-07,0.1\n", "Expecting value: line 1 column 1 (char 0)"),
        (b"\x1f\x8b\x08\x00", "'utf-8' codec can't decode byte 0x8b in position 1: "
                              "invalid start byte"),
    ])
    def test_load_model_names_a_file_that_is_not_json(self, tmp_path, content, reason):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"model file {path} is not valid JSON: {reason}"

    def test_dict_schema_fields(self):
        rng = np.random.default_rng(33)
        model = random_model(rng, 2, 3)
        doc = model_to_dict(model)
        assert doc["schema"] == "msrisk/1"
        assert doc["L"] == 2 and doc["p"] == 3
        assert doc["k"] == param_count(2, 3)
        rebuilt, _ = model_from_dict(doc)
        np.testing.assert_array_equal(rebuilt.transition, model.transition)


class TestModelValidation:
    def test_rejects_nonstochastic_rows(self):
        rng = np.random.default_rng(34)
        reg = random_mvt(rng, 2, nu=5.0)
        with pytest.raises(ValueError, match="sum to 1"):
            MsTModel([reg, reg], np.array([[0.9, 0.2], [0.1, 0.9]]), [0.5, 0.5])

    def test_rejects_low_nu(self):
        reg = MvtParams([0.0, 0.0], np.eye(2), 2.0)
        with pytest.raises(ValueError, match="nu"):
            MsTModel([reg], np.array([[1.0]]), [1.0])

    @pytest.mark.parametrize("dims, q, delta, message", [
        ((), [[1.0]], [1.0], "at least one regime required"),
        ((2, 3), np.full((2, 2), 0.5), [0.5, 0.5], "regimes disagree in dimension"),
        ((2, 2), [[1.0]], [0.5, 0.5], "transition matrix must be 2x2"),
        ((2, 2), np.full((2, 3), 1 / 3), [0.5, 0.5], "transition matrix must be 2x2"),
        ((2, 2), np.full((2, 2), 0.5), [1.0], "initial distribution must hold 2 probabilities"),
        ((2,), [[1.0]], [[1.0]], "initial distribution must hold 1 probabilities"),
    ])
    def test_rejects_bad_shapes(self, dims, q, delta, message):
        regimes = [MvtParams(np.zeros(k), np.eye(k), 5.0) for k in dims]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MsTModel(regimes, q, delta)

    @pytest.mark.parametrize("q, delta, field", [
        ([[np.nan, 0.5], [0.5, 0.5]], [0.5, 0.5], "transition matrix Q"),
        ([[0.5, 0.5], [0.5, 0.5]], [np.nan, 0.5], "initial distribution delta"),
        ([[0.5, 0.5], [0.5, 0.5]], [np.inf, 0.5], "initial distribution delta"),
    ])
    def test_rejects_non_finite(self, q, delta, field):
        reg = MvtParams([0.0, 0.0], np.eye(2), 5.0)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MsTModel([reg, reg], np.array(q), delta)

"""Acceptance gate: nine oracle-backed criteria at fixed tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s, or in
captured output) and asserts both the numeric tolerance and the runtime
budget.
"""

import itertools
import time

import numpy as np
from scipy import integrate, stats

from msrisk import (
    CharacteristicMap,
    MsTModel,
    MvtParams,
    PredictiveMixture,
    attribution_series,
    brute_force_loglik,
    brute_force_posteriors,
    characteristic_values,
    delta_m_coes,
    delta_m_covar,
    fit_restarts,
    forward_loglik,
    grid_conditional_quantile,
    information_criteria,
    marginal_es,
    marginal_var,
    marginalize_fit,
    mixture_es,
    mixture_quantile,
    multiple_coes,
    multiple_covar,
    param_count,
    sample_path,
    shapley,
    smooth,
    standard_pairwise_delta,
    t_es,
)
from msrisk.corisk import RiskQuery, conditional_mixture
from msrisk.markov import FitResult
from msrisk.simulate import SimSpec

from helpers import (
    fit_from_model,
    random_mixture,
    random_model,
    scale_mixture,
    shift_mixture,
)


def report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_aic_identity_table2():
    """AIC identity against the five frozen (L, loglik, AIC) rows, p=4."""
    rows = [
        (2, 11889.544, -23713.088),
        (3, 11713.089, -23320.177),
        (4, 11969.138, -23788.276),
        (5, 11946.912, -23695.824),
        (6, 11973.013, -23696.025),
    ]
    expected_k = [33, 53, 75, 99, 125]
    information_criteria(0.0, 1, 100)  # warm up before timing
    start = time.perf_counter()
    ks = [param_count(L, 4) for L, _, _ in rows]
    errs = [
        abs(information_criteria(ll, k, 1000)[0] - aic)
        for (_, ll, aic), k in zip(rows, ks)
    ]
    elapsed = time.perf_counter() - start
    # Two table rows round loglik and AIC independently, leaving a gap of
    # exactly 0.001; the inclusive bound absorbs its float representation.
    ok = ks == expected_k and max(errs) <= 1e-3 + 1e-9 and elapsed < 1e-3
    report(ok, f"criterion 1: AIC identity, max err {max(errs):.2e}, "
               f"{elapsed * 1e3:.3f} ms")


def test_criterion_2_forward_smoothing_oracle():
    """forward_loglik / smooth vs path enumeration on 50 random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(50):
        L = int(rng.choice([2, 3]))
        p = int(rng.choice([1, 2]))
        model = random_model(rng, L, p)
        y = rng.normal(size=(5, p))
        worst = max(worst, abs(forward_loglik(model, y) - brute_force_loglik(model, y)))
        smoothed, pairwise, _ = smooth(model, y)
        bf_smoothed, bf_pairwise = brute_force_posteriors(model, y)
        worst = max(worst, float(np.max(np.abs(smoothed - bf_smoothed))))
        worst = max(worst, float(np.max(np.abs(pairwise - bf_pairwise))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(ok, f"criterion 2: forward/smoothing oracle, max err {worst:.2e}, "
               f"{elapsed:.1f} s")


def test_criterion_3_em_recovery():
    """Parameter recovery on 20 seeded panels from a frozen L=2, p=3 model."""
    start = time.perf_counter()
    corr = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]])
    truth = MsTModel(
        [
            MvtParams([0.005, 0.004, 0.006], 0.010**2 * corr, 5.0),
            MvtParams([-0.010, -0.012, -0.008], 0.030**2 * corr, 5.0),
        ],
        np.array([[0.95, 0.05], [0.05, 0.95]]),
        [0.5, 0.5],
    )
    successes = 0
    for rep in range(20):
        _, panel = sample_path(SimSpec(truth, 2000, 100 + rep))
        fit = fit_restarts(panel, 2, n_restarts=5, seed=rep)
        ok = True
        for est, true in zip(fit.model.regimes, truth.regimes):
            scale = np.sqrt(np.diag(true.sigma))
            ok &= bool(np.all(np.abs(est.mu - true.mu) <= 0.1 * scale))
            ok &= abs(est.nu - true.nu) <= 0.3 * true.nu
        ok &= bool(
            np.all(np.abs(fit.model.transition - truth.transition) <= 0.05)
        )
        successes += ok
    elapsed = time.perf_counter() - start
    ok = successes >= 18 and elapsed < 300.0
    report(ok, f"criterion 3: EM recovery {successes}/20, {elapsed:.0f} s")


def test_criterion_4_conditional_quantile_oracle():
    """conditional_mixture (the engine's T=1 path) + mixture_quantile vs grid slicing, 100 draws."""
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    worst = 0.0
    for i in range(100):
        k = int(rng.integers(2, 5))  # conditioning dimension d = k - 1 <= 3
        n_comp = 1 if i % 2 == 0 else 4
        mix = random_mixture(rng, n_comp, k, scale=float(rng.uniform(0.5, 2.0)))
        free = int(rng.integers(0, k))
        cond_idx = [j for j in range(k) if j != free]
        center = sum(
            w * c.mu for w, c in zip(mix.weights, mix.components)
        )
        spread = np.sqrt(mix.components[0].sigma.diagonal())
        values = [
            float(center[j] + rng.uniform(-2, 2) * spread[j]) for j in cond_idx
        ]
        tau = float(rng.uniform(0.03, 0.95))
        w, comps = conditional_mixture(mix, free, cond_idx, values)
        got = mixture_quantile(w, comps, tau)
        params = (
            mix.components[0]
            if n_comp == 1
            else (mix.weights, list(mix.components))
        )
        oracle = grid_conditional_quantile(params, cond_idx, values, tau)
        worst = max(worst, abs(got - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    report(ok, f"criterion 4: conditional quantile oracle, max err {worst:.2e}, "
               f"{elapsed:.1f} s")


def test_criterion_5_es_closed_form():
    """t_es / mixture_es vs quadrature (1e-6) and 1e7-draw MC (3 SE)."""
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    nus = [2.5, 5.0, 15.6839, 100.0]
    taus = [0.01, 0.05, 0.5]
    n = 10**7
    worst_quad = 0.0
    ok = True
    for nu in nus:
        draws = rng.standard_t(nu, size=n)
        for tau in taus:
            es = t_es(tau, nu)
            q = stats.t.ppf(tau, df=nu)
            integral, _ = integrate.quad(
                lambda z: z * stats.t.pdf(z, df=nu), -np.inf, q,
                epsabs=1e-12, epsrel=1e-12, limit=500,
            )
            worst_quad = max(worst_quad, abs(es - integral / tau))
            tail = draws[draws <= q]
            se = tail.std(ddof=1) / np.sqrt(tail.size)
            ok &= abs(es - tail.mean()) < 3 * se

    for tau in taus:
        w = rng.dirichlet(np.ones(3))
        comps = [
            (float(rng.normal()), float(rng.uniform(0.5, 2.0)), nu)
            for nu in rng.choice(nus, size=3)
        ]
        es = mixture_es(w, comps, tau)
        q = mixture_quantile(w, comps, tau)
        mus = np.array([c[0] for c in comps])
        sds = np.array([c[1] for c in comps])
        dfs = np.array([c[2] for c in comps])

        def integrand(x):
            return x * float(np.sum(w * stats.t.pdf((x - mus) / sds, df=dfs) / sds))

        integral, _ = integrate.quad(
            integrand, -np.inf, q, epsabs=1e-12, epsrel=1e-12, limit=500
        )
        worst_quad = max(worst_quad, abs(es - integral / tau))

        ks = rng.choice(3, size=n, p=w)
        draws = np.empty(n)
        for k, (m, s, nu) in enumerate(comps):
            mask = ks == k
            draws[mask] = m + s * rng.standard_t(nu, size=mask.sum())
        tail = draws[draws <= q]
        se = tail.std(ddof=1) / np.sqrt(tail.size)
        ok &= abs(es - tail.mean()) < 3 * se

    elapsed = time.perf_counter() - start
    ok = ok and worst_quad <= 1e-6 and elapsed < 120.0
    report(ok, f"criterion 5: ES closed form, max quadrature err "
               f"{worst_quad:.2e}, {elapsed:.0f} s")


def blocked_model(nu, rho01=0.6, cross=0.0):
    """L=2, p=4 model whose regimes differ only on the (0, 1) block.

    With cross=0 the blocks {0,1} and {2,3} are independent in every regime
    and coordinates 2-3 share one distribution across regimes.
    """
    base23 = 0.02**2 * np.array([[1.0, 0.3], [0.3, 1.0]])
    regimes = []
    for l, scale01 in enumerate((0.01, 0.03)):
        sigma = np.zeros((4, 4))
        sigma[:2, :2] = scale01**2 * np.array([[1.0, rho01], [rho01, 1.0]])
        sigma[2:, 2:] = base23
        sigma[0, 2] = sigma[2, 0] = cross * scale01 * 0.02
        mu = np.array([0.001 * (1 - 4 * l), 0.002 * (1 - 3 * l), 0.0005, -0.0005])
        regimes.append(MvtParams(mu, sigma, nu))
    return MsTModel(
        regimes, np.array([[0.9, 0.1], [0.15, 0.85]]), [0.5, 0.5]
    )


def test_criterion_6_shapley_axioms():
    """Efficiency/symmetry/dummy on 200 random maps and a p=4 series."""
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    eff_err = sym_err = dummy_err = 0.0
    for i in range(200):
        n = int(rng.integers(2, 6))
        players = tuple(range(1, n + 1))
        if i % 3 == 0:
            # Exchangeable map: value depends only on the coalition size.
            by_size = rng.normal(size=n + 1)
            by_size[0] = 0.0
            values = {
                frozenset(s): float(by_size[len(s)])
                for size in range(n + 1)
                for s in itertools.combinations(players, size)
            }
            report_i = shapley(CharacteristicMap(0, players, values))
            shares = list(report_i.shares.values())
            sym_err = max(sym_err, max(shares) - min(shares))
        elif i % 3 == 1 and n >= 3:
            # Last player is a dummy on top of a random sub-map.
            sub = tuple(players[:-1])
            values = {}
            for size in range(n):
                for s in itertools.combinations(sub, size):
                    v = 0.0 if not s else float(rng.normal())
                    values[frozenset(s)] = v
                    values[frozenset(s) | {players[-1]}] = v
            report_i = shapley(CharacteristicMap(0, players, values))
            dummy_err = max(dummy_err, abs(report_i.shares[players[-1]]))
        else:
            values = {
                frozenset(s): float(rng.normal())
                for size in range(1, n + 1)
                for s in itertools.combinations(players, size)
            }
            values[frozenset()] = 0.0
            report_i = shapley(CharacteristicMap(0, players, values))
        eff_err = max(
            eff_err,
            abs(sum(report_i.shares.values()) - report_i.grand_value),
        )

    # Model level, p=4: efficiency at every t on a simulated panel.
    model = random_model(np.random.default_rng(660), 2, 4, scale=0.02)
    _, panel = sample_path(SimSpec(model, 25, 660))
    fit = fit_from_model(model, panel)
    series = attribution_series(fit)
    for i in series.targets:
        total = sum(series.shares[(i, j)] for j in range(4) if j != i)
        eff_err = max(eff_err, float(np.max(np.abs(total - series.grand[i]))))

    # Exchangeable contributors get equal shares.
    sigma = 0.02**2 * (np.full((4, 4), 0.4) + 0.6 * np.eye(4))
    sym_model = MsTModel(
        [
            MvtParams([0.001] * 4, sigma, 8.0),
            MvtParams([-0.002] * 4, 4.0 * sigma, 8.0),
        ],
        np.array([[0.9, 0.1], [0.1, 0.9]]),
        [0.5, 0.5],
    )
    y = np.repeat(
        np.random.default_rng(661).normal(scale=0.02, size=(10, 1)), 4, axis=1
    )
    sym_fit = fit_from_model(sym_model, y)
    sym_series = attribution_series(sym_fit, targets=(0,))
    stacked = np.stack([sym_series.shares[(0, j)] for j in (1, 2, 3)])
    sym_err = max(sym_err, float(np.max(stacked.max(axis=0) - stacked.min(axis=0))))

    # Block-independent contributors are dummies (near-Gaussian regime tails
    # so the conditional-scale coupling of the exact t vanishes).
    dummy_model = blocked_model(nu=1e8)
    _, dummy_panel = sample_path(SimSpec(dummy_model, 10, 662))
    dummy_fit = fit_from_model(dummy_model, dummy_panel)
    dummy_series = attribution_series(dummy_fit, targets=(0,))
    for j in (2, 3):
        dummy_err = max(dummy_err, float(np.max(np.abs(dummy_series.shares[(0, j)]))))

    elapsed = time.perf_counter() - start
    ok = (
        eff_err <= 1e-9 and sym_err <= 1e-9 and dummy_err <= 1e-8
        and elapsed < 120.0
    )
    report(ok, f"criterion 6: Shapley axioms, eff {eff_err:.2e}, "
               f"sym {sym_err:.2e}, dummy {dummy_err:.2e}, {elapsed:.0f} s")


def test_criterion_7_degenerate_levels():
    """tau2 = 0.5 collapses every Delta, coalition value and share to zero."""
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    mix = random_mixture(rng, 2, 3)
    q = RiskQuery(0, (1, 2), tau1=0.05, tau2=0.5)
    worst = max(worst, abs(delta_m_covar(mix, q)), abs(delta_m_coes(mix, q)))
    for measure in ("covar", "coes"):
        cmap = characteristic_values(mix, 0, measure=measure, tau2=0.5)
        worst = max(worst, max(abs(v) for v in cmap.values.values()))
        worst = max(
            worst, max(abs(s) for s in shapley(cmap).shares.values())
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(ok, f"criterion 7: degenerate levels, max |value| {worst:.2e}, "
               f"{elapsed * 1e3:.0f} ms")


def test_criterion_8_conditional_independence_coincidence():
    """Pairwise Delta equals the Shapley share only under block independence."""
    start = time.perf_counter()

    def series_pair(model, seed):
        _, panel = sample_path(SimSpec(model, 30, seed))
        fit = fit_from_model(model, panel)
        std = standard_pairwise_delta(marginalize_fit(fit, [0, 1]), 0, "covar")
        att = attribution_series(fit, "covar", targets=(0,))
        return std, att.shares[(0, 1)]

    std, shv = series_pair(blocked_model(nu=1e6), seed=7)
    coincide_err = float(np.max(np.abs(std - shv)))

    std_c, shv_c = series_pair(blocked_model(nu=8.0, cross=0.5), seed=7)
    diverge_frac = float(np.mean(np.abs(std_c - shv_c) > 1e-5))

    elapsed = time.perf_counter() - start
    ok = coincide_err <= 1e-6 and diverge_frac > 0.5 and elapsed < 120.0
    report(ok, f"criterion 8: coincidence err {coincide_err:.2e}, "
               f"divergent fraction {diverge_frac:.2f}, {elapsed:.0f} s")


def test_criterion_9_equivariance():
    """Translation/scaling equivariance on 50 random queries."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 5))
        L = int(rng.integers(1, 4))
        mix = random_mixture(rng, L, p, scale=0.02)
        target = int(rng.integers(0, p))
        others = [j for j in range(p) if j != target]
        size = int(rng.integers(1, len(others) + 1))
        distress = tuple(rng.choice(others, size=size, replace=False))
        tau1 = float(rng.uniform(0.02, 0.45))
        tau2 = float(rng.uniform(0.02, 0.45))
        q = RiskQuery(target, distress, tau1, tau2)
        base = np.array([
            marginal_var(mix, target, tau1),
            marginal_es(mix, target, tau1),
            multiple_covar(mix, q),
            multiple_coes(mix, q),
            delta_m_covar(mix, q),
            delta_m_coes(mix, q),
        ])

        c = float(rng.uniform(0.1, 0.5))
        shifted = shift_mixture(mix, target, c)
        got = np.array([
            marginal_var(shifted, target, tau1),
            marginal_es(shifted, target, tau1),
            multiple_covar(shifted, q),
            multiple_coes(shifted, q),
            delta_m_covar(shifted, q),
            delta_m_coes(shifted, q),
        ])
        want = base + np.array([c, c, c, c, 0.0, 0.0])
        worst = max(worst, float(np.max(np.abs(got - want))))

        s = float(rng.uniform(0.5, 3.0))
        scaled = scale_mixture(mix, s)
        got = np.array([
            marginal_var(scaled, target, tau1),
            marginal_es(scaled, target, tau1),
            multiple_covar(scaled, q),
            multiple_coes(scaled, q),
            delta_m_covar(scaled, q),
            delta_m_coes(scaled, q),
        ])
        worst = max(worst, float(np.max(np.abs(got - s * base))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    report(ok, f"criterion 9: equivariance, max err {worst:.2e}, "
               f"{elapsed:.1f} s")

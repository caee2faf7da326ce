"""Simulation and the brute-force oracles.

oracle_sample_path is the per-step sampler that sample_path was before it
reset one bit generator per stream: a fresh Philox generator for every
observation, one cumsum and one searchsorted per chain step and one
timedelta per date.  sample_path must reproduce it bit for bit.
"""

import datetime

import numpy as np
import pytest

from msrisk import (
    MsTModel,
    MvtParams,
    brute_force_loglik,
    forward_loglik,
    grid_conditional_quantile,
    mvt_logpdf,
    sample_path,
    t_quantile,
)
from msrisk.panel import ReturnPanel
from msrisk.simulate import MAX_T, START, SimSpec

from helpers import random_model, random_mvt


def _stream(seed, stream):
    key = np.array([seed % (1 << 64), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def oracle_sample_path(spec):
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

    dates = [START + datetime.timedelta(weeks=t) for t in range(t_len)]
    return states, ReturnPanel(dates, [f"s{i+1}" for i in range(p)], y)


class TestSamplePathOracle:
    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_bit_identical_to_per_step_sampler(self, L, p):
        model = random_model(np.random.default_rng(100 * L + p), L, p, scale=0.05)
        for t_len in (1, 2, 13, 500):
            for seed in (0, 7, 2**64 + 3, 123456789012345678901):
                states, got = sample_path(SimSpec(model, t_len, seed))
                want_states, want = oracle_sample_path(SimSpec(model, t_len, seed))
                assert states.dtype == want_states.dtype
                np.testing.assert_array_equal(states, want_states)
                np.testing.assert_array_equal(got.returns, want.returns)
                assert got.dates == want.dates and got.names == want.names

    def test_draw_t_depends_only_on_seed_and_t(self):
        model = random_model(np.random.default_rng(101), 3, 3, scale=0.05)
        short_states, short = sample_path(SimSpec(model, 50, 11))
        long_states, long = sample_path(SimSpec(model, 80, 11))
        np.testing.assert_array_equal(short_states, long_states[:50])
        np.testing.assert_array_equal(short.returns, long.returns[:50])
        assert short.dates == long.dates[:50]

    def test_walk_clips_each_step(self):
        # Rows summing to less than one, as rounding can leave them, send a
        # uniform past the last cumulative sum; that step must stay in range.
        rng = np.random.default_rng(102)
        model = MsTModel([random_mvt(rng, 2), random_mvt(rng, 2)], np.eye(2), [0.5, 0.5])
        object.__setattr__(model, "transition", np.full((2, 2), 0.25))
        states, _ = sample_path(SimSpec(model, 200, 0))
        assert set(states.tolist()) == {0, 1}


class TestSamplePath:
    def test_absorbing_chain_constant_path(self):
        rng = np.random.default_rng(60)
        regimes = [random_mvt(rng, 2, nu=5.0), random_mvt(rng, 2, nu=5.0)]
        model = MsTModel(regimes, np.eye(2), [0.0, 1.0])
        states, _ = sample_path(SimSpec(model, 200, 0))
        assert np.all(states == 1)

    def test_seed_determinism(self):
        rng = np.random.default_rng(61)
        model = random_model(rng, 2, 2, scale=0.05)
        s1, p1 = sample_path(SimSpec(model, 50, 9))
        s2, p2 = sample_path(SimSpec(model, 50, 9))
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(p1.returns, p2.returns)
        s3, p3 = sample_path(SimSpec(model, 50, 10))
        assert not np.array_equal(p1.returns, p3.returns)

    def test_ergodic_state_frequencies(self):
        rng = np.random.default_rng(62)
        regimes = [random_mvt(rng, 2, nu=6.0), random_mvt(rng, 2, nu=6.0)]
        q = np.array([[0.9, 0.1], [0.2, 0.8]])
        model = MsTModel(regimes, q, [0.5, 0.5])
        t_len = 100_000
        states, _ = sample_path(SimSpec(model, t_len, 3))
        stationary = np.array([2.0 / 3.0, 1.0 / 3.0])
        freq = np.bincount(states, minlength=2) / t_len
        np.testing.assert_allclose(freq, stationary, atol=3.0 / np.sqrt(t_len))

    def test_single_regime_moments(self):
        nu = 8.0
        sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
        model = MsTModel(
            [MvtParams([0.5, -0.5], sigma, nu)], np.array([[1.0]]), [1.0]
        )
        _, panel = sample_path(SimSpec(model, 100_000, 4))
        np.testing.assert_allclose(panel.returns.mean(axis=0), [0.5, -0.5], atol=0.03)
        cov = np.cov(panel.returns, rowvar=False)
        np.testing.assert_allclose(cov, nu / (nu - 2.0) * sigma, rtol=0.08)

    def test_panel_metadata(self):
        rng = np.random.default_rng(63)
        model = random_model(rng, 2, 3, scale=0.05)
        _, panel = sample_path(SimSpec(model, 10, 0))
        assert panel.names == ("s1", "s2", "s3")
        assert len(panel.dates) == 10
        assert (panel.dates[1] - panel.dates[0]).days == 7

    def test_rejects_empty_sample(self):
        rng = np.random.default_rng(64)
        with pytest.raises(ValueError):
            SimSpec(random_model(rng, 2, 2), 0, 0)

    @pytest.mark.parametrize("t_len, seed, message", [
        (2.5, 0, "^T must be an integer, got 2.5$"),
        (np.float64(5.0), 0, r"^T must be an integer, got np.float64\(5.0\)$"),
        (5, 1.5, "^seed must be an integer, got 1.5$"),
        (0, 0, "^T must be >= 1$"),
    ])
    def test_rejects_fractional_size_or_seed(self, t_len, seed, message):
        with pytest.raises(ValueError, match=message):
            SimSpec(random_model(np.random.default_rng(66), 2, 2), t_len, seed)

    def test_negative_seed_is_read_modulo_two_to_the_64(self):
        model = random_model(np.random.default_rng(67), 2, 2)
        states, panel = sample_path(SimSpec(model, 5, -1))
        want_states, want = sample_path(SimSpec(model, 5, (1 << 64) - 1))
        np.testing.assert_array_equal(states, want_states)
        np.testing.assert_array_equal(panel.returns, want.returns)

    def test_rejects_one_series_model(self):
        model = MsTModel([MvtParams([0.0], [[1.0]], 5.0)], [[1.0]], [1.0])
        with pytest.raises(ValueError, match="^model dimension 1: a panel needs at least two series$"):
            SimSpec(model, 20, 0)

    def test_rejects_dates_past_the_calendar(self):
        model = random_model(np.random.default_rng(65), 2, 2)
        assert MAX_T == 417_420
        assert START + datetime.timedelta(weeks=MAX_T - 1) <= datetime.date.max
        assert (datetime.date.max - START).days < 7 * MAX_T
        SimSpec(model, MAX_T, 0)
        with pytest.raises(ValueError, match="T = 417421"):
            SimSpec(model, MAX_T + 1, 0)


class TestGridConditionalQuantile:
    def test_symmetric_median_is_conditional_location(self):
        p = MvtParams([0.0, 0.0], np.array([[1.0, 0.6], [0.6, 1.0]]), 6.0)
        got = grid_conditional_quantile(p, [1], [1.5], 0.5)
        assert abs(got - 0.6 * 1.5) < 1e-3

    def test_independence_gives_unconditional_quantile(self):
        p = MvtParams([0.3, -1.0], np.diag([2.0, 5.0]), 7.0)
        got = grid_conditional_quantile(p, [1], [2.0], 0.05)
        # Conditioning on an independent coordinate still inflates the t
        # scale through the (nu + q) / (nu + d) factor.
        q = (2.0 - (-1.0)) ** 2 / 5.0
        scale = np.sqrt((7.0 + q) / 8.0 * 2.0)
        expected = 0.3 + scale * t_quantile(0.05, 8.0)
        assert abs(got - expected) < 1e-4

    def test_rejects_ambiguous_target(self):
        p = MvtParams([0.0, 0.0, 0.0], np.eye(3), 5.0)
        with pytest.raises(ValueError):
            grid_conditional_quantile(p, [2], [0.0], 0.5)
        with pytest.raises(ValueError):
            grid_conditional_quantile(p, [0], [0.0], 1.5)

    def test_no_density_mass_named(self):
        # At 1e200 the Mahalanobis form overflows, so the slice is 0 everywhere.
        p = MvtParams([0.0, 0.0], np.eye(2), 5.0)
        with pytest.raises(ValueError, match="^grid carries no density mass$"):
            grid_conditional_quantile(p, [1], [1e200], 0.05)

    def test_tail_heavier_than_the_widest_grid(self):
        # nu = 1 leaves the conditional t with nu = 2, whose mass outside the
        # widest grid, +-480 marginal scales, is about 2e-6.
        p = MvtParams([0.0, 0.0], np.eye(2), 1.0)
        with pytest.raises(ValueError, match="^grid mass below 1 - 1e-6 after 3 expansions$"):
            grid_conditional_quantile(p, [1], [0.0], 0.5)


class TestBruteForce:
    def test_single_state_sum(self):
        rng = np.random.default_rng(65)
        reg = random_mvt(rng, 2, nu=5.0)
        model = MsTModel([reg], np.array([[1.0]]), [1.0])
        y = rng.normal(size=(8, 2))
        assert abs(
            brute_force_loglik(model, y) - float(np.sum(mvt_logpdf(y, reg)))
        ) < 1e-10

    def test_defining_check_vs_forward(self):
        rng = np.random.default_rng(66)
        model = random_model(rng, 2, 2)
        y = rng.normal(size=(5, 2))
        assert abs(brute_force_loglik(model, y) - forward_loglik(model, y)) < 1e-10

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(67)
        model = random_model(rng, 3, 2)
        y = rng.normal(size=(5, 2))
        perm = [2, 0, 1]
        permuted = MsTModel(
            [model.regimes[i] for i in perm],
            model.transition[np.ix_(perm, perm)],
            model.initial[perm],
        )
        assert abs(
            brute_force_loglik(model, y) - brute_force_loglik(permuted, y)
        ) < 1e-10

    def test_scale_matrix_with_negative_determinant(self):
        # b is one ulp above sqrt(6), so 2 * 3 - b^2 < 0; the Cholesky factor
        # that MvtParams takes still exists in floating point.
        b = np.nextafter(np.sqrt(6.0), 3.0)
        assert b * b > 6.0
        reg = MvtParams([0.0, 0.0], [[2.0, b], [b, 3.0]], 5.0)
        model = MsTModel([reg], np.array([[1.0]]), [1.0])
        for call in (lambda: brute_force_loglik(model, np.zeros((3, 2))),
                     lambda: grid_conditional_quantile(reg, [1], [0.0], 0.05)):
            with pytest.raises(ValueError, match="^scale matrix must be positive definite$"):
                call()

    def test_size_guard(self):
        rng = np.random.default_rng(68)
        model = random_model(rng, 2, 2)
        with pytest.raises(ValueError, match="too large"):
            brute_force_loglik(model, rng.normal(size=(25, 2)))

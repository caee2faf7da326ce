import re

import numpy as np
import pytest

from msrisk import (
    MsTModel,
    MvtParams,
    PredictiveMixture,
    build_predictive,
    mixture_quantile,
    mvt_logpdf,
    predictive_weights,
    sample_path,
)
from msrisk.corisk import CoRiskEngine
from msrisk.simulate import SimSpec

from helpers import fit_from_model, random_model, random_mvt


def random_stochastic(rng, L):
    q = rng.uniform(0.2, 1.0, size=(L, L))
    return q / q.sum(axis=1, keepdims=True)


class TestPredictiveWeights:
    def test_identity_chain_fixed_point(self):
        pi = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(predictive_weights(pi, np.eye(3)), pi, atol=1e-14)

    def test_vertex_start_gives_transition_row(self):
        rng = np.random.default_rng(40)
        q = random_stochastic(rng, 3)
        np.testing.assert_allclose(
            predictive_weights([0.0, 1.0, 0.0], q), q[1], atol=1e-14
        )

    def test_chapman_kolmogorov(self):
        rng = np.random.default_rng(42)
        q = random_stochastic(rng, 3)
        pi = rng.dirichlet(np.ones(3))
        two_steps = pi @ np.linalg.matrix_power(q, 2)
        composed = predictive_weights(predictive_weights(pi, q), q)
        np.testing.assert_allclose(two_steps, composed, atol=1e-12)

    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            predictive_weights([0.7, 0.7], np.eye(2))

    @pytest.mark.parametrize("q", [np.eye(3), [[0.5, 0.5]], [0.5, 0.5]])
    def test_transition_must_be_square_over_the_states(self, q):
        shape = np.atleast_2d(q).shape
        with pytest.raises(ValueError, match=re.escape(f"transition matrix must be 2x2, got "
                                                       f"shape {shape}")):
            predictive_weights([0.5, 0.5], q)


class TestBuildPredictive:
    def build_fit(self, seed, L=2, p=2, t_len=30):
        rng = np.random.default_rng(seed)
        model = random_model(rng, L, p, scale=0.05)
        _, panel = sample_path(SimSpec(model, t_len, seed))
        return fit_from_model(model, panel)

    def test_single_state(self):
        fit = self.build_fit(43, L=1)
        mix = build_predictive(fit, 5)
        assert len(mix.components) == 1
        np.testing.assert_allclose(mix.weights, [1.0])
        assert mix.components[0] is fit.model.regimes[0]

    def test_weights_are_pure_chain_computation(self):
        fit = self.build_fit(44)
        mix = build_predictive(fit, 10)
        np.testing.assert_allclose(
            mix.weights,
            predictive_weights(fit.filtered[10], fit.model.transition),
            atol=1e-14,
        )

    def test_density_integrates_to_one(self):
        fit = self.build_fit(45)
        mix = build_predictive(fit, 3)
        scale = max(np.sqrt(c.sigma.diagonal()).max() for c in mix.components)
        xs = np.linspace(-20 * scale, 20 * scale, 501)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([gx, gy], axis=-1)
        dens = sum(
            w * np.exp(mvt_logpdf(pts, c))
            for w, c in zip(mix.weights, mix.components)
        )
        mass = np.trapezoid(np.trapezoid(dens, xs, axis=1), xs)
        assert abs(mass - 1.0) < 1e-3

    def test_mean_matches_grid(self):
        fit = self.build_fit(46)
        mix = build_predictive(fit, 3)
        analytic = sum(w * c.mu for w, c in zip(mix.weights, mix.components))
        scale = max(np.sqrt(c.sigma.diagonal()).max() for c in mix.components)
        xs = np.linspace(-25 * scale, 25 * scale, 601)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([gx, gy], axis=-1)
        dens = sum(
            w * np.exp(mvt_logpdf(pts, c))
            for w, c in zip(mix.weights, mix.components)
        )
        mean_x = np.trapezoid(np.trapezoid(gx * dens, xs, axis=1), xs)
        mean_y = np.trapezoid(np.trapezoid(gy * dens, xs, axis=1), xs)
        np.testing.assert_allclose([mean_x, mean_y], analytic, atol=1e-3 * scale)

    def test_time_index_bounds(self):
        fit = self.build_fit(48)
        with pytest.raises(IndexError):
            build_predictive(fit, 30)


class TestPredictiveMixtureValidation:
    def test_rejects_weight_mismatch(self):
        rng = np.random.default_rng(49)
        comp = random_mvt(rng, 2, nu=5.0)
        with pytest.raises(ValueError):
            PredictiveMixture([0.5, 0.5], [comp])

    def test_rejects_dim_mismatch(self):
        rng = np.random.default_rng(50)
        with pytest.raises(ValueError, match="dimension"):
            PredictiveMixture(
                [0.5, 0.5],
                [random_mvt(rng, 2, nu=5.0), random_mvt(rng, 3, nu=5.0)])


# Every entry point that takes probability rows, fed one row of two states
# (after a valid row where it takes a stack), with the name its error gives
# that row and the tolerance of its sum.
_REG = MvtParams([0.0, 0.0], np.eye(2), 5.0)
PROBABILITY_ROW_ENTRY_POINTS = {
    "MsTModel-transition": (lambda row: MsTModel([_REG, _REG], [[0.5, 0.5], row], [0.5, 0.5]),
                            "row 1 of transition matrix Q", "1e-12"),
    "MsTModel-initial": (lambda row: MsTModel([_REG, _REG], np.eye(2), row),
                         "initial distribution delta", "1e-12"),
    "PredictiveMixture": (lambda row: PredictiveMixture(row, [_REG, _REG]),
                          "predictive mixture weights", "1e-12"),
    "predictive_weights": (lambda row: predictive_weights([[0.5, 0.5], row], np.eye(2)),
                           "row 1 of the filtered probabilities", "1e-10"),
    "predictive_weights-transition": (
        lambda row: predictive_weights([0.5, 0.5], [[0.5, 0.5], row]),
        "row 1 of transition matrix Q", "1e-12"),
    "CoRiskEngine": (lambda row: CoRiskEngine([[0.5, 0.5], row], [_REG, _REG]),
                     "weights at date 1", "1e-10"),
    "mixture_quantile": (lambda row: mixture_quantile(row, [(0.0, 1.0, 5.0)] * 2, 0.05),
                         "mixture weights", "1e-10"),
}


class TestProbabilityRows:
    """One rule for every probability row: finite, in [0, 1], summing to 1 within tol."""

    # Each bad row breaks one part of the rule; its sum is within 1e-12 of 1
    # unless the sum is what it breaks.
    @pytest.mark.parametrize("row", [
        [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [-1e-13, 1.0], [1.0 + 5e-13, 0.0],
        [0.7, 0.7],
    ], ids=["nan", "inf", "minus-inf", "negative", "above-one", "off-sum"])
    @pytest.mark.parametrize("entry", sorted(PROBABILITY_ROW_ENTRY_POINTS))
    def test_bad_row_is_named(self, entry, row):
        call, name, tol = PROBABILITY_ROW_ENTRY_POINTS[entry]
        message = (f"{name} must be finite, nonnegative and sum to 1 within {tol} with no "
                   f"entry above 1, got {row}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(row)

    @pytest.mark.parametrize("row", [[1.0, 0.0], [0.5, 0.5 + 4e-13], [0.25, 0.75 - 4e-13]])
    @pytest.mark.parametrize("entry", sorted(PROBABILITY_ROW_ENTRY_POINTS))
    def test_row_within_tolerance_is_accepted(self, entry, row):
        PROBABILITY_ROW_ENTRY_POINTS[entry][0](row)

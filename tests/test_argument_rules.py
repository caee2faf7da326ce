"""One rule per argument kind: tail levels, degrees of freedom and indices.

Every entry point that takes one of these arguments checks it through the
same helper in msrisk.studentt, so each bad value fails at the boundary with
an error that names the argument.
"""

import re

import numpy as np
import pytest

from msrisk import (
    MvtParams,
    build_predictive,
    condition_mvt,
    grid_conditional_quantile,
    marginal_mvt,
    marginal_var,
    marginalize_fit,
    mixture_es,
    mixture_quantile,
    standard_pairwise_delta,
    t_cdf,
    t_es,
    t_quantile,
)
from msrisk.attribution import vis_a_vis
from msrisk.corisk import CoRiskEngine, RiskQuery, conditional_mixture
from msrisk.studentt import mixture_truncated_mean, t_lower_partial

from helpers import fit_from_model, mixture_cdf, random_mixture, random_model

_MVT = MvtParams([0.0, 0.0], np.eye(2) + 0.5, 5.0)
_MIX_COMPS = [(0.0, 1.0, 5.0), (0.5, 2.0, 8.0)]


def _engine():
    return CoRiskEngine([[0.4, 0.6]], [_MVT, MvtParams([1.0, -1.0], np.eye(2), 7.0)])


def _mixture():
    return random_mixture(np.random.default_rng(3700), 2, 3)


def _fit():
    rng = np.random.default_rng(3701)
    model = random_model(rng, 2, 3, scale=0.02)
    return fit_from_model(model, rng.normal(scale=0.02, size=(40, 3)))


def _with_nu(nu):
    return [_MIX_COMPS[0], (0.5, 2.0, nu)]


# Tail-level entry points, called with the bad level: (call, name in the message)
LEVEL_ENTRY_POINTS = {
    "t_quantile": (lambda tau: t_quantile(tau, 5.0), "tau"),
    "mixture_quantile": (lambda tau: mixture_quantile([0.3, 0.7], _MIX_COMPS, tau), "tau"),
    "mixture_es": (lambda tau: mixture_es([0.3, 0.7], _MIX_COMPS, tau), "tau"),
    "RiskQuery": (lambda tau: RiskQuery(0, (1,), tau2=tau), "tail levels"),
    "solve_levels": (lambda tau: _engine().solve_levels([0.05, tau]), "tau"),
    "coalition_values": (lambda tau: _engine().coalition_values([0], ["covar"], tau, 0.05,
                                                                [[True]]), "tail levels"),
    "grid_conditional_quantile": (lambda tau: grid_conditional_quantile(_MVT, [1], [0.0], tau),
                                  "tau"),
}

# Degrees-of-freedom entry points, called with the bad nu: (call, whether nu is
# component 1 of a mixture, checks).  A check is (least, message head up to the
# bound); 0, NaN and inf fail the first check, and 1 the last where its least is 1.
_MIXTURE = (0, "a t mixture needs every component")
NU_ENTRY_POINTS = {
    "MvtParams": (lambda nu: MvtParams([0.0], [[1.0]], nu), False,
                  [(0, "a Student-t needs a finite")]),
    "t_cdf": (lambda nu: t_cdf(0.0, nu), False, [(0, "the t CDF needs a finite")]),
    "t_quantile": (lambda nu: t_quantile(0.05, nu), False, [(0, "the t quantile needs a finite")]),
    "t_lower_partial": (lambda nu: t_lower_partial(0.0, nu), False,
                        [(1, "the partial expectation needs a finite")]),
    "t_es": (lambda nu: t_es(0.05, nu), False, [(1, "ES needs a finite")]),
    "mixture_cdf": (lambda nu: mixture_cdf(0.0, [0.3, 0.7], _with_nu(nu)), True, [_MIXTURE]),
    "mixture_quantile": (lambda nu: mixture_quantile([0.3, 0.7], _with_nu(nu), 0.05), True,
                         [_MIXTURE]),
    "mixture_truncated_mean": (lambda nu: mixture_truncated_mean([0.3, 0.7], _with_nu(nu), 0.0),
                               True, [_MIXTURE, (1, "the partial expectation needs every component")]),
    "mixture_es": (lambda nu: mixture_es([0.3, 0.7], _with_nu(nu), 0.05), True,
                   [_MIXTURE, (1, "ES needs every component")]),
}

# Index entry points, called with a fractional index: (call, the message)
INDEX_ENTRY_POINTS = {
    "marginal_mvt": (lambda: marginal_mvt(_MVT, [0, 1.5]), "keep_idx 1.5"),
    "condition_mvt": (lambda: condition_mvt(_MVT, [0.9], [0.0]), "cond_idx 0.9"),
    "marginalize_fit": (lambda: marginalize_fit(_fit(), [0, 1.5]), "indices 1.5"),
    "conditional_mixture-cond_idx": (lambda: conditional_mixture(_mixture(), 0, [2.9], [0.0]),
                                     "cond_idx 2.9"),
    "conditional_mixture-target": (lambda: conditional_mixture(_mixture(), 0.0, [1], [0.0]),
                                   "series index 0.0"),
    "marginal_var": (lambda: marginal_var(_mixture(), 1.5, 0.05), "series index 1.5"),
    "build_predictive": (lambda: build_predictive(_fit(), 1.5), "time index 1.5"),
    "grid_conditional_quantile": (lambda: grid_conditional_quantile(_MVT, [1.0], [0.0], 0.05),
                                  "cond_idx 1.0"),
}


def _cases():
    for entry, (call, name) in LEVEL_ENTRY_POINTS.items():
        for tau in (0.0, 1.0, -0.1, np.nan):
            message = rf"^{name} must lie strictly in \(0, 1\), got {tau}$"
            yield pytest.param(ValueError, message, call, tau, id=f"tau-{entry}-{tau}")
    for entry, (call, component, checks) in NU_ENTRY_POINTS.items():
        cases = [(nu, checks[0]) for nu in (0.0, np.nan, np.inf)]
        if checks[-1][0] == 1:
            cases.append((1.0, checks[-1]))
        for nu, (least, head) in cases:
            where = "component 1 has" if component else "got"
            message = rf"^{head} nu > {least}, {where} nu = {nu}$"
            yield pytest.param(ValueError, message, call, nu, id=f"nu-{entry}-{nu}")
    for entry, (call, name) in INDEX_ENTRY_POINTS.items():
        message = rf"^{re.escape(name)} cannot be interpreted as an integer$"
        yield pytest.param(TypeError, message, lambda _, call=call: call(), None,
                           id=f"index-{entry}")


@pytest.mark.parametrize("error, message, call, value", list(_cases()))
def test_bad_argument_is_named(error, message, call, value):
    with pytest.raises(error, match=message):
        call(value)


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda comps: mixture_quantile([0.3, 0.7], comps, 0.05),
    lambda comps: mixture_es([0.3, 0.7], comps, 0.05),
], ids=["mixture_quantile", "mixture_es"])
def test_component_scale_must_be_finite_and_positive(call, scale):
    with pytest.raises(ValueError, match="^component scales must be finite and positive$"):
        call([_MIX_COMPS[0], (0.5, scale, 8.0)])


@pytest.mark.parametrize("idx", [[0, 2], [-1], [1, 1], [], [0, 1]])
def test_bad_coordinate_set_is_a_value_error(idx):
    with pytest.raises(ValueError, match="^cond_idx must "):
        condition_mvt(MvtParams([0.0, 0.0], np.eye(2), 5.0), idx, [0.0] * len(idx))


def test_integer_indices_of_any_type_are_accepted():
    mix = _mixture()
    assert marginal_mvt(_MVT, np.array([1])).mu.tolist() == [0.0]
    assert condition_mvt(_MVT, [np.int32(1)], [0.0]).dim == 1
    assert marginal_var(mix, np.int64(1), 0.05) == marginal_var(mix, 1, 0.05)


def test_pairwise_target_out_of_range_is_an_index_error():
    with pytest.raises(IndexError, match="^series index 2 outside dimension 2$"):
        standard_pairwise_delta(marginalize_fit(_fit(), [0, 1]), 2)


def test_query_series_must_be_distinct():
    with pytest.raises(ValueError, match=r"^target 1 and distress set \(1, 2\) must be distinct"):
        RiskQuery(1, (2, 1))
    with pytest.raises(ValueError, match=r"^target 0 and distress set \(1, 1\) must be distinct"):
        RiskQuery(0, (1, 1))


def test_vis_a_vis_needs_two_sectors():
    with pytest.raises(ValueError, match="^target 1 is repeated in targets$"):
        vis_a_vis(_fit(), (1, 1))

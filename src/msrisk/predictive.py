"""h-step-ahead predictive mixture of a fitted Markov-switching model.

The predictive density at time t is a finite mixture of the regime
emissions, weighted by the hidden chain propagated h steps from the
filtered (by default) state probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import FitResult, _check_integer
from .studentt import _check_probability_rows, _index


@dataclass(frozen=True)
class PredictiveMixture:
    """Mixture weights plus component parameters for p(y_{t+h} | I_t).

    The weights must be a probability row: finite entries in [0, 1] that
    sum to 1 within 1e-12.  The horizon is an integer >= 1 and as_of a
    time index.
    """

    weights: np.ndarray
    components: tuple
    horizon: int
    as_of: int

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        comps = tuple(self.components)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "as_of", _index(self.as_of, "as_of"))
        if w.shape != (len(comps),):
            raise ValueError("one weight per component required")
        _check_probability_rows(w[None], 1e-12, "predictive mixture weights")
        if len({c.dim for c in comps}) != 1:
            raise ValueError("components disagree in dimension")
        _check_integer(self.horizon, "horizon", 1)

    @property
    def dim(self) -> int:
        return self.components[0].dim


def predictive_weights(filtered_t, transition, h: int) -> np.ndarray:
    """Propagate filtered state probabilities h steps through the chain.

    With rows of the transition matrix indexing the from-state this is
    filtered_t @ transition^h; the matrix power uses repeated squaring.
    filtered_t may also be a T x L array of probability rows, which are
    propagated independently.  Each row must be finite, in [0, 1] and sum
    to 1 within 1e-10; the transition matrix must be L x L with such rows
    within 1e-12, and h an integer >= 1.
    """
    _check_integer(h, "horizon", 1)
    pi = np.atleast_1d(np.asarray(filtered_t, dtype=float))
    q = np.atleast_2d(np.asarray(transition, dtype=float))
    L = pi.shape[-1]
    if q.shape != (L, L):
        raise ValueError(f"transition matrix must be {L}x{L}, got shape {q.shape}")
    _check_probability_rows(np.atleast_2d(pi), 1e-10, "row {} of the filtered probabilities")
    _check_probability_rows(q, 1e-12, "row {} of transition matrix Q")
    w = pi @ np.linalg.matrix_power(q, h)
    w = np.clip(w, 0.0, None)
    return w / w.sum(axis=-1, keepdims=True)


def _state_probs(fit: FitResult, probs: str) -> np.ndarray:
    if probs not in ("filtered", "smoothed"):
        raise ValueError("probs must be 'filtered' or 'smoothed'")
    return fit.filtered if probs == "filtered" else fit.smoothed


def predictive_weight_path(fit: FitResult, h: int = 1, probs: str = "filtered") -> np.ndarray:
    """T x L predictive mixture weights at every in-sample time index."""
    return predictive_weights(_state_probs(fit, probs), fit.model.transition, h)


def build_predictive(fit: FitResult, t: int, h: int = 1, probs: str = "filtered") -> PredictiveMixture:
    """Predictive mixture as of time index t.

    probs selects the state probabilities used as the chain's starting
    point: 'filtered' conditions on I_t (the definitional choice);
    'smoothed' is exposed for full-sample reproduction studies.
    """
    source = _state_probs(fit, probs)
    t = _index(t, "time index")
    if not 0 <= t < source.shape[0]:
        raise IndexError(f"time index {t} outside sample of length {source.shape[0]}")
    weights = predictive_weights(source[t], fit.model.transition, h)
    return PredictiveMixture(
        weights=weights, components=fit.model.regimes, horizon=h, as_of=t
    )

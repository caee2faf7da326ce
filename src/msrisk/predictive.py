"""One-step-ahead predictive mixture of a fitted Markov-switching model.

The predictive density at time t is a finite mixture of the regime
emissions, weighted by the hidden chain moved one step through Q from the
filtered state probabilities at t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import FitResult
from .studentt import _check_probability_rows, _index


@dataclass(frozen=True)
class PredictiveMixture:
    """Mixture weights plus component parameters for p(y_{t+1} | I_t).

    The weights must be a probability row: finite entries in [0, 1] that
    sum to 1 within 1e-12.
    """

    weights: np.ndarray
    components: tuple

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        comps = tuple(self.components)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)
        if w.shape != (len(comps),):
            raise ValueError("one weight per component required")
        _check_probability_rows(w[None], 1e-12, "predictive mixture weights")
        if len({c.dim for c in comps}) != 1:
            raise ValueError("components disagree in dimension")

    @property
    def dim(self) -> int:
        return self.components[0].dim


def predictive_weights(filtered_t, transition) -> np.ndarray:
    """Move filtered state probabilities one step through the chain.

    With rows of the transition matrix indexing the from-state this is
    filtered_t @ transition.  filtered_t may also be a T x L array of
    probability rows, which are moved independently.  Each row must be
    finite, in [0, 1] and sum to 1 within 1e-10; the transition matrix must
    be L x L with such rows within 1e-12.
    """
    pi = np.atleast_1d(np.asarray(filtered_t, dtype=float))
    q = np.atleast_2d(np.asarray(transition, dtype=float))
    L = pi.shape[-1]
    if q.shape != (L, L):
        raise ValueError(f"transition matrix must be {L}x{L}, got shape {q.shape}")
    _check_probability_rows(np.atleast_2d(pi), 1e-10, "row {} of the filtered probabilities")
    _check_probability_rows(q, 1e-12, "row {} of transition matrix Q")
    w = np.clip(pi @ q, 0.0, None)
    return w / w.sum(axis=-1, keepdims=True)


def build_predictive(fit: FitResult, t: int) -> PredictiveMixture:
    """One-step-ahead predictive mixture from the filtered probabilities at time index t."""
    t = _index(t, "time index")
    if not 0 <= t < fit.filtered.shape[0]:
        raise IndexError(f"time index {t} outside sample of length {fit.filtered.shape[0]}")
    weights = predictive_weights(fit.filtered[t], fit.model.transition)
    return PredictiveMixture(weights=weights, components=fit.model.regimes)

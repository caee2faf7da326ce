"""Joint tail-risk measures on a predictive mixture.

Marginal VaR/ES plus the Multiple-CoVaR / Multiple-CoES family: the tail
quantile (or tail mean) of one series conditional on a distress set of the
others sitting at their individual tail levels while the rest sit at their
median-state levels, and the Delta variants that subtract the everyone-at-
median baseline.  Multiple-CoES is the conditional law's mean below its own
tau1-quantile, the Multiple-CoVaR.

Conditioning is point conditioning (a density slice).  Per mixture
component the exact conditional Student-t is used and the component
weights are reweighted by each component's marginal density at the
conditioning vector, handled in log space.

Every co-risk measure is evaluated by CoRiskEngine.coalition_values, which
takes a whole request (dates x measure families x targets x distress
coalitions) as one grid: one batched quantile root and one batched tail
mean.  The engine builds its conditioning layout at construction: each
target's players (engine.others, the other series in ascending order),
whose order only the engine owns, and one stacked factorisation of their
conditioning blocks.  The series functions make one such call per run, the
single-mixture co-risk functions, conditional_mixture included, are its T=1
case, and marginal VaR/ES solve one univariate mixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import FitResult, MsTModel
from .panel import _write_blocks
from .predictive import PredictiveMixture, predictive_weights
from .studentt import (
    _check_levels,
    _check_nu,
    _check_probability_rows,
    _coordinates,
    _index,
    _mvt_log_norm,
    _stack_mvt,
    batched_mixture_quantile,
    batched_mixture_truncated_mean,
    marginal_mvt,
    mixture_es,
    mixture_quantile,
)

MEASURES = ("covar", "coes")

# Cells of one block of dates of a batched solve: (date, family, target,
# coalition, component) of a coalition batch, (date, series, tau, component)
# of a marginal level solve.  Measured on attribution_series at T=8000, L=3,
# p=5 with only coalitions blocked: peak RSS 268 MB at 1 << 20 and 101 MB
# here, at equal time; smaller budgets lowered neither.
ROW_BUDGET = 1 << 16


@dataclass(frozen=True)
class RiskQuery:
    """Target series, distress set and the two tail levels.

    distress may be empty, which yields the everyone-at-median baseline
    measure (the subtrahend of the Delta variants).
    """

    target: int
    distress: tuple = ()
    tau1: float = 0.05
    tau2: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "target", _index(self.target, "target"))
        object.__setattr__(self, "distress",
                           tuple(sorted(_index(j, "distress") for j in self.distress)))
        if len({self.target, *self.distress}) != 1 + len(self.distress):
            raise ValueError(f"target {self.target} and distress set {self.distress} must be "
                             "distinct series")
        _check_levels((self.tau1, self.tau2), "tail levels")


@dataclass
class RiskSeries:
    """Per-time risk measures for one target with a fixed distress set."""

    target: int
    distress: tuple
    tau1: float
    tau2: float
    var: np.ndarray = None
    es: np.ndarray = None
    covar: np.ndarray = None
    coes: np.ndarray = None
    delta_covar: np.ndarray = None
    delta_coes: np.ndarray = None


def _check_index(i, dim: int) -> int:
    """Series index i as an int; fractional is a TypeError, outside [0, dim) an IndexError."""
    i = _index(i, "series index")
    if not 0 <= i < dim:
        raise IndexError(f"series index {i} outside dimension {dim}")
    return i


def coalition_masks(n: int) -> np.ndarray:
    """Every subset of n players as a (2^n, n) boolean array.

    Row m holds the subset whose members are the set bits of m, so row 0 is
    the empty coalition and the last row the grand coalition.
    """
    return (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1


class CoRiskEngine:
    """Co-risk measures of T predictive mixtures that share their components.

    The mixtures differ only in their weights (T x L), each row a
    probability row: finite entries in [0, 1] that sum to 1 within 1e-10.
    The components are the regime emissions.  Marginal VaR/ES levels are
    solved once per (kind, tau) for every date and series as one batched
    root and cached, so the distress and the baseline rows of a Delta read
    the same level array.  Conditioning is always on every series but the
    target, so the construction builds the whole layout once: others, whose
    row i holds the players of target i (its other series, ascending), and
    the regression rows, Schur complements and Cholesky factors of every
    target's conditioning block, as one stack over targets.  Callers read
    the player order from others and never derive it.  coalition_values
    evaluates every (date, family, target, coalition) of a request as one
    grid, with one quantile root and one truncated mean per block of dates.
    """

    def __init__(self, weights, components):
        self.weights = np.atleast_2d(np.asarray(weights, dtype=float))
        if self.weights.ndim != 2 or self.weights.shape[1] != len(components):
            raise ValueError("weights must be T x L with one column per component")
        _check_probability_rows(self.weights, 1e-10, "weights at date {}")
        self.mu, self.sigma, _, self.nu = _stack_mvt(components)
        self.sd = np.sqrt(np.diagonal(self.sigma, axis1=1, axis2=2))
        with np.errstate(divide="ignore"):
            self.log_weights = np.log(self.weights)
        self._levels = {}
        p = self.dim
        d = p - 1
        # p x d  row i: the players of target i, its other series in ascending order
        self.others = np.arange(d) + (np.arange(d) >= np.arange(p)[:, None])
        s22 = self.sigma[:, self.others[:, :, None], self.others[:, None, :]].swapaxes(0, 1)
        s21 = self.sigma[:, self.others, np.arange(p)[:, None]].swapaxes(0, 1)
        chol = np.linalg.cholesky(s22)
        reg = np.linalg.solve(s22, s21[..., None])[..., 0]
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
        schur = np.diagonal(self.sigma, axis1=1, axis2=2).T - np.sum(reg * s21, axis=-1)
        # Row i belongs to target i; the singleton axis after it broadcasts over coalitions.
        self._mu_cond = self.mu[:, self.others].swapaxes(0, 1)[:, None]  # p x 1 x L x d
        self._mu_target = self.mu.T[:, None]  # p x 1 x L
        self._chol = chol[:, None]  # p x 1 x L x d x d  lower Cholesky factor of S22
        self._reg = reg[:, None]  # p x 1 x L x d  regression row S12 S22^{-1}
        self._schur = schur[:, None]  # p x 1 x L  S11 - S12 S22^{-1} S21
        self._log_const = _mvt_log_norm(self.nu, d, logdet)[:, None]  # p x 1 x L

    @classmethod
    def from_fit(cls, fit: FitResult):
        """Engine over each date's one-step-ahead predictive mixture (filtered probabilities)."""
        return cls(predictive_weights(fit.filtered, fit.model.transition), fit.model.regimes)

    @classmethod
    def from_mixture(cls, mix: PredictiveMixture):
        """Engine over a single predictive mixture (T = 1)."""
        return cls(mix.weights, mix.components)

    @property
    def dim(self) -> int:
        return self.mu.shape[1]

    def _date_blocks(self, cells: int):
        """Slices of consecutive dates holding at most ROW_BUDGET cells, cells per date."""
        step = max(1, ROW_BUDGET // max(1, cells))
        return [slice(lo, lo + step) for lo in range(0, self.weights.shape[0], step)]

    def solve_levels(self, taus, es: bool = False) -> None:
        """Marginal VaR (and with es, ES) of every date and series at each uncached tau.

        The VaR levels of all new taus are one batched root, their ES levels
        one batched truncated mean, each per block of dates.  With es, every
        component's nu must exceed 1, which is checked before any root.
        """
        _check_levels(taus)
        if es:
            _check_nu(self.nu, 1.0, "ES")
        taus = sorted({float(t) for t in taus})
        t_len, n_comp = self.weights.shape
        mu, sd = self.mu.T[None, :, None, :], self.sd.T[None, :, None, :]
        for kind in ("var", "es") if es else ("var",):
            new = [t for t in taus if (kind, t) not in self._levels]
            if not new:
                continue
            out = np.empty((t_len, self.dim, len(new)))
            for dates in self._date_blocks(self.dim * len(new) * n_comp):
                # (date, series, tau) rows of the marginal mixtures of these dates
                rows = (self.weights[dates, None, None, :], mu, sd, self.nu)
                if kind == "var":
                    out[dates] = batched_mixture_quantile(*rows, np.array(new))
                else:
                    cut = np.stack([self._levels["var", t][dates] for t in new], axis=-1)
                    out[dates] = batched_mixture_truncated_mean(*rows, cut)
            for k, tau in enumerate(new):
                self._levels[kind, tau] = out[:, :, k]

    def level(self, kind: str, tau: float) -> np.ndarray:
        """T x p marginal VaR ('var') or ES ('es') levels at tau."""
        key = (kind, float(tau))
        if key not in self._levels:
            self.solve_levels([tau], es=kind == "es")
        return self._levels[key]

    def _conditional(self, targets, x, dates=slice(None)):
        """Targets' conditional mixtures at conditioning vectors x (n, F, P, C, d).

        Axis 0 of x runs over the given dates and axis 2 over targets (P
        series indices); x[:, :, j] holds values of the other series of
        targets[j], in ascending order.  Per component the exact
        conditional t is formed and the date's weight is reweighted by the
        component's marginal density at x, in log space.  Returns the
        component weights, conditional locations and scales, each
        (n, F, P, C, L); the conditional degrees of freedom are nu + d.
        """
        mu_cond, chol, reg = self._mu_cond[targets], self._chol[targets], self._reg[targets]
        d = self.dim - 1
        dev = [x[..., k, None] - mu_cond[..., k] for k in range(d)]
        z = []
        for r in range(d):
            acc = dev[r]
            for k in range(r):
                acc = acc - chol[..., r, k] * z[k]
            z.append(acc / chol[..., r, r])
        maha = sum(zk * zk for zk in z)
        loc = self._mu_target[targets] + sum(reg[..., k] * dev[k] for k in range(d))
        scale = np.sqrt((self.nu + maha) / (self.nu + d) * self._schur[targets])
        log_w = (
            self.log_weights[dates, None, None, None, :]
            + self._log_const[targets] - 0.5 * (self.nu + d) * np.log1p(maha / self.nu)
        )
        w = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        return w, loc, scale

    def coalition_values(self, targets, measures, tau1: float, tau2: float,
                         coalitions) -> np.ndarray:
        """Multiple-CoVaR / -CoES of each target for each distress coalition and date.

        targets is a sequence of series indices and measures a sequence of
        families ('covar', 'coes').  coalitions is a (C, p - 1) boolean
        array over each target's other series in ascending order: a member
        sits at its tau2 level, a non-member at its 0.5 level (VaR levels
        for 'covar', ES levels for 'coes').  CoVaR is the conditional law's
        tau1-quantile and CoES its mean below that quantile.  Returns a
        T x F x P x C array, F = len(measures) and P = len(targets), in the
        order given.
        """
        measures = tuple(measures)
        targets = np.array([_check_index(i, self.dim) for i in targets], dtype=int)
        for m in measures:
            if m not in MEASURES:
                raise ValueError("measure must be 'covar' or 'coes'")
        if self.dim < 2:
            raise ValueError("co-risk measures need at least two series")
        masks = np.asarray(coalitions, dtype=bool)
        d = self.dim - 1
        if masks.ndim != 2 or masks.shape[0] == 0 or masks.shape[1] != d:
            raise ValueError(
                f"coalitions must be a nonempty (C, {d}) boolean array, got shape {masks.shape}"
            )
        _check_levels((tau1, tau2), "tail levels")
        self.solve_levels((tau2, 0.5), es="coes" in measures)
        kinds = ["var" if m == "covar" else "es" for m in measures]
        others = self.others[targets]
        distress = np.stack([self.level(k, tau2)[:, others] for k in kinds], axis=1)
        normal = np.stack([self.level(k, 0.5)[:, others] for k in kinds], axis=1)
        coes = [f for f, m in enumerate(measures) if m == "coes"]
        t_len, n_comp = self.weights.shape
        out = np.empty((t_len, len(measures), targets.size, masks.shape[0]))
        nu = self.nu + d
        for dates in self._date_blocks(len(measures) * targets.size * len(masks) * n_comp):
            x = np.where(masks, distress[dates, :, :, None, :], normal[dates, :, :, None, :])
            w, loc, scale = self._conditional(targets, x, dates)
            block = out[dates]
            block[:] = batched_mixture_quantile(w, loc, scale, nu, tau1)
            if coes:
                block[:, coes] = batched_mixture_truncated_mean(
                    w[:, coes], loc[:, coes], scale[:, coes], nu, block[:, coes]
                )
        return out


def _query_values(mix: PredictiveMixture, q: RiskQuery, measure: str,
                  baseline: bool) -> np.ndarray:
    """Measure at the query's distress set and, with baseline, at the empty set."""
    for j in (q.target, *q.distress):
        _check_index(j, mix.dim)
    if baseline and not q.distress:
        raise ValueError("Delta measures need a nonempty distress set")
    engine = CoRiskEngine.from_mixture(mix)
    mask = np.isin(engine.others[q.target], q.distress)
    masks = [mask, np.zeros_like(mask)] if baseline else [mask]
    return engine.coalition_values((q.target,), (measure,), q.tau1, q.tau2, masks)[0, 0, 0]


def _marginal(mix: PredictiveMixture, i: int) -> list:
    """(location, scale, nu) of every component's i-th marginal."""
    i = _check_index(i, mix.dim)
    return [(c.mu[i], np.sqrt(c.sigma[i, i]), c.nu) for c in mix.components]


def marginal_var(mix: PredictiveMixture, i: int, tau: float) -> float:
    """tau-quantile of the i-th marginal of the predictive mixture."""
    return mixture_quantile(mix.weights, _marginal(mix, i), tau)


def marginal_es(mix: PredictiveMixture, i: int, tau: float) -> float:
    """tau-level Expected Shortfall of the i-th marginal."""
    return mixture_es(mix.weights, _marginal(mix, i), tau)


def conditional_mixture(mix: PredictiveMixture, target: int, cond_idx, cond_values):
    """Univariate mixture of the target given a point on the coordinates cond_idx.

    The engine's T=1 case on the components marginalised to the target and
    cond_idx: per component the exact conditional t, with the weights
    reweighted by each component's marginal density at the point.

    Returns (weights, [(mu, sigma, nu), ...]).
    """
    target = _check_index(target, mix.dim)
    cond_idx = _coordinates(cond_idx, mix.dim, "cond_idx").tolist()
    cond_values = np.asarray(cond_values, dtype=float)
    if cond_values.shape != (len(cond_idx),):
        raise ValueError("cond_values must match cond_idx in length")
    # marginal_mvt rejects the target repeated in cond_idx
    keep = sorted([target, *cond_idx])
    engine = CoRiskEngine(mix.weights, [marginal_mvt(c, keep) for c in mix.components])
    x = cond_values[np.argsort(cond_idx)][None, None, None, None]
    w, loc, scale = engine._conditional([keep.index(target)], x)
    nu = engine.nu + len(cond_idx)
    return w[0, 0, 0, 0], [
        tuple(map(float, c)) for c in zip(loc[0, 0, 0, 0], scale[0, 0, 0, 0], nu)
    ]


def multiple_covar(mix: PredictiveMixture, q: RiskQuery) -> float:
    """Multiple-CoVaR: tau1-quantile of the target given the conditioning slice.

    Distress coordinates sit at their individual tau2 VaR and the rest at
    their median, both from the full predictive marginal.
    """
    return float(_query_values(mix, q, "covar", baseline=False)[0])


def multiple_coes(mix: PredictiveMixture, q: RiskQuery) -> float:
    """Multiple-CoES: tail mean of the target given the conditioning slice.

    Conditioning coordinates sit at their ES levels (tau2 for the distress
    set, 0.5 for the rest), and the mean is taken below the conditional
    law's own tau1-quantile, its Multiple-CoVaR.
    """
    return float(_query_values(mix, q, "coes", baseline=False)[0])


def delta_m_covar(mix: PredictiveMixture, q: RiskQuery) -> float:
    """Multiple-Delta-CoVaR: distress measure minus the all-at-median baseline."""
    values = _query_values(mix, q, "covar", baseline=True)
    return float(values[0] - values[1])


def delta_m_coes(mix: PredictiveMixture, q: RiskQuery) -> float:
    """Multiple-Delta-CoES: distress measure minus the all-at-median-ES baseline."""
    values = _query_values(mix, q, "coes", baseline=True)
    return float(values[0] - values[1])


def total_risk_series(fit: FitResult, measure: str = "both", tau1: float = 0.05,
                      tau2: float = 0.05):
    """Per-sector total risk: the Multiple measure with every other sector distressed.

    Returns one RiskSeries per sector, evaluated on the one-step-ahead
    predictive mixture from the filtered probabilities at each in-sample
    time index.  measure selects which of the CoVaR / CoES families to
    compute ('covar', 'coes' or 'both'); marginal VaR/ES at tau1 are always
    included.
    """
    if measure not in ("covar", "coes", "both"):
        raise ValueError("measure must be 'covar', 'coes' or 'both'")
    engine = CoRiskEngine.from_fit(fit)
    p = engine.dim
    families = MEASURES if measure == "both" else (measure,)
    # grand coalition and the all-at-median baseline
    masks = np.array([[True] * (p - 1), [False] * (p - 1)])
    # the tau1 levels are the var and es columns; one root solves them with the others
    engine.solve_levels((tau1, tau2, 0.5), es=measure != "covar")
    values = engine.coalition_values(range(p), families, tau1, tau2, masks)
    var, es = engine.level("var", tau1), engine.level("es", tau1)
    out = []
    for i in range(p):
        series = RiskSeries(
            target=i,
            distress=tuple(engine.others[i].tolist()),
            tau1=tau1,
            tau2=tau2,
            var=var[:, i].copy(),
            es=es[:, i].copy(),
        )
        for f, family in enumerate(families):
            grand, base = values[:, f, i, 0], values[:, f, i, 1]
            setattr(series, family, grand)
            setattr(series, "delta_" + family, grand - base)
        out.append(series)
    return out


def marginalize_fit(fit: FitResult, indices) -> FitResult:
    """Restrict a fitted model to a coordinate subset.

    The hidden chain (and hence filtered/smoothed probabilities) is
    unchanged; regime emissions become their marginals on the kept
    coordinates.  The log-likelihood no longer applies and is set to NaN.
    """
    idx = _coordinates(indices, fit.model.dim, "indices")
    model = MsTModel(
        [marginal_mvt(r, idx) for r in fit.model.regimes],
        fit.model.transition,
        fit.model.initial,
    )
    return FitResult(
        model=model,
        loglik=float("nan"),
        iterations=fit.iterations,
        converged=fit.converged,
        smoothed=fit.smoothed,
        filtered=fit.filtered,
    )


def standard_pairwise_delta(fit_bivariate: FitResult, target: int, measure: str = "covar",
                            tau1: float = 0.05, tau2: float = 0.05) -> np.ndarray:
    """Standard (single-conditioner) Delta series from a bivariate fit.

    target is the column (0 or 1) of the bivariate model whose risk is
    measured; the other column is the lone conditioner.  Used for
    comparison against the Shapley share of the same pair inside the full
    model; the two coincide only under conditional independence.
    """
    if fit_bivariate.model.dim != 2:
        raise ValueError("standard pairwise Delta needs a bivariate model")
    engine = CoRiskEngine.from_fit(fit_bivariate)
    values = engine.coalition_values((target,), (measure,), tau1, tau2, [[True], [False]])
    return values[:, 0, 0, 0] - values[:, 0, 0, 1]


def write_risk_csv(path, dates, names, series_list) -> None:
    """Risk series CSV: (date, target, distress_set, measure, tau1, tau2, value).

    The distress set is encoded as the sorted member names joined by '+'.
    """
    _write_blocks(
        path, ["date", "target", "distress_set", "measure", "tau1", "tau2", "value"], dates,
        [((names[s.target], "+".join(sorted(names[j] for j in s.distress)), label,
           s.tau1, s.tau2), (getattr(s, label),))
         for s in series_list
         for label in ("var", "es", "covar", "coes", "delta_covar", "delta_coes")
         if getattr(s, label) is not None],
    )

"""L-state multivariate Student-t Markov-switching model.

Forward-backward state inference by one work-efficient odd-even scan that
serves both directions (about T matrix products up, then T vector-matrix
products down for the forward rows and T for the backward columns; no
T x L x L prefix array), AECM estimation (gamma-scale weighted moments
and expected transition counts, then one batched Halley solve of every
regime's marginal-likelihood score in nu), information-criterion
state-count selection, and JSON serialization of fitted models.
Per-time reductions over the short state axis are matrix-vector products
or reductions over the leading axis of an L x T array.

EM iterates on stacked arrays (_Params) and builds or checks no model
object in its loop: MvtParams and MsTModel are validated where a model
enters the library and once at a fit's result.

Transition-matrix orientation: rows index the from-state and columns the
to-state, i.e. transition[i, j] = P(S_t = j | S_{t-1} = i).
"""

from __future__ import annotations

import json
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .panel import SCHEMA, ReturnPanel, _read_json
from .studentt import (MvtParams, _bracketed_newton, _check_probability_rows, _digamma_gaps,
                       _stack_mvt, _stacked_logpdf, _stacked_mahalanobis)

NU_MIN = 2.1
NU_MAX = 200.0


class RegimeCollapseError(RuntimeError):
    """A regime lost essentially all posterior mass during estimation."""


class LikelihoodDecreaseError(RuntimeError):
    """The EM log-likelihood fell between iterations by more than rounding slack."""


@dataclass(frozen=True)
class MsTModel:
    """Regime parameters plus hidden-chain transition matrix and initial law.

    Each row of the transition matrix and the initial law must be a
    probability row: finite entries in [0, 1] that sum to 1 within 1e-12.
    """

    regimes: tuple
    transition: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        regimes = tuple(self.regimes)
        q = np.atleast_2d(np.asarray(self.transition, dtype=float))
        delta = np.atleast_1d(np.asarray(self.initial, dtype=float))
        object.__setattr__(self, "regimes", regimes)
        object.__setattr__(self, "transition", q)
        object.__setattr__(self, "initial", delta)
        L = len(regimes)
        if L == 0:
            raise ValueError("at least one regime required")
        dims = {r.dim for r in regimes}
        if len(dims) != 1:
            raise ValueError("regimes disagree in dimension")
        for l, r in enumerate(regimes):
            if r.nu < NU_MIN:
                raise ValueError(f"regime {l} has nu={r.nu} < {NU_MIN}")
        if q.shape != (L, L):
            raise ValueError(f"transition matrix must be {L}x{L}")
        _check_probability_rows(q, 1e-12, "row {} of transition matrix Q")
        if delta.shape != (L,):
            raise ValueError(f"initial distribution must hold {L} probabilities")
        _check_probability_rows(delta[None], 1e-12, "initial distribution delta")

    @property
    def n_states(self) -> int:
        return len(self.regimes)

    @property
    def dim(self) -> int:
        return self.regimes[0].dim


# Stacked parameters of an L-state model as EM carries them, unvalidated: mu
# (L x p), sigma and its lower Cholesky factors chol (L x p x p), nu, Q, delta
# and, from an M-step, the L x T Mahalanobis forms of the panel (else None).
_Params = namedtuple("_Params", "mu sigma chol nu transition initial maha", defaults=(None,))


def _stack(model: MsTModel) -> _Params:
    return _Params(*_stack_mvt(model.regimes), model.transition, model.initial)


@dataclass
class FitResult:
    """Estimation output: model, likelihood path and state probabilities."""

    model: MsTModel
    loglik: float
    iterations: int
    converged: bool
    smoothed: np.ndarray
    filtered: np.ndarray
    loglik_path: np.ndarray = field(default_factory=lambda: np.array([]))


@dataclass
class SelectionRow:
    L: int
    loglik: float
    k: int
    aic: float
    bic: float
    error: str = ""


@dataclass
class SelectionTable:
    rows: list
    chosen: int
    criterion: str


def _observations(panel) -> np.ndarray:
    """T x p observations of a ReturnPanel (validated on construction) or a raw array."""
    if isinstance(panel, ReturnPanel):
        return panel.returns
    y = np.asarray(panel, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"observations must be a T x p array, got shape {y.shape}")
    bad = np.argwhere(~np.isfinite(y))
    if bad.size:
        row, col = bad[0]
        raise ValueError(
            f"observations must be finite: {y[row, col]!r} at row {row}, column {col}"
        )
    return y


def _scan_rows(seed, m):
    """Prefix rows and suffix columns of a stack, each scaled to unit sum.

    m is a stack of N non-negative L x L matrices.  Returns (rows,
    log_scale, cols) of shapes (N + 1) x L, N + 1 and (N + 1) x L: rows[t]
    is the row seed @ m[0] @ ... @ m[t-1] and cols[t] the column
    m[t] @ ... @ m[N-1] @ 1, both divided by the sum of their entries; the
    true row is rows[t] * exp(log_scale[t]).  Work-efficient odd-even scan
    (Ladner & Fischer 1980) with one up-sweep for both directions: the
    up-sweep multiplies adjacent pairs m[0] m[1], m[2] m[3], ... (about N
    matrix products over all levels), and the scan of that half-length stack
    gives the even-indexed rows and columns.  Two down-sweeps then fill the
    odd-indexed ones: row 2k+1 is row 2k times m[2k], column 2k+1 is m[2k+1]
    times column 2k+2, one batched vector-matrix product each (about N per
    direction over all levels).  On an odd-length level the unpaired last
    matrix times the level's tail column becomes the tail column of the pair
    level.  No stack of prefix or suffix matrices is built.  Every pair
    product, row and column is divided by the sum of its entries; only the
    rows carry the log of that sum.  All entries are non-negative, so nothing
    cancels and the relative error grows only with the depth.
    """
    n = len(seed)
    ones = np.ones(n)
    pair_ones = np.ones(n * n)

    def scan(m, m_log, tail):
        # m_log[k] is the log of the factor divided out of m[k]; tail is the
        # unit-sum column that m[-1] multiplies.
        if len(m) == 0:
            total = seed.sum()
            return (seed / total)[None], np.array([np.log(total)]), tail[None]
        pairs = np.matmul(m[0:-1:2], m[1::2])
        pair_total = pairs.reshape(len(pairs), n * n) @ pair_ones
        pairs /= pair_total[:, None, None]
        pair_tail = tail
        if len(m) % 2:
            pair_tail = m[-1] @ tail
            pair_tail /= pair_tail @ ones
        even, even_log, even_cols = scan(
            pairs, np.log(pair_total) + m_log[0:-1:2] + m_log[1::2], pair_tail
        )
        n_odd = (len(m) + 1) // 2
        odd = np.einsum("ti,tij->tj", even[:n_odd], m[0::2])
        odd_total = odd @ ones
        odd_cols = np.einsum("tij,tj->ti", m[1::2], even_cols[1:])
        rows = np.empty((len(m) + 1, n))
        log_scale = np.empty(len(m) + 1)
        cols = np.empty((len(m) + 1, n))
        rows[0::2] = even
        rows[1::2] = odd / odd_total[:, None]
        log_scale[0::2] = even_log
        log_scale[1::2] = even_log[:n_odd] + np.log(odd_total) + m_log[0::2]
        cols[0::2] = even_cols
        cols[1:-1:2] = odd_cols / (odd_cols @ ones)[:, None]
        cols[-1] = tail
        return rows, log_scale, cols

    return scan(m, np.zeros(len(m)), ones / n)


def _forward_backward(log_b, transition, initial):
    """State posteriors (loglik, smoothed, filtered, successor) from L x T log-emissions.

    With emissions shifted by their per-time maximum, b_t = exp(log b_t -
    shift_t), the forward variable is the row
    alpha_t = (delta * b_0) @ m[1] @ ... @ m[t] and the backward variable the
    column beta_t = m[t+1] @ ... @ m[T-1] @ 1 of the one stack
    m[t] = Q diag(b_t), t = 1..T-1, both from a single _scan_rows call (no
    loop over T).  beta is scaled to unit sum; its scale cancels in every
    posterior.  successor[t] = (b * beta)[t+1] / z_t with
    z_t = sum_j (alpha_t Q)_j (b * beta)[t+1, j], so that
    P(S_t = i, S_{t+1} = j | I_T) = alpha_t,i Q_ij successor[t, j].
    """
    shift = log_b.max(axis=0)
    b = np.exp(log_b - shift).T
    m = transition * b[1:, None, :]
    filtered, log_scale, beta = _scan_rows(initial * b[0], m)
    loglik = float(log_scale[-1] + shift.sum())
    ones = np.ones(len(initial))
    post = filtered * beta
    smoothed = post / (post @ ones)[:, None]
    ahead = b[1:] * beta[1:]
    z = ((filtered[:-1] @ transition) * ahead) @ ones
    return loglik, smoothed, filtered, ahead / z[:, None]


def _e_step(params: _Params, y: np.ndarray):
    """One E-step: (loglik, smoothed, counts, filtered, mahalanobis).

    counts is the L x L matrix of expected transitions
    sum_t P(S_t = i, S_{t+1} = j | I_T) = Q * (alpha[:-1].T @ successor),
    one matmul instead of a (T-1) x L x L pairwise array.  The Mahalanobis
    forms are the M-step's where it left them (params.maha), and their
    T x L transpose feeds the next M-step.
    """
    log_b, maha = _stacked_logpdf(y, params.mu, params.chol, params.nu, params.maha)
    loglik, smoothed, filtered, successor = _forward_backward(
        log_b, params.transition, params.initial
    )
    counts = params.transition * (filtered[:-1].T @ successor)
    return loglik, smoothed, counts, filtered, maha.T


def _model_posteriors(model: MsTModel, panel):
    """_forward_backward of a model on a panel checked against its dimension."""
    y = _observations(panel)
    if y.shape[1] != model.dim:
        raise ValueError(f"panel dimension {y.shape[1]} != model dimension {model.dim}")
    params = _stack(model)
    log_b, _ = _stacked_logpdf(y, params.mu, params.chol, params.nu)
    return _forward_backward(log_b, params.transition, params.initial)


def forward_loglik(model: MsTModel, panel) -> float:
    """Log-likelihood of the panel under the model, from the forward rows' log scales."""
    return _model_posteriors(model, panel)[0]


def smooth(model: MsTModel, panel):
    """Forward-backward state inference.

    Returns (smoothed, pairwise, filtered):
      smoothed  T x L    P(S_t = l | I_T)
      pairwise  (T-1) x L x L   P(S_t = i, S_{t+1} = j | I_T)
      filtered  T x L    P(S_t = l | I_t)
    """
    _, smoothed, filtered, successor = _model_posteriors(model, panel)
    pairwise = filtered[:-1, :, None] * model.transition * successor[:, None, :]
    return smoothed, pairwise, filtered


def fit_from_model(model: MsTModel, panel) -> FitResult:
    """FitResult of a known model from one forward-backward pass (no estimation)."""
    loglik, smoothed, filtered, _ = _model_posteriors(model, panel)
    return FitResult(
        model=model, loglik=loglik, iterations=0, converged=True,
        smoothed=smoothed, filtered=filtered,
    )


def param_count(L: int, p: int) -> int:
    """Free parameters: L regimes (mu, sigma, nu) + transitions + initial law."""
    return L * (p + p * (p + 1) // 2 + 1) + L * (L - 1) + (L - 1)


def _warn_small_sample(k: int, t_len: int):
    if t_len <= k:
        message = f"sample size T={t_len} does not exceed parameter count k={k}"
        warnings.warn(message, stacklevel=3)


def _criteria(loglik: float, k: int, t_len: int):
    return float(-2.0 * loglik + 2.0 * k), float(-2.0 * loglik + k * np.log(t_len))


def information_criteria(loglik: float, k: int, t_len: int):
    """(AIC, BIC) = (-2 ll + 2k, -2 ll + k ln T); warns when T <= k."""
    _warn_small_sample(k, t_len)
    return _criteria(loglik, k, t_len)


def decompose_sigma(sigma):
    """Split a PD scale matrix into diagonal scales and a correlation matrix.

    Returns (lam, omega) with sigma = lam @ omega @ lam, lam diagonal.
    """
    sigma = np.asarray(sigma, dtype=float)
    sd = np.sqrt(np.diag(sigma))
    lam = np.diag(sd)
    omega = sigma / np.outer(sd, sd)
    np.fill_diagonal(omega, 1.0)
    return lam, omega


# --- estimation ---------------------------------------------------------


def _block_moments(y, members, p):
    block = y[members]
    mu = block.mean(axis=0)
    sigma = np.cov(block, rowvar=False)
    sigma = np.atleast_2d(sigma)
    sigma += (1e-6 * np.trace(sigma) / p + 1e-10) * np.eye(p)
    return mu, 0.5 * (sigma + sigma.T)


def _uniformish_transition(L):
    """Start transition matrix: stay with probability 0.9, else move uniformly."""
    if L == 1:
        return np.array([[1.0]])
    stay = 0.9
    q = np.full((L, L), (1.0 - stay) / (L - 1))
    np.fill_diagonal(q, stay)
    return q


def _initial_params(y, L, init, seed) -> _Params:
    t_len, p = y.shape
    if init == "pca":
        # Quantile blocks of the first principal component's scores give
        # deterministic, regime-ordered starting values.
        centered = y - y.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        scores = centered @ vt[0]
        order = np.argsort(scores)
        blocks = np.array_split(order, L)
    elif init == "random":
        rng = np.random.default_rng(seed)
        centers = y[rng.choice(t_len, size=L, replace=False)]
        dist = np.linalg.norm(y[:, None, :] - centers[None, :, :], axis=2)
        assign = np.argmin(dist, axis=1)
        blocks = [np.flatnonzero(assign == l) for l in range(L)]
        if any(b.size < p + 2 for b in blocks):
            blocks = np.array_split(rng.permutation(t_len), L)
    else:
        raise ValueError(f"unknown init {init!r}")
    mu, sigma = map(np.array, zip(*(_block_moments(y, b, p) for b in blocks)))
    q, delta = _uniformish_transition(L), np.full(L, 1.0 / L)
    return _Params(mu, sigma, np.linalg.cholesky(sigma), np.full(L, 8.0), q, delta)


def _nu_step(maha, w, nu_old, p):
    """Each regime's nu in [NU_MIN, NU_MAX] maximising sum_t w_t log t_p(y_t; mu, sigma, nu).

    maha (L x T) holds the Mahalanobis forms under (mu, sigma), w (L x T x 1)
    the weights gamma / n, which sum to 1.  With r = maha / (nu + maha) and
    S_k = sum w r^k, minus twice the score, psi(nu/2) - psi((nu+p)/2) + p/nu
    + sum w log(1 + maha/nu) - (nu+p)/nu S_1, has the slope
    (psi'(nu/2) - psi'((nu+p)/2))/2 - N/nu^2, N = p - 2p S_1 + (nu+p) S_2,
    and, as dS_1/dnu = -(S_1 - S_2)/nu and dS_2/dnu = -2(S_2 - S_3)/nu, the
    curvature (psi''(nu/2) - psi''((nu+p)/2))/4 - N'/nu^2 + 2N/nu^3.  The
    psi differences come from _digamma_gaps, the shift-and-asymptotic forms
    of AS 103 (Bernardo 1976) and AS 121 (Schneider 1978) taken on the
    differences themselves.  _bracketed_newton solves each regime from its
    nu_old, clipped to the bracket, to 1e-10; a regime whose score keeps its
    sign on the bracket takes the bound its steps reach.
    """
    L = len(nu_old)

    def minus_score(nu, rows):
        m, col = maha[rows], nu[:, None]
        terms = np.empty((len(m), 4, m.shape[1]))
        np.log1p(np.divide(m, col, out=terms[:, 0]), out=terms[:, 0])
        r = np.divide(m, np.add(col, m, out=terms[:, 1]), out=terms[:, 1])
        np.multiply(r, r, out=terms[:, 2])
        np.multiply(terms[:, 2], r, out=terms[:, 3])
        sum_log, s1, s2, s3 = np.matmul(terms, w[rows])[..., 0].T
        psi_gap, trigamma_gap, tetragamma_gap = _digamma_gaps(0.5 * nu, 0.5 * p)
        nu_p = nu + p
        n = p - 2.0 * p * s1 + nu_p * s2
        dn = s2 + 2.0 * (p * (s1 - s2) - nu_p * (s2 - s3)) / nu
        value = psi_gap + p / nu + sum_log - nu_p / nu * s1
        slope = 0.5 * trigamma_gap - n / (nu * nu)
        curvature = 0.25 * tetragamma_gap - (dn - 2.0 * n / nu) / (nu * nu)
        return value, slope, curvature

    a, b = np.full(L, NU_MIN), np.full(L, NU_MAX)
    return _bracketed_newton(minus_score, np.clip(nu_old, NU_MIN, NU_MAX), a, b, 1e-10)


def _m_step(y, params, smoothed, counts, maha):
    """One AECM M-step of two conditional maximisations (CM), neither lowering the likelihood.

    CM 1, with states and gamma scales missing: u-weighted moments for (mu,
    sigma), expected counts for (Q, delta).  CM 2, with u integrated out:
    _nu_step at the new (mu, sigma), whose forms (one batched Cholesky,
    LinAlgError if a sigma is not PD) go on to the E-step.  A regime whose
    mass falls below p + 2 observations, or whose sigma has a condition
    number above 1e12, raises RegimeCollapseError.
    """
    p, L = y.shape[1], len(params.nu)
    mu, sigma, n = np.empty((L, p)), np.empty((L, p, p)), np.empty(L)
    for l, nu in enumerate(params.nu):
        gam = smoothed[:, l]
        n[l] = n_l = gam.sum()
        if n_l < p + 2:
            raise RegimeCollapseError(
                f"regime {l} holds mass {n_l:.2f} < {p + 2} observations"
            )
        u = (nu + p) / (nu + maha[:, l])
        w = gam * u
        mu[l] = (w @ y) / w.sum()
        dev = y - mu[l]
        s = (w[:, None] * dev).T @ dev / n_l
        sigma[l] = 0.5 * (s + s.T)
    # Condition number above 1e12, as the eigenvalue ratio of a symmetric
    # matrix; a rounding-negative smallest eigenvalue counts as singular.
    eig = np.linalg.eigvalsh(sigma)
    collapsed = np.flatnonzero(eig[:, -1] > 1e12 * eig[:, 0])
    if collapsed.size:
        l = collapsed[0]
        values, vectors = np.linalg.eigh(sigma[l])
        column = int(np.argmax(np.abs(vectors[:, 0])))
        raise RegimeCollapseError(
            f"regime {l} collapsed onto a subspace: its scale matrix has eigenvalues "
            f"{values[0]:.3g} to {values[-1]:.3g} (condition number above 1e12), and the "
            f"smallest-eigenvalue direction loads most on column {column}"
        )
    chol = np.linalg.cholesky(sigma)
    new_maha = _stacked_mahalanobis(y, mu, chol)
    nu = _nu_step(new_maha, (smoothed / n).T[:, :, None], params.nu, p)
    # A one-state chain has counts [[T - 1]], so q is [[1.0]] exactly.
    rows = counts.sum(axis=1, keepdims=True)
    rows[rows <= 0.0] = 1.0
    q = np.clip(counts / rows, 0.0, 1.0)
    q /= q.sum(axis=1, keepdims=True)
    delta = np.clip(smoothed[0], 0.0, 1.0)
    delta /= delta.sum()
    return _Params(mu, sigma, chol, nu, q, delta, new_maha)


def _relabel(params, smoothed, filtered):
    """The fit's one MsTModel, states sorted by regime mean of the first series, descending."""
    order = np.argsort(-params.mu[:, 0], kind="stable")
    regimes = [MvtParams(params.mu[i], params.sigma[i], params.nu[i]) for i in order]
    model = MsTModel(regimes, params.transition[np.ix_(order, order)], params.initial[order])
    return model, smoothed[:, order], filtered[:, order]


def _check_integer(value, name, least=None):
    """Raise ValueError naming an argument that is not an integer (>= least, if given)."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def _fit_observations(panel, L) -> np.ndarray:
    """T x p observations of a panel to fit with L states, after the checks all starts share."""
    y = _observations(panel)
    t_len, p = y.shape
    _check_integer(L, "L", 1)
    if t_len < 10 * p:
        raise ValueError(f"fitting guard: T={t_len} < 10 p={10 * p}")
    # each regime's M-step needs p + 2 observations of posterior mass
    if t_len < L * (p + 2):
        raise ValueError(f"L={L} states with p={p} series need T >= L (p + 2) = "
                         f"{L * (p + 2)} observations, got T={t_len}")
    flat = np.flatnonzero(np.ptp(y, axis=0) == 0.0)
    if flat.size:
        j = flat[0]
        where = f"series {panel.names[j]!r}" if isinstance(panel, ReturnPanel) else f"column {j}"
        raise ValueError(f"{where} is constant (zero variance) and cannot be fitted")
    return y


def em_fit(panel, L, *, init="pca", seed=None, tol=1e-8, max_iter=2000) -> FitResult:
    """AECM estimation (Meng & van Dyk 1997) of the L-state Student-t Markov-switching model.

    E-step: forward-backward state posteriors gamma and gamma-scale weights
    u = (nu + p) / (nu + mahalanobis).  CM 1 raises the expected
    complete-data log-likelihood in (mu, sigma, Q, delta), states and u
    missing, so by the EM inequality it also raises Q_S, its version with u
    integrated out; CM 2 maximises Q_S in each nu on [2.1, 200] (ECME, Liu &
    Rubin 1995), so the log-likelihood cannot fall.  Every M-step is taken
    as computed: a regime that loses its mass or whose sigma degenerates
    (condition number above 1e12) raises RegimeCollapseError rather than
    being adjusted.  A fall beyond 1e-8 relative slack, which only rounding
    can cause, raises LikelihoodDecreaseError; iteration stops when the
    relative change drops below tol.
    """
    y = _fit_observations(panel, L)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if seed is not None:
        _check_integer(seed, "seed", 0)
    params = _initial_params(y, L, init, seed)
    path, prev, converged, iterations = [], -np.inf, False, 0
    for it in range(max_iter):
        loglik, smoothed, counts, filtered, maha = _e_step(params, y)
        slack = 1e-8 * (1.0 + abs(prev))
        if loglik < prev - slack:
            raise LikelihoodDecreaseError(
                f"log-likelihood decreased at iteration {it}: {prev} -> {loglik}"
            )
        path.append(loglik)
        iterations = it
        if it > 0 and abs(loglik - prev) <= tol * (1.0 + abs(loglik)):
            converged = True
            break
        prev = loglik
        params = _m_step(y, params, smoothed, counts, maha)
    else:
        # max_iter exhausted after an M-step: resynchronize posteriors.
        loglik, smoothed, _, filtered, _ = _e_step(params, y)
        path.append(loglik)
        iterations = max_iter

    model, smoothed, filtered = _relabel(params, smoothed, filtered)
    return FitResult(
        model=model, loglik=float(loglik), iterations=iterations, converged=converged,
        smoothed=smoothed, filtered=filtered, loglik_path=np.array(path),
    )


def fit_restarts(panel, L, n_restarts=1, seed=0) -> FitResult:
    """Best-of-n estimation across deterministic-seeded initializations.

    Each start is one em_fit at its default tolerance and iteration cap.
    The first start is the deterministic PCA-block initialization; start
    r = 1, 2, ... uses seeded nearest-center assignments with seed + r.
    Arguments are checked before any start runs, and T <= k (free
    parameters) warns once.  Starts that collapse, whose log-likelihood
    decreases or that fail numerically are skipped; if every start fails,
    a RuntimeError names the last error.
    """
    _check_integer(n_restarts, "n_restarts", 1)
    _check_integer(seed, "seed", 0)
    t_len, p = _fit_observations(panel, L).shape
    _warn_small_sample(param_count(L, p), t_len)
    best = None
    last_error = None
    for r in range(n_restarts):
        init = "pca" if r == 0 else "random"
        try:
            fit = em_fit(panel, L, init=init, seed=seed + r)
        except (RegimeCollapseError, LikelihoodDecreaseError, np.linalg.LinAlgError) as exc:
            last_error = exc
            continue
        if best is None or fit.loglik > best.loglik:
            best = fit
    if best is None:
        raise RuntimeError(f"all {n_restarts} restarts failed: {last_error}")
    return best


def select_L(panel, L_range, criterion="aic", *, n_restarts=3, seed=0) -> SelectionTable:
    """Fit each candidate state count and pick the criterion minimizer.

    Each candidate is one fit_restarts(panel, L, n_restarts, seed).  The
    data and every candidate are checked once, before the sweep; fit
    failures are recorded per row and excluded from the choice.
    """
    L_range = list(L_range)
    if not L_range:
        raise ValueError("empty L range")
    if criterion not in ("aic", "bic"):
        raise ValueError("criterion must be 'aic' or 'bic'")
    for L in L_range:
        _check_integer(L, "L", 1)
    _check_integer(n_restarts, "n_restarts", 1)
    _check_integer(seed, "seed", 0)
    t_len, p = _fit_observations(panel, max(L_range)).shape
    rows = []
    for L in L_range:
        k = param_count(L, p)
        try:
            fit = fit_restarts(panel, L, n_restarts=n_restarts, seed=seed)
        except RuntimeError as exc:
            rows.append(SelectionRow(L, np.nan, k, np.nan, np.nan, error=str(exc)))
            continue
        aic, bic = _criteria(fit.loglik, k, t_len)  # fit_restarts warned for T <= k
        rows.append(SelectionRow(L, fit.loglik, k, aic, bic))
    usable = [r for r in rows if not r.error]
    if not usable:
        errors = "; ".join(f"L={r.L}: {r.error}" for r in rows)
        raise RuntimeError(f"every candidate L failed to fit ({errors})")
    chosen = min(usable, key=lambda r: getattr(r, criterion)).L
    return SelectionTable(rows=rows, chosen=chosen, criterion=criterion)


# --- serialization ------------------------------------------------------


def model_to_dict(model: MsTModel, *, labels=None, loglik=None, t_len=None) -> dict:
    """The msrisk/1 JSON document of a model.

    Sigma and Q are flattened row-major.  labels defaults to y1..yp, and
    loglik and t_len (the sample length T) are stored as given.
    """
    p = model.dim
    L = model.n_states
    return {
        "schema": SCHEMA,
        "L": L,
        "p": p,
        "regimes": [
            {"mu": r.mu.tolist(), "sigma": r.sigma.reshape(-1).tolist(), "nu": r.nu}
            for r in model.regimes
        ],
        "Q": model.transition.reshape(-1).tolist(),
        "delta": model.initial.tolist(),
        "labels": list(labels) if labels is not None else [f"y{i+1}" for i in range(p)],
        "loglik": loglik,
        "k": param_count(L, p),
        "T": t_len,
    }


def _numbers(value, shape, name):
    """A model entry as a float array of the given shape, else a ValueError naming it."""
    size = int(np.prod(shape))
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a list of {size} numbers") from None
    if array.size != size:
        raise ValueError(f"{name} must hold {size} numbers, got {array.size}")
    return array.reshape(shape)


def model_from_dict(doc: dict):
    """Inverse of model_to_dict; returns (model, metadata dict).

    A document that is not an object, carries another schema, lacks one of
    L, p, regimes, Q and delta, has an L or p that is not a positive
    integer, lists other than L regimes, holds a regime without mu, sigma
    and nu or with a nu that is not a finite number, or has a mu, sigma,
    Q or delta that is not p, p x p, L x L or L numbers is a ValueError
    naming what is wrong.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a model file must hold a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"model schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    for key in ("L", "p", "regimes", "Q", "delta"):
        if key not in doc:
            raise ValueError(f"model file has no {key!r}")
    L, p = doc["L"], doc["p"]
    if not (type(L) is int and L >= 1 and type(p) is int and p >= 1):
        raise ValueError(f"model 'L' and 'p' must be positive integers, got {L!r} and {p!r}")
    if not isinstance(doc["regimes"], list) or len(doc["regimes"]) != L:
        raise ValueError(f"model 'regimes' must list L={L} regimes")
    regimes = []
    for l, r in enumerate(doc["regimes"]):
        if not isinstance(r, dict) or not {"mu", "sigma", "nu"} <= r.keys():
            raise ValueError(f"model regime {l} must be an object with mu, sigma and nu")
        nu = r["nu"]
        if type(nu) not in (int, float) or not abs(nu) <= sys.float_info.max:
            raise ValueError(f"model regime {l} 'nu' must be a finite number, got {nu!r}")
        regimes.append(MvtParams(_numbers(r["mu"], (p,), f"model regime {l} 'mu'"),
                                 _numbers(r["sigma"], (p, p), f"model regime {l} 'sigma'"),
                                 nu))
    model = MsTModel(regimes, _numbers(doc["Q"], (L, L), "model 'Q'"),
                     _numbers(doc["delta"], (L,), "model 'delta'"))
    meta = {k: doc.get(k) for k in ("labels", "loglik", "k", "T", "schema")}
    return model, meta


def save_model(path, model: MsTModel, **meta) -> None:
    """Write model_to_dict(model, **meta) to path as UTF-8 JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, **meta), fh, indent=1)


def load_model(path):
    """(model, metadata) of the JSON model file at path, as model_from_dict reads it.

    A file that is not UTF-8 JSON is a ValueError naming it.
    """
    return model_from_dict(_read_json(path, "model"))

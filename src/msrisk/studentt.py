"""Multivariate and univariate Student-t kernel.

Log-densities, tail probabilities, quantiles, Expected Shortfall and exact
conditional/marginal distributions, plus quantile and ES computation for
finite mixtures of univariate t components.  All density work is done in
log space with Cholesky-based quadratic forms.  The mixture kernels are
batched, one mixture per row; the scalar mixture functions validate their
input and call them with a single row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps


@dataclass(frozen=True)
class MvtParams:
    """Parameters of one multivariate Student-t distribution.

    mu    : location vector, shape (k,)
    sigma : symmetric positive-definite scale matrix, shape (k, k)
    nu    : degrees of freedom, > 0
    """

    mu: np.ndarray
    sigma: np.ndarray
    nu: float

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "nu", float(self.nu))
        if mu.ndim != 1:
            raise ValueError("mu must be a vector")
        if not np.all(np.isfinite(mu)):
            raise ValueError(f"mu must be finite, got {mu}")
        k = mu.size
        if sigma.shape != (k, k):
            raise ValueError(f"sigma must be {k}x{k}, got {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("sigma must be finite")
        _check_nu(self.nu, 0.0, "a Student-t")
        scale = max(1.0, float(np.max(np.abs(sigma))))
        if np.max(np.abs(sigma - sigma.T)) > 1e-12 * scale:
            raise ValueError("sigma is not symmetric")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise ValueError("sigma is not positive definite") from exc
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.mu.size

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the scale matrix."""
        return self._chol


def _stack_mvt(components):
    """(mu, sigma, chol, nu) of MvtParams stacked along a leading regime axis."""
    fields = ("mu", "sigma", "chol", "nu")
    return tuple(np.array([getattr(c, f) for c in components]) for f in fields)


def _check_probability_rows(rows, tol, name):
    """Raise ValueError naming the first row of an n x L stack that is no probability row.

    A probability row has finite entries in [0, 1] that sum to 1 within tol.
    name, formatted with the index of the bad row, leads the message.
    """
    # NaN fails every comparison and an infinity one of the bounds
    ok = np.all((rows >= 0.0) & (rows <= 1.0), axis=1) & (abs(rows.sum(axis=1) - 1.0) <= tol)
    if not ok.all():
        t = int(np.argmin(ok))
        raise ValueError(f"{name.format(t)} must be finite, nonnegative and sum to 1 within "
                         f"{tol:g} with no entry above 1, got {rows[t].tolist()}")


def _check_levels(tau, name="tau"):
    """Raise ValueError naming name unless every level in tau lies strictly in (0, 1)."""
    tau = np.asarray(tau, dtype=float)
    ok = (tau > 0.0) & (tau < 1.0)  # NaN fails both
    if not ok.all():
        raise ValueError(f"{name} must lie strictly in (0, 1), got {tau[~ok][0]}")


def _check_nu(nu, least, what):
    """Raise ValueError naming the first degrees of freedom in nu not finite and above least."""
    nu = np.asarray(nu, dtype=float)
    ok = np.isfinite(nu) & (nu > least)
    if not ok.all():
        if nu.ndim == 0:
            raise ValueError(f"{what} needs a finite nu > {least:g}, got nu = {nu}")
        i = np.argmin(ok)
        raise ValueError(f"{what} needs every component nu > {least:g}, component {i} has "
                         f"nu = {nu.flat[i]}")


def _index(i, name) -> int:
    """i by operator.index, so a fractional i is a TypeError naming name, never truncated."""
    try:
        return operator.index(i)
    except TypeError:
        raise TypeError(f"{name} {i!r} cannot be interpreted as an integer") from None


def _coordinates(idx, dim, name) -> np.ndarray:
    """The int array of a nonempty set of distinct coordinates in [0, dim), entries by _index."""
    idx = [_index(i, name) for i in (idx if np.iterable(idx) else [idx])]
    if not idx or min(idx) < 0 or max(idx) >= dim or len(set(idx)) != len(idx):
        raise ValueError(f"{name} must be nonempty distinct coordinates in [0, {dim}), got {idx}")
    return np.array(idx)


# psi(x) ~ log x - 1/(2x) - sum_k B_2k / (2k x^2k), psi'(x) ~ 1/x + 1/(2x^2)
# + sum_k B_2k / x^(2k+1) and psi''(x) ~ -1/x^2 - 1/x^3 - sum_k (2k+1) B_2k /
# x^(2k+2), B_2k the Bernoulli numbers: the coefficient triples of k = 7 down
# to 1.  From x >= 10 the first terms left out are below 1e-16 of the value.
_PSI_SERIES = tuple(zip((1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12),
                        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6),
                        (1 / 2, -1 / 6, 1 / 6, -3 / 10, 5 / 6, -691 / 210, 35 / 2)))[::-1]


def _digamma_gaps(a, m):
    """psi, psi' and psi'' at a minus the same at a + m: three arrays, for a > 0 (1-d), m > 0.

    As in AS 103 (Bernardo 1976, Appl. Statist. 25, 315-317) and AS 121
    (Schneider 1978, Appl. Statist. 27, 97-99), an argument below 10 is
    shifted up by psi(x) = psi(x + 1) - 1/x, psi'(x) = psi'(x + 1) + 1/x^2
    and psi''(x) = psi''(x + 1) - 2/x^3, and the asymptotic series is taken
    there.  Both arguments shift by the same count, so each step adds -m /
    (x (x + m)), m (2x + m) / (x (x + m))^2 and -2m (3x^2 + 3xm + m^2) /
    (x (x + m))^3, whose signs never alternate, and the series are
    differenced with log x - log(x + m) as -log1p(m / x): nothing cancels.
    Within a few ulp of max(1, |value|).  Scalar math in a loop over a beats
    numpy calls on the at most 2L values of a nu step.
    """
    psi, tri, tet = [], [], []
    for x in a.tolist():
        d_psi = d_tri = d_tet = 0.0
        while x < 10.0:
            q = 1.0 / (x * (x + m))
            d_psi -= m * q
            d_tri += m * (2.0 * x + m) * q * q
            d_tet -= 2.0 * m * (3.0 * x * (x + m) + m * m) * q * q * q
            x += 1.0
        y = x + m
        sx, sy = 1.0 / (x * x), 1.0 / (y * y)
        px = py = tx = ty = ux = uy = 0.0
        for c_psi, c_tri, c_tet in _PSI_SERIES:
            px, py = px * sx + c_psi, py * sy + c_psi
            tx, ty = tx * sx + c_tri, ty * sy + c_tri
            ux, uy = ux * sx + c_tet, uy * sy + c_tet
        q = m / (x * y)
        psi.append(d_psi - math.log1p(m / x) - 0.5 * q - (px * sx - py * sy))
        tri.append(d_tri + q + 0.5 * q * (x + y) / (x * y) + (tx * sx / x - ty * sy / y))
        tet.append(d_tet - q * (x + y) / (x * y) - q * (x * x + x * y + y * y) / (x * y) ** 2
                   - (ux * sx * sx - uy * sy * sy))
    return np.array(psi), np.array(tri), np.array(tet)


# _log_gamma_ratio shifts its arguments by _GAMMA_SHIFT, where the Stirling
# series sum_k B_2k / (2k (2k - 1) x^(2k - 1)), k = 1..9, leaves out less
# than 1e-17.
_GAMMA_SHIFT = 8
_STIRLING = np.array([1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
                      -3617 / 122400, 43867 / 244188])
_STIRLING_POWERS = -1.0 - 2.0 * np.arange(_STIRLING.size)


def _log_gamma_ratio(a, m):
    """log Gamma(a + m) - log Gamma(a), elementwise for a > 0 and a scalar m > 0.

    With x = a + 8, Gamma(z + 1) = z Gamma(z) gives the value as R(x) minus
    sum_{j<8} log1p(m / (a + j)), and the Stirling series gives R(x) = log
    Gamma(x + m) - log Gamma(x) = (x + m - 1/2) log1p(m / x) + m (log x - 1)
    + S(x + m) - S(x), S the series above.  No term overflows and none
    loses the digits that a difference of two log-gammas of a large
    argument does: within about ten ulp of max(1, |value|) for a in [0.01,
    1e8] and m up to 350.
    """
    a = np.asarray(a, dtype=float)
    steps = np.arange(_GAMMA_SHIFT + 2.0)
    steps[-1] = _GAMMA_SHIFT + m
    points = a[..., None] + steps  # a, a + 1, ..., x = a + 8, x + m
    logs = np.log1p(m / points[..., :-1])
    x = points[..., _GAMMA_SHIFT]
    series = np.power(points[..., _GAMMA_SHIFT:, None], _STIRLING_POWERS) @ _STIRLING
    return ((m * (np.log(x) - 1.0) - logs[..., :-1].sum(axis=-1))
            + (x + (m - 0.5)) * logs[..., -1] + (series[..., 1] - series[..., 0]))


def _mvt_log_norm(nu, k, logdet=0.0):
    """Log normalizing constant of the k-variate Student-t.

    logdet is the log-determinant of the scale matrix (0 for the
    standardized t).  log Gamma((nu + k)/2) - log Gamma(nu/2) is
    _log_gamma_ratio, a shift-and-Stirling form after AS 103 (Bernardo
    1976) and AS 121 (Schneider 1978): it keeps its digits for very large
    nu, where a difference of two log-gammas loses them all, and for k of a
    few hundred, where the Gamma ratio itself overflows.
    """
    return _log_gamma_ratio(0.5 * nu, 0.5 * k) - 0.5 * k * np.log(nu * np.pi) - 0.5 * logdet


def _stacked_mahalanobis(x, mu, chol):
    """(L, N) Mahalanobis forms of N points x (N, k) under L stacked regimes.

    The regimes come unvalidated: mu (L, k) and lower Cholesky factors chol
    (L, k, k).  Each regime whitens the deviations by W = chol^{-1}, taken
    for all regimes by one batched inverse of the k x k factors, and a plain
    (N, k) matmul.  import msrisk leaves OpenBLAS one thread unless the
    caller set a thread variable; under a caller's threaded OpenBLAS a
    triangular solve on the N x k block would wake the worker threads, which
    then spin and double a fit's CPU time, where the matmul stays on one
    core.  One (L, N, k) matmul is slower than the loop over regimes.  W' is
    stored C-contiguous, since the matmul with a transposed view of W runs
    about 20% slower at N = 8000, k = 3.
    """
    maha = np.empty((len(mu), len(x)))
    whiten_t = np.linalg.inv(chol).transpose(0, 2, 1).copy()
    for l in range(len(mu)):
        sol = (x - mu[l]) @ whiten_t[l]
        maha[l] = np.einsum("ij,ij->i", sol, sol)
    return maha


def _stacked_logpdf(x, mu, chol, nu, maha=None):
    """(L, N) log-densities under L regimes of x (N, k) and its forms, computed unless given."""
    if maha is None:
        maha = _stacked_mahalanobis(x, mu, chol)
    k = mu.shape[1]
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    nu, log_norm = nu[:, None], _mvt_log_norm(nu, k, logdet)[:, None]
    return log_norm - 0.5 * (nu + k) * np.log1p(maha / nu), maha


def _one_regime(x, p: MvtParams):
    """_stacked_logpdf at x (k or (..., k)) under p alone, shaped like x's leading axes."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (p.dim,):
        raise ValueError(f"x has dimension {x.shape[-1:]}, expected {p.dim}")
    out = _stacked_logpdf(x.reshape(-1, p.dim), p.mu[None], p.chol[None], np.array([p.nu]))
    return [a.reshape(x.shape[:-1])[()] for a in out]


def mvt_logpdf(x, p: MvtParams):
    """Log-density of the multivariate Student-t.

    Accepts a single vector of length k or an array of shape (..., k);
    returns a scalar or an array of the leading shape respectively.
    """
    return _one_regime(x, p)[0]


def t_cdf(z, nu):
    """CDF of the standardized univariate Student-t."""
    from scipy import special

    _check_nu(nu, 0.0, "the t CDF")
    return special.stdtr(nu, z)


def t_quantile(tau, nu):
    """Quantile of the standardized univariate Student-t."""
    from scipy import special

    _check_levels(tau)
    _check_nu(nu, 0.0, "the t quantile")
    q = np.asarray(special.stdtrit(nu, tau))
    return float(q) if q.ndim == 0 else q


def t_lower_partial(z, nu):
    """Lower partial expectation of the standardized t: int_{-inf}^{z} u f(u) du.

    Closed form -f(z) * (nu + z^2) / (nu - 1); requires nu > 1.
    """
    _check_nu(nu, 1.0, "the partial expectation")
    z = np.asarray(z, dtype=float)
    log_f = _mvt_log_norm(nu, 1) - 0.5 * (nu + 1.0) * np.log1p(z * z / nu)
    return -np.exp(log_f) * (nu + z * z) / (nu - 1.0)


def t_es(tau, nu):
    """Lower-tail Expected Shortfall of the standardized t at level tau.

    ES_tau = E[Z | Z <= q_tau] = -f(q_tau)/tau * (nu + q_tau^2)/(nu - 1).
    Defined for nu > 1 only.
    """
    _check_nu(nu, 1.0, "ES")
    q = t_quantile(tau, nu)
    return float(t_lower_partial(q, nu) / tau)


def marginal_mvt(p: MvtParams, keep_idx) -> MvtParams:
    """Marginal of a multivariate t on the given coordinates (nu unchanged)."""
    keep = _coordinates(keep_idx, p.dim, "keep_idx")
    return MvtParams(p.mu[keep], p.sigma[np.ix_(keep, keep)], p.nu)


def condition_mvt(p: MvtParams, cond_idx, cond_values) -> MvtParams:
    """Exact conditional of a multivariate t given a point on a coordinate block.

    For conditioning block of size d with Mahalanobis form q of the observed
    values, the conditional of the remaining coordinates is Student-t with

        nu_c    = nu + d
        mu_c    = mu_1 + S12 S22^{-1} (y_2 - mu_2)
        sigma_c = (nu + q) / (nu + d) * (S11 - S12 S22^{-1} S21)

    All three come from the whitening W = chol(S22)^{-1} (as in the
    Mahalanobis forms): with z = W (y_2 - mu_2) and A = W S21, q = |z|^2,
    mu_c = mu_1 + A' z and the Schur complement is S11 - A' A.  The
    remaining coordinates keep their original relative order.
    """
    cond = _coordinates(cond_idx, p.dim, "cond_idx")
    values = np.atleast_1d(np.asarray(cond_values, dtype=float))
    if cond.size == p.dim:
        raise ValueError("cond_idx must leave at least one coordinate free")
    if values.shape != cond.shape:
        raise ValueError("cond_values must match cond_idx in length")
    keep = np.array([i for i in range(p.dim) if i not in set(cond.tolist())])
    d = cond.size

    s11 = p.sigma[np.ix_(keep, keep)]
    s12 = p.sigma[np.ix_(keep, cond)]
    s22 = p.sigma[np.ix_(cond, cond)]
    dev = values - p.mu[cond]
    try:
        whiten = np.linalg.inv(np.linalg.cholesky(s22))
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular conditioning block") from exc
    z = whiten @ dev
    a = whiten @ s12.T
    q = float(z @ z)
    mu_c = p.mu[keep] + a.T @ z
    schur = s11 - a.T @ a
    sigma_c = (p.nu + q) / (p.nu + d) * schur
    sigma_c = 0.5 * (sigma_c + sigma_c.T)
    return MvtParams(mu_c, sigma_c, p.nu + d)


def _mixture_arrays(weights, comps):
    w = np.asarray(weights, dtype=float)
    rows = [(float(m), float(s), float(n)) for (m, s, n) in comps]
    mus, sigmas, nus = np.array(rows).reshape(-1, 3).T
    if w.shape != mus.shape:
        raise ValueError("weights and components disagree in length")
    _check_probability_rows(w[None], 1e-10, "mixture weights")
    if not np.all(np.isfinite(mus)):
        raise ValueError("component locations must be finite")
    if not np.all(np.isfinite(sigmas) & (sigmas > 0.0)):
        raise ValueError("component scales must be finite and positive")
    _check_nu(nus, 0.0, "a t mixture")
    return w, mus, sigmas, nus


def _rows(point, *arrays):
    """Broadcast a (...) point and (..., L) component arrays to flat rows.

    Returns the batch shape, the (n,) points and the (n, L) arrays.
    """
    shape = np.broadcast_shapes(np.shape(point) + (1,), *map(np.shape, arrays))
    n, L = int(np.prod(shape[:-1])), shape[-1]
    point = np.broadcast_to(np.asarray(point, dtype=float), shape[:-1]).reshape(n)
    return shape[:-1], point, [
        np.broadcast_to(np.asarray(a, dtype=float), shape).reshape(n, L) for a in arrays
    ]


# A row converges within about ten steps; bisection alone halves the bracket
# every step, so this bound is never reached on valid input.
_MAX_STEPS = 200


def _bracketed_newton(fun, x, a, b, xtol):
    """Roots of increasing functions, one per row, by safeguarded Halley steps.

    fun(x, rows) gives the values g, slopes d and curvatures c at x of the
    rows indexed by rows.  A step is Halley's, g / (d - g c / (2 d)), or
    Newton's, g / d, where that correction exceeds half of d (far from the
    root, or where d underflows).  Row i starts at x[i] in [a[i], b[i]]; a
    row with a == b keeps its x.  An end is evaluated only when a step
    reaches it, and a row whose sign there puts its root beyond that end
    stops on it.  The bracket shrinks to the sign change and is bisected
    when a step leaves it or fails to halve the previous step.  With tol =
    4 eps |x| + xtol (scalar or per row), a row stops once its step or
    bracket is within tol, or, after two successive steps that are no
    bisections, once |step|^3 <= tol |previous step|^2: the next step of a
    quadratically convergent sequence, which Newton's matches and Halley's
    outruns, is then within tol, so the confirming evaluation is skipped.
    """
    x, a, b = (np.array(v, dtype=float) for v in (x, a, b))
    xtol = np.broadcast_to(xtol, x.shape)
    last, prev = b - a, np.full(x.shape, np.nan)  # |move|, |step| unless a bisection
    open_a, open_b = np.ones(x.shape, bool), np.ones(x.shape, bool)  # not yet evaluated
    rows = np.flatnonzero(a < b)
    for _ in range(_MAX_STEPS):
        if rows.size == 0:
            return x
        xr, ar, br = x[rows], a[rows], b[rows]
        g, d, c = fun(xr, rows)
        beyond = (g >= 0.0) & (xr == ar) | (g <= 0.0) & (xr == br)
        ar, br = np.where(g < 0.0, xr, ar), np.where(g > 0.0, xr, br)
        open_a[rows] &= ~(g < 0.0)
        open_b[rows] &= ~(g > 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            half = g * c / (2.0 * d)
            # A NaN or infinite correction (d == 0 or subnormal) fails the test too and keeps d.
            step = np.where(beyond, 0.0, g / np.where(np.abs(half) <= 0.5 * d, d - half, d))
            new = xr - step
            tol = 4.0 * EPS * np.abs(xr) + xtol[rows]
            done = (g == 0.0) | (np.abs(step) <= tol)
            newton = done | (new > ar) & (new < br) & (np.abs(step) <= 0.5 * last[rows])
            predicted = newton & (np.abs(step) ** 3 <= tol * prev[rows] ** 2)
        # A step that leaves the bracket across an end not yet evaluated goes to that end.
        new = np.where(newton, new, np.where(
            open_a[rows] & (new <= ar), ar,
            np.where(open_b[rows] & (new >= br), br, ar + 0.5 * (br - ar))))
        a[rows], b[rows], x[rows], last[rows] = ar, br, new, np.abs(new - xr)
        prev[rows] = np.where(newton, np.abs(step), np.nan)
        rows = rows[~(done | predicted) & (br - ar > tol)]
    raise RuntimeError(f"bracketed Newton: {rows.size} rows did not converge")


def batched_mixture_quantile(weights, mu, scale, nu, tau):
    """tau-quantiles of univariate t mixtures, one per row of (..., L) arrays.

    Inputs broadcast against each other (tau against the leading axes) and
    are not validated: weights on the simplex, positive scales and degrees
    of freedom, tau in (0, 1).  The root of g(x) = sum_l w_l F_l((x -
    mu_l)/s_l) - tau lies between the smallest and the largest component
    tau-quantile among components of positive weight, since every component
    CDF is at most tau at the former and at least tau at the latter.  Rows
    are solved there by _bracketed_newton, to 4 eps (|x| + smallest scale),
    and never mix, so equal rows give equal quantiles.

    Each sweep hands _bracketed_newton the mixture density d = g' and its
    slope d', so the steps are Halley's and converge cubically.  d' needs
    no new transcendental call: a t density f has f'(z) = -f(z) (nu + 1) z
    / (nu + z^2).  The standard t quantiles and log-normalisers depend on
    nu and tau alone and are evaluated before the inputs are spread over
    rows.
    """
    from scipy import special

    nu, tau = np.asarray(nu, dtype=float), np.asarray(tau, dtype=float)
    shape, tau, (w, mu, s, nu, std_q, log_norm) = _rows(
        tau, weights, mu, scale, nu, special.stdtrit(nu, tau[..., None]), _mvt_log_norm(nu, 1)
    )
    comp_q = mu + s * std_q
    live = w > 0.0
    a = np.min(np.where(live, comp_q, np.inf), axis=1)
    b = np.max(np.where(live, comp_q, -np.inf), axis=1)
    log_c = log_norm - np.log(s)

    def cdf_and_derivatives(x, rows):
        wr, mr, sr, nr = w[rows], mu[rows], s[rows], nu[rows]
        z = (x[:, None] - mr) / sr
        z2 = z * z
        dens = wr * np.exp(log_c[rows] - 0.5 * (nr + 1.0) * np.log1p(z2 / nr))
        g = np.sum(wr * special.stdtr(nr, z), axis=1) - tau[rows]
        return g, np.sum(dens, axis=1), -np.sum(dens * (nr + 1.0) * z / ((nr + z2) * sr), axis=1)

    x = np.clip(np.sum(w * comp_q, axis=1), a, b)
    q = _bracketed_newton(cdf_and_derivatives, x, a, b, 4.0 * EPS * np.min(s, axis=1))
    return q.reshape(shape)


def batched_mixture_truncated_mean(weights, mu, scale, nu, cutoff):
    """E[X | X <= cutoff] of univariate t mixtures, one per row of (..., L) arrays.

    Broadcasting and validation as in batched_mixture_quantile, plus every
    nu > 1.  Raises ValueError when some row has no mass below its cutoff.
    The partial expectations take nu as given, before it is spread over
    rows, so their log-normalisers are evaluated once per given nu.
    """
    from scipy import special

    nu = np.asarray(nu, dtype=float)
    shape, cutoff, (w, mu, s, nu_rows) = _rows(cutoff, weights, mu, scale, nu)
    z = (cutoff[:, None] - mu) / s
    cdf = special.stdtr(nu_rows, z)
    mass = np.sum(w * cdf, axis=1)
    if np.any(mass <= 0.0):
        raise ValueError("no probability mass below the cutoff")
    partial = mu * cdf + s * t_lower_partial(z.reshape(*shape, -1), nu).reshape(z.shape)
    return (np.sum(w * partial, axis=1) / mass).reshape(shape)


def mixture_quantile(weights, comps, tau) -> float:
    """tau-quantile of a finite mixture of univariate t components.

    Solves sum_l w_l F_l((x - mu_l)/sigma_l) = tau (see
    batched_mixture_quantile).
    """
    _check_levels(tau)
    w, mus, sigmas, nus = _mixture_arrays(weights, comps)
    return float(batched_mixture_quantile(w, mus, sigmas, nus, tau))


def mixture_truncated_mean(weights, comps, cutoff) -> float:
    """E[X | X <= cutoff] for a finite mixture of univariate t components.

    Uses the closed-form lower partial expectation of each component, which
    checks that every component nu exceeds 1.
    """
    w, mus, sigmas, nus = _mixture_arrays(weights, comps)
    return float(batched_mixture_truncated_mean(w, mus, sigmas, nus, cutoff))


def mixture_es(weights, comps, tau) -> float:
    """Lower-tail Expected Shortfall of a univariate t mixture at level tau.

    The truncation point is the mixture's own tau-quantile, so the mass
    below it is exactly tau.  Every component nu must exceed 1, which is
    checked before that quantile is solved.
    """
    w, mus, sigmas, nus = _mixture_arrays(weights, comps)
    _check_nu(nus, 1.0, "ES")
    _check_levels(tau)
    q = batched_mixture_quantile(w, mus, sigmas, nus, tau)
    return float(batched_mixture_truncated_mean(w, mus, sigmas, nus, q))

"""Markov-switching Student-t models and joint tail-risk measures.

Fits L-state multivariate Student-t regime-switching models to return
panels, builds one-step-ahead predictive mixtures from the filtered
probabilities, computes Multiple-CoVaR / Multiple-CoES and their Delta
variants, and attributes total co-risk across sectors with exact Shapley
values.

scipy.special is imported inside the functions that call it, never at
module level, and only a t CDF or quantile (risk, shapley) or a
brute-force oracle calls it: importing it costs 0.19-0.23 s and about
20 MB, which `import msrisk` and the simulate, stats, fit and select
commands skip.  EM's digamma, trigamma and t normaliser are computed in
msrisk itself.

Unless the caller set one of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
OMP_NUM_THREADS, importing msrisk sets OPENBLAS_NUM_THREADS=1 before numpy
loads: msrisk's BLAS calls, with at most 6 series on one side, are too
small to gain from threads, yet numpy's OpenBLAS and the second copy that
scipy.special loads would each start a worker pool (about 60 ms apiece).
The setting reaches every OpenBLAS loaded after it, in this process and in
its children; where numpy was imported first, numpy's pool is already
running.
"""

import os

if not any(os.environ.get(name) for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .attribution import (
    AttributionSeries,
    CharacteristicMap,
    ShapleyReport,
    attribution_series,
    characteristic_values,
    shapley,
    vis_a_vis,
)
from .corisk import (
    RiskQuery,
    RiskSeries,
    delta_m_coes,
    delta_m_covar,
    marginal_es,
    marginal_var,
    marginalize_fit,
    multiple_coes,
    multiple_covar,
    standard_pairwise_delta,
    total_risk_series,
)
from .markov import (
    FitResult,
    MsTModel,
    SelectionTable,
    decompose_sigma,
    em_fit,
    fit_from_model,
    fit_restarts,
    forward_loglik,
    information_criteria,
    param_count,
    select_L,
    smooth,
)
from .panel import ReturnPanel, SummaryStats, load_csv, prices_to_log_returns, summary_stats
from .predictive import PredictiveMixture, build_predictive, predictive_weights
from .simulate import (
    SimSpec,
    brute_force_loglik,
    brute_force_posteriors,
    grid_conditional_quantile,
    sample_path,
)
from .studentt import (
    MvtParams,
    condition_mvt,
    marginal_mvt,
    mixture_es,
    mixture_quantile,
    mvt_logpdf,
    t_cdf,
    t_es,
    t_quantile,
)

__version__ = "0.1.0"

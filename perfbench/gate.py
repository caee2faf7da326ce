"""Correctness gate for the benchmark's CLI outputs.

Each check reads the files one `msrisk` command wrote and returns
`(attempted, failed)`: the number of units it checked and a dict mapping
each failed unit to the reason.  Units are one fitted panel for `fit` and
one (target, date) row for `risk` and `shapley`.  A reference, when given,
holds the outputs frozen at the default seed; without one only the checks
that need no reference run.  Only the standard library is used, so the
gate does not share code with the program it checks.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict

VALUE_ATOL = 1e-9        # risk / shapley values against the reference
ADDITIVITY_ATOL = 1e-9   # shapley shares against the grand value
LOGLIK_RTOL = 1e-6       # fit log-likelihood shortfall against the reference
PROB_ATOL = 1e-9         # smoothed state probabilities summing to one

RISK_MEASURES = ("var", "es", "covar", "delta_covar", "coes", "delta_coes")


def read_schema_csv(path):
    """Rows of a `# schema: msrisk/1` CSV as dicts keyed by the header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith("# schema: msrisk/1"):
            raise ValueError(f"{path}: missing schema header")
        return list(csv.DictReader(fh))


def _close(a, b, atol):
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= atol


# -- fit -------------------------------------------------------------------


def recovery_misses(model_doc, truth_doc):
    """Criterion-3 recovery tolerances of a fitted model against the truth.

    Per regime: |mu - mu_true| <= 0.1 sd_true per coordinate and
    |nu - nu_true| <= 0.3 nu_true; every transition probability within 0.05.
    """
    misses = []
    p = truth_doc["p"]
    if model_doc["L"] != truth_doc["L"] or model_doc["p"] != p:
        return [f"shape L={model_doc['L']} p={model_doc['p']}"]
    for l, (est, true) in enumerate(zip(model_doc["regimes"], truth_doc["regimes"])):
        for k in range(p):
            sd = math.sqrt(true["sigma"][k * p + k])
            if not abs(est["mu"][k] - true["mu"][k]) <= 0.1 * sd:
                misses.append(f"regime {l} mu[{k}]={est['mu'][k]!r}")
        if not abs(est["nu"] - true["nu"]) <= 0.3 * true["nu"]:
            misses.append(f"regime {l} nu={est['nu']!r}")
    for q_est, q_true in zip(model_doc["Q"], truth_doc["Q"]):
        if not abs(q_est - q_true) <= 0.05:
            misses.append(f"transition {q_est!r} vs {q_true!r}")
    return misses


def check_fit(outdir, truth_doc, t_len, reference=None):
    """One unit: the fitted panel.  reference = {"loglik": float} or None."""
    reasons = []
    with open(outdir / "model.json", "r", encoding="utf-8") as fh:
        model_doc = json.load(fh)
    loglik = model_doc["loglik"]
    if not isinstance(loglik, float) or not math.isfinite(loglik):
        reasons.append(f"loglik {loglik!r}")
    elif reference is not None:
        ref = reference["loglik"]
        if loglik < ref - LOGLIK_RTOL * abs(ref):
            reasons.append(f"loglik {loglik!r} below reference {ref!r}")
    reasons += recovery_misses(model_doc, truth_doc)
    rows = read_schema_csv(outdir / "smoothed.csv")
    if len(rows) != t_len:
        reasons.append(f"smoothed.csv has {len(rows)} rows, expected {t_len}")
    for row in rows:
        probs = [float(v) for k, v in row.items() if k != "date"]
        if not all(math.isfinite(v) for v in probs) or abs(sum(probs) - 1.0) > PROB_ATOL:
            reasons.append(f"smoothed row {row['date']} does not sum to 1")
            break
    return 1, ({"panel": "; ".join(reasons)} if reasons else {})


# -- risk ------------------------------------------------------------------


def _risk_values(rows):
    return {
        (r["date"], r["target"], r["measure"]): float(r["value"]) for r in rows
    }


def check_risk(outdir, dates, names, reference_rows=None):
    """Units are (target, date); each needs all six finite measures."""
    values = _risk_values(read_schema_csv(outdir / "risk.csv"))
    ref = _risk_values(reference_rows) if reference_rows is not None else None
    failed = {}
    for name in names:
        for date in dates:
            for measure in RISK_MEASURES:
                key = (date, name, measure)
                got = values.get(key)
                if got is None or not math.isfinite(got):
                    failed[(name, date)] = f"{measure} = {got!r}"
                    break
                if ref is not None and not _close(got, ref.get(key, math.nan), VALUE_ATOL):
                    failed[(name, date)] = (
                        f"{measure} = {got!r}, reference {ref.get(key)!r}"
                    )
                    break
    if len(values) != len(names) * len(dates) * len(RISK_MEASURES):
        failed[("*", "*")] = f"risk.csv holds {len(values)} values"
    return len(names) * len(dates), failed


# -- shapley ---------------------------------------------------------------


def _shapley_groups(rows):
    """(target, date) -> (grand values seen, {contributor: share})."""
    groups = defaultdict(lambda: (set(), {}))
    for r in rows:
        grands, shares = groups[(r["target"], r["date"])]
        grands.add(float(r["grand_value"]))
        shares[r["contributor"]] = float(r["share"])
    return groups


def check_shapley(outdir, dates, names, reference_rows=None):
    """Units are (target, date): finite shares of every other series that
    sum to the grand value, agreeing with the JSON output and, at the
    default seed, with the reference."""
    groups = _shapley_groups(read_schema_csv(outdir / "attribution.csv"))
    ref = _shapley_groups(reference_rows) if reference_rows is not None else None
    with open(outdir / "attribution.json", "r", encoding="utf-8") as fh:
        records = {r["date"]: r["targets"] for r in json.load(fh)["records"]}
    failed = {}
    for target in names:
        contributors = {n for n in names if n != target}
        for date in dates:
            unit = (target, date)
            grands, shares = groups.get(unit, (set(), {}))
            if len(grands) != 1 or set(shares) != contributors:
                failed[unit] = f"incomplete rows: grand {sorted(grands)}, shares {sorted(shares)}"
                continue
            (grand,) = grands
            if not all(math.isfinite(v) for v in [grand, *shares.values()]):
                failed[unit] = "non-finite value"
                continue
            if abs(math.fsum(shares.values()) - grand) > ADDITIVITY_ATOL:
                failed[unit] = f"shares sum {math.fsum(shares.values())!r} != grand {grand!r}"
                continue
            doc = records.get(date, {}).get(target)
            if doc is None or doc["grand_value"] != grand or doc["shares"] != shares:
                failed[unit] = "attribution.json disagrees with attribution.csv"
                continue
            if ref is not None:
                ref_grands, ref_shares = ref.get(unit, ({math.nan}, {}))
                (ref_grand,) = ref_grands
                if not _close(grand, ref_grand, VALUE_ATOL) or any(
                    not _close(v, ref_shares.get(k, math.nan), VALUE_ATOL)
                    for k, v in shares.items()
                ):
                    failed[unit] = "differs from the reference"
    return len(names) * len(dates), failed

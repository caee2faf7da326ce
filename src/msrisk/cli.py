"""Batch driver: ingest, select, fit, risk and attribution outputs.

Subcommands: stats | select | fit | risk | shapley | simulate.
Configuration is taken from flags, optionally seeded by a JSON file via
--config whose entries are parsed as flags placed before the command-line
ones, so command-line flags override file entries.  Every output file is
UTF-8 CSV/JSON carrying a schema-version header.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import attribution, corisk, markov, panel, simulate
from .panel import _read_json, _write_blocks, _write_csv
from .studentt import MvtParams


def _add_common(sub):
    sub.add_argument("--config", help="JSON file with default option values")
    sub.add_argument("--out", default=".", help="output directory")


def _add_input(sub):
    """The common options plus the panel input, for every command that reads one."""
    _add_common(sub)
    sub.add_argument("--input", required=True, help="panel CSV (first column ISO dates)")
    sub.add_argument(
        "--prices", action="store_true",
        help="input holds prices; convert to log-returns",
    )


def _add_corisk(sub, measures, measure):
    """The input options plus the model and the co-risk query, for risk and shapley."""
    _add_input(sub)
    sub.add_argument("--model", required=True, help="fitted model JSON")
    sub.add_argument("--tau1", type=float, default=0.05)
    sub.add_argument("--tau2", type=float, default=0.05)
    sub.add_argument("--measure", choices=measures, default=measure)


def _corisk_query(args) -> dict:
    """The co-risk keywords (measure, tau1, tau2) of parsed risk or shapley flags."""
    return dict(measure=args.measure, tau1=args.tau1, tau2=args.tau2)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="msrisk",
        description="Markov-switching Student-t co-risk toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="summary statistics per series")
    _add_input(p)
    p.add_argument("--alpha", type=float, default=0.01, help="tail quantile level")

    p = sub.add_parser("select", help="state-count selection by AIC/BIC")
    _add_input(p)
    p.add_argument("--L-range", default="2:6", help="inclusive range, e.g. 2:6")
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--criterion", choices=("aic", "bic"), default="aic")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fit", help="fit the model and emit state probabilities")
    _add_input(p)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("risk", help="total-risk series from a fitted model")
    _add_corisk(p, ("covar", "coes", "both"), "both")

    p = sub.add_parser("shapley", help="Shapley attribution series")
    _add_corisk(p, ("covar", "coes"), "covar")
    p.add_argument(
        "--compare-standard", action="store_true",
        help="also emit bivariate standard Delta series per pair",
    )

    p = sub.add_parser("simulate", help="simulate a panel plus ground-truth model")
    _add_common(p)
    p.add_argument("--model", help="model JSON to simulate from")
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--T", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    return parser


# Built once: parse_args leaves a parser unchanged, so every main() call reuses them.
_PARSER = _build_parser()
_CONFIG_PARSER = argparse.ArgumentParser(add_help=False)
_CONFIG_PARSER.add_argument("--config")


def _with_config(argv):
    """argv with the --config file's entries as flags ahead of the command-line ones.

    {"key": value} becomes --key=value and {"key": true} becomes --key, so
    argparse checks them like any flag and a later command-line flag wins.
    """
    path = _CONFIG_PARSER.parse_known_args(argv)[0].config
    if not path:
        return argv
    entries = _read_json(path, "config")
    if not isinstance(entries, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    flags = [
        "--" + key.replace("_", "-") + ("" if value is True else f"={value}")
        for key, value in entries.items() if value is not False
    ]
    return argv[:1] + flags + argv[1:]


def _load_panel(args) -> panel.ReturnPanel:
    data = panel.load_csv(args.input)
    if args.prices:
        data = panel.prices_to_log_returns(data)
    return data


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_stats(args) -> int:
    data = _load_panel(args)
    stats = panel.summary_stats(data, alpha=args.alpha)
    out = _outdir(args) / "summary.csv"
    columns = ("minimum", "maximum", "mean", "std", "skewness", "kurtosis", "quantile", "jb")
    _write_csv(
        out,
        ["name", "min", "max", "mean", "std", "skewness", "kurtosis",
         f"quantile_{stats.alpha}", "jb"],
        [stats.names, *(getattr(stats, c) for c in columns)],
    )
    print(f"wrote {out}")
    return 0


def _parse_range(text):
    lo, sep, hi = text.partition(":")
    try:
        return range(int(lo), int(hi) + 1) if sep else [int(text)]
    except ValueError:
        raise ValueError(
            f"--L-range must be LO:HI or a single integer, got {text!r}"
        ) from None


def cmd_select(args) -> int:
    data = _load_panel(args)
    table = markov.select_L(
        data, _parse_range(args.L_range), criterion=args.criterion,
        n_restarts=args.restarts, seed=args.seed,
    )
    out = _outdir(args) / "selection.csv"
    rows = table.rows
    _write_csv(
        out,
        ["L", "loglik", "k", "aic", "bic", "chosen", "error"],
        [[r.L for r in rows], np.array([r.loglik for r in rows]), [r.k for r in rows],
         np.array([r.aic for r in rows]), np.array([r.bic for r in rows]),
         ["chosen" if r.L == table.chosen else "" for r in rows], [r.error for r in rows]],
    )
    print(f"wrote {out} (chosen L={table.chosen} by {table.criterion})")
    return 0


def cmd_fit(args) -> int:
    data = _load_panel(args)
    fit = markov.fit_restarts(data, args.L, n_restarts=args.restarts, seed=args.seed)
    outdir = _outdir(args)
    model_path = outdir / "model.json"
    markov.save_model(
        model_path, fit.model,
        labels=data.names, loglik=fit.loglik, t_len=data.n_obs,
    )
    probs_path = outdir / "smoothed.csv"
    header = ["date"] + [f"state_{l+1}" for l in range(fit.model.n_states)]
    _write_csv(probs_path, header, [data.dates, *fit.smoothed.T])
    print(f"wrote {model_path} and {probs_path} (loglik={fit.loglik:.3f}, "
          f"converged={fit.converged})")
    return 0


def _fit_from_model_file(args, data):
    return markov.fit_from_model(markov.load_model(args.model)[0], data)


def cmd_risk(args) -> int:
    data = _load_panel(args)
    fit = _fit_from_model_file(args, data)
    series = corisk.total_risk_series(fit, **_corisk_query(args))
    out = _outdir(args) / "risk.csv"
    corisk.write_risk_csv(out, data.dates, data.names, series)
    print(f"wrote {out}")
    return 0


def cmd_shapley(args) -> int:
    data = _load_panel(args)
    fit = _fit_from_model_file(args, data)
    query = _corisk_query(args)
    series = attribution.attribution_series(fit, **query)
    outdir = _outdir(args)
    csv_path = outdir / "attribution.csv"
    attribution.write_attribution_csv(csv_path, data.dates, data.names, series)
    json_path = outdir / "attribution.json"
    attribution.write_attribution_json(json_path, data.dates, data.names, series)
    written = [csv_path, json_path]
    if args.compare_standard:
        # Column 0 of pair (i, j) is series i, so target 0 gives i's Delta
        # and target 1 gives j's.
        deltas = {}
        for i, j in itertools.combinations(range(data.n_series), 2):
            pair_fit = corisk.marginalize_fit(fit, [i, j])
            for target, pair in enumerate(((i, j), (j, i))):
                deltas[pair] = corisk.standard_pairwise_delta(pair_fit, target, **query)
        std_path = outdir / "standard_delta.csv"
        _write_blocks(
            std_path, ["date", "target", "conditioner", "measure", "delta"], data.dates,
            [((data.names[i], data.names[j], args.measure), (deltas[i, j],))
             for i, j in sorted(deltas)],
        )
        written.append(std_path)
    print("wrote " + ", ".join(str(w) for w in written))
    return 0


def _default_model(L, p, seed):
    rng = np.random.default_rng(seed)
    regimes = []
    for l in range(L):
        mu = rng.normal(scale=0.005, size=p) + (0.002 if l == 0 else -0.004)
        a = rng.normal(size=(p, p)) * 0.01
        sigma = a @ a.T + 0.01**2 * (l + 1) * np.eye(p)
        regimes.append(MvtParams(mu, sigma, float(rng.uniform(4.0, 12.0))))
    q = np.full((L, L), 0.1 / max(L - 1, 1))
    np.fill_diagonal(q, 0.9 if L > 1 else 1.0)
    return markov.MsTModel(regimes, q, np.full(L, 1.0 / L))


def cmd_simulate(args) -> int:
    if args.model:
        model, _ = markov.load_model(args.model)
    elif args.L < 1:
        raise ValueError("--L must be >= 1")
    elif args.p < 2:
        raise ValueError("--p must be >= 2: a panel needs at least two series")
    elif args.seed < 0:
        raise ValueError("--seed must be >= 0")
    else:
        model = _default_model(args.L, args.p, args.seed)
    states, data = simulate.sample_path(simulate.SimSpec(model, args.T, args.seed))
    outdir = _outdir(args)
    panel_path = outdir / "panel.csv"
    _write_csv(panel_path, ["date", *data.names], [data.dates, *data.returns.T])
    truth_path = outdir / "truth_model.json"
    markov.save_model(truth_path, model, labels=data.names, t_len=args.T)
    print(f"wrote {panel_path} and {truth_path}")
    return 0


_COMMANDS = {
    "stats": cmd_stats,
    "select": cmd_select,
    "fit": cmd_fit,
    "risk": cmd_risk,
    "shapley": cmd_shapley,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(_with_config(argv))
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

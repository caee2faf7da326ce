#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench, written to one BENCH_*.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_name.json

--parent and --change are two checkouts of this repository.  For each of
the workloads fit, risk and shapley the script runs `python3
perfbench/run.py --workload W --seed 0 --seconds 10 --trace 0` in the two
checkouts in turn, PAIRS times, parent first on odd pairs and change first
on even ones (plus the EXTRA pairs at other seeds), and keeps each run's
end-to-end metrics, correctness, `machine` block and the seconds of its
first pass, which pays whatever the set-up left to load.  Per metric it
records both sides' medians and quartiles and how many pairs the change
won, with the direction ("better") taken from the change's BENCHMARK.json.
It then times the library in LAYER_RUNS fresh interpreters of each checkout
(alternating), each on the INPUTS panels: the LAYERS co-risk calls on the
risk, shapley and chain panels and one E-step and one M-step at the fitted
parameters of the fit panel, each the minimum over BLOCKS blocks of one
call; the em_fit of the fit panel and its iterations; and the chain
commands' EM, the SELECT sweep and the COMPARE pairwise fits of `msrisk
shapley --compare-standard`, each the minimum of EM_CALLS calls, with the
iterations of all their EM starts, and the nu steps and nu score sweeps of
the fit panel's em_fit and of the two chain sweeps together (one
markov._digamma_gaps call per sweep); the load_csv of every INPUTS panel
(minimum over BLOCKS blocks), one in-process `msrisk fit --L 2 --restarts
1` pass on the fit panel (minimum of EM_CALLS calls), so that cli_fit -
em_fit is the pass's input and output cost, and the sample_path that
simulates the SAMPLE_PATH panels from their truth models (minimum over
BLOCKS blocks), every batched_mixture_quantile call of the ROOT_PASS pass
on the risk, shapley and chain panels replayed (minimum over BLOCKS blocks,
with the special.stdtr values and calls, i.e. root sweeps, of one replay,
counted on the scipy.special module) and the write_attribution_json of the
JSON_PANELS attributions (minimum over BLOCKS blocks).  Each interpreter
also records the seconds its first msrisk import took, its peak resident
set (ru_maxrss) right after that import, and its native thread count (the
entries of /proc/self/task, None where that is absent) right after the
import and again after the first special-function call (studentt.t_cdf),
which loads scipy's own OpenBLAS.  Per timer it records every run
and, per side, the best and the median of the runs.  Before any timing it
runs the CHAIN of msrisk commands CHAIN_RUNS times per checkout,
alternating which side goes first, each run in a fresh directory and each
command in a fresh process.  It records every output file's sha256 of the
first run on both sides, with a per-file and an overall `identical` flag,
and per command and side the process wall seconds, the child's CPU
seconds (user + system) and its peak resident set in MB (ru_maxrss), both
from os.wait4 on its pid, of every run, with their median and quartiles.
Each side's source is recorded by the sha256 and the line count of its
src/msrisk/*.py, in total (source_lines) and per file
(source_lines_by_file).  The ENVIRONMENT variables, as this script's
process found them (None where unset), are recorded under `environment`:
every run it starts inherits them.

This script's own process never imports msrisk: `import msrisk` sets
OPENBLAS_NUM_THREADS in os.environ when no thread variable is set, and the
parent side's subprocesses would inherit it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("fit", "risk", "shapley")
PAIRS = 10
SEED = 0
# workload -> (seed, pairs) run after the PAIRS at SEED
EXTRA = {"fit": (13, 5), "risk": (13, 5), "shapley": (13, 5)}
SECONDS = 10.0
LAYER_RUNS = 5
BLOCKS = 15
# `msrisk simulate` arguments of the layer-timer panels: the perfbench risk,
# shapley and fit inputs at seed 0 and the north-star chain panel.
INPUTS = {
    "risk": ["--model", "perfbench/models/risk_truth.json", "--T", "12", "--seed", "0"],
    "shapley": ["--model", "perfbench/models/shapley_truth.json", "--T", "6", "--seed", "0"],
    "chain": ["--L", "2", "--p", "4", "--T", "500", "--seed", "7"],
    "fit": ["--model", "perfbench/models/fit_truth.json", "--T", "8000", "--seed", "0"],
}
# name -> (msrisk module, function, keyword arguments), each called on the
# fit of the truth model to the risk, shapley and chain panels
LAYERS = {
    "total_risk_series.both": ("corisk", "total_risk_series", {"measure": "both"}),
    "attribution_series.covar": ("attribution", "attribution_series", {"measure": "covar"}),
}
# EM cost on short panels, on the chain panel: the `msrisk select --L-range
# 2:6 --restarts 3` sweep (15 starts at T=500) and the 6 pairwise L=2 fits of
# 3 starts each of `msrisk shapley --compare-standard`.
SELECT = {"L_range": range(2, 7), "n_restarts": 3}
COMPARE = {"n_restarts": 3}
EM_CALLS = 3
# INPUTS keys whose panel draw, SimSpec(truth model, --T, --seed), is timed
SAMPLE_PATH = ("fit", "chain")
# INPUTS key -> the LAYERS pass whose quantile roots are replayed (risk and
# shapley as their perfbench workloads run them)
ROOT_PASS = {"risk": "total_risk_series.both", "shapley": "attribution_series.covar",
             "chain": "attribution_series.covar"}
# INPUTS keys whose attribution_series(covar) is written as attribution.json
JSON_PANELS = ("shapley", "chain")
# The north-star CLI chain on the chain panel: `msrisk` arguments, run in
# order in one directory, each command writing to its own --out directory.
_PANEL, _MODEL = "simulate/panel.csv", "fit/model.json"
CHAIN = (
    ["simulate", *INPUTS["chain"], "--out", "simulate"],
    ["stats", "--input", _PANEL, "--out", "stats"],
    ["select", "--input", _PANEL, "--L-range", "2:6", "--restarts", "3", "--out", "select"],
    ["fit", "--input", _PANEL, "--L", "2", "--out", "fit"],
    ["risk", "--input", _PANEL, "--model", _MODEL, "--measure", "both", "--out", "risk"],
    ["shapley", "--input", _PANEL, "--model", _MODEL, "--measure", "covar",
     "--out", "shapley_covar"],
    ["shapley", "--input", _PANEL, "--model", _MODEL, "--measure", "coes",
     "--compare-standard", "--out", "shapley_coes"],
)
# Runs of the CHAIN per side, alternating which side goes first
CHAIN_RUNS = 10
# Variables the timings depend on: without bytecode caching every fresh
# process compiles msrisk's source, and the BLAS ones set its thread pools.
ENVIRONMENT = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "OPENBLAS_NUM_THREADS",
               "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def source_digest(checkout: Path) -> str:
    """sha256 over the checkout's src/msrisk/*.py, in name order."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "msrisk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def source_lines_by_file(checkout: Path) -> dict:
    """Line count of each of the checkout's src/msrisk/*.py, by file name."""
    return {path.name: len(path.read_bytes().splitlines())
            for path in sorted((checkout / "src" / "msrisk").glob("*.py"))}


def perfbench_command(workload: str, seed=SEED) -> list:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def run_perfbench(checkout: Path, workload: str, seed: int = SEED) -> dict:
    proc = subprocess.run(
        [sys.executable, *perfbench_command(workload, seed)[1:]],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if proc.returncode == 2 or not proc.stdout.strip():
        raise RuntimeError(f"perfbench in {checkout} failed: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    with open(record_path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": len(record["passes"]),
        "first_pass_s": record["passes"][0]["seconds"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "machine": record["machine"],
    }


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs, better) -> dict:
    """Per metric: both sides' median and quartiles, and the change's wins (ties count for neither)."""
    summary = {}
    for metric, direction in better.items():
        parent = [p["parent"]["metrics"][metric] for p in pairs]
        change = [p["change"]["metrics"][metric] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - a) < 0 for a, c in zip(parent, change))
        losses = sum(sign * (c - a) > 0 for a, c in zip(parent, change))
        p_stats, c_stats = quartiles(parent), quartiles(change)
        summary[metric] = {
            "better": direction,
            "parent": p_stats,
            "change": c_stats,
            "change_over_parent": c_stats["median"] / p_stats["median"],
            "change_wins": wins,
            "change_losses": losses,
            "parent_iqr": p_stats["q3"] - p_stats["q1"],
        }
    return summary


def min_block_ms(fn) -> float:
    """Milliseconds of one fn() call: the minimum over BLOCKS blocks of ~50 ms."""
    start = time.perf_counter()
    fn()
    reps = max(1, int(0.05 / (time.perf_counter() - start)))
    blocks = []
    for _ in range(BLOCKS):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        blocks.append((time.perf_counter() - start) / reps)
    return 1e3 * min(blocks)


def min_call_ms(fn) -> float:
    """Milliseconds of the fastest of EM_CALLS fn() calls."""
    calls = []
    for _ in range(EM_CALLS):
        start = time.perf_counter()
        fn()
        calls.append(time.perf_counter() - start)
    return 1e3 * min(calls)


def root_cost(corisk, run) -> dict:
    """Cost of the quantile roots of one co-risk pass, replayed.

    Every batched_mixture_quantile call run() makes through corisk is
    recorded and then replayed: the minimum over BLOCKS blocks of all the
    calls in ms, and the special.stdtr values and calls (one per root
    sweep) of one replay.
    """
    calls, real = [], corisk.batched_mixture_quantile

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    def replay():
        for args, kwargs in calls:
            real(*args, **kwargs)

    corisk.batched_mixture_quantile = recorded
    try:
        run()
    finally:
        corisk.batched_mixture_quantile = real
    # Counted on the scipy.special module itself, so that both an import at
    # module level and one inside the calling function see the counting stdtr.
    import scipy.special

    stdtr, counts = scipy.special.stdtr, {"stdtr": 0, "sweeps": 0}

    def counting_stdtr(nu, z):
        counts["stdtr"] += z.size
        counts["sweeps"] += 1
        return stdtr(nu, z)

    scipy.special.stdtr = counting_stdtr
    try:
        replay()
    finally:
        scipy.special.stdtr = stdtr
    return {"quantile_root": min_block_ms(replay),
            **{f"quantile_root.{k}": v for k, v in counts.items()}}


def native_threads():
    """Threads of this process, or None where /proc/self/task is absent."""
    try:
        return len(os.listdir("/proc/self/task"))
    except FileNotFoundError:
        return None


def time_layers():
    """Timers (ms) and EM iteration counts of one interpreter, keyed name@input."""
    import contextlib
    import itertools

    start = time.perf_counter()
    from msrisk import attribution, cli, corisk, markov, panel, simulate, studentt
    import_s = time.perf_counter() - start
    import_maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import_threads = native_threads()
    studentt.t_cdf(0.0, 5.0)
    special_threads = native_threads()

    modules = {"corisk": corisk, "attribution": attribution}
    # markov name -> count it adds to per call: each score sweep of a nu step
    # makes one _digamma_gaps call, end probes included
    counted = {"em_fit": "iterations", "_nu_step": "nu_step.calls",
               "_digamma_gaps": "nu_step.sweeps"}
    real = {name: getattr(markov, name) for name in counted}
    counts = dict.fromkeys(counted.values(), 0)

    def counter(name):
        def call(*args, **kwargs):
            result = real[name](*args, **kwargs)
            counts[counted[name]] += result.iterations if name == "em_fit" else 1
            return result
        return call

    def count(fn):
        """fn()'s result, and the EM iterations, nu steps and nu score sweeps of the call."""
        counts.update(dict.fromkeys(counts, 0))
        for name in counted:
            setattr(markov, name, counter(name))
        try:
            result = fn()
        finally:
            for name, function in real.items():
                setattr(markov, name, function)
        return result, dict(counts)

    out = {"import_s": import_s, "import_maxrss_mb": import_maxrss_mb,
           "threads.import": import_threads, "threads.special": special_threads}
    with tempfile.TemporaryDirectory() as tmp:
        for key, argv in INPUTS.items():
            with contextlib.redirect_stdout(sys.stderr):
                cli.main(["simulate", *argv, "--out", f"{tmp}/{key}"])
            model, _ = markov.load_model(f"{tmp}/{key}/truth_model.json")
            panel_path = f"{tmp}/{key}/panel.csv"
            data = panel.load_csv(panel_path)
            out[f"load_csv@{key}"] = min_block_ms(lambda: panel.load_csv(panel_path))
            if key in SAMPLE_PATH:
                t_len, seed = (int(argv[argv.index(flag) + 1]) for flag in ("--T", "--seed"))
                spec = simulate.SimSpec(model, t_len, seed)
                out[f"sample_path@{key}"] = min_block_ms(lambda: simulate.sample_path(spec))
            if key == "fit":
                fit, work = count(lambda: markov.em_fit(data, model.n_states))
                out[f"em_fit.iterations@{key}"] = fit.iterations
                for name in ("nu_step.calls", "nu_step.sweeps"):
                    out[f"{name}@{key}"] = work[name]
                out[f"em_fit@{key}"] = min_call_ms(lambda: markov.em_fit(data, model.n_states))
                argv = ["fit", "--input", panel_path, "--L", str(model.n_states),
                        "--restarts", "1", "--out", f"{tmp}/{key}/fit"]
                with contextlib.redirect_stdout(sys.stderr):
                    out[f"cli_fit@{key}"] = min_call_ms(lambda: cli.main(argv))
                # The E-step as the loop runs it: on what an M-step hands over.
                y, params = data.returns, markov._stack(fit.model)
                e_step = markov._e_step(params, y)
                params = markov._m_step(y, params, *e_step[1:3], e_step[4])
                e_step = markov._e_step(params, y)
                out[f"_e_step@{key}"] = min_block_ms(lambda: markov._e_step(params, y))
                out[f"_m_step@{key}"] = min_block_ms(
                    lambda: markov._m_step(y, params, *e_step[1:3], e_step[4])
                )
                continue
            fit = markov.fit_from_model(model, data)
            for name, (module, function, kwargs) in LAYERS.items():
                fn = getattr(modules[module], function)
                out[f"{name}@{key}"] = min_block_ms(lambda: fn(fit, **kwargs))
            if key in ROOT_PASS:
                module, function, kwargs = LAYERS[ROOT_PASS[key]]
                fn = getattr(modules[module], function)
                for name, value in root_cost(corisk, lambda: fn(fit, **kwargs)).items():
                    out[f"{name}@{key}"] = value
            if key in JSON_PANELS:
                series = attribution.attribution_series(fit, measure="covar")
                path = f"{tmp}/{key}/attribution.json"
                out[f"write_attribution_json@{key}"] = min_block_ms(
                    lambda: attribution.write_attribution_json(path, data.dates, data.names, series)
                )
            if key == "chain":
                def compare():
                    for i, j in itertools.combinations(range(data.n_series), 2):
                        markov.fit_restarts(data.select([i, j]), model.n_states, **COMPARE)

                sweeps = {"select_L": lambda: markov.select_L(data, **SELECT), "compare": compare}
                works = [count(fn)[1] for fn in sweeps.values()]
                for (name, fn), work in zip(sweeps.items(), works):
                    out[f"{name}@{key}"] = min_call_ms(fn)
                    out[f"{name}.iterations@{key}"] = work["iterations"]
                for name in ("nu_step.calls", "nu_step.sweeps"):
                    out[f"{name}@{key}"] = sum(work[name] for work in works)
    return out


def run_chain(checkout: Path):
    """Run the CHAIN with the checkout's msrisk, each command in a fresh process.

    Returns the sha256 of every file it writes, keyed by path, and each
    command's wall seconds, CPU seconds and peak resident MB, keyed by its
    --out directory.  The two resource figures are the child's own, read by
    os.wait4 on its pid.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    seconds, cpu_seconds, peak_rss_mb = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CHAIN:
            with tempfile.TemporaryFile() as stderr:
                start = time.perf_counter()
                proc = subprocess.Popen([sys.executable, "-m", "msrisk.cli", *argv], cwd=tmp,
                                        env=env, stdout=subprocess.DEVNULL, stderr=stderr)
                _, status, usage = os.wait4(proc.pid, 0)
                seconds[argv[-1]] = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
                if proc.returncode:
                    stderr.seek(0)
                    raise RuntimeError(f"msrisk {' '.join(argv)} exited with {proc.returncode}: "
                                       f"{stderr.read()[-2000:].decode(errors='replace')}")
            cpu_seconds[argv[-1]] = usage.ru_utime + usage.ru_stime
            peak_rss_mb[argv[-1]] = usage.ru_maxrss / 1024.0
        digests = {path.relative_to(tmp).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(Path(tmp).rglob("*")) if path.is_file()}
    return digests, seconds, cpu_seconds, peak_rss_mb


def compare_chain(sides) -> dict:
    """CHAIN_RUNS alternating runs of the CHAIN on both sides.

    The first run's output digests, with per-file and overall identical
    flags, and per command and side every run's wall seconds, CPU seconds
    and peak resident MB with their median and quartiles.
    """
    digests = {}
    seconds, cpu_seconds, peak_rss_mb = ({side: [] for side in sides} for _ in range(3))
    for i in range(CHAIN_RUNS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            files, times, cpu_times, rss = run_chain(sides[side])
            digests.setdefault(side, files)
            seconds[side].append(times)
            cpu_seconds[side].append(cpu_times)
            peak_rss_mb[side].append(rss)
    files = {
        name: {**{side: d.get(name) for side, d in digests.items()},
               "identical": len({d.get(name) for d in digests.values()}) == 1}
        for name in sorted(set().union(*digests.values()))
    }

    def per_command(by_side):
        return {
            argv[-1]: {side: {**quartiles([run[argv[-1]] for run in runs]),
                              "runs": [run[argv[-1]] for run in runs]}
                       for side, runs in by_side.items()}
            for argv in CHAIN
        }

    return {
        "commands": [["msrisk", *argv] for argv in CHAIN],
        "identical": all(f["identical"] for f in files.values()),
        "files": files,
        "process_s": per_command(seconds),
        "process_cpu_s": per_command(cpu_seconds),
        "process_peak_rss_mb": per_command(peak_rss_mb),
    }


def layer_ms(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--layers-child"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--layers-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.layers_child:
        print(json.dumps(time_layers()))
        return 0
    if args.parent is None or args.change is None or args.out is None:
        ap.error("--parent, --change and --out are required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(sides["change"] / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    lines = {side: source_lines_by_file(path) for side, path in sides.items()}
    doc = {
        "command": perfbench_command("W"),
        "pairs": PAIRS,
        "order": "parent first on odd pairs, change first on even pairs",
        "environment": {name: os.environ.get(name) for name in ENVIRONMENT},
        "source_sha256": {side: source_digest(path) for side, path in sides.items()},
        "source_lines": {side: sum(by_file.values()) for side, by_file in lines.items()},
        "source_lines_by_file": lines,
        "chain": compare_chain(sides),
        "workloads": {},
    }
    print(f"chain outputs identical: {doc['chain']['identical']}", file=sys.stderr)
    for command, stats in doc["chain"]["process_s"].items():
        cpu = doc["chain"]["process_cpu_s"][command]
        rss = doc["chain"]["process_peak_rss_mb"][command]
        print(f"chain {command}: {stats['parent']['median']:.3f} -> "
              f"{stats['change']['median']:.3f} s wall, {cpu['parent']['median']:.3f} -> "
              f"{cpu['change']['median']:.3f} s CPU, {rss['parent']['median']:.1f} -> "
              f"{rss['change']['median']:.1f} MB peak", file=sys.stderr)
    for workload in WORKLOADS:
        seeds = [(SEED, PAIRS), EXTRA[workload]] if workload in EXTRA else [(SEED, PAIRS)]
        for seed, n_pairs in seeds:
            pairs = []
            for i in range(1, n_pairs + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                pair = {"pair": i, "first": order[0]}
                for side in order:
                    pair[side] = run_perfbench(sides[side], workload, seed)
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {i}: wall_s "
                      f"{pair['parent']['metrics']['wall_s']:.4g} -> "
                      f"{pair['change']['metrics']['wall_s']:.4g}", file=sys.stderr)
            name = workload if seed == SEED else f"{workload}@seed{seed}"
            doc["workloads"][name] = {
                "seed": seed,
                "all_correct": all(p[s]["correct"] for p in pairs for s in sides),
                "summary": summarize(pairs, better),
                "first_pass_s": {side: quartiles([p[side]["first_pass_s"] for p in pairs])
                                 for side in sides},
                "pairs": pairs,
            }

    runs = {side: [] for side in sides}
    for i in range(LAYER_RUNS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(layer_ms(sides[side]))
    doc["layer_ms"] = {
        "what": f"{BLOCKS}-block minimum of one call (em_fit, cli_fit, select_L, compare: "
                f"minimum of {EM_CALLS} calls) per fresh interpreter, {LAYER_RUNS} interpreters "
                "per side in alternating order; *.iterations are EM iteration counts; "
                "nu_step.calls and .sweeps count the nu steps and their score sweeps (one "
                "markov._digamma_gaps call each) of em_fit@fit and of select_L and compare "
                "together@chain; "
                "quantile_root.stdtr and .sweeps are counts; "
                "import_s (seconds) and import_maxrss_mb (MB) are the interpreter's first "
                "msrisk import and its ru_maxrss right after it; threads.import and "
                "threads.special are its native threads right after that import and after "
                "its first special-function call; name@input",
        "inputs": {key: ["msrisk", "simulate", *argv] for key, argv in INPUTS.items()},
        "layers": {
            **{name: f"msrisk.{m}.{f}(fit, **{kw})" for name, (m, f, kw) in LAYERS.items()},
            "em_fit": "msrisk.markov.em_fit(panel, L)",
            "load_csv": "msrisk.panel.load_csv(panel.csv)",
            "sample_path": "msrisk.simulate.sample_path(SimSpec(truth model, T, seed))",
            "quantile_root": "every msrisk.studentt.batched_mixture_quantile call of the "
                             f"pass {ROOT_PASS} (risk, shapley, chain), replayed; "
                             "quantile_root.stdtr and .sweeps: special.stdtr values and calls "
                             "of one replay",
            "write_attribution_json": "msrisk.attribution.write_attribution_json(path, dates, "
                                      "names, attribution_series(fit, measure='covar'))",
            "cli_fit": "msrisk.cli.main(['fit', '--input', panel.csv, '--L', L, "
                       "'--restarts', '1', '--out', dir])",
            "_e_step": "msrisk.markov._e_step(params, y), params from one _m_step at the fit",
            "_m_step": "msrisk.markov._m_step(y, params, smoothed, counts, maha), same params",
            "select_L": f"msrisk.markov.select_L(panel, **{SELECT})",
            "compare": f"msrisk.markov.fit_restarts(pair panel, L, **{COMPARE}) for 6 pairs",
        },
        "runs": runs,
        **{
            side: {
                "best": {k: min(r[k] for r in rs) for k in rs[0] if rs[0][k] is not None},
                "median": {k: statistics.median(r[k] for r in rs)
                           for k in rs[0] if rs[0][k] is not None},
            }
            for side, rs in runs.items()
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

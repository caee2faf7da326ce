#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench, written to one BENCH_*.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_name.json

--parent and --change are two checkouts of this repository.  For each of
the workloads fit, risk and shapley the script runs `python3
perfbench/run.py --workload W --seed 0 --seconds 10 --trace 0` in the two
checkouts in turn, PAIRS times, parent first on odd pairs and change first
on even ones, and keeps each run's end-to-end metrics, correctness and
`machine` block.  Per metric it records both sides' medians and quartiles
and how many pairs the change won, with the direction ("better") taken
from the change's BENCHMARK.json.  It then times `markov._forward_backward`
and `markov.forward_loglik` in FB_RUNS fresh interpreters of each checkout
(alternating, min over blocks) at T in {500, 8000} and L in {2, 6}, p=4.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fit", "risk", "shapley")
PAIRS = 10
SEED = 0
SECONDS = 10.0
FB_RUNS = 5
FB_SIZES = [(500, 2), (500, 6), (8000, 2), (8000, 6)]


def source_digest(checkout: Path) -> str:
    """sha256 over the checkout's src/msrisk/*.py, in name order."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "msrisk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def perfbench_command(workload: str) -> list:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "0"]


def run_perfbench(checkout: Path, workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, *perfbench_command(workload)[1:]],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if proc.returncode == 2 or not proc.stdout.strip():
        raise RuntimeError(f"perfbench in {checkout} failed: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = checkout / "perfbench" / "out" / f"{workload}-seed{SEED}-trace0.json"
    with open(record_path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": len(record["passes"]),
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


def time_forward_backward():
    """Min-of-15-blocks milliseconds of one _forward_backward and one forward_loglik call per (T, L)."""
    import numpy as np

    from msrisk import MsTModel, MvtParams
    from msrisk.markov import _forward_backward, forward_loglik

    out = {}
    for t_len, L in FB_SIZES:
        rng = np.random.default_rng(0)
        p = 4
        regimes = []
        for l in range(L):
            a = rng.normal(size=(p, p))
            regimes.append(MvtParams(0.5 * rng.normal(size=p), a @ a.T / p + np.eye(p), 5.0 + l))
        q = rng.uniform(0.05, 1.0, size=(L, L))
        np.fill_diagonal(q, 5.0)
        model = MsTModel(regimes, q / q.sum(axis=1, keepdims=True), np.full(L, 1.0 / L))
        y = rng.standard_t(5.0, size=(t_len, p))
        reps = max(1, 10000 // t_len)
        for name, fn in (("forward_backward", _forward_backward), ("forward_loglik", forward_loglik)):
            blocks = []
            for _ in range(15):
                start = time.perf_counter()
                for _ in range(reps):
                    fn(model, y)
                blocks.append((time.perf_counter() - start) / reps)
            out.setdefault(name, {})[f"T{t_len}_L{L}"] = 1e3 * min(blocks)
    return out


def forward_backward_ms(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, "--fb-child"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--fb-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.fb_child:
        print(json.dumps(time_forward_backward()))
        return 0
    if args.parent is None or args.change is None or args.out is None:
        ap.error("--parent, --change and --out are required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(sides["change"] / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    doc = {
        "command": perfbench_command("W"),
        "pairs": PAIRS,
        "order": "parent first on odd pairs, change first on even pairs",
        "source_sha256": {side: source_digest(path) for side, path in sides.items()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        pairs = []
        for i in range(1, PAIRS + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_perfbench(sides[side], workload)
            pairs.append(pair)
            print(f"{workload} pair {i}: wall_s {pair['parent']['metrics']['wall_s']:.4g} -> "
                  f"{pair['change']['metrics']['wall_s']:.4g}", file=sys.stderr)
        doc["workloads"][workload] = {
            "all_correct": all(p[s]["correct"] for p in pairs for s in sides),
            "summary": summarize(pairs, better),
            "pairs": pairs,
        }

    runs = {side: [] for side in sides}
    for i in range(FB_RUNS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(forward_backward_ms(sides[side]))
    for name in ("forward_backward", "forward_loglik"):
        doc[f"{name}_ms"] = {
            "what": f"min over 15 blocks of one markov.{name} call, p=4, "
                    f"best of {FB_RUNS} fresh interpreters per side",
            **{side: {k: min(r[name][k] for r in rs) for k in rs[0][name]}
               for side, rs in runs.items()},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

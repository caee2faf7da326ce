#!/usr/bin/env python3
"""Write the benchmark's truth models and its default-seed reference outputs.

    python3 perfbench/freeze.py

The truth models are the acceptance-criterion-3 model (fit) and the CLI's
own seeded default models for L=2, p=4 (risk) and L=3, p=5 (shapley).  The
references are the outputs of one pass of each workload at the default
seed.  Run this only when the benchmark itself changes: a change that
claims a speed-up must keep the references it was measured against.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

MODEL_SEED = 7  # seed of the CLI default models used by risk and shapley


def write_models(cli) -> None:
    from msrisk.markov import MsTModel, save_model
    from msrisk.studentt import MvtParams

    run.MODELS.mkdir(exist_ok=True)
    corr = [[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]]
    crit3 = MsTModel(
        [
            MvtParams([0.005, 0.004, 0.006], [[0.010**2 * c for c in r] for r in corr], 5.0),
            MvtParams([-0.010, -0.012, -0.008], [[0.030**2 * c for c in r] for r in corr], 5.0),
        ],
        [[0.95, 0.05], [0.05, 0.95]],
        [0.5, 0.5],
    )
    save_model(run.WORKLOADS["fit"].model_file, crit3)
    for name, (L, p) in (("risk", (2, 4)), ("shapley", (3, 5))):
        tmp = run.OUT / f"freeze-{name}"
        code, _ = run.call_cli(cli, ["simulate", "--L", L, "--p", p, "--T", 10,
                                     "--seed", MODEL_SEED, "--out", tmp])
        if code != 0:
            sys.exit(f"simulate for the {name} model exited with {code!r}")
        shutil.copyfile(tmp / "truth_model.json", run.WORKLOADS[name].model_file)
        shutil.rmtree(tmp)


def write_references(cli) -> None:
    run.REFERENCE.mkdir(exist_ok=True)
    for wl in run.WORKLOADS.values():
        work = run.OUT / f"freeze-{wl.name}"
        inputs, out = work / "inputs", work / "out"
        run.setup(wl, run.DEFAULT_SEED, inputs)
        code, seconds = run.call_cli(cli, run.command_argv(wl, inputs, out))
        if code != 0:
            sys.exit(f"{wl.name} exited with {code!r}")
        if wl.name == "fit":
            with open(out / "model.json", "r", encoding="utf-8") as fh:
                loglik = json.load(fh)["loglik"]
            with open(run.REFERENCE / "fit.json", "w", encoding="utf-8") as fh:
                json.dump({"seed": run.DEFAULT_SEED, "loglik": loglik}, fh, indent=1)
        else:
            name = "risk.csv" if wl.name == "risk" else "attribution.csv"
            shutil.copyfile(out / name, run.REFERENCE / name)
        shutil.rmtree(work)
        print(f"{wl.name}: reference written ({seconds:.2f} s)")


if __name__ == "__main__":
    cli = run.import_cli()
    write_models(cli)
    write_references(cli)

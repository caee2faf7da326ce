"""Golden values: the benchmark workloads at their reference seed reproduce the committed outputs.

Each case simulates the perfbench input of one workload from its committed
truth model at seed 0, runs the workload's msrisk command in-process and
checks what it wrote with perfbench/gate.py against perfbench/reference/,
at the gate's own tolerances: 1e-9 on risk and Shapley values and on
additivity, and for `fit` the reference log-likelihood floor plus the
recovery tolerances.  The perfbench files are only read.

Each command's work is also counted and held to a budget: the nu score
sweeps of the fit's EM (one sweep scores every regime still being solved)
and the t-CDF values of the co-risk passes.  These counts, unlike
timings, repeat exactly from run to run, so a change that makes the
solvers do more work fails here; one that needs more raises its budget and
says why, one that needs less lowers it.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from msrisk import markov
from msrisk.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 0  # the seed perfbench/reference/ was frozen at


def load_gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", PERFBENCH / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


gate = load_gate()

# workload -> (panel length, msrisk arguments besides --input/--model/--out),
# as perfbench/run.py runs them
WORKLOADS = {
    "fit": (8000, ["fit", "--L", "2", "--restarts", "1"]),
    "risk": (12, ["risk", "--measure", "both"]),
    "shapley": (6, ["shapley", "--measure", "covar"]),
}

# workload -> most work its command may do: nu score sweeps for fit, t-CDF values otherwise
BUDGETS = {"fit": 43, "risk": 1886, "shapley": 4380}


def count_work(monkeypatch, name) -> list:
    """A one-item list that counts the work BUDGETS bounds from here on.

    A nu score sweep makes one markov._digamma_gaps call; t-CDF values are
    counted on the scipy.special module, where the quantile solve finds stdtr.
    """
    count = [0]
    module, attribute = (markov, "_digamma_gaps") if name == "fit" else (special, "stdtr")
    real = getattr(module, attribute)

    def counted(*args):
        count[0] += 1 if name == "fit" else np.broadcast(*args).size
        return real(*args)

    monkeypatch.setattr(module, attribute, counted)
    return count


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reproduces_reference(name, tmp_path, monkeypatch):
    t_len, command = WORKLOADS[name]
    truth = PERFBENCH / "models" / f"{name}_truth.json"
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    assert main(["simulate", "--model", str(truth), "--T", str(t_len),
                 "--seed", str(SEED), "--out", str(inputs)]) == 0
    argv = [*command, "--input", str(inputs / "panel.csv"), "--out", str(out)]
    if name != "fit":
        argv += ["--model", str(inputs / "truth_model.json")]
    work = count_work(monkeypatch, name)
    assert main(argv) == 0
    assert 0 < work[0] <= BUDGETS[name]

    rows = gate.read_schema_csv(inputs / "panel.csv")
    dates, names = [r["date"] for r in rows], [k for k in rows[0] if k != "date"]
    if name == "fit":
        reference = json.loads((PERFBENCH / "reference" / "fit.json").read_text("utf-8"))
        assert reference["seed"] == SEED
        truth_doc = json.loads(truth.read_text("utf-8"))
        attempted, failed = gate.check_fit(out, truth_doc, len(dates), reference)
        assert attempted == 1
    else:
        check, file = ((gate.check_risk, "risk.csv") if name == "risk"
                       else (gate.check_shapley, "attribution.csv"))
        reference = gate.read_schema_csv(PERFBENCH / "reference" / file)
        attempted, failed = check(out, dates, names, reference)
        assert attempted == len(dates) * len(names) > 0
    assert failed == {}

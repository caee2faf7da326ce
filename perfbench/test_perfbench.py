"""Self-tests of the benchmark harness: tracer, gate and pass accounting.

    python3 -m pytest perfbench -q
"""

import math
import shutil
import time
import types
from dataclasses import replace

import pytest

import gate
import run
from spantrace import Tracer, public_functions

cli = run.import_cli()


def bindings(tracer):
    found = {
        (module.__name__, attr): fn
        for module in tracer.modules
        for attr, fn in public_functions(module)
    }
    for cls in tracer.counted:
        found[(cls.__qualname__, "__post_init__")] = cls.__dict__["__post_init__"]
    return found


def test_uninstall_restores_every_original():
    tracer = run.make_tracer()
    before = bindings(tracer)
    # mixture_quantile is bound by name in studentt, corisk and attribution
    assert {m for m, a in before if a == "mixture_quantile"} >= {
        "msrisk.studentt", "msrisk.corisk", "msrisk.attribution"
    }
    with tracer:
        during = bindings(tracer)
        assert all(during[k] is not before[k] for k in before)
        wrapped = {k: during[k] for k in before if k[1] == "mixture_quantile"}
        assert len({id(f) for f in wrapped.values()}) == 1
    after = bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize(
    "name, t_len",
    [("fit", 300), ("risk", 2), ("shapley", 1)],
)
def test_traced_and_untraced_outputs_are_identical(tmp_path, name, t_len):
    wl = replace(run.WORKLOADS[name], t_len=t_len)
    inputs = tmp_path / "inputs"
    run.setup(wl, 5, inputs)
    argv = lambda out: run.command_argv(wl, inputs, out)  # noqa: E731
    assert run.call_cli(cli, argv(tmp_path / "plain"))[0] == 0
    tracer = run.make_tracer()
    tracer.run = 0
    with tracer:
        assert run.call_cli(cli, argv(tmp_path / "traced"))[0] == 0
    assert _outputs(tmp_path / "plain") == _outputs(tmp_path / "traced")
    stats = tracer.layer_stats(0)
    assert stats["cli.main"]["calls"] == 1
    values = run.layer_values(stats, tracer.run_counts(0))
    if name == "fit":
        assert values["markov.em_fit.calls"] == wl.starts
        assert values["markov.em_fit.iters"] > 0
    else:
        assert values["corisk.level_redundancy"] >= 1.0
        assert values["studentt.MvtParams.inits"] > 0


def _perturb_first_value(src, dst, column):
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[1].rstrip("\n").split(",")
    cells = lines[2].rstrip("\n").split(",")
    k = header.index(column)
    cells[k] = repr(float(cells[k]) + 1e-6)
    lines[2] = ",".join(cells) + "\n"
    dst.write_text("".join(lines), encoding="utf-8")


def _reference_axes(rows):
    dates = sorted({r["date"] for r in rows})
    names = sorted({r["target"] for r in rows})
    return dates, names


def _stub_cli(write):
    def main(argv):
        out = run.Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        write(out)
        return 0
    return types.SimpleNamespace(main=main)


def test_perturbed_risk_row_counts_as_one_failed_unit(tmp_path):
    reference = gate.read_schema_csv(run.REFERENCE / "risk.csv")
    dates, names = _reference_axes(reference)
    wl = run.WORKLOADS["risk"]

    def check(out):
        return run.check_outputs(wl, out, dates, names, None, reference)

    def write(out):
        _perturb_first_value(run.REFERENCE / "risk.csv", out / "risk.csv", "value")

    passes = run.run_passes(
        _stub_cli(write), wl, tmp_path, tmp_path / "out", 0.0,
        len(names) * len(dates), check,
    )
    assert [(p.attempted, len(p.failed)) for p in passes] == [
        (len(names) * len(dates), 1)
    ]
    # the unperturbed reference passes its own check
    shutil.copyfile(run.REFERENCE / "risk.csv", tmp_path / "out" / "risk.csv")
    assert check(tmp_path / "out") == (len(names) * len(dates), {})


def test_perturbed_shapley_share_is_caught(tmp_path):
    reference = gate.read_schema_csv(run.REFERENCE / "attribution.csv")
    dates, names = _reference_axes(reference)
    work = tmp_path / "inputs"
    run.setup(run.WORKLOADS["shapley"], run.DEFAULT_SEED, work)
    out = tmp_path / "out"
    assert run.call_cli(cli, run.command_argv(run.WORKLOADS["shapley"], work, out))[0] == 0
    assert gate.check_shapley(out, dates, names, reference)[1] == {}
    _perturb_first_value(out / "attribution.csv", out / "attribution.csv", "share")
    attempted, failed = gate.check_shapley(out, dates, names, reference)
    assert attempted == len(names) * len(dates) and len(failed) == 1


def test_self_times_add_up_to_the_parent_wall_time():
    module = types.ModuleType("msrisk.synthetic")

    def inner(delay):
        time.sleep(delay)

    def outer():
        time.sleep(0.01)
        module.inner(0.02)
        module.inner(0.01)
        try:
            module.broken()
        except ZeroDivisionError:
            pass

    def broken():
        return 1 / 0

    for fn in (inner, outer, broken):
        fn.__module__ = module.__name__
        fn.__qualname__ = fn.__name__
        setattr(module, fn.__name__, fn)
    tracer = Tracer([module])
    tracer.run = "r"
    with tracer:
        module.outer()
    assert module.outer is outer
    stats = tracer.layer_stats("r")
    total = stats["synthetic.outer"]["total_s"]
    self_sum = sum(row["self_s"] for row in stats.values())
    assert math.isclose(self_sum, total, rel_tol=0.0, abs_tol=1e-12)
    assert stats["synthetic.inner"]["calls"] == 2
    assert stats["synthetic.broken"]["failed"] == 1
    assert stats["synthetic.outer"]["self_s"] >= 0.01
    assert not tracer._stack

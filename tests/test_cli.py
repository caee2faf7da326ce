import csv
import gzip
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msrisk import MsTModel, MvtParams, load_csv
from msrisk.cli import _parse_range, main
from msrisk.markov import load_model, save_model


def read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    return list(csv.DictReader(lines))


def has_schema_header(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.readline().strip() == "# schema: msrisk/1"


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """Simulated p=2 panel plus ground-truth model."""
    out = tmp_path_factory.mktemp("sim")
    code = main(
        ["simulate", "--L", "2", "--p", "2", "--T", "120",
         "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def sim3_dir(tmp_path_factory):
    """Simulated p=3 panel plus ground-truth model."""
    out = tmp_path_factory.mktemp("sim3")
    code = main(
        ["simulate", "--L", "2", "--p", "3", "--T", "40",
         "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_outputs(self, sim_dir):
        panel_path = sim_dir / "panel.csv"
        truth_path = sim_dir / "truth_model.json"
        assert has_schema_header(panel_path)
        pan = load_csv(panel_path)
        assert pan.n_obs == 120 and pan.n_series == 2
        model, meta = load_model(truth_path)
        assert model.n_states == 2 and model.dim == 2
        assert meta["schema"] == "msrisk/1"

    def test_deterministic(self, sim_dir, tmp_path):
        assert main(
            ["simulate", "--L", "2", "--p", "2", "--T", "120",
             "--seed", "7", "--out", str(tmp_path)]
        ) == 0
        assert (tmp_path / "panel.csv").read_text() == (
            sim_dir / "panel.csv"
        ).read_text()


    @pytest.mark.parametrize("flag, value, message", [
        ("--L", "0", "error: --L must be >= 1\n"),
        ("--p", "1", "error: --p must be >= 2: a panel needs at least two series\n"),
        ("--seed", "-1", "error: --seed must be >= 0\n"),
    ])
    def test_bad_size_is_an_argument_error(self, tmp_path, capsys, flag, value, message):
        code = main(["simulate", flag, value, "--T", "20", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "panel.csv").exists()

    def test_one_series_model_is_an_error(self, tmp_path, capsys):
        model = MsTModel([MvtParams([0.0], [[1.0]], 5.0)], [[1.0]], [1.0])
        save_model(tmp_path / "one.json", model)
        code = main(["simulate", "--model", str(tmp_path / "one.json"), "--T", "20",
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: model dimension 1: a panel needs at least two series\n"
        )


class TestStats:
    def test_summary(self, sim_dir, tmp_path):
        code = main(
            ["stats", "--input", str(sim_dir / "panel.csv"),
             "--alpha", "0.05", "--out", str(tmp_path)]
        )
        assert code == 0
        out = tmp_path / "summary.csv"
        assert has_schema_header(out)
        rows = read_rows(out)
        assert len(rows) == 2
        assert "quantile_0.05" in rows[0]
        assert float(rows[0]["kurtosis"]) > 0

    def test_prices_become_log_returns(self, sim_dir, tmp_path):
        data = load_csv(sim_dir / "panel.csv")
        prices = 100.0 * np.exp(np.cumsum(data.returns, axis=0))
        files = {"prices": (data.dates, prices), "returns": (data.dates[1:], data.returns[1:])}
        for name, (dates, values) in files.items():
            lines = [",".join(["date", *data.names])] + [
                ",".join([d.isoformat(), *map(repr, row)]) for d, row in zip(dates, values.tolist())
            ]
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for name, flags in (("prices", ["--prices"]), ("returns", [])):
            assert main(["stats", "--input", str(tmp_path / f"{name}.csv"), *flags,
                         "--out", str(tmp_path / name)]) == 0
        got, want = (read_rows(tmp_path / name / "summary.csv") for name in ("prices", "returns"))
        assert [r["name"] for r in got] == list(data.names)
        for g, w in zip(got, want):
            assert g.keys() == w.keys()
            for column in set(w) - {"name"}:
                assert math.isclose(float(g[column]), float(w[column]), rel_tol=1e-9), column

    def test_empty_input_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["stats", "--input", str(empty), "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", "--out", str(tmp_path)])

    def test_undecodable_input_is_named(self, sim_dir, tmp_path, capsys):
        packed = tmp_path / "panel.csv.gz"
        packed.write_bytes(gzip.compress((sim_dir / "panel.csv").read_bytes()))
        code = main(["stats", "--input", str(packed), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {packed}: not UTF-8 text: ")

    def test_byte_order_mark_is_skipped(self, sim_dir, tmp_path):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (sim_dir / "panel.csv").read_bytes())
        for name, path in (("plain", sim_dir / "panel.csv"), ("bom", marked)):
            assert main(["stats", "--input", str(path), "--out", str(tmp_path / name)]) == 0
        summary = [(tmp_path / name / "summary.csv").read_bytes() for name in ("plain", "bom")]
        assert summary[0] == summary[1]


def json_numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from json_numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


class TestEveryOutput:
    TEXT_COLUMNS = {
        "date", "name", "target", "distress_set", "measure", "chosen", "error",
        "contributor", "conditioner",
    }

    def test_numbers_parse_and_are_finite(self, sim_dir, tmp_path):
        panel_path = str(sim_dir / "panel.csv")
        truth = str(sim_dir / "truth_model.json")
        for argv in (
            ["stats", "--input", panel_path],
            ["select", "--input", panel_path, "--L-range", "1:2", "--restarts", "1"],
            ["fit", "--input", panel_path, "--L", "2", "--restarts", "1"],
            ["risk", "--input", panel_path, "--model", truth],
            ["shapley", "--input", panel_path, "--model", truth, "--compare-standard"],
        ):
            assert main(argv + ["--out", str(tmp_path)]) == 0, argv[0]
        outputs = sorted(sim_dir.iterdir()) + sorted(tmp_path.iterdir())
        assert {p.name for p in outputs} >= {
            "panel.csv", "truth_model.json", "summary.csv", "selection.csv",
            "model.json", "smoothed.csv", "risk.csv", "attribution.csv",
            "attribution.json", "standard_delta.csv",
        }
        for path in outputs:
            if path.suffix == ".csv":
                for row in read_rows(path):
                    for column, cell in row.items():
                        if column not in self.TEXT_COLUMNS:
                            float(cell)
            elif path.suffix == ".json":
                numbers = list(json_numbers(json.loads(path.read_text())))
                assert numbers and all(math.isfinite(x) for x in numbers), path.name


class TestFitAndSelect:
    def test_fit_round_trip(self, sim_dir, tmp_path):
        code = main(
            ["fit", "--input", str(sim_dir / "panel.csv"), "--L", "2",
             "--restarts", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        model, meta = load_model(tmp_path / "model.json")
        assert model.n_states == 2 and model.dim == 2
        assert meta["loglik"] is not None
        assert len(model.initial) == 2

        rows = read_rows(tmp_path / "smoothed.csv")
        assert len(rows) == 120
        sums = [
            float(r["state_1"]) + float(r["state_2"]) for r in rows
        ]
        np.testing.assert_allclose(sums, 1.0, atol=1e-10)

    def test_bad_state_count_is_an_argument_error(self, sim_dir, tmp_path, capsys):
        code = main(
            ["fit", "--input", str(sim_dir / "panel.csv"), "--L", "0",
             "--out", str(tmp_path)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: L must be >= 1\n"

    @pytest.mark.parametrize("restarts, seed", [("3", "-5"), ("2", "-1")])
    def test_negative_seed_is_an_argument_error(self, sim_dir, tmp_path, capsys,
                                                restarts, seed):
        code = main(["fit", "--input", str(sim_dir / "panel.csv"), "--L", "2",
                     "--restarts", restarts, "--seed", seed, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not (tmp_path / "model.json").exists()

    def test_select_single_candidate(self, sim_dir, tmp_path):
        code = main(
            ["select", "--input", str(sim_dir / "panel.csv"),
             "--L-range", "2:2", "--restarts", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "selection.csv")
        assert len(rows) == 1
        assert rows[0]["chosen"] == "chosen"
        assert float(rows[0]["aic"]) == pytest.approx(
            -2 * float(rows[0]["loglik"]) + 2 * int(rows[0]["k"])
        )


    @pytest.mark.parametrize("text", ["a:b", "2:3:4", ""])
    def test_bad_L_range_names_the_flag(self, sim_dir, tmp_path, capsys, text):
        code = main(
            ["select", "--input", str(sim_dir / "panel.csv"), "--L-range", text,
             "--restarts", "1", "--out", str(tmp_path)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --L-range must be LO:HI or a single integer, got {text!r}\n"
        )
        assert not (tmp_path / "selection.csv").exists()

    @pytest.mark.parametrize("text, expected", [
        ("2:6", range(2, 7)), ("3:3", range(3, 4)), ("3", [3]), (" 1 : 2", range(1, 3)),
    ])
    def test_L_range_forms(self, text, expected):
        assert _parse_range(text) == expected

    def test_select_names_constant_series(self, sim_dir, tmp_path, capsys):
        rows = (sim_dir / "panel.csv").read_text().splitlines()
        flat = rows[:2] + [line.rsplit(",", 1)[0] + ",0.5" for line in rows[2:]]
        panel_path = tmp_path / "flat.csv"
        panel_path.write_text("\n".join(flat) + "\n")
        code = main(
            ["select", "--input", str(panel_path), "--L-range", "1:2",
             "--restarts", "1", "--out", str(tmp_path)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: series 's2' is constant (zero variance) and cannot be fitted\n"
        )


class TestRisk:
    def test_risk_from_truth_model(self, sim_dir, tmp_path):
        code = main(
            ["risk", "--input", str(sim_dir / "panel.csv"),
             "--model", str(sim_dir / "truth_model.json"),
             "--measure", "covar", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "risk.csv")
        # 2 targets x 4 measures (var, es, covar, delta_covar) x 120 dates.
        assert len(rows) == 2 * 4 * 120
        measures = {r["measure"] for r in rows}
        assert measures == {"var", "es", "covar", "delta_covar"}
        assert all(float(r["tau1"]) == 0.05 for r in rows[:10])

    def test_dimension_mismatch(self, sim_dir, sim3_dir, tmp_path, capsys):
        code = main(
            ["risk", "--input", str(sim3_dir / "panel.csv"),
             "--model", str(sim_dir / "truth_model.json"),
             "--out", str(tmp_path)]
        )
        assert code == 1
        assert "error: panel dimension 3 != model dimension" in capsys.readouterr().err


    @pytest.mark.parametrize("field, index", [("Q", 0), ("delta", 1), ("mu", 0)])
    def test_non_finite_model_is_an_error(self, sim_dir, tmp_path, capsys, field, index):
        doc = json.loads((sim_dir / "truth_model.json").read_text())
        (doc["regimes"][1] if field == "mu" else doc)[field][index] = math.nan
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        code = main(["risk", "--input", str(sim_dir / "panel.csv"), "--model", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "risk.csv").exists()

    def test_byte_order_mark_model_loads(self, sim_dir, tmp_path):
        marked = tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + (sim_dir / "truth_model.json").read_bytes())
        for name, model in (("plain", sim_dir / "truth_model.json"), ("bom", marked)):
            assert main(["risk", "--input", str(sim_dir / "panel.csv"), "--model", str(model),
                         "--out", str(tmp_path / name)]) == 0
        risk = [(tmp_path / name / "risk.csv").read_bytes() for name in ("plain", "bom")]
        assert risk[0] == risk[1]

    def test_model_that_is_not_json_is_named(self, sim_dir, tmp_path, capsys):
        panel_path = str(sim_dir / "panel.csv")
        code = main(["risk", "--input", panel_path, "--model", panel_path,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: model file {panel_path} is not valid JSON: "
            "Expecting value: line 1 column 1 (char 0)\n"
        )
        assert not (tmp_path / "out" / "risk.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [1, 2], "a model file must hold a JSON object, not list"),
        (lambda doc: {}, "model schema must be 'msrisk/1', got None"),
        (lambda doc: {**doc, "schema": "msrisk/2"},
         "model schema must be 'msrisk/1', got 'msrisk/2'"),
        *[(lambda doc, key=key: {k: v for k, v in doc.items() if k != key},
           f"model file has no {key!r}") for key in ("L", "p", "regimes", "Q", "delta")],
        (lambda doc: {**doc, "L": 2.0},
         "model 'L' and 'p' must be positive integers, got 2.0 and 2"),
        (lambda doc: {**doc, "p": "2"},
         "model 'L' and 'p' must be positive integers, got 2 and '2'"),
        (lambda doc: {**doc, "regimes": doc["regimes"][:1]},
         "model 'regimes' must list L=2 regimes"),
        (lambda doc: {**doc, "regimes": {"0": doc["regimes"][0]}},
         "model 'regimes' must list L=2 regimes"),
        (lambda doc: {**doc, "regimes": [doc["regimes"][0], {"mu": [0.0, 0.0]}]},
         "model regime 1 must be an object with mu, sigma and nu"),
        (lambda doc: {**doc, "regimes": [doc["regimes"][0], {**doc["regimes"][1], "nu": None}]},
         "model regime 1 'nu' must be a finite number, got None"),
        (lambda doc: {**doc, "regimes": [{**doc["regimes"][0], "nu": [5.0]}, doc["regimes"][1]]},
         "model regime 0 'nu' must be a finite number, got [5.0]"),
        (lambda doc: {**doc, "regimes": [{**doc["regimes"][0], "nu": 10**400},
                                         doc["regimes"][1]]},
         f"model regime 0 'nu' must be a finite number, got {10**400}"),
        (lambda doc: {**doc, "regimes": [{**doc["regimes"][0], "mu": "ab"}, doc["regimes"][1]]},
         "model regime 0 'mu' must be a list of 2 numbers"),
        (lambda doc: {**doc, "regimes": [{**doc["regimes"][0], "mu": [0.0] * 3},
                                         doc["regimes"][1]]},
         "model regime 0 'mu' must hold 2 numbers, got 3"),
        (lambda doc: {**doc, "regimes": [doc["regimes"][0], {**doc["regimes"][1],
                                                             "sigma": [1.0, 0.0, 1.0]}]},
         "model regime 1 'sigma' must hold 4 numbers, got 3"),
        (lambda doc: {**doc, "Q": [1.0]}, "model 'Q' must hold 4 numbers, got 1"),
        (lambda doc: {**doc, "Q": [10**400, 0.0, 0.0, 1.0]},
         "model 'Q' must be a list of 4 numbers"),
        (lambda doc: {**doc, "delta": [1.0]}, "model 'delta' must hold 2 numbers, got 1"),
    ], ids=["list", "empty", "schema", "no-L", "no-p", "no-regimes", "no-Q", "no-delta",
            "float-L", "text-p", "short-regimes", "regimes-object", "regime-fields",
            "null-nu", "list-nu", "huge-nu", "text-mu", "long-mu", "short-sigma",
            "short-Q", "huge-Q", "short-delta"])
    def test_malformed_model_is_an_error(self, sim_dir, tmp_path, capsys, edit, message):
        doc = json.loads((sim_dir / "truth_model.json").read_text())
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(edit(doc)))
        code = main(["risk", "--input", str(sim_dir / "panel.csv"), "--model", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out" / "risk.csv").exists()


class TestShapley:
    def test_attribution_outputs(self, sim3_dir, tmp_path):
        code = main(
            ["shapley", "--input", str(sim3_dir / "panel.csv"),
             "--model", str(sim3_dir / "truth_model.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "attribution.csv")
        # p=3: 6 (target, contributor) series x 40 dates.
        assert len(rows) == 6 * 40
        doc = json.loads((tmp_path / "attribution.json").read_text())
        assert doc["schema"] == "msrisk/1"
        for record in doc["records"]:
            for entry in record["targets"].values():
                total = sum(entry["shares"].values())
                assert abs(total - entry["grand_value"]) < 1e-9

    def test_duplicate_series_name_is_an_error(self, sim3_dir, tmp_path, capsys):
        lines = (sim3_dir / "panel.csv").read_text(encoding="utf-8").split("\n")
        names = lines[1].split(",")
        lines[1] = ",".join([*names[:-1], names[1]])
        dup = tmp_path / "dup.csv"
        dup.write_text("\n".join(lines), encoding="utf-8")
        code = main(["shapley", "--input", str(dup), "--model", str(sim3_dir / "truth_model.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"error: duplicate series name {names[1]!r}" in capsys.readouterr().err

    def test_compare_standard(self, sim_dir, tmp_path):
        code = main(
            ["shapley", "--input", str(sim_dir / "panel.csv"),
             "--model", str(sim_dir / "truth_model.json"),
             "--compare-standard", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "standard_delta.csv")
        # 2 ordered pairs x 120 dates.
        assert len(rows) == 2 * 120

    def test_compare_standard_fits_each_pair_once(self, sim3_dir, tmp_path, monkeypatch):
        from msrisk import markov

        calls = []
        original = markov.fit_restarts

        def counting(panel, *args, **kwargs):
            calls.append(tuple(panel.names))
            return original(panel, *args, **kwargs)

        monkeypatch.setattr(markov, "fit_restarts", counting)
        code = main(
            ["shapley", "--input", str(sim3_dir / "panel.csv"),
             "--model", str(sim3_dir / "truth_model.json"),
             "--compare-standard", "--out", str(tmp_path)]
        )
        assert code == 0
        p = 3
        assert len(calls) == p * (p - 1) // 2
        assert len(set(calls)) == len(calls)
        rows = read_rows(tmp_path / "standard_delta.csv")
        # every ordered (target, conditioner) pair x 40 dates
        assert len(rows) == p * (p - 1) * 40
        names = {name for pair in calls for name in pair}
        assert {(r["target"], r["conditioner"]) for r in rows} == {
            (a, b) for a in names for b in names if a != b
        }


class TestConfig:
    def test_config_file_fills_defaults(self, sim_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "input": str(sim_dir / "panel.csv"),
            "alpha": 0.1,
        }))
        code = main(
            ["stats", "--config", str(config), "--out", str(tmp_path)]
        )
        assert code == 0
        assert "quantile_0.1" in read_rows(tmp_path / "summary.csv")[0]

    def test_flags_override_config(self, sim_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.1}))
        code = main(
            ["stats", "--config", str(config),
             "--input", str(sim_dir / "panel.csv"),
             "--alpha", "0.2", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "quantile_0.2" in read_rows(tmp_path / "summary.csv")[0]

    def test_abbreviated_flag_beats_config(self, sim_dir, tmp_path, monkeypatch):
        from msrisk import markov

        restarts = []
        original = markov.fit_restarts

        def recording(panel, L, n_restarts=1, **kwargs):
            restarts.append(n_restarts)
            return original(panel, L, n_restarts=n_restarts, **kwargs)

        monkeypatch.setattr(markov, "fit_restarts", recording)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"restarts": 1}))
        code = main(
            ["fit", "--config", str(config), "--input", str(sim_dir / "panel.csv"),
             "--L", "2", "--restart", "2", "--out", str(tmp_path)]
        )
        assert code == 0 and restarts == [2]

    def test_config_supplies_required_flag(self, sim_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "L": 2, "input": str(sim_dir / "panel.csv"), "restarts": 1,
        }))
        code = main(["fit", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        model, _ = load_model(tmp_path / "model.json")
        assert model.n_states == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file"),
            ("dir", "Is a directory"),
            ('{"alpha": 0.1,', "not valid JSON"),
            ("[1, 2]", "JSON object"),
        ],
    )
    def test_bad_config_file_is_an_error(self, sim_dir, tmp_path, capsys, content, message):
        config = tmp_path / "config.json"
        if content == "dir":
            config.mkdir()
        elif content is not None:
            config.write_text(content)
        code = main(
            ["stats", "--config", str(config),
             "--input", str(sim_dir / "panel.csv"), "--out", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and message in err

    def test_undecodable_config_is_named(self, sim_dir, tmp_path, capsys):
        config = tmp_path / "config.json.gz"
        config.write_bytes(gzip.compress(b'{"alpha": 0.1}'))
        code = main(["stats", "--config", str(config),
                     "--input", str(sim_dir / "panel.csv"), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: config file {config} is not valid JSON: 'utf-8' codec can't decode")

    def test_unknown_key_named(self, sim_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.1, "bogus_key": 3}))
        with pytest.raises(SystemExit):
            main(
                ["stats", "--config", str(config),
                 "--input", str(sim_dir / "panel.csv"), "--out", str(tmp_path)]
            )
        assert "--bogus-key=3" in capsys.readouterr().err


class TestSeedFlag:
    """--seed belongs to the commands that draw random numbers and to no other."""

    @pytest.mark.parametrize("command", ["stats", "risk"])
    def test_rejected_where_nothing_is_drawn(self, sim_dir, tmp_path, capsys, command):
        argv = [command, "--input", str(sim_dir / "panel.csv"), "--out", str(tmp_path),
                "--seed", "1"]
        if command == "risk":
            argv += ["--model", str(sim_dir / "truth_model.json")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, has_seed", [
        ("stats", False), ("risk", False),
        ("select", True), ("fit", True), ("shapley", True), ("simulate", True),
    ])
    def test_help_lists_seed_only_where_drawn(self, capsys, command, has_seed):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert ("--seed" in capsys.readouterr().out) == has_seed


class TestPredictiveLawFlags:
    """risk and shapley read one law, the one-step-ahead predictive mixture
    from the filtered probabilities, and take no flag that would choose another."""

    @pytest.mark.parametrize("command", ["risk", "shapley"])
    @pytest.mark.parametrize("flag", [["--horizon", "2"], ["--probs", "smoothed"]],
                             ids=["horizon", "probs"])
    def test_rejected(self, sim_dir, tmp_path, capsys, command, flag):
        argv = [command, "--input", str(sim_dir / "panel.csv"),
                "--model", str(sim_dir / "truth_model.json"), "--out", str(tmp_path), *flag]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def test_import_leaves_scipy_linalg_unloaded():
    # A fresh interpreter, since the test suite imports scipy.linalg itself:
    # numpy.linalg is the package's one linear-algebra backend.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, msrisk.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


def test_simulate_and_stats_leave_scipy_unloaded(tmp_path):
    # A fresh interpreter, since the test suite imports scipy itself:
    # scipy.special loads on the first t CDF or quantile, which import,
    # simulate, stats, fit and select never need and risk does.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = """if True:
        import json, sys
        import msrisk, msrisk.cli
        out = sys.argv[1]
        panel, model = out + "/sim/panel.csv", out + "/sim/truth_model.json"
        runs = [("import", None),
                ("simulate", ["simulate", "--L", "2", "--p", "2", "--T", "120",
                              "--seed", "7", "--out", out + "/sim"]),
                ("stats", ["stats", "--input", panel, "--out", out + "/stats"]),
                ("fit", ["fit", "--input", panel, "--L", "2", "--out", out + "/fit"]),
                ("select", ["select", "--input", panel, "--L-range", "2:3", "--restarts", "1",
                            "--out", out + "/select"]),
                ("risk", ["risk", "--input", panel, "--model", model, "--out", out + "/risk"])]
        report = {}
        for name, argv in runs:
            code = None if argv is None else msrisk.cli.main(argv)
            report[name] = [code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
        print(json.dumps(report))
    """
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["import"] == [None, []]
    assert report["simulate"] == [0, []]
    assert report["stats"] == [0, []]
    assert report["fit"] == [0, []]
    assert report["select"] == [0, []]
    risk_code, loaded = report["risk"]
    assert risk_code == 0 and "scipy.special" in loaded

    sim = tmp_path / "sim"
    assert main(["risk", "--input", str(sim / "panel.csv"), "--model",
                 str(sim / "truth_model.json"), "--out", str(tmp_path / "in_process")]) == 0
    assert (tmp_path / "risk" / "risk.csv").read_bytes() == (
        tmp_path / "in_process" / "risk.csv"
    ).read_bytes()


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}])
def test_import_starts_no_blas_threads(preset):
    # A fresh interpreter, since the test suite's numpy is loaded already:
    # with no thread variable set, import msrisk sets OPENBLAS_NUM_THREADS=1
    # before numpy loads, so neither numpy's OpenBLAS nor the copy that
    # scipy.special loads starts a worker pool; a caller's setting stays.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(preset)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = """if True:
        import json, os

        def threads():
            try:
                return len(os.listdir("/proc/self/task"))
            except FileNotFoundError:
                return None

        before = dict(os.environ)
        import msrisk.cli
        report = {"before": before, "after": dict(os.environ), "import": threads()}
        from scipy import special
        report["special"] = threads()
        print(json.dumps(report))
    """
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    report = json.loads(result.stdout.strip().splitlines()[-1])
    if preset:
        assert report["after"] == report["before"]
        assert ("OPENBLAS_NUM_THREADS" in report["after"]) == ("OPENBLAS_NUM_THREADS" in preset)
        return
    assert report["after"] == {**report["before"], "OPENBLAS_NUM_THREADS": "1"}
    for stage in ("import", "special"):
        assert report[stage] in (1, None), stage


# The private functions that import scipy.special in their body.
SCIPY_IMPORTERS = {"studentt": [], "markov": [], "simulate": ["_joint_logpdf"]}


@pytest.mark.parametrize("name", ["studentt", "markov", "simulate"])
def test_functions_keep_their_docstrings(name):
    # An import above a docstring makes it a plain expression and __doc__ None.
    module = importlib.import_module(f"msrisk.{name}")
    public = [n for n, f in vars(module).items()
              if inspect.isfunction(f) and f.__module__ == module.__name__
              and not n.startswith("_")]
    assert public
    missing = [n for n in public + SCIPY_IMPORTERS[name]
               if not (getattr(module, n).__doc__ or "").strip()]
    assert missing == []

"""The columnar CSV reader and writers against the row-by-row code they replace.

oracle_load_csv is the csv.reader loop with one float() per cell, and
oracle_write_csv the csv.writer writer, that load_csv and _write_csv were
before they became columnar.  oracle_write_attribution_json builds the
nested attribution document and hands it to json.dump(indent=1), as
write_attribution_json did before it wrote the text in one pass.  The CLI
tests rebuild every output row the way the commands built them for the
oracles, from the same computed results, and require the bytes the CLI
wrote.
"""

import csv
import datetime
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrisk import attribution, corisk, markov, panel, simulate
from msrisk.cli import main
from msrisk.markov import SelectionRow, SelectionTable
from msrisk.panel import CSV_SCHEMA, PanelError, ReturnPanel, load_csv

from helpers import random_model


def oracle_write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def oracle_load_csv(path) -> ReturnPanel:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise PanelError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2:
        raise PanelError(f"{path}: no value columns")

    dates, values, bad_rows = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise PanelError(f"{path}: ragged row at line {lineno}")
        try:
            dates.append(datetime.date.fromisoformat(row[0].strip()))
            values.append([float(cell) for cell in row[1:]])
        except ValueError:
            bad_rows.append(lineno)
    if bad_rows:
        raise PanelError(f"{path}: unparseable cells in rows {bad_rows}")
    if not dates:
        raise PanelError(f"{path}: no data rows")
    return ReturnPanel(dates, header[1:], np.array(values))


# ---------------------------------------------------------------- writer


def oracle_write_attribution_json(path, dates, names, series) -> None:
    records = []
    for t, d in enumerate(dates):
        entry = {"date": d.isoformat(), "targets": {}}
        for i in series.targets:
            entry["targets"][names[i]] = {
                "grand_value": float(series.grand[i][t]),
                "shares": {
                    names[j]: float(series.shares[(i, j)][t])
                    for j in range(len(names))
                    if (i, j) in series.shares
                },
            }
        records.append(entry)
    doc = {
        "schema": "msrisk/1",
        "measure": series.measure,
        "tau1": series.tau1,
        "tau2": series.tau2,
        "records": records,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def oracle_rows(name, got):
    """(header, rows) of one output file as the commands built them row by row."""
    if name == "panel.csv":
        data = got["sample_path"][1]
        return ["date"] + list(data.names), (
            [d.isoformat(), *map(repr, values)]
            for d, values in zip(data.dates, data.returns.tolist())
        )
    if name == "summary.csv":
        stats = got["summary_stats"]
        columns = ("minimum", "maximum", "mean", "std", "skewness", "kurtosis", "quantile", "jb")
        return (
            ["name", "min", "max", "mean", "std", "skewness", "kurtosis",
             f"quantile_{stats.alpha}", "jb"],
            [(n, *(repr(float(getattr(stats, c)[i])) for c in columns))
             for i, n in enumerate(stats.names)],
        )
    if name == "selection.csv":
        table = got["select_L"]
        return ["L", "loglik", "k", "aic", "bic", "chosen", "error"], [
            (r.L, repr(r.loglik), r.k, repr(r.aic), repr(r.bic),
             "chosen" if r.L == table.chosen else "", r.error)
            for r in table.rows
        ]
    if name == "smoothed.csv":
        fit, data = got["fit_restarts"][0], got["load_csv"]
        return ["date"] + [f"state_{l+1}" for l in range(fit.model.n_states)], (
            [d.isoformat(), *map(repr, probs)]
            for d, probs in zip(data.dates, fit.smoothed.tolist())
        )
    if name == "risk.csv":
        dates, names = got["load_csv"].dates, got["load_csv"].names
        rows = []
        for s in got["total_risk_series"]:
            dset = "+".join(sorted(names[j] for j in s.distress))
            for label in ("var", "es", "covar", "coes", "delta_covar", "delta_coes"):
                values = getattr(s, label)
                if values is None:
                    continue
                for t, d in enumerate(dates):
                    rows.append((d.isoformat(), names[s.target], dset, label,
                                 s.tau1, s.tau2, repr(float(values[t]))))
        return ["date", "target", "distress_set", "measure", "tau1", "tau2", "value"], rows
    if name == "attribution.csv":
        dates, names = got["load_csv"].dates, got["load_csv"].names
        series = got["attribution_series"]
        return ["date", "target", "contributor", "measure", "share", "grand_value"], [
            (d.isoformat(), names[i], names[j], series.measure,
             repr(float(values[t])), repr(float(series.grand[i][t])))
            for (i, j), values in sorted(series.shares.items())
            for t, d in enumerate(dates)
        ]
    if name == "standard_delta.csv":
        data = got["load_csv"]
        calls = iter(got["standard_pairwise_delta"])
        deltas = {}
        for i, j in itertools.combinations(range(data.n_series), 2):
            for pair in ((i, j), (j, i)):
                deltas[pair] = next(calls)
        measure = got["measure"]
        return ["date", "target", "conditioner", "measure", "delta"], [
            (d.isoformat(), data.names[i], data.names[j], measure,
             repr(float(deltas[i, j][t])))
            for i, j in sorted(deltas)
            for t, d in enumerate(data.dates)
        ]
    raise KeyError(name)


def run_captured(monkeypatch, argv):
    """main(argv) with the results the commands write recorded by function name."""
    got = {"fit_restarts": [], "standard_pairwise_delta": []}
    targets = [
        (simulate, "sample_path"), (panel, "summary_stats"), (markov, "select_L"),
        (panel, "load_csv"), (corisk, "total_risk_series"),
        (attribution, "attribution_series"), (markov, "fit_restarts"),
        (corisk, "standard_pairwise_delta"),
    ]
    for module, name in targets:
        def recorded(*args, _real=getattr(module, name), _name=name, **kwargs):
            result = _real(*args, **kwargs)
            if isinstance(got.get(_name), list):
                got[_name].append(result)
            else:
                got[_name] = result
            if _name == "standard_pairwise_delta":
                got["measure"] = kwargs["measure"]
            return result
        monkeypatch.setattr(module, name, recorded)
    assert main(argv) == 0, argv
    return got


def assert_oracle_bytes(tmp_path, outdir, got, names):
    for name in names:
        header, rows = oracle_rows(name, got)
        expected = tmp_path / f"oracle-{name}"
        oracle_write_csv(expected, header, rows)
        assert (outdir / name).read_bytes() == expected.read_bytes(), name


def run_chain(monkeypatch, tmp_path, panel_path, truth, out, select=True):
    """Run every command but simulate on one panel; each CSV must match the oracle."""
    args = ["--input", str(panel_path), "--out", str(out)]
    runs = {
        ("summary.csv",): ["stats", *args],
        ("smoothed.csv",): ["fit", *args, "--L", "2", "--restarts", "1"],
        ("risk.csv",): ["risk", *args, "--model", str(truth)],
        ("attribution.csv", "standard_delta.csv"): [
            "shapley", *args, "--model", str(truth), "--compare-standard",
        ],
    }
    if select:
        runs[("selection.csv",)] = ["select", *args, "--L-range", "1:2", "--restarts", "1"]
    for names, argv in runs.items():
        with monkeypatch.context() as m:
            got = run_captured(m, argv)
            assert_oracle_bytes(tmp_path, out, got, names)
        if "attribution.csv" in names:
            data, expected = got["load_csv"], tmp_path / "oracle-attribution.json"
            oracle_write_attribution_json(expected, data.dates, data.names,
                                          got["attribution_series"])
            assert (out / "attribution.json").read_bytes() == expected.read_bytes()


class TestWriterOracle:
    def test_chain_panel_outputs(self, monkeypatch, tmp_path):
        out = tmp_path / "out"
        with monkeypatch.context() as m:
            got = run_captured(
                m, ["simulate", "--L", "2", "--p", "4", "--T", "500", "--seed", "7",
                    "--out", str(out)],
            )
        assert_oracle_bytes(tmp_path, out, got, ["panel.csv"])
        run_chain(monkeypatch, tmp_path, out / "panel.csv", out / "truth_model.json", out)

    def test_names_that_need_quoting(self, monkeypatch, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--L", "2", "--p", "3", "--T", "60", "--seed", "3",
                     "--out", str(sim)]) == 0
        lines = (sim / "panel.csv").read_text(encoding="utf-8").split("\n")
        names = ["a,b", 'say "hi"', "c+d"]
        header = io.StringIO(newline="")
        csv.writer(header, lineterminator="").writerow(["date", *names])
        assert header.getvalue() == 'date,"a,b","say ""hi""",c+d'
        quoted = tmp_path / "quoted.csv"
        quoted.write_text("\n".join([lines[0], header.getvalue(), *lines[2:]]), encoding="utf-8")
        assert load_csv(quoted).names == tuple(names)
        out = tmp_path / "out"
        run_chain(monkeypatch, tmp_path, quoted, sim / "truth_model.json", out, select=False)
        risk = (out / "risk.csv").read_text(encoding="utf-8")
        assert '"a,b+say ""hi"""' in risk and ',"say ""hi""",' in risk

    def test_attribution_without_targets(self, tmp_path):
        model = random_model(np.random.default_rng(3300), 2, 3)
        _, data = simulate.sample_path(simulate.SimSpec(model, 8, 1))
        series = attribution.attribution_series(markov.fit_from_model(model, data), targets=())
        header = ["date", "target", "contributor", "measure", "share", "grand_value"]
        oracle_write_csv(tmp_path / "oracle.csv", header, [])
        oracle_write_attribution_json(tmp_path / "oracle.json", data.dates, data.names, series)
        attribution.write_attribution_csv(tmp_path / "got.csv", data.dates, data.names, series)
        attribution.write_attribution_json(tmp_path / "got.json", data.dates, data.names, series)
        for suffix in ("csv", "json"):
            got, want = (tmp_path / f"{name}.{suffix}" for name in ("got", "oracle"))
            assert got.read_bytes() == want.read_bytes(), suffix

    @pytest.mark.parametrize("errors", [
        ["", "all 1 restarts failed: regime 2 collapsed, occupancy 0.4"],
        ["", 'a "quoted", message\nover two lines'],
    ])
    def test_selection_error_cells(self, monkeypatch, tmp_path, errors):
        sim = tmp_path / "sim"
        assert main(["simulate", "--L", "2", "--p", "2", "--T", "40", "--out", str(sim)]) == 0
        table = SelectionTable(
            rows=[SelectionRow(1, -101.25, 5, 212.5, 221.0, error=errors[0]),
                  SelectionRow(2, math.nan, 11, math.nan, math.nan, error=errors[1])],
            chosen=1, criterion="aic",
        )
        monkeypatch.setattr(markov, "select_L", lambda *args, **kwargs: table)
        out = tmp_path / "out"
        got = run_captured(monkeypatch, ["select", "--input", str(sim / "panel.csv"),
                                         "--out", str(out)])
        assert_oracle_bytes(tmp_path, out, got, ["selection.csv"])

    @pytest.mark.parametrize("t_len, targets, special", [
        (1, (0, 1, 2, 3), {}),
        (4, (0, 1, 2, 3), {(1, 0): math.nan, (2, 3): math.inf, 3: -math.inf}),
        (3, (3, 1), {1: math.nan, (3, 0): -math.inf}),
        (0, (0, 1, 2, 3), {}),
    ])
    def test_attribution_json_bytes(self, tmp_path, t_len, targets, special):
        names = ("é", "5%s 100%", 'say "hi"', "a,b")
        rng = np.random.default_rng(t_len)
        dates = [datetime.date(2001, 1, 5) + datetime.timedelta(weeks=t) for t in range(t_len)]
        shares = {(i, j): rng.normal(size=t_len) * 10.0 ** rng.integers(-300, 300)
                  for i in targets for j in range(len(names)) if j != i}
        grand = {i: rng.normal(size=t_len) for i in targets}
        for where, value in special.items():
            (shares if isinstance(where, tuple) else grand)[where][-1:] = value
        series = attribution.AttributionSeries(
            targets=targets, tau1=0.05, tau2=0.1, measure="coes", shares=shares, grand=grand,
        )
        got, expected = tmp_path / "got.json", tmp_path / "expected.json"
        attribution.write_attribution_json(got, dates, names, series)
        oracle_write_attribution_json(expected, dates, names, series)
        assert got.read_bytes() == expected.read_bytes()

    def test_date_columns(self, tmp_path):
        # A column of exactly datetime.date cells is formatted in one map; a
        # datetime (a date subclass whose ISO form keeps its time) and a column
        # mixing dates with other labels go label by label.  Both write what
        # csv.writer writes for the ISO strings.
        day = datetime.date(2020, 2, 29)
        header = ["date", "moment", "mixed"]
        columns = [(day, day + datetime.timedelta(days=1), day),
                   [datetime.datetime(2020, 2, 29, 12, 30)] * 3,
                   [day, None, "a,b"]]
        panel._write_csv(tmp_path / "got.csv", header, columns)
        rows = [[cell.isoformat() if isinstance(cell, datetime.date) else cell or ""
                 for cell in row] for row in zip(*columns)]
        oracle_write_csv(tmp_path / "oracle.csv", header, rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            panel._write_csv(tmp_path / "x.csv", ["a", "b"], [["x"], np.zeros(2)])


# ---------------------------------------------------------------- reader


def outcome(load, path):
    """What a loader makes of a file: the panel's exact contents, or the error."""
    try:
        pan = load(path)
    except Exception as exc:  # the error must match too
        return type(exc).__name__, str(exc)
    return pan.dates, pan.names, pan.returns.shape, pan.returns.tobytes()


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
numbers = st.one_of(
    finite.map(repr),
    finite.map(lambda x: f"{x:e}"),
    finite.map(lambda x: f"{x:.3E}"),
    st.integers(-10**6, 10**6).map(str),
)
odd_cells = st.sampled_from([
    "1_000", "\u0661\u0662", "xx", "", "nan", "inf", "1\x1c", "\x1d2", "\xa00.5",
    "0x10", "1e", "0.\"1\"", "\u20032.5", "1\x0b", "\x852", "1\u2028", "1\x1f",
])


@st.composite
def cells(draw, hostile):
    if not hostile:
        return draw(st.one_of(numbers, numbers.map(lambda x: f" {x}\t")))
    text = draw(st.one_of(numbers, numbers, numbers, odd_cells))
    style = draw(st.sampled_from(["plain"] * 6 + ["padded", "tabbed", "quoted"]))
    if style == "padded":
        return f" {text}  "
    if style == "tabbed":
        return f"\t{text}"
    if style == "quoted":
        return '"' + text.replace('"', '""') + '"'
    return text


names_st = st.text(alphabet="abcxyz ,\"#+", min_size=1, max_size=5).filter(
    lambda s: s.strip() and not s.lstrip().startswith("#")
)


@st.composite
def panel_files(draw):
    """File text of a small panel, clean or often broken, with the dates first.

    A clean file holds only numbers, dates, comment and empty lines between
    the header and the rows; a hostile one also holds quoted, padded and
    unparseable cells, cells only float() reads and ragged rows.
    """
    hostile = draw(st.booleans())
    n_values = draw(st.integers(1 if hostile else 2, 4))
    names = draw(st.lists(names_st, min_size=n_values, max_size=n_values, unique_by=str.strip))
    header = [draw(st.sampled_from(["date", "day"])), *names]

    out = io.StringIO(newline="")
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    csv.writer(out, quoting=quoting, lineterminator="").writerow(header)
    lines = [out.getvalue()]
    offsets = sorted(draw(st.lists(st.integers(0, 60), min_size=0 if hostile else 1, max_size=6)))
    start = datetime.date(2020, 1, 1)
    comments = ["# note", "  # x,1,2", ""] + (['"#q",1'] if hostile else [])
    for offset in offsets:
        day = (start + datetime.timedelta(days=offset)).isoformat()
        if hostile:
            day = draw(st.sampled_from([day, day, f" {day} ", f'"{day}"']))
        row = [draw(cells(hostile)) for _ in names]
        row.insert(0, day)
        ragged = draw(st.sampled_from(["ok"] * 12 + ["short", "long"])) if hostile else "ok"
        if ragged == "short":
            row.pop()
        elif ragged == "long":
            row.append("0.0")
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(comments)))
        lines.append(",".join(row))
    if draw(st.booleans()):
        lines.insert(0, CSV_SCHEMA)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


class TestReaderOracle:
    @settings(max_examples=300, deadline=None)
    @given(text=panel_files())
    def test_same_panel_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "panel.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_csv, path) == outcome(oracle_load_csv, path)

    def test_clean_file_is_parsed_without_the_row_loop(self, monkeypatch, tmp_path):
        assert main(["simulate", "--L", "2", "--p", "3", "--T", "50", "--out", str(tmp_path)]) == 0

        def refuse(*args):
            raise AssertionError("row loop used on a clean file")

        expected = outcome(oracle_load_csv, tmp_path / "panel.csv")
        monkeypatch.setattr(panel, "_parse_rows", refuse)
        assert outcome(load_csv, tmp_path / "panel.csv") == expected

    @pytest.mark.parametrize("cell, value", [("1_000", 1000.0), ("\u0661\u0662", 12.0)])
    def test_cells_only_float_reads_still_load(self, tmp_path, cell, value):
        path = tmp_path / "p.csv"
        path.write_text(f"date,a,b\n2020-01-01,{cell},0.5\n2020-01-02,0.25,0.5\n",
                        encoding="utf-8")
        assert load_csv(path).returns[0, 0] == value

    def test_separator_character_in_a_cell_stays_unparseable(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a,b\n2020-01-01,1\x1c,0.5\n2020-01-02,0.25,0.5\n",
                        encoding="utf-8")
        with pytest.raises(PanelError, match=r"rows \[2\]"):
            load_csv(path)

    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_line_breaks_csv_does_not_know_stay_in_their_row(self, tmp_path, sep):
        path = tmp_path / "p.csv"
        path.write_text(f"date,a,b\n2020-01-01,0.1,0.2{sep}2020-01-02,0.3,0.4\n",
                        encoding="utf-8")
        with pytest.raises(PanelError, match="ragged row at line 2"):
            oracle_load_csv(path)
        assert outcome(load_csv, path) == outcome(oracle_load_csv, path)

    @pytest.mark.parametrize("text, line", [
        ('# schema: msrisk/1\ndate,a,b\n2020-01-01,0.1,0.2\n2020-01-02,"{big}",0.3\n', 4),
        ('date,a,b\n2020-01-01,"0.1\n",0.2\n2020-01-02,"{big}",0.3\n', 4),
        ('# schema: msrisk/1\ndate,"{big}",b\n2020-01-01,0.1,0.2\n', 2),
    ], ids=["body", "after-quoted-line-break", "header"])
    def test_cell_over_the_csv_field_limit_is_a_panel_error(self, tmp_path, capsys, text, line):
        path = tmp_path / "p.csv"
        path.write_text(text.replace("{big}", "1" * 140_000), encoding="utf-8")
        with pytest.raises(PanelError, match=f"line {line}: field larger than field limit"):
            load_csv(path)
        assert main(["stats", "--input", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: line {line}: ")

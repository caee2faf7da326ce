import datetime
import re

import numpy as np
import pytest

from msrisk import ReturnPanel, load_csv, prices_to_log_returns, summary_stats
from msrisk.panel import PanelError


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_minimal_valid(self, tmp_path):
        path = write(
            tmp_path,
            "date,a,b\n2020-01-01,0.1,0.2\n2020-01-08,-0.1,0.0\n2020-01-15,0.0,0.3\n",
        )
        pan = load_csv(path)
        assert pan.n_obs == 3 and pan.n_series == 2
        assert pan.names == ("a", "b")
        assert pan.dates[0] == datetime.date(2020, 1, 1)
        np.testing.assert_allclose(pan.returns[1], [-0.1, 0.0])

    def test_schema_header_skipped(self, tmp_path):
        path = write(
            tmp_path,
            "# schema: msrisk/1\ndate,a,b\n2020-01-01,0.1,0.2\n2020-01-08,0.0,0.1\n",
        )
        assert load_csv(path).n_obs == 2

    def test_duplicate_date_named(self, tmp_path):
        path = write(
            tmp_path, "date,a,b\n2020-01-01,0.1,0.2\n2020-01-01,0.0,0.1\n"
        )
        with pytest.raises(PanelError, match="2020-01-01"):
            load_csv(path)

    def test_non_monotone_dates(self, tmp_path):
        path = write(
            tmp_path,
            "date,a,b\n2020-01-08,0.1,0.2\n2020-01-01,0.0,0.1\n",
        )
        with pytest.raises(PanelError, match="not increasing"):
            load_csv(path)

    def test_ragged_row_line_number(self, tmp_path):
        path = write(
            tmp_path, "date,a,b\n2020-01-01,0.1,0.2\n2020-01-08,0.0\n"
        )
        with pytest.raises(PanelError, match="line 3"):
            load_csv(path)

    def test_unparseable_rows_listed(self, tmp_path):
        path = write(
            tmp_path,
            "date,a,b\n2020-01-01,0.1,0.2\n2020-01-08,xx,0.1\n2020-01-15,0.0,0.1\n",
        )
        with pytest.raises(PanelError, match=r"rows \[3\]"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(PanelError, match="empty"):
            load_csv(write(tmp_path, ""))

    def test_header_without_value_columns(self, tmp_path):
        path = write(tmp_path, "# schema: msrisk/1\ndate\n2020-01-01\n")
        with pytest.raises(PanelError, match=f"^{re.escape(str(path))}: no value columns$"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")


class TestReturnPanel:
    def test_rejects_single_series(self):
        with pytest.raises(PanelError):
            ReturnPanel([datetime.date(2020, 1, 1)], ["a"], [[0.1]])

    def test_rejects_nan(self):
        dates = [datetime.date(2020, 1, d) for d in (1, 2)]
        with pytest.raises(PanelError, match="non-finite"):
            ReturnPanel(dates, ["a", "b"], [[0.1, np.nan], [0.0, 0.1]])

    @pytest.mark.parametrize("names, rows, message", [
        (["a", "b", "c"], [[0.1, 0.2]], "3 names for 2 series"),
        (["a"], [[0.1, 0.2]], "1 names for 2 series"),
        (["a", "b"], [[0.1, 0.2], [0.3, 0.4]], "1 dates for 2 rows"),
    ])
    def test_rejects_counts_that_disagree(self, names, rows, message):
        with pytest.raises(PanelError, match=f"^{message}$"):
            ReturnPanel([datetime.date(2020, 1, 1)], names, rows)

    def test_rejects_duplicate_names(self):
        dates = [datetime.date(2020, 1, d) for d in (1, 2)]
        with pytest.raises(PanelError, match="duplicate series name 's1'"):
            ReturnPanel(dates, ["s0", "s1", "s1"], np.ones((2, 3)))

    def test_select_preserves_order(self):
        dates = [datetime.date(2020, 1, d) for d in (1, 2)]
        pan = ReturnPanel(dates, ["a", "b", "c"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        sub = pan.select([2, 0])
        assert sub.names == ("c", "a")
        np.testing.assert_allclose(sub.returns, [[3.0, 1.0], [6.0, 4.0]])


class TestPricesToLogReturns:
    def test_constant_prices_zero_returns(self):
        out = prices_to_log_returns(np.full((5, 2), 37.5))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_log_identity(self):
        out = prices_to_log_returns(
            np.array([[100.0, 50.0], [100.0 * np.exp(0.01), 50.0]])
        )
        np.testing.assert_allclose(out, [[0.01, 0.0]], atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        prices = np.exp(rng.normal(size=(5, 2)))
        rets = prices_to_log_returns(prices)
        rebuilt = np.exp(np.cumsum(rets, axis=0))
        np.testing.assert_allclose(rebuilt, prices[1:] / prices[0], rtol=1e-12)

    def test_panel_keeps_later_dates(self):
        dates = [datetime.date(2020, 1, d) for d in (1, 8, 15)]
        pan = ReturnPanel(dates, ["a", "b"], np.full((3, 2), 10.0))
        out = prices_to_log_returns(pan)
        assert out.n_obs == 2
        assert out.dates == (dates[1], dates[2])

    def test_nonpositive_price(self):
        with pytest.raises(PanelError, match="positive"):
            prices_to_log_returns(np.array([[1.0, 2.0], [0.0, 1.0]]))


def gaussian_panel(t_len=100_000, p=2, seed=1):
    rng = np.random.default_rng(seed)
    dates = [datetime.date(2000, 1, 1) + datetime.timedelta(days=i) for i in range(t_len)]
    return ReturnPanel(dates, [f"s{i}" for i in range(p)], rng.standard_normal((t_len, p)))


class TestSummaryStats:
    def test_gaussian_moments(self):
        stats = summary_stats(gaussian_panel(), alpha=0.01)
        # Monte Carlo oracle: raw kurtosis near 3, JB below the chi2(2) 99%
        # point (9.21) under normality.
        np.testing.assert_allclose(stats.kurtosis, 3.0, atol=0.1)
        assert np.all(stats.jb < 9.21)
        np.testing.assert_allclose(stats.mean, 0.0, atol=0.02)
        np.testing.assert_allclose(stats.std, 1.0, atol=0.02)

    def test_spike_skew_sign(self):
        t_len = 50
        base = np.zeros((t_len, 2))
        base += np.random.default_rng(3).normal(scale=1e-6, size=base.shape)
        base[10, 0] += 5.0
        base[20, 1] -= 5.0
        dates = [datetime.date(2020, 1, 1) + datetime.timedelta(days=i) for i in range(t_len)]
        stats = summary_stats(ReturnPanel(dates, ["up", "dn"], base))
        assert stats.skewness[0] > 0 and stats.skewness[1] < 0

    def test_median_alpha(self):
        pan = gaussian_panel(t_len=10_001)
        stats = summary_stats(pan, alpha=0.5)
        np.testing.assert_allclose(
            stats.quantile, np.median(pan.returns, axis=0), atol=1e-12
        )

    def test_quantile_monotone_in_alpha(self):
        pan = gaussian_panel(t_len=500)
        alphas = [0.01, 0.05, 0.25, 0.5, 0.75, 0.99]
        qs = np.array([summary_stats(pan, alpha=a).quantile for a in alphas])
        assert np.all(np.diff(qs, axis=0) >= 0.0)

    def test_column_permutation_equivariance(self):
        pan = gaussian_panel(t_len=300, p=3)
        stats = summary_stats(pan)
        perm = [2, 0, 1]
        stats_p = summary_stats(pan.select(perm))
        for field in ("minimum", "maximum", "mean", "std", "skewness",
                      "kurtosis", "quantile", "jb"):
            np.testing.assert_allclose(
                getattr(stats_p, field), getattr(stats, field)[perm], rtol=1e-12
            )

    def test_jb_formula(self):
        pan = gaussian_panel(t_len=64)
        stats = summary_stats(pan)
        expected = 64 / 6.0 * (
            stats.skewness**2 + 0.25 * (stats.kurtosis - 3.0) ** 2
        )
        np.testing.assert_allclose(stats.jb, expected, rtol=1e-12)

    def test_zero_variance_error(self):
        dates = [datetime.date(2020, 1, 1) + datetime.timedelta(days=i) for i in range(10)]
        flat = np.ones((10, 2))
        flat[:, 0] = np.arange(10.0)
        with pytest.raises(PanelError, match="zero variance"):
            summary_stats(ReturnPanel(dates, ["ok", "flat"], flat))

    def test_short_sample_error(self):
        pan = gaussian_panel(t_len=7)
        with pytest.raises(PanelError, match="at least 8"):
            summary_stats(pan)

    def test_bad_alpha(self):
        with pytest.raises(PanelError):
            summary_stats(gaussian_panel(t_len=20), alpha=1.5)

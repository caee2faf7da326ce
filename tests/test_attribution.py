import itertools
import json

import numpy as np
import pytest

from msrisk import (
    CharacteristicMap,
    MsTModel,
    MvtParams,
    attribution_series,
    characteristic_values,
    delta_m_coes,
    delta_m_covar,
    fit_restarts,
    sample_path,
    shapley,
    vis_a_vis,
)
from msrisk.attribution import MAX_PLAYERS, write_attribution_csv, write_attribution_json
from msrisk.corisk import RiskQuery
from msrisk.predictive import PredictiveMixture, build_predictive
from msrisk.simulate import SimSpec

from helpers import fit_from_model, random_mixture, random_model


def permutation_shapley(players, values):
    """Independent oracle: average marginal contribution over all orderings."""
    shares = {j: 0.0 for j in players}
    orders = list(itertools.permutations(players))
    for order in orders:
        seen = frozenset()
        for j in order:
            shares[j] += values[seen | {j}] - values[seen]
            seen = seen | {j}
    return {j: s / len(orders) for j, s in shares.items()}


def random_map(rng, players, target=0):
    values = {}
    for size in range(1, len(players) + 1):
        for s in itertools.combinations(players, size):
            values[frozenset(s)] = float(rng.normal())
    values[frozenset()] = 0.0
    return CharacteristicMap(target=target, players=players, values=values)


class TestShapley:
    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(90)
        for _ in range(20):
            players = tuple(range(1, int(rng.integers(2, 5)) + 1))
            cmap = random_map(rng, players)
            report = shapley(cmap)
            oracle = permutation_shapley(players, cmap.values)
            for j in players:
                assert abs(report.shares[j] - oracle[j]) < 1e-12

    def test_efficiency(self):
        rng = np.random.default_rng(91)
        cmap = random_map(rng, (1, 2, 3, 4))
        report = shapley(cmap)
        assert abs(sum(report.shares.values()) - cmap.grand_value) < 1e-12

    def test_single_player(self):
        cmap = CharacteristicMap(0, (1,), {frozenset({1}): 2.5})
        report = shapley(cmap)
        assert report.shares[1] == 2.5 and report.grand_value == 2.5

    def test_exchangeable_players_equal_shares(self):
        players = (1, 2, 3)
        values = {
            frozenset(s): float(len(s)) ** 2
            for size in range(4)
            for s in itertools.combinations(players, size)
        }
        report = shapley(CharacteristicMap(0, players, values))
        shares = list(report.shares.values())
        assert max(shares) - min(shares) < 1e-12
        assert abs(shares[0] - 3.0) < 1e-12

    def test_dummy_player_zero(self):
        rng = np.random.default_rng(92)
        base = random_map(rng, (1, 2))
        values = dict(base.values)
        # Player 3 never changes any coalition's value.
        for s, v in base.values.items():
            values[s | {3}] = v
        report = shapley(CharacteristicMap(0, (1, 2, 3), values))
        assert report.shares[3] == 0.0

    def test_enumeration_order_invariance(self):
        rng = np.random.default_rng(93)
        cmap = random_map(rng, (1, 2, 3))
        items = list(cmap.values.items())
        rng.shuffle(items)
        shuffled = CharacteristicMap(0, (3, 1, 2), dict(items))
        a, b = shapley(cmap), shapley(shuffled)
        for j in (1, 2, 3):
            assert abs(a.shares[j] - b.shares[j]) < 1e-15

    def test_incomplete_map_rejected(self):
        with pytest.raises(ValueError, match="subsets"):
            CharacteristicMap(0, (1, 2), {frozenset({1}): 1.0})

    def test_coalition_outside_players_rejected(self):
        values = {frozenset({1}): 1.0, frozenset({3}): 2.0, frozenset({1, 2}): 3.0}
        with pytest.raises(ValueError, match=r"^coalition \{3\} outside the player set$"):
            CharacteristicMap(0, (1, 2), values)


class TestCharacteristicValues:
    def test_bivariate_single_entry(self):
        rng = np.random.default_rng(94)
        mix = random_mixture(rng, 2, 2)
        cmap = characteristic_values(mix, 0)
        assert cmap.players == (1,)
        expected = delta_m_covar(mix, RiskQuery(0, (1,), 0.05, 0.05))
        assert abs(cmap.values[frozenset({1})] - expected) < 1e-12

    def test_tau2_half_all_zero(self):
        rng = np.random.default_rng(95)
        mix = random_mixture(rng, 2, 3)
        cmap = characteristic_values(mix, 0, tau2=0.5)
        assert all(abs(v) < 1e-12 for v in cmap.values.values())

    def test_p4_subset_count(self):
        rng = np.random.default_rng(96)
        mix = random_mixture(rng, 2, 4)
        cmap = characteristic_values(mix, 1)
        nonempty = [s for s in cmap.values if s]
        assert len(nonempty) == 7 and cmap.players == (0, 2, 3)

    def test_grand_value_is_total_delta(self):
        rng = np.random.default_rng(97)
        mix = random_mixture(rng, 2, 3)
        cmap = characteristic_values(mix, 0, measure="coes")
        expected = delta_m_coes(mix, RiskQuery(0, (1, 2), 0.05, 0.05))
        assert abs(cmap.grand_value - expected) < 1e-12

    def test_measure_validation(self):
        rng = np.random.default_rng(98)
        with pytest.raises(ValueError):
            characteristic_values(random_mixture(rng, 2, 3), 0, measure="var")

    def test_player_count_guard(self):
        p = MAX_PLAYERS + 2
        mix = PredictiveMixture([1.0], [MvtParams(np.zeros(p), np.eye(p), 5.0)])
        with pytest.raises(ValueError, match=f"^{MAX_PLAYERS + 1} contributors exceed the "
                                             f"exact-enumeration guard of {MAX_PLAYERS}$"):
            characteristic_values(mix, 0)


def small_fit(seed=99, p=3, t_len=8, L=2):
    rng = np.random.default_rng(seed)
    model = random_model(rng, L, p, scale=0.02)
    _, panel = sample_path(SimSpec(model, t_len, seed))
    return fit_from_model(model, panel), panel


class TestAttributionSeries:
    def test_bivariate_equals_pairwise_delta(self):
        fit, _ = small_fit(p=2)
        series = attribution_series(fit)
        from msrisk import standard_pairwise_delta

        pairwise = standard_pairwise_delta(fit, 0)
        np.testing.assert_allclose(series.shares[(0, 1)], pairwise, atol=1e-12)

    def test_efficiency_every_t(self):
        fit, _ = small_fit(p=3)
        series = attribution_series(fit)
        for i in series.targets:
            total = sum(
                series.shares[(i, j)] for j in range(3) if j != i
            )
            np.testing.assert_allclose(total, series.grand[i], atol=1e-9)

    def test_consistency_with_map_at_t(self):
        fit, _ = small_fit(p=3)
        series = attribution_series(fit, measure="coes")
        report = shapley(characteristic_values(build_predictive(fit, 4), 1, measure="coes"))
        for j in (0, 2):
            assert abs(series.shares[(1, j)][4] - report.shares[j]) < 1e-12

    def test_dominant_pair_dominates(self):
        # Coordinates 0 and 1 are strongly coupled; 2 is weakly coupled.
        sigma = np.array(
            [[1.0, 0.9, 0.1], [0.9, 1.0, 0.1], [0.1, 0.1, 1.0]]
        ) * 0.02**2
        model = MsTModel(
            [MvtParams([0.0, 0.0, 0.0], sigma, 8.0)], np.array([[1.0]]), [1.0]
        )
        _, panel = sample_path(SimSpec(model, 5, 1))
        fit = fit_from_model(model, panel)
        series = attribution_series(fit, targets=(0,))
        assert series.shares[(0, 1)][0] < series.shares[(0, 2)][0] < 0.0


    def test_repeated_target_rejected(self):
        fit, _ = small_fit(p=3)
        for targets, repeated in (((0, 0), 0), ((2, 1, 2), 2)):
            with pytest.raises(ValueError, match=f"^target {repeated} is repeated in targets$"):
                attribution_series(fit, targets=targets)

    def test_fractional_target_rejected_before_repeat_test(self):
        # 1.0 == 1, so a repeat test ahead of the index rule would name a repeat.
        fit, _ = small_fit(p=3)
        with pytest.raises(TypeError, match=r"^series index 1\.0 cannot be interpreted as an "
                                            r"integer$"):
            attribution_series(fit, targets=(1, 1.0))

    def test_numpy_integer_targets_become_int(self):
        fit, _ = small_fit(p=3)
        series = attribution_series(fit, targets=(np.int64(2), np.int32(0)))
        assert series.targets == (2, 0)
        assert all(type(i) is int for i in series.targets)
        assert all(type(i) is int and type(j) is int for i, j in series.shares)
        assert all(type(i) is int for i in series.grand)
        reference = attribution_series(fit, targets=(2, 0))
        for key, values in reference.shares.items():
            np.testing.assert_array_equal(series.shares[key], values)


# demo 04's planted model: sectors 0 and 1 tightly coupled, 2 and 3 peripheral
_CORR = np.array([[1.0, 0.85, 0.25, 0.20], [0.85, 1.0, 0.30, 0.25],
                  [0.25, 0.30, 1.0, 0.35], [0.20, 0.25, 0.35, 1.0]])
_PLANTED = MsTModel(
    [MvtParams([0.002, 0.002, 0.001, 0.001], 0.010**2 * _CORR, 7.0),
     MvtParams([-0.005, -0.006, -0.004, -0.003], 0.030**2 * _CORR, 5.0)],
    np.array([[0.95, 0.05], [0.10, 0.90]]), [0.5, 0.5],
)


def test_fitted_attribution_approaches_the_planted_models():
    """Shares from a fitted model converge to those of the model that made the data.

    Both sides run the same co-risk code, so what this checks is estimation
    and the FitResult hand-off (state probabilities, regime labels).  At
    seeds 1 and 2 the median |share difference| / median |share| measured
    0.22 and 0.26 at T=500, and 0.063 and 0.081 at T=2000; its bound, 0.12,
    is 1.5 times the larger.  Smoothed probabilities in place of the
    filtered ones agree with them on most dates, so that median misses them
    (0.087, 0.102); they part near regime switches, which the root mean
    square difference / root mean square share sees: 0.094 and 0.089
    measured, 0.21 and 0.19 with smoothed probabilities, bound 0.14 (1.5
    times the larger).  Target 2's largest |share| came from the same
    contributor on 92% and 99% of the T=2000 dates.
    """
    gap = {}
    for t_len in (500, 2000):
        for seed in (1, 2):
            _, panel = sample_path(SimSpec(_PLANTED, t_len, seed))
            fitted = attribution_series(fit_restarts(panel, 2, 3, 0), "covar")
            truth = attribution_series(fit_from_model(_PLANTED, panel), "covar")
            keys = sorted(truth.shares)
            diff = np.array([fitted.shares[k] - truth.shares[k] for k in keys])
            ref = np.array([truth.shares[k] for k in keys])
            gap[t_len, seed] = np.median(np.abs(diff)) / np.median(np.abs(ref))
            if t_len == 2000:
                assert np.sqrt(np.mean(diff**2) / np.mean(ref**2)) < 0.14, seed

                def top(series):
                    return np.argmax(np.abs([series.shares[2, j] for j in (0, 1, 3)]), axis=0)

                assert np.mean(top(fitted) == top(truth)) >= 0.9, seed
    for seed in (1, 2):
        assert gap[2000, seed] < 0.12, gap
        assert gap[2000, seed] < gap[500, seed], gap


class TestVisAVis:
    def test_symmetric_model_series_coincide(self):
        sigma = 0.02**2 * (np.full((3, 3), 0.5) + 0.5 * np.eye(3))
        regs = [
            MvtParams([0.001] * 3, sigma, 6.0),
            MvtParams([-0.002] * 3, 4.0 * sigma, 6.0),
        ]
        model = MsTModel(regs, np.array([[0.9, 0.1], [0.1, 0.9]]), [0.5, 0.5])
        rng = np.random.default_rng(7)
        # Exchangeable observations keep the whole construction symmetric.
        y = np.repeat(rng.normal(scale=0.02, size=(6, 1)), 3, axis=1)
        fit = fit_from_model(model, y)
        a_on_b, b_on_a = vis_a_vis(fit, (0, 1))
        np.testing.assert_allclose(a_on_b, b_on_a, atol=1e-9)

    def test_matches_attribution_series(self):
        fit, _ = small_fit(p=3)
        x, y = vis_a_vis(fit, (0, 2))
        series = attribution_series(fit, targets=(0, 2))
        np.testing.assert_allclose(x, series.shares[(0, 2)], atol=1e-12)
        np.testing.assert_allclose(y, series.shares[(2, 0)], atol=1e-12)

    def test_rejects_equal_pair(self):
        fit, _ = small_fit(p=3)
        with pytest.raises(ValueError):
            vis_a_vis(fit, (1, 1))


class TestAttributionOutput:
    def test_csv_and_json(self, tmp_path):
        fit, panel = small_fit(p=3, t_len=5)
        series = attribution_series(fit)
        csv_path = tmp_path / "attribution.csv"
        write_attribution_csv(csv_path, panel.dates, panel.names, series)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# schema: msrisk/1"
        # 3 targets x 2 contributors x 5 dates.
        assert len(lines) == 2 + 3 * 2 * 5

        json_path = tmp_path / "attribution.json"
        write_attribution_json(json_path, panel.dates, panel.names, series)
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == "msrisk/1"
        assert len(doc["records"]) == 5
        entry = doc["records"][0]["targets"][panel.names[0]]
        total = sum(entry["shares"].values())
        assert abs(total - entry["grand_value"]) < 1e-9

    def test_json_refuses_duplicate_names(self, tmp_path):
        fit, panel = small_fit(p=3, t_len=5)
        names = (panel.names[0], panel.names[1], panel.names[0])
        with pytest.raises(ValueError, match="distinct"):
            write_attribution_json(tmp_path / "a.json", panel.dates, names, attribution_series(fit))

"""Shapley-value allocation of Delta co-risk across contributing sectors.

The characteristic function of the cooperative game maps every distress
coalition S of the other sectors to the Multiple-Delta measure of the
target given S; the Shapley value splits the grand-coalition value among
contributors by exact subset enumeration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corisk import CoRiskEngine, _check_index, coalition_masks
from .markov import FitResult
from .panel import SCHEMA, _write_blocks
from .predictive import PredictiveMixture

MAX_PLAYERS = 20


@dataclass(frozen=True)
class CharacteristicMap:
    """Coalition values v(S) for one target; v(empty) = 0 exactly."""

    target: int
    players: tuple
    values: dict

    def __post_init__(self):
        players = tuple(self.players)
        object.__setattr__(self, "players", players)
        values = {frozenset(s): float(v) for s, v in self.values.items()}
        values[frozenset()] = 0.0
        object.__setattr__(self, "values", values)
        n = len(players)
        if len(values) != 2**n:
            raise ValueError(
                f"characteristic map must cover all {2**n} subsets, got {len(values)}"
            )
        for s in values:
            if not s <= frozenset(players):
                raise ValueError(f"coalition {set(s)} outside the player set")

    @property
    def grand_value(self) -> float:
        return self.values[frozenset(self.players)]


@dataclass(frozen=True)
class ShapleyReport:
    """Per-contributor shares of the grand-coalition value for one target."""

    target: int
    shares: dict
    grand_value: float


def _shapley_shares(values, n: int) -> np.ndarray:
    """Exact Shapley shares from coalition values (..., 2^n) -> (..., n).

    Column m of values is the coalition whose members are the set bits of
    m.  Player k's share is the sum over coalitions S without k of
    |S|! (n - |S| - 1)! / n! * (v(S + k) - v(S)); each difference is taken
    before weighting, so a player that never changes a value gets exactly 0.
    """
    member = coalition_masks(n)
    without = np.array(
        [np.flatnonzero(~member[:, k]) for k in range(n)], dtype=int
    ).reshape(n, 2**n // 2)
    with_k = without + (1 << np.arange(n))[:, None]
    fact = [math.factorial(i) for i in range(n + 1)]
    weight_by_size = np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])
    weight = weight_by_size[member.sum(axis=1)[without]]
    return np.sum((values[..., with_k] - values[..., without]) * weight, axis=-1)


def shapley(cmap: CharacteristicMap) -> ShapleyReport:
    """Exact Shapley value by subset enumeration.

    ShV_j = sum over S not containing j of
            |S|! (n - |S| - 1)! / n! * (v(S + j) - v(S)).
    Additivity (shares sum to v(N)) holds by construction up to round-off.
    """
    players = cmap.players
    members = coalition_masks(len(players))
    values = np.array([
        cmap.values[frozenset(j for j, m in zip(players, row) if m)] for row in members
    ])
    shares = _shapley_shares(values, len(players))
    return ShapleyReport(
        target=cmap.target,
        shares={j: float(s) for j, s in zip(players, shares)},
        grand_value=cmap.grand_value,
    )


def _delta_values(engine: CoRiskEngine, targets, measure: str, tau1: float,
                  tau2: float) -> np.ndarray:
    """T x P x 2^(p-1) Delta measure of each target for every coalition of its others.

    Column m is the coalition of the set bits of m over the target's other
    series in ascending order; column 0, the baseline, is exactly 0.
    """
    n = engine.dim - 1
    if n > MAX_PLAYERS:
        raise ValueError(
            f"{n} contributors exceed the exact-enumeration guard of {MAX_PLAYERS}"
        )
    values = engine.coalition_values(targets, (measure,), tau1, tau2, coalition_masks(n))[:, 0]
    return values - values[..., :1]


def characteristic_values(mix: PredictiveMixture, target: int, measure: str = "covar",
                          tau1: float = 0.05, tau2: float = 0.05) -> CharacteristicMap:
    """Delta measure of the target for every distress coalition of the others.

    All coalitions, the all-at-median baseline among them, are evaluated as
    one batch on the same marginal conditioning levels.  Any failure aborts
    the whole map; partial maps are invalid.
    """
    engine = CoRiskEngine.from_mixture(mix)
    delta = _delta_values(engine, (target,), measure, tau1, tau2)[0, 0]
    players = tuple(engine.others[target].tolist())
    values = {
        frozenset(j for j, m in zip(players, row) if m): float(v)
        for row, v in zip(coalition_masks(len(players)), delta)
    }
    return CharacteristicMap(target=target, players=players, values=values)


@dataclass
class AttributionSeries:
    """Time series of Shapley shares per (target, contributor) pair."""

    targets: tuple
    tau1: float
    tau2: float
    measure: str
    shares: dict
    grand: dict


def attribution_series(fit: FitResult, measure: str = "covar", tau1: float = 0.05,
                       tau2: float = 0.05, *, targets=None) -> AttributionSeries:
    """Shapley attribution at every in-sample time index.

    Emits one share series per (target, contributor) pair plus the
    grand-coalition Delta per target.  Every coalition of every target and
    date is one co-risk engine call.  Each target is a series index, an int
    in the result (a fractional one is a TypeError), and may appear only once.
    """
    engine = CoRiskEngine.from_fit(fit)
    p = engine.dim
    targets = tuple(range(p) if targets is None else (_check_index(i, p) for i in targets))
    for n, i in enumerate(targets):
        if i in targets[:n]:
            raise ValueError(f"target {i} is repeated in targets")
    delta = _delta_values(engine, targets, measure, tau1, tau2)
    by_player = _shapley_shares(delta, p - 1)
    shares, grand = {}, {}
    for n, i in enumerate(targets):
        grand[i] = delta[:, n, -1]
        for k, j in enumerate(engine.others[i].tolist()):
            shares[(i, j)] = by_player[:, n, k]
    return AttributionSeries(
        targets=targets, tau1=tau1, tau2=tau2, measure=measure,
        shares=shares, grand=grand,
    )


def vis_a_vis(fit: FitResult, pair, measure: str = "covar", tau1: float = 0.05,
              tau2: float = 0.05):
    """Paired share series for two distinct sectors: (share of b on a, share of a on b)."""
    a, b = pair
    series = attribution_series(fit, measure, tau1, tau2, targets=(a, b))
    return series.shares[(a, b)], series.shares[(b, a)]


def write_attribution_csv(path, dates, names, series: AttributionSeries) -> None:
    """Attribution CSV: (date, target, contributor, measure, share, grand_value)."""
    _write_blocks(
        path, ["date", "target", "contributor", "measure", "share", "grand_value"], dates,
        [((names[i], names[j], series.measure), (values, series.grand[i]))
         for (i, j), values in sorted(series.shares.items())],
    )


# json's spellings of the floats that float.__repr__ writes as nan and inf
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(column) -> list:
    """A float column as json writes its numbers, one repr per value."""
    cells = list(map(float.__repr__, np.asarray(column, dtype=float).tolist()))
    return cells if np.all(np.isfinite(column)) else [_JSON_NON_FINITE.get(c, c) for c in cells]


def _json_object(items, depth: int) -> str:
    """JSON object text as json.dump(..., indent=1) writes it at nesting depth.

    items are (encoded key, encoded value) pairs.
    """
    if not items:
        return "{}"
    pad = "\n" + " " * (depth + 1)
    return "{" + ",".join(f"{pad}{k}: {v}" for k, v in items) + "\n" + " " * depth + "}"


def write_attribution_json(path, dates, names, series: AttributionSeries) -> None:
    """Nested per-date JSON variant of the attribution output.

    The bytes are those of json.dump(doc, fh, indent=1) of the nested
    document: one record per date, holding per target its grand_value and
    its contributors' shares.  A record is one %-template filled from the
    per-date values, each float formatted once.
    """
    if len(set(names)) != len(names):
        raise ValueError("series names must be distinct to key the attribution JSON")

    def key(text):
        """text encoded as a key of the record template, a literal % doubled."""
        return json.dumps(text).replace("%", "%%")

    columns, targets = [], []
    for i in series.targets:
        shares = [j for j in range(len(names)) if (i, j) in series.shares]
        columns += [series.grand[i], *(series.shares[(i, j)] for j in shares)]
        entry = [(key("grand_value"), "%s"),
                 (key("shares"), _json_object([(key(names[j]), "%s") for j in shares], 5))]
        targets.append((key(names[i]), _json_object(entry, 4)))
    record = _json_object([(key("date"), "%s"), (key("targets"), _json_object(targets, 3))], 2)
    rows = zip([json.dumps(d.isoformat()) for d in dates], *map(_json_floats, columns))
    records = ",".join("\n  " + record % row for row in rows)
    doc = _json_object([
        (json.dumps("schema"), json.dumps(SCHEMA)),
        (json.dumps("measure"), json.dumps(series.measure)),
        (json.dumps("tau1"), json.dumps(series.tau1)),
        (json.dumps("tau2"), json.dumps(series.tau2)),
        (json.dumps("records"), "[" + records + "\n ]" if records else "[]"),
    ], 0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)

"""Statistics layer: rank correlations, agreement, stratified aggregates,
prediction-shift accounting, and the balanced-MAE prompt objective.

Everything here is pure and deterministic over in-memory sequences; the
correlation grid emitter produces plot-ready CSV/JSON only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .characteristics import ROWS, mean_std
from .errors import (
    DegenerateInput,
    EmptyInput,
    LengthMismatch,
    NoPairableValues,
)
from .metrics import DESIRABILITY
from .model import (
    CANONICAL_LABELS,
    CharacteristicVector,
    Reliability,
    StanceLabel,
    VerdictLabel,
    csv_text,
)

SIGNIFICANCE_LEVEL = 0.05


# -- rank correlation --------------------------------------------------------------

def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    p_value: Optional[float]
    n: int

    @property
    def significant(self) -> bool:
        return self.p_value is not None and self.p_value < SIGNIFICANCE_LEVEL

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "p_value": self.p_value,
            "n": self.n,
            "significant": self.significant,
        }


def _rank_rho(rank_x: Sequence[float], rank_y: Sequence[float]) -> float:
    n = len(rank_x)
    mean = (n + 1) / 2
    cov = math.fsum((rx - mean) * (ry - mean) for rx, ry in zip(rank_x, rank_y))
    var_x = math.fsum((rx - mean) ** 2 for rx in rank_x)
    var_y = math.fsum((ry - mean) ** 2 for ry in rank_y)
    return cov / math.sqrt(var_x * var_y)


_HALF_LOG_PI = 0.5 * math.log(math.pi)
_EPS = 2.0 ** -52
_MAX_CF_TERMS = 1000


def _log_gamma_ratio(a: float) -> float:
    """log Γ(a + ½) - log Γ(a).

    For a ≥ 20 the difference of two ``lgamma`` values loses digits to
    cancellation, so it comes from the asymptotic series instead, whose
    coefficients are (2^(1-k) - 2)·B_k / (k(k-1)) for even k.
    """
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    series = 1 / 8 - r * (1 / 192 - r * (1 / 640 - r * (17 / 14336 - r * (31 / 18432))))
    return 0.5 * math.log(a) - series / a


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, evaluated by the
    modified Lentz method (Numerical Recipes §6.4)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, _MAX_CF_TERMS):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided Student-t p-value P(|T| >= |t|) with ``df`` degrees of freedom.

    That is the regularized incomplete beta I_x(df/2, ½) at
    x = df / (df + t²). df = 1 and df = 2 use the closed forms
    1 - (2/π)·atan|t| and 1 - |t|/√(2 + t²), rearranged so that no
    subtraction cancels when p is small.
    """
    t2 = t * t
    if df == 1:
        return (2.0 / math.pi) * math.atan2(1.0, abs(t))
    x = df / (df + t2)
    y = t2 / (df + t2)  # 1 - x, without the cancellation
    if df == 2:
        return x / (1.0 + math.sqrt(y))
    if y == 0.0:
        return 1.0
    a = df / 2
    # x^a · y^½ / B(a, ½), in logs; log x = -log1p(t²/df) keeps its digits.
    front = math.exp(
        -a * math.log1p(t2 / df) + 0.5 * math.log(y) + _log_gamma_ratio(a) - _HALF_LOG_PI
    )
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x) / a
    return 1.0 - front * _beta_cf(0.5, a, y) / 0.5


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation with average ranks for ties.

    The two-sided p-value comes from the t approximation with n - 2
    degrees of freedom (``t_two_sided_p``); a perfect rank agreement or
    disagreement gets p = 0. Constant inputs have no defined rank
    correlation.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"{len(x)} vs {len(y)} observations")
    n = len(x)
    if n < 3:
        raise DegenerateInput(f"need at least 3 observations, got {n}")
    if len(set(x)) < 2 or len(set(y)) < 2:
        raise DegenerateInput("constant input has no defined rank correlation")

    rho = _rank_rho(_average_ranks(x), _average_ranks(y))
    if abs(rho) >= 1.0 - 1e-15:
        p_value = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p_value = t_two_sided_p(t, n - 2)
    return CorrelationResult(rho=rho, p_value=p_value, n=n)


# -- inter-annotator agreement -----------------------------------------------------

def krippendorff_alpha(units: Sequence[Sequence[Optional[object]]]) -> float:
    """Nominal Krippendorff's alpha over a unit x coder label matrix.

    ``units`` holds one label list per unit (None = missing); units with
    fewer than two labels are excluded. Any two distinct labels disagree
    by the same amount: the labels are categories, not a scale.
    """
    pairable = [
        [label for label in unit if label is not None]
        for unit in units
    ]
    pairable = [labels for labels in pairable if len(labels) >= 2]
    if not pairable:
        raise NoPairableValues("no unit carries two or more labels")

    index: dict[object, int] = {}
    for labels in pairable:
        for label in labels:
            index.setdefault(label, len(index))
    size = len(index)

    coincidence = [[0.0] * size for _ in range(size)]
    for labels in pairable:
        m = len(labels)
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                if i != j:
                    coincidence[index[a]][index[b]] += 1.0 / (m - 1)
    totals = [sum(row) for row in coincidence]
    n = sum(totals)

    off_diagonal = [(i, j) for i in range(size) for j in range(size) if i != j]
    observed = math.fsum(coincidence[i][j] for i, j in off_diagonal) / n
    expected = math.fsum(totals[i] * totals[j] for i, j in off_diagonal) / (n * (n - 1))
    if expected == 0.0:
        # Every pairable label identical: agreement is perfect by definition.
        return 1.0
    return 1.0 - observed / expected


# -- stratified aggregation --------------------------------------------------------

def stratified_acu(acus: Sequence[float], stances: Sequence[StanceLabel]) -> dict:
    """Group ACU scores by evidence stance: the exact-sum mean, population
    std and count of each present stratum and of all scores, as
    ``analysis.json`` holds them. Empty strata are listed, not fatal."""
    if len(acus) != len(stances):
        raise LengthMismatch(f"{len(acus)} scores vs {len(stances)} stances")
    if not acus:
        raise EmptyInput("no scored samples")
    groups: dict[StanceLabel, list[float]] = {}
    for value, stance in zip(acus, stances):
        groups.setdefault(stance, []).append(value)
    grand = mean_std(acus)
    return {
        "strata": {stance.value: mean_std(groups[stance]) for stance in StanceLabel if stance in groups},
        "grand_mean": grand["mean"],
        "grand_std": grand["std"],
        "n": len(acus),
        "empty_strata": [stance.value for stance in StanceLabel if stance not in groups],
    }


# -- prediction-shift accounting ---------------------------------------------------

def prediction_shift(
    claim_only_preds: Sequence[VerdictLabel],
    with_evidence_preds: Sequence[VerdictLabel],
    stances: Sequence[StanceLabel],
) -> dict:
    """Per-stance label counts in both modes and the desirability-signed
    change ΣΔN_D = Σ_t D(t, S_E) · ΔN(t), as ``analysis.json`` holds them.

    A sample switching between labels contributes D(new) − D(old); crossing
    from an undesirable to a desirable label adds +2, the reverse −2, and a
    move inside the same desirability class 0. Desirable/undesirable switch
    counts (the crossings) are reported alongside for audit.
    """
    if not (len(claim_only_preds) == len(with_evidence_preds) == len(stances)):
        raise LengthMismatch(
            f"{len(claim_only_preds)} / {len(with_evidence_preds)} / {len(stances)}"
        )
    if not stances:
        raise EmptyInput("no predictions")

    grouped: dict[StanceLabel, list[tuple[VerdictLabel, VerdictLabel]]] = {}
    for before, after, stance in zip(claim_only_preds, with_evidence_preds, stances):
        grouped.setdefault(stance, []).append((before, after))

    strata: dict[str, dict] = {}
    total = 0
    for stance in StanceLabel:
        if stance not in grouped:
            continue
        pairs = grouped[stance]
        counts_without = {label.value: 0 for label in CANONICAL_LABELS}
        counts_with = dict(counts_without)
        desirable = 0
        undesirable = 0
        for before, after in pairs:
            counts_without[before.value] += 1
            counts_with[after.value] += 1
            d_before = DESIRABILITY[(before, stance)]
            d_after = DESIRABILITY[(after, stance)]
            if d_after > d_before:
                desirable += 1
            elif d_after < d_before:
                undesirable += 1
        delta = {label: counts_with[label] - counts_without[label] for label in counts_with}
        sum_dnd = 2 * (desirable - undesirable)
        strata[stance.value] = {
            "n": len(pairs),
            "counts_without": counts_without,
            "counts_with": counts_with,
            "delta": delta,
            "sum_delta_n_d": sum_dnd,
            "desirable_switches": desirable,
            "undesirable_switches": undesirable,
        }
        total += sum_dnd
    return {"strata": strata, "total_delta_n_d": total, "n": len(stances)}


# -- balanced mean absolute error --------------------------------------------------

DEFAULT_LABEL_ENCODING = {
    VerdictLabel.FALSE: 0.0,
    VerdictLabel.NONE: 1.0,
    VerdictLabel.TRUE: 2.0,
}


def balanced_mae(gold: Sequence[VerdictLabel], pred: Sequence[VerdictLabel]) -> float:
    """Mean absolute error over ``DEFAULT_LABEL_ENCODING``, with sample
    weights inversely proportional to gold-class frequency (each gold class
    contributes equal total weight)."""
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(gold)} gold vs {len(pred)} predicted")
    if not gold:
        raise EmptyInput("no labels")
    encoding = DEFAULT_LABEL_ENCODING
    counts: dict[VerdictLabel, int] = {}
    for label in gold:
        counts[label] = counts.get(label, 0) + 1
    n = len(gold)
    k = len(counts)
    weights = [n / (k * counts[label]) for label in gold]
    errors = [
        abs(encoding[g] - encoding[p]) * w for g, p, w in zip(gold, pred, weights)
    ]
    return math.fsum(errors) / math.fsum(weights)


# -- correlation grid --------------------------------------------------------------

#: Grid rows, one per profiled characteristic; perplexity is reported
#: model-agnostically here.
GRID_CHARACTERISTICS = tuple(name for name, _ in ROWS)


def characteristic_values(vector: CharacteristicVector) -> dict[str, Optional[float]]:
    """Numeric view of one characteristic vector, keyed by grid row name.

    Unknown-reliability samples contribute no value to the unreliability
    row (the correlation runs over the known subset only).
    """
    values: dict[str, Optional[float]] = {}
    for name, attr in ROWS:
        value = getattr(vector, attr)
        if attr == "unreliable" and value is not None:
            value = None if value is Reliability.UNKNOWN else value is Reliability.UNRELIABLE
        values[name] = None if value is None else float(value)
    return values


@dataclass(frozen=True)
class GridSample:
    """One scored sample joined with its characteristics for the grid."""

    dataset: str
    stance: StanceLabel
    acu: float
    vector: CharacteristicVector


def correlation_grid(samples: Iterable[GridSample]) -> dict:
    """Characteristic x (dataset, stance) Spearman grid, plot-ready.

    Cells with fewer than 3 usable pairs or a constant input are absent
    (None), mirroring undefined correlations rather than forcing zeros.
    """
    strata: dict[tuple[str, StanceLabel], list[tuple[dict[str, Optional[float]], float]]] = {}
    for sample in samples:
        strata.setdefault((sample.dataset, sample.stance), []).append(
            (characteristic_values(sample.vector), sample.acu)
        )
    stance_order = list(StanceLabel)
    keys = sorted(strata, key=lambda key: (key[0], stance_order.index(key[1])))
    columns = [f"{dataset}|{stance.value}" for dataset, stance in keys]

    cells: dict[str, dict[str, Optional[dict]]] = {
        row: dict.fromkeys(columns) for row in GRID_CHARACTERISTICS
    }
    for column, key in zip(columns, keys):
        for row in GRID_CHARACTERISTICS:
            pairs = [(values[row], acu) for values, acu in strata[key] if values[row] is not None]
            if len(pairs) < 3:
                continue
            xs = [p[0] for p in pairs]
            ys = [p[1] for p in pairs]
            try:
                cell = spearman(xs, ys).to_dict()
            except DegenerateInput:
                continue
            cells[row][column] = {"characteristic": row, "stratum": column, **cell}
    return {"rows": list(GRID_CHARACTERISTICS), "columns": columns, "cells": cells}


def grid_to_csv(grid: dict) -> str:
    """CSV rendering: one row per characteristic, ``rho*`` marks p < 0.05."""
    rows = [["characteristic"] + grid["columns"]]
    for row in grid["rows"]:
        rendered = []
        for column in grid["columns"]:
            cell = grid["cells"][row][column]
            if cell is None:
                rendered.append("")
            else:
                flag = "*" if cell["significant"] else ""
                rendered.append(f"{cell['rho']:.3f}{flag}")
        rows.append([row] + rendered)
    return csv_text(rows)

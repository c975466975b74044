"""Context-utilisation metrics: rescaled ΔP, desirability, and ACU.

The rescaled probability delta for a verdict token t is

    ΔP(t) = (p_with - p_without) / (1 - p_without)   if p_with >= p_without
            (p_with - p_without) / p_without         otherwise

which maps any change onto [-1, 1]: +1 means the probability rose all the way
to 1, -1 means it collapsed to 0. Accumulated context usage (ACU) signs each
token's ΔP by the desirable direction for the evidence stance and sums over
T = {True, None, False}:

    ACU = Σ_t D(t, S_E) · ΔP(t)            (sum form, range [-3, 3])
    ACU = (1/|T|) Σ_t D(t, S_E) · ΔP(t)    (mean form, range [-1, 1])

Both forms are supported; reported reference values use the sum form, so it is
the default.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvariantViolation
from .model import (
    CANONICAL_LABELS,
    ScoredSample,
    StanceLabel,
    VerdictLabel,
    VerdictProbabilities,
)

logger = logging.getLogger(__name__)

#: Desirable direction of ΔP per verdict token and stance: +1 means faithful
#: context use raises that token's probability, -1 means it lowers it.
DESIRABILITY: dict[tuple[VerdictLabel, StanceLabel], int] = {}

_DESIRABILITY_ROWS: dict[StanceLabel, tuple[int, int, int]] = {
    # rows give (D(False), D(None), D(True))
    StanceLabel.REFUTES: (1, -1, -1),
    StanceLabel.INSUFFICIENT_REFUTES: (1, 1, -1),
    StanceLabel.INSUFFICIENT_CONTRADICTORY: (-1, 1, -1),
    StanceLabel.INSUFFICIENT_NEUTRAL: (-1, 1, -1),
    StanceLabel.INSUFFICIENT_SUPPORTS: (-1, 1, 1),
    StanceLabel.SUPPORTS: (-1, -1, 1),
}
for _stance, (_d_false, _d_none, _d_true) in _DESIRABILITY_ROWS.items():
    DESIRABILITY[(VerdictLabel.FALSE, _stance)] = _d_false
    DESIRABILITY[(VerdictLabel.NONE, _stance)] = _d_none
    DESIRABILITY[(VerdictLabel.TRUE, _stance)] = _d_true


def _by_pair(table: dict, label: VerdictLabel, stance: StanceLabel):
    """``table[label, stance]``, re-wrapping the two only on a miss: a label outside its Enum is a ValueError."""
    try:
        return table[label, stance]
    except (KeyError, TypeError):
        return table[VerdictLabel(label), StanceLabel(stance)]


def desirability(label: VerdictLabel, stance: StanceLabel) -> int:
    """Look up D(t, S_E) ∈ {+1, -1}."""
    return _by_pair(DESIRABILITY, label, stance)


def delta_p_with_flag(p_with: float, p_without: float) -> tuple[float, bool]:
    """Rescaled probability delta plus a degeneracy flag.

    The only true 0/0 cases are p_without = 1 with p_with = 1 (increase
    branch) and p_without = 0 with p_with = 0 (decrease branch never taken;
    equality falls into the increase branch whose denominator is 1). Both
    return 0 with the flag set: "no change" is the only value consistent
    with the limits of either branch.
    """
    for name, value in (("p_with", p_with), ("p_without", p_without)):
        if not 0.0 <= value <= 1.0:
            raise InvariantViolation(name, f"outside [0, 1]: {value}")
    # Reading each input once per branch keeps ΔP monotone under rounding;
    # (p_with - p_without) / ... reads p_without twice and can break it.
    if p_with >= p_without:
        denominator = 1.0 - p_without
        if denominator == 0.0:
            logger.debug("degenerate delta_p: p_without=1 and p_with=1")
            return 0.0, True
        return 1.0 - (1.0 - p_with) / denominator, False
    # Strict decrease implies p_without > p_with >= 0, so the denominator
    # is always positive on this branch.
    return p_with / p_without - 1.0, False


def delta_p(p_with: float, p_without: float) -> float:
    """Rescaled probability delta (range [-1, 1])."""
    return delta_p_with_flag(p_with, p_without)[0]


def delta_p_vector(
    probs_without: VerdictProbabilities, probs_with: VerdictProbabilities
) -> tuple[float, float, float]:
    """Per-token ΔP in canonical order (True, None, False)."""
    return tuple(
        delta_p(probs_with.get(label), probs_without.get(label))
        for label in CANONICAL_LABELS
    )


ACU_FORMS = ("mean", "sum")


@dataclass(frozen=True)
class AcuConfig:
    """Selects the ACU aggregation form: "sum" (default) or "mean"."""

    form: str = "sum"

    def __post_init__(self) -> None:
        if self.form not in ACU_FORMS:
            raise InvariantViolation("form", f"must be one of {ACU_FORMS}: {self.form!r}")


def _signed_sum(deltas: Iterable[float], stance: StanceLabel, config: AcuConfig) -> float:
    """ACU from a ΔP vector in canonical (True, None, False) order."""
    total = 0.0
    for label, value in zip(CANONICAL_LABELS, deltas):
        total += desirability(label, stance) * value
    if config.form == "mean":
        return total / len(CANONICAL_LABELS)
    return total


def acu_from_triples(
    triple_without: Sequence[float],
    triple_with: Sequence[float],
    stance: StanceLabel,
    config: AcuConfig = AcuConfig(),
) -> float:
    """Accumulated context usage for one (claim, evidence) sample, over
    probability triples in canonical (True, None, False) order.

    Unlike VerdictProbabilities inputs, the triples need not sum to 1;
    printed or otherwise rounded values feed straight into the formulas.
    """
    return _signed_sum(map(delta_p, triple_with, triple_without), stance, config)


def score_sample(
    claim_id: str,
    evidence_id: str,
    probs_without: VerdictProbabilities,
    probs_with: VerdictProbabilities,
    stance: StanceLabel,
    model_id: str,
    prompt_id: str,
    config: AcuConfig = AcuConfig(),
) -> ScoredSample:
    """Bundle ΔP vector and ACU into a ScoredSample record."""
    deltas = delta_p_vector(probs_without, probs_with)
    return ScoredSample(
        claim_id=claim_id,
        evidence_id=evidence_id,
        probs_without=probs_without,
        probs_with=probs_with,
        delta_p=deltas,
        acu=_signed_sum(deltas, stance, config),
        model_id=model_id,
        prompt_id=prompt_id,
    )


def argmax_label(probs: VerdictProbabilities) -> VerdictLabel:
    """Highest-probability verdict token; ties resolve in canonical order."""
    values = (probs.p_true, probs.p_none, probs.p_false)
    return CANONICAL_LABELS[values.index(max(values))]


#: Whether each (parametric prediction, evidence stance) pair conflicts.
_CONFLICTS = dict.fromkeys(DESIRABILITY, False)
_CONFLICTS.update({(VerdictLabel.TRUE, StanceLabel.REFUTES): True, (VerdictLabel.FALSE, StanceLabel.SUPPORTS): True})


def memory_conflict(parametric_prediction: VerdictLabel, stance: StanceLabel) -> bool:
    """Whether evidence stance opposes the model's parametric prediction.

    None predictions and non-polar stances (any insufficient-*) never
    conflict; only (True, refutes) and (False, supports) do.
    """
    return _by_pair(_CONFLICTS, parametric_prediction, stance)

"""Metric-layer tests: rescaled delta, desirability table, ACU, conflicts."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contextmeter import metrics
from contextmeter.errors import InvariantViolation
from contextmeter.ingest import Corpus
from contextmeter.metrics import AcuConfig, acu_from_triples
from contextmeter.model import (
    CANONICAL_LABELS,
    PromptMode,
    StanceLabel,
    VerdictLabel,
    VerdictProbabilities,
)

from conftest import make_claim, make_evidence

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

# (D(False), D(None), D(True)) per stance
DESIRABILITY_TABLE = {
    StanceLabel.REFUTES: (1, -1, -1),
    StanceLabel.INSUFFICIENT_REFUTES: (1, 1, -1),
    StanceLabel.INSUFFICIENT_CONTRADICTORY: (-1, 1, -1),
    StanceLabel.INSUFFICIENT_NEUTRAL: (-1, 1, -1),
    StanceLabel.INSUFFICIENT_SUPPORTS: (-1, 1, 1),
    StanceLabel.SUPPORTS: (-1, -1, 1),
}


def probs(p_true, p_none, p_false, mode=PromptMode.CLAIM_ONLY):
    return VerdictProbabilities(p_true, p_none, p_false, mode)


class TestDeltaP:
    def test_increase_rescales_by_headroom(self):
        assert metrics.delta_p(0.84, 0.69) == pytest.approx(0.15 / 0.31)

    def test_decrease_rescales_by_mass(self):
        assert metrics.delta_p(0.01, 0.14) == pytest.approx(-0.13 / 0.14)

    def test_no_change_is_zero(self):
        assert metrics.delta_p(0.4, 0.4) == 0.0

    def test_rise_to_one_is_plus_one(self):
        assert metrics.delta_p(1.0, 0.3) == pytest.approx(1.0)

    def test_collapse_to_zero_is_minus_one(self):
        assert metrics.delta_p(0.0, 0.3) == pytest.approx(-1.0)

    def test_degenerate_case_flagged(self):
        # (1, 1) is the only true 0/0: the increase branch divides by zero.
        # (0, 0) lands in the increase branch with denominator 1, a clean 0.
        assert metrics.delta_p_with_flag(1.0, 1.0) == (0.0, True)
        assert metrics.delta_p_with_flag(0.0, 0.0) == (0.0, False)
        assert metrics.delta_p_with_flag(0.5, 0.5) == (0.0, False)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvariantViolation):
            metrics.delta_p(1.2, 0.5)
        with pytest.raises(InvariantViolation):
            metrics.delta_p(0.5, -0.1)

    @given(p_with=UNIT, p_without=UNIT)
    def test_range(self, p_with, p_without):
        value = metrics.delta_p(p_with, p_without)
        assert -1.0 <= value <= 1.0

    @given(p_with=UNIT, p_without=UNIT)
    def test_sign_matches_direction(self, p_with, p_without):
        value = metrics.delta_p(p_with, p_without)
        if p_with > p_without:
            assert value >= 0.0
        elif p_with < p_without:
            assert value < 0.0
        else:
            assert value == 0.0

    @given(p_without=UNIT, a=UNIT, b=UNIT)
    def test_monotone_in_p_with(self, p_without, a, b):
        lo, hi = sorted((a, b))
        assert metrics.delta_p(lo, p_without) <= metrics.delta_p(hi, p_without)

    @given(p_with=UNIT, a=UNIT, b=UNIT)
    def test_antitone_in_p_without(self, p_with, a, b):
        lo, hi = sorted((a, b))
        assert metrics.delta_p(p_with, lo) >= metrics.delta_p(p_with, hi)

    @pytest.mark.parametrize(
        "p_with, lo, hi",
        [
            # recorded from a Hypothesis run of test_antitone_in_p_without
            (0.9999999999999999, 0.3247, 0.5),
            # (p_with - p_without) / (1 - p_without) rose by an ulp here
            (0.8262955117986266, 0.37651402824500196, 0.376514028245002),
        ],
    )
    def test_pinned_antitonicity_cases(self, p_with, lo, hi):
        assert metrics.delta_p(p_with, lo) >= metrics.delta_p(p_with, hi)

    def test_seeded_sweep_both_monotonicities(self):
        rng = random.Random(20240)

        def draw():
            # uniform, within a few ulps of 1, or subnormal to tiny
            kind = rng.randrange(3)
            if kind == 0:
                return rng.random()
            if kind == 1:
                return 1.0 - rng.randrange(64) * 2.0 ** -53
            return rng.randrange(64) * 2.0 ** -1074 * rng.choice((1, 2 ** 20, 2 ** 900))

        for _ in range(100_000):
            fixed, lo = draw(), draw()
            # half the pairs are neighbouring floats, where rounding bites
            hi = math.nextafter(lo, 1.0) if rng.random() < 0.5 else draw()
            lo, hi = sorted((lo, hi))
            assert metrics.delta_p(lo, fixed) <= metrics.delta_p(hi, fixed), (lo, hi, fixed)
            assert metrics.delta_p(fixed, lo) >= metrics.delta_p(fixed, hi), (fixed, lo, hi)

    def test_vector_order_true_none_false(self):
        vector = metrics.score_sample(
            "c", "e", probs(0.2, 0.3, 0.5), probs(0.6, 0.3, 0.1, PromptMode.CLAIM_EVIDENCE),
            StanceLabel.SUPPORTS, "m", "p",
        ).delta_p
        assert vector[0] == pytest.approx(0.4 / 0.8)
        assert vector[1] == 0.0
        assert vector[2] == pytest.approx(-0.4 / 0.5)


class TestDesirability:
    def test_all_18_cells(self):
        for stance, (d_false, d_none, d_true) in DESIRABILITY_TABLE.items():
            assert metrics.desirability(VerdictLabel.FALSE, stance) == d_false
            assert metrics.desirability(VerdictLabel.NONE, stance) == d_none
            assert metrics.desirability(VerdictLabel.TRUE, stance) == d_true

    def test_values_are_signs(self):
        for label, stance in itertools.product(VerdictLabel, StanceLabel):
            assert metrics.desirability(label, stance) in (-1, 1)

    def test_accepts_raw_strings(self):
        assert metrics.desirability("False", "refutes") == 1


#: Labels outside the Enums and the ValueError each gives.
BAD_PAIRS = [
    (("Maybe", "supports"), "'Maybe' is not a valid VerdictLabel"),
    (("TRUE", "refutes"), "'TRUE' is not a valid VerdictLabel"),
    (("True", "SUPPORTS"), "'SUPPORTS' is not a valid StanceLabel"),
    ((["True"], "supports"), r"\['True'\] is not a valid VerdictLabel"),
    ((3, "refutes"), "3 is not a valid VerdictLabel"),
]


@pytest.mark.parametrize("lookup", [metrics.desirability, metrics.memory_conflict])
@pytest.mark.parametrize("pair,message", BAD_PAIRS)
def test_pair_lookup_refuses_a_label_outside_its_enum(lookup, pair, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        lookup(*pair)


class TestAcu:
    def test_hand_computed_sample(self):
        # refutes stance: measured shift towards False with both True and
        # None losing mass.
        value = acu_from_triples((0.14, 0.17, 0.69), (0.01, 0.15, 0.84),
                                 StanceLabel.REFUTES)
        expected = (
            -1 * (-0.13 / 0.14) + -1 * (-0.02 / 0.17) + 1 * (0.15 / 0.31)
        )
        assert value == pytest.approx(expected)

    def test_sum_is_three_times_mean(self):
        args = ((0.2, 0.5, 0.3), (0.6, 0.1, 0.3), StanceLabel.SUPPORTS)
        total = acu_from_triples(*args, config=AcuConfig(form="sum"))
        mean = acu_from_triples(*args, config=AcuConfig(form="mean"))
        assert total == pytest.approx(3 * mean)

    def test_invalid_form_rejected(self):
        with pytest.raises(InvariantViolation):
            AcuConfig(form="median")

    @given(
        pw=st.tuples(UNIT, UNIT, UNIT),
        po=st.tuples(UNIT, UNIT, UNIT),
        stance=st.sampled_from(list(StanceLabel)),
    )
    def test_bounds(self, pw, po, stance):
        total = acu_from_triples(po, pw, stance)
        assert -3.0 <= total <= 3.0
        mean = acu_from_triples(po, pw, stance, config=AcuConfig(form="mean"))
        assert -1.0 <= mean <= 1.0
        assert total == pytest.approx(3 * mean)

    def test_acu_of_verdict_probabilities_matches_triples(self):
        # score_sample sums the same per-token deltas in the same order,
        # so the two agree to the last bit.
        without = probs(0.2, 0.5, 0.3)
        with_ = probs(0.6, 0.1, 0.3, PromptMode.CLAIM_EVIDENCE)
        sample = metrics.score_sample("c", "e", without, with_, StanceLabel.SUPPORTS, "m", "p")
        assert sample.acu == acu_from_triples(
            (0.2, 0.5, 0.3), (0.6, 0.1, 0.3), StanceLabel.SUPPORTS
        )


def _clip(value):
    return min(1.0, max(0.0, value))


def acu_interval(triple_without, triple_with, stance, slack=0.005):
    """Worst-case ACU interval when every printed probability is a rounded
    value (true value within +/- slack). Uses monotonicity of the rescaled
    delta: increasing in p_with, decreasing in p_without."""
    lo = hi = 0.0
    for label, po, pw in zip(CANONICAL_LABELS, triple_without, triple_with):
        d = metrics.desirability(label, stance)
        dp_lo = metrics.delta_p(_clip(pw - slack), _clip(po + slack))
        dp_hi = metrics.delta_p(_clip(pw + slack), _clip(po - slack))
        lo += min(d * dp_lo, d * dp_hi)
        hi += max(d * dp_lo, d * dp_hi)
    return lo, hi


class TestGoldenAcu:
    """Published worked examples reproduced from their printed inputs."""

    def test_in_gate_rows_within_tolerance(self, golden_acu):
        tolerance = golden_acu["tolerance"]
        checked = 0
        for sample in golden_acu["samples"]:
            if not sample["in_gate"]:
                continue
            value = acu_from_triples(
                tuple(sample["without"][l.value] for l in CANONICAL_LABELS),
                tuple(sample["with"][l.value] for l in CANONICAL_LABELS),
                StanceLabel(sample["stance"]),
            )
            assert value == pytest.approx(sample["printed_acu"], abs=tolerance), (
                sample["name"],
                sample["model"],
            )
            checked += 1
        assert checked == 26

    def test_twelve_claims_reproduce_for_both_models(self, golden_acu):
        by_claim = {}
        for sample in golden_acu["samples"]:
            by_claim.setdefault(sample["name"], []).append(sample["in_gate"])
        full = [name for name, gates in by_claim.items()
                if len(gates) == 2 and all(gates)]
        assert len(full) == 12

    def test_out_of_gate_rows_consistent_with_rounding(self, golden_acu):
        """The remaining rows sit inside the interval implied by rounding
        every printed probability to two decimals."""
        outliers = [s for s in golden_acu["samples"] if not s["in_gate"]]
        assert len(outliers) == 2
        for sample in outliers:
            lo, hi = acu_interval(
                tuple(sample["without"][l.value] for l in CANONICAL_LABELS),
                tuple(sample["with"][l.value] for l in CANONICAL_LABELS),
                StanceLabel(sample["stance"]),
            )
            assert lo - 0.005 <= sample["printed_acu"] <= hi + 0.005, sample["name"]


class TestScoreSample:
    def test_fields_and_consistency(self):
        without = probs(0.14, 0.17, 0.69)
        with_ = probs(0.01, 0.15, 0.84, PromptMode.CLAIM_EVIDENCE)
        sample = metrics.score_sample(
            "c1", "e1", without, with_, StanceLabel.REFUTES, "m", "p"
        )
        assert sample.claim_id == "c1"
        assert sample.delta_p == tuple(map(metrics.delta_p, (0.01, 0.15, 0.84), (0.14, 0.17, 0.69)))
        assert sample.acu == pytest.approx(
            acu_from_triples((0.14, 0.17, 0.69), (0.01, 0.15, 0.84), StanceLabel.REFUTES)
        )
        assert math.isfinite(sample.acu)

    def test_mean_form_propagates(self):
        without = probs(0.14, 0.17, 0.69)
        with_ = probs(0.01, 0.15, 0.84, PromptMode.CLAIM_EVIDENCE)
        sum_sample = metrics.score_sample(
            "c", "e", without, with_, StanceLabel.REFUTES, "m", "p"
        )
        mean_sample = metrics.score_sample(
            "c", "e", without, with_, StanceLabel.REFUTES, "m", "p",
            config=AcuConfig(form="mean"),
        )
        assert sum_sample.acu == pytest.approx(3 * mean_sample.acu)


class TestArgmax:
    def test_plain_max(self):
        assert metrics.argmax_label(probs(0.2, 0.3, 0.5)) is VerdictLabel.FALSE

    def test_tie_resolves_in_canonical_order(self):
        assert metrics.argmax_label(probs(0.4, 0.4, 0.2)) is VerdictLabel.TRUE
        assert metrics.argmax_label(probs(0.2, 0.4, 0.4)) is VerdictLabel.NONE
        assert metrics.argmax_label(probs(0.4, 0.2, 0.4)) is VerdictLabel.TRUE
        assert metrics.argmax_label(probs(0.2, 0.2, 0.6)) is VerdictLabel.FALSE

    @given(st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any))
    def test_first_label_of_the_highest_probability(self, weights):
        p = VerdictProbabilities.from_weights(dict(zip(CANONICAL_LABELS, map(float, weights))), PromptMode.CLAIM_ONLY)
        values = [p.p_true, p.p_none, p.p_false]
        assert metrics.argmax_label(p) is CANONICAL_LABELS[values.index(max(values))]


class TestMemoryConflict:
    def test_all_18_cases(self):
        conflicting = {
            (VerdictLabel.TRUE, StanceLabel.REFUTES),
            (VerdictLabel.FALSE, StanceLabel.SUPPORTS),
        }
        for label, stance in itertools.product(VerdictLabel, StanceLabel):
            assert metrics.memory_conflict(label, stance) is (
                (label, stance) in conflicting
            ), (label, stance)
            assert metrics.memory_conflict(label.value, stance.value) is metrics.memory_conflict(label, stance)


def conflicts(claim_ids, evidences):
    claims = {claim_id: make_claim(id=claim_id) for claim_id in claim_ids}
    return Corpus(claims=claims, evidence=evidences).inter_context_conflicts()


class TestInterContextConflict:
    def test_supports_plus_refutes(self):
        evidences = [
            make_evidence(id="e1", stance=StanceLabel.SUPPORTS),
            make_evidence(id="e2", stance=StanceLabel.REFUTES),
        ]
        assert conflicts(["c1"], evidences) == 1

    def test_insufficient_stances_do_not_conflict(self):
        evidences = [
            make_evidence(id="e1", stance=StanceLabel.SUPPORTS),
            make_evidence(id="e2", stance=StanceLabel.INSUFFICIENT_REFUTES),
        ]
        assert conflicts(["c1"], evidences) == 0

    def test_unlabelled_evidence_ignored(self):
        evidences = [
            make_evidence(id="e1", stance=None, relevance=None),
            make_evidence(id="e2", stance=StanceLabel.REFUTES),
        ]
        assert conflicts(["c1"], evidences) == 0

    def test_count_over_corpus(self):
        evidences = [
            make_evidence(id="e1", claim_id="c0", stance=StanceLabel.SUPPORTS),
            make_evidence(id="e2", claim_id="c0", stance=StanceLabel.REFUTES),
            make_evidence(id="e3", claim_id="c1", stance=StanceLabel.SUPPORTS),
        ]
        assert conflicts(["c0", "c1", "c2"], evidences) == 1

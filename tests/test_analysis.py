"""Statistical layer: correlation, agreement, shift accounting, grids."""

import math
import random
from dataclasses import replace
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextmeter import analysis as an
from contextmeter.errors import (
    DegenerateInput,
    EmptyInput,
    LengthMismatch,
    NoPairableValues,
)
from contextmeter.metrics import DESIRABILITY
from contextmeter.model import CANONICAL_LABELS, CharacteristicVector, Reliability, StanceLabel, VerdictLabel

from conftest import characteristic_vectors

T, N, F = VerdictLabel.TRUE, VerdictLabel.NONE, VerdictLabel.FALSE


def average_ranks(values):
    ordered = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(ordered):
        j = i
        while j + 1 < len(ordered) and values[ordered[j + 1]] == values[ordered[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[ordered[k]] = rank
        i = j + 1
    return ranks


def pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


class TestSpearman:
    def test_perfect_agreement(self):
        result = an.spearman([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        assert result.rho == pytest.approx(1.0)
        assert result.p_value == 0.0
        assert result.n == 5

    def test_perfect_disagreement(self):
        result = an.spearman([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
        assert result.rho == pytest.approx(-1.0)
        assert result.p_value == 0.0

    def test_textbook_point_six(self):
        assert an.spearman([1, 2, 3, 4, 5], [3, 1, 2, 5, 4]).rho == (
            pytest.approx(0.6)
        )

    def test_monotone_transform_invariance(self):
        x = [0.1, 0.7, 0.3, 0.9, 0.5]
        y = [2.0, 1.0, 4.0, 3.0, 5.0]
        plain = an.spearman(x, y).rho
        squashed = an.spearman([math.tanh(v) for v in x], y).rho
        assert plain == pytest.approx(squashed)

    def test_brute_force_no_ties(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(3, 10)
            x = rng.sample(range(100), n)
            y = rng.sample(range(100), n)
            rx, ry = average_ranks(x), average_ranks(y)
            # no ties: classic sum-of-squared-rank-differences formula
            d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
            expected = 1 - 6 * d2 / (n * (n**2 - 1))
            assert an.spearman(x, y).rho == pytest.approx(expected, abs=1e-12)

    def test_brute_force_with_ties(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(3, 10)
            x = [rng.randint(0, 4) for _ in range(n)]
            y = [rng.randint(0, 4) for _ in range(n)]
            try:
                result = an.spearman(x, y)
            except DegenerateInput:
                assert len(set(x)) == 1 or len(set(y)) == 1
                continue
            expected = pearson(average_ranks(x), average_ranks(y))
            assert result.rho == pytest.approx(expected, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateInput):
            an.spearman([1, 1, 1], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateInput):
            an.spearman([1, 2], [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            an.spearman([1, 2, 3], [1, 2])

    def test_t_approximation_p_value(self):
        # moderate n, imperfect correlation: p strictly inside (0, 1)
        rng = random.Random(9)
        x = [rng.random() for _ in range(20)]
        y = [v + rng.random() for v in x]
        result = an.spearman(x, y)
        assert 0.0 < result.p_value < 1.0


def even_df_p(t, df):
    """Exact two-sided p for even df from the finite sum of Abramowitz &
    Stegun 26.7.4, in 120-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 120
        t, nu = Decimal(t), Decimal(df)
        c2 = nu / (nu + t * t)
        term = total = Decimal(1)
        for k in range(1, df // 2):
            term = term * c2 * (2 * k - 1) / (2 * k)
            total += term
        return float(1 - t / (nu + t * t).sqrt() * total)


#: Worst relative error of ``t_two_sided_p`` measured against scipy 1.17
#: and against ``even_df_p`` was 7.8e-13 (df in the thousands, p near 0.05,
#: where the continued fraction is near its switch point).
P_REL_BOUND = 1e-12


class TestTwoSidedP:
    T_GRID = [1e-3 * 1.1 ** k for k in range(115)]  # 1e-3 .. about 57
    DF_GRID = [1, 2, 3, 4, 5, 7, 10, 30, 100, 1000, 10_000]

    def test_df1_closed_form(self):
        for t in self.T_GRID:
            literal = 1.0 - (2.0 / math.pi) * math.atan(t)
            assert an.t_two_sided_p(t, 1) == pytest.approx(literal, rel=0, abs=2 ** -52)
        assert an.t_two_sided_p(0.0, 1) == 1.0
        assert an.t_two_sided_p(1.0, 1) == 0.5
        # far tail: p = (2/π)·atan(1/t) keeps its digits, 1 - (2/π)·atan(t) would not
        assert an.t_two_sided_p(1e8, 1) == pytest.approx(2.0 / (math.pi * 1e8), rel=1e-15)

    def test_df2_closed_form(self):
        for t in self.T_GRID:
            literal = 1.0 - t / math.sqrt(2.0 + t * t)
            assert an.t_two_sided_p(t, 2) == pytest.approx(literal, rel=0, abs=2 ** -52)
        assert an.t_two_sided_p(0.0, 2) == 1.0
        assert an.t_two_sided_p(1e8, 2) == pytest.approx(1e-16, rel=1e-15)

    def test_sign_of_t_is_ignored(self):
        for df in self.DF_GRID:
            for t in (1e-3, 0.7, 2.5, 40.0):
                assert an.t_two_sided_p(-t, df) == an.t_two_sided_p(t, df)

    def test_zero_t_gives_one(self):
        for df in self.DF_GRID:
            assert an.t_two_sided_p(0.0, df) == 1.0

    def test_matches_exact_even_df(self):
        rng = random.Random(26)
        for _ in range(300):
            df = 2 * round(math.exp(rng.uniform(0.0, math.log(5000))))
            t = math.exp(rng.uniform(math.log(1e-3), math.log(8.0)))
            assert an.t_two_sided_p(t, df) == pytest.approx(even_df_p(t, df), rel=P_REL_BOUND, abs=0)

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(7)
        for _ in range(5000):
            df = round(math.exp(rng.uniform(0.0, math.log(10_000))))
            t = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
            expected = 2.0 * float(stats.t.sf(t, df))
            got = an.t_two_sided_p(t, df)
            if expected < 1e-290:
                # underflow: subnormal results carry no relative precision
                assert got < 1e-290, (t, df)
            else:
                assert got == pytest.approx(expected, rel=P_REL_BOUND, abs=0), (t, df)

    def test_in_unit_interval_and_monotone(self):
        table = [[an.t_two_sided_p(t, df) for t in self.T_GRID] for df in self.DF_GRID]
        for row in table:
            assert all(0.0 <= p <= 1.0 for p in row)
            assert all(b <= a for a, b in zip(row, row[1:]))  # falls as |t| grows
        for column in zip(*table):
            assert all(b <= a for a, b in zip(column, column[1:]))  # falls as df grows


class TestKrippendorff:
    def test_hand_computed_binary_fixture(self):
        units = [(0, 0), (1, 1), (0, 1), (1, 0)]
        assert an.krippendorff_alpha(units) == pytest.approx(0.125)

    def test_perfect_agreement(self):
        assert an.krippendorff_alpha([(1, 1), (2, 2), (3, 3)]) == 1.0

    def test_coder_permutation_invariance(self):
        units = [(1, 2, 1), (2, 2, 2), (1, 1, 2), (3, 3, 3)]
        swapped = [(c, a, b) for a, b, c in units]
        assert an.krippendorff_alpha(units) == pytest.approx(
            an.krippendorff_alpha(swapped)
        )

    def test_missing_values_ignored(self):
        units = [(1, 1, None), (2, None, 2), (3, 3, 3)]
        assert an.krippendorff_alpha(units) == 1.0

    def test_no_pairable_values(self):
        with pytest.raises(NoPairableValues):
            an.krippendorff_alpha([(1, None), (None, 2)])


class TestStratifiedAcu:
    def test_grouped_means(self):
        result = an.stratified_acu(
            [1.0, 2.0, 0.5, -0.5],
            [
                StanceLabel.SUPPORTS,
                StanceLabel.SUPPORTS,
                StanceLabel.REFUTES,
                StanceLabel.REFUTES,
            ],
        )
        assert result["strata"]["supports"] == {"mean": 1.5, "std": 0.5, "n": 2}
        assert result["strata"]["refutes"] == {"mean": 0.0, "std": 0.5, "n": 2}
        assert result["grand_mean"] == pytest.approx(0.75)
        # population std over all four values
        assert result["grand_std"] == pytest.approx(
            math.sqrt(sum((v - 0.75) ** 2 for v in [1.0, 2.0, 0.5, -0.5]) / 4)
        )
        assert result["n"] == 4
        assert len(result["empty_strata"]) == 4

    def test_single_sample(self):
        result = an.stratified_acu([0.3], [StanceLabel.SUPPORTS])
        assert result["strata"]["supports"] == {"mean": 0.3, "std": 0.0, "n": 1}
        assert result["grand_std"] == 0.0

    def test_sign_symmetry(self):
        plus = an.stratified_acu([0.2, 0.8], [StanceLabel.SUPPORTS] * 2)
        minus = an.stratified_acu([-0.2, -0.8], [StanceLabel.SUPPORTS] * 2)
        stratum_p = plus["strata"]["supports"]
        stratum_m = minus["strata"]["supports"]
        assert stratum_p["mean"] == pytest.approx(-stratum_m["mean"])
        assert stratum_p["std"] == pytest.approx(stratum_m["std"])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            an.stratified_acu([1.0], [StanceLabel.SUPPORTS] * 2)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            an.stratified_acu([], [])


class TestPredictionShift:
    def test_no_changes_zero(self):
        stances = [StanceLabel.REFUTES] * 3
        table = an.prediction_shift([T, N, F], [T, N, F], stances)
        assert table["total_delta_n_d"] == 0
        row = table["strata"]["refutes"]
        assert row["sum_delta_n_d"] == 0
        assert row["desirable_switches"] == 0
        assert row["undesirable_switches"] == 0

    def test_single_desirable_crossing_counts_twice(self):
        # True -> False under refutes: one count leaves an undesirable
        # label (-1 loses one) and lands on the desirable one (+1 gains
        # one), so the signed sum moves by 2
        table = an.prediction_shift([T], [F], [StanceLabel.REFUTES])
        row = table["strata"]["refutes"]
        assert row["sum_delta_n_d"] == 2
        assert row["desirable_switches"] == 1
        assert row["undesirable_switches"] == 0

    def test_within_class_flip_is_zero(self):
        # True -> None under refutes: both labels are undesirable, the
        # signed sum is unchanged
        table = an.prediction_shift([T], [N], [StanceLabel.REFUTES])
        assert table["total_delta_n_d"] == 0

    def test_six_sample_fixture(self):
        stances = [StanceLabel.REFUTES] * 3 + [StanceLabel.SUPPORTS] * 3
        without = [T, T, N, F, F, T]
        with_ev = [F, F, N, T, F, T]
        # refutes: two desirable crossings (+2 each); supports: one
        # desirable crossing (+2); net +6
        table = an.prediction_shift(without, with_ev, stances)
        assert table["total_delta_n_d"] == 6
        assert table["strata"]["refutes"]["sum_delta_n_d"] == 4
        assert table["strata"]["supports"]["sum_delta_n_d"] == 2
        assert table["strata"]["supports"]["desirable_switches"] == 1

    def test_undesirable_crossing(self):
        table = an.prediction_shift([F], [T], [StanceLabel.REFUTES])
        row = table["strata"]["refutes"]
        assert row["sum_delta_n_d"] == -2
        assert row["undesirable_switches"] == 1

    def test_marginals_invariant(self):
        stances = [StanceLabel.REFUTES] * 4
        table = an.prediction_shift([T, N, F, T], [F, F, N, T], stances)
        row = table["strata"]["refutes"]
        assert sum(row["counts_without"].values()) == row["n"]
        assert sum(row["counts_with"].values()) == row["n"]
        assert sum(row["delta"].values()) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            an.prediction_shift([T], [T, F], [StanceLabel.REFUTES])

    @given(
        samples=st.lists(
            st.tuples(st.sampled_from(CANONICAL_LABELS), st.sampled_from(CANONICAL_LABELS), st.sampled_from(StanceLabel)),
            min_size=1,
        )
    )
    def test_sum_matches_the_delta_count_oracle(self, samples):
        before, after, stances = map(list, zip(*samples))
        table = an.prediction_shift(before, after, stances)
        for stance in set(stances):
            row = table["strata"][stance.value]
            assert row["sum_delta_n_d"] == reference_sum_delta_n_d(row["delta"], stance)
        assert table["total_delta_n_d"] == sum(row["sum_delta_n_d"] for row in table["strata"].values())


def reference_sum_delta_n_d(delta, stance):
    """Σ_t D(t, S_E) · ΔN(t) from the per-label count changes, as
    ``prediction_shift`` summed it before it used the switch counts."""
    return sum(DESIRABILITY[(label, stance)] * delta[label.value] for label in CANONICAL_LABELS)


class TestBalancedMae:
    def test_perfect_prediction(self):
        assert an.balanced_mae([T, N, F], [T, N, F]) == 0.0

    def test_hand_computed_half(self):
        # weights: w_T = 3/(3*2) = 0.5 each, w_F = 3/(3*1) = 1.0;
        # errors |2-2|*0.5 + |2-0|*0.5 + |0-0|*1.0 = 1.0 over weight sum 2.0
        assert an.balanced_mae([T, T, F], [T, F, F]) == pytest.approx(0.5)

    def test_uniform_one_unit_error(self):
        assert an.balanced_mae([T, F], [N, N]) == pytest.approx(1.0)

    def test_balancing_ignores_class_imbalance(self):
        # nine correct T, one F predicted two units off: balancing weights
        # the lone F sample as heavily as the whole T class
        gold = [T] * 9 + [F]
        pred = [T] * 9 + [T]
        assert an.balanced_mae(gold, pred) == pytest.approx(1.0)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            an.balanced_mae([], [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            an.balanced_mae([T], [T, F])


def grid_vector(i, jaccard):
    return CharacteristicVector(
        claim_id=f"c{i}",
        evidence_id=f"e{i}",
        jaccard=jaccard,
        claim_evidence_overlap=0.5,
        repeats_claim=False,
        flesch=50.0,
        claim_len_chars=30 + i,
        evidence_len_chars=100 + i,
    )


def build_grid_samples():
    rng = random.Random(0)
    samples = []
    for dataset in ("druid", "counterfact"):
        for stance in (StanceLabel.SUPPORTS, StanceLabel.REFUTES):
            for i in range(5):
                samples.append(
                    an.GridSample(
                        dataset=dataset,
                        stance=stance,
                        acu=rng.uniform(-1, 1),
                        vector=grid_vector(i, rng.random()),
                    )
                )
    return samples


def reference_characteristic_values(vector):
    """Every grid row written out by hand, as before the rows were declared
    in one table."""

    def as_float(value):
        if value is None:
            return None
        if isinstance(value, bool):
            return 1.0 if value else 0.0
        return float(value)

    if vector.unreliable is None or vector.unreliable is Reliability.UNKNOWN:
        unreliable = None
    else:
        unreliable = 1.0 if vector.unreliable is Reliability.UNRELIABLE else 0.0
    return {
        "Jaccard similarity": as_float(vector.jaccard),
        "Claim-evidence overlap": as_float(vector.claim_evidence_overlap),
        "Repeats claim (%)": as_float(vector.repeats_claim),
        "Flesch reading ease score": as_float(vector.flesch),
        "Claim length": as_float(vector.claim_len_chars),
        "Evidence length": as_float(vector.evidence_len_chars),
        "Perplexity": as_float(vector.perplexity),
        "Claim entity overlap": as_float(vector.entity_overlap),
        "Detection by LLM (%)": as_float(vector.refers_external),
        "Unreliable source (%)": unreliable,
        "Contains hedging (%)": as_float(vector.hedging),
        "Contains hedging discourse (%)": as_float(vector.hedging_discourse),
        "Contains 'True'": as_float(vector.contains_true_word),
        "Contains 'False'": as_float(vector.contains_false_word),
        "Fact-check source (%)": as_float(vector.fact_check_source),
        "Gold source (%)": as_float(vector.gold_source),
        "Pub. after claim (%)": as_float(vector.pub_after_claim),
    }


class TestCharacteristicValues:
    @given(vector=characteristic_vectors())
    def test_matches_reference(self, vector):
        values = an.characteristic_values(vector)
        reference = reference_characteristic_values(vector)
        assert values == reference
        assert tuple(values) == an.GRID_CHARACTERISTICS
        assert all(value is None or type(value) is float for value in values.values())


def reference_correlation_grid(samples):
    """``correlation_grid`` as it was before it grouped the samples in one
    pass: each column filters every sample again."""
    materialized = list(samples)
    datasets = sorted({sample.dataset for sample in materialized})
    columns = []
    for dataset in datasets:
        present = {s.stance for s in materialized if s.dataset == dataset}
        columns.extend(f"{dataset}|{stance.value}" for stance in StanceLabel if stance in present)
    cells = {row: {column: None for column in columns} for row in an.GRID_CHARACTERISTICS}
    for column in columns:
        dataset, stance_value = column.split("|", 1)
        of_column = [
            (an.characteristic_values(s.vector), s.acu)
            for s in materialized
            if s.dataset == dataset and s.stance.value == stance_value
        ]
        for row in an.GRID_CHARACTERISTICS:
            pairs = [(values[row], acu) for values, acu in of_column if values[row] is not None]
            if len(pairs) < 3:
                continue
            try:
                cell = an.spearman([p[0] for p in pairs], [p[1] for p in pairs]).to_dict()
            except DegenerateInput:
                continue
            cells[row][column] = {"characteristic": row, "stratum": column, **cell}
    return {"rows": list(an.GRID_CHARACTERISTICS), "columns": columns, "cells": cells}


grid_samples = st.builds(
    an.GridSample,
    dataset=st.sampled_from(("druid", "counterfact", "Conflict-QA")),
    stance=st.sampled_from(StanceLabel),
    acu=st.sampled_from((-1.5, -0.25, 0.0, 0.25, 0.5, 3.0)),
    vector=characteristic_vectors(),
)


class TestCorrelationGrid:
    # Lists this long fill most strata with three or more samples; each
    # example is slow to draw, hence the smaller example budget.
    @settings(max_examples=30, deadline=None)
    @given(samples=st.lists(grid_samples, min_size=15, max_size=40))
    def test_matches_the_per_column_filter_oracle(self, samples):
        assert an.correlation_grid(samples) == reference_correlation_grid(samples)

    def test_dataset_name_with_the_column_separator_keeps_its_cells(self):
        samples = [replace(sample, dataset="druid|v2") for sample in build_grid_samples()]
        grid = an.correlation_grid(samples)
        assert grid["columns"] == ["druid|v2|supports", "druid|v2|refutes"]
        assert grid["cells"]["Jaccard similarity"]["druid|v2|supports"]["n"] == 10

    def test_schema(self):
        grid = an.correlation_grid(build_grid_samples())
        assert grid["rows"] == list(an.GRID_CHARACTERISTICS)
        assert len(grid["rows"]) == 17
        # datasets alphabetical; stances in declaration order within each
        assert grid["columns"] == [
            "counterfact|supports",
            "counterfact|refutes",
            "druid|supports",
            "druid|refutes",
        ]
        assert set(grid["cells"]) == set(grid["rows"])
        for row in grid["rows"]:
            assert set(grid["cells"][row]) == set(grid["columns"])

    def test_populated_cell_shape(self):
        grid = an.correlation_grid(build_grid_samples())
        cell = grid["cells"]["Jaccard similarity"]["druid|supports"]
        assert set(cell) >= {"rho", "p_value", "n", "significant"}
        assert -1.0 <= cell["rho"] <= 1.0
        assert cell["n"] == 5

    def test_sparse_and_degenerate_cells_absent(self):
        samples = build_grid_samples()
        # a third dataset with only two samples: below the n >= 3 floor
        samples += [
            an.GridSample("tiny", StanceLabel.SUPPORTS, 0.5, grid_vector(0, 0.5)),
            an.GridSample("tiny", StanceLabel.SUPPORTS, 0.1, grid_vector(1, 0.7)),
        ]
        grid = an.correlation_grid(samples)
        assert "tiny|supports" in grid["columns"]
        assert grid["cells"]["Jaccard similarity"]["tiny|supports"] is None
        # flesch is constant everywhere: degenerate, absent in all columns
        assert all(
            grid["cells"]["Flesch reading ease score"][col] is None
            for col in grid["columns"]
        )

    def test_detector_none_values_excluded(self):
        grid = an.correlation_grid(build_grid_samples())
        # perplexity was never supplied: no pairs at all
        assert all(
            grid["cells"]["Perplexity"][col] is None for col in grid["columns"]
        )

    def test_csv_rendering(self):
        grid = an.correlation_grid(build_grid_samples())
        text = an.grid_to_csv(grid)
        lines = text.splitlines()
        assert lines[0] == "characteristic," + ",".join(grid["columns"])
        assert len(lines) == 1 + 17
        first = lines[1].split(",")
        assert first[0] == "Jaccard similarity"
        # cells are 3-decimal rho values, a trailing * when significant
        for value in first[1:]:
            if value:
                stripped = value.rstrip("*")
                assert -1.0 <= float(stripped) <= 1.0

    def test_significance_flag_matches_p(self):
        grid = an.correlation_grid(build_grid_samples())
        for row in grid["rows"]:
            for column in grid["columns"]:
                cell = grid["cells"][row][column]
                if cell is not None:
                    assert cell["significant"] == (
                        cell["p_value"] < an.SIGNIFICANCE_LEVEL
                    )

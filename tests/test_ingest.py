"""Corpus loading, verdict mapping, triplet recasting."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contextmeter import ingest as ing
from contextmeter.errors import InvariantViolation, MalformedTriplet, ParseError
from contextmeter.model import ClaimVerdict, Relevance, StanceLabel


def write_lines(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def claim_row(**kwargs):
    row = {
        "id": "c1",
        "text": "Some claim.",
        "claimant": None,
        "source": "politifact",
        "claim_date": None,
        "verdict": "True",
        "raw_verdict": "True",
    }
    row.update(kwargs)
    return row


class TestVerdictMapping:
    def test_known_labels(self):
        table = ing.verdict_table()
        assert table.get("MISLEADING") is ClaimVerdict.FALSE
        assert table.get("Half True") is ClaimVerdict.HALF_TRUE
        assert table.get("TRUE") is ClaimVerdict.TRUE
        assert table.get("Correct") is ClaimVerdict.TRUE
        assert table.get("Incorrect, Flawed_Reasoning") is ClaimVerdict.FALSE

    def test_unmapped_labels_drop(self):
        table = ing.verdict_table()
        assert table.get("Pants on Fire!") is None
        assert table.get("") is None


class TestLoadDruid:
    def test_fixture_statistics(self, druid_fixture_paths):
        corpus = ing.load_druid(*druid_fixture_paths)
        assert corpus.totals() == (5, 12)
        assert corpus.per_source_counts() == {
            "politifact": (2, 5),
            "checkyourfact": (2, 4),
            "borderlines": (1, 3),
        }
        assert corpus.stance_histogram() == {
            "supports": 3,
            "refutes": 3,
            "insufficient-neutral": 1,
            "insufficient-refutes": 1,
            "insufficient-supports": 1,
            "insufficient-contradictory": 1,
        }
        assert corpus.relevance_histogram() == {"relevant": 10, "not-relevant": 2}
        assert corpus.inter_context_conflicts() == 2
        assert corpus.dropped_claims == 0
        assert [e.id for e in corpus.evidence if e.claim_id == "c-pf-001"] == [
            "e-pf-001a",
            "e-pf-001b",
            "e-pf-001c",
        ]

    def test_annotator_labels_survive(self, druid_fixture_paths):
        corpus = ing.load_druid(*druid_fixture_paths)
        by_id = {e.id: e for e in corpus.evidence}
        assert by_id["e-pf-002a"].annotator_labels != ()

    def test_duplicate_claim_id(self, tmp_path):
        claims = tmp_path / "claims.jsonl"
        evidence = tmp_path / "evidence.jsonl"
        write_lines(claims, [claim_row(), claim_row()])
        evidence.write_text("")
        with pytest.raises(ParseError) as exc_info:
            ing.load_druid(claims, evidence)
        assert "duplicate claim id" in str(exc_info.value)
        assert exc_info.value.line_no == 2

    def test_duplicate_evidence_id(self, tmp_path):
        claims = tmp_path / "claims.jsonl"
        evidence = tmp_path / "evidence.jsonl"
        write_lines(claims, [claim_row()])
        row = {"id": "e1", "claim_id": "c1", "text": "t", "url": "https://x.example"}
        write_lines(evidence, [row, row])
        with pytest.raises(ParseError) as exc_info:
            ing.load_druid(claims, evidence)
        assert "duplicate evidence id" in str(exc_info.value)

    def test_dangling_evidence_rejected(self, tmp_path):
        claims = tmp_path / "claims.jsonl"
        evidence = tmp_path / "evidence.jsonl"
        write_lines(claims, [claim_row()])
        write_lines(
            evidence,
            [{"id": "e1", "claim_id": "ghost", "text": "t", "url": "https://x.example"}],
        )
        with pytest.raises(ParseError) as exc_info:
            ing.load_druid(claims, evidence)
        assert "unknown claim" in str(exc_info.value)

    def test_raw_verdict_mapped(self, tmp_path):
        claims = tmp_path / "claims.jsonl"
        evidence = tmp_path / "evidence.jsonl"
        row = claim_row(raw_verdict="MISLEADING")
        del row["verdict"]
        write_lines(claims, [row])
        evidence.write_text("")
        corpus = ing.load_druid(claims, evidence)
        claim = corpus.claims["c1"]
        assert claim.verdict is ClaimVerdict.FALSE
        assert claim.raw_verdict == "MISLEADING"

    def test_unmapped_raw_verdict_drops_claim_and_evidence(self, tmp_path):
        claims = tmp_path / "claims.jsonl"
        evidence = tmp_path / "evidence.jsonl"
        row = claim_row(raw_verdict="Pants on Fire!")
        del row["verdict"]
        # A label that is not a string has no mapping either, whatever its id.
        not_a_label = {**row, "id": ["c2"], "raw_verdict": ["MISLEADING"]}
        write_lines(claims, [row, not_a_label])
        write_lines(
            evidence,
            [{"id": "e1", "claim_id": "c1", "text": "t", "url": "https://x.example"}],
        )
        corpus = ing.load_druid(claims, evidence)
        assert corpus.totals() == (0, 0)
        assert corpus.dropped_claims == 2

    def test_empty_files(self, tmp_path):
        claims = tmp_path / "claims.jsonl"
        evidence = tmp_path / "evidence.jsonl"
        claims.write_text("")
        evidence.write_text("")
        assert ing.load_druid(claims, evidence).totals() == (0, 0)

    def test_field_map_translates_upstream_names(self, tmp_path):
        claims = tmp_path / "claims.jsonl"
        evidence = tmp_path / "evidence.jsonl"
        upstream = {
            "id": "c1",
            "claim": "Renamed text field.",
            "claimant": None,
            "source": "politifact",
            "claim_date": None,
            "verdict": "True",
            "raw_verdict": "True",
        }
        write_lines(claims, [upstream])
        evidence.write_text("")
        corpus = ing.load_druid(
            claims, evidence, field_map={"claims": {"text": "claim"}}
        )
        assert corpus.claims["c1"].text == "Renamed text field."

    def test_pub_after_claim_inconsistency_rejected(self, tmp_path):
        claims = tmp_path / "claims.jsonl"
        evidence = tmp_path / "evidence.jsonl"
        write_lines(claims, [claim_row(claim_date="2022-01-01")])
        write_lines(
            evidence,
            [
                {
                    "id": "e1",
                    "claim_id": "c1",
                    "text": "t",
                    "url": "https://x.example",
                    "pub_date": "2021-01-01",
                    "pub_after_claim": True,
                }
            ],
        )
        with pytest.raises(ParseError) as exc_info:
            ing.load_druid(claims, evidence)
        assert str(exc_info.value) == (
            f"{evidence}:1: pub_after_claim: flag True inconsistent with dates 2021-01-01 vs 2022-01-01"
        )


EDIT = {"subject": "Ann", "relation": "works for", "object_true": "A", "object_edited": "B"}
MEMORY = {"memory_answer": "An answer.", "parametric_evidence": "For.", "counter_evidence": "Against."}


def load_one_triplet(tmp_path, dataset, row):
    path = tmp_path / "triplets.jsonl"
    write_lines(path, [row])
    return ing.load_triplets(path, dataset=dataset)


class TestRecastCounterfact:
    def _record(self, **kwargs):
        fields = dict(
            subject="Geoffrey Hinton",
            relation="works for",
            object_true="Google",
            object_edited="BBC",
        )
        fields.update(kwargs)
        return fields

    def test_claim_construction(self):
        claim, evidences = ing.recast_counterfact(**self._record())
        assert claim.text == "Geoffrey Hinton works for BBC."
        assert claim.verdict is ClaimVerdict.FALSE
        assert claim.source == "counterfact"
        assert len(evidences) == 2

    def test_one_supports_one_refutes(self):
        _, evidences = ing.recast_counterfact(**self._record())
        assert [e.stance for e in evidences] == [
            StanceLabel.SUPPORTS,
            StanceLabel.REFUTES,
        ]
        assert all(e.relevance is Relevance.RELEVANT for e in evidences)

    def test_supporting_evidence_repeats_claim(self):
        claim, evidences = ing.recast_counterfact(**self._record())
        assert evidences[0].text == claim.text
        # the refuting piece names the true object instead
        assert "Google" in evidences[1].text
        assert "BBC" not in evidences[1].text

    def test_deterministic_ids(self):
        first_claim, first_ev = ing.recast_counterfact(**self._record())
        second_claim, second_ev = ing.recast_counterfact(**self._record())
        assert first_claim.id == second_claim.id
        assert [e.id for e in first_ev] == [e.id for e in second_ev]

    def test_empty_field_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r":1: field 'subject' is missing or empty$"):
            load_one_triplet(tmp_path, "counterfact", self._record(subject=""))

    def test_degenerate_edit_rejected(self):
        with pytest.raises(MalformedTriplet):
            ing.recast_counterfact(**self._record(object_edited="Google"))

    @given(
        subject=st.text(alphabet="abcXYZ ", min_size=1, max_size=12).filter(str.strip),
        relation=st.text(alphabet="abc ", min_size=1, max_size=8).filter(str.strip),
        obj=st.text(alphabet="mnop", min_size=1, max_size=6),
        edited=st.text(alphabet="qrst", min_size=1, max_size=6),
    )
    def test_always_one_supports_one_refutes(self, subject, relation, obj, edited):
        claim, evidences = ing.recast_counterfact(
            subject=subject, relation=relation, object_true=obj, object_edited=edited,
        )
        assert claim.verdict is ClaimVerdict.FALSE
        stances = sorted(e.stance.value for e in evidences)
        assert stances == ["refutes", "supports"]


class TestRecastConflictqa:
    def _record(self, **kwargs):
        fields = dict(
            memory_answer="George Rankin is a politician.",
            parametric_evidence="Rankin served in parliament for years.",
            counter_evidence="George Rankin was a military officer.",
        )
        fields.update(kwargs)
        return fields

    def test_claim_is_memory_answer(self):
        claim, evidences = ing.recast_conflictqa(**self._record())
        assert claim.text == "George Rankin is a politician."
        assert claim.verdict is ClaimVerdict.TRUE
        assert claim.source == "conflictqa"
        assert [e.stance for e in evidences] == [
            StanceLabel.SUPPORTS,
            StanceLabel.REFUTES,
        ]

    def test_missing_counter_evidence_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r":1: field 'counter_evidence' is missing or empty$"):
            load_one_triplet(tmp_path, "conflictqa", self._record(counter_evidence=None))

    def test_empty_shape_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r":1: field 'memory_answer' is missing or empty$"):
            load_one_triplet(tmp_path, "conflictqa", {})


class TestLoadTriplets:
    def test_each_record_yields_two_evidence_pieces(self, tmp_path):
        path = tmp_path / "cf.jsonl"
        rows = [
            {
                "subject": f"Person {i}",
                "relation": "works for",
                "object_true": "Google",
                "object_edited": "BBC",
            }
            for i in range(5)
        ]
        write_lines(path, rows)
        corpus = ing.load_triplets(path, dataset="counterfact")
        assert corpus.totals() == (5, 10)

    def test_field_map(self, tmp_path):
        path = tmp_path / "cf.jsonl"
        write_lines(
            path,
            [{"subj": "A B", "rel": "points at", "t_true": "x", "t_new": "y"}],
        )
        corpus = ing.load_triplets(
            path,
            dataset="counterfact",
            field_map={
                "subject": "subj",
                "relation": "rel",
                "object_true": "t_true",
                "object_edited": "t_new",
            },
        )
        claim = next(iter(corpus.claims.values()))
        assert claim.text == "A B points at y."

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = tmp_path / "cf.jsonl"
        write_lines(
            path,
            [
                {
                    "subject": "ok",
                    "relation": "works for",
                    "object_true": "a",
                    "object_edited": "b",
                },
                {"subject": "bad"},
            ],
        )
        with pytest.raises(ParseError) as exc_info:
            ing.load_triplets(path, dataset="counterfact")
        assert exc_info.value.line_no == 2

    @pytest.mark.parametrize(
        "dataset, row, expected",
        [
            (
                "counterfact",
                {
                    "subject": " Geoffrey Hinton", "relation": "works for ",
                    "object_true": "Google ", "object_edited": " BBC",
                },
                [
                    ("14e7ad4aa2faef7c", "Geoffrey Hinton works for   BBC."),
                    ("6f82f322b4fe92c0", "Geoffrey Hinton works for   BBC."),
                    ("133d844450bb937c", "Geoffrey Hinton works for  Google."),
                ],
            ),
            (
                "conflictqa",
                {
                    "memory_answer": " George Rankin is a politician. ",
                    "parametric_evidence": "Rankin served in parliament.\n",
                    "counter_evidence": "  George Rankin was a soldier.",
                },
                [
                    ("11b89471b7f8c5cf", "George Rankin is a politician."),
                    ("14aebb89742b45a3", "Rankin served in parliament."),
                    ("a8f1649b3a0cbe56", "George Rankin was a soldier."),
                ],
            ),
        ],
    )
    def test_ids_and_texts_are_pinned(self, tmp_path, dataset, row, expected):
        # Computed before the two recasters shared one builder: counterfact
        # ids come from the raw fields, conflictqa evidence ids from the
        # unstripped texts.
        corpus = load_one_triplet(tmp_path, dataset, row)
        records = [*corpus.claims.values(), *corpus.evidence]
        assert [(record.id, record.text) for record in records] == expected

    def test_other_dataset_fields_are_ignored(self, tmp_path):
        row = {**EDIT, **MEMORY}
        counterfact = load_one_triplet(tmp_path, "counterfact", row)
        conflictqa = load_one_triplet(tmp_path, "conflictqa", row)
        assert [claim.text for claim in counterfact.claims.values()] == ["Ann works for B."]
        assert [claim.text for claim in conflictqa.claims.values()] == ["An answer."]

    @pytest.mark.parametrize(
        "dataset, row, message",
        [
            ("counterfact", [1, 2], "not a JSON object: [1, 2]"),
            ("counterfact", {**EDIT, "object_true": 5}, "object_true: expected a string, got int"),
            ("conflictqa", {**MEMORY, "counter_evidence": ["x"]}, "counter_evidence: expected a string, got list"),
            ("conflictqa", {**MEMORY, "parametric_evidence": " "}, "field 'parametric_evidence' is missing or empty"),
        ],
    )
    def test_row_must_be_an_object_of_non_blank_strings(self, tmp_path, dataset, row, message):
        with pytest.raises(ParseError) as exc_info:
            load_one_triplet(tmp_path, dataset, row)
        assert str(exc_info.value) == f"{tmp_path / 'triplets.jsonl'}:1: {message}"

    def test_repeated_claim_keeps_every_distinct_piece(self, tmp_path):
        # Both rows recast to one claim id (conflictqa derives it from the
        # memory answer alone); the second row's evidence is new, the third
        # row repeats the second.
        path = tmp_path / "qa.jsonl"
        other = {**MEMORY, "parametric_evidence": "Other support.", "counter_evidence": "Other refutation."}
        write_lines(path, [MEMORY, other, other])
        corpus = ing.load_triplets(path, dataset="conflictqa")
        assert corpus.totals() == (1, 4)
        texts = [(piece.stance, piece.text) for piece in corpus.evidence]
        assert texts == [
            (StanceLabel.SUPPORTS, MEMORY["parametric_evidence"].strip()),
            (StanceLabel.REFUTES, MEMORY["counter_evidence"].strip()),
            (StanceLabel.SUPPORTS, "Other support."),
            (StanceLabel.REFUTES, "Other refutation."),
        ]
        assert corpus.inter_context_conflicts() == 1

    def test_unknown_dataset_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("")
        with pytest.raises(InvariantViolation):
            ing.load_triplets(path, dataset="trivia")

    def test_evidence_count_is_twice_claims(self):
        # the published recast arithmetic: every kept record contributes
        # exactly two context pieces
        assert 2 * 8023 == 16046


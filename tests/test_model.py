"""Invariants and canonical serialization of the core record types."""

import json
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contextmeter.errors import (
    InvariantViolation,
    ParseError,
    ZeroMass,
)
from contextmeter.ingest import load_druid
from contextmeter.model import (
    CANONICAL_LABELS,
    CharacteristicVector,
    ClaimRecord,
    ClaimVerdict,
    EvidencePiece,
    PromptMode,
    Relevance,
    Reliability,
    ScoredSample,
    StanceLabel,
    VerdictLabel,
    VerdictProbabilities,
    canonical_json,
    encode_line,
    _host_in,
    fallback_id,
    in_domains,
    read_json,
    read_jsonl,
    word_count,
    write_jsonl,
)

from conftest import make_claim, make_evidence


class TestStanceVocabulary:
    def test_exactly_six_stances(self):
        assert len(StanceLabel) == 6

    def test_values(self):
        assert {s.value for s in StanceLabel} == {
            "supports",
            "insufficient-supports",
            "insufficient-neutral",
            "insufficient-contradictory",
            "insufficient-refutes",
            "refutes",
        }

    def test_closed(self):
        with pytest.raises(ValueError):
            StanceLabel("sideways")

    def test_canonical_label_order(self):
        assert CANONICAL_LABELS == (
            VerdictLabel.TRUE,
            VerdictLabel.NONE,
            VerdictLabel.FALSE,
        )


class TestClaimRecord:
    def test_empty_id_rejected(self):
        with pytest.raises(InvariantViolation):
            make_claim(id="")

    def test_empty_text_rejected(self):
        with pytest.raises(InvariantViolation):
            make_claim(text="")

    def test_empty_source_rejected(self):
        with pytest.raises(InvariantViolation):
            make_claim(source="")

    def test_unmapped_verdict_rejected(self):
        with pytest.raises(InvariantViolation):
            ClaimRecord.from_dict(
                {
                    "id": "c1",
                    "text": "x",
                    "claimant": None,
                    "source": "politifact",
                    "claim_date": None,
                    "verdict": "Pants on Fire!",
                    "raw_verdict": "Pants on Fire!",
                }
            )

    def test_bad_date_rejected(self):
        with pytest.raises(InvariantViolation):
            ClaimRecord.from_dict(
                {
                    "id": "c1",
                    "text": "x",
                    "claimant": None,
                    "source": "politifact",
                    "claim_date": "last tuesday",
                    "verdict": "True",
                    "raw_verdict": "True",
                }
            )

    def test_round_trip(self):
        claim = make_claim(claim_date=date(2021, 3, 4))
        assert ClaimRecord.from_dict(claim.to_dict()) == claim

    def test_none_date_round_trip(self):
        claim = make_claim(claim_date=None, claimant=None)
        assert ClaimRecord.from_dict(claim.to_dict()) == claim


class TestEvidencePiece:
    def test_stance_requires_relevant(self):
        with pytest.raises(InvariantViolation):
            make_evidence(stance=StanceLabel.SUPPORTS, relevance=None)
        with pytest.raises(InvariantViolation):
            make_evidence(
                stance=StanceLabel.SUPPORTS, relevance=Relevance.NOT_RELEVANT
            )

    def test_not_relevant_without_stance_ok(self):
        piece = make_evidence(stance=None, relevance=Relevance.NOT_RELEVANT)
        assert piece.stance is None

    def test_empty_text_rejected(self):
        with pytest.raises(InvariantViolation):
            make_evidence(text="")

    def test_round_trip_with_annotator_labels(self):
        piece = make_evidence(
            pub_date=date(2020, 6, 1),
            pub_after_claim=False,
            annotator_labels=(
                (Relevance.RELEVANT, StanceLabel.SUPPORTS),
                (Relevance.NOT_RELEVANT, None),
            ),
        )
        assert EvidencePiece.from_dict(piece.to_dict()) == piece

    def test_unknown_stance_value_rejected(self):
        data = make_evidence().to_dict()
        data["stance"] = "mostly-agrees"
        with pytest.raises(InvariantViolation):
            EvidencePiece.from_dict(data)


class TestFixtureRoundTrip:
    """Decoding a canonical line and re-encoding must be byte-identical."""

    def test_claims_lines(self, druid_fixture_paths):
        claims_path, _ = druid_fixture_paths
        for line in claims_path.read_text(encoding="utf-8").splitlines():
            if not line or json.loads(line).get("kind") == "header":
                continue
            record = ClaimRecord.from_dict(json.loads(line))
            assert encode_line(record) == line

    def test_evidence_lines(self, druid_fixture_paths):
        _, evidence_path = druid_fixture_paths
        for line in evidence_path.read_text(encoding="utf-8").splitlines():
            if not line or json.loads(line).get("kind") == "header":
                continue
            record = EvidencePiece.from_dict(json.loads(line))
            assert encode_line(record) == line


class TestVerdictProbabilities:
    def test_sum_must_be_one(self):
        with pytest.raises(InvariantViolation):
            VerdictProbabilities(0.5, 0.5, 0.5, PromptMode.CLAIM_ONLY)

    def test_range_enforced(self):
        with pytest.raises(InvariantViolation):
            VerdictProbabilities(1.2, -0.1, -0.1, PromptMode.CLAIM_ONLY)

    def test_from_weights_renormalizes(self):
        probs = VerdictProbabilities.from_weights(
            {
                VerdictLabel.TRUE: 0.2,
                VerdictLabel.FALSE: 0.6,
                VerdictLabel.NONE: 0.1,
            },
            PromptMode.CLAIM_EVIDENCE,
        )
        assert probs.p_true == pytest.approx(0.2 / 0.9)
        assert probs.p_none == pytest.approx(0.1 / 0.9)
        assert probs.p_false == pytest.approx(0.6 / 0.9)

    def test_from_weights_zero_mass(self):
        with pytest.raises(ZeroMass):
            VerdictProbabilities.from_weights({}, PromptMode.CLAIM_ONLY)

    def test_positional_fields_follow_canonical_order(self):
        probs = VerdictProbabilities(0.5, 0.3, 0.2, PromptMode.CLAIM_ONLY)
        assert (probs.p_true, probs.p_none, probs.p_false) == (0.5, 0.3, 0.2)


class TestScoredSample:
    def _probs(self, mode):
        return VerdictProbabilities(0.5, 0.3, 0.2, mode)

    def test_delta_p_bounds_enforced(self):
        with pytest.raises(InvariantViolation):
            ScoredSample(
                claim_id="c",
                evidence_id="e",
                probs_without=self._probs(PromptMode.CLAIM_ONLY),
                probs_with=self._probs(PromptMode.CLAIM_EVIDENCE),
                delta_p=(1.5, 0.0, 0.0),
                acu=0.0,
                model_id="m",
                prompt_id="p",
            )

    def test_acu_bounds_enforced(self):
        with pytest.raises(InvariantViolation):
            ScoredSample(
                claim_id="c",
                evidence_id="e",
                probs_without=self._probs(PromptMode.CLAIM_ONLY),
                probs_with=self._probs(PromptMode.CLAIM_EVIDENCE),
                delta_p=(0.0, 0.0, 0.0),
                acu=3.5,
                model_id="m",
                prompt_id="p",
            )

    def test_round_trip(self):
        sample = ScoredSample(
            claim_id="c",
            evidence_id="e",
            probs_without=self._probs(PromptMode.CLAIM_ONLY),
            probs_with=self._probs(PromptMode.CLAIM_EVIDENCE),
            delta_p=(0.1, -0.2, 0.05),
            acu=0.35,
            model_id="m",
            prompt_id="p",
        )
        assert ScoredSample.from_dict(json.loads(encode_line(sample))) == sample


class TestValidateSample:
    """``load_druid`` checks each evidence row's ``pub_after_claim`` flag
    against the evidence and claim dates."""

    def load(self, tmp_path, claim, piece):
        claims_path, evidence_path = tmp_path / "claims.jsonl", tmp_path / "evidence.jsonl"
        write_jsonl(claims_path, [claim])
        write_jsonl(evidence_path, [piece])
        return load_druid(claims_path, evidence_path)

    def test_pub_after_claim_consistency(self, tmp_path):
        claim = make_claim(claim_date=date(2022, 1, 1))
        piece = make_evidence(pub_date=date(2021, 1, 1), pub_after_claim=True)
        with pytest.raises(ParseError, match=r"evidence\.jsonl:1: pub_after_claim: flag True inconsistent"):
            self.load(tmp_path, claim, piece)

    def test_consistent_pair_passes(self, tmp_path):
        claim = make_claim(claim_date=date(2022, 1, 1))
        piece = make_evidence(pub_date=date(2023, 1, 1), pub_after_claim=True)
        assert self.load(tmp_path, claim, piece).pairs() == [(claim, piece)]

    def test_missing_dates_not_checked(self, tmp_path):
        claim = make_claim(claim_date=None)
        piece = make_evidence(pub_date=None, pub_after_claim=True)
        self.load(tmp_path, claim, piece)


class TestJsonlIO:
    def test_write_read_with_header(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [make_claim(id=f"c{i}") for i in range(3)]
        write_jsonl(path, records, header={"config_hash": "abc"})
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(first) == {"config_hash": "abc", "kind": "header"}
        rows = list(read_jsonl(path))
        assert len(rows) == 3
        assert [obj["id"] for _, obj in rows] == ["c0", "c1", "c2"]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok"}\n{broken\n', encoding="utf-8")
        with pytest.raises(ParseError) as exc_info:
            list(read_jsonl(path))
        assert exc_info.value.line_no == 2
        assert str(path) in str(exc_info.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n', encoding="utf-8")
        assert len(list(read_jsonl(path))) == 2

    def test_lines_end_at_lf_crlf_or_lone_cr(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(b'{"a": 1}\r{"a": 2}\r\n\r{"a": 3}\n{broken\r{"a": 4}')
        rows = []
        with pytest.raises(ParseError) as exc_info:
            rows.extend(read_jsonl(path))
        assert rows == [(1, {"a": 1}), (2, {"a": 2}), (4, {"a": 3})]
        assert exc_info.value.line_no == 5

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_parse_error_at_that_line(self, tmp_path, constant):
        path = tmp_path / "rows.jsonl"
        path.write_text(f'{{"a": 1.5}}\n{{"a": [{constant}]}}\n', encoding="utf-8")
        rows = []
        with pytest.raises(ParseError) as exc_info:
            rows.extend(read_jsonl(path))
        assert rows == [(1, {"a": 1.5})]
        assert str(exc_info.value) == f"{path}:2: {constant} is not a JSON number"

    def test_overflowing_literal_is_parse_error_at_that_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1e308}\n{"a": {"b": -1e999}}\n', encoding="utf-8")
        rows = []
        with pytest.raises(ParseError) as exc_info:
            rows.extend(read_jsonl(path))
        assert rows == [(1, {"a": 1e308})]
        assert str(exc_info.value) == f"{path}:2: -1e999 is not a finite JSON number"

    def test_finite_numbers_keep_their_bytes(self, tmp_path):
        line = canonical_json({"a": 0.1, "b": 1e308, "c": -0.0, "d": 5e-324, "e": -17, "f": 2.5e-7})
        path = tmp_path / "rows.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        [(_, row)] = read_jsonl(path)
        assert canonical_json(row) == line

    def test_non_utf8_line_is_parse_error_at_that_line(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"a": 1}\r{"a": "\xe9"}\n')
        with pytest.raises(ParseError) as exc_info:
            list(read_jsonl(path))
        assert exc_info.value.line_no == 2
        assert "not UTF-8" in str(exc_info.value)


class TestReadJson:
    """``read_json`` reads one document with ``read_jsonl``'s faults, each at its line."""

    def test_document_spans_lines(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1.5,\n  2], "b": null}\n', encoding="utf-8")
        assert read_json(path) == {"a": [1.5, 2], "b": None}

    @pytest.mark.parametrize(
        "content, line_no, message",
        [
            (b'{"a": 1,\n "b": }\n', 2, "Expecting value: line 2 column 7 (char 15)"),
            (b'{"a":\n "\xe9"}', 2, "not UTF-8: invalid continuation byte"),
            (b'{"a":\n [NaN]}', 1, "NaN is not a JSON number"),
            (b'{"a":\n [1e999]}', 1, "1e999 is not a finite JSON number"),
        ],
    )
    def test_fault_is_parse_error_at_its_line(self, tmp_path, content, line_no, message):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(ParseError) as exc_info:
            read_json(path)
        assert str(exc_info.value) == f"{path}:{line_no}: {message}"

    @pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()], ids=["missing", "directory"])
    def test_unopenable_file_is_parse_error_at_line_0(self, tmp_path, make):
        path = tmp_path / "doc.json"
        make(path)
        with pytest.raises(ParseError) as exc_info:
            read_json(path)
        assert exc_info.value.line_no == 0
        assert str(exc_info.value).startswith(f"{path}:0: cannot open: ")


class TestHelpers:
    def test_canonical_json_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_canonical_json_refuses_what_json_cannot_hold(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            canonical_json({"a": [value]})

    def test_fallback_id_deterministic(self):
        assert fallback_id("a", "b") == fallback_id("a", "b")
        assert fallback_id("a", "b") != fallback_id("ab", "")
        assert len(fallback_id("x")) == 16

    def test_word_count(self):
        assert word_count("one  two\tthree\nfour") == 4
        assert word_count("") == 0


# -- record codec --------------------------------------------------------------

NAMES = st.text(min_size=1, max_size=8)
DATES = st.none() | st.dates()
UNIT = st.floats(0.0, 1.0)
OPT_BOOLS = st.none() | st.booleans()
OPT_UNIT = st.none() | UNIT

CLAIMS = st.builds(
    ClaimRecord,
    id=NAMES,
    text=NAMES,
    claimant=st.none() | st.text(max_size=8),
    source=NAMES,
    claim_date=DATES,
    verdict=st.sampled_from(ClaimVerdict),
    raw_verdict=st.text(max_size=8),
)


@st.composite
def evidence_pieces(draw):
    relevance = draw(st.none() | st.sampled_from(Relevance))
    stance = draw(st.none() | st.sampled_from(StanceLabel)) if relevance is Relevance.RELEVANT else None
    return EvidencePiece(
        id=draw(NAMES),
        claim_id=draw(NAMES),
        text=draw(NAMES),
        url=draw(st.text(max_size=8)),
        pub_date=draw(DATES),
        is_fact_check_source=draw(st.booleans()),
        is_gold_source=draw(st.booleans()),
        pub_after_claim=draw(OPT_BOOLS),
        relevance=relevance,
        stance=stance,
        annotator_labels=draw(
            st.lists(
                st.tuples(st.none() | st.sampled_from(Relevance), st.none() | st.sampled_from(StanceLabel)),
                max_size=3,
            ).map(tuple)
        ),
    )


PROBS = st.builds(
    VerdictProbabilities.from_weights,
    st.fixed_dictionaries({label: st.floats(0.01, 1.0) for label in CANONICAL_LABELS}),
    st.sampled_from(PromptMode),
)
SAMPLES = st.builds(
    ScoredSample,
    claim_id=NAMES,
    evidence_id=NAMES,
    probs_without=PROBS,
    probs_with=PROBS,
    delta_p=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    acu=st.floats(-3.0, 3.0),
    model_id=NAMES,
    prompt_id=NAMES,
)
VECTORS = st.builds(
    CharacteristicVector,
    claim_id=NAMES,
    evidence_id=NAMES,
    jaccard=UNIT,
    claim_evidence_overlap=OPT_UNIT,
    repeats_claim=st.booleans(),
    flesch=st.none() | st.floats(-200.0, 200.0),
    claim_len_chars=st.integers(0, 10_000),
    evidence_len_chars=st.integers(0, 10_000),
    perplexity=st.none() | st.floats(0.5, 1e6),
    entity_overlap=OPT_UNIT,
    no_entity_flag=st.booleans(),
    refers_external=OPT_BOOLS,
    hedging=st.booleans(),
    hedging_discourse=st.booleans(),
    unreliable=st.none() | st.sampled_from(Reliability),
    contains_true_word=st.booleans(),
    contains_false_word=st.booleans(),
    pub_after_claim=OPT_BOOLS,
    fact_check_source=st.booleans(),
    gold_source=st.booleans(),
)


class TestRecordCodec:
    @pytest.mark.parametrize(
        "records",
        [CLAIMS, evidence_pieces(), PROBS, SAMPLES, VECTORS],
        ids=["claim", "evidence", "probs", "scored", "vector"],
    )
    @given(data=st.data())
    def test_round_trip_and_stable_line(self, records, data):
        record = data.draw(records)
        cls = type(record)
        assert cls.from_dict(record.to_dict()) == record
        line = encode_line(record)
        decoded = cls.from_dict(json.loads(line))
        assert decoded == record
        assert encode_line(decoded) == line

    MINIMAL = {
        ClaimRecord: {"id": "c", "text": "t", "source": "s", "verdict": "Half-true"},
        EvidencePiece: {"id": "e", "claim_id": "c", "text": "t"},
        CharacteristicVector: {
            "claim_id": "c", "evidence_id": "e", "jaccard": 0.5, "repeats_claim": False,
            "claim_len_chars": 3, "evidence_len_chars": 4,
        },
    }

    @pytest.mark.parametrize(
        "cls,field,expected",
        [
            (ClaimRecord, "claimant", None),
            (ClaimRecord, "claim_date", None),
            (ClaimRecord, "raw_verdict", "Half-true"),
            (EvidencePiece, "url", ""),
            (EvidencePiece, "pub_date", None),
            (EvidencePiece, "is_fact_check_source", False),
            (EvidencePiece, "pub_after_claim", None),
            (EvidencePiece, "relevance", None),
            (EvidencePiece, "stance", None),
            (EvidencePiece, "annotator_labels", ()),
            (CharacteristicVector, "claim_evidence_overlap", None),
            (CharacteristicVector, "flesch", None),
            (CharacteristicVector, "perplexity", None),
            (CharacteristicVector, "entity_overlap", None),
            (CharacteristicVector, "refers_external", None),
            (CharacteristicVector, "unreliable", None),
            (CharacteristicVector, "pub_after_claim", None),
            (CharacteristicVector, "hedging", False),
            (CharacteristicVector, "gold_source", False),
        ],
    )
    def test_missing_key_default(self, cls, field, expected):
        assert getattr(cls.from_dict(self.MINIMAL[cls]), field) == expected

    def test_bool_fields_coerced(self):
        piece = EvidencePiece.from_dict({**self.MINIMAL[EvidencePiece], "is_gold_source": 1})
        assert piece.is_gold_source is True

    @pytest.mark.parametrize(
        "cls,field,value,message",
        [
            (EvidencePiece, "is_gold_source", "false", "expected a boolean, got str"),
            (EvidencePiece, "is_fact_check_source", 2, "expected a boolean, got int"),
            (EvidencePiece, "pub_after_claim", 1.0, "expected a boolean, got float"),
            (CharacteristicVector, "repeats_claim", "false", "expected a boolean, got str"),
            (CharacteristicVector, "hedging", "false", "expected a boolean, got str"),
            (CharacteristicVector, "claim_len_chars", "40", "expected an integer, got str"),
            (CharacteristicVector, "claim_len_chars", True, "expected an integer, got bool"),
            (CharacteristicVector, "claim_len_chars", 40.0, "expected an integer, got float"),
            (CharacteristicVector, "jaccard", True, "expected a number, got bool"),
            (CharacteristicVector, "flesch", "50", "expected a number, got str"),
            (EvidencePiece, "url", None, "expected a string, got NoneType"),
            (EvidencePiece, "annotator_labels", "ab", "expected a list, got str"),
            (EvidencePiece, "annotator_labels", [["relevant"]], "expected 2 entries, got 1"),
        ],
    )
    def test_value_of_the_wrong_json_type_rejected(self, cls, field, value, message):
        with pytest.raises(InvariantViolation) as exc_info:
            cls.from_dict({**self.MINIMAL[cls], field: value})
        assert exc_info.value.field == field
        assert str(exc_info.value) == f"{field}: {message}"

    def test_bool_fields_take_json_booleans_and_zero(self):
        row = {**self.MINIMAL[CharacteristicVector], "hedging": True, "gold_source": 0}
        vector = CharacteristicVector.from_dict(row)
        assert vector.hedging is True and vector.gold_source is False

    def test_float_field_keeps_an_integer(self):
        row = {**self.MINIMAL[CharacteristicVector], "jaccard": 1, "flesch": -3}
        vector = CharacteristicVector.from_dict(row)
        assert vector.jaccard == 1 and vector.flesch == -3

    @pytest.mark.parametrize("delta_p", ["abc", [0.1, 0.2], [0.1, "0.2", 0.3], {"a": 1}])
    def test_tuple_field_takes_a_list_of_its_entries(self, delta_p):
        probs = {"p_true": 0.5, "p_none": 0.25, "p_false": 0.25, "mode": "claim-only"}
        row = {
            "claim_id": "c", "evidence_id": "e", "probs_without": probs,
            "probs_with": {**probs, "mode": "claim+evidence"}, "delta_p": delta_p,
            "acu": 0.0, "model_id": "m", "prompt_id": "p",
        }
        with pytest.raises(InvariantViolation) as exc_info:
            ScoredSample.from_dict(row)
        assert exc_info.value.field == "delta_p"

    @pytest.mark.parametrize("cls", [ClaimRecord, EvidencePiece, CharacteristicVector])
    def test_missing_required_key_names_field(self, cls):
        row = dict(self.MINIMAL[cls])
        field = next(iter(row))
        del row[field]
        with pytest.raises(InvariantViolation) as exc_info:
            cls.from_dict(row)
        assert exc_info.value.field == field

    def test_bad_mode_rejected(self):
        row = {"p_true": 0.5, "p_none": 0.25, "p_false": 0.25, "mode": "claim+context"}
        with pytest.raises(InvariantViolation) as exc_info:
            VerdictProbabilities.from_dict(row)
        assert exc_info.value.field == "mode"

    def test_bad_unreliable_rejected(self):
        row = {**self.MINIMAL[CharacteristicVector], "unreliable": "dubious"}
        with pytest.raises(InvariantViolation) as exc_info:
            CharacteristicVector.from_dict(row)
        assert exc_info.value.field == "unreliable"

    def test_bad_annotator_pair_rejected(self):
        row = {**self.MINIMAL[EvidencePiece], "annotator_labels": [["relevant"]]}
        with pytest.raises(InvariantViolation) as exc_info:
            EvidencePiece.from_dict(row)
        assert exc_info.value.field == "annotator_labels"

    def test_non_object_row_rejected(self):
        with pytest.raises(InvariantViolation):
            ClaimRecord.from_dict(["id", "verdict"])

    #: Every Enum-typed field: (record type, field, the row value holding a label, its Enum).
    ENUM_FIELDS = [
        (ClaimRecord, "verdict", lambda label: label, ClaimVerdict),
        (EvidencePiece, "relevance", lambda label: label, Relevance),
        (EvidencePiece, "stance", lambda label: label, StanceLabel),
        (EvidencePiece, "annotator_labels", lambda label: [[label, None]], Relevance),
        (EvidencePiece, "annotator_labels", lambda label: [["relevant", label]], StanceLabel),
        (CharacteristicVector, "unreliable", lambda label: label, Reliability),
        (VerdictProbabilities, "mode", lambda label: label, PromptMode),
    ]
    ENUM_ROWS = {
        **MINIMAL,
        EvidencePiece: {**MINIMAL[EvidencePiece], "relevance": "relevant"},
        VerdictProbabilities: {"p_true": 0.5, "p_none": 0.25, "p_false": 0.25},
    }

    @pytest.mark.parametrize("bad,shown", [("x", "'x'"), (["relevant"], "['relevant']"), (3, "3")])
    @pytest.mark.parametrize("cls,field,hold,enum", ENUM_FIELDS)
    def test_enum_field_error_names_the_value_and_the_enum(self, cls, field, hold, enum, bad, shown):
        with pytest.raises(InvariantViolation) as exc_info:
            cls.from_dict({**self.ENUM_ROWS[cls], field: hold(bad)})
        assert exc_info.value.field == field
        assert str(exc_info.value) == f"{field}: {shown} is not a valid {enum.__name__}"

    @pytest.mark.parametrize("cls,field,hold,enum", ENUM_FIELDS)
    def test_enum_field_decodes_each_value_to_its_member(self, cls, field, hold, enum):
        for member in enum:
            value = getattr(cls.from_dict({**self.ENUM_ROWS[cls], field: hold(member.value)}), field)
            labels = value[0] if field == "annotator_labels" else (value,)
            assert any(label is member for label in labels)


class TestReadJsonlMissingFile:
    def test_unopenable_file_is_parse_error(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        with pytest.raises(ParseError) as exc_info:
            list(read_jsonl(path))
        assert exc_info.value.line_no == 0
        assert str(path) in str(exc_info.value)


def linear_host_in(host, domains):
    """The per-domain rule that the suffix lookup replaced, kept as the reference."""
    return any(host == domain or host.endswith("." + domain) for domain in domains)


class UniterableDomains(frozenset):
    def __iter__(self):
        raise AssertionError("the lookup iterated the domain list")


#: Labels in either case and empty ones, which make leading, trailing and doubled dots.
LABELS = st.sampled_from(["a", "b", "co", "uk", "example", "Example", "CO", ""])
HOST_NAMES = st.lists(LABELS, min_size=1, max_size=4).map(".".join)


class TestDomainLookup:
    @given(host=HOST_NAMES, domains=st.lists(HOST_NAMES, max_size=6))
    def test_suffix_lookup_matches_the_linear_rule(self, host, domains):
        assert _host_in(host, frozenset(domains)) is linear_host_in(host, domains)
        assert _host_in(host, dict.fromkeys(domains, "flag")) is linear_host_in(host, domains)

    @pytest.mark.parametrize(
        "host, expected",
        [("news.bbc.co.uk", True), ("bbc.co.uk", True), ("notbbc.co.uk", False), ("co.uk", False), ("", False)],
    )
    def test_lookup_does_not_walk_the_list(self, host, expected):
        domains = UniterableDomains({"bbc.co.uk", "example.org"})
        assert _host_in(host, domains) is expected
        assert in_domains(f"https://{host}/a", domains) is expected

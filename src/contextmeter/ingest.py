"""Corpus loading, verdict mapping, triplet recasting.

Three corpus families are handled:

* fact-checked claims with retrieved evidence, in the core JSON Lines
  format (optionally translated from upstream field names);
* knowledge-edit triplets recast into a false claim plus one supporting and
  one refuting evidence piece;
* memory-vs-counter-memory triplets recast into a claim aligned with the
  model's parametric answer plus one supporting and one refuting evidence
  piece.

Fact-checked corpora are read as released: claims are not resampled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from importlib import resources

from .errors import InvariantViolation, MalformedTriplet, ParseError
from .metrics import count_inter_context_conflicts
from .model import (
    ClaimRecord,
    ClaimVerdict,
    EvidencePiece,
    Relevance,
    StanceLabel,
    fallback_id,
    read_jsonl,
    validate_sample,
)

class VerdictMappingTable:
    """Raw fact-checker verdict labels mapped to {True, Half-true, False}.

    Labels absent from the table mean "drop the claim", per the mapping
    table's caption.
    """

    def __init__(self, mapping: dict[str, ClaimVerdict]):
        self.mapping = dict(mapping)

    @classmethod
    def default(cls) -> "VerdictMappingTable":
        path = resources.files("contextmeter") / "data" / "verdict_mapping.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        return cls({label: ClaimVerdict(target) for label, target in raw.items()})

    def map_verdict(self, raw_label: Any) -> Optional[ClaimVerdict]:
        """Mapped verdict, or None as the drop marker."""
        return self.mapping.get(raw_label) if isinstance(raw_label, str) else None


@dataclass
class Corpus:
    """Loaded claims plus evidence, with the headline statistics on tap."""

    claims: dict[str, ClaimRecord]
    evidence: list[EvidencePiece]
    dropped_claims: int = 0

    def pairs(self) -> list[tuple[ClaimRecord, EvidencePiece]]:
        """Each evidence piece with its claim, in evidence order."""
        return [(self.claims[piece.claim_id], piece) for piece in self.evidence]

    def per_source_counts(self) -> dict[str, tuple[int, int]]:
        """source -> (claims, evidence samples)."""
        by_claim: dict[str, int] = {}
        for piece in self.evidence:
            by_claim[piece.claim_id] = by_claim.get(piece.claim_id, 0) + 1
        counts: dict[str, tuple[int, int]] = {}
        for claim in self.claims.values():
            n_claims, n_samples = counts.get(claim.source, (0, 0))
            counts[claim.source] = (n_claims + 1, n_samples + by_claim.get(claim.id, 0))
        return counts

    def totals(self) -> tuple[int, int]:
        return (len(self.claims), len(self.evidence))

    def stance_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for piece in self.evidence:
            if piece.stance is not None:
                histogram[piece.stance.value] = histogram.get(piece.stance.value, 0) + 1
        return histogram

    def relevance_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for piece in self.evidence:
            if piece.relevance is not None:
                histogram[piece.relevance.value] = (
                    histogram.get(piece.relevance.value, 0) + 1
                )
        return histogram

    def inter_context_conflicts(self) -> int:
        return count_inter_context_conflicts(self.claims.values(), self.evidence)


def _translate(row: Any, field_map: Optional[dict[str, str]]) -> Any:
    if not field_map or not isinstance(row, dict):
        return row
    translated = dict(row)
    for ours, theirs in field_map.items():
        if theirs in row:
            translated[ours] = row[theirs]
    return translated


def load_druid(
    claims_path: Path,
    evidence_path: Optional[Path] = None,
    field_map: Optional[dict[str, dict[str, str]]] = None,
) -> Corpus:
    """Load a claims JSON Lines file, and the evidence joined to its claims,
    into a validated corpus; every stage that reads claims reads them here.

    ``field_map`` translates upstream field names, e.g. ``{"claims":
    {"text": "claim"}}``. Rows carrying only a raw verdict are mapped
    through the default verdict mapping table; unmapped verdicts drop the
    claim and its evidence. A malformed row, a duplicate claim or evidence
    id, evidence naming an unknown claim and a ``pub_after_claim`` flag that
    disagrees with the dates are each a ParseError at the row's
    ``path:line``. Without ``evidence_path`` the corpus holds no evidence.
    """
    field_map = field_map or {}
    table = VerdictMappingTable.default()

    claims: dict[str, ClaimRecord] = {}
    dropped = 0
    dropped_ids: set[str] = set()
    for line_no, row in read_jsonl(Path(claims_path)):
        row = _translate(row, field_map.get("claims"))
        if isinstance(row, dict) and row.get("verdict") is None:
            verdict = table.map_verdict(row.get("raw_verdict"))
            if verdict is None:
                dropped += 1
                if isinstance(row.get("id"), str):
                    dropped_ids.add(row["id"])
                continue
            row["verdict"] = verdict.value
        try:
            claim = ClaimRecord.from_dict(row)
        except InvariantViolation as exc:
            raise ParseError(str(claims_path), line_no, str(exc)) from exc
        if claim.id in claims:
            raise ParseError(str(claims_path), line_no, f"duplicate claim id {claim.id!r}")
        claims[claim.id] = claim

    evidence: list[EvidencePiece] = []
    if evidence_path is None:
        return Corpus(claims=claims, evidence=evidence, dropped_claims=dropped)
    seen_evidence: set[str] = set()
    for line_no, row in read_jsonl(Path(evidence_path)):
        row = _translate(row, field_map.get("evidence"))
        try:
            piece = EvidencePiece.from_dict(row)
        except InvariantViolation as exc:
            raise ParseError(str(evidence_path), line_no, str(exc)) from exc
        if piece.id in seen_evidence:
            raise ParseError(
                str(evidence_path), line_no, f"duplicate evidence id {piece.id!r}"
            )
        if piece.claim_id not in claims:
            if piece.claim_id in dropped_ids:
                # Evidence of dropped claims vanishes with them.
                continue
            raise ParseError(
                str(evidence_path),
                line_no,
                f"evidence {piece.id!r} references unknown claim "
                f"{piece.claim_id!r}",
            )
        try:
            validate_sample(claims[piece.claim_id], piece)
        except InvariantViolation as exc:
            raise ParseError(str(evidence_path), line_no, str(exc)) from exc
        seen_evidence.add(piece.id)
        evidence.append(piece)

    return Corpus(claims=claims, evidence=evidence, dropped_claims=dropped)


# -- recasting ---------------------------------------------------------------------

_COUNTERFACT_FIELDS = ("subject", "relation", "object_true", "object_edited")
_CONFLICTQA_FIELDS = ("memory_answer", "parametric_evidence", "counter_evidence")


@dataclass(frozen=True)
class RawTripletRecord:
    """Either a knowledge-edit triplet or a memory/counter-memory record."""

    subject: Optional[str] = None
    relation: Optional[str] = None
    object_true: Optional[str] = None
    object_edited: Optional[str] = None
    memory_answer: Optional[str] = None
    parametric_evidence: Optional[str] = None
    counter_evidence: Optional[str] = None

    def __post_init__(self) -> None:
        has_edit = any(getattr(self, f) is not None for f in _COUNTERFACT_FIELDS)
        has_memory = any(getattr(self, f) is not None for f in _CONFLICTQA_FIELDS)
        if has_edit == has_memory:
            raise InvariantViolation(
                "shape", "exactly one of the two record shapes must be populated"
            )

    @property
    def shape(self) -> str:
        return "counterfact" if self.subject is not None or self.relation is not None else "conflictqa"


def _require(record: RawTripletRecord, fields: tuple[str, ...]) -> None:
    for name in fields:
        value = getattr(record, name)
        if value is None or not str(value).strip():
            raise MalformedTriplet(f"field {name!r} is missing or empty")


def _sentence(text: str) -> str:
    text = text.strip()
    return text if text.endswith((".", "!", "?")) else text + "."


def recast_counterfact(record: RawTripletRecord) -> tuple[ClaimRecord, list[EvidencePiece]]:
    """Edited triplet -> false claim, plus verbatim-supporting and
    true-object-refuting evidence.

    The claim is synthesized from the record's own surface strings:
    ``"<subject> <relation> <object_edited>."``.
    """
    _require(record, _COUNTERFACT_FIELDS)
    if record.object_edited.strip() == record.object_true.strip():
        raise MalformedTriplet("edited object equals true object; no conflict to construct")

    claim_text = _sentence(f"{record.subject} {record.relation} {record.object_edited}")
    true_text = _sentence(f"{record.subject} {record.relation} {record.object_true}")
    claim_id = fallback_id("counterfact", record.subject, record.relation, record.object_edited)
    claim = ClaimRecord(
        id=claim_id,
        text=claim_text,
        claimant=None,
        source="counterfact",
        claim_date=None,
        verdict=ClaimVerdict.FALSE,
        raw_verdict="False",
    )
    supports = EvidencePiece(
        id=fallback_id(claim_id, "supports", claim_text),
        claim_id=claim_id,
        text=claim_text,
        url="",
        relevance=Relevance.RELEVANT,
        stance=StanceLabel.SUPPORTS,
    )
    refutes = EvidencePiece(
        id=fallback_id(claim_id, "refutes", true_text),
        claim_id=claim_id,
        text=true_text,
        url="",
        relevance=Relevance.RELEVANT,
        stance=StanceLabel.REFUTES,
    )
    return claim, [supports, refutes]


def recast_conflictqa(record: RawTripletRecord) -> tuple[ClaimRecord, list[EvidencePiece]]:
    """Memory answer -> claim; parametric-aligned evidence supports it,
    counter-memory evidence refutes it.

    The claim carries verdict True: it restates the answer the model holds
    parametrically, and no external ground truth is available.
    """
    _require(record, _CONFLICTQA_FIELDS)
    claim_text = record.memory_answer.strip()
    claim_id = fallback_id("conflictqa", claim_text)
    claim = ClaimRecord(
        id=claim_id,
        text=claim_text,
        claimant=None,
        source="conflictqa",
        claim_date=None,
        verdict=ClaimVerdict.TRUE,
        raw_verdict="True",
    )
    supports = EvidencePiece(
        id=fallback_id(claim_id, "supports", record.parametric_evidence),
        claim_id=claim_id,
        text=record.parametric_evidence.strip(),
        url="",
        relevance=Relevance.RELEVANT,
        stance=StanceLabel.SUPPORTS,
    )
    refutes = EvidencePiece(
        id=fallback_id(claim_id, "refutes", record.counter_evidence),
        claim_id=claim_id,
        text=record.counter_evidence.strip(),
        url="",
        relevance=Relevance.RELEVANT,
        stance=StanceLabel.REFUTES,
    )
    return claim, [supports, refutes]


def load_triplets(
    path: Path,
    dataset: str,
    field_map: Optional[dict[str, str]] = None,
) -> Corpus:
    """Read raw triplet JSON Lines and recast every record."""
    if dataset == "counterfact":
        recast = recast_counterfact
        names = _COUNTERFACT_FIELDS
    elif dataset == "conflictqa":
        recast = recast_conflictqa
        names = _CONFLICTQA_FIELDS
    else:
        raise InvariantViolation("dataset", f"unknown triplet dataset {dataset!r}")

    claims: dict[str, ClaimRecord] = {}
    evidence: list[EvidencePiece] = []
    for line_no, row in read_jsonl(Path(path)):
        row = _translate(row, field_map)
        try:
            record = RawTripletRecord(**{name: row.get(name) for name in names})
        except (InvariantViolation, TypeError) as exc:
            raise ParseError(str(path), line_no, str(exc)) from exc
        try:
            claim, pieces = recast(record)
        except MalformedTriplet as exc:
            raise ParseError(str(path), line_no, str(exc)) from exc
        if claim.id in claims:
            # Identical records recast identically; keep the first.
            continue
        claims[claim.id] = claim
        evidence.extend(pieces)
    return Corpus(claims=claims, evidence=evidence)


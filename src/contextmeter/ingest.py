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

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from importlib import resources

from .errors import InvariantViolation, MalformedTriplet, ParseError
from .model import (
    ClaimRecord,
    ClaimVerdict,
    EvidencePiece,
    Relevance,
    StanceLabel,
    fallback_id,
    read_json,
    read_jsonl,
)


def verdict_table() -> dict[str, ClaimVerdict]:
    """Raw fact-checker verdict labels mapped to {True, Half-true, False}.

    Labels absent from the table mean "drop the claim", per the mapping
    table's caption.
    """
    path = resources.files("contextmeter") / "data" / "verdict_mapping.json"
    return {label: ClaimVerdict(target) for label, target in read_json(path).items()}


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

    def _histogram(self, field: str) -> dict[str, int]:
        labels = (getattr(piece, field) for piece in self.evidence)
        return dict(Counter(label.value for label in labels if label is not None))

    def stance_histogram(self) -> dict[str, int]:
        return self._histogram("stance")

    def relevance_histogram(self) -> dict[str, int]:
        return self._histogram("relevance")

    def inter_context_conflicts(self) -> int:
        """Number of claims with at least one supports and one refutes piece."""
        stances: dict[str, set[StanceLabel]] = {}
        for piece in self.evidence:
            stances.setdefault(piece.claim_id, set()).add(piece.stance)
        polar = {StanceLabel.SUPPORTS, StanceLabel.REFUTES}
        return sum(1 for claim_id in self.claims if polar <= stances.get(claim_id, set()))


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
    table = verdict_table()

    claims: dict[str, ClaimRecord] = {}
    dropped = 0
    dropped_ids: set[str] = set()
    for line_no, row in read_jsonl(Path(claims_path)):
        row = _translate(row, field_map.get("claims"))
        if isinstance(row, dict) and row.get("verdict") is None:
            raw_verdict = row.get("raw_verdict")
            verdict = table.get(raw_verdict) if isinstance(raw_verdict, str) else None
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
        flag, claim_date = piece.pub_after_claim, claims[piece.claim_id].claim_date
        if None not in (flag, piece.pub_date, claim_date) and flag != (piece.pub_date > claim_date):
            raise ParseError(
                str(evidence_path), line_no,
                f"pub_after_claim: flag {flag} inconsistent with dates {piece.pub_date} vs {claim_date}",
            )
        seen_evidence.add(piece.id)
        evidence.append(piece)

    return Corpus(claims=claims, evidence=evidence, dropped_claims=dropped)


# -- recasting ---------------------------------------------------------------------

def _sentence(text: str) -> str:
    text = text.strip()
    return text if text.endswith((".", "!", "?")) else text + "."


def _claim_with_pair(
    source: str, id_parts: tuple[str, ...], claim_text: str, verdict: ClaimVerdict,
    supports: tuple[str, str], refutes: tuple[str, str],
) -> tuple[ClaimRecord, list[EvidencePiece]]:
    """A recast claim, its id derived from ``source`` and ``id_parts``, and
    its one supporting and one refuting evidence piece; ``supports`` and
    ``refutes`` are each (the text the piece's id derives from, its text)."""
    claim_id = fallback_id(source, *id_parts)
    claim = ClaimRecord(
        id=claim_id, text=claim_text, claimant=None, source=source, claim_date=None,
        verdict=verdict, raw_verdict=verdict.value,
    )
    pieces = [
        EvidencePiece(
            id=fallback_id(claim_id, stance.value, id_text), claim_id=claim_id, text=text, url="",
            relevance=Relevance.RELEVANT, stance=stance,
        )
        for stance, (id_text, text) in ((StanceLabel.SUPPORTS, supports), (StanceLabel.REFUTES, refutes))
    ]
    return claim, pieces


def recast_counterfact(
    subject: str, relation: str, object_true: str, object_edited: str
) -> tuple[ClaimRecord, list[EvidencePiece]]:
    """Edited triplet -> false claim, plus verbatim-supporting and
    true-object-refuting evidence.

    The claim is synthesized from the record's own surface strings:
    ``"<subject> <relation> <object_edited>."``.
    """
    if object_edited.strip() == object_true.strip():
        raise MalformedTriplet("edited object equals true object; no conflict to construct")
    claim_text = _sentence(f"{subject} {relation} {object_edited}")
    true_text = _sentence(f"{subject} {relation} {object_true}")
    return _claim_with_pair(
        "counterfact", (subject, relation, object_edited), claim_text, ClaimVerdict.FALSE,
        supports=(claim_text, claim_text), refutes=(true_text, true_text),
    )


def recast_conflictqa(
    memory_answer: str, parametric_evidence: str, counter_evidence: str
) -> tuple[ClaimRecord, list[EvidencePiece]]:
    """Memory answer -> claim; parametric-aligned evidence supports it,
    counter-memory evidence refutes it.

    The claim carries verdict True: it restates the answer the model holds
    parametrically, and no external ground truth is available.
    """
    claim_text = memory_answer.strip()
    return _claim_with_pair(
        "conflictqa", (claim_text,), claim_text, ClaimVerdict.TRUE,
        supports=(parametric_evidence, parametric_evidence.strip()),
        refutes=(counter_evidence, counter_evidence.strip()),
    )


#: Each triplet dataset's recaster and the row fields it reads, in argument order.
_RECASTERS = {
    "counterfact": (recast_counterfact, ("subject", "relation", "object_true", "object_edited")),
    "conflictqa": (recast_conflictqa, ("memory_answer", "parametric_evidence", "counter_evidence")),
}


def load_triplets(
    path: Path,
    dataset: str,
    field_map: Optional[dict[str, str]] = None,
) -> Corpus:
    """Read raw triplet JSON Lines and recast every record.

    Each row must be an object whose fields the dataset reads are non-blank
    strings; a row that is not, or that recasts to no conflict, is a
    ParseError at its ``path:line``.
    """
    if dataset not in _RECASTERS:
        raise InvariantViolation("dataset", f"unknown triplet dataset {dataset!r}")
    recast, names = _RECASTERS[dataset]

    claims: dict[str, ClaimRecord] = {}
    evidence: list[EvidencePiece] = []
    held: set[str] = set()
    for line_no, row in read_jsonl(Path(path)):
        row = _translate(row, field_map)
        try:
            if not isinstance(row, dict):
                raise MalformedTriplet(f"not a JSON object: {row!r}")
            for name in names:
                value = row.get(name)
                if value is not None and not isinstance(value, str):
                    raise MalformedTriplet(f"{name}: expected a string, got {type(value).__name__}")
                if value is None or not value.strip():
                    raise MalformedTriplet(f"field {name!r} is missing or empty")
            claim, pieces = recast(*(row[name] for name in names))
        except MalformedTriplet as exc:
            raise ParseError(str(path), line_no, str(exc)) from exc
        # A repeated claim keeps its first record and gains the pieces it
        # does not hold yet; identical rows recast to identical ids.
        claims.setdefault(claim.id, claim)
        evidence.extend(piece for piece in pieces if piece.id not in held)
        held.update(piece.id for piece in pieces)
    return Corpus(claims=claims, evidence=evidence)

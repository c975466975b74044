"""Corpus loading, verdict mapping, triplet recasting, stratified sampling.

Three corpus families are handled:

* fact-checked claims with retrieved evidence, in the core JSON Lines
  format (optionally translated from upstream field names);
* knowledge-edit triplets recast into a false claim plus one supporting and
  one refuting evidence piece;
* memory-vs-counter-memory triplets recast into a claim aligned with the
  model's parametric answer plus one supporting and one refuting evidence
  piece.

Stratified sampling balances, in priority order: (1) sources, (2) verdicts,
(3) pre/post pivot-date publication, relaxing (3) before (2) and never
filling one source's deficit from another.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Optional

from importlib import resources

from .errors import (
    InsufficientClaims,
    InvariantViolation,
    MalformedTriplet,
    ParseError,
)
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

#: Fact-checker feeds the claim corpus draws from.
DRUID_SOURCES = (
    "borderlines",
    "checkyourfact",
    "factcheckni",
    "factly",
    "politifact",
    "science.feedback",
    "srilanka.factcrescendo",
)

_VERDICT_ORDER = (ClaimVerdict.TRUE, ClaimVerdict.HALF_TRUE, ClaimVerdict.FALSE)


class VerdictMappingTable:
    """Raw fact-checker verdict labels mapped to {True, Half-true, False}.

    Labels absent from the table mean "drop the claim", per the mapping
    table's caption.
    """

    def __init__(self, mapping: dict[str, ClaimVerdict]):
        self.mapping = dict(mapping)

    @classmethod
    def from_file(cls, path: Path) -> "VerdictMappingTable":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls({label: ClaimVerdict(target) for label, target in raw.items()})

    @classmethod
    def default(cls) -> "VerdictMappingTable":
        return cls.from_file(resources.files("contextmeter") / "data" / "verdict_mapping.json")

    def map_verdict(self, raw_label: str) -> Optional[ClaimVerdict]:
        """Mapped verdict, or None as the drop marker."""
        return self.mapping.get(raw_label)


@dataclass
class Corpus:
    """Loaded claims plus evidence, with the headline statistics on tap."""

    claims: dict[str, ClaimRecord]
    evidence: list[EvidencePiece]
    dropped_claims: int = 0

    def evidence_for(self, claim_id: str) -> list[EvidencePiece]:
        return [piece for piece in self.evidence if piece.claim_id == claim_id]

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


def _translate(row: dict, field_map: Optional[dict[str, str]]) -> dict:
    if not field_map:
        return row
    translated = dict(row)
    for ours, theirs in field_map.items():
        if theirs in row:
            translated[ours] = row[theirs]
    return translated


def load_druid(
    claims_path: Path,
    evidence_path: Path,
    field_map: Optional[dict[str, dict[str, str]]] = None,
    mapping_table: Optional[VerdictMappingTable] = None,
) -> Corpus:
    """Load a claims + evidence JSON Lines pair into a validated corpus.

    ``field_map`` translates upstream field names, e.g. ``{"claims":
    {"text": "claim"}}``. Rows carrying only a raw verdict are mapped
    through ``mapping_table``; unmapped verdicts drop the claim and its
    evidence.
    """
    field_map = field_map or {}
    table = mapping_table or VerdictMappingTable.default()

    claims: dict[str, ClaimRecord] = {}
    dropped = 0
    dropped_ids: set[str] = set()
    for line_no, row in read_jsonl(Path(claims_path)):
        row = _translate(row, field_map.get("claims"))
        if "verdict" not in row or row["verdict"] is None:
            verdict = table.map_verdict(row.get("raw_verdict", ""))
            if verdict is None:
                dropped += 1
                if row.get("id"):
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
        validate_sample(claims[piece.claim_id], piece)
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
    record_filter: Optional[Callable[[RawTripletRecord], bool]] = None,
) -> Corpus:
    """Read raw triplet JSON Lines and recast every record.

    ``record_filter`` lets callers drop records before recasting (for
    example, generated evidence that reveals its origin); returning False
    skips the record.
    """
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
    dropped = 0
    for line_no, row in read_jsonl(Path(path)):
        row = _translate(row, field_map)
        try:
            record = RawTripletRecord(**{name: row.get(name) for name in names})
        except (InvariantViolation, TypeError) as exc:
            raise ParseError(str(path), line_no, str(exc)) from exc
        if record_filter is not None and not record_filter(record):
            dropped += 1
            continue
        try:
            claim, pieces = recast(record)
        except MalformedTriplet as exc:
            raise ParseError(str(path), line_no, str(exc)) from exc
        if claim.id in claims:
            # Identical records recast identically; keep the first.
            continue
        claims[claim.id] = claim
        evidence.extend(pieces)
    return Corpus(claims=claims, evidence=evidence, dropped_claims=dropped)


# -- stratified sampling -----------------------------------------------------------

_MEDIA_WORDS = ("photo", "video")


def mentions_excluded_media(text: str) -> bool:
    """Case-insensitive whole-word match of the media words."""
    return any(
        re.search(rf"\b{word}\b", text, flags=re.IGNORECASE) for word in _MEDIA_WORDS
    )


@dataclass
class ShortageReport:
    """Where and by how much the sampler fell short of its target."""

    requested: int
    selected: int
    media_excluded: int
    per_source_shortfall: dict[str, int] = field(default_factory=dict)

    @property
    def total_shortfall(self) -> int:
        return self.requested - self.selected

    def to_dict(self) -> dict:
        return {
            "requested": self.requested,
            "selected": self.selected,
            "media_excluded": self.media_excluded,
            "per_source_shortfall": dict(sorted(self.per_source_shortfall.items())),
            "total_shortfall": self.total_shortfall,
        }


def _largest_remainder(total: int, keys: list) -> dict:
    """Even integer quotas over keys; leftovers go to the earliest keys."""
    if not keys:
        return {}
    base, extra = divmod(total, len(keys))
    return {key: base + (1 if index < extra else 0) for index, key in enumerate(keys)}


def _take(rng: random.Random, bucket: list[ClaimRecord], want: int) -> list[ClaimRecord]:
    want = min(want, len(bucket))
    if want == 0:
        return []
    chosen = rng.sample(bucket, want)
    for claim in chosen:
        bucket.remove(claim)
    return chosen


def stratified_sample(
    claims: Iterable[ClaimRecord],
    target_n: int,
    date_pivot: date = date(2023, 1, 1),
    seed: int = 0,
    strict: bool = False,
) -> tuple[list[ClaimRecord], ShortageReport]:
    """Sample claims balanced by source, then verdict, then claim date.

    Claims mentioning the excluded media words are removed before anything
    else. Even quotas are assigned per source; inside a source the quota is
    split evenly over verdicts, and each verdict's share is split between
    claims dated before and after the pivot (the odd one goes to the
    earlier side). Deficits relax the date split first, then the verdict
    split; a source that cannot meet its quota simply contributes less and
    the gap is reported (``strict=True`` raises instead).
    """
    materialized = list(claims)
    all_claims = [c for c in materialized if not mentions_excluded_media(c.text)]
    media_excluded = len(materialized) - len(all_claims)
    rng = random.Random(seed)

    by_source: dict[str, list[ClaimRecord]] = {}
    for claim in sorted(all_claims, key=lambda c: c.id):
        by_source.setdefault(claim.source, []).append(claim)

    sources = sorted(by_source)
    quotas = _largest_remainder(target_n, sources)

    selected: list[ClaimRecord] = []
    shortfalls: dict[str, int] = {}
    for source in sources:
        quota = quotas[source]
        verdict_quota = _largest_remainder(quota, list(_VERDICT_ORDER))
        buckets: dict[ClaimVerdict, dict[str, list[ClaimRecord]]] = {}
        for verdict in _VERDICT_ORDER:
            of_verdict = [c for c in by_source[source] if c.verdict is verdict]
            buckets[verdict] = {
                "pre": [
                    c for c in of_verdict
                    if c.claim_date is not None and c.claim_date < date_pivot
                ],
                "post": [
                    c for c in of_verdict
                    if c.claim_date is None or c.claim_date >= date_pivot
                ],
            }

        picked_for_source: list[ClaimRecord] = []
        deficit = 0
        for verdict in _VERDICT_ORDER:
            want = verdict_quota[verdict]
            pre_want = (want + 1) // 2
            post_want = want - pre_want
            got = _take(rng, buckets[verdict]["pre"], pre_want)
            got += _take(rng, buckets[verdict]["post"], post_want)
            # Relax the date balance before giving up on the verdict share.
            missing = want - len(got)
            if missing > 0:
                got += _take(rng, buckets[verdict]["post"], missing)
            missing = want - len(got)
            if missing > 0:
                got += _take(rng, buckets[verdict]["pre"], missing)
            deficit += want - len(got)
            picked_for_source.extend(got)

        # Relax the verdict balance within the source, date rule intact.
        while deficit > 0:
            progressed = False
            for verdict in _VERDICT_ORDER:
                if deficit == 0:
                    break
                for side in ("pre", "post"):
                    if deficit == 0:
                        break
                    got = _take(rng, buckets[verdict][side], 1)
                    if got:
                        picked_for_source.extend(got)
                        deficit -= 1
                        progressed = True
            if not progressed:
                break

        if deficit > 0:
            shortfalls[source] = deficit
        selected.extend(picked_for_source)

    report = ShortageReport(
        requested=target_n,
        selected=len(selected),
        media_excluded=media_excluded,
        per_source_shortfall=shortfalls,
    )
    if strict and report.total_shortfall > 0:
        raise InsufficientClaims(
            f"requested {target_n} claims, only {len(selected)} available "
            f"under the sampling constraints"
        )
    selected.sort(key=lambda c: c.id)
    return selected, report

"""Core data model: claims, evidence, stances, verdicts, and scored samples.

All types are immutable after construction and validate their invariants in
``__post_init__``. The canonical on-disk format is JSON Lines, one object per
line, UTF-8, with field names matching the dataclass fields. Serialization is
canonical (sorted keys, fixed separators) so that encoding a decoded record
reproduces the original line byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields
from datetime import date
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from .errors import InvariantViolation, ParseError, ZeroMass


class StanceLabel(str, Enum):
    """Six-way stance of an evidence piece towards its claim (symbol S_E)."""

    SUPPORTS = "supports"
    INSUFFICIENT_SUPPORTS = "insufficient-supports"
    INSUFFICIENT_NEUTRAL = "insufficient-neutral"
    INSUFFICIENT_CONTRADICTORY = "insufficient-contradictory"
    INSUFFICIENT_REFUTES = "insufficient-refutes"
    REFUTES = "refutes"


class VerdictLabel(str, Enum):
    """Salient verdict tokens scored by a model: T = {True, None, False}."""

    TRUE = "True"
    NONE = "None"
    FALSE = "False"


#: Canonical enumeration order of T used for delta_p vectors.
CANONICAL_LABELS: tuple[VerdictLabel, ...] = (
    VerdictLabel.TRUE,
    VerdictLabel.NONE,
    VerdictLabel.FALSE,
)


class ClaimVerdict(str, Enum):
    """Verdict of a claim at rest, after raw-label mapping."""

    TRUE = "True"
    HALF_TRUE = "Half-true"
    FALSE = "False"


class Relevance(str, Enum):
    RELEVANT = "relevant"
    NOT_RELEVANT = "not-relevant"


class Reliability(str, Enum):
    """Source reliability verdict; unknown covers domains outside the lists."""

    UNRELIABLE = "unreliable"
    RELIABLE = "reliable"
    UNKNOWN = "unknown"


class PromptMode(str, Enum):
    CLAIM_ONLY = "claim-only"
    CLAIM_EVIDENCE = "claim+evidence"


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and fixed separators (byte-stable)."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def fallback_id(*parts: str) -> str:
    """Deterministic identifier derived from record content.

    Used when the upstream dataset supplies no id; stable across runs so
    replay stores can key on it.
    """
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


def word_count(text: str) -> int:
    """Whitespace-split token count, the convention for all word caps."""
    return len(text.split())


def _optional(convert: Optional[Callable]) -> Optional[Callable]:
    if convert is None:
        return None
    return lambda value: None if value is None else convert(value)


def _sequence(converters: tuple[Optional[Callable], ...], build: Callable, each: bool) -> Callable:
    """Convert a homogeneous (``each``) or a fixed-length tuple to ``build``."""
    if all(convert is None for convert in converters):
        return build
    if each:
        (convert,) = converters
        return lambda value: build([convert(x) for x in value])

    def convert_fixed(value):
        if len(value) != len(converters):
            raise ValueError(f"expected {len(converters)} entries, got {len(value)}")
        return build([x if c is None else c(x) for c, x in zip(converters, value)])

    return convert_fixed


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _type_codec(tp: Any) -> tuple[Optional[Callable], Optional[Callable]]:
    """(encode, decode) for one annotated type; None means "pass as is"."""
    args = get_args(tp)
    if get_origin(tp) is Union:
        (inner,) = [arg for arg in args if arg is not type(None)]
        encode, decode = _type_codec(inner)
        return _optional(encode), _optional(decode)
    if get_origin(tp) is tuple:
        each = args[-1] is Ellipsis
        encodes, decodes = zip(*(_type_codec(arg) for arg in args if arg is not Ellipsis))
        return _sequence(encodes, list, each), _sequence(decodes, tuple, each)
    if get_origin(tp) is dict or tp is dict:
        return None, dict
    if isinstance(tp, type):
        if issubclass(tp, Enum):
            return attrgetter("value"), tp
        if issubclass(tp, Record):
            return tp.to_dict, tp.from_dict
        if tp is date:
            return date.isoformat, date.fromisoformat
        if tp is bool:
            return None, bool
        if tp is str:
            return None, _string
    return None, None


@lru_cache(maxsize=None)
def _plan(cls: type) -> tuple[tuple, tuple]:
    """Per dataclass field of ``cls``: (name, encode) and (name, decode, default)."""
    hints = get_type_hints(cls)
    encoders, decoders = [], []
    for spec in fields(cls):
        tp = hints[spec.name]
        encode, decode = _type_codec(tp)
        default = spec.default
        if default is MISSING and type(None) in get_args(tp):
            default = None
        encoders.append((spec.name, encode))
        decoders.append((spec.name, decode, default))
    return tuple(encoders), tuple(decoders)


class Record:
    """Base of the JSON Lines record types: one codec for every dataclass.

    Encoding maps enums to their values, dates to ISO-8601 strings, tuples
    to lists and nested records to dicts; decoding inverts each step,
    coerces ``bool`` fields with ``bool()`` and rejects a ``str`` field
    holding anything but a string. A missing key takes the
    field's default, or None for an ``Optional`` field. A missing required
    key or a value that does not convert raises InvariantViolation naming
    the field.
    """

    def to_dict(self) -> dict[str, Any]:
        values = self.__dict__
        return {
            name: values[name] if encode is None else encode(values[name])
            for name, encode in _plan(type(self))[0]
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]):
        if not isinstance(data, dict):
            raise InvariantViolation(cls.__name__, f"not a JSON object: {data!r}")
        kwargs = {}
        try:
            for name, decode, default in _plan(cls)[1]:
                value = data.get(name, MISSING)
                if value is MISSING:
                    if default is MISSING:
                        raise InvariantViolation(name, "missing")
                    kwargs[name] = default
                else:
                    kwargs[name] = value if decode is None else decode(value)
        except (TypeError, ValueError) as exc:
            raise InvariantViolation(name, str(exc)) from exc
        return cls(**kwargs)


@dataclass(frozen=True)
class ClaimRecord(Record):
    """A real-world claim with claimant, source, date, and mapped verdict."""

    id: str
    text: str
    claimant: Optional[str]
    source: str
    claim_date: Optional[date]
    verdict: ClaimVerdict
    raw_verdict: str

    def __post_init__(self) -> None:
        if not self.id:
            raise InvariantViolation("id", "must be non-empty")
        if not self.text:
            raise InvariantViolation("text", "claim text must be non-empty")
        if not isinstance(self.verdict, ClaimVerdict):
            raise InvariantViolation("verdict", f"unmapped label: {self.verdict!r}")
        if not self.source:
            raise InvariantViolation("source", "must be non-empty")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ClaimRecord":
        if isinstance(data, dict) and "raw_verdict" not in data:
            data = {**data, "raw_verdict": data.get("verdict")}
        return super().from_dict(data)


@dataclass(frozen=True)
class EvidencePiece(Record):
    """A retrieved context chunk with URL, dates, source flags, annotations.

    The 300-word cap applies to evidence produced by the retrieval pipeline
    and is enforced there; recast corpora may carry longer texts.
    """

    id: str
    claim_id: str
    text: str
    url: str = ""
    pub_date: Optional[date] = None
    is_fact_check_source: bool = False
    is_gold_source: bool = False
    pub_after_claim: Optional[bool] = None
    relevance: Optional[Relevance] = None
    stance: Optional[StanceLabel] = None
    annotator_labels: tuple[tuple[Optional[Relevance], Optional[StanceLabel]], ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise InvariantViolation("id", "must be non-empty")
        if not self.text:
            raise InvariantViolation("text", "evidence text must be non-empty")
        if self.stance is not None and self.relevance is not Relevance.RELEVANT:
            raise InvariantViolation(
                "stance", "stance present requires relevance = relevant"
            )



@dataclass(frozen=True)
class VerdictProbabilities(Record):
    """Normalized probabilities over {True, None, False} for one prompt mode."""

    p_true: float
    p_none: float
    p_false: float
    mode: PromptMode

    def __post_init__(self) -> None:
        for name in ("p_true", "p_none", "p_false"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvariantViolation(name, f"outside [0, 1]: {value}")
        total = self.p_true + self.p_none + self.p_false
        if abs(total - 1.0) > 1e-9:
            raise InvariantViolation("sum", f"probabilities sum to {total}, not 1")

    @classmethod
    def from_weights(
        cls, weights: dict[VerdictLabel, float], mode: PromptMode
    ) -> "VerdictProbabilities":
        """Renormalize non-negative label weights to sum to 1."""
        total = sum(weights.get(label, 0.0) for label in CANONICAL_LABELS)
        if total <= 0.0:
            raise ZeroMass("all canonical labels carry zero probability mass")
        return cls(
            p_true=weights.get(VerdictLabel.TRUE, 0.0) / total,
            p_none=weights.get(VerdictLabel.NONE, 0.0) / total,
            p_false=weights.get(VerdictLabel.FALSE, 0.0) / total,
            mode=mode,
        )

    def get(self, label: VerdictLabel) -> float:
        return {
            VerdictLabel.TRUE: self.p_true,
            VerdictLabel.NONE: self.p_none,
            VerdictLabel.FALSE: self.p_false,
        }[label]



@dataclass(frozen=True)
class ScoredSample(Record):
    """ΔP / ACU scores of one (claim, evidence, model, prompt) combination.

    ``delta_p`` follows CANONICAL_LABELS order: (True, None, False).
    """

    claim_id: str
    evidence_id: str
    probs_without: VerdictProbabilities
    probs_with: VerdictProbabilities
    delta_p: tuple[float, float, float]
    acu: float
    model_id: str
    prompt_id: str

    _TOL = 1e-9

    def __post_init__(self) -> None:
        if len(self.delta_p) != 3:
            raise InvariantViolation("delta_p", "must have exactly three entries")
        for value in self.delta_p:
            if not -1.0 - self._TOL <= value <= 1.0 + self._TOL:
                raise InvariantViolation("delta_p", f"entry outside [-1, 1]: {value}")
        if not -3.0 - self._TOL <= self.acu <= 3.0 + self._TOL:
            raise InvariantViolation("acu", f"outside [-3, 3]: {self.acu}")



@dataclass(frozen=True)
class CharacteristicVector(Record):
    """Per-sample values of every context-characteristic detector.

    Detector fields are None when the detector was disabled or errored for
    the sample; profile aggregation reports those as skips. ``unreliable``
    distinguishes a computed "unknown" (domain outside list coverage) from
    None (detector disabled).
    """

    claim_id: str
    evidence_id: str
    jaccard: float
    claim_evidence_overlap: Optional[float]
    repeats_claim: bool
    flesch: Optional[float]
    claim_len_chars: int
    evidence_len_chars: int
    perplexity: Optional[float] = None
    entity_overlap: Optional[float] = None
    no_entity_flag: bool = False
    refers_external: Optional[bool] = None
    hedging: bool = False
    hedging_discourse: bool = False
    unreliable: Optional[Reliability] = None
    contains_true_word: bool = False
    contains_false_word: bool = False
    pub_after_claim: Optional[bool] = None
    fact_check_source: bool = False
    gold_source: bool = False

    def __post_init__(self) -> None:
        for name in ("jaccard", "claim_evidence_overlap", "entity_overlap"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise InvariantViolation(name, f"outside [0, 1]: {value}")
        if self.perplexity is not None and self.perplexity <= 0.0:
            raise InvariantViolation("perplexity", "must be positive")


# -- JSON Lines IO -------------------------------------------------------------

def encode_line(record: Any) -> str:
    """Canonical single-line encoding of a record with a to_dict method."""
    payload = record.to_dict() if hasattr(record, "to_dict") else record
    return canonical_json(payload)


def write_jsonl(path: Path, records: Iterable[Any], header: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(canonical_json({"kind": "header", **header}) + "\n")
        for record in records:
            fh.write(encode_line(record) + "\n")


def read_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, object) pairs, skipping a leading header line.

    Lines split as text mode splits them: at LF, CRLF or a lone CR. A line
    that is not UTF-8 or not JSON is a ParseError at that line; a file that
    cannot be opened is one at line 0.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ParseError(str(path), 0, f"cannot open: {exc.strerror or exc}") from exc
    with fh:
        lines = (line for block in fh for line in block.splitlines())
        for line_no, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ParseError(str(path), line_no, f"not UTF-8: {exc.reason}") from exc
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(path), line_no, str(exc)) from exc
            if line_no == 1 and isinstance(obj, dict) and obj.get("kind") == "header":
                continue
            yield line_no, obj

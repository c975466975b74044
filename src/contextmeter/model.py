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
import math
import re
from dataclasses import MISSING, dataclass, fields
from datetime import date
from enum import Enum
from functools import lru_cache, partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Collection,
    Iterable,
    Iterator,
    Optional,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)
from urllib.parse import urlsplit  # loaded already: pathlib imports it

from .errors import InvariantViolation, MalformedUrl, ParseError, ZeroMass


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
_LABEL_FIELDS = dict(zip(CANONICAL_LABELS, ("p_true", "p_none", "p_false")))


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


#: One encoder for every call; ``json.dumps`` with keywords builds one per call.
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"), allow_nan=False)
#: ``_ENCODER``'s C encoder, made once (``encode`` makes one per call). With no
#: markers dict it keeps no state between calls; None without ``_json``.
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring, None, ":", ",", True, False, False)


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and fixed separators (byte-stable); NaN or Infinity is a ValueError."""
    return "".join(_C_ENCODER(obj, 0)) if _C_ENCODER else _ENCODER.encode(obj)


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


_TOKEN_SPLIT_RE = re.compile(r"[\W_]+", re.UNICODE)
#: A ``bytes.translate`` table that lowercases A–Z and keeps every other byte.
_LOWER_BYTES = bytes(ord(chr(code).lower()) if code < 128 else code for code in range(256))
#: As ``_LOWER_BYTES``, but each ASCII byte that ``_TOKEN_SPLIT_RE`` splits at becomes a space.
_WORD_BYTES = bytes(_LOWER_BYTES[code] if chr(code).isalnum() else 32 for code in range(256))


def words(text: str) -> list[str]:
    """Lowercased word tokens with punctuation and special characters
    (including '-' and '_') stripped; hyphenated compounds split apart."""
    if text.isascii():
        return text.encode("ascii").translate(_WORD_BYTES).decode("ascii").split()
    return [token for token in _TOKEN_SPLIT_RE.split(text.lower()) if token]


def word_set(text: str) -> frozenset[str]:
    """The set W of unique lowercased words in a text."""
    return frozenset(words(text))


def normalize_domain(url: str) -> str:
    """Reduce a URL to its lowercase host: scheme, port and 'www.' stripped."""
    if not url or not url.strip():
        raise MalformedUrl("empty URL")
    candidate = url.strip()
    if "//" not in candidate:
        candidate = "//" + candidate
    try:
        host = urlsplit(candidate).hostname
    except ValueError as error:  # e.g. an unclosed "[" of an IPv6 host
        raise MalformedUrl(f"{error}: {url!r}") from None
    if not host:
        raise MalformedUrl(f"no host in {url!r}")
    host = host.lower()
    if host.startswith("www."):
        host = host[len("www."):]
    return host


def _host_in(host: str, domains: Collection[str]) -> bool:
    """Whether ``host`` is in ``domains`` or ends in "." + one of them: one
    lookup of the host and of each suffix after a dot."""
    while host not in domains:
        dot = host.find(".")
        if dot < 0:
            return False
        host = host[dot + 1:]
    return True


def in_domains(url: str, domains: Collection[str]) -> bool:
    """Whether the URL's host is one of ``domains`` or a subdomain of one; a malformed URL is in none."""
    try:
        return _host_in(normalize_domain(url), domains)
    except MalformedUrl:
        return False


def _reject(what: str, value: Any):
    raise TypeError(f"expected {what}, got {type(value).__name__}")


def _bool(value: Any) -> bool:
    return bool(value) if type(value) is int and value in (0, 1) else _reject("a boolean", value)


#: Leaf type: (JSON types it takes as they are, decoder of the rest); a JSON bool is no int.
_LEAVES: dict[type, tuple[tuple[type, ...], Callable]] = {
    str: ((str,), partial(_reject, "a string")),
    int: ((int,), partial(_reject, "an integer")),
    float: ((int, float), partial(_reject, "a number")),
    bool: ((bool,), _bool),
    list: ((list,), partial(_reject, "a list")),
    dict: ((dict,), partial(_reject, "an object")),
}
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _type_codec(tp: Any) -> tuple[tuple[type, ...], Callable]:
    """(kinds, decode) of one annotated type: a JSON value whose exact type
    is in ``kinds`` decodes as itself, and ``decode`` converts any other
    value or raises TypeError or ValueError."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:
        (inner,) = [arg for arg in args if arg is not type(None)]
        kinds, decode = _type_codec(inner)
        return (*kinds, type(None)), decode
    if origin not in (dict, list, tuple):
        if tp in _LEAVES:
            return _LEAVES[tp]
        if tp is date:
            return (), date.fromisoformat
        if issubclass(tp, Record):
            return (), tp.from_dict
        # An Enum decodes by value; ``tp`` raises the ValueError naming any other value.
        members = {member.value: member for member in tp}
        return (), lambda value: members[value] if type(value) is str and value in members else tp(value)
    # dict[str, V] from an object; list[X], tuple[X, ...] or tuple[X, Y, ...] from a list.
    each = origin is not tuple or args[-1] is Ellipsis
    kinds, decodes = zip(*map(_type_codec, args[-1:] if origin is dict else args[:1] if each else args))
    (kind, *_), (decode, *_) = kinds, decodes
    json_type = dict if origin is dict else list

    def decode_container(value):
        if type(value) is not json_type:
            return _LEAVES[json_type][1](value)
        if origin is dict:
            return {key: x if type(x) in kind else decode(x) for key, x in value.items()}
        if each:
            return origin([x if type(x) in kind else decode(x) for x in value])
        if len(value) != len(args):
            raise ValueError(f"expected {len(args)} entries, got {len(value)}")
        return tuple([x if type(x) in k else d(x) for k, d, x in zip(kinds, decodes, value)])

    return (), decode_container


def _encode(value: Any) -> Any:
    """A field value in JSON: records as objects, enums by value, tuples as
    lists, dates in ISO-8601; dicts stay as they are."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [x if type(x) in _SCALARS else _encode(x) for x in value]
    return value.isoformat() if isinstance(value, date) else value


@lru_cache(maxsize=None)
def _plan(cls: type) -> tuple[tuple, tuple]:
    """Per field of ``cls``: (name, encode), None where JSON holds the value as
    it is, and (name, kinds, decode, default), ``default`` MISSING if required."""
    hints = get_type_hints(cls)
    encoders, decoders = [], []
    for spec in fields(cls):
        tp = hints[spec.name]
        kinds, decode = _type_codec(tp)
        default = spec.default_factory
        if spec.default is not MISSING:
            default = lambda value=spec.default: value
        elif default is MISSING and type(None) in get_args(tp):
            default = lambda: None
        encoders.append((spec.name, None if set(kinds) - {type(None)} else _encode))
        decoders.append((spec.name, kinds, decode, default))
    return tuple(encoders), tuple(decoders)


class Record:
    """Base of the JSON Lines record types: one codec for every dataclass.

    Encoding maps enums to their values, dates to ISO-8601 strings, tuples
    to lists and nested records to dicts; decoding inverts each step and
    checks each JSON type: no boolean passes for a number, a bool field also
    takes 0 or 1, a tuple field takes a list. A missing key takes the field's
    default (a fresh one from a ``default_factory``), or None for an
    ``Optional`` field. A missing required key or a value of the wrong type
    raises InvariantViolation naming the field.
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
            for name, kinds, decode, default in _plan(cls)[1]:
                value = data.get(name, MISSING)
                if type(value) in kinds:
                    kwargs[name] = value
                elif value is not MISSING:
                    kwargs[name] = decode(value)
                elif default is MISSING:
                    raise InvariantViolation(name, "missing")
                else:
                    kwargs[name] = default()
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
        for name in _LABEL_FIELDS.values():
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
        return cls(**{name: weights.get(label, 0.0) / total for label, name in _LABEL_FIELDS.items()}, mode=mode)



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


def csv_text(rows: Iterable[Iterable[str]]) -> str:
    """``rows`` as CSV text with LF line ends."""
    import csv
    import io

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _refuse_constant(name: str) -> None:
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if math.isinf(value):
        raise ValueError(f"{literal} is not a finite JSON number")
    return value


#: The one JSON decoder; ``json.loads`` with a keyword builds one per call.
_ROW_DECODER = json.JSONDecoder(parse_constant=_refuse_constant, parse_float=_finite_float)


def _decode(path: Path, line_no: int, raw: bytes) -> Any:
    """The JSON value in UTF-8 ``raw``, which starts at line ``line_no`` of
    ``path``. A fault is a ParseError at its line, a refused number at ``line_no``."""
    try:
        return _ROW_DECODER.decode(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(str(path), line_no + raw.count(b"\n", 0, exc.start), f"not UTF-8: {exc.reason}") from exc
    except ValueError as exc:
        raise ParseError(str(path), line_no + getattr(exc, "lineno", 1) - 1, str(exc)) from exc


def _open(path: Path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ParseError(str(path), 0, f"cannot open: {exc.strerror or exc}") from exc


def read_json(path: Path) -> Any:
    """The JSON document in ``path``; a fault is a ParseError as in ``read_jsonl``, a refused number at line 1."""
    with _open(path) as fh:
        return _decode(path, 1, fh.read())


def read_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, object) pairs, skipping blank lines and a leading header line.

    Lines split as text mode splits them: at LF, CRLF or a lone CR. A line
    that is not UTF-8 or not JSON (NaN, Infinity and 1e999 are not) is a
    ParseError at that line; a file that cannot be opened is one at line 0.
    """
    with _open(path) as fh:
        lines = (line for block in fh for line in block.splitlines())
        for line_no, raw in enumerate(lines, start=1):
            if not raw.strip():
                continue
            obj = _decode(path, line_no, raw)
            if line_no == 1 and isinstance(obj, dict) and obj.get("kind") == "header":
                continue
            yield line_no, obj

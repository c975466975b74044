"""Language-model access: prompt rendering, verdict extraction, perplexity.

Verdict probabilities are read from the next-token distribution at the
position immediately following the prompt's final "Answer:". Each surface
label collects its own probability mass plus the mass of the same label
with one leading space; a label absent from the returned distribution
falls back to its longest present prefix (the first token of a multi-token
label). Masses are mapped through the template's verbalizer and
renormalized to sum to 1.

Scoring can run through a record/replay store: a prompt the store holds
is served from it, any other goes to the provider and is appended, so
downstream reports are reproducible without model access and a crashed
recording run resumes where it stopped.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import re
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Protocol

from importlib import resources

from ._net import RETRIES, post_json, reply_shape
from .errors import (
    ContextMeterError,
    DegenerateText,
    InvariantViolation,
    MissingSlotValue,
    ParseError,
    ProviderError,
    ReplayMiss,
    StoreCorruption,
)
from .model import (
    CANONICAL_LABELS,
    ClaimRecord,
    EvidencePiece,
    PromptMode,
    Record,
    VerdictLabel,
    VerdictProbabilities,
    canonical_json,
    read_json,
    read_jsonl,
)

CLAIMANT_SLOT = "<claimant>"
CLAIM_SLOT = "<claim>"
EVIDENCE_SLOT = "<evidence>"
_SLOT_RE = re.compile("|".join(map(re.escape, (CLAIMANT_SLOT, CLAIM_SLOT, EVIDENCE_SLOT))))


@dataclass(frozen=True)
class PromptTemplate(Record):
    """A prompt body with slot markers plus its label vocabulary.

    ``verbalizer_map`` maps each surface label the model is asked to emit
    to one of the three canonical labels; together the values must cover
    exactly {True, None, False}.
    """

    id: str
    mode: PromptMode
    shots: int
    body: str
    verbalizer_map: dict[str, VerdictLabel]
    include_claimant: bool = True

    def __post_init__(self) -> None:
        if self.shots not in (0, 3):
            raise InvariantViolation("shots", f"expected 0 or 3, got {self.shots}")
        if CLAIM_SLOT not in self.body:
            raise InvariantViolation("body", f"missing {CLAIM_SLOT} slot")
        has_evidence_slot = EVIDENCE_SLOT in self.body
        if self.mode is PromptMode.CLAIM_EVIDENCE and not has_evidence_slot:
            raise InvariantViolation("body", f"claim+evidence mode requires {EVIDENCE_SLOT}")
        if self.mode is PromptMode.CLAIM_ONLY and has_evidence_slot:
            raise InvariantViolation("body", f"claim-only mode must not contain {EVIDENCE_SLOT}")
        covered = set(self.verbalizer_map.values())
        if covered != set(CANONICAL_LABELS):
            raise InvariantViolation(
                "verbalizer_map",
                f"must cover exactly the three canonical labels, covers {sorted(v.value for v in covered)}",
            )

    @cached_property
    def body_without_claimant(self) -> str:
        """``body`` without its claimant lines, each with the blank line after it."""
        kept: list[str] = []
        skip_blank = False
        for line in self.body.split("\n"):
            if line.startswith("Claimant:"):
                skip_blank = True
                continue
            if skip_blank and line.strip() == "":
                skip_blank = False
                continue
            skip_blank = False
            kept.append(line)
        return "\n".join(kept)


def _template_dir():
    return resources.files("contextmeter") / "data" / "prompts"


def load_template(template_id: str, base_dir: Optional[Path] = None) -> PromptTemplate:
    """Load ``<id>.txt`` (body) + ``<id>.json`` (sidecar: an object of the
    other fields, whose ``id`` defaults to ``template_id``) template files."""
    root = Path(base_dir) if base_dir is not None else _template_dir()
    sidecar_path, body_path = root / f"{template_id}.json", root / f"{template_id}.txt"
    try:
        body = body_path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise InvariantViolation("template_id", f"no template {template_id!r} under {root}") from exc
    except UnicodeDecodeError as exc:
        raise InvariantViolation("template_id", f"invalid template {template_id!r} ({body_path}): not UTF-8: {exc.reason}") from exc
    try:
        sidecar = read_json(sidecar_path)
        if isinstance(sidecar, dict):
            sidecar = {"id": template_id, **sidecar, "body": body}
        return PromptTemplate.from_dict(sidecar)
    except (ParseError, InvariantViolation) as exc:
        raise InvariantViolation("template_id", f"invalid template {template_id!r} ({sidecar_path}): {exc}") from exc


def render_prompt(
    template: PromptTemplate,
    claim: ClaimRecord,
    evidence: Optional[EvidencePiece] = None,
) -> str:
    """Substitute the records' values into the template body.

    Claimant lines are removed wholesale when the template excludes them or
    the claim has no claimant (None); an empty claimant is a missing value.
    """
    evidence_text = None if evidence is None else evidence.text
    if not claim.text:
        raise MissingSlotValue("claim text is empty")
    if template.mode is PromptMode.CLAIM_EVIDENCE and not evidence_text:
        raise MissingSlotValue("claim+evidence template requires evidence text")
    if template.mode is PromptMode.CLAIM_ONLY and evidence is not None:
        raise InvariantViolation("evidence", "claim-only template does not accept evidence")

    values = {CLAIM_SLOT: claim.text, EVIDENCE_SLOT: evidence_text}
    if template.include_claimant and claim.claimant is not None:
        if not claim.claimant:
            raise MissingSlotValue("template includes claimant lines but the claimant is empty")
        values[CLAIMANT_SLOT] = claim.claimant
        body = template.body
    else:
        body = template.body_without_claimant
    # One pass, so a slot marker inside a value is inserted verbatim.
    return _SLOT_RE.sub(lambda match: values.get(match[0]) or match[0], body)


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


# -- providers ---------------------------------------------------------------------

class LogprobProvider(Protocol):
    """A completion backend exposing token-level probabilities."""

    provider_id: str

    def next_token_distribution(self, prompt: str) -> dict[str, float]:
        """Probabilities of candidate next tokens (top-k; may not sum to 1)."""
        ...

    def token_logprobs(self, text: str) -> list[float]:
        """Per-token log-likelihoods of ``text`` under the model."""
        ...


class HttpLogprobProvider:
    """Provider over an HTTP+JSON completion endpoint.

    ``next_token_distribution`` POSTs ``{"prompt", "max_tokens": 1,
    "logprobs": 50}`` and expects ``{"top_logprobs": {token: logprob}}``.
    ``token_logprobs`` POSTs ``{"text", "echo": true}`` and expects
    ``{"token_logprobs": [float, ...]}``. The auth token is read from the
    environment variable named by ``auth_env_var``; it is never read from
    configuration files.
    """

    def __init__(
        self,
        endpoint: str,
        provider_id: str,
        auth_env_var: Optional[str] = None,
        timeout: float = 60.0,
    ):
        self.provider_id = provider_id
        self._endpoint = endpoint
        self._timeout = timeout
        self._headers: Optional[dict] = None
        if auth_env_var:
            token = os.environ.get(auth_env_var)
            if not token:
                raise ProviderError(f"auth environment variable {auth_env_var!r} is not set")
            self._headers = {"Authorization": f"Bearer {token}"}

    def _post(self, payload: dict, key: str, kind: type):
        """POST ``payload`` and return the reply's ``key``, which must be a ``kind``."""
        data = post_json(
            self._endpoint, payload, self._timeout, RETRIES, ProviderError, headers=self._headers
        )
        value = data.get(key)
        if not isinstance(value, kind):
            raise ProviderError(f"malformed {key} payload")
        return value

    def next_token_distribution(self, prompt: str) -> dict[str, float]:
        payload = {"prompt": prompt, "max_tokens": 1, "logprobs": 50}
        top = self._post(payload, "top_logprobs", dict)
        with reply_shape(self._endpoint, ProviderError):
            return {token: math.exp(logprob) for token, logprob in top.items()}

    def token_logprobs(self, text: str) -> list[float]:
        values = self._post({"text": text, "echo": True}, "token_logprobs", list)
        with reply_shape(self._endpoint, ProviderError):
            return [float(v) for v in values]


# -- extraction --------------------------------------------------------------------

def surface_label_mass(distribution: dict[str, float], label: str) -> float:
    """Probability mass assigned to a surface label.

    Exact mass of the label and of " " + label are merged. When neither
    appears, the longest distribution key that prefixes either variant
    stands in for the label's first token.
    """
    mass = distribution.get(label, 0.0) + distribution.get(" " + label, 0.0)
    if mass > 0.0:
        return mass
    for variant in (label, " " + label):
        candidates = [
            key
            for key in distribution
            if key not in ("", " ") and variant.startswith(key)
        ]
        if candidates:
            mass += distribution[max(candidates, key=len)]
    return mass


def verdict_probabilities(
    provider: LogprobProvider,
    prompt: str,
    verbalizer_map: dict[str, VerdictLabel],
    mode: PromptMode,
) -> tuple[VerdictProbabilities, dict[str, float]]:
    """Score the prompt and renormalize label masses; returns the surface
    masses alongside for audit."""
    distribution = provider.next_token_distribution(prompt)
    surface_probs = {
        surface: surface_label_mass(distribution, surface)
        for surface in verbalizer_map
    }
    weights: dict[VerdictLabel, float] = {label: 0.0 for label in CANONICAL_LABELS}
    for surface, mass in surface_probs.items():
        weights[verbalizer_map[surface]] += mass
    return VerdictProbabilities.from_weights(weights, mode), surface_probs


def perplexity(provider: LogprobProvider, text: str) -> float:
    """exp of the negative mean per-token log-likelihood of ``text``."""
    if not text or not text.strip():
        raise DegenerateText("cannot compute perplexity of empty text")
    logprobs = provider.token_logprobs(text)
    if not logprobs:
        raise DegenerateText("provider returned no tokens")
    return math.exp(-math.fsum(logprobs) / len(logprobs))


# -- record / replay ---------------------------------------------------------------

@dataclass(frozen=True)
class ScoreRecord(Record):
    """One scored prompt, checksummed for store-integrity verification."""

    prompt_hash: str
    surface_probs: dict[str, float]
    probs: VerdictProbabilities
    provider_id: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.prompt_hash, self.provider_id)

    @cached_property
    def _payload(self) -> str:  # the record without its checksum, as canonical JSON
        return canonical_json(super().to_dict())

    def checksum(self) -> str:
        return hashlib.sha256(self._payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {**super().to_dict(), "checksum": self.checksum()}

    def line(self) -> str:
        """``canonical_json(self.to_dict())``: "checksum" sorts before every other key."""
        return f'{{"checksum":"{self.checksum()}",{self._payload[1:]}'

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreRecord":
        try:
            record = super().from_dict(data)
        except InvariantViolation as exc:
            raise StoreCorruption(f"malformed score record: {exc}") from exc
        # The checksum covers the object as stored, so a record carrying a
        # key this class no longer has (the old ``timestamp``) still loads.
        payload = canonical_json({k: v for k, v in data.items() if k != "checksum"})
        if data.get("checksum") != hashlib.sha256(payload.encode("utf-8")).hexdigest():
            raise StoreCorruption(f"checksum mismatch for prompt_hash {record.prompt_hash[:12]}")
        return record


class ReplayStore:
    """JSON Lines store of ScoreRecords keyed by (prompt_hash, provider_id).

    A final line without its newline, as a crash mid-append leaves it, is
    skipped on load when it is not JSON, and the first append cuts it away;
    a whole record there gets its missing newline before the first append.
    Any other bad line is a StoreCorruption at ``path:line``. Appends
    write through one handle, flushed after every record, until ``close``.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._records: dict[tuple[str, str], ScoreRecord] = {}
        self._lock = threading.Lock()
        # (length to cut the file to, text to write) before the first append.
        self._tail: Optional[tuple[int, str]] = None
        self._handle = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with self.path.open("rb") as handle:
            size = handle.seek(0, os.SEEK_END)
            handle.seek(max(size - 1, 0))
            if handle.read(1) not in b"\r\n":  # an empty file reads b"", which is in it
                self._tail = (size, "\n")
        try:
            for line_no, data in read_jsonl(self.path):
                try:
                    record = ScoreRecord.from_dict(data)
                except StoreCorruption as exc:
                    raise StoreCorruption(f"{self.path}:{line_no}: {exc}") from exc
                self._records[record.key] = record
        except ParseError as exc:
            raw = self.path.read_bytes()
            start = max(raw.rfind(b"\n"), raw.rfind(b"\r")) + 1
            if self._tail is None or exc.line_no != len(raw[:start].splitlines()) + 1:
                raise StoreCorruption(str(exc)) from exc
            self._tail = (start, "")

    def __len__(self) -> int:
        return len(self._records)

    def get(self, prompt_hash_value: str, provider_id: str) -> Optional[ScoreRecord]:
        return self._records.get((prompt_hash_value, provider_id))

    def append(self, record: ScoreRecord) -> None:
        with self._lock:
            try:
                line = record.line() + "\n"  # NaN or Infinity is a ValueError
                if self._handle is None:
                    if self._tail is not None:
                        length, prefix = self._tail
                        os.truncate(self.path, length)
                        line, self._tail = prefix + line, None
                    self._handle = self.path.open("a", encoding="utf-8")
                self._handle.write(line)
                self._handle.flush()
            except (OSError, ValueError) as exc:
                with contextlib.suppress(OSError):  # drops what a failed write left buffered
                    self.close()
                raise ContextMeterError(
                    f"cannot append to {self.path}: {getattr(exc, 'strerror', None) or exc}"
                ) from exc
            self._records[record.key] = record

    def close(self) -> None:
        """Close the handle once appends have ended; a later append reopens the file."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()


class VerdictScorer:
    """Scores prompts from a replay store, calling the provider for the rest.

    A prompt the store holds is served from it and never reaches the
    provider. Any other prompt goes to the provider, and its record is
    appended to the store when there is one; with no provider it is a
    ReplayMiss.
    """

    def __init__(
        self,
        provider: Optional[LogprobProvider] = None,
        store: Optional[ReplayStore] = None,
        provider_id: Optional[str] = None,
    ):
        self._provider = provider
        self._store = store
        self.provider_id = provider_id or (provider.provider_id if provider else None)
        if self.provider_id is None:
            raise InvariantViolation("provider_id", "a scorer without a provider needs an explicit provider_id")

    def score(
        self,
        template: PromptTemplate,
        claim: ClaimRecord,
        evidence: Optional[EvidencePiece] = None,
    ) -> ScoreRecord:
        prompt = render_prompt(template, claim, evidence)
        key_hash = prompt_hash(prompt)
        if self._store is not None:
            record = self._store.get(key_hash, self.provider_id)
            if record is not None:
                return record
        if self._provider is None:
            raise ReplayMiss(
                f"no record for prompt_hash {key_hash[:12]} under provider {self.provider_id!r}"
            )
        probs, surface_probs = verdict_probabilities(
            self._provider, prompt, template.verbalizer_map, template.mode
        )
        record = ScoreRecord(
            prompt_hash=key_hash,
            surface_probs=surface_probs,
            probs=probs,
            provider_id=self.provider_id,
        )
        if self._store is not None:
            self._store.append(record)
        return record

    def close(self) -> None:
        if self._store is not None:
            self._store.close()

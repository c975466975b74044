"""Context-characteristic detectors over (claim, evidence) pairs.

Pure text detectors (similarity, readability, hedging, verdict words) need no
external services. Provider-backed detectors (external-source judgement,
perplexity) take callables and are skipped when not configured. Aggregation
uses exact summation so profile results are independent of corpus order.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DegenerateClaim,
    DegenerateText,
    MalformedUrl,
    UnparseableJudgement,
)
# The word and domain helpers live in ``model``; ``in_domains`` and ``word_set`` are re-exported.
from .model import CharacteristicVector, ClaimRecord, EvidencePiece, Reliability
from .model import _LOWER_BYTES, _TOKEN_SPLIT_RE, _host_in, in_domains, normalize_domain, word_set, words

logger = logging.getLogger(__name__)

#: Every ASCII byte that is neither a letter, a digit nor whitespace.
_NON_WORD_BYTES = bytes(code for code in range(128) if not (chr(code).isalnum() or chr(code).isspace()))
#: A sentence part holding a letter or digit: ``[^\W_]`` is ``str.isalnum``.
_SENTENCE_RE = re.compile(r"[^\W_][^.!?]*")
_VOWEL_RUN_RE = re.compile(r"[aeiouy]+")
_TRUE_WORD_RE = re.compile(r"\bTrue\b")
_FALSE_WORD_RE = re.compile(r"\bFalse\b")


class TextView(NamedTuple):
    """A text's tokens, word set W and padded form, shared by the detectors."""

    tokens: list[str]
    word_set: frozenset[str]
    padded: str

    @classmethod
    def of(cls, text: str) -> "TextView":
        tokens = words(text)
        return cls(tokens, frozenset(tokens), _padded(tokens))


def jaccard(claim: TextView, evidence: TextView) -> float:
    """J(C, E) = |W(C) ∩ W(E)| / |W(C) ∪ W(E)|.

    Defined as 0 when the union is empty (both texts degenerate).
    """
    shared = len(claim.word_set & evidence.word_set)
    union = len(claim.word_set) + len(evidence.word_set) - shared
    if not union:
        logger.debug("degenerate jaccard: both word sets empty")
        return 0.0
    return shared / union


def claim_evidence_overlap(claim: TextView, evidence: TextView) -> float:
    """|W(C) ∩ W(E)| / |W(C)|: coverage of claim words by the evidence."""
    if not claim.word_set:
        raise DegenerateClaim("claim has no words after normalization")
    return len(claim.word_set & evidence.word_set) / len(claim.word_set)


def _padded(tokens: Iterable[str]) -> str:
    """Tokens as " t1 … tn ": they hold no spaces, so a token run occurs in a
    text exactly when its padded form is a substring of the text's."""
    return " " + " ".join(tokens) + " "


def repeats_claim(claim: TextView, evidence: TextView) -> bool:
    """Whether the evidence repeats the claim verbatim.

    Matching is done on normalized word-token sequences (whitespace collapsed,
    case folded, punctuation stripped) at word boundaries, so that a verbatim
    repeat embedded in a longer sentence counts but a partial-word collision
    ("cat sat" inside "bobcat sat") does not. Word-boundary matching is what
    keeps the guarantee repeats_claim ⇒ claim_evidence_overlap = 1.
    """
    return bool(claim.tokens) and claim.padded in evidence.padded


# -- readability ----------------------------------------------------------------

def count_syllables(word: str) -> int:
    """Deterministic syllable heuristic: count vowel groups (aeiouy), subtract
    one for a silent trailing 'e' (unless the word ends in 'le'), minimum 1
    for a word with letters. A word without letters, such as "1932", has 0."""
    letters = word.lower()
    if not letters.isalpha():
        letters = "".join(filter(str.isalpha, letters))
        if not letters:
            return 0
    groups = len(_VOWEL_RUN_RE.findall(letters))
    if groups > 1 and letters.endswith("e") and not letters.endswith("le"):
        groups -= 1
    return max(groups, 1)


def flesch_reading_ease(text: str, syllables: dict[str, int]) -> float:
    """206.835 - 1.015 * (words/sentences) - 84.6 * (syllables/words).

    Words are whitespace tokens containing at least one letter or digit;
    sentences are runs terminated by '.', '!' or '?' (minimum one).
    ``syllables`` memoizes the syllable count of each word, keyed by its
    letters and digits (lowercased in ASCII text); a batch passes one dict
    to every call.
    """
    if text.isascii():
        tokens = text.encode("ascii").translate(_LOWER_BYTES, _NON_WORD_BYTES).decode("ascii").split()
    else:
        tokens = [word for token in text.split() if (word := _TOKEN_SPLIT_RE.sub("", token))]
    if not tokens:
        raise DegenerateText("no countable words")
    for token in set(tokens).difference(syllables):
        syllables[token] = count_syllables(token)
    # A word holds a letter or digit, so at least one sentence part does.
    n_sentences = len(_SENTENCE_RE.findall(text))
    n_words = len(tokens)
    n_syllables = sum(map(syllables.__getitem__, tokens))
    return 206.835 - 1.015 * (n_words / n_sentences) - 84.6 * (n_syllables / n_words)


# -- entities --------------------------------------------------------------------

def detect_entities(text: str) -> list[str]:
    """Heuristic named-entity detector: maximal runs of capitalized words.

    Single-word runs at sentence starts are excluded (ordinary sentence
    capitalization), as are runs with fewer than two letters. Stands in for
    an external tagger; swap in a provider for higher fidelity.
    """
    spans: list[tuple[str, bool]] = []
    current: list[str] = []
    current_starts_sentence = False
    sentence_start = True
    for raw in text.split():
        core = raw.strip("\"'“”‘’()[]{}<>.,;:!?")
        capitalized = bool(core) and core[0].isalpha() and core[0].isupper()
        if capitalized:
            if not current:
                current_starts_sentence = sentence_start
            current.append(core)
        else:
            if current:
                spans.append((" ".join(current), current_starts_sentence))
                current = []
        sentence_start = raw.endswith((".", "!", "?"))
    if current:
        spans.append((" ".join(current), current_starts_sentence))

    selected = []
    for surface, starts_sentence in spans:
        if len(surface.split()) == 1 and starts_sentence:
            continue
        if sum(ch.isalpha() for ch in surface) < 2:
            continue
        selected.append(surface)
    return selected


def entity_overlap(entities: Sequence[TextView], evidence: TextView) -> tuple[float, bool]:
    """Fraction of claim entities whose surface form occurs in the evidence.

    ``entities`` holds the views of the claim's entity surfaces. Returns
    (1.0, True) when the claim has no detectable entities; matching is
    case-insensitive on word-token sequences.
    """
    if not entities:
        return 1.0, True
    found = sum(1 for entity in entities if entity.tokens and entity.padded in evidence.padded)
    return found / len(entities), False


# -- external-source judgement ----------------------------------------------------

EXTERNAL_SOURCE_PROMPT = (
    "Does the following text refer to an external source or not? Admissible "
    "external sources are for example 'a study', '[1]', 'the BBC', a news "
    "channel etc. Answer with a 'Yes' or 'No'.\n\nText: <text>"
)


def refers_external_source(evidence_text: str, judge: Callable[[str], str]) -> bool:
    """Ask a text-judgement provider whether the evidence cites a source."""
    prompt = EXTERNAL_SOURCE_PROMPT.replace("<text>", evidence_text)
    reply = judge(prompt)
    trimmed = reply.strip().strip(".,!\"'").casefold()
    if trimmed == "yes":
        return True
    if trimmed == "no":
        return False
    raise UnparseableJudgement(f"expected Yes or No, got {reply!r}")


# -- hedging -----------------------------------------------------------------------

def _data_path(*parts: str) -> Path:
    return Path(resources.files("contextmeter").joinpath("data", *parts))


def _read_lexicon_file(path: Path) -> frozenset[str]:
    entries = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = line.split("#", 1)[0].strip().lower()
        if entry:
            entries.add(entry)
    return frozenset(entries)


@dataclass(frozen=True)
class HedgeLexicon:
    """Hedge words plus multi-word hedging discourse markers (lowercase)."""

    hedge_words: frozenset[str]
    hedging_discourse_markers: frozenset[str]

    @classmethod
    def default(cls) -> "HedgeLexicon":
        return cls(
            hedge_words=_read_lexicon_file(_data_path("hedges.txt")),
            hedging_discourse_markers=_read_lexicon_file(_data_path("hedging_discourse.txt")),
        )

    @cached_property
    def _needles(self) -> tuple[tuple[frozenset[str], tuple[tuple[str, str, str], ...]], ...]:
        """For hedge words, then discourse markers: the one-token entries as a
        set and the longer ones as (first token, last token, padded token
        run), built once."""
        needles = []
        for entries in (self.hedge_words, self.hedging_discourse_markers):
            runs = [entry.split() for entry in entries]
            singles = frozenset(run[0] for run in runs if len(run) == 1)
            needles.append((singles, tuple((run[0], run[-1], _padded(run)) for run in runs if len(run) > 1)))
        return tuple(needles)


def hedging_flags(evidence: TextView, lexicon: HedgeLexicon) -> tuple[bool, bool]:
    """(contains hedge word, contains hedging discourse marker).

    Matching is case-insensitive and whole-word: every entry, hedge word or
    discourse marker, matches as a contiguous run of word tokens.
    """
    # A token holds no spaces, so a one-token entry occurs exactly when it is in
    # W, and a longer one only when its first and last tokens are.
    present = evidence.word_set
    return tuple(
        not singles.isdisjoint(present)
        or any(run in evidence.padded for first, last, run in runs if first in present and last in present)
        for singles, runs in lexicon._needles
    )


# -- source reliability -------------------------------------------------------------

@dataclass(frozen=True)
class ReliabilityList:
    """Domain → flag-category mapping plus the coverage universe.

    A domain is unreliable when flagged in any category; reliable when inside
    the coverage universe but unflagged; unknown otherwise.
    """

    flagged: dict[str, str] = field(default_factory=dict)
    coverage: frozenset[str] = frozenset()

    @classmethod
    def default(cls) -> "ReliabilityList":
        directory = _data_path("reliability")
        flagged: dict[str, str] = {}
        for category in ("questionable", "conspiracy_pseudoscience", "satire"):
            path = directory / f"{category}.txt"
            if path.exists():
                for domain in _read_lexicon_file(path):
                    flagged[domain] = category
        coverage = set(flagged)
        coverage_path = directory / "coverage.txt"
        if coverage_path.exists():
            coverage |= _read_lexicon_file(coverage_path)
        return cls(flagged=flagged, coverage=frozenset(coverage))


def unreliable_source(url: str, lists: ReliabilityList) -> Reliability:
    """Tri-state reliability of the URL's registered domain; a malformed URL is a MalformedUrl."""
    host = normalize_domain(url)
    if _host_in(host, lists.flagged):
        return Reliability.UNRELIABLE
    if _host_in(host, lists.coverage):
        return Reliability.RELIABLE
    return Reliability.UNKNOWN


def verdict_word_flags(text: str) -> tuple[bool, bool]:
    """Whole-word, case-sensitive detection of "True" and "False"."""
    return (
        "True" in text and bool(_TRUE_WORD_RE.search(text)),
        "False" in text and bool(_FALSE_WORD_RE.search(text)),
    )


# -- per-sample vector and corpus profile ----------------------------------------------

@dataclass
class DetectorProviders:
    """Optional provider callables; None disables the detector."""

    ner: Callable[[str], list[str]] = detect_entities
    judge: Optional[Callable[[str], str]] = None
    perplexity: Optional[Callable[[str], float]] = None
    perplexity_model: str = "model"


#: Reporting rows of the corpus profile and the correlation grid, in order,
#: with the CharacteristicVector field each row reads. The profile names the
#: perplexity row after its model ("<model>: Perplexity").
ROWS = (
    ("Jaccard similarity", "jaccard"),
    ("Claim-evidence overlap", "claim_evidence_overlap"),
    ("Repeats claim (%)", "repeats_claim"),
    ("Flesch reading ease score", "flesch"),
    ("Claim length", "claim_len_chars"),
    ("Evidence length", "evidence_len_chars"),
    ("Perplexity", "perplexity"),
    ("Claim entity overlap", "entity_overlap"),
    ("Detection by LLM (%)", "refers_external"),
    ("Unreliable source (%)", "unreliable"),
    ("Contains hedging (%)", "hedging"),
    ("Contains hedging discourse (%)", "hedging_discourse"),
    ("Contains 'True'", "contains_true_word"),
    ("Contains 'False'", "contains_false_word"),
    ("Fact-check source (%)", "fact_check_source"),
    ("Gold source (%)", "gold_source"),
    ("Pub. after claim (%)", "pub_after_claim"),
)


def mean_std(values: Sequence[float]) -> dict[str, float]:
    """Exact-sum mean, population standard deviation and count."""
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / n
    return {"mean": mean, "std": math.sqrt(variance), "n": n}


def _percent(flags: Sequence[bool]) -> dict[str, float]:
    n = len(flags)
    return {"percent": 100.0 * sum(1 for f in flags if f) / n, "n": n}


def _unreliable_percent(verdicts: Sequence[Reliability]) -> dict[str, Optional[float]]:
    """Share of unreliable sources among those of known reliability, plus
    the share of unknown ones."""
    known = [v is Reliability.UNRELIABLE for v in verdicts if v is not Reliability.UNKNOWN]
    return {
        "percent": 100.0 * sum(known) / len(known) if known else None,
        "n": len(known),
        "unknown_percent": 100.0 * (len(verdicts) - len(known)) / len(verdicts),
    }


def profile(
    pairs: Iterable[tuple[ClaimRecord, EvidencePiece]],
    lexicon: Optional[HedgeLexicon] = None,
    reliability: Optional[ReliabilityList] = None,
    providers: Optional[DetectorProviders] = None,
) -> tuple[list[CharacteristicVector], dict]:
    """Compute vectors for every pair plus the corpus aggregate
    (``aggregate_profile``).

    Each call builds, once, the view of each evidence text, the views of each
    distinct claim text and its entities, and each distinct word's syllables.
    """
    providers = providers or DetectorProviders()
    lexicon = lexicon or HedgeLexicon.default()
    reliability = reliability or ReliabilityList.default()
    claim_views: dict[str, tuple[TextView, list[TextView]]] = {}
    syllables: dict[str, int] = {}
    vectors = []
    for claim, evidence in pairs:
        if claim.text not in claim_views:
            entities = [TextView.of(entity) for entity in providers.ner(claim.text)]
            claim_views[claim.text] = TextView.of(claim.text), entities
        claim_view, entities = claim_views[claim.text]
        evidence_view = TextView.of(evidence.text)
        try:
            overlap = claim_evidence_overlap(claim_view, evidence_view)
        except DegenerateClaim:
            overlap = None
        try:
            flesch = flesch_reading_ease(evidence.text, syllables)
        except DegenerateText:
            flesch = None
        overlap_value, no_entity = entity_overlap(entities, evidence_view)
        refers = None
        if providers.judge is not None:
            refers = refers_external_source(evidence.text, providers.judge)
        perplexity_value = None
        if providers.perplexity is not None:
            perplexity_value = providers.perplexity(evidence.text)
        try:
            unreliable = unreliable_source(evidence.url, reliability)
        except MalformedUrl:
            unreliable = None
        hedging, hedging_discourse = hedging_flags(evidence_view, lexicon)
        contains_true, contains_false = verdict_word_flags(evidence.text)
        vectors.append(
            CharacteristicVector(
                claim_id=claim.id,
                evidence_id=evidence.id,
                jaccard=jaccard(claim_view, evidence_view),
                claim_evidence_overlap=overlap,
                repeats_claim=repeats_claim(claim_view, evidence_view),
                flesch=flesch,
                claim_len_chars=len(claim.text),
                evidence_len_chars=len(evidence.text),
                perplexity=perplexity_value,
                entity_overlap=overlap_value,
                no_entity_flag=no_entity,
                refers_external=refers,
                hedging=hedging,
                hedging_discourse=hedging_discourse,
                unreliable=unreliable,
                contains_true_word=contains_true,
                contains_false_word=contains_false,
                pub_after_claim=evidence.pub_after_claim,
                fact_check_source=evidence.is_fact_check_source,
                gold_source=evidence.is_gold_source,
            )
        )
    return vectors, aggregate_profile(vectors, perplexity_model=providers.perplexity_model)


def aggregate_profile(
    vectors: Sequence[CharacteristicVector], perplexity_model: str = "model"
) -> dict:
    """The corpus profile as ``profile.json`` holds it.

    ``rows`` is keyed by the reporting row names: continuous rows carry
    mean/std, flag rows a percentage, and a row no vector has a value for
    is None. ``skipped`` counts, per row, the vectors without a value.
    """
    rows: dict[str, Optional[dict]] = {}
    skipped: dict[str, int] = {}
    for name, attr in ROWS:
        if attr == "perplexity":
            name = f"{perplexity_model}: {name}"
        present = [value for v in vectors if (value := getattr(v, attr)) is not None]
        if len(present) < len(vectors):
            skipped[name] = len(vectors) - len(present)
        if not present:
            rows[name] = None
        elif attr == "unreliable":
            rows[name] = _unreliable_percent(present)
        elif isinstance(present[0], bool):
            rows[name] = _percent(present)
        else:
            rows[name] = mean_std(present)
    return {"rows": rows, "Total instances": len(vectors), "skipped": skipped}

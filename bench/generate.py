"""Seeded input generators for the round-trip benchmark.

Every generator takes a ``random.Random`` built from the workload seed and
writes plain input files; the program under test only ever reads those
files. The same seed always produces byte-identical inputs.

Workload shapes are fixed here (``SHAPES``) so that a run's amount of work
does not depend on how long it measures.
"""

from __future__ import annotations

import itertools
import json
import random
from datetime import date, timedelta
from pathlib import Path

#: Input shape of each workload.
SHAPES = {
    "druid": {"claims": 12, "pieces_per_claim": 5, "words_per_piece": [150, 300]},
    "retrieve": {"claims": 5, "pages": 20, "paragraphs_per_page": [3, 8]},
    "recast": {"triplets_per_dataset": 40},
}

SOURCES = (
    "borderlines",
    "checkyourfact",
    "factcheckni",
    "factly",
    "politifact",
    "science.feedback",
    "srilanka.factcrescendo",
)
STANCES = (
    "supports",
    "insufficient-supports",
    "insufficient-neutral",
    "insufficient-contradictory",
    "insufficient-refutes",
    "refutes",
)
#: Raw verdicts the packaged mapping table knows, plus labels it drops.
MAPPED_VERDICTS = ("TRUE", "Mostly accurate", "Half True", "PARTLY TRUE", "MISLEADING", "Incorrect")
UNMAPPED_VERDICTS = ("Unproven", "Satire")
CANONICAL_VERDICTS = ("True", "Half-true", "False")

#: Domains the packaged reliability lists flag or cover; anything else is
#: unknown to them.
FLAGGED_DOMAINS = ("infowars.com", "naturalnews.com", "theonion.com", "mercola.com")
COVERED_DOMAINS = ("reuters.com", "apnews.com", "bbc.co.uk", "nature.com", "who.int")
FACT_CHECK_DOMAINS = ("politifact.com", "snopes.com", "factcheck.org", "factly.in")

HEDGE_WORDS = ("allegedly", "apparently", "approximately", "could", "estimated", "suggests", "possibly", "likely")
DISCOURSE_MARKERS = ("it is possible that", "in most cases", "it seems", "by and large", "as far as we know")
FUNCTION_WORDS = (
    "the", "of", "and", "to", "in", "a", "is", "that", "for", "it", "as",
    "was", "with", "be", "by", "on", "not", "he", "this", "are", "or",
    "his", "from", "at", "which", "but", "have", "an", "they", "more",
    "were", "had", "has", "its", "their", "been", "than", "also", "after",
    "new", "other", "some", "when", "into", "over", "most", "report",
    "officials", "data", "year", "public", "records", "people", "state",
)
_ONSETS = ("b", "br", "c", "d", "dr", "f", "g", "gl", "h", "k", "l", "m", "n", "p", "pr", "r", "s", "st", "t", "tr", "v", "w", "z")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "y")
_CODAS = ("", "", "n", "r", "s", "t", "l", "m", "nd", "rk", "st")


def _pseudo_word(rng: random.Random, syllables: int) -> str:
    return "".join(
        rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
        for _ in range(syllables)
    )


class Lexicon:
    """A seeded vocabulary of pseudo-words and multi-word named entities."""

    def __init__(self, rng: random.Random, n_words: int = 3000, n_entities: int = 400):
        seen: set[str] = set(FUNCTION_WORDS)
        self.content: list[str] = []
        while len(self.content) < n_words:
            # Syllables follow frequency rank, not the seed, so every seed's
            # texts have about the same length in characters.
            word = _pseudo_word(rng, (1, 2, 1, 2, 3, 2)[len(self.content) % 6])
            if word not in seen:
                seen.add(word)
                self.content.append(word)
        self.entities: list[str] = []
        while len(self.entities) < n_entities:
            n_parts = (1, 2, 2, 3)[len(self.entities) % 4]
            parts = [_pseudo_word(rng, 2 + n_parts % 2).capitalize() for _ in range(n_parts)]
            entity = " ".join(parts)
            if entity.lower() not in seen:
                seen.add(entity.lower())
                self.entities.append(entity)
        # Zipf-like weights so some content words recur across texts.
        self._cum_weights = list(itertools.accumulate(1.0 / (rank + 5) for rank in range(len(self.content))))

    def words(self, rng: random.Random, n: int) -> list[str]:
        picked = rng.choices(self.content, cum_weights=self._cum_weights, k=n)
        return [rng.choice(FUNCTION_WORDS) if rng.random() < 0.45 else word for word in picked]


def _sentence(words: list[str], end: str = ".") -> str:
    text = " ".join(words)
    return text[:1].upper() + text[1:] + end


def _claim_text(rng: random.Random, lex: Lexicon, entities: list[str], n_words: int) -> str:
    body = lex.words(rng, n_words)
    for entity in entities:
        body.insert(rng.randrange(1, len(body)), entity)
    body.insert(rng.randrange(len(body)), str(rng.randint(2, 990)))
    return _sentence(body)


def _evidence_sentence(rng: random.Random, lex: Lexicon, claim_words: list[str], entities: list[str]) -> str:
    body = lex.words(rng, rng.randint(8, 22))
    for _ in range(rng.randint(0, 3) if claim_words else 0):
        body.insert(rng.randrange(len(body) + 1), rng.choice(claim_words))
    roll = rng.random()
    if roll < 0.12:
        body.insert(rng.randrange(len(body) + 1), rng.choice(HEDGE_WORDS))
    elif roll < 0.16:
        body[:0] = rng.choice(DISCOURSE_MARKERS).split()
    if entities and rng.random() < 0.25:
        body.insert(rng.randrange(len(body) + 1), rng.choice(entities))
    if rng.random() < 0.04:
        body.insert(rng.randrange(len(body) + 1), rng.choice(("True", "False")))
    return _sentence(body, rng.choice((".", ".", ".", "!", "?")))


def _passage(rng: random.Random, lex: Lexicon, claim: str, entities: list[str], n_words: int, repeat_claim: bool) -> str:
    claim_words = claim.rstrip(".").split()
    sentences: list[str] = []
    total = 0
    while total < n_words:
        sentence = _evidence_sentence(rng, lex, claim_words, entities)
        total += len(sentence.split())
        sentences.append(sentence)
    if repeat_claim:
        sentences.insert(rng.randrange(len(sentences) + 1), claim)
    return " ".join(sentences)


def _url(rng: random.Random, lex: Lexicon, domain: str) -> str:
    host = domain if rng.random() < 0.5 else "www." + domain
    return f"https://{host}/{rng.choice(lex.content)}-{rng.randint(1, 99999)}"


def _random_domain(rng: random.Random, lex: Lexicon) -> tuple[str, bool]:
    """A page domain and whether it is a fact-check domain."""
    roll = rng.random()
    if roll < 0.12:
        return rng.choice(FLAGGED_DOMAINS), False
    if roll < 0.32:
        return rng.choice(COVERED_DOMAINS), False
    if roll < 0.42:
        return rng.choice(FACT_CHECK_DOMAINS), True
    return f"{rng.choice(lex.content)}.example.org", False


def _claim_row(rng: random.Random, lex: Lexicon, index: int, claim_date: date, verdict_kind: str) -> tuple[dict, list[str]]:
    """A claim row; ``verdict_kind`` is "canonical", "mapped" (raw label the
    mapping table knows) or "unmapped" (raw label that drops the claim)."""
    # Entities picked by position keep each claim's length seed-independent.
    entities = [lex.entities[(2 * index + j) % len(lex.entities)] for j in range(1 + index % 2)]
    row = {
        "id": f"c{index:05d}",
        "text": _claim_text(rng, lex, entities, 6 + index % 9),
        "claimant": rng.choice(lex.entities) if index % 5 else None,
        "source": SOURCES[index % len(SOURCES)],
        "claim_date": claim_date.isoformat(),
    }
    if verdict_kind == "canonical":
        row["verdict"] = row["raw_verdict"] = rng.choice(CANONICAL_VERDICTS)
    else:
        row["raw_verdict"] = rng.choice(MAPPED_VERDICTS if verdict_kind == "mapped" else UNMAPPED_VERDICTS)
    return row, entities


def _quota(rng: random.Random, n: int, share: float) -> list[bool]:
    """Exactly ``round(share * n)`` True values in seeded order, so every
    seed gets the same mix and only the order and content differ."""
    flags = [index < round(share * n) for index in range(n)]
    rng.shuffle(flags)
    return flags


def _spread(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    """``n`` evenly spaced values from ``low`` to ``high`` in seeded order."""
    values = [low + (high - low) * index // max(n - 1, 1) for index in range(n)]
    rng.shuffle(values)
    return values


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def _random_date(rng: random.Random, start: date, days: int) -> date:
    return start + timedelta(days=rng.randrange(days))


def generate_druid(rng: random.Random, out: Path) -> dict:
    """Stance-annotated claims with evidence pieces of 150-300 words."""
    shape = SHAPES["druid"]
    lex = Lexicon(rng)
    n_claims = shape["claims"]
    n_pieces = n_claims * shape["pieces_per_claim"]
    low, high = shape["words_per_piece"]
    # One claim in twelve carries a raw verdict the mapping table drops.
    unmapped = _quota(rng, n_claims, 1 / 12)
    kinds = ["unmapped" if unmapped[index] else ("canonical", "mapped")[index % 2] for index in range(n_claims)]
    lengths = _spread(rng, n_pieces, low, high - 30)
    relevant = _quota(rng, n_pieces, 0.85)
    dated = _quota(rng, n_pieces, 0.85)
    annotated = _quota(rng, n_pieces, 0.3)
    repeats = _quota(rng, n_pieces, 0.1)
    gold = _quota(rng, n_pieces, 0.05)
    claims, evidence = [], []
    for index in range(n_claims):
        claim_date = _random_date(rng, date(2019, 1, 1), 5 * 365)
        claim, entities = _claim_row(rng, lex, index, claim_date, kinds[index])
        claims.append(claim)
        for ordinal in range(shape["pieces_per_claim"]):
            k = len(evidence)
            # Cycle the six stances so every stance has samples in every run.
            stance = STANCES[k % len(STANCES)]
            domain, fact_check = _random_domain(rng, lex)
            pub_date = claim_date + timedelta(days=rng.randint(-400, 400)) if dated[k] else None
            piece = {
                "id": f"{claim['id']}-e{ordinal}",
                "claim_id": claim["id"],
                "text": _passage(rng, lex, claim["text"], entities, lengths[k], repeats[k]),
                "url": _url(rng, lex, domain),
                "pub_date": None if pub_date is None else pub_date.isoformat(),
                "pub_after_claim": None if pub_date is None else pub_date > claim_date,
                "is_fact_check_source": fact_check,
                "is_gold_source": gold[k],
                "relevance": "relevant" if relevant[k] else "not-relevant",
                "stance": stance if relevant[k] else None,
                "annotator_labels": [],
            }
            if annotated[k]:
                labels = []
                for _ in range(2 + k % 2):
                    if rng.random() < 0.8:
                        labels.append(["relevant", stance if rng.random() < 0.7 else rng.choice(STANCES)])
                    else:
                        labels.append(["not-relevant", None])
                piece["annotator_labels"] = labels
            evidence.append(piece)
    _write_jsonl(out / "claims.jsonl", claims)
    _write_jsonl(out / "evidence.jsonl", evidence)
    return {"claims": n_claims, "unmapped_claims": sum(unmapped), "pairs": n_pieces}


def generate_retrieve(rng: random.Random, out: Path) -> dict:
    """Dated claims without evidence plus a fixture web corpus."""
    shape = SHAPES["retrieve"]
    lex = Lexicon(rng)
    n_claims, n_pages = shape["claims"], shape["pages"]
    claims, claim_entities = [], []
    for index in range(n_claims):
        claim, entities = _claim_row(rng, lex, index, _random_date(rng, date(2020, 1, 1), 3 * 365), "canonical")
        claims.append(claim)
        claim_entities.append(entities)
    _write_jsonl(out / "claims.jsonl", claims)

    # Every topic gets the same page layouts, whatever the seed, so each
    # claim's search, chunking and repeat filtering cost about the same.
    low, high = shape["paragraphs_per_page"]
    corpus = out / "corpus"
    corpus.mkdir()
    undated = _quota(rng, n_pages, 0.15)
    manifest = []
    for page in range(n_pages):
        # Each page is about one claim's topic, so searches rank pages apart.
        topic, layout = page % n_claims, page // n_claims
        claim_text = claims[topic]["text"]
        paragraphs = []
        for ordinal in range(low + layout * 5 % (high - low + 1)):
            position = layout * 7 + ordinal
            if position % 25 == 7:
                # A pull quote: the claim alone, which the repeat filter drops.
                paragraphs.append(claim_text)
                continue
            if position % 8 == 3:
                # Oversized background text: split into chunks, never chosen.
                paragraphs.append(_passage(rng, lex, "", [], 430, False))
                continue
            n_words = 60 + position * 7 % 31
            paragraphs.append(_passage(rng, lex, claim_text, claim_entities[topic], n_words, position % 7 == 1))
        name = f"page-{page:04d}.txt"
        (corpus / name).write_text("\n\n".join(paragraphs) + "\n", encoding="utf-8")
        domain, _ = _random_domain(rng, lex)
        entry = {"file": name, "url": _url(rng, lex, domain), "title": " ".join(lex.words(rng, 4))}
        if not undated[page]:
            entry["pub_date"] = _random_date(rng, date(2018, 1, 1), 7 * 365).isoformat()
        manifest.append(entry)
    (corpus / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    (out / "retrieve_config.json").write_text(
        json.dumps({"fact_check_domains": list(FACT_CHECK_DOMAINS)}), encoding="utf-8"
    )
    return {"claims": n_claims, "pages": n_pages, "undated_pages": sum(undated)}


_RELATIONS = ("is located in", "was born in", "plays the", "works for", "is a citizen of", "was founded by", "speaks", "is married to")


def generate_recast(rng: random.Random, out: Path) -> dict:
    """Short counterfact and conflictqa triplets, unique per record."""
    n = SHAPES["recast"]["triplets_per_dataset"]
    lex = Lexicon(rng, n_entities=3 * n + 1)
    # Entities picked by position keep text lengths seed-independent; the
    # subjects are distinct, so no two records recast to the same claim.
    entity = lex.entities
    counterfact = []
    for index in range(n):
        object_true, object_edited = entity[(n + 2 * index) % len(entity)], entity[(n + 2 * index + 1) % len(entity)]
        counterfact.append({
            "subject": entity[index],
            "relation": _RELATIONS[index % len(_RELATIONS)],
            "object_true": object_true,
            "object_edited": object_edited,
        })
    conflictqa = []
    lengths = _spread(rng, 2 * n, 15, 35)
    repeats = _quota(rng, n, 0.2)
    for index in range(n):
        holder, held = entity[(n + 2 * index) % len(entity)], entity[index]
        answer = f"{holder} {_RELATIONS[index % len(_RELATIONS)]} {held} since {1900 + index % 120}"
        conflictqa.append({
            "memory_answer": answer + f" ({index}).",
            "parametric_evidence": _passage(rng, lex, answer + ".", [], lengths[2 * index], repeats[index]),
            "counter_evidence": _passage(rng, lex, answer + ".", [], lengths[2 * index + 1], False),
        })
    _write_jsonl(out / "counterfact.jsonl", counterfact)
    _write_jsonl(out / "conflictqa.jsonl", conflictqa)
    return {"triplets": 2 * n}


GENERATORS = {
    "druid": generate_druid,
    "retrieve": generate_retrieve,
    "recast": generate_recast,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of ``workload`` for ``seed`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, out)

"""Evidence construction pipeline: search, chunk, filter, rerank, select.

Stages mirror the collection procedure for retrieved-evidence corpora:

1. fan out the claim to the configured search engines (top 20 each) and
   deduplicate by URL, keeping per-engine ranks for audit only;
2. split each page into paragraph chunks of at most 200 words;
3. drop sentences that near-repeat the claim (RougeL F-measure > 0.8);
4. rerank surviving chunks against the claim;
5. select the top 4 pages by maximum chunk score, requiring at least two
   pages published before the claim when dates allow;
6. assemble one evidence piece per page from its top 3 chunks, trimmed to
   at most 300 words.

Pinned conventions the sources leave open (sentence segmenter, chunk
separator, concatenation order) are recorded in every pipeline trace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import NamedTuple, Optional, Protocol, Sequence

from ._net import RETRIES, post_json, reply_shape
from .errors import InvariantViolation, RerankBackendError, SearchBackendError
from .model import ClaimRecord, EvidencePiece, fallback_id, in_domains, read_json, word_count, word_set, words

MAX_CHUNK_WORDS = 200
MAX_EVIDENCE_WORDS = 300
TOP_RESULTS_PER_ENGINE = 20
TOP_CHUNKS_PER_PAGE = 3
PAGES_PER_CLAIM = 4
MIN_PRECLAIM_PAGES = 2
CLAIM_REPEAT_THRESHOLD = 0.8
CHUNK_SEPARATOR = " "

_PARAGRAPH_RE = re.compile(r"\n\s*\n")
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")

#: Human-readable record of the pinned conventions, embedded in traces.
PIPELINE_CONVENTIONS = {
    "sentence_segmenter": "split after [.!?] followed by whitespace",
    "chunk_separator": repr(CHUNK_SEPARATOR),
    "chunk_concat_order": "descending rerank score",
    "rouge_variant": "LCS F-measure over word tokens",
}


@dataclass(frozen=True)
class SearchResult:
    """One deduplicated search hit; ranks are kept per engine but unused."""

    url: str
    rank_per_engine: tuple[tuple[str, int], ...]
    fetched_text: str
    pub_date: Optional[date] = None


@dataclass
class Chunk:
    """A paragraph-derived passage of at most 200 words. ``tokens``, set only when the text is
    its whitespace tokens joined by single spaces, stay until ``filter_claim_repeats`` takes them."""

    page_url: str
    ordinal: int
    text: str
    word_count: int
    rerank_score: Optional[float] = None
    tokens: Optional[list[str]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.word_count <= MAX_CHUNK_WORDS:
            raise InvariantViolation(
                "word_count", f"outside [1, {MAX_CHUNK_WORDS}]: {self.word_count}"
            )


class SearchClient(Protocol):
    name: str

    def search(self, query: str) -> list[SearchResult]:
        ...


class RerankClient(Protocol):
    def score(self, query: str, texts: Sequence[str]) -> list[float]:
        ...


# -- clients -----------------------------------------------------------------------

_BLOCK_TAGS = frozenset({
    "p", "div", "br", "li", "ul", "ol", "h1", "h2", "h3", "h4", "h5",
    "h6", "table", "tr", "blockquote", "section", "article", "header",
    "footer", "pre",
})


def html_to_text(html: str) -> str:
    """Flatten HTML to text with blank lines at block-element boundaries."""
    # Imported on first use: only a live search reply carrying HTML needs the parser.
    from html.parser import HTMLParser

    class BlockTextExtractor(HTMLParser):
        def __init__(self) -> None:
            super().__init__()
            self.parts: list[str] = []
            self._suppress = 0

        def handle_starttag(self, tag, attrs):
            if tag in ("script", "style"):
                self._suppress += 1
            if tag in _BLOCK_TAGS:
                self.parts.append("\n\n")

        def handle_endtag(self, tag):
            if tag in ("script", "style") and self._suppress:
                self._suppress -= 1
            if tag in _BLOCK_TAGS:
                self.parts.append("\n\n")

        def handle_data(self, data):
            if not self._suppress:
                self.parts.append(data)

    parser = BlockTextExtractor()
    parser.feed(html)
    return "".join(parser.parts)


class FixtureSearchClient:
    """Search over a local directory of text pages with a JSON manifest.

    The manifest is a list of objects with ``file``, ``url`` and optional
    ``pub_date`` fields; any ``title`` is ignored. Pages are ranked by how many distinct
    query words they contain; pages sharing no word with the query do not
    match. The manifest and every page are read, each entry's ``url`` and
    ``pub_date`` checked, and each page's word set built, once, when the
    client is built.
    """

    name = "fixture"

    def __init__(self, corpus_dir: Path):
        corpus_dir = Path(corpus_dir)
        manifest = read_json(corpus_dir / "manifest.json")
        self._pages: list[tuple[str, Optional[date], str, frozenset[str]]] = []
        for entry in manifest:
            url, pub_date = entry["url"], entry.get("pub_date")
            if not isinstance(url, str):
                raise TypeError(f"url must be a string, got {url!r}")
            text = (corpus_dir / entry["file"]).read_text(encoding="utf-8")
            self._pages.append((url, date.fromisoformat(pub_date) if pub_date else None, text, word_set(text)))

    def search(self, query: str) -> list[SearchResult]:
        query_words = word_set(query)
        scored = [
            (overlap, url, pub_date, text)
            for url, pub_date, text, page_words in self._pages
            if (overlap := len(query_words & page_words)) > 0
        ]
        scored.sort(key=lambda item: (-item[0], item[1]))
        return [
            SearchResult(url=url, rank_per_engine=((self.name, rank),), fetched_text=text, pub_date=pub_date)
            for rank, (_, url, pub_date, text) in enumerate(scored[:TOP_RESULTS_PER_ENGINE], start=1)
        ]


class HttpSearchClient:
    """Search backend speaking JSON over HTTP.

    Request: ``{"query": str, "top_k": int}``. Response: ``{"results":
    [{"url", "text", "pub_date"?, "html"?}]}``; any ``title`` is ignored.
    HTML bodies are flattened to text locally.
    """

    def __init__(self, endpoint: str, name: str, timeout: float = 30.0):
        self.name = name
        self._endpoint = endpoint
        self._timeout = timeout

    def search(self, query: str) -> list[SearchResult]:
        data = post_json(
            self._endpoint,
            {"query": query, "top_k": TOP_RESULTS_PER_ENGINE},
            self._timeout,
            RETRIES,
            SearchBackendError,
        )
        items = data.get("results", [])
        results = []
        with reply_shape(self._endpoint, SearchBackendError):
            if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
                raise TypeError("results must be a list of objects")
            for rank, item in enumerate(items[:TOP_RESULTS_PER_ENGINE], start=1):
                url = item["url"]
                text = item.get("text") or html_to_text(item.get("html", ""))
                if not isinstance(url, str) or not isinstance(text, str):
                    raise TypeError("url and text must be strings")
                pub_date = item.get("pub_date")
                results.append(
                    SearchResult(
                        url=url,
                        rank_per_engine=((self.name, rank),),
                        fetched_text=text,
                        pub_date=date.fromisoformat(pub_date) if pub_date else None,
                    )
                )
        return results


class LexicalOverlapReranker:
    """Deterministic stand-in scorer: coverage of query words by the chunk."""

    def score(self, query: str, texts: Sequence[str]) -> list[float]:
        query_words = word_set(query)
        if not query_words:
            return [0.0 for _ in texts]
        return [
            len(query_words.intersection(words(text))) / len(query_words) for text in texts
        ]


class HttpRerankClient:
    """Rerank backend speaking JSON over HTTP.

    Request: ``{"query": str, "documents": [str]}``; response:
    ``{"scores": [float]}`` aligned with the request order.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self._endpoint = endpoint
        self._timeout = timeout

    def score(self, query: str, texts: Sequence[str]) -> list[float]:
        data = post_json(
            self._endpoint,
            {"query": query, "documents": list(texts)},
            self._timeout,
            RETRIES,
            RerankBackendError,
        )
        scores = data.get("scores")
        if not isinstance(scores, list) or len(scores) != len(texts):
            raise RerankBackendError("malformed scores payload")
        with reply_shape(self._endpoint, RerankBackendError):
            if not all(type(score) in (int, float) for score in scores):
                raise TypeError("scores must be numbers")
            return [float(s) for s in scores]


# -- pipeline stages ---------------------------------------------------------------

def search(
    claim: ClaimRecord, engines: Sequence[SearchClient]
) -> list[SearchResult]:
    """Fan the claim text out to every engine and deduplicate by URL.

    First occurrence wins for page content; per-engine ranks are merged.
    """
    if not engines:
        raise SearchBackendError("no search client configured")
    merged: dict[str, SearchResult] = {}
    for engine in engines:
        for result in engine.search(claim.text):
            existing = merged.get(result.url)
            if existing is None:
                merged[result.url] = result
            else:
                merged[result.url] = replace(
                    existing,
                    rank_per_engine=existing.rank_per_engine + result.rank_per_engine,
                )
    return list(merged.values())


def chunk_page(page_text: str, page_url: str = "") -> list[Chunk]:
    """Paragraphs become chunks; oversized paragraphs split greedily."""
    chunks: list[Chunk] = []
    ordinal = 0
    for paragraph in map(str.strip, _PARAGRAPH_RE.split(page_text)):
        if not paragraph:
            continue
        tokens = paragraph.split()
        pieces = [tokens[start : start + MAX_CHUNK_WORDS] for start in range(0, len(tokens), MAX_CHUNK_WORDS)]
        for piece in pieces:
            text = " ".join(piece)
            exact = len(pieces) > 1 or text == paragraph
            chunks.append(Chunk(page_url, ordinal, text if exact else paragraph, len(piece), tokens=piece if exact else None))
            ordinal += 1
    return chunks


def split_sentences(text: str) -> list[str]:
    return [part for part in _SENTENCE_RE.split(text) if part.strip()]


class Reference(NamedTuple):
    """A RougeL reference text's word tokens and their ``lcs_length`` match masks."""

    tokens: list[str]
    masks: dict[str, int]

    @classmethod
    def of(cls, text: str) -> "Reference":
        tokens = text.split()
        masks: dict[str, int] = {}
        for j, token in enumerate(tokens):
            masks[token] = masks.get(token, 0) | (1 << j)
        return cls(tokens, masks)


def lcs_length(a: Sequence[str], b: Reference) -> int:
    """Longest common subsequence length of ``a`` and ``b``, bit-parallel over ``b``.

    Allison–Dix (1986) / Hyyrö (2004): bit j of ``row`` is 0 where the DP
    row of LCS lengths against ``b`` steps up at column j.
    """
    masks = b.masks
    full = (1 << len(b.tokens)) - 1
    row = full
    for token in a:
        matches = row & masks.get(token, 0)
        row = ((row + matches) | (row - matches)) & full
    return len(b.tokens) - row.bit_count()


def rouge_l(candidate: str, reference: Reference) -> float:
    """RougeL F-measure between a text and a reference over word tokens."""
    candidate_words = candidate.split()
    lcs = lcs_length(candidate_words, reference)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate_words)
    recall = lcs / len(reference.tokens)
    return 2 * precision * recall / (precision + recall)


def _shared_bound(tokens: Sequence[str], claim: Reference) -> int:
    """An upper bound on LCS(tokens, claim): how many claim tokens are among ``tokens``."""
    return sum(claim.masks[token].bit_count() for token in claim.masks.keys() & tokens)


def is_claim_repeat(lcs: int, m: int, n: int) -> bool:
    """Whether an m-token sentence with an LCS of ``lcs`` against the n-token
    claim has RougeL F = 2·lcs/(m+n) > 4/5 (``CLAIM_REPEAT_THRESHOLD``),
    decided in integers: a float F can land one ulp above 4/5."""
    return 5 * lcs > 2 * (m + n)


def filter_claim_repeats(chunk: Chunk, claim: Reference) -> Optional[Chunk]:
    """Remove sentences that near-repeat the claim (``is_claim_repeat``);
    drop emptied chunks.

    With LCS ≤ min(B, m, n) for B = ``_shared_bound``, a sentence with
    10·min(B, m, n) < 4·(m+n) has F < 4/5 and is kept without
    ``lcs_length``. As m ≥ LCS, F ≤ 2B/(B+n): when 3·B < 2·n for the whole
    chunk, no sentence in it is a repeat, and a chunk whose text is its
    tokens joined by single spaces is returned as is, unsplit. Otherwise the
    kept sentences are rejoined with single spaces, which normalises the
    whitespace after them; an unchanged chunk is returned as is. The
    chunk's ``tokens``, when ``chunk_page`` gave it some, stand in for
    splitting its text, and the filter takes them off the chunk.
    """
    # The integer tests encode CLAIM_REPEAT_THRESHOLD = 4/5; they change with it.
    n = len(claim.tokens)
    given, chunk.tokens = chunk.tokens, None
    tokens = given or chunk.text.split()
    if 3 * _shared_bound(tokens, claim) < 2 * n:
        if given or (tokens and " ".join(tokens) == chunk.text):
            return chunk
        sentences = split_sentences(chunk.text)
    else:
        sentences = []
        for sentence in split_sentences(chunk.text):
            tokens = sentence.split()
            m = len(tokens)
            if 10 * min(_shared_bound(tokens, claim), m, n) < 4 * (m + n) or (
                not is_claim_repeat(lcs_length(tokens, claim), m, n)
            ):
                sentences.append(sentence)
    if not sentences:
        return None
    text = " ".join(sentences)
    if text == chunk.text:
        return chunk
    return replace(chunk, text=text, word_count=word_count(text))


def rerank(claim: ClaimRecord, chunks: Sequence[Chunk], client: RerankClient) -> list[Chunk]:
    """Score every chunk in place; order by score desc, ties by ordinal then URL."""
    if not chunks:
        return []
    scores = client.score(claim.text, [chunk.text for chunk in chunks])
    for chunk, score in zip(chunks, scores):
        chunk.rerank_score = score
    return sorted(chunks, key=lambda c: (-c.rerank_score, c.ordinal, c.page_url))


@dataclass
class PageSelection:
    urls: list[str]
    shortfall: int = 0


def select_pages(
    claim: ClaimRecord,
    scored_chunks: Sequence[Chunk],
    pub_dates: dict[str, Optional[date]],
    k: int = PAGES_PER_CLAIM,
    min_preclaim: int = MIN_PRECLAIM_PAGES,
) -> PageSelection:
    """Top-k pages by maximum chunk score, honoring the pre-claim quota.

    The best ``min(min_preclaim, k)`` pages published before the claim are
    taken first, then the best remaining pages fill the free slots; the
    selection keeps score order. A remaining deficit (fewer pre-claim pages
    exist than required) is reported as ``shortfall``, never silently
    ignored. Claims without a date make the constraint inapplicable.
    """
    best_score: dict[str, float] = {}
    for chunk in scored_chunks:
        score = chunk.rerank_score if chunk.rerank_score is not None else 0.0
        if chunk.page_url not in best_score or score > best_score[chunk.page_url]:
            best_score[chunk.page_url] = score
    ordered = sorted(best_score, key=lambda url: (-best_score[url], url))
    if claim.claim_date is None:
        return PageSelection(urls=ordered[:k])

    preclaim = [
        url for url in ordered
        if (page_date := pub_dates.get(url)) is not None and page_date < claim.claim_date
    ]
    chosen = set(preclaim[:min(min_preclaim, k)])
    chosen.update([url for url in ordered if url not in chosen][:k - len(chosen)])
    return PageSelection(
        urls=[url for url in ordered if url in chosen],
        shortfall=max(0, min_preclaim - len(preclaim)),
    )


def assemble_evidence(
    claim: ClaimRecord,
    page_url: str,
    page_chunks: Sequence[Chunk],
    pub_date: Optional[date] = None,
    fact_check_domains: frozenset[str] = frozenset(),
) -> EvidencePiece:
    """Concatenate the page's top chunks into one evidence piece (≤ 300 words)."""
    ranked = sorted(
        page_chunks,
        key=lambda c: (-(c.rerank_score if c.rerank_score is not None else 0.0), c.ordinal),
    )
    take = min(TOP_CHUNKS_PER_PAGE, len(ranked))
    while take > 1 and sum(c.word_count for c in ranked[:take]) > MAX_EVIDENCE_WORDS:
        take -= 1
    text = CHUNK_SEPARATOR.join(chunk.text for chunk in ranked[:take])

    pub_after = None
    if pub_date is not None and claim.claim_date is not None:
        pub_after = pub_date > claim.claim_date
    return EvidencePiece(
        id=fallback_id(claim.id, page_url, text),
        claim_id=claim.id,
        text=text,
        url=page_url,
        pub_date=pub_date,
        is_fact_check_source=in_domains(page_url, fact_check_domains),
        pub_after_claim=pub_after,
        relevance=None,
        stance=None,
    )


def run_pipeline(
    claim: ClaimRecord,
    engines: Sequence[SearchClient],
    reranker: RerankClient,
    fact_check_domains: frozenset[str] = frozenset(),
) -> tuple[list[EvidencePiece], dict]:
    """Full per-claim pipeline; returns evidence pieces plus an audit trace."""
    results = search(claim, engines)
    pub_dates = {result.url: result.pub_date for result in results}
    reference = Reference.of(claim.text)

    all_chunks: list[Chunk] = []
    dropped = 0
    for result in results:
        for chunk in chunk_page(result.fetched_text, page_url=result.url):
            filtered = filter_claim_repeats(chunk, reference)
            if filtered is None:
                dropped += 1
            else:
                all_chunks.append(filtered)

    scored = rerank(claim, all_chunks, reranker)
    selection = select_pages(claim, scored, pub_dates)
    evidences = []
    for url in selection.urls:
        page_chunks = [chunk for chunk in scored if chunk.page_url == url]
        evidences.append(
            assemble_evidence(
                claim,
                url,
                page_chunks,
                pub_date=pub_dates.get(url),
                fact_check_domains=fact_check_domains,
            )
        )

    trace = {
        "claim_id": claim.id,
        "conventions": PIPELINE_CONVENTIONS,
        "results": [
            {"url": r.url, "ranks": dict(r.rank_per_engine)} for r in results
        ],
        "chunks_kept": len(all_chunks),
        "chunks_dropped_as_claim_repeats": dropped,
        "selected_pages": selection.urls,
        "preclaim_shortfall": selection.shortfall,
    }
    return evidences, trace

"""Retrieval pipeline: chunking, claim-repeat filtering, rerank, assembly."""

import json
import random
import re
from datetime import date
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from contextmeter import retrieval as rt
from contextmeter.characteristics import word_set
from contextmeter.errors import InvariantViolation, SearchBackendError
from contextmeter.model import read_json
from contextmeter.retrieval import Chunk, SearchResult

from conftest import make_claim

CLAIM_TEXT = "The red lighthouse on Gull Island was built in 1932."


def lighthouse_claim(**kwargs):
    kwargs.setdefault("text", CLAIM_TEXT)
    kwargs.setdefault("claim_date", date(2020, 1, 1))
    return make_claim(**kwargs)


def rouge_l(candidate, reference_text):
    return rt.rouge_l(candidate, rt.Reference.of(reference_text))


def lcs_length(a, b):
    return rt.lcs_length(a, rt.Reference.of(" ".join(b)))


def filter_claim_repeats(chunk, claim):
    return rt.filter_claim_repeats(chunk, rt.Reference.of(claim.text))


class FakeEngine:
    def __init__(self, name, urls):
        self.name = name
        self._urls = urls

    def search(self, query):
        return [
            SearchResult(
                url=url,
                rank_per_engine=((self.name, i + 1),),
                fetched_text="some words here",
            )
            for i, url in enumerate(self._urls)
        ]


class TestChunking:
    def test_short_paragraph_single_chunk(self):
        text = " ".join(f"w{i}" for i in range(150))
        chunks = rt.chunk_page(text, "https://x.example/a")
        assert [c.word_count for c in chunks] == [150]

    def test_long_paragraph_greedy_split(self):
        text = " ".join(f"w{i}" for i in range(450))
        chunks = rt.chunk_page(text, "https://x.example/a")
        assert [c.word_count for c in chunks] == [200, 200, 50]
        assert [c.ordinal for c in chunks] == [0, 1, 2]

    def test_paragraph_boundaries_respected(self):
        chunks = rt.chunk_page("para one words here.\n\nsecond paragraph words.")
        assert [(c.ordinal, c.word_count) for c in chunks] == [(0, 4), (1, 3)]

    def test_blank_page_yields_nothing(self):
        assert rt.chunk_page("   \n\n  ") == []

    def test_chunk_word_count_invariant(self):
        with pytest.raises(InvariantViolation):
            Chunk(page_url="u", ordinal=0, text="two words", word_count=0)
        with pytest.raises(InvariantViolation):
            Chunk(
                page_url="u",
                ordinal=0,
                text="x",
                word_count=rt.MAX_CHUNK_WORDS + 1,
            )

    @given(n_words=st.integers(min_value=1, max_value=1000))
    def test_no_chunk_exceeds_cap(self, n_words):
        text = " ".join(f"w{i}" for i in range(n_words))
        chunks = rt.chunk_page(text)
        assert all(c.word_count <= rt.MAX_CHUNK_WORDS for c in chunks)
        assert sum(c.word_count for c in chunks) == n_words


class TestRouge:
    def test_identical(self):
        assert rouge_l("the cat sat", "the cat sat") == pytest.approx(1.0)

    def test_prefix(self):
        # LCS = 2; precision 1, recall 1/3, F = 0.5
        assert rouge_l("the cat", "the cat sat on the mat") == pytest.approx(0.5)

    def test_disjoint(self):
        assert rouge_l("alpha beta", "gamma delta") == 0.0

    def test_lcs_against_brute_force(self):
        def brute(a, b):
            # recursive LCS, fine for tiny inputs
            if not a or not b:
                return 0
            if a[-1] == b[-1]:
                return 1 + brute(a[:-1], b[:-1])
            return max(brute(a[:-1], b), brute(a, b[:-1]))

        rng = random.Random(11)
        vocab = ["a", "b", "c", "d"]
        for _ in range(100):
            a = rng.choices(vocab, k=rng.randint(0, 7))
            b = rng.choices(vocab, k=rng.randint(0, 7))
            assert lcs_length(a, b) == brute(a, b)


def dp_lcs_length(a, b):
    """The row-by-row DP that ``lcs_length`` replaced, kept as the reference."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token in a:
        current = [0]
        for j, other in enumerate(b, start=1):
            if token == other:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def dp_rouge_l(candidate, reference):
    candidate_words = candidate.split()
    reference_words = reference.split()
    lcs = dp_lcs_length(candidate_words, reference_words)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate_words)
    recall = lcs / len(reference_words)
    return 2 * precision * recall / (precision + recall)


def exact_f(candidate, reference):
    """RougeL F = 2·LCS/(m+n) as an exact fraction, from the DP LCS."""
    candidate_words, reference_words = candidate.split(), reference.split()
    lcs = dp_lcs_length(candidate_words, reference_words)
    return Fraction(2 * lcs, len(candidate_words) + len(reference_words))


def kept_by_the_rule(sentence, claim_text):
    """The paper's rule, exactly: a sentence stays unless RougeL F > 0.8."""
    return exact_f(sentence, claim_text) <= Fraction(4, 5)


SMALL_VOCAB = st.sampled_from(["a", "b", "c", "d"])


class TestBitParallelLcs:
    @given(
        a=st.lists(SMALL_VOCAB, max_size=40),
        b=st.lists(SMALL_VOCAB, max_size=150),
    )
    def test_matches_dp(self, a, b):
        assert lcs_length(a, b) == dp_lcs_length(a, b)

    @given(
        a=st.lists(SMALL_VOCAB, min_size=1, max_size=30),
        b=st.lists(SMALL_VOCAB, min_size=65, max_size=200),
    )
    def test_matches_dp_beyond_one_machine_word(self, a, b):
        assert lcs_length(a, b) == dp_lcs_length(a, b)
        assert lcs_length(b, a) == dp_lcs_length(b, a)

    def test_empty_sides(self):
        assert lcs_length([], ["a", "b"]) == 0
        assert lcs_length(["a", "b"], []) == 0
        assert lcs_length([], []) == 0

    def test_repeated_tokens(self):
        assert lcs_length(["a"] * 100, ["a"] * 70) == 70
        assert lcs_length(["a", "b"] * 50, ["b", "a"] * 40) == 80
        assert lcs_length(["x"] * 5, ["a"] * 80) == 0


class TestClaimRepeatDecisions:
    CLAIM = "Gull Island lighthouse stands tall."

    def test_f_exactly_at_threshold_is_kept(self):
        # 4 of the sentence's 6 words and all 4 claim words: p = 2/3, r = 1,
        # and 2pr/(p+r) is exactly 0.8 in floats, which is not "> 0.8".
        claim = lighthouse_claim(text="Gull Island lighthouse stands.")
        sentence = "Gull Island old lighthouse still stands."
        assert rouge_l(sentence, claim.text) == 0.8
        chunk = Chunk(page_url="u", ordinal=0, text=sentence, word_count=6)
        assert filter_claim_repeats(chunk, claim) == chunk

    def test_f_one_ulp_above_threshold_in_floats_is_kept(self):
        # p = r = 4/5 gives 0.8000000000000002 in floats, but F is exactly 4/5.
        claim = lighthouse_claim(text=self.CLAIM)
        sentence = "Gull Island lighthouse stands proud."
        assert rouge_l(sentence, claim.text) == dp_rouge_l(sentence, claim.text) > 0.8
        assert exact_f(sentence, claim.text) == Fraction(4, 5)
        chunk = Chunk(page_url="u", ordinal=0, text=sentence, word_count=5)
        assert filter_claim_repeats(chunk, claim) is chunk

    def test_decision_is_exact_for_every_length_up_to_300(self):
        # Every LCS within 1 of the boundary 2(m+n)/5, plus none and the most.
        for n in range(1, 301):
            for m in range(1, 301):
                top, boundary = min(m, n), 2 * (m + n)
                near = [lcs for lcs in range(boundary // 5 - 1, boundary // 5 + 3) if abs(5 * lcs - boundary) <= 5]
                for lcs in {0, top, *(lcs for lcs in near if lcs <= top)}:
                    assert rt.is_claim_repeat(lcs, m, n) == (Fraction(2 * lcs, m + n) > Fraction(4, 5)), (lcs, m, n)

    def test_filter_applies_the_exact_decision(self):
        # A sentence of the claim's first ``lcs`` tokens padded with non-claim
        # tokens to m, for every m, n up to 40 and every LCS.
        for n in range(1, 41):
            claim_tokens = [f"c{j}" for j in range(n)]
            claim = rt.Reference.of(" ".join(claim_tokens))
            for m in range(1, 41):
                for lcs in range(min(m, n) + 1):
                    text = " ".join(claim_tokens[:lcs] + ["x"] * (m - lcs))
                    chunk = Chunk(page_url="u", ordinal=0, text=text, word_count=m)
                    expected = chunk if Fraction(2 * lcs, m + n) <= Fraction(4, 5) else None
                    assert rt.filter_claim_repeats(chunk, claim) is expected, (lcs, m, n)

    def test_whitespace_tokens_keep_case_and_punctuation(self):
        # The claim's whitespace tokens against the sentence's: "Vaccines" and
        # "vaccines", "children" and "children." are different tokens.
        claim = rt.Reference.of("Vaccines cause autism in children")
        cases = {
            'Some say: "Vaccines cause autism in children."': Fraction(1, 2),
            "vaccines cause autism in children": Fraction(4, 5),
            "Vaccines cause autism in children.": Fraction(4, 5),
            "Vaccines cause autism in children": Fraction(1),
        }
        for sentence, f in cases.items():
            assert exact_f(sentence, " ".join(claim.tokens)) == f
            chunk = Chunk(page_url="u", ordinal=0, text=sentence, word_count=len(sentence.split()))
            assert rt.filter_claim_repeats(chunk, claim) is (chunk if f <= Fraction(4, 5) else None)

    @given(
        sentences=st.lists(
            st.lists(st.sampled_from(["Gull", "Island", "lighthouse", "stands", "tall.", "old"]),
                     min_size=1, max_size=12),
            min_size=1, max_size=6,
        )
    )
    @example(sentences=[["Gull", "Gull", "Island", "lighthouse", "tall."]])
    def test_decisions_match_dp_rouge(self, sentences):
        claim = lighthouse_claim(text=self.CLAIM)
        texts = [" ".join(words).rstrip(".") + "." for words in sentences]
        for text in texts:
            assert rouge_l(text, claim.text) == dp_rouge_l(text, claim.text)
        text = " ".join(texts)
        chunk = Chunk(page_url="u", ordinal=0, text=text, word_count=len(text.split()))
        kept = [s for s in rt.split_sentences(text) if kept_by_the_rule(s, claim.text)]
        filtered = filter_claim_repeats(chunk, claim)
        if kept:
            assert filtered.text == " ".join(kept)
            if filtered.text == text:
                assert filtered is chunk
        else:
            assert filtered is None

    GAPS = [" ", "  ", "\n", ".\n", " \n\t", "\t", "\xa0", "\u3000", "\x1c", "\x85"]

    @given(
        claim=st.lists(st.sampled_from(["Gull", "Island", "gull", "lighthouse", "the", "the."]), min_size=1, max_size=8),
        lead=st.one_of(st.just(""), st.sampled_from([" ", "\n ", "\xa0"])),
        sentences=st.lists(
            st.tuples(
                st.lists(st.sampled_from(["Gull", "Island", "gull", "the", "lighthouse", "cove", "old", "1932"]),
                         min_size=1, max_size=12),
                st.sampled_from([".", "!", "?", ""]),
                st.one_of(st.just(" "), st.sampled_from(GAPS)),
            ),
            min_size=1, max_size=6,
        ),
        last_gap=st.booleans(),
        tail=st.one_of(st.just(""), st.sampled_from([" ", "\n", "\u3000"])),
    )
    @example(claim=["the", "the", "gull"], lead="", sentences=[(["the", "the", "gull"], "", " ")], last_gap=False, tail="")
    @example(claim=["Gull", "Island", "lighthouse", "the", "gull"], lead="",
             sentences=[(["Gull", "Island", "lighthouse", "the", "cove"], ".", " ")], last_gap=False, tail="")
    @example(claim=["stands"], lead="", sentences=[(["Gull", "cove"], ".", " "), (["old"], "!", " ")], last_gap=False, tail="")
    @example(claim=["stands"], lead=" ", sentences=[(["Gull"], ".", "\x85"), (["old", "cove"], ".", "\t")], last_gap=True, tail="")
    @example(claim=["stands"], lead="\n ", sentences=[], last_gap=False, tail="\u3000")
    def test_pruned_filter_matches_dp_rouge(self, claim, lead, sentences, last_gap, tail):
        # Claims with repeated tokens, sentence words outside the claim, runs
        # and kinds of whitespace around sentence ends and at either end of
        # the text, and whitespace-only texts, against the exact rule on the
        # DP LCS. Single-space texts of settled chunks take the unsplit path.
        claim_text = " ".join(claim)
        body = "".join(" ".join(words) + end + gap for words, end, gap in sentences)
        text = lead + (body if last_gap else body.rstrip()) + tail
        chunk = Chunk(page_url="u", ordinal=0, text=text, word_count=max(1, len(text.split())))
        kept = [s for s in rt.split_sentences(text) if kept_by_the_rule(s, claim_text)]
        filtered = rt.filter_claim_repeats(chunk, rt.Reference.of(claim_text))
        if not kept:
            assert filtered is None
            return
        assert (filtered.text, filtered.word_count) == (" ".join(kept), len(" ".join(kept).split()))
        if filtered.text == text:
            assert filtered is chunk

    @pytest.mark.parametrize("text", ["", " ", "\n\t", "\xa0\u3000", "\x1c\x85"])
    @pytest.mark.parametrize("claim_text", [CLAIM, ""])
    def test_empty_and_whitespace_only_texts_are_dropped(self, text, claim_text):
        chunk = Chunk(page_url="u", ordinal=0, text=text, word_count=1)
        assert rt.filter_claim_repeats(chunk, rt.Reference.of(claim_text)) is None

    def test_unchanged_chunk_is_returned_as_is(self):
        claim = rt.Reference.of(self.CLAIM)
        chunk = Chunk(page_url="u", ordinal=0, text="Gull Island birds. Cove walks!", word_count=5)
        assert rt.filter_claim_repeats(chunk, claim) is chunk
        spaced = Chunk(page_url="u", ordinal=0, text="Gull Island birds.\n  Cove walks!", word_count=5)
        assert rt.filter_claim_repeats(spaced, claim).text == chunk.text


class TestClaimRepeatFilter:
    def test_repeat_sentence_removed(self):
        claim = lighthouse_claim()
        text = (
            f"{CLAIM_TEXT} Other facts about the island abound. "
            "Fishermen use the cove."
        )
        chunk = Chunk(page_url="u", ordinal=0, text=text,
                      word_count=len(text.split()))
        kept = filter_claim_repeats(chunk, claim)
        assert kept.text == (
            "Other facts about the island abound. Fishermen use the cove."
        )
        assert kept.word_count == 10

    def test_chunk_reduced_to_nothing_dropped(self):
        claim = lighthouse_claim()
        chunk = Chunk(page_url="u", ordinal=0, text=CLAIM_TEXT,
                      word_count=len(CLAIM_TEXT.split()))
        assert filter_claim_repeats(chunk, claim) is None

    def test_unrelated_chunk_untouched(self):
        claim = lighthouse_claim()
        chunk = Chunk(page_url="u", ordinal=1,
                      text="Nothing related here at all.", word_count=5)
        kept = filter_claim_repeats(chunk, claim)
        assert kept.text == chunk.text
        assert kept.ordinal == 1

    def test_near_paraphrase_above_threshold_removed(self):
        claim = lighthouse_claim()
        text = "The red lighthouse on Gull Island was built in 1932 indeed."
        chunk = Chunk(page_url="u", ordinal=0, text=text,
                      word_count=len(text.split()))
        assert filter_claim_repeats(chunk, claim) is None


def rereading_search(corpus_dir, query):
    """The fixture search that re-read every page per query, as reference."""
    scored = []
    for entry in json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8")):
        text = (corpus_dir / entry["file"]).read_text(encoding="utf-8")
        overlap = len(word_set(query) & word_set(text))
        if overlap > 0:
            scored.append((overlap, entry["url"], entry, text))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [
        SearchResult(
            url=url,
            rank_per_engine=(("fixture", rank),),
            fetched_text=text,
            pub_date=date.fromisoformat(entry["pub_date"]) if entry.get("pub_date") else None,
        )
        for rank, (_, url, entry, text) in enumerate(scored[: rt.TOP_RESULTS_PER_ENGINE], start=1)
    ]


class TestSearch:
    def test_duplicate_urls_merge_ranks(self):
        claim = lighthouse_claim()
        results = rt.search(
            claim,
            [
                FakeEngine("e1", ["https://a.example/x", "https://b.example/y"]),
                FakeEngine("e2", ["https://b.example/y", "https://c.example/z"]),
            ],
        )
        by_url = {r.url: r for r in results}
        assert len(results) == 3
        assert by_url["https://b.example/y"].rank_per_engine == (
            ("e1", 2),
            ("e2", 1),
        )

    def test_no_engines_rejected(self):
        with pytest.raises(SearchBackendError):
            rt.search(lighthouse_claim(), [])

    def test_fixture_client_ranks_by_word_overlap(self, fixture_corpus_dir):
        claim = lighthouse_claim()
        results = rt.search(claim, [rt.FixtureSearchClient(fixture_corpus_dir)])
        # exactly three of the five fixture pages share words with the claim
        assert [r.url for r in results] == [
            "https://history.example.org/gull-island",
            "https://registry.example.net/lighthouses",
            "https://wildlife.example.com/gull-island",
        ]
        assert [r.rank_per_engine for r in results] == [
            (("fixture", 1),),
            (("fixture", 2),),
            (("fixture", 3),),
        ]
        assert results[0].pub_date == date(1998, 4, 12)

    def test_fixture_client_reads_each_page_once(self, fixture_corpus_dir, monkeypatch):
        reads = []
        original = Path.read_text

        def counting_read_text(self, *args, **kwargs):
            reads.append(self.name)
            return original(self, *args, **kwargs)

        def counting_read_json(path):
            reads.append(path.name)
            return read_json(path)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        monkeypatch.setattr(rt, "read_json", counting_read_json)  # the manifest's reader
        client = rt.FixtureSearchClient(fixture_corpus_dir)
        queries = [CLAIM_TEXT, "gull island birds", "soup recipe", CLAIM_TEXT, "nothing matches zzz"]
        results = [client.search(query) for query in queries]
        pages = sorted(p.name for p in fixture_corpus_dir.glob("*.txt"))
        assert sorted(reads) == sorted([*pages, "manifest.json"])

        monkeypatch.setattr(Path, "read_text", original)
        assert results[4] == []
        assert results == [rereading_search(fixture_corpus_dir, query) for query in queries]


class TestRerank:
    def test_scores_fraction_of_claim_words(self):
        claim = lighthouse_claim()
        scores = rt.LexicalOverlapReranker().score(
            claim.text, ["island red lighthouse", "soup recipe"]
        )
        assert scores == [pytest.approx(0.3), 0.0]

    def test_sort_score_then_ordinal_then_url(self):
        claim = lighthouse_claim()
        chunks = [
            Chunk(page_url="zz", ordinal=1, text="island red", word_count=2),
            Chunk(page_url="aa", ordinal=1, text="island red", word_count=2),
            Chunk(page_url="aa", ordinal=0, text="island red", word_count=2),
        ]
        ranked = rt.rerank(claim, chunks, rt.LexicalOverlapReranker())
        assert [(c.page_url, c.ordinal) for c in ranked] == [
            ("aa", 0),
            ("aa", 1),
            ("zz", 1),
        ]
        assert all(c.rerank_score == pytest.approx(0.2) for c in ranked)

    @given(
        query=st.lists(st.sampled_from(["Red", "red", "island,", "the", "1932"]), max_size=6).map(" ".join),
        texts=st.lists(
            st.lists(st.sampled_from(["red", "Island", "the-island", "soup", "1932."]), max_size=8).map(" ".join),
            max_size=4,
        ),
    )
    def test_scores_match_word_set_coverage(self, query, texts):
        query_words = word_set(query)
        expected = [
            len(query_words & word_set(text)) / len(query_words) if query_words else 0.0
            for text in texts
        ]
        assert rt.LexicalOverlapReranker().score(query, texts) == expected


class TestSelectPages:
    def _chunk(self, url, score):
        return Chunk(page_url=url, ordinal=0, text="x y", word_count=2,
                     rerank_score=score)

    def test_preclaim_quota_swaps_lowest_picks(self):
        claim = lighthouse_claim()
        scored = [self._chunk(f"u{i}", 0.9 - 0.1 * i) for i in range(5)]
        dates = {
            "u0": date(2021, 1, 1),
            "u1": date(2021, 1, 1),
            "u2": date(2021, 1, 1),
            "u3": date(2019, 1, 1),
            "u4": date(2018, 1, 1),
        }
        selection = rt.select_pages(claim, scored, dates)
        # u2, the weakest post-claim pick, is displaced by pre-claim pages
        assert selection.urls == ["u0", "u1", "u3", "u4"]
        assert selection.shortfall == 0

    def test_shortfall_reported_when_no_preclaim_pages(self):
        claim = lighthouse_claim()
        scored = [self._chunk(f"u{i}", 0.9 - 0.1 * i) for i in range(5)]
        dates = {f"u{i}": date(2021, 1, 1) for i in range(5)}
        selection = rt.select_pages(claim, scored, dates)
        assert selection.urls == ["u0", "u1", "u2", "u3"]
        assert selection.shortfall == 2

    def test_dateless_claim_has_no_quota(self):
        claim = make_claim(text="x y.", claim_date=None)
        scored = [self._chunk(f"u{i}", 0.9 - 0.1 * i) for i in range(5)]
        dates = {f"u{i}": date(2021, 1, 1) for i in range(5)}
        selection = rt.select_pages(claim, scored, dates)
        assert selection.urls == ["u0", "u1", "u2", "u3"]
        assert selection.shortfall == 0

    def test_fewer_pages_than_k(self):
        claim = lighthouse_claim()
        scored = [self._chunk("only", 0.5)]
        selection = rt.select_pages(claim, scored, {"only": date(2019, 1, 1)})
        assert selection.urls == ["only"]


def swap_loop_select_pages(claim, scored_chunks, pub_dates, k, min_preclaim):
    """The top-k-then-swap page selector that quota-first selection
    replaced, kept as the reference it must agree with."""
    best_score = {}
    for chunk in scored_chunks:
        score = chunk.rerank_score if chunk.rerank_score is not None else 0.0
        if chunk.page_url not in best_score or score > best_score[chunk.page_url]:
            best_score[chunk.page_url] = score
    ordered = sorted(best_score, key=lambda url: (-best_score[url], url))

    def is_preclaim(url):
        page_date = pub_dates.get(url)
        return (
            claim.claim_date is not None
            and page_date is not None
            and page_date < claim.claim_date
        )

    selection = ordered[:k]
    if claim.claim_date is None:
        return selection, 0

    preclaim_available = [url for url in ordered if is_preclaim(url)]
    needed = min(min_preclaim, len(preclaim_available))
    shortfall = min_preclaim - len(preclaim_available) if len(preclaim_available) < min_preclaim else 0

    selected_preclaim = [url for url in selection if is_preclaim(url)]
    if len(selected_preclaim) < needed:
        replacements = [url for url in preclaim_available if url not in selection]
        for url in reversed(selection):
            if len(selected_preclaim) >= needed or not replacements:
                break
            if not is_preclaim(url):
                selection.remove(url)
                incoming = replacements.pop(0)
                selection.append(incoming)
                selected_preclaim.append(incoming)
        selection.sort(key=lambda url: (-best_score[url], url))
    return selection, shortfall


POOL_URLS = [f"u{i}" for i in range(8)]
CLAIM_DAY = date(2020, 1, 1)


class TestSelectPagesMatchesSwapLoop:
    @given(
        pool=st.lists(
            st.tuples(st.sampled_from(POOL_URLS), st.sampled_from([None, 0.0, 0.25, 0.5, 1.0])),
            max_size=12,
        ),
        dates=st.dictionaries(
            st.sampled_from(POOL_URLS),
            st.sampled_from([None, date(2019, 1, 1), date(2019, 12, 31), CLAIM_DAY, date(2021, 1, 1)]),
        ),
        claim_date=st.sampled_from([None, CLAIM_DAY]),
        k=st.integers(min_value=1, max_value=5),
        min_preclaim=st.integers(min_value=0, max_value=5),
    )
    def test_same_pages_and_shortfall(self, pool, dates, claim_date, k, min_preclaim):
        claim = make_claim(claim_date=claim_date)
        chunks = [
            Chunk(page_url=url, ordinal=i, text="x y", word_count=2, rerank_score=score)
            for i, (url, score) in enumerate(pool)
        ]
        selection = rt.select_pages(claim, chunks, dates, k=k, min_preclaim=min_preclaim)
        expected = swap_loop_select_pages(claim, chunks, dates, k, min_preclaim)
        assert (selection.urls, selection.shortfall) == expected


class TestAssembleEvidence:
    def _chunks(self, n, words_each=150):
        body = " ".join(f"w{i}" for i in range(words_each))
        return [
            Chunk(page_url="u", ordinal=i, text=body, word_count=words_each,
                  rerank_score=1.0 - 0.1 * i)
            for i in range(n)
        ]

    def test_reduces_chunk_count_to_fit_cap(self):
        claim = lighthouse_claim()
        evidence = rt.assemble_evidence(
            claim, "https://site.example/page", self._chunks(3)
        )
        # three 150-word chunks exceed the cap; two fit exactly
        assert len(evidence.text.split()) == 300

    def test_single_oversize_page_keeps_top_chunk(self):
        claim = lighthouse_claim()
        evidence = rt.assemble_evidence(
            claim, "https://site.example/page", self._chunks(3, words_each=200)
        )
        assert len(evidence.text.split()) == 200

    def test_fact_check_domain_and_dates(self):
        claim = lighthouse_claim()
        evidence = rt.assemble_evidence(
            claim,
            "https://www.politifact.com/a",
            self._chunks(1),
            pub_date=date(2024, 1, 1),
            fact_check_domains=frozenset({"politifact.com"}),
        )
        assert evidence.is_fact_check_source is True
        assert evidence.pub_after_claim is True
        assert evidence.claim_id == claim.id

    def test_malformed_ipv6_url_is_no_fact_check_source(self):
        evidence = rt.assemble_evidence(
            lighthouse_claim(), "http://[abc", self._chunks(1), fact_check_domains=frozenset({"abc"})
        )
        assert evidence.is_fact_check_source is False

    def test_deterministic_id(self):
        claim = lighthouse_claim()
        first = rt.assemble_evidence(claim, "https://s.example/p", self._chunks(1))
        second = rt.assemble_evidence(claim, "https://s.example/p", self._chunks(1))
        assert first.id == second.id

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=200), min_size=1,
                       max_size=3)
    )
    def test_word_cap_invariant(self, sizes):
        claim = lighthouse_claim()
        chunks = [
            Chunk(page_url="u", ordinal=i,
                  text=" ".join(f"w{j}" for j in range(size)),
                  word_count=size, rerank_score=1.0 - 0.01 * i)
            for i, size in enumerate(sizes)
        ]
        evidence = rt.assemble_evidence(claim, "https://s.example/p", chunks)
        assert len(evidence.text.split()) <= rt.MAX_EVIDENCE_WORDS


class TestPipeline:
    def test_end_to_end_on_fixture_corpus(self, fixture_corpus_dir):
        claim = lighthouse_claim()
        engines = [rt.FixtureSearchClient(fixture_corpus_dir)]
        evidences, trace = rt.run_pipeline(
            claim, engines, rt.LexicalOverlapReranker()
        )
        assert [e.url for e in evidences] == [
            "https://registry.example.net/lighthouses",
            "https://history.example.org/gull-island",
            "https://wildlife.example.com/gull-island",
        ]
        for evidence in evidences:
            assert len(evidence.text.split()) <= rt.MAX_EVIDENCE_WORDS
            assert evidence.claim_id == claim.id
        # the history page carries the claim verbatim; that sentence must
        # not surface in the assembled evidence
        history = evidences[1]
        assert CLAIM_TEXT not in history.text
        assert trace["chunks_dropped_as_claim_repeats"] >= 1
        assert trace["conventions"] == rt.PIPELINE_CONVENTIONS
        assert trace["preclaim_shortfall"] == 0
        # registry page (2021-09-30) postdates the claim
        assert evidences[0].pub_after_claim is True
        assert evidences[1].pub_after_claim is False

    def test_pipeline_is_deterministic(self, fixture_corpus_dir):
        claim = lighthouse_claim()
        engines = [rt.FixtureSearchClient(fixture_corpus_dir)]
        first, trace_a = rt.run_pipeline(claim, engines, rt.LexicalOverlapReranker())
        second, trace_b = rt.run_pipeline(claim, engines, rt.LexicalOverlapReranker())
        assert first == second
        assert trace_a == trace_b


def splitting_chunk_page(page_text, page_url=""):
    """``chunk_page`` without tokens: every chunk leaves the filter to split its text."""
    chunks = []
    for paragraph in map(str.strip, re.split(r"\n\s*\n", page_text)):
        tokens = paragraph.split()
        pieces = [tokens[start : start + rt.MAX_CHUNK_WORDS] for start in range(0, len(tokens), rt.MAX_CHUNK_WORDS)]
        for piece in pieces:
            text = paragraph if len(pieces) == 1 else " ".join(piece)
            chunks.append(Chunk(page_url=page_url, ordinal=len(chunks), text=text, word_count=len(piece)))
    return chunks


def splitting_filter(chunk, claim):
    """The claim-repeat rule on every sentence, by the DP LCS."""
    kept = [s for s in rt.split_sentences(chunk.text) if kept_by_the_rule(s, " ".join(claim.tokens))]
    if not kept:
        return None
    text = " ".join(kept)
    return chunk if text == chunk.text else Chunk(chunk.page_url, chunk.ordinal, text, len(text.split()))


class PageEngine:
    name = "pages"

    def __init__(self, pages):
        self.pages = pages

    def search(self, query):
        return [
            SearchResult(url=url, rank_per_engine=((self.name, rank),), fetched_text=text, pub_date=pub_date)
            for rank, (url, pub_date, text) in enumerate(self.pages, start=1)
        ]


PAGE_WORDS = ["The", "red", "lighthouse", "Gull", "Island", "built", "1932.", "cove", "old!", "birds?", "Ünïcode"]
#: ASCII and non-ASCII whitespace that ``str.split`` splits at, single spaces weighted up.
PAGE_GAPS = [" "] * 6 + [
    "  ", "\n", " \n ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003", "\u3000",
]
PARAGRAPHS = st.one_of(
    st.lists(st.tuples(st.sampled_from(PAGE_WORDS), st.sampled_from(PAGE_GAPS)), min_size=1, max_size=40).map(
        lambda pairs: "".join(word + gap for word, gap in pairs)
    ),
    st.tuples(st.integers(201, 450), st.sampled_from(PAGE_GAPS)).map(
        lambda size_gap: size_gap[1].join(PAGE_WORDS[i % len(PAGE_WORDS)] for i in range(size_gap[0]))
    ),
    st.just(CLAIM_TEXT),
    st.sampled_from(PAGE_WORDS).map(lambda word: f"{word} cove. {CLAIM_TEXT}  Old birds!"),
)


class TestTokensHandedToTheFilter:
    @given(
        pages=st.lists(
            st.tuples(
                st.lists(PARAGRAPHS, min_size=1, max_size=6),
                st.sampled_from(["\n\n", "\n \n", "\n\t\n\n", "\n\xa0\n"]),
                st.sampled_from([None, date(2019, 5, 1), date(2021, 5, 1)]),
            ),
            min_size=1, max_size=5,
        )
    )
    @example(pages=[([CLAIM_TEXT + " " + " ".join(["cove"] * 300)], "\n\n", None)])
    def test_pipeline_matches_a_splitting_oracle(self, pages):
        claim = lighthouse_claim()
        engine = PageEngine([
            (f"https://{'www.' if i % 2 else ''}p{i}.example.org/a", pub_date, separator.join(paragraphs))
            for i, (paragraphs, separator, pub_date) in enumerate(pages)
        ])
        reference = rt.Reference.of(claim.text)
        for url, _, text in engine.pages:
            for chunk in rt.chunk_page(text, url):
                assert chunk.tokens is None or " ".join(chunk.tokens) == chunk.text
                filtered = rt.filter_claim_repeats(chunk, reference)
                assert chunk.tokens is None
                assert filtered is None or filtered.tokens is None
        domains = frozenset({"p1.example.org", "example.org"})
        actual = rt.run_pipeline(claim, [engine], rt.LexicalOverlapReranker(), domains)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rt, "chunk_page", splitting_chunk_page)
            patch.setattr(rt, "filter_claim_repeats", splitting_filter)
            assert actual == rt.run_pipeline(claim, [engine], rt.LexicalOverlapReranker(), domains)

    def test_every_piece_of_a_long_paragraph_carries_tokens(self):
        text = "\t".join(f"w{i}" for i in range(450))
        chunks = rt.chunk_page(text, "u")
        assert [chunk.tokens for chunk in chunks] == [text.split()[i : i + 200] for i in (0, 200, 400)]
        assert rt.chunk_page("two\tw0rds", "u")[0].tokens is None

    def test_a_rewritten_chunk_keeps_no_tokens(self):
        text = f"Old cove. {CLAIM_TEXT} Birds nest."
        chunk, = rt.chunk_page(text, "u")
        assert chunk.tokens == text.split()
        filtered = rt.filter_claim_repeats(chunk, rt.Reference.of(CLAIM_TEXT))
        assert (filtered.text, filtered.word_count, filtered.tokens) == ("Old cove. Birds nest.", 4, None)

    def test_rerank_scores_the_chunks_it_is_given(self):
        chunks = rt.chunk_page("island red\n\nsoup", "u")
        ranked = rt.rerank(lighthouse_claim(), chunks, rt.LexicalOverlapReranker())
        assert [id(c) for c in ranked] == [id(c) for c in chunks]
        assert [c.rerank_score for c in ranked] == [pytest.approx(0.2), 0.0]

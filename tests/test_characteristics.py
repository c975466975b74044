"""Context-characteristic detectors and corpus profiling."""

import math
import random
import re
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from contextmeter import characteristics as ch
from contextmeter import model
from contextmeter.analysis import GRID_CHARACTERISTICS
from contextmeter.errors import (
    DegenerateClaim,
    DegenerateText,
    MalformedUrl,
    UnparseableJudgement,
)
from contextmeter.model import CharacteristicVector, Reliability, canonical_json

from conftest import characteristic_vectors, make_claim, make_evidence

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]

V = ch.TextView.of


def jaccard(claim_text, evidence_text):
    return ch.jaccard(V(claim_text), V(evidence_text))


def claim_evidence_overlap(claim_text, evidence_text):
    return ch.claim_evidence_overlap(V(claim_text), V(evidence_text))


def repeats_claim(claim_text, evidence_text):
    return ch.repeats_claim(V(claim_text), V(evidence_text))


def entity_overlap(claim_text, evidence_text):
    return ch.entity_overlap([V(entity) for entity in ch.detect_entities(claim_text)], V(evidence_text))


def hedging_flags(evidence_text, lexicon):
    return ch.hedging_flags(V(evidence_text), lexicon)

TEXTS = st.lists(st.sampled_from(WORDS), min_size=1, max_size=12).map(" ".join)


def reference_has_run(haystack, needle):
    """Oracle for the substring matcher: slide the needle over the tokens."""
    if not needle:
        return False
    for start in range(len(haystack) - len(needle) + 1):
        if haystack[start : start + len(needle)] == list(needle):
            return True
    return False


def reference_hedging_flags(text, lexicon):
    tokens = ch.words(text)
    has_hedge = any(
        word in set(tokens) if " " not in word else reference_has_run(tokens, word.split())
        for word in lexicon.hedge_words
    )
    has_discourse = any(
        reference_has_run(tokens, marker.split())
        for marker in lexicon.hedging_discourse_markers
    )
    return has_hedge, has_discourse


# Tokens that are substrings of one another, so partial-word hits are common.
RUN_TOKENS = ["a", "b", "ab", "ba"]
TOKEN_LISTS = st.lists(st.sampled_from(RUN_TOKENS), max_size=8)
NEEDLES = st.lists(st.sampled_from(RUN_TOKENS), max_size=3)
LEXICON_ENTRIES = st.frozensets(
    st.tuples(NEEDLES, st.sampled_from([" ", "  "])).map(lambda t: t[1].join(t[0])),
    max_size=4,
)


def brute_force_jaccard(a, b):
    sa, sb = set(a.lower().split()), set(b.lower().split())
    union = sa | sb
    return len(sa & sb) / len(union) if union else 0.0


def brute_force_overlap(claim, evidence):
    sa, sb = set(claim.lower().split()), set(evidence.lower().split())
    return len(sa & sb) / len(sa)


class TestWordSets:
    def test_hyphens_split_and_punctuation_dropped(self):
        assert ch.word_set("State-of-the-art systems, really!") == frozenset(
            {"state", "of", "the", "art", "systems", "really"}
        )

    def test_case_folded(self):
        assert ch.word_set("The THE the") == frozenset({"the"})


#: The regex that ``words`` used for every text, kept as the oracle of its ASCII path.
TOKEN_SPLIT_RE = re.compile(r"[\W_]+", re.UNICODE)


def regex_words(text):
    return [token for token in TOKEN_SPLIT_RE.split(text.lower()) if token]


class TestWordsTokenizer:
    def test_every_ascii_character_as_the_regex(self):
        for c in map(chr, range(128)):
            for text in (c, f"{c}Ab1", f"Ab{c}c9", f"x_Y{c}", f"{c}{c}word {c}"):
                assert ch.words(text) == regex_words(text), repr(text)

    @given(
        text=st.text(
            alphabet=st.one_of(
                st.characters(max_codepoint=127),
                st.sampled_from("éÉßİıΣσςǅ\u00a0\u2013\u2019\u3000\u0301\u00b2\u0660Ⅻ"),
                st.characters(),
            ),
        )
    )
    def test_matches_the_regex_on_mixed_alphabets(self, text):
        ascii_only = text.encode("ascii", "ignore").decode()
        assert ch.words(text) == regex_words(text)
        assert ch.words(ascii_only) == regex_words(ascii_only)


class TestSimilarity:
    def test_jaccard_example(self):
        assert jaccard("the cat sat", "the dog sat") == pytest.approx(0.5)

    def test_overlap_example(self):
        assert claim_evidence_overlap("the cat sat", "the dog sat") == (
            pytest.approx(2 / 3)
        )

    def test_against_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            a = " ".join(rng.choices(WORDS, k=rng.randint(1, 10)))
            b = " ".join(rng.choices(WORDS, k=rng.randint(1, 10)))
            assert abs(jaccard(a, b) - brute_force_jaccard(a, b)) < 1e-12
            assert (
                abs(claim_evidence_overlap(a, b) - brute_force_overlap(a, b))
                < 1e-12
            )

    @given(a=TEXTS, b=TEXTS)
    def test_jaccard_never_exceeds_overlap(self, a, b):
        assert jaccard(a, b) <= claim_evidence_overlap(a, b) + 1e-12

    @given(a=TEXTS)
    def test_self_similarity_is_one(self, a):
        assert jaccard(a, a) == pytest.approx(1.0)
        assert claim_evidence_overlap(a, a) == pytest.approx(1.0)


class TestRepeatsClaim:
    def test_contiguous_token_run(self):
        assert repeats_claim("bobcat sat", "the bobcat sat down") is True

    def test_substring_of_longer_token_does_not_count(self):
        # "cat sat" is a character substring of "bobcat sat" but not a token run
        assert repeats_claim("cat sat", "the bobcat sat") is False

    def test_case_and_punctuation_insensitive(self):
        assert repeats_claim("The cat sat.", "yes, the CAT SAT there") is True

    def test_scattered_tokens_do_not_count(self):
        assert repeats_claim("cat mat", "the cat sat on a mat") is False

    @given(
        evidence=st.lists(st.sampled_from(WORDS), min_size=2, max_size=10),
        start=st.integers(min_value=0, max_value=8),
    )
    def test_repeat_implies_full_overlap(self, evidence, start):
        start = min(start, len(evidence) - 1)
        claim_tokens = evidence[start : start + 3]
        claim = " ".join(claim_tokens)
        text = " ".join(evidence)
        assert repeats_claim(claim, text) is True
        assert claim_evidence_overlap(claim, text) == pytest.approx(1.0)


class TestTokenRunMatcher:
    @given(haystack=TOKEN_LISTS, needle=NEEDLES)
    def test_matches_reference_scan(self, haystack, needle):
        assert ch.repeats_claim(V(" ".join(needle)), V(" ".join(haystack))) is reference_has_run(haystack, needle)

    @given(
        tokens=TOKEN_LISTS,
        hedge_words=LEXICON_ENTRIES,
        markers=LEXICON_ENTRIES,
        separator=st.sampled_from([" ", ", ", " - "]),
    )
    def test_hedging_matches_reference_scan(self, tokens, hedge_words, markers, separator):
        lexicon = ch.HedgeLexicon(hedge_words=hedge_words, hedging_discourse_markers=markers)
        text = separator.join(tokens)
        assert hedging_flags(text, lexicon) == reference_hedging_flags(text, lexicon)

    def test_doubled_internal_spaces_still_match(self):
        lexicon = ch.HedgeLexicon(
            hedge_words=frozenset({"more  or less"}),
            hedging_discourse_markers=frozenset({"in  my   view"}),
        )
        assert hedging_flags("It is, in my view, more or less right.", lexicon) == (
            True,
            True,
        )

    def test_punctuated_entry_never_matches(self):
        lexicon = ch.HedgeLexicon(
            hedge_words=frozenset({"so-called"}),
            hedging_discourse_markers=frozenset({"so-called expert"}),
        )
        assert hedging_flags("A so-called expert said so.", lexicon) == (False, False)

    def test_entity_partial_word_does_not_count(self):
        value, _ = entity_overlap("Ann Lee met Bob Ray.", "Joann Lee met Bob Ray.")
        assert value == pytest.approx(0.5)


#: ``count_syllables``, the sentence count and ``flesch_reading_ease`` as they
#: were before the counts were made in bulk, kept as the oracles of the current
#: ones: a per-character scan and a memo keyed by the raw whitespace token.
SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")


def oracle_count_syllables(word):
    letters = "".join(c for c in word.lower() if c.isalpha())
    if not letters:
        return 0
    groups = 0
    previous_vowel = False
    for c in letters:
        is_vowel = c in "aeiouy"
        if is_vowel and not previous_vowel:
            groups += 1
        previous_vowel = is_vowel
    if groups > 1 and letters.endswith("e") and not letters.endswith("le"):
        groups -= 1
    return max(groups, 1)


def oracle_sentence_parts(text):
    return [part for part in SENTENCE_SPLIT_RE.split(text) if any(c.isalnum() for c in part)]


def oracle_flesch_reading_ease(text, syllables):
    counts = []
    for token in text.split():
        if token not in syllables:
            syllables[token] = oracle_count_syllables(token) if any(c.isalnum() for c in token) else None
        if syllables[token] is not None:
            counts.append(syllables[token])
    if not counts:
        raise DegenerateText("no countable words")
    n_sentences = max(len(oracle_sentence_parts(text)), 1)
    n_words = len(counts)
    return 206.835 - 1.015 * (n_words / n_sentences) - 84.6 * (sum(counts) / n_words)


# Silent-e and -le words, digits, punctuation, '_', whitespace that
# ``str.split`` splits at, and non-ASCII letters, digits and numerals whose
# lowercase differs in length or is context-dependent (İ, Σ).
ASCII_PIECES = [
    "cake", "cake2", "little", "le", "e", "The", "queue", "rhythm", "Agreed", "1932", "x1e", "_", "-", "'",
    ".", "!", "?", "...", " ", "\n", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f",
]
OTHER_PIECES = ["état", "ÉTÉ", "ß", "İle", "ΑΣ", "٣", "²", "½", "Ⅻ", "\u3000"]
FLESCH_TEXT = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=127)),
    *(
        st.lists(st.sampled_from(pieces), max_size=24).map("".join)
        for pieces in (ASCII_PIECES, ASCII_PIECES + OTHER_PIECES)
    ),
)


class TestReadabilityMatchesOracles:
    @given(word=FLESCH_TEXT)
    def test_count_syllables(self, word):
        assert ch.count_syllables(word) == oracle_count_syllables(word)

    @given(word=st.one_of(
        st.text(st.characters(max_codepoint=127)),
        st.lists(st.sampled_from(ASCII_PIECES), max_size=8).map("".join),
    ))
    @example("x1e")
    @example("cake2")
    @example("Le")
    def test_count_syllables_on_ascii_words(self, word):
        assert ch.count_syllables(word) == oracle_count_syllables(word)

    @given(text=FLESCH_TEXT)
    @example("\x1d.a!\x1f?1")
    def test_sentence_count(self, text):
        assert ch._sentence_count(text) == len(oracle_sentence_parts(text))

    @given(texts=st.lists(FLESCH_TEXT, max_size=5))
    @example(["Cake. _ !", "Cake\x1ccake, cake-le."])
    @example(["ΑΣ İle. ½ _! ²", "ΑΣ-ß ile", "Ⅻ."])
    def test_flesch_with_shared_memos(self, texts):
        syllables, oracle_syllables = {}, {}
        for text in texts:
            try:
                expected = oracle_flesch_reading_ease(text, oracle_syllables)
            except DegenerateText:
                with pytest.raises(DegenerateText):
                    ch.flesch_reading_ease(text, syllables)
                continue
            assert ch.flesch_reading_ease(text, syllables) == expected
        assert all(count == oracle_count_syllables(key) for key, count in syllables.items())

    @given(texts=st.lists(FLESCH_TEXT, max_size=5))
    @example(["Cake. _ !", "Cake\x1ccake, cake-le.", "ΑΣ İle. ½ _! ²"])
    def test_a_self_filling_memo_gives_what_a_plain_dict_gives(self, texts):
        plain, memo = {}, ch.SyllableMemo()
        for text in texts:
            try:
                expected = ch.flesch_reading_ease(text, plain)
            except DegenerateText:
                continue
            assert ch.flesch_reading_ease(text, memo) == expected
        assert memo == plain


class TestReadability:
    def test_flesch_example(self):
        assert ch.flesch_reading_ease("The cat sat.", {}) == pytest.approx(
            119.19, abs=0.005
        )

    def test_empty_text_rejected(self):
        with pytest.raises(DegenerateText):
            ch.flesch_reading_ease("", {})
        with pytest.raises(DegenerateText):
            ch.flesch_reading_ease("...!!!", {})

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("cake", 1),
            ("little", 2),
            ("rhythm", 1),
            ("beautiful", 3),
            ("queue", 1),
            ("agreed", 2),
            ("a", 1),
        ],
    )
    def test_syllable_counts(self, word, expected):
        assert ch.count_syllables(word) == expected

    def test_a_word_without_letters_has_no_syllables_but_counts(self):
        assert ch.count_syllables("1932") == 0
        # Four words (It, fell, in, 1932) of 1, 1, 1 and 0 syllables, one sentence.
        assert ch.flesch_reading_ease("It fell in 1932.", {}) == 206.835 - 1.015 * 4 - 84.6 * (3 / 4)

    def test_multi_sentence_lowers_score(self):
        simple = ch.flesch_reading_ease("The cat sat. The dog ran.", {})
        complex_ = ch.flesch_reading_ease(
            "Notwithstanding considerable institutional disagreement, the "
            "commission ultimately promulgated comprehensive regulations.",
            {},
        )
        assert complex_ < simple


class TestEntities:
    def test_capitalized_runs_detected(self):
        assert ch.detect_entities("Geoffrey Hinton works for BBC.") == [
            "Geoffrey Hinton",
            "BBC",
        ]

    def test_sentence_initial_singleton_excluded(self):
        assert ch.detect_entities("The lighthouse keeper spoke.") == []

    def test_overlap_fraction_of_claim_entities(self):
        value, no_entities = entity_overlap(
            "Geoffrey Hinton works for BBC.",
            "Geoffrey Hinton is employed by Google.",
        )
        assert value == pytest.approx(0.5)
        assert no_entities is False

    def test_entity_without_word_tokens_never_matches(self):
        entities = [V("..."), V("Gull Island")]
        assert ch.entity_overlap(entities, V("Gull Island ... again")) == (0.5, False)
        assert ch.entity_overlap(entities, V("— ...")) == (0.0, False)

    def test_no_entities_flagged(self):
        value, no_entities = entity_overlap("the cat sat.", "a dog ran.")
        assert value == pytest.approx(1.0)
        assert no_entities is True


class TestExternalSourceJudge:
    def test_yes(self):
        assert ch.refers_external_source("A study shows it.", lambda p: "Yes")

    def test_no_with_punctuation(self):
        assert not ch.refers_external_source("Nothing.", lambda p: "No.")

    def test_unparseable(self):
        with pytest.raises(UnparseableJudgement):
            ch.refers_external_source("x", lambda p: "perhaps so")

    def test_prompt_contains_instruction_and_evidence(self):
        prompts = []

        def judge(prompt):
            prompts.append(prompt)
            return "Yes"

        ch.refers_external_source("EVIDENCE SENTINEL", judge)
        assert "EVIDENCE SENTINEL" in prompts[0]
        assert prompts[0].startswith(ch.EXTERNAL_SOURCE_PROMPT.split("{")[0][:20])


class TestHedging:
    def test_hedge_word_whole_word_only(self):
        lexicon = ch.HedgeLexicon.default()
        assert hedging_flags("It might rain.", lexicon) == (True, False)
        assert hedging_flags("A mighty wind.", lexicon) == (False, False)

    def test_discourse_marker_phrase(self):
        lexicon = ch.HedgeLexicon.default()
        hedge, discourse = hedging_flags(
            "In my opinion, this is wrong.", lexicon
        )
        assert discourse is True

    def test_case_insensitive(self):
        lexicon = ch.HedgeLexicon.default()
        assert hedging_flags("MIGHT happen", lexicon)[0] is True

    def test_custom_lexicon(self):
        lexicon = ch.HedgeLexicon(
            hedge_words=frozenset({"possibly"}),
            hedging_discourse_markers=frozenset({"some argue"}),
        )
        assert hedging_flags("Some argue it is possibly so.", lexicon) == (
            True,
            True,
        )

    @pytest.mark.parametrize(
        "text,expected",
        [
            # The first and last tokens of both runs occur, but never as the run.
            ("My view: in short, less is more.", (False, False)),
            ("I said I do think so, in a view of my own.", (False, False)),
            # Only the first, or only the last, token occurs.
            ("In time, more will come.", (False, False)),
            ("Less is a view.", (False, False)),
            # The run occurs, and its end tokens occur elsewhere too.
            ("In short, in my view, more is more or less less.", (True, True)),
        ],
    )
    def test_run_with_end_tokens_elsewhere(self, text, expected):
        lexicon = ch.HedgeLexicon(
            hedge_words=frozenset({"more or less"}),
            hedging_discourse_markers=frozenset({"in my view", "i think"}),
        )
        assert hedging_flags(text, lexicon) == expected
        assert expected == text_hedging_flags(text, lexicon)


class TestReliability:
    def test_bundled_data_is_read_once_and_read_only(self):
        lists = ch.ReliabilityList.default()
        assert ch.ReliabilityList.default() is lists
        assert ch.HedgeLexicon.default() is ch.HedgeLexicon.default()
        with pytest.raises(TypeError):
            lists.flagged["bbc.co.uk"] = "satire"
        assert ch.unreliable_source("https://www.bbc.co.uk/news", ch.ReliabilityList.default()) is Reliability.RELIABLE

    def test_flagged_domain(self):
        lists = ch.ReliabilityList.default()
        assert (
            ch.unreliable_source("https://www.theonion.com/article", lists)
            is Reliability.UNRELIABLE
        )

    def test_covered_but_unflagged_domain(self):
        lists = ch.ReliabilityList.default()
        assert (
            ch.unreliable_source("https://www.bbc.co.uk/news", lists)
            is Reliability.RELIABLE
        )

    def test_uncovered_domain(self):
        lists = ch.ReliabilityList.default()
        assert (
            ch.unreliable_source("https://tiny-blog.example/post", lists)
            is Reliability.UNKNOWN
        )

    def test_empty_url_rejected(self):
        with pytest.raises(MalformedUrl):
            ch.unreliable_source("   ", ch.ReliabilityList.default())

    def test_normalize_domain(self):
        assert ch.normalize_domain("https://www.Example.ORG:8080/a/b") == (
            "example.org"
        )
        assert ch.normalize_domain("no-scheme.example/path") == "no-scheme.example"
        with pytest.raises(MalformedUrl):
            ch.normalize_domain("")

    @pytest.mark.parametrize(
        "url, expected",
        [
            ("https://www.theonion.com/article", Reliability.UNRELIABLE),
            ("https://news.bbc.co.uk/a", Reliability.RELIABLE),
            ("https://tiny-blog.example/post", Reliability.UNKNOWN),
        ],
    )
    def test_url_is_parsed_once(self, monkeypatch, url, expected):
        calls = []

        def counting_urlsplit(*args, **kwargs):
            calls.append(args)
            return urlsplit(*args, **kwargs)

        monkeypatch.setattr(model, "urlsplit", counting_urlsplit)
        assert ch.unreliable_source(url, ch.ReliabilityList.default()) is expected
        assert len(calls) == 1
        assert ch.in_domains(url, {"bbc.co.uk"}) is (expected is Reliability.RELIABLE)
        assert len(calls) == 2

    @pytest.mark.parametrize("url", ["http://[abc", "http://]x", "http://[abc]"])
    def test_malformed_ipv6_url_rejected(self, url):
        with pytest.raises(MalformedUrl):
            ch.normalize_domain(url)
        with pytest.raises(MalformedUrl):
            ch.unreliable_source(url, ch.ReliabilityList.default())


class TestVerdictWords:
    def test_false_with_period(self):
        assert ch.verdict_word_flags("That is False.") == (False, True)

    def test_derived_forms_do_not_count(self):
        assert ch.verdict_word_flags("he falsely claimed") == (False, False)

    def test_case_sensitive(self):
        assert ch.verdict_word_flags("true but obscure") == (False, False)
        assert ch.verdict_word_flags("True story") == (True, False)

    def test_both(self):
        assert ch.verdict_word_flags("True or False") == (True, True)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Untrue", (False, False)),
            ("True_", (False, False)),
            ("True1", (False, False)),
            ("éTrue", (False, False)),
            ("TrueFalse", (False, False)),
            ("(True) x_False", (True, False)),
            ("False1 False.", (False, True)),
        ],
    )
    def test_word_characters_next_to_the_word(self, text, expected):
        assert ch.verdict_word_flags(text) == expected

    @given(text=st.one_of(
        st.text(),
        st.lists(st.sampled_from(["True", "False", "Un", "_", "1", "é", " ", ".", "\n"]), max_size=8).map("".join),
        st.lists(st.sampled_from(
            ["True", "False", "TrueTrue", "x1e", "2", "e", "le", "_", "é", "½", "\x1c", "\x1d", "\x1e", "\x1f", " "]
        ), max_size=8).map("".join),
    ))
    @example("TrueTrue True")
    @example("FalseFalse_False")
    def test_matches_the_word_regex(self, text):
        assert ch.verdict_word_flags(text) == (
            re.search(r"\bTrue\b", text) is not None,
            re.search(r"\bFalse\b", text) is not None,
        )


class TestCharacteristicVector:
    def test_record_fields_passed_through(self):
        providers = ch.DetectorProviders(
            judge=lambda p: "Yes", perplexity=lambda t: 12.5
        )
        claim = make_claim()
        evidence = make_evidence(is_gold_source=True, pub_after_claim=False)
        (vector,), _ = ch.profile([(claim, evidence)], providers=providers)
        assert vector.claim_id == claim.id
        assert vector.evidence_id == evidence.id
        assert vector.perplexity == 12.5
        assert vector.refers_external is True
        assert vector.gold_source is True
        assert vector.fact_check_source is False
        assert vector.pub_after_claim is False
        assert vector.claim_len_chars == len(claim.text)
        assert vector.evidence_len_chars == len(evidence.text)

    def test_optional_detectors_default_to_none(self):
        (vector,), _ = ch.profile([(make_claim(), make_evidence())])
        assert vector.perplexity is None
        assert vector.refers_external is None


class TestProfile:
    def _pairs(self, druid_fixture_paths):
        from contextmeter.ingest import load_druid

        claims_path, evidence_path = druid_fixture_paths
        corpus = load_druid(claims_path, evidence_path)
        return [
            (claim, evidence)
            for claim in corpus.claims.values()
            for evidence in corpus.evidence
            if evidence.claim_id == claim.id
        ]

    def test_fixture_aggregates(self, druid_fixture_paths):
        pairs = self._pairs(druid_fixture_paths)
        vectors, report = ch.profile(pairs)
        assert report["Total instances"] == 12
        assert len(vectors) == 12
        assert set(report["rows"]) == {
            "Jaccard similarity",
            "Claim-evidence overlap",
            "Repeats claim (%)",
            "Flesch reading ease score",
            "Claim length",
            "Evidence length",
            "model: Perplexity",
            "Claim entity overlap",
            "Detection by LLM (%)",
            "Unreliable source (%)",
            "Contains hedging (%)",
            "Contains hedging discourse (%)",
            "Contains 'True'",
            "Contains 'False'",
            "Fact-check source (%)",
            "Gold source (%)",
            "Pub. after claim (%)",
        }
        # detectors without providers are skipped, not zero
        assert report["rows"]["model: Perplexity"] is None
        assert report["skipped"]["model: Perplexity"] == 12
        assert report["rows"]["Fact-check source (%)"]["percent"] == pytest.approx(
            100 / 12
        )
        assert report["rows"]["Gold source (%)"]["percent"] == pytest.approx(100 / 12)
        # three fixture evidence rows have no pub_date
        assert report["rows"]["Pub. after claim (%)"]["n"] == 9

    def test_shuffle_invariance(self, druid_fixture_paths):
        pairs = self._pairs(druid_fixture_paths)
        vectors, _ = ch.profile(pairs)
        shuffled = list(vectors)
        random.Random(3).shuffle(shuffled)
        assert ch.aggregate_profile(vectors)["rows"] == (
            ch.aggregate_profile(shuffled)["rows"]
        )

    def test_empty_input(self):
        vectors, report = ch.profile([])
        assert vectors == []
        assert report["Total instances"] == 0
        assert len(report["rows"]) == 17
        assert all(value is None for value in report["rows"].values())

    def test_perplexity_model_names_row(self):
        (vector,), _ = ch.profile(
            [(make_claim(), make_evidence())],
            providers=ch.DetectorProviders(
                perplexity=lambda t: 5.0, perplexity_model="llama"
            ),
        )
        report = ch.aggregate_profile([vector], perplexity_model="llama")
        assert "llama: Perplexity" in report["rows"]
        assert report["rows"]["llama: Perplexity"]["mean"] == pytest.approx(5.0)


def reference_aggregate_profile(vectors, perplexity_model="model"):
    """Every row written out by hand, as the profile was built before its
    rows were declared in one table."""
    rows = {}
    skipped = {}

    def mean_std(values):
        n = len(values)
        mean = math.fsum(values) / n
        variance = math.fsum((v - mean) ** 2 for v in values) / n
        return {"mean": mean, "std": math.sqrt(variance), "n": n}

    def continuous(key, values):
        present = [v for v in values if v is not None]
        skip = len(values) - len(present)
        if skip:
            skipped[key] = skip
        rows[key] = mean_std(present) if present else None

    def percent(key, values):
        present = [v for v in values if v is not None]
        skip = len(values) - len(present)
        if skip:
            skipped[key] = skip
        rows[key] = (
            {"percent": 100.0 * sum(1 for f in present if f) / len(present), "n": len(present)}
            if present
            else None
        )

    continuous("Jaccard similarity", [v.jaccard for v in vectors])
    continuous("Claim-evidence overlap", [v.claim_evidence_overlap for v in vectors])
    percent("Repeats claim (%)", [v.repeats_claim for v in vectors])
    continuous("Flesch reading ease score", [v.flesch for v in vectors])
    continuous("Claim length", [float(v.claim_len_chars) for v in vectors])
    continuous("Evidence length", [float(v.evidence_len_chars) for v in vectors])
    continuous(f"{perplexity_model}: Perplexity", [v.perplexity for v in vectors])
    continuous("Claim entity overlap", [v.entity_overlap for v in vectors])
    percent("Detection by LLM (%)", [v.refers_external for v in vectors])
    unreliable_known = [
        v.unreliable is Reliability.UNRELIABLE
        for v in vectors
        if v.unreliable in (Reliability.UNRELIABLE, Reliability.RELIABLE)
    ]
    unknown = [v for v in vectors if v.unreliable is Reliability.UNKNOWN]
    disabled = [v for v in vectors if v.unreliable is None]
    if disabled:
        skipped["Unreliable source (%)"] = len(disabled)
    row = None
    if unreliable_known or unknown:
        row = {
            "percent": (
                100.0 * sum(unreliable_known) / len(unreliable_known)
                if unreliable_known
                else None
            ),
            "n": len(unreliable_known),
            "unknown_percent": 100.0 * len(unknown) / (len(unreliable_known) + len(unknown)),
        }
    rows["Unreliable source (%)"] = row
    percent("Contains hedging (%)", [v.hedging for v in vectors])
    percent("Contains hedging discourse (%)", [v.hedging_discourse for v in vectors])
    percent("Contains 'True'", [v.contains_true_word for v in vectors])
    percent("Contains 'False'", [v.contains_false_word for v in vectors])
    percent("Fact-check source (%)", [v.fact_check_source for v in vectors])
    percent("Gold source (%)", [v.gold_source for v in vectors])
    percent("Pub. after claim (%)", [v.pub_after_claim for v in vectors])
    return {"rows": rows, "Total instances": len(vectors), "skipped": skipped}


class TestAggregateProfileMatchesReference:
    @given(
        vectors=st.lists(characteristic_vectors(), max_size=8),
        perplexity_model=st.sampled_from(["model", "llama-2-7b"]),
    )
    def test_same_rows_skips_and_bytes(self, vectors, perplexity_model):
        report = ch.aggregate_profile(vectors, perplexity_model=perplexity_model)
        reference = reference_aggregate_profile(vectors, perplexity_model=perplexity_model)
        assert report["rows"] == reference["rows"]
        assert list(report["rows"]) == list(reference["rows"])
        assert report["skipped"] == reference["skipped"]
        assert canonical_json(report) == canonical_json(reference)

    @given(perplexity_model=st.sampled_from(["model", "llama-2-7b"]))
    def test_row_names_are_the_grid_rows(self, perplexity_model):
        report = ch.aggregate_profile([], perplexity_model=perplexity_model)
        assert tuple(report["rows"]) == tuple(
            f"{perplexity_model}: {name}" if name == "Perplexity" else name
            for name in GRID_CHARACTERISTICS
        )


class TestProfileLexiconLoads:
    PAIRS = [
        (make_claim(), make_evidence(id=f"e{i}", text="It might be so.", url="https://satire.example/a"))
        for i in range(4)
    ]

    @pytest.fixture
    def loads(self, monkeypatch):
        counts = {}
        for cls in (ch.HedgeLexicon, ch.ReliabilityList):
            original = cls.default

            def default(name=cls.__name__, original=original):
                counts[name] = counts.get(name, 0) + 1
                return original()

            monkeypatch.setattr(cls, "default", default)
        return counts

    def test_defaults_loaded_once_per_call(self, loads):
        vectors, _ = ch.profile(self.PAIRS)
        assert len(vectors) == 4
        assert loads == {"HedgeLexicon": 1, "ReliabilityList": 1}

    def test_explicit_lexicons_used_without_loading_defaults(self, loads):
        lexicon = ch.HedgeLexicon(
            hedge_words=frozenset({"so"}), hedging_discourse_markers=frozenset({"be so"})
        )
        reliability = ch.ReliabilityList(flagged={"satire.example": "satire"})
        vectors, _ = ch.profile(self.PAIRS, lexicon=lexicon, reliability=reliability)
        assert loads == {}
        assert all(v.hedging and v.hedging_discourse for v in vectors)
        assert all(v.unreliable is Reliability.UNRELIABLE for v in vectors)


# -- text-level detectors, as they were before the shared views ---------------------
# Each re-derives what it needs from the raw texts; they are the oracles for
# the view-based detectors and for the vectors that ``profile`` builds.


def text_jaccard(claim_text, evidence_text):
    claim_words = ch.word_set(claim_text)
    evidence_words = ch.word_set(evidence_text)
    union = claim_words | evidence_words
    if not union:
        return 0.0
    return len(claim_words & evidence_words) / len(union)


def text_claim_evidence_overlap(claim_text, evidence_text):
    claim_words = ch.word_set(claim_text)
    if not claim_words:
        raise DegenerateClaim("claim has no words after normalization")
    return len(claim_words & ch.word_set(evidence_text)) / len(claim_words)


def text_has_run(padded_text, run):
    return bool(run) and ch._padded(run) in padded_text


def text_repeats_claim(claim_text, evidence_text):
    claim_tokens = ch.words(claim_text)
    if not claim_tokens:
        return False
    return text_has_run(ch._padded(ch.words(evidence_text)), claim_tokens)


def text_entity_overlap(claim_text, evidence_text, ner=ch.detect_entities):
    entities = ner(claim_text)
    if not entities:
        return 1.0, True
    evidence_padded = ch._padded(ch.words(evidence_text))
    found = sum(1 for entity in entities if text_has_run(evidence_padded, ch.words(entity)))
    return found / len(entities), False


def text_hedging_flags(evidence_text, lexicon):
    text = ch._padded(ch.words(evidence_text))
    return tuple(
        any(ch._padded(entry.split()) in text for entry in entries if entry.split())
        for entries in (lexicon.hedge_words, lexicon.hedging_discourse_markers)
    )


def text_characteristic_vector(claim, evidence, lexicon, reliability, providers):
    try:
        overlap = text_claim_evidence_overlap(claim.text, evidence.text)
    except DegenerateClaim:
        overlap = None
    try:
        flesch = oracle_flesch_reading_ease(evidence.text, {})
    except DegenerateText:
        flesch = None
    overlap_value, no_entity = text_entity_overlap(claim.text, evidence.text, providers.ner)
    refers = None
    if providers.judge is not None:
        refers = ch.refers_external_source(evidence.text, providers.judge)
    perplexity_value = None
    if providers.perplexity is not None:
        perplexity_value = providers.perplexity(evidence.text)
    try:
        unreliable = ch.unreliable_source(evidence.url, reliability)
    except MalformedUrl:
        unreliable = None
    hedging, hedging_discourse = text_hedging_flags(evidence.text, lexicon)
    contains_true, contains_false = ch.verdict_word_flags(evidence.text)
    return CharacteristicVector(
        claim_id=claim.id,
        evidence_id=evidence.id,
        jaccard=text_jaccard(claim.text, evidence.text),
        claim_evidence_overlap=overlap,
        repeats_claim=text_repeats_claim(claim.text, evidence.text),
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


# Capitalised names, hedges, verdict words, digits, punctuation, hyphens,
# underscores and non-ASCII letters, joined by assorted whitespace.
PROSE_PIECES = [
    "the", "The", "cat", "sat.", "Gull", "Island", "BBC", "Ann", "Lee", "Joann",
    "(Bob", "Ray)", "might", "In", "my", "opinion,", "so-called", "True", "False.",
    "1932", "—", "...", "état", "ÉTAT", "x_y", "beautiful", "queue!", "Rhythm?", "a",
]
PROSE = st.lists(
    st.tuples(st.sampled_from(PROSE_PIECES), st.sampled_from([" ", "  ", "\n", ". ", ", "])),
    max_size=24,
).map(lambda parts: "".join(piece + sep for piece, sep in parts))
LEXICONS = st.sampled_from([
    ch.HedgeLexicon.default(),
    ch.HedgeLexicon(
        hedge_words=frozenset({"might", "so", "my opinion"}),
        hedging_discourse_markers=frozenset({"in my opinion", "the cat"}),
    ),
])


RELIABILITY = ch.ReliabilityList.default()


class TestViewsMatchTextLevelDetectors:
    @given(claim=PROSE, evidence=PROSE)
    def test_word_level_detectors(self, claim, evidence):
        claim_view, evidence_view = V(claim), V(evidence)
        assert ch.jaccard(claim_view, evidence_view) == text_jaccard(claim, evidence)
        assert ch.repeats_claim(claim_view, evidence_view) is text_repeats_claim(claim, evidence)
        if ch.words(claim):
            assert ch.claim_evidence_overlap(claim_view, evidence_view) == (
                text_claim_evidence_overlap(claim, evidence)
            )
        else:
            with pytest.raises(DegenerateClaim):
                ch.claim_evidence_overlap(claim_view, evidence_view)
        entities = [V(entity) for entity in ch.detect_entities(claim)]
        assert ch.entity_overlap(entities, evidence_view) == text_entity_overlap(claim, evidence)

    @given(evidence=PROSE, lexicon=LEXICONS)
    def test_hedging(self, evidence, lexicon):
        assert ch.hedging_flags(V(evidence), lexicon) == text_hedging_flags(evidence, lexicon)

    @given(texts=st.lists(PROSE, max_size=6))
    def test_flesch_with_a_shared_syllable_memo(self, texts):
        syllables = {}
        for text in texts:
            try:
                expected = oracle_flesch_reading_ease(text, {})
            except DegenerateText:
                with pytest.raises(DegenerateText):
                    ch.flesch_reading_ease(text, syllables)
                continue
            assert ch.flesch_reading_ease(text, syllables) == expected
            assert ch.flesch_reading_ease(text, {}) == expected

    @given(
        claims=st.lists(PROSE.filter(str.strip), min_size=1, max_size=3),
        pieces=st.lists(
            st.tuples(st.integers(min_value=0, max_value=2), PROSE.filter(bool), st.sampled_from(
                ["https://www.theonion.com/a", "https://bbc.co.uk/n", "https://blog.example/p", ""]
            )),
            max_size=8,
        ),
        lexicon=LEXICONS,
    )
    def test_profile_vectors_match_the_text_level_vector(self, claims, pieces, lexicon):
        claim_records = [make_claim(id=f"c{i}", text=text) for i, text in enumerate(claims)]
        pairs = [
            (claim_records[index % len(claim_records)], make_evidence(id=f"e{i}", text=text, url=url))
            for i, (index, text, url) in enumerate(pieces)
        ]
        reliability = RELIABILITY
        providers = ch.DetectorProviders(judge=lambda prompt: "Yes", perplexity=lambda text: 3.0)
        vectors, _ = ch.profile(pairs, lexicon, reliability, providers)
        assert vectors == [
            text_characteristic_vector(claim, evidence, lexicon, reliability, providers)
            for claim, evidence in pairs
        ]


def test_profile_keeps_no_syllable_counts_between_calls(monkeypatch):
    """Each call builds its own memo, so a second call in the same process
    counts as many syllables as the first: one count per distinct word."""
    calls = []
    original = ch.count_syllables

    def counting(word):
        calls.append(word)
        return original(word)

    monkeypatch.setattr(ch, "count_syllables", counting)
    text = "The cat sat on the mat. The cat sat again, and the mat sat."
    pairs = [(make_claim(), make_evidence(id=f"e{i}", text=text)) for i in range(3)]
    ch.profile(pairs)
    first = len(calls)
    ch.profile(pairs)
    # the, cat, sat, on, mat, again, and: "the"/"The" and "mat"/"mat." share a key.
    assert first == len(calls) - first == 7

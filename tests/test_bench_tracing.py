"""The benchmark's tracer still finds every name it wraps in the package.

``bench/tracing.py`` patches contextmeter functions and methods by name, so
renaming one of them breaks traced benchmark runs. Installing and removing
the tracer here makes such a rename fail the test suite instead.
"""

import importlib.util
from collections import Counter
from datetime import date
from pathlib import Path

from conftest import DATA_DIR, HashLogprobProvider, make_claim
from contextmeter import analysis, characteristics, cli, ingest, lm, metrics, model, retrieval

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = (analysis, characteristics, cli, ingest, lm, metrics, model, retrieval)
CLASSES = (
    lm.ReplayStore,
    lm.ScoreRecord,
    lm.VerdictScorer,
    ingest.Corpus,
    characteristics.HedgeLexicon,
    characteristics.ReliabilityList,
    HashLogprobProvider,
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    return {owner: dict(vars(owner)) for owner in (*MODULES, *CLASSES)}


def test_install_wraps_and_uninstall_restores(tmp_path):
    before = namespaces()
    tracer = load_tracing().Tracer()
    try:
        tracer.install(HashLogprobProvider)
        wrapped = [
            (lm, "render_prompt"),
            (lm, "prompt_hash"),
            (lm, "load_template"),
            (model, "read_jsonl"),
            (lm.ReplayStore, "__init__"),
            (lm.ReplayStore, "get"),
            (lm.ReplayStore, "append"),
            (lm.ScoreRecord, "checksum"),
            (lm.VerdictScorer, "score"),
        ]
        for owner, name in wrapped:
            assert vars(owner)[name] is not before[owner][name], f"{owner.__name__}.{name} not wrapped"
        assert vars(lm)["read_jsonl"] is vars(model)["read_jsonl"]

        store_path = tmp_path / "store.jsonl"
        scorer = lm.VerdictScorer(provider=HashLogprobProvider(), store=lm.ReplayStore(store_path))
        scorer.score(lm.load_template("claim-0shot"), make_claim())
        scorer.close()
        lm.ReplayStore(store_path)
        expected = {"lm.replay_misses": 1, "lm.provider.calls": 1, "lm.store_appends": 1, "lm.store_records_loaded": 1}
        assert {name: tracer.counts[name] for name in expected} == expected
    finally:
        tracer.uninstall()
    assert namespaces() == before


def sentences_reaching_the_lcs(chunks, claim_text):
    """How many sentences reach the LCS: those for which both their chunk's
    and their own shared-token bound leave RougeL F > 0.8 possible."""
    claim_counts = Counter(claim_text.split())
    n = sum(claim_counts.values())

    def shared(tokens):
        return sum(claim_counts[token] for token in set(tokens))

    reached = 0
    for chunk in chunks:
        if 3 * shared(chunk.text.split()) >= 2 * n:
            for sentence in retrieval.split_sentences(chunk.text):
                m = len(sentence.split())
                reached += 10 * min(shared(sentence.split()), m, n) >= 4 * (m + n)
    return reached


def test_traced_pipeline_counts_the_pruned_claim_repeat_filter():
    claim = make_claim(text="The red lighthouse on Gull Island was built in 1932.", claim_date=date(2020, 1, 1))
    engine = retrieval.FixtureSearchClient(DATA_DIR / "fixture_corpus")
    chunks = [
        chunk
        for result in retrieval.search(claim, [engine])
        for chunk in retrieval.chunk_page(result.fetched_text, result.url)
    ]
    reached = sentences_reaching_the_lcs(chunks, claim.text)
    assert 0 < reached < sum(len(retrieval.split_sentences(chunk.text)) for chunk in chunks)

    tracer = load_tracing().Tracer()
    try:
        tracer.install(HashLogprobProvider)
        _, trace = retrieval.run_pipeline(claim, [engine], retrieval.LexicalOverlapReranker())
    finally:
        tracer.uninstall()
    assert trace["chunks_dropped_as_claim_repeats"] > 0
    assert tracer.counts["retrieval.chunks"] == len(chunks)
    # The filter decides from ``lcs_length`` in integers and calls ``rouge_l`` no more.
    assert tracer.counts["retrieval.lcs_length.calls"] == reached
    assert tracer.counts["retrieval.rouge_l.calls"] == 0
    assert tracer.counts["retrieval.chunks_dropped"] == trace["chunks_dropped_as_claim_repeats"]

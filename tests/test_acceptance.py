"""Release gate: ten criteria, one printed verdict line each.

Each test prints ``ACCEPTANCE <n> PASS|FAIL|SKIP: <title>`` so a plain
``pytest tests/test_acceptance.py -s`` reads as a checklist. Criterion 5
needs the full corpus and is gated on the DRUID_CLAIMS / DRUID_EVIDENCE
environment variables; without them it reports SKIP.

Tolerances: golden scores reproduce within +/-0.05 (forced by the
two-decimal rounding of the published probability triples); oracle
comparisons for similarity and rank statistics use 1e-12; structural
checks are exact.
"""

import csv
import functools
import io
import itertools
import json
import os
import random
import time
from datetime import date, timedelta
from pathlib import Path

import pytest

from conftest import HashLogprobProvider, PoisonProvider
from contextmeter import analysis, characteristics, cli, ingest, lm, metrics, retrieval
from contextmeter.model import (
    CANONICAL_LABELS,
    CharacteristicVector,
    ClaimRecord,
    ClaimVerdict,
    EvidencePiece,
    StanceLabel,
    VerdictLabel,
    read_jsonl,
)

GOLDEN_TOLERANCE = 0.05
ORACLE_TOLERANCE = 1e-12


def criterion(number: int, title: str):
    """Print one gate line per criterion, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                verdict = "SKIP" if type(exc).__name__ == "Skipped" else "FAIL"
                print(f"ACCEPTANCE {number:>2} {verdict}: {title}")
                raise
            print(f"ACCEPTANCE {number:>2} PASS: {title}")

        return runner

    return wrap


def triple(sample: dict, key: str) -> tuple[float, float, float]:
    return tuple(sample[key][label.value] for label in CANONICAL_LABELS)


@criterion(1, "golden context-usage scores reproduce from printed triples")
def test_criterion_01_golden_scores(golden_acu):
    started = time.perf_counter()
    samples = golden_acu["samples"]
    in_gate = [s for s in samples if s["in_gate"]]
    assert len(in_gate) == 26

    for sample in in_gate:
        got = metrics.acu_from_triples(
            triple(sample, "without"),
            triple(sample, "with"),
            StanceLabel(sample["stance"]),
        )
        assert abs(got - sample["printed_acu"]) <= GOLDEN_TOLERANCE, sample["name"]

    reproduced = {}
    for sample in in_gate:
        reproduced.setdefault(sample["name"], set()).add(sample["model"])
    both_models = {name for name, models in reproduced.items() if len(models) == 2}
    assert len(both_models) == 12

    printed = {(s["name"], s["model"]): s["printed_acu"] for s in samples}
    assert printed[("danish-outdoor-council", "llama")] == pytest.approx(1.51)
    assert printed[("sapodilla-cay", "pythia")] == pytest.approx(1.25)
    assert printed[("co2-warming", "llama")] == pytest.approx(-1.09)

    assert time.perf_counter() - started < 1.0


@criterion(2, "probability-shift properties hold on 10k+ random cases")
def test_criterion_02_delta_p_properties():
    rng = random.Random(99173)

    def draw() -> float:
        if rng.random() < 0.15:
            return rng.choice((0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0))
        return rng.random()

    cases = 12_000
    for _ in range(cases):
        p_without = draw()
        lo, hi = sorted((draw(), draw()))
        value_lo = metrics.delta_p(lo, p_without)
        value_hi = metrics.delta_p(hi, p_without)
        assert -1.0 <= value_lo <= 1.0
        assert -1.0 <= value_hi <= 1.0
        assert value_lo <= value_hi
        assert metrics.delta_p(p_without, p_without) == 0.0
    assert cases >= 10_000

    assert metrics.delta_p(1.0, 0.0) == 1.0
    assert metrics.delta_p(0.0, 1.0) == -1.0
    # 0/0 conventions: certainty kept is clean zero, certainty at the top
    # cannot register an increase and is flagged degenerate.
    assert metrics.delta_p_with_flag(0.0, 0.0) == (0.0, False)
    assert metrics.delta_p_with_flag(1.0, 1.0) == (0.0, True)


@criterion(3, "desirability table and aggregation forms")
def test_criterion_03_desirability_table():
    rows = {
        StanceLabel.REFUTES: (1, -1, -1),
        StanceLabel.INSUFFICIENT_REFUTES: (1, 1, -1),
        StanceLabel.INSUFFICIENT_CONTRADICTORY: (-1, 1, -1),
        StanceLabel.INSUFFICIENT_NEUTRAL: (-1, 1, -1),
        StanceLabel.INSUFFICIENT_SUPPORTS: (-1, 1, 1),
        StanceLabel.SUPPORTS: (-1, -1, 1),
    }
    checked = 0
    for stance, (d_false, d_none, d_true) in rows.items():
        assert metrics.desirability(VerdictLabel.FALSE, stance) == d_false
        assert metrics.desirability(VerdictLabel.NONE, stance) == d_none
        assert metrics.desirability(VerdictLabel.TRUE, stance) == d_true
        checked += 3
    assert checked == 18

    rng = random.Random(40831)
    mean_form = metrics.AcuConfig(form="mean")
    for _ in range(500):
        without = tuple(rng.random() for _ in range(3))
        with_ = tuple(rng.random() for _ in range(3))
        stance = rng.choice(list(StanceLabel))
        total = metrics.acu_from_triples(without, with_, stance)
        mean = metrics.acu_from_triples(without, with_, stance, mean_form)
        assert mean == pytest.approx(total / 3)
        assert -1.0 <= mean <= 1.0
        assert -3.0 <= total <= 3.0


@criterion(4, "memory-conflict rule over all prediction/stance pairs")
def test_criterion_04_memory_conflict():
    conflicting = {
        (VerdictLabel.TRUE, StanceLabel.REFUTES),
        (VerdictLabel.FALSE, StanceLabel.SUPPORTS),
    }
    pairs = list(itertools.product(VerdictLabel, StanceLabel))
    assert len(pairs) == 18
    for label, stance in pairs:
        assert metrics.memory_conflict(label, stance) is ((label, stance) in conflicting)


FULL_CORPUS_PER_SOURCE = {
    "borderlines": (224, 990),
    "checkyourfact": (220, 890),
    "factcheckni": (109, 429),
    "factly": (180, 739),
    "politifact": (220, 931),
    "science.feedback": (220, 913),
    "srilanka.factcrescendo": (156, 598),
}


@criterion(5, "full-corpus statistics (set DRUID_CLAIMS / DRUID_EVIDENCE)")
def test_criterion_05_full_corpus_statistics():
    claims_path = os.environ.get("DRUID_CLAIMS")
    evidence_path = os.environ.get("DRUID_EVIDENCE")
    if not claims_path or not evidence_path:
        pytest.skip("full corpus not available")

    corpus = ingest.load_druid(Path(claims_path), Path(evidence_path))
    assert corpus.totals() == (1329, 5490)
    assert corpus.per_source_counts() == FULL_CORPUS_PER_SOURCE

    histogram = corpus.stance_histogram()
    assert histogram["refutes"] == 1760
    assert histogram["supports"] == 909
    insufficient = sum(
        count for stance, count in histogram.items() if stance.startswith("insufficient")
    )
    assert insufficient == 2730

    assert corpus.inter_context_conflicts() == 451


def brute_force_rouge(candidate: str, reference: str) -> float:
    """Independent RougeL F: memoized recursion instead of the DP table."""
    a, b = candidate.split(), reference.split()

    @functools.lru_cache(maxsize=None)
    def lcs(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + lcs(i + 1, j + 1)
        return max(lcs(i + 1, j), lcs(i, j + 1))

    common = lcs(0, 0)
    if common == 0 or not a or not b:
        return 0.0
    precision, recall = common / len(a), common / len(b)
    return 2 * precision * recall / (precision + recall)


@criterion(6, "retrieval size caps, repeat filter and page-selection quota")
def test_criterion_06_retrieval_invariants(fixture_corpus_dir):
    rng = random.Random(55217)
    vocab = [f"w{i}" for i in range(40)]

    def make_claim(claim_date=date(2022, 5, 10)) -> ClaimRecord:
        return ClaimRecord(
            id="c-fuzz",
            text="The red lighthouse on Gull Island was built in 1932.",
            claimant="Somebody",
            source="politifact",
            claim_date=claim_date,
            verdict=ClaimVerdict.TRUE,
            raw_verdict="True",
        )

    # chunking never exceeds the cap and never loses words
    for _ in range(150):
        paragraphs = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 450)))
            for _ in range(rng.randint(1, 4))
        ]
        page = "\n\n".join(paragraphs)
        chunks = retrieval.chunk_page(page, "https://example.org/fuzz")
        for chunk in chunks:
            assert chunk.word_count <= retrieval.MAX_CHUNK_WORDS
            assert chunk.word_count == len(chunk.text.split())
        assert sum(c.word_count for c in chunks) == len(page.split())

    # assembled evidence respects the total word budget
    for _ in range(150):
        chunks = []
        for i in range(rng.randint(1, 4)):
            text = " ".join(rng.choice(vocab) for _ in range(rng.randint(40, 200)))
            chunks.append(
                retrieval.Chunk(
                    text=text,
                    page_url="https://example.org/fuzz",
                    ordinal=i,
                    word_count=len(text.split()),
                    rerank_score=rng.random(),
                )
            )
        piece = retrieval.assemble_evidence(make_claim(), "https://example.org/fuzz", chunks)
        assert len(piece.text.split()) <= retrieval.MAX_EVIDENCE_WORDS

    # repeat filter agrees with an independent LCS oracle sentence by sentence
    claim = make_claim()
    for _ in range(200):
        sentences = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.4:
                words = claim.text.rstrip(".").split()
                keep = rng.randint(max(1, len(words) - 4), len(words))
                sentences.append(" ".join(words[:keep]) + ".")
            else:
                sentences.append(
                    " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 12))) + "."
                )
        text = " ".join(sentences)
        chunk = retrieval.Chunk(
            text=text,
            page_url="https://example.org/fuzz",
            ordinal=0,
            word_count=len(text.split()),
        )
        expected = [
            s
            for s in retrieval.split_sentences(text)
            if brute_force_rouge(s, claim.text) <= retrieval.CLAIM_REPEAT_THRESHOLD
        ]
        filtered = retrieval.filter_claim_repeats(chunk, retrieval.Reference.of(claim.text))
        if not expected:
            assert filtered is None
        else:
            assert filtered is not None
            assert filtered.text == " ".join(expected)

    # page selection meets the pre-claim quota whenever the pool allows
    for _ in range(200):
        n_pages = rng.randint(1, 8)
        pub_dates = {}
        chunks = []
        for i in range(n_pages):
            url = f"https://example.org/p{i}"
            offset = rng.randint(-400, 400)
            pub_dates[url] = (
                None if rng.random() < 0.2 else claim.claim_date + timedelta(days=offset)
            )
            chunks.append(
                retrieval.Chunk(
                    text="body",
                    page_url=url,
                    ordinal=0,
                    word_count=1,
                    rerank_score=rng.random(),
                )
            )
        selection = retrieval.select_pages(claim, chunks, pub_dates)
        assert len(selection.urls) == min(retrieval.PAGES_PER_CLAIM, n_pages)
        assert len(set(selection.urls)) == len(selection.urls)
        preclaim_pool = sum(
            1
            for url, when in pub_dates.items()
            if when is not None and when < claim.claim_date
        )
        picked = sum(
            1
            for url in selection.urls
            if pub_dates[url] is not None and pub_dates[url] < claim.claim_date
        )
        needed = retrieval.MIN_PRECLAIM_PAGES
        if preclaim_pool >= needed:
            assert picked >= needed
            assert selection.shortfall == 0
        else:
            assert picked == preclaim_pool
            assert selection.shortfall == needed - preclaim_pool

    # end-to-end runs on the bundled corpus are deterministic
    engines = [retrieval.FixtureSearchClient(fixture_corpus_dir)]
    reranker = retrieval.LexicalOverlapReranker()
    first = retrieval.run_pipeline(make_claim(), engines, reranker)
    second = retrieval.run_pipeline(make_claim(), engines, reranker)
    assert first == second


@criterion(7, "similarity measures match set-enumeration oracles")
def test_criterion_07_similarity_oracles():
    rng = random.Random(61409)
    vocab = [f"tok{i}" for i in range(30)]

    for _ in range(1000):
        claim_words = [rng.choice(vocab) for _ in range(rng.randint(1, 20))]
        evidence_words = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
        claim_text = " ".join(claim_words)
        evidence_text = " ".join(evidence_words)

        claim_set, evidence_set = set(claim_words), set(evidence_words)
        expected_jaccard = len(claim_set & evidence_set) / len(claim_set | evidence_set)
        expected_overlap = len(claim_set & evidence_set) / len(claim_set)

        claim_view = characteristics.TextView.of(claim_text)
        evidence_view = characteristics.TextView.of(evidence_text)
        got_jaccard = characteristics.jaccard(claim_view, evidence_view)
        got_overlap = characteristics.claim_evidence_overlap(claim_view, evidence_view)
        assert abs(got_jaccard - expected_jaccard) <= ORACLE_TOLERANCE
        assert abs(got_overlap - expected_overlap) <= ORACLE_TOLERANCE
        assert got_jaccard <= got_overlap + ORACLE_TOLERANCE

    # verbatim claim repetition forces full lexical coverage
    for _ in range(200):
        claim_words = [rng.choice(vocab) for _ in range(rng.randint(2, 12))]
        prefix = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        suffix = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        claim_text = " ".join(claim_words)
        evidence_text = " ".join(prefix + claim_words + suffix)
        claim_view = characteristics.TextView.of(claim_text)
        evidence_view = characteristics.TextView.of(evidence_text)
        assert characteristics.repeats_claim(claim_view, evidence_view)
        assert characteristics.claim_evidence_overlap(claim_view, evidence_view) == 1.0


def average_ranks(values) -> list[float]:
    indexed = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(indexed):
        j = i
        while j + 1 < len(indexed) and values[indexed[j + 1]] == values[indexed[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[indexed[k]] = rank
        i = j + 1
    return ranks


def pearson(x, y) -> float:
    n = len(x)
    mean_x, mean_y = sum(x) / n, sum(y) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    var_x = sum((a - mean_x) ** 2 for a in x)
    var_y = sum((b - mean_y) ** 2 for b in y)
    return cov / (var_x * var_y) ** 0.5


@criterion(8, "rank-correlation and agreement statistics match oracles")
def test_criterion_08_statistics_oracles():
    rng = random.Random(77023)

    # distinct values: classic rank-difference formula
    for _ in range(300):
        n = rng.randint(3, 10)
        x = rng.sample(range(100), n)
        y = rng.sample(range(100), n)
        rx, ry = average_ranks(x), average_ranks(y)
        d_squared = sum((a - b) ** 2 for a, b in zip(rx, ry))
        expected = 1 - 6 * d_squared / (n * (n * n - 1))
        assert abs(analysis.spearman(x, y).rho - expected) <= ORACLE_TOLERANCE

    # tied values: Pearson correlation over average ranks
    checked = 0
    while checked < 300:
        n = rng.randint(3, 10)
        x = [rng.randint(0, 3) for _ in range(n)]
        y = [rng.randint(0, 3) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        expected = pearson(average_ranks(x), average_ranks(y))
        assert abs(analysis.spearman(x, y).rho - expected) <= ORACLE_TOLERANCE
        checked += 1

    units = [(0, 0), (1, 1), (0, 1), (1, 0)]
    assert analysis.krippendorff_alpha(units) == pytest.approx(0.125)
    assert analysis.krippendorff_alpha([(1, 1), (2, 2), (3, 3)]) == 1.0

    T, F = VerdictLabel.TRUE, VerdictLabel.FALSE
    assert analysis.balanced_mae([T, T, F], [T, F, F]) == pytest.approx(0.5)


@criterion(9, "replayed scoring is byte-stable and never touches a provider")
def test_criterion_09_replay_determinism(druid_fixture_paths, tmp_path):
    claims_path, evidence_path = druid_fixture_paths
    store_path = tmp_path / "store.jsonl"
    recorder = lm.VerdictScorer(
        provider=HashLogprobProvider(),
        store=lm.ReplayStore(store_path),
    )
    claim_template = lm.load_template("claim-0shot")
    evidence_template = lm.load_template("evidence-0shot")
    claims = [ClaimRecord.from_dict(row) for _, row in read_jsonl(claims_path)]
    by_id = {claim.id: claim for claim in claims}
    pieces = [
        EvidencePiece.from_dict(row)
        for _, row in read_jsonl(evidence_path)
        if row.get("stance")
    ]
    recorded = {}
    for claim in claims:
        recorded[claim.id] = recorder.score(claim_template, claim).probs
    for piece in pieces:
        recorder.score(evidence_template, by_id[piece.claim_id], piece)
    recorder.close()

    def run_cli(*args: str) -> dict:
        import contextlib

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(args))
        assert code == 0
        return json.loads(out.getvalue())

    score_args = (
        "score",
        "--claims", str(claims_path),
        "--evidence", str(evidence_path),
        "--claim-template", "claim-0shot",
        "--evidence-template", "evidence-0shot",
        "--replay", str(store_path),
        "--provider-id", "hash-mock",
        "--out", str(tmp_path / "runs"),
    )
    first = Path(run_cli(*score_args)["run_dir"])
    second = Path(run_cli(*score_args)["run_dir"])
    assert (first / "scored.jsonl").read_bytes() == (second / "scored.jsonl").read_bytes()

    analyze_args = (
        "analyze",
        "--scored", str(first / "scored.jsonl"),
        "--evidence", str(evidence_path),
        "--out", str(tmp_path / "runs"),
    )
    first_analysis = Path(run_cli(*analyze_args)["run_dir"])
    second_analysis = Path(run_cli(*analyze_args)["run_dir"])
    assert (first_analysis / "analysis.json").read_bytes() == (
        second_analysis / "analysis.json"
    ).read_bytes()

    # a poisoned provider proves replay never goes to the network
    replayer = lm.VerdictScorer(
        provider=PoisonProvider(),
        store=lm.ReplayStore(store_path),
        provider_id="hash-mock",
    )
    for claim in claims:
        assert replayer.score(claim_template, claim).probs == recorded[claim.id]
    for piece in pieces:
        replayer.score(evidence_template, by_id[piece.claim_id], piece)


@criterion(10, "correlation grid emission is schema-exact and parseable")
def test_criterion_10_grid_schema():
    rng = random.Random(12553)
    samples = []
    for dataset in ("druid", "counterfact"):
        for stance in (StanceLabel.SUPPORTS, StanceLabel.REFUTES):
            for i in range(5):
                samples.append(
                    analysis.GridSample(
                        dataset=dataset,
                        stance=stance,
                        acu=rng.uniform(-3, 3),
                        vector=CharacteristicVector(
                            claim_id=f"c{i}",
                            evidence_id=f"e{i}",
                            jaccard=rng.random(),
                            claim_evidence_overlap=rng.random(),
                            repeats_claim=False,
                            flesch=rng.uniform(0, 100),
                            claim_len_chars=30 + i,
                            evidence_len_chars=100 + i,
                        ),
                    )
                )

    grid = analysis.correlation_grid(samples)
    assert grid["rows"] == list(analysis.GRID_CHARACTERISTICS)
    assert len(grid["rows"]) == 17
    assert grid["columns"] == [
        "counterfact|supports",
        "counterfact|refutes",
        "druid|supports",
        "druid|refutes",
    ]
    for row in grid["rows"]:
        assert set(grid["cells"][row]) == set(grid["columns"])
        for cell in grid["cells"][row].values():
            if cell is not None:
                assert {"rho", "p_value", "n", "significant"} <= set(cell)

    parsed = list(csv.reader(io.StringIO(analysis.grid_to_csv(grid))))
    assert len(parsed) == 1 + len(grid["rows"])
    assert parsed[0] == ["characteristic", *grid["columns"]]
    for record in parsed[1:]:
        assert len(record) == 1 + len(grid["columns"])
        for cell in record[1:]:
            if cell:
                float(cell.rstrip("*"))

import json
import math
import threading
import time
from datetime import date
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import strategies as st

from contextmeter.model import (
    CharacteristicVector,
    ClaimRecord,
    ClaimVerdict,
    EvidencePiece,
    Relevance,
    Reliability,
    StanceLabel,
)

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def golden_acu() -> dict:
    return json.loads((DATA_DIR / "golden_acu.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def druid_fixture_paths() -> tuple[Path, Path]:
    return (
        DATA_DIR / "druid_fixture" / "claims.jsonl",
        DATA_DIR / "druid_fixture" / "evidence.jsonl",
    )


@pytest.fixture(scope="session")
def fixture_corpus_dir() -> Path:
    return DATA_DIR / "fixture_corpus"


def make_claim(
    id="c1",
    text="The moon orbits the earth.",
    claimant="Somebody",
    source="politifact",
    claim_date=date(2022, 1, 1),
    verdict=ClaimVerdict.TRUE,
    raw_verdict="True",
) -> ClaimRecord:
    return ClaimRecord(
        id=id,
        text=text,
        claimant=claimant,
        source=source,
        claim_date=claim_date,
        verdict=verdict,
        raw_verdict=raw_verdict,
    )


def make_evidence(
    id="e1",
    claim_id="c1",
    text="Astronomy texts describe the moon's orbit around the earth.",
    url="https://example.org/astronomy",
    stance=StanceLabel.SUPPORTS,
    relevance=Relevance.RELEVANT,
    **kwargs,
) -> EvidencePiece:
    return EvidencePiece(
        id=id,
        claim_id=claim_id,
        text=text,
        url=url,
        stance=stance,
        relevance=relevance,
        **kwargs,
    )


def characteristic_vectors() -> st.SearchStrategy[CharacteristicVector]:
    """Vectors with every optional detector field either None or set, and
    ``unreliable`` over None plus every Reliability value."""
    unit = st.floats(0.0, 1.0)
    flag = st.booleans()
    return st.builds(
        CharacteristicVector,
        claim_id=st.just("c1"),
        evidence_id=st.just("e1"),
        jaccard=unit,
        claim_evidence_overlap=st.none() | unit,
        repeats_claim=flag,
        flesch=st.none() | st.floats(-300.0, 206.835),
        claim_len_chars=st.integers(0, 400),
        evidence_len_chars=st.integers(0, 4000),
        perplexity=st.none() | st.floats(0.5, 1e4),
        entity_overlap=st.none() | unit,
        no_entity_flag=flag,
        refers_external=st.none() | flag,
        hedging=flag,
        hedging_discourse=flag,
        unreliable=st.none() | st.sampled_from(Reliability),
        contains_true_word=flag,
        contains_false_word=flag,
        pub_after_claim=st.none() | flag,
        fact_check_source=flag,
        gold_source=flag,
    )


class UniformLogprobProvider:
    """Mock provider: uniform next-token mass over the three labels and a
    position-independent vocabulary of fixed size for perplexity."""

    def __init__(self, vocab_size=10, provider_id="uniform-mock"):
        self.provider_id = provider_id
        self.vocab_size = vocab_size

    def next_token_distribution(self, prompt):
        return {"True": 1 / 3, "None": 1 / 3, "False": 1 / 3}

    def token_logprobs(self, text):
        return [-math.log(self.vocab_size)] * max(1, len(text.split()))


class HashLogprobProvider:
    """Deterministic fake provider: label masses derived from the prompt hash.

    Stable across runs and machines, so record/replay tests can assert
    byte-identical artifacts.
    """

    def __init__(self, provider_id="hash-mock", labels=("True", "None", "False")):
        self.provider_id = provider_id
        self.labels = labels
        self.calls = 0

    def next_token_distribution(self, prompt):
        import hashlib

        self.calls += 1
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        weights = [1 + digest[i] for i in range(len(self.labels))]
        total = sum(weights) * 1.25  # leave mass for other tokens
        return {
            label: weight / total for label, weight in zip(self.labels, weights)
        }

    def token_logprobs(self, text):
        import hashlib

        values = []
        for token in text.split():
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            values.append(-1.0 - digest[0] / 256.0)
        return values or [-1.0]


class PoisonProvider:
    """Fails the test if any code path touches the network-facing provider."""

    provider_id = "poison"

    def next_token_distribution(self, prompt):
        raise AssertionError("provider contacted during replay")

    def token_logprobs(self, text):
        raise AssertionError("provider contacted during replay")


class Backend:
    """A loopback server that answers each POST with the next scripted
    reply (the last one repeats) and records what it received."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.requests = []
        backend = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                backend.requests.append({"headers": dict(self.headers), "body": json.loads(body)})
                status, payload, delay = backend.replies[min(len(backend.requests), len(backend.replies)) - 1]
                time.sleep(delay)
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                try:
                    self.send_response(status)
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client gave up waiting, as a timed-out client does

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # Non-daemon handlers, so close() waits for a delayed reply to finish.
        self.server.daemon_threads = False
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/v1"
        self.thread = threading.Thread(target=self.server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.fixture
def serve(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    started = []

    def start(*replies):
        backend = Backend(*[reply + (0.0,) if len(reply) == 2 else reply for reply in replies])
        started.append(backend)
        return backend

    yield start
    for backend in started:
        backend.close()

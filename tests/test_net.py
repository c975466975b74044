"""post_json's retry contract and the HTTP search, rerank and model clients, against a
loopback HTTP server."""

import socket

import pytest

from contextmeter import lm, retrieval
from contextmeter._net import post_json
from contextmeter.errors import ProviderError, RerankBackendError, SearchBackendError

RETRIES = 2


def call(url, timeout=5.0, headers=None):
    return post_json(url, {"q": "x"}, timeout, RETRIES, SearchBackendError, headers=headers, backoff=0)


def test_ok_json(serve):
    backend = serve((200, {"answer": [1, 2]}))
    assert call(backend.url) == {"answer": [1, 2]}
    assert [r["body"] for r in backend.requests] == [{"q": "x"}]


def test_client_error_fails_at_once(serve):
    backend = serve((404, {"error": "no route"}))
    with pytest.raises(SearchBackendError) as info:
        call(backend.url)
    assert "404" in str(info.value)
    assert len(backend.requests) == 1


def test_json_that_is_not_an_object_fails_at_once(serve):
    backend = serve((200, [1, 2]))
    with pytest.raises(SearchBackendError, match="returned JSON list, not an object"):
        call(backend.url)
    assert len(backend.requests) == 1


def test_server_error_is_retried_then_raised(serve):
    backend = serve((503, {}))
    with pytest.raises(SearchBackendError, match="failed after 3 attempts: .*503"):
        call(backend.url)
    assert len(backend.requests) == RETRIES + 1


def test_server_error_then_success(serve):
    backend = serve((500, {}), (200, {"ok": True}))
    assert call(backend.url) == {"ok": True}
    assert len(backend.requests) == 2


def test_non_json_ok_is_retried(serve):
    backend = serve((200, b"<html>busy</html>"), (200, {"ok": True}))
    assert call(backend.url) == {"ok": True}
    assert len(backend.requests) == 2

    always_html = serve((200, b"<html>busy</html>"))
    with pytest.raises(SearchBackendError, match="failed after 3 attempts"):
        call(always_html.url)
    assert len(always_html.requests) == RETRIES + 1


def test_timeout_is_retried(serve):
    backend = serve((200, {"late": True}, 0.6), (200, {"ok": True}))
    assert call(backend.url, timeout=0.2) == {"ok": True}
    assert len(backend.requests) == 2


def test_closed_port_is_retried(monkeypatch):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    sleeps = []
    monkeypatch.setattr("contextmeter._net.time.sleep", sleeps.append)
    with pytest.raises(SearchBackendError, match="failed after 3 attempts"):
        call(f"http://127.0.0.1:{port}/v1")
    assert sleeps == [0, 0]


def test_headers_reach_the_server(serve):
    backend = serve((200, {}))
    call(backend.url, headers={"Authorization": "Bearer t0k"})
    received = backend.requests[0]["headers"]
    assert received["Authorization"] == "Bearer t0k"
    assert received["Content-Type"] == "application/json"


def test_final_error_uses_the_class_default(serve):
    backend = serve((502, {}))
    with pytest.raises(ProviderError):
        post_json(backend.url, {}, 5.0, 0, ProviderError, backoff=0)
    assert len(backend.requests) == 1


def test_search_client_round_trip(serve):
    hit = {"url": "https://a.example/x", "title": "A", "text": "Body text.", "pub_date": "2021-03-04"}
    flattened = {"url": "https://b.example/y", "html": "<p>Flat <b>text</b></p>"}
    backend = serve((200, {"results": [hit, flattened]}))
    results = retrieval.HttpSearchClient(backend.url, name="web").search("is the sky blue")
    assert backend.requests[0]["body"] == {"query": "is the sky blue", "top_k": retrieval.TOP_RESULTS_PER_ENGINE}
    assert [r.url for r in results] == [hit["url"], flattened["url"]]
    assert results[0].rank_per_engine == (("web", 1),)
    assert results[0].pub_date.isoformat() == "2021-03-04"
    assert results[1].pub_date is None
    assert "Flat" in results[1].fetched_text and "<" not in results[1].fetched_text


def test_rerank_client_round_trip(serve):
    backend = serve((200, {"scores": [0.25, 1]}))
    scores = retrieval.HttpRerankClient(backend.url).score("sky", ["blue sky", "green"])
    assert scores == [0.25, 1.0]
    assert backend.requests[0]["body"] == {"query": "sky", "documents": ["blue sky", "green"]}



def search(url):
    return retrieval.HttpSearchClient(url, name="web").search("q")


def rerank(url):
    return retrieval.HttpRerankClient(url).score("q", ["text"])


def next_token(url):
    return lm.HttpLogprobProvider(url, "m").next_token_distribution("p")


def token_logprobs(url):
    return lm.HttpLogprobProvider(url, "m").token_logprobs("t")


#: A reply that is a JSON object but not of the documented shape, per client.
MALFORMED_REPLIES = {
    "search-no-url": (search, {"results": [{"title": "T", "text": "Body."}]}, SearchBackendError),
    "search-url-null": (search, {"results": [{"url": None, "text": "Body."}]}, SearchBackendError),
    "search-bad-pub-date": (
        search, {"results": [{"url": "https://a.example", "text": "Body.", "pub_date": "soon"}]}, SearchBackendError,
    ),
    "search-results-string": (search, {"results": "not a list"}, SearchBackendError),
    "rerank-score-not-number": (rerank, {"scores": ["a"]}, RerankBackendError),
    "rerank-score-numeric-string": (rerank, {"scores": ["0.5"]}, RerankBackendError),
    "rerank-score-bool": (rerank, {"scores": [True]}, RerankBackendError),
    "rerank-score-nan": (rerank, b'{"scores": [NaN]}', RerankBackendError),
    "rerank-score-infinity": (rerank, b'{"scores": [Infinity]}', RerankBackendError),
    "rerank-score-minus-infinity": (rerank, b'{"scores": [-Infinity]}', RerankBackendError),
    "rerank-score-overflows-float": (rerank, b'{"scores": [1e999]}', RerankBackendError),
    "logprob-not-number": (next_token, {"top_logprobs": {"True": "high"}}, ProviderError),
    "logprob-nan": (next_token, b'{"top_logprobs": {"True": NaN}}', ProviderError),
    "logprob-overflows-float": (next_token, b'{"top_logprobs": {"True": -1e999}}', ProviderError),
    "token-logprob-infinity": (token_logprobs, b'{"token_logprobs": [-0.5, -Infinity]}', ProviderError),
    "search-nan-in-unread-field": (
        search, b'{"results": [{"url": "https://a.example", "text": "Body.", "score": NaN}]}', SearchBackendError,
    ),
    "token-logprob-null": (token_logprobs, {"token_logprobs": [-0.5, None]}, ProviderError),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPLIES))
def test_malformed_reply_raises_the_backend_error(serve, case):
    call_client, reply, error = MALFORMED_REPLIES[case]
    backend = serve((200, reply))
    with pytest.raises(error, match="returned a malformed reply"):
        call_client(backend.url)
    assert len(backend.requests) == 1

"""Deterministic in-process stand-in for the HTTP logprob provider.

Label masses are derived from the SHA-256 of the prompt, so a record pass
returns the same distribution on every run and machine. A share of the mass
always goes to tokens that are not labels, as a real next-token
distribution does.
"""

from __future__ import annotations

import hashlib

PROVIDER_ID = "bench-lm"

#: Surface labels of every packaged template, scored off different digest
#: bytes so they vary independently.
_LABELS = ("True", "None", "False", "Support", "Refute")
_OTHER_TOKENS = ("The", " the", "\n", " Answer")


class HashLogprobProvider:
    """Answers ``next_token_distribution`` from the prompt hash alone.

    Accepts the keyword arguments of ``lm.HttpLogprobProvider`` so it can
    stand in where the CLI builds the HTTP provider; the endpoint is ignored
    and no connection is made.
    """

    def __init__(self, endpoint: str = "", provider_id: str = PROVIDER_ID, **_ignored):
        self.provider_id = provider_id

    def next_token_distribution(self, prompt: str) -> dict[str, float]:
        tokens = _LABELS + _OTHER_TOKENS
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        weights = [1 + byte for byte in digest[: len(tokens)]]
        total = float(sum(weights))
        return {token: weight / total for token, weight in zip(tokens, weights)}

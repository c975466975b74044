"""Shared HTTP plumbing for the search, rerank, and model backends."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator, Optional
from urllib.parse import urlsplit

from .model import _ROW_DECODER

#: Retries after a first failed attempt, for every backend.
RETRIES = 2


def post_json(
    url: str,
    payload: dict,
    timeout: float,
    retries: int,
    error_cls,
    headers: Optional[dict] = None,
    backoff: float = 0.5,
) -> dict:
    """POST JSON with exponential backoff; 5xx, connection errors, timeouts
    and a reply that is not JSON are retried, while 4xx and a JSON reply that
    is not an object or holds NaN, Infinity or 1e999 fail fast.

    Every failure is raised as ``error_cls(message)``, one for a URL that is
    not ``http(s)://host`` before any attempt.
    """
    try:  # a malformed IPv6 host or port is a ValueError too
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
            raise ValueError
    except ValueError:
        raise error_cls(f"{url!r} is not an http(s)://host URL") from None
    # Imported on first use: the HTTP stack (email, ssl, socket) adds ~33 ms to every start-up.
    import http.client
    import urllib.error
    import urllib.request

    body = json.dumps(payload).encode()
    request_headers = {"Content-Type": "application/json", **(headers or {})}
    last_error: Optional[Exception] = None
    for attempt in range(retries + 1):
        try:
            request = urllib.request.Request(url, data=body, headers=request_headers, method="POST")
            with urllib.request.urlopen(request, timeout=timeout) as response:
                reply = response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            if 400 <= exc.code < 500:
                raise error_cls(f"{url} returned {exc.code}") from None
            last_error = error_cls(f"{url} returned {exc.code}")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            # URLError and timeouts are OSErrors, a header urllib refuses a ValueError.
            last_error = exc
        else:
            try:
                data = _ROW_DECODER.decode(reply.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                last_error = exc
            except ValueError as exc:  # a number the decoder refuses
                raise error_cls(f"{url} returned a malformed reply: {exc}") from exc
            else:
                if not isinstance(data, dict):
                    raise error_cls(f"{url} returned JSON {type(data).__name__}, not an object")
                return data
        if attempt < retries:
            time.sleep(backoff * (2 ** attempt))
    raise error_cls(f"{url} failed after {retries + 1} attempts: {last_error}")


@contextmanager
def reply_shape(url: str, error_cls) -> Iterator[None]:
    """Report a reply without the documented fields or value types as an
    ``error_cls`` instead of a builtin exception."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise error_cls(
            f"{url} returned a malformed reply: {type(exc).__name__}: {exc}"
        ) from exc

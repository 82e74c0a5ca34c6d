"""HTTP plumbing shared by the LLM backend and the embedding endpoint.

This is the only module that imports requests. llm and embed import it
when an HTTP backend or provider is built or makes a call, so runs on the
mock backend and the local embedders never load the HTTP stack.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Any

from requests import RequestException, Session

logger = logging.getLogger(__name__)


class HttpStatusError(Exception):
    """A reply whose status is neither 200 nor worth retrying."""

    def __init__(self, status: int, text: str):
        super().__init__(f"HTTP {status}: {text}")
        self.status = status
        self.text = text


def new_session() -> Session:
    return Session()


def post_json(
    session: Session, url: str, body: dict, *, key_env: str, auth_header: str, timeout_s: float,
    max_retries: int, backoff_s: float, label: str, unavailable: type[Exception],
) -> Any:
    """POST body as JSON and return the parsed JSON reply.

    The API key in the key_env variable, when set, goes in auth_header (as
    a bearer token when that is Authorization). Transport errors, HTTP 429
    and 5xx, and a 200 whose body is not JSON are retried up to
    max_retries times, waiting backoff_s, then twice as long each time;
    when every attempt fails, unavailable is raised. Any other status
    raises HttpStatusError at once. The caller checks the reply's shape.
    """
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(key_env, "")
    if key:
        headers[auth_header] = f"Bearer {key}" if auth_header == "Authorization" else key
    last_error: Exception | None = None
    for attempt in range(max_retries + 1):
        if attempt:
            logger.warning("%s retry %d after: %s", label, attempt, last_error)
            time.sleep(backoff_s * 2 ** (attempt - 1))
        try:
            resp = session.post(url, json=body, headers=headers, timeout=timeout_s)
        except RequestException as exc:
            last_error = exc
            continue
        if resp.status_code == 200:
            try:
                return resp.json()
            except ValueError as exc:
                last_error = exc
                continue
        last_error = HttpStatusError(resp.status_code, resp.text[:500])
        if resp.status_code != 429 and resp.status_code < 500:
            raise last_error
    raise unavailable(f"{label} failed after {max_retries + 1} attempts: {last_error}")

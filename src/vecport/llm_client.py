"""LLM access: a remote chat-completion client and a deterministic replay client.

The replay client makes the whole pipeline reproducible: responses come from
a JSON file, keyed by call order. Two layouts are accepted:

  ["response 1", "response 2", ...]            one shared sequence
  {"case_a": [...], "case_b": [...]}           one sequence per case id

The per-case layout keeps parallel runs deterministic, since each case gets
its own child client with its own position. The remote client POSTs to any
chat-completion style HTTP endpoint with the standard library's
``urllib.request`` (imported on the first call, so replay runs never load
it; ``HTTP(S)_PROXY`` is honoured). The API key travels only via the
``VECPORT_API_KEY`` environment variable so it can never leak into logs or
attempt records.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError, LlmError, ReplayExhaustedError

API_KEY_ENV = "VECPORT_API_KEY"
TIMEOUT_S = 120.0
BACKOFF_BASE_S = 1.0  # the first retry waits this long, each later one twice the last
MAX_TOKENS = 4096  # completion length asked of the model
RETRIES = 3
RETRYABLE_STATUSES = {429, 500, 502, 503, 504}


class ReplayClient:
    """Scripted responses; fully deterministic, ignores sampling parameters.

    A list script is one shared, thread-safe sequence and is its own session.
    A per-case script holds one child ``ReplayClient`` per case id, and
    ``session(case_id)`` returns that child.
    """

    def __init__(self, responses: list[str] | dict[str, list[str]], label: str = "<memory>"):
        self.label = label
        self._pos = 0
        self._lock = threading.Lock()
        if isinstance(responses, dict):
            self._responses = None
            self._children = {
                case: ReplayClient(seq, f"{label}[{case}]") for case, seq in responses.items()
            }
        else:
            self._responses = list(responses)
            self._children = None

    @classmethod
    def from_file(cls, path: Path | str) -> "ReplayClient":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot load replay file {path}: {exc}") from exc
        if isinstance(data, list):
            if not all(isinstance(x, str) for x in data):
                raise ConfigurationError(f"{path}: replay list must contain strings")
            return cls(data, label=str(path))
        if isinstance(data, dict):
            for case, seq in data.items():
                if not isinstance(seq, list) or not all(isinstance(x, str) for x in seq):
                    raise ConfigurationError(
                        f"{path}: replay entry {case!r} must be a list of strings"
                    )
            return cls(data, label=str(path))
        raise ConfigurationError(f"{path}: replay file must be a JSON list or object")

    @property
    def per_case(self) -> bool:
        return self._children is not None

    def session(self, case_id: str) -> "ReplayClient":
        if self._children is None:
            return self
        if case_id not in self._children:
            raise ConfigurationError(
                f"replay script {self.label} has no responses for case {case_id!r}"
            )
        return self._children[case_id]

    def complete(self, messages, temperature: float = 0.2) -> str:
        if self._responses is None:
            raise ConfigurationError(
                "per-case replay client must be narrowed with session(case_id) first"
            )
        with self._lock:
            if self._pos >= len(self._responses):
                raise ReplayExhaustedError(
                    f"replay script {self.label} exhausted after "
                    f"{len(self._responses)} responses"
                )
            self._pos += 1
            return self._responses[self._pos - 1]

    @property
    def calls_made(self) -> int:
        if self._children is None:
            return self._pos
        return sum(c.calls_made for c in self._children.values())


@dataclass
class RemoteClient:
    """Chat-completion HTTP client with bounded retry and exponential backoff."""

    endpoint: str
    model: str

    def session(self, case_id: str) -> "RemoteClient":
        return self

    def complete(self, messages, temperature: float = 0.2) -> str:
        import http.client
        import urllib.error
        import urllib.request

        payload = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": temperature,
            "max_tokens": MAX_TOKENS,
        }
        body = json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        last_error: Exception | None = None
        for attempt in range(RETRIES):
            if attempt:
                time.sleep(BACKOFF_BASE_S * (2 ** (attempt - 1)))
            request = urllib.request.Request(self.endpoint, data=body, headers=headers,
                                             method="POST")
            try:
                try:
                    resp = urllib.request.urlopen(request, timeout=TIMEOUT_S)
                except urllib.error.HTTPError as exc:
                    resp = exc  # a non-2xx reply; it carries the status and body
                with resp:
                    status, raw = resp.status, resp.read()
            # URLError, refused connections and timeouts are all OSErrors.
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status in RETRYABLE_STATUSES:
                last_error = LlmError(f"endpoint returned HTTP {status}")
                continue
            if status != 200:
                text = raw.decode("utf-8", errors="replace")
                raise LlmError(f"endpoint returned HTTP {status}: {text[:500]}")
            return self._parse_content(raw)
        raise LlmError(
            f"LLM call failed after {RETRIES} attempts: {last_error}"
        ) from last_error

    @staticmethod
    def _parse_content(raw: bytes) -> str:
        """The reply's text; a null content is a blank reply."""
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise LlmError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, (str, type(None))):
            raise LlmError(f"malformed completion response: content is a {type(content).__name__}")
        return content or ""

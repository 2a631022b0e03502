"""Uniform access to model providers: live HTTP endpoints and replay fixtures.

Every call goes through `invoke`, which owns the retry policy and returns one
`ProviderResponse` record instead of raising: the text on success, a typed
`Failure` otherwise, and the latency and attempt count either way.
`call_structured` turns that record into an extraction result and keeps it as
the result's `call`. Credentials are only ever read from the environment via
the variable named in the provider config.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import re
import threading
import time
from collections.abc import Callable, Mapping, MutableMapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol
from urllib.parse import unquote, urlsplit

from .core import (
    FAIL_AUTH,
    FAIL_EXHAUSTED,
    FAIL_PARSE,
    FAIL_RATE_LIMITED,
    FAIL_TIMEOUT,
    FAIL_TRANSPORT,
    ExtractionResult,
    Failure,
    ProviderResponse,
    SpecSchema,
    check_field_kinds,
    read_text_file,
    text_mode_line_ends,
    validate_spec_document,
)

logger = logging.getLogger(__name__)

__all__ = [
    "KIND_HTTP",
    "KIND_REPLAY",
    "PROVIDER_KINDS",
    "ROLE_TAGS",
    "FAIL_TIMEOUT",
    "FAIL_TRANSPORT",
    "FAIL_AUTH",
    "FAIL_RATE_LIMITED",
    "FAIL_EXHAUSTED",
    "ProviderConfig",
    "PromptRequest",
    "ProviderResponse",
    "BackendError",
    "ReplayBackend",
    "HttpBackend",
    "fixture_key",
    "fixture_path",
    "invoke",
    "extract_first_json_object",
    "parse_structured_output",
    "call_structured",
]

KIND_HTTP = "http_openai_compatible"
KIND_REPLAY = "replay_fixture"
PROVIDER_KINDS = frozenset({KIND_HTTP, KIND_REPLAY})

ROLE_EXTRACTION = "extraction"
ROLE_RESEARCH = "research"
ROLE_SYNTHESIS = "synthesis"
ROLE_TAGS = frozenset({ROLE_EXTRACTION, ROLE_RESEARCH, ROLE_SYNTHESIS})

BACKOFF_BASE_S = 0.5
BACKOFF_FACTOR = 2.0

_ENV_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFAULT_PORTS = {"http": 80, "https": 443}
# Failure kinds of the HTTP statuses that are not plain transport failures.
# Every status failure but an auth one may pass on a retry.
_STATUS_KINDS = {401: FAIL_AUTH, 403: FAIL_AUTH, 429: FAIL_RATE_LIMITED}


@dataclass(frozen=True)
class ProviderConfig:
    """One model endpoint in the roster.

    `credentials_env` names an environment variable; the key itself never
    appears in configuration. Replay providers read canned responses from
    `fixtures_dir` instead of the network.
    """

    model_id: str
    kind: str
    endpoint: str | None = None
    credentials_env: str | None = None
    timeout: float = 60.0
    max_retries: int = 2
    role_tags: frozenset[str] = frozenset({ROLE_EXTRACTION})
    fixtures_dir: str | None = None

    def __post_init__(self) -> None:
        credentials_env = self.credentials_env
        if credentials_env is not None and not (
            isinstance(credentials_env, str) and _ENV_NAME.fullmatch(credentials_env)
        ):
            # Refuse anything that is not an environment variable NAME, before
            # the kind check, which would show a pasted literal API key whole.
            raise ValueError(
                f"credentials_env {str(credentials_env)[:8]!r}... must name an environment "
                "variable; never put key material in a config file"
            )
        check_field_kinds(self)
        if not self.model_id:
            raise ValueError("model_id must be a non-empty string")
        if self.kind not in PROVIDER_KINDS:
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError("timeout must be positive and finite")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if unknown := self.role_tags - ROLE_TAGS:
            raise ValueError(f"unknown role tags: {sorted(unknown)}")
        if not self.role_tags:
            raise ValueError("a provider needs at least one role tag")
        if self.kind == KIND_HTTP and not self.endpoint:
            raise ValueError(f"provider {self.model_id!r} is http but has no endpoint")
        if self.kind == KIND_HTTP and not _is_http_url(self.endpoint):
            raise ValueError(
                f"provider {self.model_id!r} endpoint is not an absolute http:// or https:// URL"
            )
        if self.kind == KIND_REPLAY and not self.fixtures_dir:
            raise ValueError(f"provider {self.model_id!r} is replay but has no fixtures_dir")


def _is_http_url(text: str) -> bool:
    try:
        url = urlsplit(text)
        url.port  # noqa: B018 - raises ValueError for a port out of range
    except ValueError:
        return False
    return url.scheme in _DEFAULT_PORTS and bool(url.hostname)


@dataclass(frozen=True)
class PromptRequest:
    system_text: str
    user_text: str

    def __post_init__(self) -> None:
        if not self.user_text:
            raise ValueError("user_text must be non-empty")


class BackendError(Exception):
    """A backend call failed. `failure_kind` is one of core's failure kinds,
    the message is the failure's detail, and `retryable` tells `invoke`
    whether another attempt may succeed."""

    def __init__(self, failure_kind: str, detail: str, retryable: bool = False) -> None:
        super().__init__(detail)
        self.failure_kind = failure_kind
        self.retryable = retryable


class Backend(Protocol):
    def complete(self, request: PromptRequest) -> str: ...


def fixture_key(model_id: str, user_text: str) -> str:
    """Stable fixture filename stem for a (model, prompt) pair."""
    digest = hashlib.sha256()
    digest.update(model_id.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(user_text.encode("utf-8"))
    return digest.hexdigest()[:16]


def fixture_path(fixtures_dir: str | Path, model_id: str, user_text: str) -> Path:
    return Path(_fixture_file(os.fspath(fixtures_dir), model_id, user_text))


def _fixture_file(fixtures_dir: str, model_id: str, user_text: str) -> str:
    """fixtures_dir/model_id/<fixture_key>.txt; a str, as a Path per replay call costs more."""
    return f"{_fixture_prefix(fixtures_dir, model_id)}{fixture_key(model_id, user_text)}.txt"


@functools.lru_cache(maxsize=64)
def _fixture_prefix(fixtures_dir: str, model_id: str) -> str:
    return os.path.join(Path(fixtures_dir, model_id), "")


@dataclass(frozen=True)
class ReplayBackend:
    """Serves canned completions from per-model fixture files."""

    config: ProviderConfig

    def complete(self, request: PromptRequest) -> str:
        fixtures_dir = self.config.fixtures_dir
        assert fixtures_dir is not None
        path = _fixture_file(fixtures_dir, self.config.model_id, request.user_text)
        try:
            text = read_text_file(path, functools.partial(BackendError, FAIL_TRANSPORT))
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            # A missing fixture will stay missing; retrying would only waste time.
            raise BackendError(FAIL_TRANSPORT, f"no fixture at {path}") from None
        return text_mode_line_ends(text)


class HttpBackend:
    """Calls a chat-completions endpoint and returns the first choice's text.

    Each thread keeps one connection per (scheme, host, port) and reuses it
    across calls; `connections` replaces that per-thread mapping.
    """

    def __init__(
        self,
        config: ProviderConfig,
        env: Mapping[str, str] | None = None,
        connections: MutableMapping[tuple[str, str, int], Any] | None = None,
    ) -> None:
        self._config = config
        self._env = os.environ if env is None else env
        self._connections = _thread_connections() if connections is None else connections

    def complete(self, request: PromptRequest) -> str:
        import http.client  # only HTTP calls pay for loading http.client

        config = self._config
        headers = {"Content-Type": "application/json"}
        if config.credentials_env:
            key = self._env.get(config.credentials_env)
            if not key:
                raise BackendError(
                    FAIL_AUTH, f"environment variable {config.credentials_env!r} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        payload = {
            "model": config.model_id,
            "temperature": 0.0,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
        }
        url = urlsplit(config.endpoint)
        scheme, host = url.scheme, url.hostname
        port = url.port or _DEFAULT_PORTS[scheme]
        entry = self._connections.get((scheme, host, port))
        if entry is None:
            entry = self._connections[scheme, host, port] = _open_connection(scheme, host, port)
        conn, proxy_headers = entry
        if proxy_headers is None:
            target = url.path or "/"
            if url.query:
                target += f"?{url.query}"
        else:
            target = url._replace(fragment="").geturl()
            headers.update(proxy_headers)
        if conn.sock is not None and _dropped(conn.sock):
            conn.close()
        conn.timeout = config.timeout
        connected = conn.sock is not None
        try:
            if connected:
                conn.sock.settimeout(config.timeout)
            else:
                conn.connect()
                connected = True
            conn.request("POST", target, json.dumps(payload).encode("utf-8"), headers)
            with conn.getresponse() as response:
                status, data = response.status, response.read()
        except BaseException as exc:
            # A late reply on this connection must never answer the next call.
            conn.close()
            # Run files keep failure details, so they name the endpoint in the
            # same words whichever HTTP client produced them.
            where = f"{scheme.upper()}ConnectionPool(host={host!r}, port={port})"
            if isinstance(exc, TimeoutError):
                stage = "Read" if connected else "Connect"
                raise BackendError(
                    FAIL_TIMEOUT,
                    f"{where}: {stage} timed out. ({stage.lower()} timeout={config.timeout})",
                ) from exc
            if isinstance(exc, (OSError, http.client.HTTPException)):
                raise BackendError(FAIL_TRANSPORT, f"{where}: {exc!r}", retryable=True) from exc
            raise

        if status != 200:
            kind = _STATUS_KINDS.get(status, FAIL_TRANSPORT)
            raise BackendError(kind, f"HTTP {status}", retryable=kind != FAIL_AUTH)
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(
                FAIL_TRANSPORT, f"malformed completion body: {exc}", retryable=True
            ) from exc
        if not isinstance(content, str):
            raise BackendError(FAIL_TRANSPORT, "completion content is not a string", retryable=True)
        return content


class _ThreadConnections(dict):
    """One thread's kept-alive connections, closed when the thread ends."""

    def __del__(self) -> None:
        for connection, _proxy_headers in self.values():
            connection.close()


# Each thread keeps its own connections, so a long-lived worker thread reuses
# them across calls and no connection is ever shared between threads.
_thread_state = threading.local()


def _thread_connections() -> _ThreadConnections:
    connections = getattr(_thread_state, "connections", None)
    if connections is None:
        connections = _thread_state.connections = _ThreadConnections()
    return connections


def _open_connection(scheme: str, host: str, port: int) -> tuple[Any, dict[str, str] | None]:
    """An unconnected connection to (scheme, host, port), and the headers a
    plain-HTTP proxy needs on every call (None when calls go direct or
    through a CONNECT tunnel).

    `HTTP_PROXY`/`HTTPS_PROXY` and `NO_PROXY` are read here, once per
    connection. HTTPS verifies certificates with the default SSL context.
    """
    import base64
    import http.client
    import urllib.request

    connection_type = (
        http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    )
    proxies = urllib.request.getproxies_environment()
    proxy = proxies.get(scheme)
    if not proxy or urllib.request.proxy_bypass_environment(f"{host}:{port}", proxies):
        return connection_type(host, port), None
    proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    auth = {}
    if proxy_url.username is not None:
        credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode()).decode()
    proxy_address = (proxy_url.hostname, proxy_url.port or 80)
    if scheme == "https":
        connection = connection_type(*proxy_address)
        connection.set_tunnel(host, port, headers=auth)
        return connection, None
    return connection_type(*proxy_address), auth


def _dropped(sock: Any) -> bool:
    """True when an idle kept-alive socket is readable: the server closed it
    (or sent something unasked), so it must not carry the next request."""
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def invoke(
    config: ProviderConfig,
    request: PromptRequest,
    *,
    backend: Backend | None = None,
    sleep: Callable[[float], None] = time.sleep,
    env: Mapping[str, str] | None = None,
) -> ProviderResponse:
    """Call one provider with retries; never raises for provider trouble.

    A retryable `BackendError` (transport and rate-limit trouble, but not a
    missing fixture) is retried with exponential backoff (0.5s base,
    doubling) up to max_retries extra attempts; any other, timeouts and
    auth problems among them, fails at once. A retry budget that runs out reports
    "exhausted_retries" with the last underlying error in the detail. Every
    outcome carries the latency and the attempt count.
    """
    if backend is None:
        backend = ReplayBackend(config) if config.kind == KIND_REPLAY else HttpBackend(config, env)
    started = time.perf_counter()
    delay = BACKOFF_BASE_S
    attempts = 0
    text, failure = "", None
    while True:
        attempts += 1
        try:
            text = backend.complete(request)
        except BackendError as exc:
            if not exc.retryable:
                failure = Failure(exc.failure_kind, str(exc))
            elif attempts > config.max_retries:
                failure = Failure(FAIL_EXHAUSTED, f"{exc.failure_kind}: {exc}")
            else:
                logger.debug("retrying %s after %s (attempt %d)", config.model_id, exc, attempts)
                sleep(delay)
                delay *= BACKOFF_FACTOR
                continue
        except Exception as exc:  # noqa: BLE001 - a broken backend must not sink the phase
            failure = Failure(FAIL_TRANSPORT, f"unexpected backend error: {exc}")
        latency = time.perf_counter() - started
        return ProviderResponse(config.model_id, text, latency, attempts, failure)


# Keeps no state between calls, so every thread shares it, as json.loads shares its own.
_DECODER = json.JSONDecoder()


def extract_first_json_object(text: str) -> Any | None:
    """Pull the first decodable JSON object out of free-form model text."""
    start = text.find("{")
    while start != -1:
        try:
            # Decoding from a "{" yields a dict or nothing.
            return _DECODER.raw_decode(text, start)[0]
        except json.JSONDecodeError:
            start = text.find("{", start + 1)
    return None


def parse_structured_output(
    response: ProviderResponse, schema: SpecSchema, phase: str
) -> ExtractionResult:
    """Turn raw model text into a validated extraction result.

    Output with no decodable JSON object, or nested too deeply to walk,
    becomes a parse_error failure; the raw text is preserved either way for
    audit, and the response itself is kept as the result's `call`.
    """
    try:
        document = extract_first_json_object(response.raw_text)
        if document is not None:
            return validate_spec_document(
                document,
                schema,
                response.model_id,
                phase,
                raw_output=response.raw_text,
                call=response,
            )
        detail = "no JSON object found in model output"
    except RecursionError:
        detail = "model output nests too deeply to parse"
    failure = Failure(FAIL_PARSE, detail)
    return ExtractionResult.failed(response.model_id, phase, failure, response.raw_text, response)


def call_structured(
    provider: ProviderConfig,
    request: PromptRequest,
    schema: SpecSchema,
    phase: str,
    *,
    invoke_fn: Callable[..., Any],
) -> ExtractionResult:
    """Call one provider and record the outcome as an extraction result.

    `invoke_fn(provider, request)` makes the call and returns its
    ProviderResponse; `invoke` reads credentials from `os.environ`, and
    `partial(invoke, env=...)` binds another mapping. Never raises: a
    response is parsed and validated, a failed record's Failure goes onto the
    result as it is, and an exception from anywhere in the call becomes a
    transport failure. Failed results carry no claims and are schema-invalid.
    The result's `call` is the record `invoke_fn` returned, or None when it
    raised.
    """
    outcome = None
    try:
        outcome = invoke_fn(provider, request)
        if outcome.failure is None:
            return parse_structured_output(outcome, schema, phase)
        failure = outcome.failure
    except Exception as exc:  # noqa: BLE001 - one bad provider must not sink the phase
        logger.warning("provider %s raised %s", provider.model_id, exc, exc_info=True)
        failure = Failure(FAIL_TRANSPORT, f"unhandled provider error: {exc}")
    return ExtractionResult.failed(provider.model_id, phase, failure, call=outcome)

"""Provider invocation: retries, failure taxonomy, replay, HTTP, parsing."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from functools import partial
from urllib.parse import urlsplit

import pytest
from conftest import KeepAliveHandler, ScriptedHandler
from hypothesis import given, settings
from hypothesis import strategies as st

from partspec.core import (
    FAIL_PARSE,
    PHASE_EXTRACTION,
    ExtractionResult,
    Failure,
    SpecSchema,
)
from partspec.gateway import (
    FAIL_AUTH,
    FAIL_EXHAUSTED,
    FAIL_RATE_LIMITED,
    FAIL_TIMEOUT,
    FAIL_TRANSPORT,
    KIND_HTTP,
    KIND_REPLAY,
    BackendError,
    HttpBackend,
    PromptRequest,
    ProviderConfig,
    ProviderResponse,
    ReplayBackend,
    call_structured,
    extract_first_json_object,
    fixture_key,
    fixture_path,
    invoke,
    parse_structured_output,
)

REQUEST = PromptRequest(system_text="extract", user_text="DESCRIPTION:\nM8 bolt")


def _replay_config(fixtures_dir, model_id="model-a", max_retries=2):
    return ProviderConfig(
        model_id=model_id,
        kind=KIND_REPLAY,
        fixtures_dir=str(fixtures_dir),
        max_retries=max_retries,
    )


class TestProviderConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ProviderConfig(model_id="m", kind="carrier_pigeon")

    def test_http_requires_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            ProviderConfig(model_id="m", kind=KIND_HTTP)

    @pytest.mark.parametrize(
        "endpoint",
        [
            "api.example.com/v1",
            "/v1/chat/completions",
            "ftp://api.example.com/v1",
            "http:///v1/chat/completions",
            "https://api.example.com:99999/v1",
            "http://[::1/v1",
        ],
    )
    def test_http_endpoint_must_be_absolute_http_url(self, endpoint):
        with pytest.raises(ValueError, match="provider 'm' endpoint is not an absolute"):
            ProviderConfig(model_id="m", kind=KIND_HTTP, endpoint=endpoint)

    def test_replay_requires_fixtures_dir(self):
        with pytest.raises(ValueError, match="fixtures_dir"):
            ProviderConfig(model_id="m", kind=KIND_REPLAY)

    def test_unknown_role_tag_rejected(self):
        with pytest.raises(ValueError, match="role tags"):
            ProviderConfig(
                model_id="m", kind=KIND_REPLAY, fixtures_dir="f", role_tags=frozenset({"pilot"})
            )

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            ProviderConfig(model_id="m", kind=KIND_REPLAY, fixtures_dir="f", timeout=0)

    def test_empty_user_text_rejected(self):
        with pytest.raises(ValueError, match="user_text"):
            PromptRequest(system_text="s", user_text="")


class TestFixtureAddressing:
    def test_key_is_prefixed_sha256(self):
        expected = hashlib.sha256(b"model-a\x00DESCRIPTION:\nM8 bolt").hexdigest()[:16]
        assert fixture_key("model-a", "DESCRIPTION:\nM8 bolt") == expected

    def test_key_distinguishes_model_and_text(self):
        base = fixture_key("model-a", "text")
        assert fixture_key("model-b", "text") != base
        assert fixture_key("model-a", "other") != base
        # The separator byte keeps (model, text) splits unambiguous.
        assert fixture_key("ab", "c") != fixture_key("a", "bc")

    def test_path_layout(self, tmp_path):
        path = fixture_path(tmp_path, "model-a", "text")
        assert path.parent == tmp_path / "model-a"
        assert path.suffix == ".txt"
        assert path.stem == fixture_key("model-a", "text")


class TestReplayBackend:
    def test_replays_fixture(self, tmp_path):
        config = _replay_config(tmp_path)
        path = fixture_path(tmp_path, config.model_id, REQUEST.user_text)
        path.parent.mkdir(parents=True)
        path.write_text('{"part_name": "bolt"}', encoding="utf-8")
        outcome = invoke(config, REQUEST)
        assert outcome.failure is None
        assert outcome.raw_text == '{"part_name": "bolt"}'
        assert outcome.attempt_count == 1

    def test_missing_fixture_fails_without_retry(self, tmp_path):
        sleeps: list[float] = []
        outcome = invoke(_replay_config(tmp_path), REQUEST, sleep=sleeps.append)
        assert outcome.failure is not None
        assert outcome.failure.kind == FAIL_TRANSPORT
        assert outcome.attempt_count == 1
        assert sleeps == []


@pytest.fixture(params=["fx", "./fx", "fx/", "absolute"])
def fixtures_dir(request, tmp_path, monkeypatch):
    """A fixtures_dir spelled each way a config may give it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fx").mkdir()
    return str(tmp_path / "fx") if request.param == "absolute" else request.param


class TestFixtureReads:
    """ReplayBackend finds, reads and misses fixtures as `fixture_path` names them."""

    def test_missing_fixture_detail_names_the_path(self, fixtures_dir):
        outcome = invoke(_replay_config(fixtures_dir), REQUEST)
        path = fixture_path(fixtures_dir, "model-a", REQUEST.user_text)
        assert outcome.failure == Failure(FAIL_TRANSPORT, f"no fixture at {path}")

    @pytest.mark.parametrize("blocker", ["directory_at_path", "file_as_model_dir"])
    def test_unreadable_path_is_missing_fixture(self, fixtures_dir, blocker):
        path = fixture_path(fixtures_dir, "model-a", REQUEST.user_text)
        if blocker == "directory_at_path":
            path.mkdir(parents=True)
        else:
            path.parent.write_text("not a directory", encoding="utf-8")
        outcome = invoke(_replay_config(fixtures_dir), REQUEST)
        assert outcome.failure == Failure(FAIL_TRANSPORT, f"no fixture at {path}")
        assert outcome.attempt_count == 1

    def test_reads_as_path_read_text(self, fixtures_dir):
        path = fixture_path(fixtures_dir, "model-a", REQUEST.user_text)
        path.parent.mkdir()
        path.write_bytes('{"part_name": "Bolt \u00e9"}\r\n\r\nline\rend\n'.encode())
        text = ReplayBackend(_replay_config(fixtures_dir)).complete(REQUEST)
        assert text == path.read_text(encoding="utf-8")
        assert text == '{"part_name": "Bolt \u00e9"}\n\nline\nend\n'

    @pytest.mark.parametrize(
        "content",
        [b"\xef\xbb\xbf{}\r\n", b"\r\r\n\r", b"a\rb\r\nc\n\rd\r", b"", b"x" * 70_000 + b"\r\n"],
        ids=["byte_order_mark", "cr_before_crlf", "mixed_newlines", "empty", "past_one_read"],
    )
    def test_newlines_and_byte_order_mark_as_text_mode_reads_them(self, fixtures_dir, content):
        path = fixture_path(fixtures_dir, "model-a", REQUEST.user_text)
        path.parent.mkdir()
        path.write_bytes(content)
        with open(path, encoding="utf-8") as text_mode:
            expected = text_mode.read()
        assert ReplayBackend(_replay_config(fixtures_dir)).complete(REQUEST) == expected

    def test_invalid_utf8_fails_as_text_mode_read_does(self, fixtures_dir):
        path = fixture_path(fixtures_dir, "model-a", REQUEST.user_text)
        path.parent.mkdir()
        path.write_bytes(b'{"a": 1}\r\n\xff')
        with pytest.raises(UnicodeDecodeError) as text_mode:
            path.read_text(encoding="utf-8")
        outcome = invoke(_replay_config(fixtures_dir), REQUEST)
        assert outcome.failure == Failure(
            FAIL_TRANSPORT, f"unexpected backend error: {text_mode.value}"
        )


class _FlakyBackend:
    """Scripted backend: raises each queued error, then succeeds."""

    def __init__(self, errors, text="ok"):
        self.errors = list(errors)
        self.text = text
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.text


class TestRetryPolicy:
    def test_retries_rate_limit_then_succeeds(self, tmp_path):
        backend = _FlakyBackend([BackendError(FAIL_RATE_LIMITED, "429", retryable=True)] * 2)
        sleeps: list[float] = []
        outcome = invoke(_replay_config(tmp_path), REQUEST, backend=backend, sleep=sleeps.append)
        assert outcome.failure is None
        assert outcome.attempt_count == 3
        assert sleeps == [0.5, 1.0]

    def test_retries_transport(self, tmp_path):
        backend = _FlakyBackend([BackendError(FAIL_TRANSPORT, "reset", retryable=True)])
        outcome = invoke(_replay_config(tmp_path), REQUEST, backend=backend, sleep=lambda s: None)
        assert outcome.failure is None
        assert outcome.attempt_count == 2

    def test_exhausted_retries(self, tmp_path):
        backend = _FlakyBackend([BackendError(FAIL_TRANSPORT, "reset", retryable=True)] * 10)
        sleeps: list[float] = []
        outcome = invoke(
            _replay_config(tmp_path, max_retries=2), REQUEST, backend=backend, sleep=sleeps.append
        )
        assert outcome.failure is not None
        assert outcome.failure.kind == FAIL_EXHAUSTED
        assert outcome.attempt_count == 3
        assert "transport" in outcome.failure.detail
        assert sleeps == [0.5, 1.0]
        assert backend.calls == 3

    def test_exhausted_rate_limit_detail(self, tmp_path):
        backend = _FlakyBackend([BackendError(FAIL_RATE_LIMITED, "429", retryable=True)] * 10)
        outcome = invoke(
            _replay_config(tmp_path, max_retries=1), REQUEST, backend=backend, sleep=lambda s: None
        )
        assert outcome.failure is not None
        assert outcome.failure.kind == FAIL_EXHAUSTED
        assert FAIL_RATE_LIMITED in outcome.failure.detail
        assert outcome.attempt_count == 2

    def test_auth_fails_immediately(self, tmp_path):
        backend = _FlakyBackend([BackendError(FAIL_AUTH, "401")] * 10)
        sleeps: list[float] = []
        outcome = invoke(_replay_config(tmp_path), REQUEST, backend=backend, sleep=sleeps.append)
        assert outcome.failure is not None
        assert outcome.failure.kind == FAIL_AUTH
        assert outcome.attempt_count == 1
        assert sleeps == []

    def test_timeout_fails_immediately(self, tmp_path):
        backend = _FlakyBackend([BackendError(FAIL_TIMEOUT, "slow")] * 10)
        outcome = invoke(_replay_config(tmp_path), REQUEST, backend=backend, sleep=lambda s: None)
        assert outcome.failure is not None
        assert outcome.failure.kind == FAIL_TIMEOUT
        assert outcome.attempt_count == 1

    def test_zero_retries_single_attempt(self, tmp_path):
        backend = _FlakyBackend([BackendError(FAIL_TRANSPORT, "reset", retryable=True)] * 10)
        outcome = invoke(
            _replay_config(tmp_path, max_retries=0), REQUEST, backend=backend, sleep=lambda s: None
        )
        assert outcome.failure is not None
        assert outcome.attempt_count == 1

    def test_unexpected_exception_contained(self, tmp_path):
        backend = _FlakyBackend([RuntimeError("boom")])
        outcome = invoke(_replay_config(tmp_path), REQUEST, backend=backend, sleep=lambda s: None)
        assert outcome.failure is not None
        assert outcome.failure.kind == FAIL_TRANSPORT
        assert "boom" in outcome.failure.detail

    @pytest.mark.parametrize(
        ("errors", "kind", "attempts"),
        [
            ([BackendError(FAIL_TIMEOUT, "slow")], FAIL_TIMEOUT, 1),
            ([BackendError(FAIL_TRANSPORT, "reset", retryable=True)] * 3, FAIL_EXHAUSTED, 3),
        ],
    )
    def test_failed_call_record_reaches_the_result(self, tmp_path, errors, kind, attempts):
        class _SlowBackend(_FlakyBackend):
            def complete(self, request):
                time.sleep(0.005)
                return super().complete(request)

        invoke_fn = partial(invoke, backend=_SlowBackend(errors), sleep=lambda s: None)
        config = _replay_config(tmp_path, max_retries=2)
        result = call_structured(
            config, REQUEST, SpecSchema.default(), PHASE_EXTRACTION, invoke_fn=invoke_fn
        )
        call = result.call
        assert call is not None and call.failure is result.failure
        assert call.failure.kind == kind
        assert call.attempt_count == attempts
        assert call.latency >= 0.005 * attempts
        assert call.raw_text == ""


def _http_config(endpoint, **overrides):
    defaults = dict(
        model_id="live-model",
        kind=KIND_HTTP,
        endpoint=endpoint,
        timeout=5.0,
        max_retries=2,
    )
    defaults.update(overrides)
    return ProviderConfig(**defaults)


@pytest.fixture()
def pool():
    """A connection mapping for HttpBackend, closed after the test."""
    connections: dict = {}
    yield connections
    for connection, _proxy_headers in connections.values():
        connection.close()


class TestHttpBackend:
    def test_success(self, http_server):
        outcome = invoke(_http_config(http_server), REQUEST, sleep=lambda s: None)
        assert outcome.failure is None
        assert outcome.raw_text == '{"part_name": "bolt"}'

    def test_rate_limited_then_recovers(self, http_server):
        ScriptedHandler.script = [429, 429, 200]
        outcome = invoke(_http_config(http_server), REQUEST, sleep=lambda s: None)
        assert outcome.failure is None
        assert outcome.attempt_count == 3

    def test_auth_status_maps_to_auth_failure(self, http_server):
        ScriptedHandler.script = [401]
        outcome = invoke(_http_config(http_server), REQUEST, sleep=lambda s: None)
        assert outcome.failure is not None
        assert outcome.failure.kind == FAIL_AUTH
        assert outcome.attempt_count == 1

    def test_server_error_retries_then_exhausts(self, http_server):
        ScriptedHandler.script = [500, 500, 500]
        outcome = invoke(_http_config(http_server), REQUEST, sleep=lambda s: None)
        assert outcome.failure is not None
        assert outcome.failure.kind == FAIL_EXHAUSTED
        assert outcome.attempt_count == 3

    def test_timeout_maps_to_timeout_failure(self, http_server):
        ScriptedHandler.script = [-1]
        config = _http_config(http_server, timeout=0.2, max_retries=0)
        outcome = invoke(config, REQUEST, sleep=lambda s: None)
        assert outcome.failure is not None
        assert outcome.failure.kind == FAIL_TIMEOUT

    def test_malformed_body_is_transport(self, http_server):
        ScriptedHandler.script = [-2]
        config = _http_config(http_server, max_retries=0)
        outcome = invoke(config, REQUEST, sleep=lambda s: None)
        assert outcome.failure is not None
        # A zero retry budget means the first retryable error exhausts it.
        assert outcome.failure.kind == FAIL_EXHAUSTED
        assert FAIL_TRANSPORT in outcome.failure.detail

    def test_connection_refused_is_transport(self):
        config = _http_config("http://127.0.0.1:1/v1/chat/completions", max_retries=0)
        outcome = invoke(config, REQUEST, sleep=lambda s: None)
        assert outcome.failure is not None
        assert outcome.failure.kind in (FAIL_TRANSPORT, FAIL_EXHAUSTED)

    def test_credentials_read_from_env_mapping(self, http_server):
        config = _http_config(http_server, credentials_env="PART_KEY")
        outcome = invoke(config, REQUEST, env={"PART_KEY": "sekrit"}, sleep=lambda s: None)
        assert outcome.failure is None
        assert "Bearer sekrit" in ScriptedHandler.seen_auth

    def test_missing_credentials_is_auth_failure(self, http_server):
        config = _http_config(http_server, credentials_env="PART_KEY")
        outcome = invoke(config, REQUEST, env={}, sleep=lambda s: None)
        assert outcome.failure is not None
        assert outcome.failure.kind == FAIL_AUTH
        assert outcome.attempt_count == 1

    def test_payload_shape(self, http_server):
        captured: dict = {}

        class _Recorder:
            sock = None

            def connect(self):
                pass

            def request(self, method, target, body, headers):
                captured.update(json.loads(body))
                raise BackendError(FAIL_AUTH, "stop here")

            def close(self):
                pass

        url = urlsplit(http_server)
        connections = {("http", url.hostname, url.port): (_Recorder(), None)}
        backend = HttpBackend(_http_config(http_server), connections=connections)
        invoke(_http_config(http_server), REQUEST, backend=backend, sleep=lambda s: None)
        assert captured["model"] == "live-model"
        assert captured["temperature"] == 0.0
        assert captured["messages"][0]["role"] == "system"
        assert captured["messages"][1] == {"role": "user", "content": REQUEST.user_text}

    def test_calls_on_one_thread_share_a_connection(self, keepalive_server):
        config = _http_config(keepalive_server.url)
        for _ in range(2):
            outcome = invoke(config, REQUEST, sleep=lambda s: None)
            assert outcome.failure is None
        assert keepalive_server.connections == 1

    def test_late_reply_never_answers_the_next_call(self, keepalive_server, pool):
        keepalive_server.delay = lambda user_text: 0.5 if "slow" in user_text else 0.0
        keepalive_server.reply = lambda user_text: {"part_name": user_text}

        def call(user_text, timeout):
            config = _http_config(keepalive_server.url, timeout=timeout, max_retries=0)
            backend = HttpBackend(config, connections=pool)
            request = PromptRequest(system_text="extract", user_text=user_text)
            return invoke(config, request, backend=backend, sleep=lambda s: None)

        assert call("slow part", timeout=0.2).failure.kind == FAIL_TIMEOUT
        # Long enough for the late reply to arrive, were the connection kept.
        outcome = call("fast part", timeout=5.0)
        assert outcome.failure is None
        assert json.loads(outcome.raw_text) == {"part_name": "fast part"}
        assert keepalive_server.connections == 2

    def test_idle_connection_closed_by_server_is_replaced(
        self, keepalive_server, pool, monkeypatch
    ):
        monkeypatch.setattr(KeepAliveHandler, "timeout", 0.1)
        config = _http_config(keepalive_server.url)
        backend = HttpBackend(config, connections=pool)
        assert invoke(config, REQUEST, backend=backend, sleep=lambda s: None).failure is None
        time.sleep(0.5)  # the server drops the connection after 0.1 s idle
        outcome = invoke(config, REQUEST, backend=backend, sleep=lambda s: None)
        assert outcome.failure is None
        assert outcome.attempt_count == 1
        assert keepalive_server.connections == 2

    def test_http_proxy_from_environment(self, keepalive_server, pool, monkeypatch):
        _clear_proxy_env(monkeypatch)
        proxy = urlsplit(keepalive_server.url)
        monkeypatch.setenv("HTTP_PROXY", f"http://user:pass@{proxy.netloc}")
        endpoint = "http://provider.invalid/v1/chat/completions"
        config = _http_config(endpoint)
        backend = HttpBackend(config, connections=pool)
        outcome = invoke(config, REQUEST, backend=backend, sleep=lambda s: None)
        assert outcome.failure is None
        [(target, headers)] = keepalive_server.received
        assert target == endpoint
        assert headers["Host"] == "provider.invalid"
        assert headers["Proxy-Authorization"] == "Basic dXNlcjpwYXNz"

    def test_no_proxy_bypasses_the_proxy(self, keepalive_server, pool, monkeypatch):
        _clear_proxy_env(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:1")
        monkeypatch.setenv("NO_PROXY", "example.test, 127.0.0.1")
        config = _http_config(keepalive_server.url)
        backend = HttpBackend(config, connections=pool)
        outcome = invoke(config, REQUEST, backend=backend, sleep=lambda s: None)
        assert outcome.failure is None
        [(target, headers)] = keepalive_server.received
        assert target == "/v1/chat/completions"
        assert "Proxy-Authorization" not in headers


_REFUSED = repr(ConnectionRefusedError(errno.ECONNREFUSED, os.strerror(errno.ECONNREFUSED)))

# Each case: the scripted replies (for `invoke`, then for one direct call),
# ProviderConfig overrides, the outcome `invoke` reports as (kind, detail,
# attempt count), and whether the error the backend raises is retryable.
# "{where}" in a detail stands for the endpoint's pool name and "{fixture}"
# for the fixture path.
_PROVIDER_FAILURES = [
    pytest.param([401] * 2, {}, FAIL_AUTH, "HTTP 401", 1, False, id="http_401"),
    pytest.param([403] * 2, {}, FAIL_AUTH, "HTTP 403", 1, False, id="http_403"),
    pytest.param(
        [429] * 3, {}, FAIL_EXHAUSTED, "rate_limited: HTTP 429", 2, True, id="http_429_exhausted"
    ),
    pytest.param([500] * 3, {}, FAIL_EXHAUSTED, "transport: HTTP 500", 2, True, id="http_500"),
    pytest.param([503] * 3, {}, FAIL_EXHAUSTED, "transport: HTTP 503", 2, True, id="http_503"),
    pytest.param(
        [-2] * 3,
        {},
        FAIL_EXHAUSTED,
        "transport: malformed completion body: Expecting value: line 1 column 1 (char 0)",
        2,
        True,
        id="body_not_json",
    ),
    pytest.param(
        [-3] * 3,
        {},
        FAIL_EXHAUSTED,
        "transport: malformed completion body: 'choices'",
        2,
        True,
        id="body_without_choices",
    ),
    pytest.param(
        [-4] * 3,
        {},
        FAIL_EXHAUSTED,
        "transport: completion content is not a string",
        2,
        True,
        id="content_null",
    ),
    pytest.param(
        [-1] * 2,
        {"timeout": 0.2},
        FAIL_TIMEOUT,
        "{where}: Read timed out. (read timeout=0.2)",
        1,
        False,
        id="read_timeout",
    ),
    pytest.param(
        [],
        {"endpoint": "http://127.0.0.1:1/v1/chat/completions"},
        FAIL_EXHAUSTED,
        f"transport: HTTPConnectionPool(host='127.0.0.1', port=1): {_REFUSED}",
        2,
        True,
        id="connection_refused",
    ),
    pytest.param(
        [],
        {"credentials_env": "PART_KEY"},
        FAIL_AUTH,
        "environment variable 'PART_KEY' is not set",
        1,
        False,
        id="missing_credentials",
    ),
    pytest.param(
        [],
        {"kind": KIND_REPLAY, "endpoint": None, "fixtures_dir": "fixtures"},
        FAIL_TRANSPORT,
        "no fixture at {fixture}",
        1,
        False,
        id="missing_fixture",
    ),
]


class TestProviderFailureOutcomes:
    """Every way a provider call fails, pinned as `invoke` reports it."""

    @pytest.mark.parametrize(
        ("script", "overrides", "kind", "detail", "attempts", "retryable"), _PROVIDER_FAILURES
    )
    def test_outcome(
        self, http_server, pool, tmp_path, monkeypatch, script, overrides, kind, detail,
        attempts, retryable,
    ):
        monkeypatch.chdir(tmp_path)
        ScriptedHandler.script = list(script)
        config = _http_config(**{"endpoint": http_server, "max_retries": 1, **overrides})
        url = urlsplit(http_server)
        expected = detail.format(
            where=f"HTTPConnectionPool(host={url.hostname!r}, port={url.port})",
            fixture=fixture_path("fixtures", config.model_id, REQUEST.user_text),
        )
        outcome = invoke(config, REQUEST, env={}, sleep=lambda s: None)
        assert outcome.failure is not None
        assert (outcome.failure.kind, outcome.failure.detail, outcome.attempt_count) == (
            kind,
            expected,
            attempts,
        )
        # perfbench counts failed calls by the kind the backend's error carries.
        if config.kind == KIND_REPLAY:
            backend = ReplayBackend(config)
        else:
            backend = HttpBackend(config, env={}, connections=pool)
        with pytest.raises(BackendError) as raised:
            backend.complete(REQUEST)
        assert raised.value.failure_kind in _FAILURE_KINDS
        assert raised.value.retryable is retryable


def _clear_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


class TestExtractFirstJsonObject:
    def test_plain_object(self):
        assert extract_first_json_object('{"a": 1}') == {"a": 1}

    def test_fenced_code_block(self):
        text = 'Sure! Here is the JSON:\n```json\n{"a": {"b": 2}}\n```\nDone.'
        assert extract_first_json_object(text) == {"a": {"b": 2}}

    def test_braces_in_strings(self):
        text = 'prefix {"a": "curly } brace", "b": 1} suffix'
        assert extract_first_json_object(text) == {"a": "curly } brace", "b": 1}

    def test_skips_non_json_braces(self):
        text = 'set {x} then {"a": 1}'
        assert extract_first_json_object(text) == {"a": 1}

    def test_array_wrapper_finds_inner_object(self):
        assert extract_first_json_object('[1, {"a": 1}]') == {"a": 1}

    def test_no_object_returns_none(self):
        assert extract_first_json_object("no json here") is None
        assert extract_first_json_object("[1, 2, 3]") is None
        assert extract_first_json_object("") is None

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text(alphabet='{}[]":,.-e0 1ab\\nul')))
    def test_never_raises_on_any_text(self, text):
        found = extract_first_json_object(text)
        assert found is None or isinstance(found, dict)


class TestParseStructuredOutput:
    def test_valid_document(self):
        response = ProviderResponse(
            "m1",
            '```json\n{"part_name": "Bolt", "manufacturer": "Acme", '
            '"part_number": "HB-1", "specifications": {"material": "steel"}}\n```',
            0.01,
            1,
        )
        result = parse_structured_output(response, SpecSchema.default(), PHASE_EXTRACTION)
        assert result.schema_valid
        assert result.model_id == "m1"
        assert result.raw_output == response.raw_text

    def test_unparseable_output(self):
        response = ProviderResponse("m1", "I could not find any part data.", 0.01, 1)
        result = parse_structured_output(response, SpecSchema.default(), PHASE_EXTRACTION)
        assert not result.schema_valid
        assert result.failure is not None and result.failure.kind == "parse_error"
        assert result.raw_output == response.raw_text

    def test_deeply_nested_output_is_parse_error(self):
        deep = '{"a":' * 5000 + "1" + "}" * 5000
        response = ProviderResponse("m1", deep, 0.01, 1)
        result = parse_structured_output(response, SpecSchema.default(), PHASE_EXTRACTION)
        assert not result.schema_valid
        assert result.failure is not None and result.failure.kind == "parse_error"
        assert result.raw_output == deep

    def test_failure_to_result(self):
        config = _replay_config("unused", model_id="m1")

        def timing_out(provider, request, env=None):
            failure = Failure(FAIL_TIMEOUT, "no reply in 5s")
            return ProviderResponse(provider.model_id, "", 0.0, 1, failure)

        result = call_structured(
            config, REQUEST, SpecSchema.default(), PHASE_EXTRACTION, invoke_fn=timing_out
        )
        assert not result.schema_valid
        assert result.failure is not None
        assert result.failure.kind == FAIL_TIMEOUT
        assert result.claims == ()


_VALID_TEXT = json.dumps(
    {
        "part_name": "Bolt",
        "manufacturer": "Acme",
        "part_number": "HB-1",
        "specifications": {"material": "steel"},
    }
)
_FAILURE_KINDS = [
    FAIL_TIMEOUT,
    FAIL_TRANSPORT,
    FAIL_AUTH,
    FAIL_RATE_LIMITED,
    FAIL_EXHAUSTED,
    FAIL_PARSE,
]
_EXCEPTIONS = [
    RuntimeError,
    ValueError,
    KeyError,
    OSError,
    partial(BackendError, FAIL_TRANSPORT, retryable=True),
    partial(BackendError, FAIL_TIMEOUT),
]


class TestCallStructuredProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just("text"), st.one_of(st.text(), st.just(_VALID_TEXT))),
            st.tuples(
                st.just("failure"), st.builds(Failure, st.sampled_from(_FAILURE_KINDS), st.text())
            ),
            st.tuples(
                st.just("raise"),
                st.builds(lambda cls, msg: cls(msg), st.sampled_from(_EXCEPTIONS), st.text()),
            ),
        ),
        st.floats(min_value=0.0, max_value=1e3),
        st.integers(min_value=1, max_value=10),
    )
    def test_one_path_for_every_outcome(self, action, latency, attempts):
        mode, payload = action
        returned = []

        def invoke_fn(provider, request):
            if mode == "raise":
                raise payload
            text, failure = (payload, None) if mode == "text" else ("", payload)
            returned.append(ProviderResponse(provider.model_id, text, latency, attempts, failure))
            return returned[0]

        config = _replay_config("unused", model_id="m1")
        result = call_structured(
            config, REQUEST, SpecSchema.default(), PHASE_EXTRACTION, invoke_fn=invoke_fn
        )
        assert result.model_id == "m1"
        if result.failure is not None:
            assert result.claims == () and not result.schema_valid
        if mode == "failure":
            assert result.failure is payload
        if mode == "raise":
            assert result.call is None
            assert result.failure == Failure(FAIL_TRANSPORT, f"unhandled provider error: {payload}")
        else:
            assert result.call is returned[0]
        data = result.to_dict()
        assert "call" not in data
        assert ExtractionResult.from_dict(data) == result

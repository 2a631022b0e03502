"""Ensemble configuration, prompts, gap analysis, and the pipeline itself."""

from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from functools import partial

import pytest
from conftest import JSON_VALUES, finishes_within
from corpusgen import config_document
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from partspec import gateway, orchestrator
from partspec.core import (
    PHASE_EXTRACTION,
    PHASE_RESEARCH,
    Failure,
    PartDescription,
    SpecSchema,
    validate_spec_document,
)
from partspec.gateway import (
    KIND_HTTP,
    KIND_REPLAY,
    ProviderConfig,
    ProviderResponse,
)
from partspec.orchestrator import (
    ConfigError,
    EnsembleConfig,
    build_prompt,
    extract_phase,
    identify_gaps,
    research_phase,
    run_pipeline,
)
from partspec.retrieval import FlatIndex, HashTrigramEmbedder, Hit, PartRecord, RetrievedContext

DESCRIPTION = PartDescription("d1", "M8 hex bolt, steel, zinc plated")


def _provider(model_id, *roles):
    return ProviderConfig(
        model_id=model_id,
        kind=KIND_REPLAY,
        fixtures_dir="unused",
        role_tags=frozenset(roles or ("extraction",)),
    )


def _config(**overrides):
    roster = (
        _provider("alpha", "extraction"),
        _provider("bravo", "extraction", "research"),
        _provider("charlie", "extraction"),
        _provider("synth", "synthesis"),
    )
    defaults = dict(roster=roster, synthesis_model="synth", min_quorum=2)
    defaults.update(overrides)
    return EnsembleConfig(**defaults)


def _index(texts=("hex bolt steel", "brass washer", "ball bearing")):
    records = [PartRecord(f"r{i}", text, f"s:{i}") for i, text in enumerate(texts)]
    return FlatIndex.build(records, HashTrigramEmbedder(64))


_FULL_DOC = {
    "part_name": "Hex Bolt",
    "manufacturer": "Acme",
    "part_number": "HB-100",
    "specifications": {"material": "steel"},
}


def _echo_invoke(document=None):
    """invoke_fn stub returning the same document for every provider."""
    doc = _FULL_DOC if document is None else document
    calls = []

    def fake(provider, request, env=None):
        calls.append((provider.model_id, request, env))
        return ProviderResponse(provider.model_id, json.dumps(doc), 0.0, 1)

    fake.calls = calls
    return fake


class TestEnsembleConfig:
    def test_defaults(self):
        config = _config()
        assert config.k == 5
        assert config.threshold == 0.25
        assert config.min_quorum == 2
        assert config.gap_confidence_floor == 0.6
        assert config.confidence_weights == (0.4, 0.4, 0.2)

    def test_research_models_default_to_tagged(self):
        config = EnsembleConfig.from_dict(
            {
                "roster": [
                    {"model_id": "a", "kind": KIND_REPLAY, "fixtures_dir": "f"},
                    {
                        "model_id": "b",
                        "kind": KIND_REPLAY,
                        "fixtures_dir": "f",
                        "role_tags": ["extraction", "research", "synthesis"],
                    },
                ],
                "synthesis_model": "b",
            }
        )
        assert config.research_models == ("b",)
        assert [p.model_id for p in config.research_providers()] == ["b"]

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            EnsembleConfig.from_dict(
                {"roster": [], "synthesis_model": "x", "api_key": "sk-123"}
            )

    def test_unknown_provider_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown provider keys"):
            EnsembleConfig.from_dict(
                {
                    "roster": [
                        {
                            "model_id": "a",
                            "kind": KIND_REPLAY,
                            "fixtures_dir": "f",
                            "secret": "sk-123",
                        }
                    ],
                    "synthesis_model": "a",
                }
            )

    def test_literal_secret_in_credentials_env_rejected(self):
        with pytest.raises(ConfigError, match="never put key material"):
            EnsembleConfig.from_dict(
                {
                    "roster": [
                        {
                            "model_id": "a",
                            "kind": KIND_REPLAY,
                            "fixtures_dir": "f",
                            "credentials_env": "sk-proj-abc123XYZ",
                        }
                    ],
                    "synthesis_model": "a",
                }
            )

    def test_valid_credentials_env_accepted(self):
        config = EnsembleConfig.from_dict(
            {
                "roster": [
                    {
                        "model_id": "a",
                        "kind": KIND_REPLAY,
                        "fixtures_dir": "f",
                        "credentials_env": "ACME_API_KEY",
                        "role_tags": ["extraction", "synthesis"],
                    }
                ],
                "synthesis_model": "a",
                "min_quorum": 1,
            }
        )
        assert config.roster[0].credentials_env == "ACME_API_KEY"

    def test_synthesis_model_must_be_tagged(self):
        with pytest.raises(ConfigError, match="lacks the synthesis role"):
            _config(synthesis_model="alpha")

    def test_synthesis_model_must_exist(self):
        with pytest.raises(ConfigError, match="not in the roster"):
            _config(synthesis_model="ghost")

    def test_research_model_must_be_tagged(self):
        with pytest.raises(ConfigError, match="lacks the research role"):
            _config(research_models=("alpha",))

    def test_min_quorum_bounds(self):
        with pytest.raises(ConfigError, match="min_quorum"):
            _config(min_quorum=0)
        with pytest.raises(ConfigError, match="min_quorum"):
            _config(min_quorum=9)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            _config(confidence_weights=(0.5, 0.4, 0.2))

    def test_duplicate_model_ids_rejected(self):
        roster = (_provider("alpha"), _provider("alpha"), _provider("s", "synthesis"))
        with pytest.raises(ConfigError, match="unique"):
            EnsembleConfig(roster=roster, synthesis_model="s")

    def test_from_file_resolves_fixture_dirs(self, tmp_path):
        config_dir = tmp_path / "conf"
        config_dir.mkdir()
        payload = {
            "roster": [
                {
                    "model_id": "a",
                    "kind": KIND_REPLAY,
                    "fixtures_dir": "fixtures",
                    "role_tags": ["extraction", "synthesis"],
                }
            ],
            "synthesis_model": "a",
            "min_quorum": 1,
        }
        path = config_dir / "ensemble.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        config = EnsembleConfig.from_file(path)
        assert config.roster[0].fixtures_dir == str(config_dir / "fixtures")

    def test_from_file_keeps_absolute_fixture_dirs(self, tmp_path):
        payload = {
            "roster": [
                {
                    "model_id": "a",
                    "kind": KIND_REPLAY,
                    "fixtures_dir": "/opt/fixtures",
                    "role_tags": ["extraction", "synthesis"],
                }
            ],
            "synthesis_model": "a",
            "min_quorum": 1,
        }
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        config = EnsembleConfig.from_file(path)
        assert config.roster[0].fixtures_dir == "/opt/fixtures"

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "ensemble.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            EnsembleConfig.from_file(path)

    def test_empty_research_models_mean_every_tagged_entry(self):
        assert _config().research_models == ("bravo",)
        assert [p.model_id for p in _config().research_providers()] == ["bravo"]
        document = config_document()
        document["research_models"] = []
        assert EnsembleConfig.from_dict(document).research_models == ("delta", "echo")

    @pytest.mark.parametrize(
        "entry, key, value",
        [
            (0, "fixtures_dir", 5),
            (None, "min_quorum", 1e400),
            (0, "max_retries", 1e400),
            (None, "confidence_weights", [math.nan, 0.5, 0.5]),
            (None, "threshold", math.nan),
            (None, "threshold", math.inf),
            (0, "timeout", math.nan),
            (0, "timeout", math.inf),
            (0, "role_tags", "extraction"),
            (None, "research_models", "abc"),
            (None, "min_quorum", 2.9),
            (None, "k", True),
            (0, "max_retries", 1.7),
            (None, "threshold", False),
        ],
        ids=[
            "fixtures_dir_not_string",
            "overflowing_min_quorum",
            "overflowing_max_retries",
            "nan_confidence_weight",
            "nan_threshold",
            "infinite_threshold",
            "nan_timeout",
            "infinite_timeout",
            "string_role_tags",
            "string_research_models",
            "fractional_min_quorum",
            "boolean_k",
            "fractional_max_retries",
            "boolean_threshold",
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, entry, key, value):
        document = config_document()
        (document if entry is None else document["roster"][entry])[key] = value
        with pytest.raises(ConfigError, match=key):
            EnsembleConfig.from_dict(document, base_dir=tmp_path)

    def test_non_finite_numbers_rejected_when_built_directly(self):
        with pytest.raises(ConfigError, match="threshold"):
            _config(threshold=math.nan)
        with pytest.raises(ConfigError, match="confidence_weights"):
            _config(confidence_weights=(math.nan, 0.5, 0.5))
        with pytest.raises(ValueError, match="timeout"):
            ProviderConfig(model_id="m", kind=KIND_REPLAY, fixtures_dir="f", timeout=math.inf)

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), value=JSON_VALUES)
    def test_loader_raises_only_config_error(self, tmp_path, data, value):
        document = config_document()
        entry = data.draw(st.sampled_from([document, *document["roster"]]))
        declared = fields(EnsembleConfig if entry is document else ProviderConfig)
        entry[data.draw(st.sampled_from([f.name for f in declared]))] = value
        try:
            config = EnsembleConfig.from_dict(document, base_dir=tmp_path)
        except ConfigError:
            return
        assert isinstance(config, EnsembleConfig)

    def test_extraction_providers_in_roster_order(self):
        config = _config()
        assert [p.model_id for p in config.extraction_providers()] == [
            "alpha",
            "bravo",
            "charlie",
        ]


class TestBuildPrompt:
    def test_user_text_golden(self):
        context = RetrievedContext(
            hits=(
                Hit("B1", 0.8732, "id: B1 | material: steel | name: hex bolt"),
                Hit("W2", 0.6001, "id: W2 | material: brass | name: washer"),
            ),
            query_text=DESCRIPTION.text,
            k_requested=5,
            threshold_applied=0.25,
        )
        request = build_prompt(
            DESCRIPTION, context, SpecSchema.default(), ("manufacturer", "part_number")
        )
        assert request.user_text == (
            "DESCRIPTION:\n"
            "M8 hex bolt, steel, zinc plated\n"
            "\n"
            "REFERENCE 1 (similarity 0.8732):\n"
            "id: B1 | material: steel | name: hex bolt\n"
            "\n"
            "REFERENCE 2 (similarity 0.6001):\n"
            "id: W2 | material: brass | name: washer\n"
            "\n"
            "FOCUS:\n"
            "- manufacturer\n"
            "- part_number"
        )

    def test_system_text_golden(self):
        context = RetrievedContext.empty(DESCRIPTION.text, 5, 0.25)
        request = build_prompt(DESCRIPTION, context, SpecSchema.default())
        assert request.system_text == (
            "You extract structured industrial part specifications.\n"
            "Respond with a single JSON object and nothing else.\n"
            "Required fields:\n"
            "- part_name (scalar-text)\n"
            "- manufacturer (scalar-text)\n"
            "- part_number (scalar-text)\n"
            "- specifications (nested-map)\n"
            'A field value may be written as {"value": ..., "confidence": 0.0-1.0} '
            "to report how certain you are."
        )

    def test_no_references_block_for_empty_context(self):
        context = RetrievedContext.empty(DESCRIPTION.text, 5, 0.25)
        request = build_prompt(DESCRIPTION, context, SpecSchema.default())
        assert request.user_text == "DESCRIPTION:\nM8 hex bolt, steel, zinc plated"


class TestExtractPhase:
    def test_one_result_per_extraction_provider(self):
        invoke_fn = _echo_invoke()
        results, context = extract_phase(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=invoke_fn
        )
        assert [r.model_id for r in results] == ["alpha", "bravo", "charlie"]
        assert [r.phase for r in results] == [PHASE_EXTRACTION] * 3
        assert all(r.schema_valid for r in results)
        called = sorted(model for model, _, _ in invoke_fn.calls)
        assert called == ["alpha", "bravo", "charlie"]

    def test_context_uses_configured_k_and_threshold(self):
        _, context = extract_phase(
            DESCRIPTION,
            _config(k=2, threshold=0.1),
            _index(),
            SpecSchema.default(),
            invoke_fn=_echo_invoke(),
        )
        assert context.k_requested == 2
        assert context.threshold_applied == 0.1
        assert len(context.hits) <= 2

    def test_provider_failure_becomes_result(self):
        def flaky(provider, request, env=None):
            if provider.model_id == "bravo":
                return ProviderResponse("bravo", "", 0.0, 1, Failure("timeout", "5s elapsed"))
            return ProviderResponse(provider.model_id, json.dumps(_FULL_DOC), 0.0, 1)

        results, _ = extract_phase(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=flaky
        )
        by_model = {r.model_id: r for r in results}
        assert not by_model["bravo"].schema_valid
        assert by_model["bravo"].failure is not None
        assert by_model["bravo"].failure.kind == "timeout"
        assert by_model["alpha"].schema_valid

    def test_raising_provider_is_contained(self):
        def exploding(provider, request, env=None):
            if provider.model_id == "charlie":
                raise RuntimeError("wire fell out")
            return ProviderResponse(provider.model_id, json.dumps(_FULL_DOC), 0.0, 1)

        results, _ = extract_phase(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=exploding
        )
        by_model = {r.model_id: r for r in results}
        assert by_model["charlie"].failure is not None
        assert "wire fell out" in by_model["charlie"].failure.detail

    def test_runs_concurrently(self):
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def slow(provider, request, env=None):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.05)
            with lock:
                active["now"] -= 1
            return ProviderResponse(provider.model_id, json.dumps(_FULL_DOC), 0.0, 1)

        started = time.perf_counter()
        extract_phase(DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=slow)
        elapsed = time.perf_counter() - started
        assert active["peak"] >= 2
        assert elapsed < 0.15


def _gap_invoke(threads):
    """invoke_fn whose low manufacturer confidence forces a research round;
    it records the name of the thread each call runs on."""
    low_conf = dict(_FULL_DOC, manufacturer={"value": "Acme", "confidence": 0.5})

    def call(provider, request):
        threads.append(threading.current_thread().name)
        doc = _FULL_DOC if "FOCUS" in request.user_text else low_conf
        return ProviderResponse(provider.model_id, json.dumps(doc), 0.0, 1)

    return call


def _record_call_threads(monkeypatch):
    """Names of the threads that backend calls ran on, in call order."""
    threads: list[str] = []

    def recording(complete):
        def call(backend, request):
            threads.append(threading.current_thread().name)
            return complete(backend, request)

        return call

    for backend in (gateway.ReplayBackend, gateway.HttpBackend):
        monkeypatch.setattr(backend, "complete", recording(backend.complete))
    return threads


def _no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was started")


def _valid_result(model, overrides=None):
    doc = dict(_FULL_DOC)
    if overrides:
        doc.update(overrides)
    return validate_spec_document(doc, SpecSchema.default(), model, PHASE_EXTRACTION)


class TestIdentifyGaps:
    def test_no_gaps_when_confident_and_covered(self):
        results = [_valid_result(m) for m in ("alpha", "bravo", "charlie")]
        assert identify_gaps(results, SpecSchema.default(), _config()) == []

    def test_low_confidence_triggers_gap(self):
        results = [
            _valid_result(m, {"manufacturer": {"value": "Acme", "confidence": 0.55}})
            for m in ("alpha", "bravo", "charlie")
        ]
        assert identify_gaps(results, SpecSchema.default(), _config()) == ["manufacturer"]

    def test_one_confident_claim_clears_gap(self):
        results = [
            _valid_result("alpha", {"manufacturer": {"value": "Acme", "confidence": 0.55}}),
            _valid_result("bravo", {"manufacturer": {"value": "Acme", "confidence": 0.9}}),
            _valid_result("charlie"),
        ]
        assert identify_gaps(results, SpecSchema.default(), _config()) == []

    def test_empty_values_do_not_count_as_coverage(self):
        results = [
            _valid_result("alpha", {"manufacturer": ""}),
            _valid_result("bravo", {"manufacturer": ""}),
            _valid_result("charlie"),
        ]
        # One of three outputs covers the field: below half.
        assert identify_gaps(results, SpecSchema.default(), _config()) == ["manufacturer"]

    def test_invalid_results_do_not_vote(self):
        results = [
            _valid_result("alpha"),
            validate_spec_document({"part_name": "x"}, SpecSchema.default(), "bravo", PHASE_EXTRACTION),
        ]
        assert identify_gaps(results, SpecSchema.default(), _config()) == []

    def test_gaps_sorted(self):
        results = [
            _valid_result(
                m,
                {
                    "part_number": {"value": "HB-1", "confidence": 0.2},
                    "manufacturer": {"value": "Acme", "confidence": 0.2},
                },
            )
            for m in ("alpha", "bravo")
        ]
        assert identify_gaps(results, SpecSchema.default(), _config()) == [
            "manufacturer",
            "part_number",
        ]


class TestResearchPhase:
    def test_query_appends_gaps_and_prompt_focuses(self):
        invoke_fn = _echo_invoke()
        results, context = research_phase(
            DESCRIPTION,
            ["manufacturer", "part_number"],
            _config(),
            _index(),
            SpecSchema.default(),
            invoke_fn=invoke_fn,
        )
        assert context.query_text == DESCRIPTION.text + " manufacturer part_number"
        assert [r.model_id for r in results] == ["bravo"]
        assert results[0].phase == PHASE_RESEARCH
        _, request, _ = invoke_fn.calls[0]
        assert "FOCUS:\n- manufacturer\n- part_number" in request.user_text


class TestRunPipeline:
    def test_full_run_reaches_synthesis(self):
        result = run_pipeline(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=_echo_invoke()
        )
        assert result.final is not None
        assert result.quorum_failure is None
        assert len(result.phase1_results) == 3
        assert result.phase2_results == ()
        assert result.final.fields["part_name"].value == "Hex Bolt"

    def test_quorum_failure_short_circuits(self):
        def failing(provider, request, env=None):
            if provider.model_id == "alpha":
                return ProviderResponse(provider.model_id, json.dumps(_FULL_DOC), 0.0, 1)
            return ProviderResponse(provider.model_id, "", 0.0, 1, Failure("timeout", ""))

        result = run_pipeline(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=failing
        )
        assert result.final is None
        assert result.quorum_failure is not None
        assert result.quorum_failure.successes == 1
        assert result.quorum_failure.min_quorum == 2
        assert result.phase2_results == ()
        assert result.research_context is None
        # Phase 1 cardinality still holds: one result per extraction provider.
        assert len(result.phase1_results) == 3

    def test_gap_triggers_research_phase(self):
        low_conf = dict(_FULL_DOC, manufacturer={"value": "Acme", "confidence": 0.5})
        high_conf = dict(_FULL_DOC, manufacturer={"value": "Acme", "confidence": 0.95})

        def staged(provider, request, env=None):
            doc = high_conf if "FOCUS" in request.user_text else low_conf
            return ProviderResponse(provider.model_id, json.dumps(doc), 0.0, 1)

        result = run_pipeline(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=staged
        )
        assert [r.model_id for r in result.phase2_results] == ["bravo"]
        assert result.research_context is not None
        assert result.research_context.query_text.endswith(" manufacturer")
        assert result.final is not None

    def test_invoke_fn_takes_provider_and_request_only(self):
        low_conf = dict(_FULL_DOC, manufacturer={"value": "Acme", "confidence": 0.5})
        called: list[str] = []

        def call(provider, request):
            called.append(provider.model_id)
            doc = _FULL_DOC if "FOCUS" in request.user_text else low_conf
            return ProviderResponse(provider.model_id, json.dumps(doc), 0.0, 1)

        result = run_pipeline(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=call
        )
        # Extraction, research and the consistency pass all used the fake.
        assert sorted(called) == ["alpha", "bravo", "bravo", "charlie", "synth"]
        assert all(r.failure is None for r in result.phase1_results + result.phase2_results)
        assert result.final is not None
        assert result.final.provenance["synthesis_pass"] == "applied: synth"

    def test_one_pool_per_description_by_default(self):
        threads: list[str] = []
        invoke_fn = _gap_invoke(threads)
        result = run_pipeline(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=invoke_fn
        )
        assert len(result.phase2_results) == 1
        # Pool threads are named "<pool>_<worker>": both phases used one pool.
        fan_out = [name for name in threads if name.startswith("ThreadPoolExecutor")]
        assert len(fan_out) == 4
        assert len({name.rsplit("_", 1)[0] for name in fan_out}) == 1

    def test_one_worker_call_pool_completes_with_same_result(self):
        expected = run_pipeline(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=_gap_invoke([])
        )
        threads: list[str] = []
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="calls") as calls:
            result = finishes_within(
                30,
                lambda: run_pipeline(
                    DESCRIPTION,
                    _config(),
                    _index(),
                    SpecSchema.default(),
                    invoke_fn=_gap_invoke(threads),
                    executor=calls,
                ),
            )
        assert result.to_json() == expected.to_json()
        # Every fan-out call ran on the given pool; only the review did not.
        assert [name.startswith("calls") for name in threads] == [True] * 4 + [False]

    def test_default_pool_closed_before_synthesis_review(self):
        workers: set[threading.Thread] = set()
        alive_at_review: list[bool] = []
        answer = _gap_invoke([])

        def call(provider, request):
            if provider.model_id == "synth":
                alive_at_review.append(any(worker.is_alive() for worker in workers))
            else:
                workers.add(threading.current_thread())
            return answer(provider, request)

        result = run_pipeline(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=call
        )
        assert len(result.phase2_results) == 1
        # The fan-out workers were joined before the review call started.
        assert workers and alive_at_review == [False]

    def test_replay_roster_with_library_invoke_runs_on_calling_thread(self, corpus, monkeypatch):
        threads = _record_call_threads(monkeypatch)
        monkeypatch.setattr(orchestrator, "ThreadPoolExecutor", _no_pool)
        config = EnsembleConfig.from_file(corpus.config_path)
        # The third corpus description goes to research.
        case = corpus.cases[2]
        description = PartDescription(case.description_id, case.text, case.category)
        result = run_pipeline(
            description, config, FlatIndex.load(corpus.index_dir), SpecSchema.default()
        )
        assert result.to_json() == corpus.results[2].to_json()
        assert result.phase2_results
        assert result.final.provenance["synthesis_pass"].startswith("applied")
        calls = len(result.phase1_results) + len(result.phase2_results) + 1
        assert threads == [threading.current_thread().name] * calls

    @pytest.mark.parametrize("variant", ["http_entry", "bound_invoke"])
    def test_other_rosters_and_invokes_keep_one_pool_per_description(
        self, corpus, monkeypatch, variant
    ):
        threads = _record_call_threads(monkeypatch)
        config = EnsembleConfig.from_file(corpus.config_path)
        invoke_fn = gateway.invoke
        if variant == "http_entry":
            # One extractor becomes an HTTP provider that answers as its
            # replay fixtures would; the recorder sees each call once, in
            # the replay backend.
            first = config.roster[0]
            http = replace(first, kind=KIND_HTTP, endpoint="http://127.0.0.1:9/v1")
            config = replace(config, roster=(http, *config.roster[1:]))
            replay = gateway.ReplayBackend(first)
            monkeypatch.setattr(
                gateway.HttpBackend, "complete", lambda backend, request: replay.complete(request)
            )
        else:
            invoke_fn = partial(gateway.invoke, env={})
        index = FlatIndex.load(corpus.index_dir)
        for position in (0, 2):
            case = corpus.cases[position]
            description = PartDescription(case.description_id, case.text, case.category)
            threads.clear()
            result = run_pipeline(
                description, config, index, SpecSchema.default(), invoke_fn=invoke_fn
            )
            assert result.to_json() == corpus.results[position].to_json()
            # Fan-out calls ran on one pool; the review ran on this thread.
            fan_out = len(result.phase1_results) + len(result.phase2_results)
            assert len({name.rsplit("_", 1)[0] for name in threads[:fan_out]}) == 1
            assert threads[0].startswith("ThreadPoolExecutor")
            assert threads[fan_out:] == [threading.current_thread().name]

    def test_deterministic_serialization(self):
        first = run_pipeline(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=_echo_invoke()
        )
        second = run_pipeline(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=_echo_invoke()
        )
        assert first.to_json() == second.to_json()

    def test_timings_excluded_by_default(self):
        result = run_pipeline(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=_echo_invoke()
        )
        assert "timings" not in result.to_dict()
        assert set(result.timings) == {"extraction", "research", "synthesis", "total"}
        assert "timings" not in json.loads(result.to_json())

    def test_serialized_shape(self):
        result = run_pipeline(
            DESCRIPTION, _config(), _index(), SpecSchema.default(), invoke_fn=_echo_invoke()
        )
        data = json.loads(result.to_json())
        assert set(data) == {
            "description_id",
            "outputs",
            "context_used",
            "final",
            "quorum_failure",
        }
        assert data["context_used"]["research"] is None
        assert data["final"]["provenance"]["synthesis_pass"] == "applied: synth"

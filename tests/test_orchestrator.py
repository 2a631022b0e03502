"""Ensemble configuration, prompts, gap analysis, and the pipeline itself."""

from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from conftest import JSON_VALUES, finishes_within
from corpusgen import (
    CASES,
    EXTRACTION_MODELS,
    config_document,
    extraction_document,
    research_document,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from partspec import gateway, orchestrator
from partspec.core import (
    FAIL_AUTH,
    FAIL_EXHAUSTED,
    FAIL_PARSE,
    FAIL_RATE_LIMITED,
    FAIL_TIMEOUT,
    FAIL_TRANSPORT,
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
    ROLE_EXTRACTION,
    ROLE_SYNTHESIS,
    ROLE_TAGS,
    ProviderConfig,
    ProviderResponse,
)
from partspec.orchestrator import (
    ConfigError,
    EnsembleConfig,
    batch_executors,
    build_prompt,
    extract_phase,
    identify_gaps,
    research_phase,
    run_pipeline,
)
from partspec.metrics import GroundTruthManifest, ManifestEntry, MetricError
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


# A row value meaning the key is left out of the document.
_ABSENT = object()


def _build_directly(document):
    """The config `document` describes, built in Python instead of by `from_dict`."""
    roster = tuple(ProviderConfig(**entry) for entry in document["roster"])
    return EnsembleConfig(**{**document, "roster": roster})


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

    def test_research_model_must_exist(self):
        with pytest.raises(ConfigError, match="research model 'ghost' is not in the roster"):
            _config(research_models=("ghost",))

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
            (None, "confidence_weights", [True, False, False]),
            (None, "confidence_weights", ["0.4", 0.4, 0.2]),
            (None, "confidence_weights", [10**400, 0, 0]),
            (None, "synthesis_model", ["synth-1"]),
            (None, "research_models", [["delta"]]),
            (0, "kind", ["replay_fixture"]),
            (0, "model_id", ""),
            (0, "max_retries", -1),
            (None, "k", -1),
            (None, "gap_confidence_floor", 1.5),
            (0, "max_retries", 1.5),
            (0, "max_retries", True),
            (None, "min_quorum", 1.0),
            (0, "timeout", "5"),
            (None, "k", "5"),
            (None, "threshold", "0.2"),
            (0, "model_id", 5),
            (None, "synthesis_model", _ABSENT),
            (0, "kind", _ABSENT),
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
            "boolean_confidence_weights",
            "string_confidence_weight",
            "overflowing_confidence_weight",
            "list_synthesis_model",
            "list_in_research_models",
            "list_provider_kind",
            "empty_model_id",
            "negative_max_retries",
            "negative_k",
            "gap_confidence_floor_above_one",
            "half_max_retries",
            "boolean_max_retries",
            "float_min_quorum",
            "string_timeout",
            "string_k",
            "string_threshold",
            "integer_model_id",
            "missing_synthesis_model",
            "missing_provider_kind",
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, entry, key, value):
        """Each value is refused with the same words whether the config is
        loaded or built in Python; built, a provider's as a ValueError. A
        missing key is refused as missing; built, Python's call refuses it."""
        document = config_document()
        target = document if entry is None else document["roster"][entry]
        if value is _ABSENT:
            del target[key]
        else:
            target[key] = value
        words = "is missing$" if value is _ABSENT else "must be "
        with pytest.raises(ConfigError, match=f"^{key} {words}") as loaded:
            EnsembleConfig.from_dict(document, base_dir=tmp_path)
        if value is _ABSENT:
            with pytest.raises(TypeError, match=f"missing 1 required .*'{key}'"):
                _build_directly(document)
            return
        with pytest.raises(ConfigError if entry is None else ValueError) as built:
            _build_directly(document)
        assert str(built.value) == str(loaded.value)

    @pytest.mark.parametrize(
        "roster, message",
        [
            (None, "roster is missing"),
            (5, "roster must be an array of provider objects"),
            ("ab", "roster must be an array of provider objects"),
            ([5], "provider must be a JSON object"),
            (
                [{"model_id": "a", "kind": KIND_REPLAY, "fixtures_dir": "f", "role_tags": []}],
                "a provider needs at least one role tag",
            ),
        ],
        ids=["missing", "number", "string", "number_entry", "entry_without_role_tags"],
    )
    def test_bad_roster_loaded_is_config_error(self, roster, message):
        document = config_document()
        if roster is None:
            del document["roster"]
        else:
            document["roster"] = roster
        with pytest.raises(ConfigError) as refused:
            EnsembleConfig.from_dict(document)
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "roster", [("a",), ({"model_id": "a"},), 5, None], ids=["strings", "dicts", "number", "none"]
    )
    def test_bad_roster_built_in_python_is_config_error(self, roster):
        """Refused in the loader's words, not with an AttributeError."""
        with pytest.raises(ConfigError) as refused:
            EnsembleConfig(roster=roster, synthesis_model="a")
        assert str(refused.value) == "roster must be an array of provider objects"

    def test_roster_is_stored_as_a_tuple(self):
        config = _config()
        built = _config(roster=list(config.roster))
        assert type(built.roster) is tuple
        assert built == config and hash(built) == hash(config)
        document = config_document()
        loaded = EnsembleConfig.from_dict({**document, "roster": tuple(document["roster"])})
        assert loaded == EnsembleConfig.from_dict(document)

    def test_number_built_in_python_is_stored_as_float(self):
        config = _config(threshold=0, gap_confidence_floor=1)
        provider = ProviderConfig(model_id="m", kind=KIND_REPLAY, fixtures_dir="f", timeout=5)
        values = (config.threshold, config.gap_confidence_floor, provider.timeout)
        assert values == (0.0, 1.0, 5.0)
        assert all(type(value) is float for value in values)

    def test_readme_example_loads_with_the_documented_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        config = EnsembleConfig.from_dict(example)
        for record, shown, names in [
            (config, example, ("k", "threshold", "min_quorum", "gap_confidence_floor")),
            (config, example, ("confidence_weights",)),
            (config.roster[0], example["roster"][0], ("timeout", "max_retries")),
        ]:
            defaults = {f.name: f.default for f in fields(record)}
            for name in names:
                assert name in shown and getattr(record, name) == defaults[name], name

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

    @settings(max_examples=300)
    @given(data=st.data(), value=JSON_VALUES)
    def test_both_build_paths_agree(self, data, value):
        """Loaded or built in Python, a config is refused with the same words
        or built equal. The roster's JSON shape is read by `from_dict` alone."""
        document = config_document()
        entry = data.draw(st.sampled_from([document, *document["roster"]]))
        declared = fields(EnsembleConfig if entry is document else ProviderConfig)
        entry[data.draw(st.sampled_from([f.name for f in declared if f.name != "roster"]))] = value
        try:
            loaded = EnsembleConfig.from_dict(document)
        except ConfigError as refused:
            with pytest.raises(ValueError) as built:
                _build_directly(document)
            assert str(built.value) == str(refused)
        else:
            assert _build_directly(document) == loaded

    @settings(max_examples=300)
    @given(data=st.data())
    def test_only_json_objects_with_known_keys_load(self, data):
        """A config, a provider entry, a schema or an eval manifest entry that
        is no JSON object, that holds keys its dataclass lacks, or that lacks
        a key with no default, is refused naming exactly that."""
        document = config_document()
        valid = {
            "config": (document, EnsembleConfig, ("roster", "synthesis_model")),
            "provider": (document["roster"][0], ProviderConfig, ("model_id", "kind")),
            "schema": ({"required_fields": ["part_name"]}, SpecSchema, ("required_fields",)),
            "manifest entry": (
                {"expected_fields": ["part_name"], "detail_max": 2},
                ManifestEntry,
                ("expected_fields", "detail_max"),
            ),
        }
        what = data.draw(st.sampled_from(sorted(valid)))
        entry, cls, required = valid[what]
        branch = data.draw(st.sampled_from(["not_object", "unknown_keys", "missing_key"]))
        if branch == "not_object":
            value = data.draw(JSON_VALUES.filter(lambda value: not isinstance(value, dict)))
            message = f"{what} must be a JSON object"
        elif branch == "unknown_keys":
            known = {declared.name for declared in fields(cls)}
            extras = data.draw(st.sets(st.text().filter(lambda key: key not in known), min_size=1))
            value = {**entry, **dict.fromkeys(extras, data.draw(JSON_VALUES))}
            message = f"unknown {what} keys: {sorted(extras)}"
        else:
            dropped = data.draw(st.sampled_from(required))
            value = {key: item for key, item in entry.items() if key != dropped}
            message = f"{dropped} is missing"
        with pytest.raises(ValueError) as refused:
            if what == "schema":
                SpecSchema.from_dict(value)
            elif what == "provider":
                EnsembleConfig.from_dict({**document, "roster": [value, *document["roster"][1:]]})
            elif what == "manifest entry":
                GroundTruthManifest.from_dict({"d1": value})
            else:
                EnsembleConfig.from_dict(value)
        if what == "manifest entry":
            message = f"manifest entry 'd1': {message}"
        assert str(refused.value) == message
        errors = {"schema": ValueError, "manifest entry": MetricError}
        assert type(refused.value) is errors.get(what, ConfigError)

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

    @pytest.mark.parametrize(
        "invoke_fn", [gateway.invoke, partial(gateway.invoke, env={})], ids=["bare", "env_bound"]
    )
    def test_replay_roster_with_library_invoke_runs_on_calling_thread(
        self, corpus, monkeypatch, invoke_fn
    ):
        threads = _record_call_threads(monkeypatch)
        monkeypatch.setattr(orchestrator, "ThreadPoolExecutor", _no_pool)
        config = EnsembleConfig.from_file(corpus.config_path)
        # The third corpus description goes to research.
        case = corpus.cases[2]
        description = PartDescription(case.description_id, case.text, case.category)
        result = run_pipeline(
            description,
            config,
            FlatIndex.load(corpus.index_dir),
            SpecSchema.default(),
            invoke_fn=invoke_fn,
        )
        assert result.to_json() == corpus.results[2].to_json()
        assert result.phase2_results
        assert result.final.provenance["synthesis_pass"].startswith("applied")
        calls = len(result.phase1_results) + len(result.phase2_results) + 1
        assert threads == [threading.current_thread().name] * calls

    @pytest.mark.parametrize("variant", ["http_entry", "wrapped_invoke"])
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
            # Calls the library's invoke, but the pipeline cannot know that.
            def invoke_fn(provider, request):
                return gateway.invoke(provider, request, env={})

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


def _threads_of(executor):
    """The threads `executor` runs four mapped tasks on."""
    return set(executor.map(lambda _: threading.current_thread(), range(4)))


class TestBatchExecutors:
    @pytest.mark.parametrize(
        "invoke_fn",
        [gateway.invoke, partial(gateway.invoke), partial(gateway.invoke, env={})],
        ids=["bare", "nothing_bound", "env_bound"],
    )
    def test_library_invoke_on_a_replay_roster_runs_on_the_calling_thread(self, invoke_fn):
        with batch_executors(_config(), invoke_fn) as (descriptions, calls):
            assert _threads_of(descriptions) == _threads_of(calls) == {threading.current_thread()}

    @pytest.mark.parametrize(
        "invoke_fn",
        [
            partial(gateway.invoke, env={}, backend=gateway.ReplayBackend(_provider("alpha"))),
            partial(gateway.invoke, sleep=time.sleep),
            _echo_invoke(),
            lambda provider, request: gateway.invoke(provider, request),
        ],
        ids=["bound_backend", "bound_sleep", "fake", "wrapper"],
    )
    def test_any_other_invoke_keeps_the_pools(self, invoke_fn, monkeypatch):
        config = _config()
        for width in (1, 3):
            monkeypatch.setattr(orchestrator, "BATCH_WIDTH", width)
            with batch_executors(config, invoke_fn) as (descriptions, calls):
                assert threading.current_thread() not in _threads_of(descriptions)
                assert threading.current_thread() not in _threads_of(calls)
                assert descriptions._max_workers == width
                assert calls._max_workers == width * len(config.roster)

    def test_pools_are_closed_on_exit(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "BATCH_WIDTH", 2)
        with batch_executors(_config(), _echo_invoke()) as (descriptions, calls):
            workers = _threads_of(descriptions) | _threads_of(calls)
        assert not any(worker.is_alive() for worker in workers)


_CORPUS_DOCUMENTS = st.one_of(
    st.builds(extraction_document, st.sampled_from(CASES), st.sampled_from(EXTRACTION_MODELS)),
    st.builds(research_document, st.sampled_from(CASES)),
)


@st.composite
def _valid_documents(draw):
    """A corpus document whose manufacturer carries a drawn confidence, so
    the gap floor decides whether research runs."""
    document = json.loads(draw(_CORPUS_DOCUMENTS))
    manufacturer = document["manufacturer"]
    document["manufacturer"] = {
        "value": manufacturer["value"] if isinstance(manufacturer, dict) else manufacturer,
        "confidence": draw(st.floats(0.0, 1.0, exclude_max=True)),
    }
    return json.dumps(document)


_VALID_DOCUMENTS = _valid_documents()


@st.composite
def _partial_documents(draw):
    """A corpus document missing at least one of its top-level keys."""
    document = json.loads(draw(_CORPUS_DOCUMENTS))
    keys = sorted(document)
    kept = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys) - 1))
    return json.dumps({key: document[key] for key in kept})


_RAISE = "<raise>"

# What one provider answers: reply text, a failure record, or an exception.
# Valid documents are drawn as often as all the rest together, so the quorum
# is met often enough for research and synthesis to run.
_OUTCOMES = st.one_of(
    *[_VALID_DOCUMENTS] * 5,
    _partial_documents(),
    st.text(max_size=20),
    st.builds(
        Failure,
        st.sampled_from(
            (FAIL_TIMEOUT, FAIL_TRANSPORT, FAIL_AUTH, FAIL_RATE_LIMITED, FAIL_EXHAUSTED, FAIL_PARSE)
        ),
        st.text(max_size=10),
    ),
    st.just(_RAISE),
)

# The three kinds of prompt a provider can be sent.
_STEPS = ("extraction", "research", "review")


def _step_of(user_text):
    if user_text.startswith("DRAFT SPECIFICATION:"):
        return "review"
    return "research" if "\n\nFOCUS:\n" in user_text else "extraction"


def _research_question(user_text):
    """(description text, focus fields) of a research prompt."""
    description, focus = user_text.split("\n\nFOCUS:\n", 1)
    text = description.split("\n\n", 1)[0].removeprefix("DESCRIPTION:\n")
    return text, tuple(line.removeprefix("- ") for line in focus.splitlines())


@st.composite
def _ensembles(draw):
    """A roster of 2-6 replay entries with drawn roles, quorum and gap floor."""
    roles = draw(
        st.lists(st.sets(st.sampled_from(sorted(ROLE_TAGS)), min_size=1), min_size=2, max_size=6)
    )
    if not any(ROLE_SYNTHESIS in tags for tags in roles):
        roles[0] = roles[0] | {ROLE_SYNTHESIS}
    roster = tuple(_provider(f"m{n}", *tags) for n, tags in enumerate(roles))
    synthesizers = [p.model_id for p in roster if ROLE_SYNTHESIS in p.role_tags]
    extractors = sum(1 for p in roster if ROLE_EXTRACTION in p.role_tags)
    return EnsembleConfig(
        roster=roster,
        synthesis_model=draw(st.sampled_from(synthesizers)),
        min_quorum=draw(st.integers(1, max(1, extractors))),
        # Every drawn manufacturer confidence is below 1.0, so that floor
        # sends each description that meets the quorum to research.
        gap_confidence_floor=draw(st.just(1.0) | st.floats(0.0, 1.0)),
    )


def _scripted_invoke(outcomes, calls):
    """invoke_fn answering each (model, step) with its drawn outcome; it
    records every call as (model, step, user text)."""

    def call(provider, request):
        step = _step_of(request.user_text)
        calls.append((provider.model_id, step, request.user_text))
        outcome = outcomes[provider.model_id, step]
        if outcome == _RAISE:
            raise RuntimeError("provider crashed")
        if isinstance(outcome, Failure):
            return ProviderResponse(provider.model_id, "", 0.0, 1, outcome)
        return ProviderResponse(provider.model_id, outcome, 0.0, 1)

    return call


@pytest.fixture(scope="module")
def corpus_index(corpus):
    return FlatIndex.load(corpus.index_dir)


class TestExecutionPaths:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        config=_ensembles(),
        cases=st.lists(
            st.sampled_from(CASES), min_size=1, max_size=3, unique_by=lambda c: c.description_id
        ),
    )
    def test_every_executor_gives_the_same_run(self, corpus_index, data, config, cases):
        outcomes = {
            (model_id, step): data.draw(_OUTCOMES, label=f"{model_id} {step}")
            for model_id in config.roster_order()
            for step in _STEPS
        }
        calls: list[tuple[str, str, str]] = []
        invoke_fn = _scripted_invoke(outcomes, calls)
        schema = SpecSchema.default()
        run_one = partial(
            run_pipeline, config=config, index=corpus_index, schema=schema, invoke_fn=invoke_fn
        )
        descriptions = [PartDescription(c.description_id, c.text, c.category) for c in cases]

        runs = [[run_one(d, executor=orchestrator._CallingThread()) for d in descriptions]]
        with ThreadPoolExecutor(max_workers=1) as one_worker:
            runs.append([run_one(d, executor=one_worker) for d in descriptions])
        runs.append([run_one(d) for d in descriptions])
        for width in (1, 8):
            with mock.patch.object(orchestrator, "BATCH_WIDTH", width):
                with batch_executors(config, invoke_fn) as (batch, pool):
                    runs.append(list(batch.map(partial(run_one, executor=pool), descriptions)))

        first = [result.to_json() for result in runs[0]]
        assert all([result.to_json() for result in run] == first for run in runs[1:])

        extractors = [(p.model_id, PHASE_EXTRACTION) for p in config.extraction_providers()]
        researchers = [(p.model_id, PHASE_RESEARCH) for p in config.research_providers()]
        expected_questions = set()
        for description, result in zip(descriptions, runs[0]):
            successes = sum(1 for r in result.phase1_results if r.schema_valid)
            quorum_met = successes >= config.min_quorum
            assert (result.final is not None) == quorum_met
            assert (result.quorum_failure is None) == quorum_met
            gaps = identify_gaps(result.phase1_results, schema, config) if quorum_met else []
            expected = extractors + (researchers if gaps else [])
            outputs = result.to_dict()["outputs"]
            assert [(o["model_id"], o["phase"]) for o in outputs] == expected
            if gaps:
                expected_questions |= {(m, description.text, tuple(gaps)) for m, _ in researchers}

        # Research went to research providers only, about the gap fields only.
        asked = {
            (model_id, *_research_question(text))
            for model_id, step, text in calls
            if step == "research"
        }
        assert asked == expected_questions

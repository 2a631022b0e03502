"""Three-phase extraction pipeline.

Phase 1 fans one retrieval-grounded prompt out to every extraction provider
in parallel. Phase 2 re-queries research providers about poorly covered
required fields. Phase 3 hands everything to synthesis. Provider trouble is
recorded per model; the pipeline itself never crashes because of it.
"""

from __future__ import annotations

import json
import logging
import math
import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from .core import (
    PHASE_EXTRACTION,
    PHASE_RESEARCH,
    ExtractionResult,
    JsonKind,
    PartDescription,
    SpecSchema,
    check_field_kinds,
    json_object,
    json_value,
    read_json_file,
)
from .gateway import (
    KIND_REPLAY,
    ROLE_EXTRACTION,
    ROLE_RESEARCH,
    ROLE_SYNTHESIS,
    PromptRequest,
    ProviderConfig,
    call_structured,
    invoke,
)
from .retrieval import FlatIndex, RetrievedContext
from .synthesis import (
    DEFAULT_CONFIDENCE_WEIGHTS,
    SynthesizedSpec,
    schema_instruction_text,
    synthesize_spec,
)

logger = logging.getLogger(__name__)

__all__ = [
    "BATCH_WIDTH",
    "ConfigError",
    "EnsembleConfig",
    "QuorumFailure",
    "PipelineResult",
    "batch_executors",
    "build_prompt",
    "calls_wait",
    "extract_phase",
    "identify_gaps",
    "research_phase",
    "run_pipeline",
]


class ConfigError(ValueError):
    """Invalid ensemble configuration."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Static description of the ensemble: who to call and how to combine.

    Credentials never live here; each provider names an environment variable
    instead. Loading rejects unknown keys outright so a secret pasted into a
    config file fails fast instead of being silently shipped around. An empty
    `research_models` means every research-tagged roster entry.
    """

    roster: tuple[ProviderConfig, ...]
    synthesis_model: str
    research_models: tuple[str, ...] = ()
    k: int = 5
    threshold: float = 0.25
    min_quorum: int = 2
    gap_confidence_floor: float = 0.6
    confidence_weights: tuple[float, float, float] = DEFAULT_CONFIDENCE_WEIGHTS

    def __post_init__(self) -> None:
        roster = self.roster
        if not isinstance(roster, (list, tuple)) or not all(
            isinstance(provider, ProviderConfig) for provider in roster
        ):
            raise ConfigError("roster must be an array of provider objects")
        object.__setattr__(self, "roster", tuple(roster))
        check_field_kinds(self, ConfigError)
        if not self.roster:
            raise ConfigError("roster must be non-empty")
        ids = [provider.model_id for provider in self.roster]
        if len(set(ids)) != len(ids):
            raise ConfigError("roster model ids must be unique")
        by_id = {provider.model_id: provider for provider in self.roster}
        synth = by_id.get(self.synthesis_model)
        if synth is None:
            raise ConfigError(f"synthesis_model {self.synthesis_model!r} is not in the roster")
        if ROLE_SYNTHESIS not in synth.role_tags:
            raise ConfigError(f"synthesis_model {self.synthesis_model!r} lacks the synthesis role")
        research = tuple(self.research_models) or tuple(
            provider.model_id for provider in self.roster if ROLE_RESEARCH in provider.role_tags
        )
        for model_id in research:
            provider = by_id.get(model_id)
            if provider is None:
                raise ConfigError(f"research model {model_id!r} is not in the roster")
            if ROLE_RESEARCH not in provider.role_tags:
                raise ConfigError(f"research model {model_id!r} lacks the research role")
        if self.k < 0:
            raise ConfigError("k must be >= 0")
        if not math.isfinite(self.threshold):
            raise ConfigError("threshold must be a finite number")
        if not 1 <= self.min_quorum <= len(self.roster):
            raise ConfigError(
                f"min_quorum must be within [1, {len(self.roster)}], got {self.min_quorum}"
            )
        if not 0.0 <= self.gap_confidence_floor <= 1.0:
            raise ConfigError("gap_confidence_floor must be within [0, 1]")
        weights = self.confidence_weights
        try:
            weights = tuple(json_value(weights, i, JsonKind.NUMBER) for i in range(len(weights)))
        except (TypeError, ValueError):  # not an array, or an item that is no number
            weights = ()
        if len(weights) != 3 or not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ConfigError("confidence_weights must be three non-negative finite numbers")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigError(f"confidence_weights must sum to 1, got {sum(weights)}")
        object.__setattr__(self, "confidence_weights", weights)
        object.__setattr__(self, "research_models", research)

    def roster_order(self) -> tuple[str, ...]:
        return tuple(provider.model_id for provider in self.roster)

    def extraction_providers(self) -> tuple[ProviderConfig, ...]:
        return tuple(p for p in self.roster if ROLE_EXTRACTION in p.role_tags)

    def research_providers(self) -> tuple[ProviderConfig, ...]:
        return tuple(p for p in self.roster if p.model_id in self.research_models)

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], base_dir: str | Path | None = None
    ) -> EnsembleConfig:
        """Build from the documented JSON shape; unknown and missing keys are errors.

        Relative fixtures_dir paths resolve against base_dir (normally the
        config file's directory) so configs stay relocatable. Any bad value
        raises ConfigError.
        """
        try:
            kwargs = json_object(cls, data, "config", ConfigError)
            if isinstance(kwargs["roster"], (list, tuple)):  # else __post_init__ refuses it
                providers = []
                for entry in kwargs["roster"]:
                    provider = json_object(ProviderConfig, entry, "provider", ConfigError)
                    fixtures_dir = provider.get("fixtures_dir")
                    if isinstance(fixtures_dir, str) and base_dir is not None:
                        # Joining keeps an absolute fixtures_dir as it is.
                        provider["fixtures_dir"] = str(Path(base_dir, fixtures_dir))
                    providers.append(ProviderConfig(**provider))
                kwargs["roster"] = providers
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> EnsembleConfig:
        path = Path(path)
        return cls.from_dict(read_json_file(path, ConfigError), base_dir=path.parent)


@dataclass(frozen=True)
class QuorumFailure:
    """Recorded when too few schema-valid results arrived to synthesize."""

    successes: int
    min_quorum: int

    def to_dict(self) -> dict[str, int]:
        return {"successes": self.successes, "min_quorum": self.min_quorum}


@dataclass(frozen=True)
class PipelineResult:
    """Everything one pipeline run produced, serializable for audit.

    Timings are wall-clock and therefore stay out of serialization: with
    replay providers the rest of the result is byte-for-byte reproducible.
    """

    description_id: str
    phase1_results: tuple[ExtractionResult, ...]
    phase2_results: tuple[ExtractionResult, ...]
    extraction_context: RetrievedContext
    research_context: RetrievedContext | None
    final: SynthesizedSpec | None
    quorum_failure: QuorumFailure | None
    timings: Mapping[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The run-file entry for this description.

        ``outputs`` holds every call's result, extraction before research;
        each carries its own phase.
        """
        return {
            "description_id": self.description_id,
            "outputs": [result.to_dict() for result in self.phase1_results + self.phase2_results],
            "context_used": {
                "extraction": self.extraction_context.to_dict(),
                "research": self.research_context.to_dict() if self.research_context else None,
            },
            "final": self.final.to_dict() if self.final else None,
            "quorum_failure": self.quorum_failure.to_dict() if self.quorum_failure else None,
        }

    def to_json(self) -> str:
        """The run-file entry as the run file encodes it."""
        # Built from dataclasses and parsed JSON, the entry holds no cycle.
        return json.dumps(self.to_dict(), sort_keys=True, check_circular=False)


def build_prompt(
    description: PartDescription,
    context: RetrievedContext,
    schema: SpecSchema,
    focus_fields: Sequence[str] = (),
) -> PromptRequest:
    """Assemble the deterministic prompt for one description.

    The user text is a DESCRIPTION block, one REFERENCE block per retrieved
    hit (similarity to four decimals, descending), and, when focus fields
    are given (the research phase), a FOCUS block listing the fields to pin
    down.
    """
    blocks = [f"DESCRIPTION:\n{description.text.strip()}"]
    for position, hit in enumerate(context.hits, start=1):
        blocks.append(f"REFERENCE {position} (similarity {hit.similarity:.4f}):\n{hit.snippet}")
    if focus_fields:
        focus = "\n".join(f"- {name}" for name in focus_fields)
        blocks.append(f"FOCUS:\n{focus}")
    return PromptRequest(
        system_text=schema_instruction_text(schema),
        user_text="\n\n".join(blocks),
    )


# Descriptions one batch runs at once.
BATCH_WIDTH = 8


class _CallingThread(Executor):
    """Runs each mapped call in turn on the thread that iterates the map."""

    map = map


@contextmanager
def batch_executors(
    config: EnsembleConfig, invoke_fn: Callable[..., Any]
) -> Iterator[tuple[Executor, Executor]]:
    """(descriptions, calls) executors for a batch; the one place that
    decides where provider calls run. Map `run_pipeline` on the first with
    `executor=` the second.

    Both are the calling thread unless `calls_wait`. Otherwise descriptions
    run on a pool of `BATCH_WIDTH` threads and their calls share a pool of
    `BATCH_WIDTH` times the roster. Description tasks wait on call tasks,
    which wait on nothing, so the pools cannot deadlock.
    """
    if not calls_wait(config, invoke_fn):
        calling_thread = _CallingThread()
        yield calling_thread, calling_thread
        return
    # The descriptions pool shuts down first: its tasks wait on the calls pool.
    with (
        ThreadPoolExecutor(BATCH_WIDTH * len(config.roster)) as calls,
        ThreadPoolExecutor(BATCH_WIDTH) as descriptions,
    ):
        yield descriptions, calls


def calls_wait(config: EnsembleConfig, invoke_fn: Callable[..., Any]) -> bool:
    """Whether `invoke_fn`'s calls to `config`'s roster may wait on a
    network, a sleep or a lock. They wait on nothing only for an all-replay
    roster through the library's `invoke`, bare or with only `env` bound,
    which only reads fixtures."""
    bare = invoke_fn
    if isinstance(bare, partial) and not bare.args and set(bare.keywords) <= {"env"}:
        bare = bare.func
    return bare is not invoke or any(p.kind != KIND_REPLAY for p in config.roster)


@contextmanager
def _call_pool(
    executor: Executor | None, config: EnsembleConfig, invoke_fn: Callable[..., Any]
) -> Iterator[Executor]:
    """The caller's executor, else a batch's calls executor. Its pool starts a
    thread only when none is idle, so one description starts one per call at most."""
    if executor is not None:
        yield executor
    else:
        with batch_executors(config, invoke_fn) as (_, calls):
            yield calls


def _phase_step(
    phase: str,
    providers: Sequence[ProviderConfig],
    query: str,
    focus_fields: Sequence[str],
    description: PartDescription,
    config: EnsembleConfig,
    index: FlatIndex,
    schema: SpecSchema,
    invoke_fn: Callable[..., Any],
    executor: Executor | None,
) -> tuple[list[ExtractionResult], RetrievedContext]:
    """One fan-out phase: retrieve for `query`, prompt, call every provider.

    Results come back in roster order.
    """
    context = index.search(query, config.k, config.threshold)
    request = build_prompt(description, context, schema, focus_fields)
    call = partial(
        call_structured, request=request, schema=schema, phase=phase, invoke_fn=invoke_fn
    )
    with _call_pool(executor, config, invoke_fn) as calls:
        results = list(calls.map(call, providers))
    return results, context


def extract_phase(
    description: PartDescription,
    config: EnsembleConfig,
    index: FlatIndex,
    schema: SpecSchema,
    *,
    invoke_fn: Callable[..., Any] = invoke,
    executor: Executor | None = None,
) -> tuple[list[ExtractionResult], RetrievedContext]:
    """Phase 1: one grounded prompt to every extraction provider, in parallel.

    Provider calls run on `executor`; without one, as `batch_executors`
    decides for a batch of one.
    """
    return _phase_step(
        PHASE_EXTRACTION, config.extraction_providers(), description.text, (),
        description, config, index, schema, invoke_fn, executor,
    )


def identify_gaps(
    results: Sequence[ExtractionResult],
    schema: SpecSchema,
    config: EnsembleConfig,
) -> list[str]:
    """Required fields still needing research after phase 1.

    A field counts as covered by an output only with a non-empty value (an
    empty string is schema-tolerable but carries no information). A field is
    a gap when fewer than half of the schema-valid outputs cover it, or when
    no covering claim reaches the configured confidence floor.
    """
    valid = [result for result in results if result.schema_valid]
    gaps: list[str] = []
    for name in schema.required_fields:
        covering = [
            claim
            for result in valid
            for claim in result.claims
            if claim.field == name and claim.canonical_value
        ]
        holders = len({claim.source_model for claim in covering})
        best = max((claim.confidence for claim in covering), default=0.0)
        if 2 * holders < len(valid) or best < config.gap_confidence_floor:
            gaps.append(name)
    return sorted(gaps)


def research_phase(
    description: PartDescription,
    gaps: Sequence[str],
    config: EnsembleConfig,
    index: FlatIndex,
    schema: SpecSchema,
    *,
    invoke_fn: Callable[..., Any] = invoke,
    executor: Executor | None = None,
) -> tuple[list[ExtractionResult], RetrievedContext]:
    """Phase 2: re-retrieve with the gap fields appended and ask researchers."""
    query = description.text + " " + " ".join(gaps)
    return _phase_step(
        PHASE_RESEARCH, config.research_providers(), query, tuple(gaps),
        description, config, index, schema, invoke_fn, executor,
    )


def run_pipeline(
    description: PartDescription,
    config: EnsembleConfig,
    index: FlatIndex,
    schema: SpecSchema,
    *,
    invoke_fn: Callable[..., Any] = invoke,
    executor: Executor | None = None,
) -> PipelineResult:
    """Run extraction, optional research, and synthesis for one description.

    Too few schema-valid phase-1 outputs short-circuits to a quorum failure
    (research and synthesis are skipped); `final` is present exactly when
    the quorum was met. Provider calls run on `executor`; without one, as
    `batch_executors` decides for a batch of one, and any pool it starts is
    closed before the synthesis review, which always runs on the calling
    thread.
    """
    phase2: list[ExtractionResult] = []
    research_context: RetrievedContext | None = None
    t0 = time.perf_counter()
    with _call_pool(executor, config, invoke_fn) as calls:
        phase1, extraction_context = extract_phase(
            description, config, index, schema, invoke_fn=invoke_fn, executor=calls
        )
        t1 = time.perf_counter()
        successes = sum(1 for result in phase1 if result.schema_valid)
        quorum_met = successes >= config.min_quorum
        if quorum_met and (gaps := identify_gaps(phase1, schema, config)):
            phase2, research_context = research_phase(
                description, gaps, config, index, schema, invoke_fn=invoke_fn, executor=calls
            )
    t2 = time.perf_counter()

    final: SynthesizedSpec | None = None
    if quorum_met:
        final = synthesize_spec(
            list(phase1) + phase2,
            extraction_context,
            config,
            schema,
            description_id=description.id,
            invoke_fn=invoke_fn,
        )
    else:
        logger.warning(
            "quorum not met for %s: %d of %d required",
            description.id,
            successes,
            config.min_quorum,
        )
    t3 = time.perf_counter()
    return PipelineResult(
        description_id=description.id,
        phase1_results=tuple(phase1),
        phase2_results=tuple(phase2),
        extraction_context=extraction_context,
        research_context=research_context,
        final=final,
        quorum_failure=None if quorum_met else QuorumFailure(successes, config.min_quorum),
        timings=dict(extraction=t1 - t0, research=t2 - t1, synthesis=t3 - t2, total=t3 - t0),
    )

"""Retrieval-grounded multi-model extraction of industrial part specifications.

Multiple models extract structured specs from the same unstructured
description in parallel, a research pass chases fields the first round left
uncertain, and a synthesis step merges everything by per-field consensus
graded against a retrieved knowledge-base context.
"""

from importlib import import_module
from typing import Any

# Each name below is imported from its module on first use, so a command
# loads only the modules it runs.
_SOURCES = {
    "core": (
        "ExtractionResult",
        "Failure",
        "FieldClaim",
        "PartDescription",
        "ProviderResponse",
        "SpecSchema",
        "ValidationIssue",
        "canonicalize_field_name",
        "canonicalize_value",
        "validate_spec_document",
    ),
    "gateway": ("PromptRequest", "ProviderConfig", "invoke", "parse_structured_output"),
    "metrics": (
        "GroundTruthManifest",
        "MetricReport",
        "ara",
        "evaluate_run",
        "ics",
        "idr",
        "render_table",
        "sdq",
        "tdi",
    ),
    "orchestrator": ("ConfigError", "EnsembleConfig", "PipelineResult", "run_pipeline"),
    "retrieval": (
        "FlatIndex",
        "HashTrigramEmbedder",
        "PartRecord",
        "RetrievedContext",
        "embed_text",
        "ingest_records",
    ),
    "synthesis": (
        "ResolvedField",
        "SynthesizedSpec",
        "field_confidence",
        "resolve_field",
        "synthesize_spec",
    ),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = ["__version__", *_SOURCE_OF]


def __getattr__(name: str) -> Any:
    module = _SOURCE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

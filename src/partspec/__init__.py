"""Retrieval-grounded multi-model extraction of industrial part specifications.

Multiple models extract structured specs from the same unstructured
description in parallel, a research pass chases fields the first round left
uncertain, and a synthesis step merges everything by per-field consensus
graded against a retrieved knowledge-base context.
"""

from .core import (
    ExtractionResult,
    Failure,
    FieldClaim,
    PartDescription,
    ProviderResponse,
    SpecSchema,
    ValidationIssue,
    canonicalize_field_name,
    canonicalize_value,
    validate_spec_document,
)
from .gateway import (
    PromptRequest,
    ProviderConfig,
    invoke,
    parse_structured_output,
)
from .metrics import (
    GroundTruthManifest,
    MetricReport,
    ara,
    evaluate_run,
    ics,
    idr,
    render_table,
    sdq,
    tdi,
)
from .orchestrator import (
    ConfigError,
    EnsembleConfig,
    PipelineResult,
    run_pipeline,
)
from .retrieval import (
    FlatIndex,
    HashTrigramEmbedder,
    PartRecord,
    RetrievedContext,
    embed_text,
    ingest_records,
)
from .synthesis import (
    ResolvedField,
    SynthesizedSpec,
    field_confidence,
    resolve_field,
    synthesize_spec,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PartDescription",
    "SpecSchema",
    "FieldClaim",
    "ValidationIssue",
    "Failure",
    "ExtractionResult",
    "canonicalize_value",
    "canonicalize_field_name",
    "validate_spec_document",
    "ProviderConfig",
    "PromptRequest",
    "ProviderResponse",
    "invoke",
    "parse_structured_output",
    "PartRecord",
    "RetrievedContext",
    "HashTrigramEmbedder",
    "FlatIndex",
    "ingest_records",
    "embed_text",
    "ResolvedField",
    "SynthesizedSpec",
    "field_confidence",
    "resolve_field",
    "synthesize_spec",
    "GroundTruthManifest",
    "MetricReport",
    "ics",
    "tdi",
    "sdq",
    "idr",
    "ara",
    "evaluate_run",
    "render_table",
    "ConfigError",
    "EnsembleConfig",
    "PipelineResult",
    "run_pipeline",
]

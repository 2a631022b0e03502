"""Field-level consensus and final spec assembly.

Claims from all phases are grouped per field by canonical value; the winning
group is chosen by majority with a deterministic tie ladder, graded against
retrieved context, and scored with a weighted confidence blend. An optional
model-backed consistency pass can then adjust the drafted values; if it fails
in any way the draft stands.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any

from . import gateway
from .core import (
    PHASE_RESEARCH,
    ExtractionResult,
    FieldClaim,
    SpecSchema,
    canonicalize_value,
    clamp01,
)
from .gateway import PromptRequest
from .retrieval import RetrievedContext

if TYPE_CHECKING:
    from .orchestrator import EnsembleConfig

logger = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_CONFIDENCE_WEIGHTS",
    "TIE_NONE",
    "TIE_MEAN_CONFIDENCE",
    "TIE_RAG",
    "TIE_MODEL_ORDER",
    "ResolvedField",
    "SynthesizedSpec",
    "field_confidence",
    "rag_alignment_indicator",
    "resolve_field",
    "schema_instruction_text",
    "synthesize_spec",
]

DEFAULT_CONFIDENCE_WEIGHTS = (0.4, 0.4, 0.2)

TIE_NONE = "none"
TIE_MEAN_CONFIDENCE = "mean_confidence"
TIE_RAG = "rag"
TIE_MODEL_ORDER = "model_order"
# Statistic rungs in ranking order: support, mean confidence, grounding.
_RUNGS = (TIE_NONE, TIE_MEAN_CONFIDENCE, TIE_RAG)


@dataclass(frozen=True)
class ResolvedField:
    """Consensus outcome for a single field."""

    field: str
    value: str
    canonical_value: str
    agreement: float
    mean_confidence: float
    rag_aligned: int
    confidence: float
    supporters: tuple[tuple[str, str], ...]
    tie_break_used: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "field": self.field,
            "value": self.value,
            "canonical_value": self.canonical_value,
            "agreement": self.agreement,
            "mean_confidence": self.mean_confidence,
            "rag_aligned": self.rag_aligned,
            "confidence": self.confidence,
            "supporters": [list(pair) for pair in self.supporters],
            "tie_break_used": self.tie_break_used,
        }


@dataclass(frozen=True)
class SynthesizedSpec:
    """Final extracted specification with per-field provenance."""

    description_id: str
    fields: Mapping[str, ResolvedField]
    overall_confidence: float
    consensus_ratio: float
    rag_validation_ratio: float
    provenance: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "description_id": self.description_id,
            "fields": {name: resolved.to_dict() for name, resolved in sorted(self.fields.items())},
            "overall_confidence": self.overall_confidence,
            "consensus_ratio": self.consensus_ratio,
            "rag_validation_ratio": self.rag_validation_ratio,
            "provenance": self.provenance,
        }


def field_confidence(
    agreement: float,
    mean_confidence: float,
    rag_aligned: int,
    weights: Sequence[float] = DEFAULT_CONFIDENCE_WEIGHTS,
) -> float:
    """Weighted blend of agreement, claim confidence, and grounding.

    The three weights follow that order; results clamp into [0, 1].
    """
    w_agreement, w_confidence, w_rag = weights
    return clamp01(w_agreement * agreement + w_confidence * mean_confidence + w_rag * rag_aligned)


@dataclass(frozen=True)
class _GroundingContext(RetrievedContext):
    """A retrieved context with each snippet canonicalized once.

    `synthesize_spec` builds one per call and grades every candidate value
    against it; the context a PipelineResult holds stays the plain one.
    """

    canonical_snippets: tuple[str, ...] = ()

    @classmethod
    def of(cls, context: RetrievedContext) -> _GroundingContext:
        snippets = tuple(canonicalize_value(hit.snippet) for hit in context.hits)
        return cls(
            context.hits, context.query_text, context.k_requested, context.threshold_applied,
            snippets,
        )


def rag_alignment_indicator(canonical_value: str, context: RetrievedContext) -> int:
    """1 when any retrieved snippet contains the canonical value, else 0."""
    if isinstance(context, _GroundingContext):
        snippets: Iterable[str] = context.canonical_snippets
    else:
        snippets = (canonicalize_value(hit.snippet) for hit in context.hits)
    for snippet in snippets:
        if canonical_value in snippet:
            return 1
    return 0


def resolve_field(
    claims: Sequence[FieldClaim],
    context: RetrievedContext,
    weights: Sequence[float] = DEFAULT_CONFIDENCE_WEIGHTS,
    roster_order: Sequence[str] = (),
) -> ResolvedField:
    """Pick one value for a field from competing claims.

    Groups share a canonical value; the largest group wins. Ties break by
    higher mean confidence, then grounded over ungrounded, then by the
    earliest supporting model in roster order (unknown models sort after the
    roster, alphabetically). `tie_break_used` records the deciding rung.
    """
    if not claims:
        raise ValueError("resolve_field needs at least one claim")
    field_names = {claim.field for claim in claims}
    if len(field_names) != 1:
        raise ValueError(f"claims span multiple fields: {sorted(field_names)}")
    field_name = claims[0].field

    rank = _roster_rank(tuple(roster_order))

    def model_rank(model_id: str) -> tuple[int, str]:
        return rank.get(model_id) or (len(rank), model_id)

    groups: dict[str, list[FieldClaim]] = {}
    for claim in claims:
        groups.setdefault(claim.canonical_value, []).append(claim)

    stats: dict[str, tuple[int, float, int]] = {}
    for canonical, members in groups.items():
        # fsum keeps the mean identical under any claim ordering.
        mean_conf = math.fsum(member.confidence for member in members) / len(members)
        stats[canonical] = (len(members), mean_conf, rag_alignment_indicator(canonical, context))

    winner_canonical = claims[0].canonical_value
    tie_break = TIE_NONE
    if len(stats) > 1:

        def ranking(canonical: str) -> tuple[int, float, int, tuple[int, str], str]:
            count, mean_conf, aligned = stats[canonical]
            earliest = min(model_rank(member.source_model) for member in groups[canonical])
            return (-count, -mean_conf, -aligned, earliest, canonical)

        ranked = sorted(stats, key=ranking)
        winner_canonical = ranked[0]
        # The deciding rung is the first statistic separating the runner-up.
        pairs = zip(_RUNGS, stats[winner_canonical], stats[ranked[1]])
        tie_break = next((rung for rung, won, lost in pairs if won != lost), TIE_MODEL_ORDER)
    winner = groups[winner_canonical]
    count, mean_conf, aligned = stats[winner_canonical]

    # Surface form: the most confident supporter's raw value, settled
    # deterministically on confidence ties.
    surface = min(
        winner,
        key=lambda claim: (-claim.confidence, model_rank(claim.source_model), claim.phase, claim.value),
    )
    agreement = count / len(claims)
    supporters = tuple(
        sorted(
            ((claim.source_model, claim.phase) for claim in winner),
            key=lambda pair: (model_rank(pair[0]), pair[1]),
        )
    )
    return ResolvedField(
        field=field_name,
        value=surface.value,
        canonical_value=winner_canonical,
        agreement=agreement,
        mean_confidence=mean_conf,
        rag_aligned=aligned,
        confidence=field_confidence(agreement, mean_conf, aligned, weights),
        supporters=supporters,
        tie_break_used=tie_break,
    )


@lru_cache(maxsize=16)
def _roster_rank(roster_order: tuple[str, ...]) -> dict[str, tuple[int, str]]:
    """Each roster model's sort key in `resolve_field`; unknown models sort
    after the roster. Shared by every call with the roster: read it only."""
    return {model_id: (position, model_id) for position, model_id in enumerate(roster_order)}


def schema_instruction_text(schema: SpecSchema) -> str:
    """System prompt text describing the output contract for one schema."""
    lines = [
        "You extract structured industrial part specifications.",
        "Respond with a single JSON object and nothing else.",
        "Required fields:",
    ]
    for name in schema.required_fields:
        lines.append(f"- {name} ({schema.kind_of(name)})")
    optional = sorted(schema.known_fields - set(schema.required_fields))
    if optional:
        lines.append("Optional fields:")
        for name in optional:
            lines.append(f"- {name} ({schema.kind_of(name)})")
    lines.append(
        'A field value may be written as {"value": ..., "confidence": 0.0-1.0} '
        "to report how certain you are."
    )
    return "\n".join(lines)


def synthesize_spec(
    results: Sequence[ExtractionResult],
    context: RetrievedContext,
    config: "EnsembleConfig",
    schema: SpecSchema,
    description_id: str = "",
    *,
    invoke_fn: Callable[..., Any] | None = gateway.invoke,
) -> SynthesizedSpec:
    """Merge per-model results into one spec and run the consistency pass.

    Claims from every supplied result (valid or not) feed consensus; the
    caller decides whether enough results were schema-valid to get here. The
    consistency pass asks the configured synthesis model to review the draft:
    a schema-valid reply replaces drafted values (grounding and confidence are
    recomputed), any failure leaves the draft standing, and provenance records
    which happened.
    """
    by_field: dict[str, list[FieldClaim]] = {}
    for result in results:
        for claim in result.claims:
            by_field.setdefault(claim.field, []).append(claim)

    grounding = _GroundingContext.of(context)
    roster_order = config.roster_order()
    weights = config.confidence_weights
    resolved = {
        name: resolve_field(claims, grounding, weights, roster_order)
        for name, claims in by_field.items()
    }

    resolved, pass_note = _consistency_pass(
        resolved, grounding, config, schema, description_id, invoke_fn=invoke_fn
    )

    total = len(resolved)
    overall = math.fsum(r.confidence for r in resolved.values()) / total if total else 0.0
    consensus = sum(1 for r in resolved.values() if r.agreement >= 0.5) / total if total else 0.0
    grounded = sum(1 for r in resolved.values() if r.rag_aligned) / total if total else 0.0
    provenance = {
        "fields": {
            name: [list(pair) for pair in resolved[name].supporters] for name in sorted(resolved)
        },
        "synthesis_pass": pass_note,
    }
    return SynthesizedSpec(
        description_id=description_id,
        fields=resolved,
        overall_confidence=overall,
        consensus_ratio=consensus,
        rag_validation_ratio=grounded,
        provenance=provenance,
    )


def _consistency_pass(
    resolved: dict[str, ResolvedField],
    context: RetrievedContext,
    config: "EnsembleConfig",
    schema: SpecSchema,
    description_id: str,
    *,
    invoke_fn: Callable[..., Any] | None,
) -> tuple[dict[str, ResolvedField], str]:
    if invoke_fn is None or not resolved:
        return resolved, "skipped"
    # EnsembleConfig guarantees the synthesis model is in the roster.
    provider = next(p for p in config.roster if p.model_id == config.synthesis_model)

    draft_lines = [f"{name}: {resolved[name].value}" for name in sorted(resolved)]
    request = PromptRequest(
        system_text=schema_instruction_text(schema)
        + "\nReview the draft for internal consistency and return the corrected full object.",
        user_text="DRAFT SPECIFICATION:\n" + "\n".join(draft_lines),
    )
    checked = gateway.call_structured(
        provider, request, schema, PHASE_RESEARCH, invoke_fn=invoke_fn
    )
    if not checked.schema_valid:
        reason = checked.failure.kind if checked.failure else "invalid_output"
        logger.warning(
            "consistency pass for %s fell back (%s); keeping draft", description_id, reason
        )
        return resolved, f"fallback: {reason}"

    weights = config.confidence_weights
    adjusted: dict[str, ResolvedField] = dict(resolved)
    for claim in checked.claims:
        current = adjusted.get(claim.field)
        if current is None or claim.canonical_value == current.canonical_value:
            continue
        aligned = rag_alignment_indicator(claim.canonical_value, context)
        adjusted[claim.field] = replace(
            current,
            value=claim.value,
            canonical_value=claim.canonical_value,
            rag_aligned=aligned,
            confidence=field_confidence(current.agreement, current.mean_confidence, aligned, weights),
        )
    return adjusted, f"applied: {config.synthesis_model}"

"""Consensus resolution, grounding, confidence blending, spec assembly."""

from __future__ import annotations

import json
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partspec import synthesis
from partspec.core import (
    PHASE_EXTRACTION,
    PHASE_RESEARCH,
    Failure,
    FieldClaim,
    SpecSchema,
    canonicalize_value,
    validate_spec_document,
)
from partspec.gateway import (
    KIND_REPLAY,
    ProviderConfig,
    ProviderResponse,
)
from partspec.orchestrator import EnsembleConfig
from partspec.retrieval import Hit, RetrievedContext
from partspec.synthesis import (
    TIE_MEAN_CONFIDENCE,
    TIE_MODEL_ORDER,
    TIE_NONE,
    TIE_RAG,
    field_confidence,
    rag_alignment_indicator,
    resolve_field,
    schema_instruction_text,
    synthesize_spec,
)

EMPTY_CONTEXT = RetrievedContext.empty("q", 5, 0.25)


def _context(*snippets: str) -> RetrievedContext:
    hits = tuple(
        Hit(f"r{i}", 0.9 - i * 0.05, snippet) for i, snippet in enumerate(snippets)
    )
    return RetrievedContext(hits, "q", 5, 0.25)


def _claim(value, confidence=1.0, model="alpha", field="manufacturer", phase=PHASE_EXTRACTION):
    return FieldClaim.make(field, value, confidence, model, phase)


def _config(**overrides):
    roster = (
        ProviderConfig(
            model_id="alpha", kind=KIND_REPLAY, fixtures_dir="unused",
            role_tags=frozenset({"extraction"}),
        ),
        ProviderConfig(
            model_id="bravo", kind=KIND_REPLAY, fixtures_dir="unused",
            role_tags=frozenset({"extraction", "research"}),
        ),
        ProviderConfig(
            model_id="synth", kind=KIND_REPLAY, fixtures_dir="unused",
            role_tags=frozenset({"synthesis"}),
        ),
    )
    defaults = dict(roster=roster, synthesis_model="synth", min_quorum=1)
    defaults.update(overrides)
    return EnsembleConfig(**defaults)


class TestFieldConfidence:
    def test_worked_example(self):
        # 0.4*0.75 + 0.4*0.8 + 0.2*1 = 0.82
        assert field_confidence(0.75, 0.8, 1) == pytest.approx(0.82, abs=1e-12)

    def test_unit_weights_on_each_term(self):
        assert field_confidence(1.0, 0.0, 0, (1.0, 0.0, 0.0)) == 1.0
        assert field_confidence(0.0, 1.0, 0, (0.0, 1.0, 0.0)) == 1.0
        assert field_confidence(0.0, 0.0, 1, (0.0, 0.0, 1.0)) == 1.0

    def test_clamped_into_unit_interval(self):
        assert field_confidence(1.0, 1.0, 1) == 1.0
        assert field_confidence(0.0, 0.0, 0) == 0.0

    @given(
        agreement=st.floats(min_value=0, max_value=1),
        mean_confidence=st.floats(min_value=0, max_value=1),
        rag=st.integers(min_value=0, max_value=1),
    )
    def test_always_in_range(self, agreement, mean_confidence, rag):
        assert 0.0 <= field_confidence(agreement, mean_confidence, rag) <= 1.0


class TestRagAlignment:
    def test_substring_after_canonicalization(self):
        context = _context("Acme  FASTENERS | hex bolt M8")
        assert rag_alignment_indicator("acme fasteners", context) == 1
        assert rag_alignment_indicator("m8", context) == 1

    def test_absent_value(self):
        context = _context("brass washer stock")
        assert rag_alignment_indicator("titanium", context) == 0

    def test_empty_context(self):
        assert rag_alignment_indicator("anything", EMPTY_CONTEXT) == 0

    def test_any_hit_suffices(self):
        context = _context("nothing here", "steel bolt")
        assert rag_alignment_indicator("steel", context) == 1


class TestResolveField:
    def test_majority_wins(self):
        claims = [
            _claim("Acme", model="alpha"),
            _claim("acme", model="bravo"),
            _claim("Apex", model="charlie"),
        ]
        resolved = resolve_field(claims, EMPTY_CONTEXT)
        assert resolved.canonical_value == "acme"
        assert resolved.agreement == pytest.approx(2 / 3)
        assert resolved.tie_break_used == TIE_NONE

    def test_tie_broken_by_mean_confidence(self):
        claims = [
            _claim("Acme", confidence=0.9, model="alpha"),
            _claim("Apex", confidence=0.7, model="bravo"),
        ]
        resolved = resolve_field(claims, EMPTY_CONTEXT)
        assert resolved.canonical_value == "acme"
        assert resolved.tie_break_used == TIE_MEAN_CONFIDENCE

    def test_tie_broken_by_rag(self):
        claims = [
            _claim("Acme", confidence=0.8, model="alpha"),
            _claim("Apex", confidence=0.8, model="bravo"),
        ]
        resolved = resolve_field(claims, _context("apex industrial supply"))
        assert resolved.canonical_value == "apex"
        assert resolved.tie_break_used == TIE_RAG
        assert resolved.rag_aligned == 1

    def test_tie_broken_by_model_order(self):
        claims = [
            _claim("Apex", confidence=0.8, model="bravo"),
            _claim("Acme", confidence=0.8, model="alpha"),
        ]
        resolved = resolve_field(claims, EMPTY_CONTEXT, roster_order=("alpha", "bravo"))
        assert resolved.canonical_value == "acme"
        assert resolved.tie_break_used == TIE_MODEL_ORDER

    def test_model_order_falls_back_to_id(self):
        # Neither model is in the roster: alphabetical id decides.
        claims = [
            _claim("Zeta", confidence=0.5, model="zulu"),
            _claim("Eta", confidence=0.5, model="yankee"),
        ]
        resolved = resolve_field(claims, EMPTY_CONTEXT, roster_order=())
        assert resolved.canonical_value == "eta"
        assert resolved.tie_break_used == TIE_MODEL_ORDER

    def test_surface_form_from_most_confident_supporter(self):
        claims = [
            _claim("ACME CORP", confidence=0.6, model="alpha"),
            _claim("Acme Corp", confidence=0.9, model="bravo"),
        ]
        resolved = resolve_field(claims, EMPTY_CONTEXT)
        assert resolved.value == "Acme Corp"
        assert resolved.canonical_value == "acme corp"

    def test_supporters_sorted_by_roster(self):
        claims = [
            _claim("Acme", model="charlie"),
            _claim("acme", model="alpha", phase=PHASE_RESEARCH),
            _claim("ACME", model="alpha"),
        ]
        resolved = resolve_field(
            claims, EMPTY_CONTEXT, roster_order=("alpha", "bravo", "charlie")
        )
        assert resolved.supporters == (
            ("alpha", PHASE_EXTRACTION),
            ("alpha", PHASE_RESEARCH),
            ("charlie", PHASE_EXTRACTION),
        )

    def test_single_claim(self):
        resolved = resolve_field([_claim("Acme", confidence=0.7)], EMPTY_CONTEXT)
        assert resolved.agreement == 1.0
        assert resolved.mean_confidence == 0.7
        assert resolved.tie_break_used == TIE_NONE

    def test_confidence_blend_golden(self):
        # agreement 1.0, mean 0.75, grounded: 0.4 + 0.3 + 0.2 = 0.9
        claims = [
            _claim("Acme", confidence=0.7, model="alpha"),
            _claim("acme", confidence=0.8, model="bravo"),
        ]
        resolved = resolve_field(claims, _context("acme supplies"))
        assert resolved.confidence == pytest.approx(0.9, abs=1e-12)

    def test_empty_claims_rejected(self):
        with pytest.raises(ValueError, match="at least one claim"):
            resolve_field([], EMPTY_CONTEXT)

    def test_mixed_fields_rejected(self):
        claims = [_claim("a", field="part_name"), _claim("b", field="manufacturer")]
        with pytest.raises(ValueError, match="multiple fields"):
            resolve_field(claims, EMPTY_CONTEXT)


_pool_values = ("Acme", "Apex", "Zenith")
_pool_confidences = (0.25, 0.5, 0.75, 1.0)


@st.composite
def _claim_lists(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    claims = []
    for i in range(size):
        claims.append(
            _claim(
                draw(st.sampled_from(_pool_values)),
                confidence=draw(st.sampled_from(_pool_confidences)),
                model=f"model-{draw(st.integers(min_value=0, max_value=4))}",
                phase=draw(st.sampled_from((PHASE_EXTRACTION, PHASE_RESEARCH))),
            )
        )
    return claims


class TestResolveFieldProperties:
    @settings(max_examples=200, deadline=None)
    @given(claims=_claim_lists(), seed=st.integers(min_value=0, max_value=999))
    def test_order_invariant(self, claims, seed):
        roster = tuple(f"model-{i}" for i in range(5))
        baseline = resolve_field(claims, EMPTY_CONTEXT, roster_order=roster)
        shuffled = claims[:]
        random.Random(seed).shuffle(shuffled)
        assert resolve_field(shuffled, EMPTY_CONTEXT, roster_order=roster) == baseline

    @settings(max_examples=200, deadline=None)
    @given(claims=_claim_lists())
    def test_winner_has_maximal_support(self, claims):
        resolved = resolve_field(claims, EMPTY_CONTEXT)
        counts: dict[str, int] = {}
        for claim in claims:
            counts[claim.canonical_value] = counts.get(claim.canonical_value, 0) + 1
        assert counts[resolved.canonical_value] == max(counts.values())
        assert 0.0 < resolved.agreement <= 1.0
        assert 0.0 <= resolved.confidence <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        claims=_claim_lists(),
        grounded=st.lists(st.sampled_from(_pool_values), max_size=3, unique=True),
        roster_size=st.integers(min_value=0, max_value=5),
    )
    def test_matches_rung_ladder_reference(self, claims, grounded, roster_size):
        context = _context(*(f"stock from {value} works" for value in grounded))
        roster = tuple(f"model-{i}" for i in reversed(range(roster_size)))
        resolved = resolve_field(claims, context, roster_order=roster)
        assert (resolved.canonical_value, resolved.tie_break_used) == _ladder_reference(
            claims, context, roster
        )


def _ladder_reference(claims, context, roster):
    """The rung-by-rung narrowing that defines resolve_field's winner and rung.

    Each statistic (support, mean confidence, grounding) in turn keeps only
    the candidates at its maximum; the rung that last removed a candidate
    is the deciding one, and model order settles whatever is left.
    """
    rank = {model: position for position, model in enumerate(roster)}
    groups: dict[str, list] = {}
    for claim in claims:
        groups.setdefault(claim.canonical_value, []).append(claim)
    stats = {
        value: (
            len(members),
            sum(member.confidence for member in members) / len(members),
            rag_alignment_indicator(value, context),
            min((rank.get(m.source_model, len(rank)), m.source_model) for m in members),
        )
        for value, members in groups.items()
    }
    candidates = list(stats)
    rung = TIE_NONE
    for position, name in enumerate((TIE_NONE, TIE_MEAN_CONFIDENCE, TIE_RAG)):
        best = max(stats[c][position] for c in candidates)
        survivors = [c for c in candidates if stats[c][position] == best]
        if len(survivors) < len(candidates):
            rung = name
        candidates = survivors
        if len(candidates) == 1:
            return candidates[0], rung
    return min(candidates, key=lambda c: (stats[c][3], c)), TIE_MODEL_ORDER


def _result(doc, model, phase=PHASE_EXTRACTION):
    return validate_spec_document(doc, SpecSchema.default(), model, phase)


_DOC_A = {
    "part_name": "Hex Bolt",
    "manufacturer": "Acme",
    "part_number": "HB-100",
    "specifications": {"material": "steel"},
}
_DOC_B = {
    "part_name": {"value": "hex  bolt", "confidence": 0.9},
    "manufacturer": "Acme Corp",
    "part_number": "HB-100",
    "specifications": {"material": "steel"},
}


class TestSynthesizeSpec:
    def test_skipped_pass_and_field_merge(self):
        results = [_result(_DOC_A, "alpha"), _result(_DOC_B, "bravo")]
        spec = synthesize_spec(
            results,
            _context("acme hex bolt m8 steel"),
            _config(),
            SpecSchema.default(),
            description_id="d1",
            invoke_fn=None,
        )
        assert spec.description_id == "d1"
        assert spec.provenance["synthesis_pass"] == "skipped"
        part_name = spec.fields["part_name"]
        assert part_name.value == "Hex Bolt"
        assert part_name.agreement == 1.0
        # hex bolt appears in the snippet, so the blend is 0.4 + 0.4*0.95 + 0.2
        assert part_name.confidence == pytest.approx(0.98, abs=1e-12)
        manufacturer = spec.fields["manufacturer"]
        assert manufacturer.canonical_value == "acme"
        assert manufacturer.tie_break_used == TIE_RAG

    def test_ratios(self):
        results = [_result(_DOC_A, "alpha"), _result(_DOC_B, "bravo")]
        spec = synthesize_spec(
            results,
            _context("acme hex bolt m8 steel"),
            _config(),
            SpecSchema.default(),
            invoke_fn=None,
        )
        # Fields: part_name, manufacturer, part_number, specifications,
        # specifications.material. Manufacturer splits 1-1: its winner holds
        # exactly half the claims, and agreement >= 0.5 counts as consensus.
        assert spec.consensus_ratio == 1.0
        assert spec.fields["manufacturer"].agreement == 0.5
        grounded = sum(1 for f in spec.fields.values() if f.rag_aligned)
        assert spec.rag_validation_ratio == pytest.approx(grounded / 5)
        assert spec.overall_confidence == pytest.approx(
            sum(f.confidence for f in spec.fields.values()) / 5
        )

    def test_consistency_pass_applied(self):
        results = [_result(_DOC_A, "alpha"), _result(_DOC_B, "bravo")]
        corrected = dict(_DOC_A, part_number="HB-200")
        seen = {}

        def fake_invoke(provider, request, env=None):
            seen["model"] = provider.model_id
            seen["user_text"] = request.user_text
            return ProviderResponse(provider.model_id, json.dumps(corrected), 0.0, 1)

        spec = synthesize_spec(
            results,
            _context("acme hex bolt m8 steel"),
            _config(),
            SpecSchema.default(),
            invoke_fn=fake_invoke,
        )
        assert seen["model"] == "synth"
        assert seen["user_text"].startswith("DRAFT SPECIFICATION:\n")
        assert "part_number: HB-100" in seen["user_text"]
        assert spec.provenance["synthesis_pass"] == "applied: synth"
        part_number = spec.fields["part_number"]
        assert part_number.value == "HB-200"
        # Value replaced: grounding and blend recomputed, consensus kept.
        assert part_number.agreement == 1.0
        assert part_number.rag_aligned == 0
        assert part_number.confidence == pytest.approx(0.8, abs=1e-12)
        # Untouched fields keep their drafted values.
        assert spec.fields["part_name"].value == "Hex Bolt"

    def test_each_snippet_canonicalized_once(self, monkeypatch):
        results = [_result(_DOC_A, "alpha"), _result(_DOC_B, "bravo")]
        corrected = dict(_DOC_A, part_number="HB-200")
        canonicalized: list[str] = []

        def counting(raw):
            canonicalized.append(raw)
            return canonicalize_value(raw)

        def review(provider, request):
            return ProviderResponse(provider.model_id, json.dumps(corrected), 0.0, 1)

        context = _context("acme hex bolt m8 steel", "Brass  WASHER")
        synthesize = partial(
            synthesize_spec, results, context, _config(), SpecSchema.default(), invoke_fn=review
        )
        expected = synthesize()
        monkeypatch.setattr(synthesis, "canonicalize_value", counting)
        spec = synthesize()
        # Five fields and a corrected one are graded against the two snippets.
        assert canonicalized == [hit.snippet for hit in context.hits]
        assert spec == expected
        assert spec.provenance["synthesis_pass"] == "applied: synth"

    def test_consistency_pass_provider_failure_falls_back(self, caplog):
        results = [_result(_DOC_A, "alpha"), _result(_DOC_B, "bravo")]

        def failing_invoke(provider, request, env=None):
            failure = Failure("exhausted_retries", "503")
            return ProviderResponse(provider.model_id, "", 0.0, 3, failure)

        spec = synthesize_spec(
            results, EMPTY_CONTEXT, _config(), SpecSchema.default(), "d7",
            invoke_fn=failing_invoke,
        )
        assert spec.provenance["synthesis_pass"] == "fallback: exhausted_retries"
        assert spec.fields["part_number"].value == "HB-100"
        # The warning names the description, so a batch's warnings can be told apart.
        assert [record.getMessage() for record in caplog.records] == [
            "consistency pass for d7 fell back (exhausted_retries); keeping draft"
        ]

    def test_consistency_pass_invalid_output_falls_back(self):
        results = [_result(_DOC_A, "alpha"), _result(_DOC_B, "bravo")]

        def partial_invoke(provider, request, env=None):
            return ProviderResponse(provider.model_id, '{"part_name": "Bolt"}', 0.0, 1)

        spec = synthesize_spec(
            results, EMPTY_CONTEXT, _config(), SpecSchema.default(), invoke_fn=partial_invoke
        )
        assert spec.provenance["synthesis_pass"] == "fallback: invalid_output"

    def test_consistency_pass_unparseable_output_falls_back(self):
        results = [_result(_DOC_A, "alpha"), _result(_DOC_B, "bravo")]

        def chatty_invoke(provider, request, env=None):
            return ProviderResponse(provider.model_id, "all looks good to me!", 0.0, 1)

        spec = synthesize_spec(
            results, EMPTY_CONTEXT, _config(), SpecSchema.default(), invoke_fn=chatty_invoke
        )
        assert spec.provenance["synthesis_pass"] == "fallback: parse_error"

    def test_consistency_pass_deeply_nested_output_falls_back(self):
        results = [_result(_DOC_A, "alpha"), _result(_DOC_B, "bravo")]

        def nesting_invoke(provider, request, env=None):
            deep = '{"a":' * 5000 + "1" + "}" * 5000
            return ProviderResponse(provider.model_id, deep, 0.0, 1)

        spec = synthesize_spec(
            results, EMPTY_CONTEXT, _config(), SpecSchema.default(), invoke_fn=nesting_invoke
        )
        assert spec.provenance["synthesis_pass"] == "fallback: parse_error"
        assert spec.fields["part_number"].value == "HB-100"

    def test_consistency_pass_raising_call_falls_back(self):
        results = [_result(_DOC_A, "alpha"), _result(_DOC_B, "bravo")]

        def exploding_invoke(provider, request, env=None):
            raise RuntimeError("wire fell out")

        spec = synthesize_spec(
            results, EMPTY_CONTEXT, _config(), SpecSchema.default(), invoke_fn=exploding_invoke
        )
        assert spec.provenance["synthesis_pass"] == "fallback: transport"
        assert spec.fields["part_number"].value == "HB-100"

    def test_provenance_fields_cover_all(self):
        results = [_result(_DOC_A, "alpha"), _result(_DOC_B, "bravo")]
        spec = synthesize_spec(
            results, EMPTY_CONTEXT, _config(), SpecSchema.default(), invoke_fn=None
        )
        assert set(spec.provenance["fields"]) == set(spec.fields)
        assert spec.provenance["fields"]["part_name"] == [
            ["alpha", PHASE_EXTRACTION],
            ["bravo", PHASE_EXTRACTION],
        ]

    def test_to_dict_is_json_serializable(self):
        results = [_result(_DOC_A, "alpha"), _result(_DOC_B, "bravo")]
        spec = synthesize_spec(
            results, EMPTY_CONTEXT, _config(), SpecSchema.default(), invoke_fn=None
        )
        rendered = json.dumps(spec.to_dict(), sort_keys=True)
        assert json.loads(rendered)["description_id"] == ""


class TestSchemaInstructionText:
    def test_lists_required_fields_and_kinds(self):
        text = schema_instruction_text(SpecSchema.default())
        assert "single JSON object" in text
        assert "- part_name (scalar-text)" in text
        assert "- specifications (nested-map)" in text

    def test_optional_fields_listed_separately(self):
        schema = SpecSchema(
            required_fields=("part_name",),
            field_kinds={"part_name": "scalar-text", "weight": "quantity-with-unit"},
        )
        text = schema_instruction_text(schema)
        assert "Optional fields:" in text
        assert "- weight (quantity-with-unit)" in text

"""Canonicalization, schema, and document validation behavior."""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partspec.core import (
    KIND_MISMATCH,
    MISSING_FIELD,
    NESTED_MAP,
    PHASE_EXTRACTION,
    QUANTITY_WITH_UNIT,
    SCALAR_TEXT,
    ExtractionResult,
    Failure,
    FieldClaim,
    JsonKind,
    PartDescription,
    SpecSchema,
    ValidationIssue,
    canonicalize_field_name,
    canonicalize_value,
    json_value,
    render_nested_value,
    validate_spec_document,
)


class TestCanonicalizeValue:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("  10  MM   Steel ", "10 mm steel"),
            ("Stainless\tSteel", "stainless steel"),
            ("M8", "m8"),
            ("", ""),
            ("   ", ""),
            ("12 V", "12 v"),
            ("5 A", "5 a"),
            ("80 PSI", "80 psi"),
            ("already canonical", "already canonical"),
        ],
    )
    def test_goldens(self, raw, expected):
        assert canonicalize_value(raw) == expected

    def test_no_unit_conversion(self):
        # Canonicalization is lexical: "in" stays "in", numbers untouched.
        assert canonicalize_value("2 IN") == "2 in"
        assert canonicalize_value("50.8 mm") == "50.8 mm"

    @given(st.text(max_size=40))
    def test_idempotent(self, raw):
        once = canonicalize_value(raw)
        assert canonicalize_value(once) == once

    # Separators and spaces that str.isspace and the regex \s both count as
    # whitespace, one that neither does (U+200B), and a letter casefold grows.
    @example("a\x1cb")
    @example("\x85x\x85")
    @example("10\xa0MM")
    @example("a\u2028\u2028b")
    @example("\u3000Steel\u3000")
    @example("a\u200bb")
    @example("ß")
    @given(st.text(max_size=40))
    def test_matches_the_regex_definition(self, raw):
        assert canonicalize_value(raw) == re.sub(r"\s+", " ", raw.strip()).casefold()


class TestCanonicalizeFieldName:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("Torque (N·m)", "torque_nm"),
            ("Part Number", "part_number"),
            ("part-number", "part_number"),
            ("  Operating   Voltage ", "__operating___voltage_"),
            ("weight_kg", "weight_kg"),
            ("Größe", "grsse"),
            ("!!!", ""),
        ],
    )
    def test_goldens(self, raw, expected):
        assert canonicalize_field_name(raw) == expected

    @given(st.text(max_size=40))
    def test_idempotent(self, raw):
        once = canonicalize_field_name(raw)
        assert canonicalize_field_name(once) == once

    @given(st.text(max_size=40))
    def test_output_charset(self, raw):
        assert all("a" <= ch <= "z" or "0" <= ch <= "9" or ch == "_" for ch in canonicalize_field_name(raw))


class TestJsonValue:
    @pytest.mark.parametrize(
        ("kind", "value"),
        [
            (JsonKind.NUMBER, True),
            (JsonKind.NUMBER, "0.5"),
            (JsonKind.NUMBER, -(10**400)),
            (JsonKind.INTEGER, False),
            (JsonKind.INTEGER, 2.0),
            (JsonKind.INTEGER, 10**400),
            (JsonKind.STRING, None),
            (JsonKind.OPTIONAL_STRING, 5),
            (JsonKind.STRING_OR_INTEGER, True),
            (JsonKind.STRING_OR_INTEGER, 2.5),
            (JsonKind.BOOLEAN, "false"),
            (JsonKind.STRINGS, "ab"),
            (JsonKind.FIELD_NAMES, ["a", 1]),
            (JsonKind.OBJECT, [1]),
            (JsonKind.ARRAY, "ab"),
            (JsonKind.ARRAY, {"a": 1}),
        ],
    )
    def test_refusal_names_key_kind_and_value(self, kind, value):
        message = f"k must be {kind[0]}, got {value!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            json_value({"k": value}, "k", kind, TypeError)

    @pytest.mark.parametrize(
        ("kind", "value", "expected"),
        [
            (JsonKind.NUMBER, 3, 3.0),
            (JsonKind.NUMBER, math.inf, math.inf),
            (JsonKind.INTEGER, 10**300, 10**300),
            (JsonKind.OPTIONAL_STRING, None, None),
            (JsonKind.STRING_OR_INTEGER, "B2", "B2"),
            (JsonKind.STRING_OR_INTEGER, 7, 7),
            (JsonKind.BOOLEAN, False, False),
            (JsonKind.STRINGS, [], []),
            (JsonKind.OBJECT, {}, {}),
            (JsonKind.ARRAY, [1, "a"], [1, "a"]),
        ],
    )
    def test_value_of_its_kind_is_read(self, kind, value, expected):
        read = json_value({"k": value}, "k", kind)
        assert read == expected and type(read) is type(expected)

    @pytest.mark.parametrize(
        ("value", "shown"),
        [("a" * 498, repr("a" * 498)), ("a" * 499, repr("a" * 499)[:500] + "...")],
        ids=["500_characters_whole", "501_characters_cut"],
    )
    def test_refused_value_is_shown_up_to_500_characters(self, value, shown):
        with pytest.raises(TypeError) as refused:
            json_value({"k": value}, "k", JsonKind.ARRAY, TypeError)
        assert str(refused.value) == f"k must be an array, got {shown}"

    def test_missing_key(self):
        assert json_value({}, "k", JsonKind.STRING, default=None) is None
        assert json_value([0.5], 1, JsonKind.NUMBER, default=1) == 1
        with pytest.raises(TypeError, match="^k is missing$"):
            json_value({}, "k", JsonKind.STRING, TypeError)


class TestPartDescription:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty text"):
            PartDescription("d1", "   ")

    def test_category_optional(self):
        description = PartDescription("d1", "M8 hex bolt")
        assert description.category is None


class TestSpecSchema:
    def test_default_schema(self):
        schema = SpecSchema.default()
        assert schema.required_fields == (
            "part_name",
            "manufacturer",
            "part_number",
            "specifications",
        )
        assert schema.kind_of("specifications") == NESTED_MAP
        assert schema.kind_of("part_name") == SCALAR_TEXT
        assert schema.kind_of("unheard_of") is None

    def test_required_without_kind_defaults_to_scalar(self):
        schema = SpecSchema(required_fields=("part_name",))
        assert schema.kind_of("part_name") == SCALAR_TEXT

    def test_rejects_non_canonical_names(self):
        with pytest.raises(ValueError, match="not canonical"):
            SpecSchema(required_fields=("Part Name",))

    def test_rejects_non_canonical_kind_names(self):
        with pytest.raises(ValueError, match="schema field 'Bore Size' is not canonical"):
            SpecSchema(required_fields=("part_name",), field_kinds={"Bore Size": "scalar-text"})

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SpecSchema(required_fields=("part_name", "part_name"))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown field kind"):
            SpecSchema(required_fields=("part_name",), field_kinds={"part_name": "blob"})

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SpecSchema(required_fields=())

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown schema keys"):
            SpecSchema.from_dict({"required_fields": ["a"], "optional": []})

    def test_from_dict_roundtrip(self):
        schema = SpecSchema.from_dict(
            {"required_fields": ["part_name"], "field_kinds": {"weight": QUANTITY_WITH_UNIT}}
        )
        assert schema.known_fields == {"part_name", "weight"}


class TestFieldClaim:
    def test_make_computes_canonical(self):
        claim = FieldClaim.make("part_name", "Hex  BOLT", 0.9, "m1", PHASE_EXTRACTION)
        assert claim.canonical_value == "hex bolt"

    def test_confidence_bounds(self):
        with pytest.raises(ValueError, match="confidence"):
            FieldClaim.make("f", "v", 1.2, "m1", PHASE_EXTRACTION)
        with pytest.raises(ValueError, match="confidence"):
            FieldClaim.make("f", "v", -0.1, "m1", PHASE_EXTRACTION)

    def test_dict_roundtrip(self):
        claim = FieldClaim.make("f", "V  v", 0.5, "m1", PHASE_EXTRACTION, in_schema=False)
        assert FieldClaim.from_dict(claim.to_dict()) == claim


class TestExtractionResult:
    def test_failure_excludes_claims(self):
        claim = FieldClaim.make("f", "v", 1.0, "m1", PHASE_EXTRACTION)
        with pytest.raises(ValueError, match="no claims"):
            ExtractionResult("m1", PHASE_EXTRACTION, (claim,), False, failure=Failure("timeout"))

    def test_failure_excludes_validity(self):
        with pytest.raises(ValueError, match="schema-invalid"):
            ExtractionResult("m1", PHASE_EXTRACTION, (), True, failure=Failure("timeout"))

    def test_duplicate_claims_rejected(self):
        claim = FieldClaim.make("f", "v", 1.0, "m1", PHASE_EXTRACTION)
        other = FieldClaim.make("f", "w", 1.0, "m1", PHASE_EXTRACTION)
        with pytest.raises(ValueError, match="duplicate-free"):
            ExtractionResult("m1", PHASE_EXTRACTION, (claim, other), True)

    def test_dict_roundtrip(self):
        claim = FieldClaim.make("f", "v", 0.7, "m1", PHASE_EXTRACTION)
        result = ExtractionResult(
            "m1",
            PHASE_EXTRACTION,
            (claim,),
            True,
            raw_output='{"f": "v"}',
            issues=(ValidationIssue(KIND_MISMATCH, "g", "scalar-text", "array"),),
        )
        assert ExtractionResult.from_dict(result.to_dict()) == result

    def test_failure_roundtrip(self):
        result = ExtractionResult(
            "m1", PHASE_EXTRACTION, (), False, failure=Failure("timeout", "no reply")
        )
        assert ExtractionResult.from_dict(result.to_dict()) == result


class TestRenderNestedValue:
    def test_sorted_dotted_paths(self):
        rendered = render_nested_value({"Size": "M8", "dims": {"len": 10, "dia": 8}})
        assert rendered == "dims.dia: 8 | dims.len: 10 | size: M8"

    def test_value_envelope_unwrapped(self):
        rendered = render_nested_value({"size": {"value": "M8", "confidence": 0.9}})
        assert rendered == "size: M8"

    def test_colliding_keys_with_and_without_envelope(self):
        bore = {"Bore": {"value": "8 mm", "confidence": 0.9}, "bore": "8 mm"}
        rendered = render_nested_value(bore)
        assert rendered == "bore: 8 mm | bore: 8 mm"


def _validate(document, schema=None):
    return validate_spec_document(document, schema or SpecSchema.default(), "m1", PHASE_EXTRACTION)


class TestValidateSpecDocument:
    def test_complete_document_is_valid(self):
        result = _validate(
            {
                "part_name": "Hex Bolt",
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {"material": "steel"},
            }
        )
        assert result.schema_valid
        assert result.field_names() == {
            "part_name",
            "manufacturer",
            "part_number",
            "specifications",
            "specifications.material",
        }

    def test_missing_required_field(self):
        result = _validate({"part_name": "Hex Bolt"})
        assert not result.schema_valid
        missing = {issue.path for issue in result.issues if issue.kind == MISSING_FIELD}
        assert missing == {"manufacturer", "part_number", "specifications"}

    def test_non_object_document_is_parse_error(self):
        result = _validate([1, 2, 3])
        assert not result.schema_valid
        assert result.failure is not None and result.failure.kind == "parse_error"
        assert result.claims == ()

    def test_key_canonicalization(self):
        result = _validate(
            {
                "Part Name": "Hex Bolt",
                "MANUFACTURER": "Acme",
                "part-number": "HB-100",
                "specifications": {},
            }
        )
        assert result.schema_valid

    def test_confidence_envelope(self):
        result = _validate(
            {
                "part_name": {"value": "Hex Bolt", "confidence": 0.8},
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {},
            }
        )
        claims = {claim.field: claim for claim in result.claims}
        assert claims["part_name"].confidence == 0.8
        assert claims["part_name"].value == "Hex Bolt"
        assert claims["manufacturer"].confidence == 1.0

    def test_out_of_range_confidence_clamped_not_fatal(self):
        result = _validate(
            {
                "part_name": {"value": "Hex Bolt", "confidence": 1.3},
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {},
            }
        )
        assert result.schema_valid
        claims = {claim.field: claim for claim in result.claims}
        assert claims["part_name"].confidence == 1.0
        clamp_issues = [issue for issue in result.issues if issue.path == "part_name.confidence"]
        assert len(clamp_issues) == 1
        assert clamp_issues[0].kind == KIND_MISMATCH

    def test_nan_confidence_clamps_to_zero(self):
        result = _validate(
            {
                "part_name": {"value": "Hex Bolt", "confidence": math.nan},
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {},
            }
        )
        claims = {claim.field: claim for claim in result.claims}
        assert claims["part_name"].confidence == 0.0

    def test_non_numeric_confidence_defaults(self):
        result = _validate(
            {
                "part_name": {"value": "Hex Bolt", "confidence": "high"},
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {},
            }
        )
        claims = {claim.field: claim for claim in result.claims}
        assert claims["part_name"].confidence == 1.0
        assert any(issue.path == "part_name.confidence" for issue in result.issues)

    def test_nested_map_with_value_key_is_not_an_envelope(self):
        # A real sub-field named "value" must survive alongside siblings.
        result = _validate(
            {
                "part_name": "Bolt",
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {"torque": {"value": "10 Nm", "tolerance": "5%"}},
            }
        )
        names = result.field_names()
        assert "specifications.torque.value" in names
        assert "specifications.torque.tolerance" in names

    def test_nested_leaf_envelope_confidence(self):
        result = _validate(
            {
                "part_name": "Bolt",
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {"material": {"value": "steel", "confidence": 0.4}},
            }
        )
        claims = {claim.field: claim for claim in result.claims}
        assert claims["specifications.material"].confidence == 0.4
        assert claims["specifications.material"].value == "steel"
        assert claims["specifications"].value == "specifications.material: steel"

    def test_nested_map_on_scalar_field_invalidates(self):
        result = _validate(
            {
                "part_name": {"first": "a", "second": "b"},
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {},
            }
        )
        assert not result.schema_valid
        assert any(
            issue.kind == KIND_MISMATCH and issue.path == "part_name" for issue in result.issues
        )

    def test_scalar_on_nested_field_invalidates(self):
        result = _validate(
            {
                "part_name": "Bolt",
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": "steel, M8",
            }
        )
        assert not result.schema_valid

    def test_quantity_requires_digit(self):
        schema = SpecSchema(
            required_fields=("part_name", "weight"),
            field_kinds={"part_name": SCALAR_TEXT, "weight": QUANTITY_WITH_UNIT},
        )
        bad = validate_spec_document(
            {"part_name": "Bolt", "weight": "heavy"}, schema, "m1", PHASE_EXTRACTION
        )
        assert not bad.schema_valid
        good = validate_spec_document(
            {"part_name": "Bolt", "weight": "1.2 kg"}, schema, "m1", PHASE_EXTRACTION
        )
        assert good.schema_valid

    def test_quantity_digit_rule_on_optional_field_warns_only(self):
        schema = SpecSchema(
            required_fields=("part_name",),
            field_kinds={"part_name": SCALAR_TEXT, "weight": QUANTITY_WITH_UNIT},
        )
        result = validate_spec_document(
            {"part_name": "Bolt", "weight": "unknown"}, schema, "m1", PHASE_EXTRACTION
        )
        assert result.schema_valid
        assert any(issue.path == "weight" for issue in result.issues)

    def test_array_value_flags_mismatch(self):
        result = _validate(
            {
                "part_name": ["Bolt", "Screw"],
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {},
            }
        )
        assert not result.schema_valid
        claims = {claim.field: claim for claim in result.claims}
        assert claims["part_name"].value == "Bolt, Screw"

    def test_unknown_fields_kept_out_of_schema(self):
        result = _validate(
            {
                "part_name": "Bolt",
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {},
                "color": "red",
            }
        )
        assert result.schema_valid
        claims = {claim.field: claim for claim in result.claims}
        assert claims["color"].in_schema is False
        assert claims["part_name"].in_schema is True

    def test_colliding_keys_keep_highest_confidence(self):
        result = _validate(
            {
                "Part Name": {"value": "bolt a", "confidence": 0.4},
                "part_name": {"value": "bolt b", "confidence": 0.9},
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {},
            }
        )
        claims = {claim.field: claim for claim in result.claims}
        assert claims["part_name"].value == "bolt b"
        assert claims["part_name"].confidence == 0.9

    def test_unnameable_key_reported_and_skipped(self):
        result = _validate(
            {
                "!!!": "mystery",
                "part_name": "Bolt",
                "manufacturer": "Acme",
                "part_number": "HB-100",
                "specifications": {},
            }
        )
        assert result.schema_valid
        assert any(issue.path == "!!!" for issue in result.issues)

    def test_raw_output_preserved(self):
        raw = 'noise {"part_name": "Bolt"} noise'
        result = validate_spec_document(
            {"part_name": "Bolt"}, SpecSchema.default(), "m1", PHASE_EXTRACTION, raw_output=raw
        )
        assert result.raw_output == raw

    @pytest.mark.parametrize(
        ("document", "raw_output"),
        [
            ({"part_name": "Bolt", "b": [1]}, '{"b": [1], "part_name": "Bolt"}'),
            (MappingProxyType({"part_name": "Bolt"}), "{'part_name': 'Bolt'}"),
            ({"part_name": "Bolt", "a": {"zinc"}}, "{'part_name': 'Bolt', 'a': {'zinc'}}"),
            ({"part_name": "Bolt", 7: "seven"}, "{'part_name': 'Bolt', 7: 'seven'}"),
        ],
        ids=["json_dict", "mappingproxy", "set_value", "mixed_key_types"],
    )
    def test_raw_output_defaults_to_the_document(self, document, raw_output):
        result = validate_spec_document(document, SpecSchema.default(), "m1", PHASE_EXTRACTION)
        assert result.raw_output == raw_output
        assert result.failure is None
        assert "part_name" in result.field_names()


_json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.lists(st.text(max_size=6), max_size=3),
)
# Keys that collide once canonicalized ("Bore", "bore", "BORE" ...) plus
# arbitrary text, so duplicate paths in one map get exercised.
_json_key = st.one_of(
    st.sampled_from(("Bore", "bore", "BORE", "Part Name", "part_name")), st.text(max_size=10)
)
_confidence = st.one_of(
    st.floats(min_value=-2, max_value=2),
    st.integers(),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
_json_value = st.recursive(
    _json_leaf,
    lambda children: st.one_of(
        st.dictionaries(_json_key, children, max_size=4),
        st.fixed_dictionaries({"value": children}, optional={"confidence": _confidence}),
        st.lists(children, max_size=3),
    ),
    max_leaves=12,
)
_document = st.dictionaries(_json_key, _json_value, max_size=6)
# The same bore written twice, once in an envelope: equal (path, value)
# leaves whose confidences are a float and None.
_COLLIDING_ENVELOPE = {
    "part_name": "bolt",
    "manufacturer": "Acme",
    "part_number": "X1",
    "specifications": {"Bore": {"value": "8 mm", "confidence": 0.9}, "bore": "8 mm"},
}
# A confidence too large to convert to a float.
_HUGE_CONFIDENCE = {"part_name": {"value": "bolt", "confidence": 10**400}}


class TestValidationProperties:
    @settings(max_examples=150, deadline=None)
    @given(_document)
    @example(_COLLIDING_ENVELOPE)
    @example(_HUGE_CONFIDENCE)
    def test_never_raises_and_claims_unique(self, document):
        result = _validate(document)
        names = [claim.field for claim in result.claims]
        assert len(names) == len(set(names))

    @settings(max_examples=150, deadline=None)
    @given(_document)
    def test_valid_implies_required_present(self, document):
        result = _validate(document)
        if result.schema_valid:
            assert set(SpecSchema.default().required_fields) <= result.field_names()

    @settings(max_examples=150, deadline=None)
    @given(_document)
    def test_confidences_always_in_range(self, document):
        result = _validate(document)
        assert all(0.0 <= claim.confidence <= 1.0 for claim in result.claims)

    @settings(max_examples=150, deadline=None)
    @given(_document, _document)
    @example(_COLLIDING_ENVELOPE, _HUGE_CONFIDENCE)
    def test_any_mapping_reads_as_a_dict(self, document, nested):
        document = {**document, "Specifications": nested}
        as_dict = validate_spec_document(
            document, SpecSchema.default(), "m1", PHASE_EXTRACTION, raw_output="raw"
        )
        as_mapping = validate_spec_document(
            _ReadOnlyMapping.of(document), SpecSchema.default(), "m1", PHASE_EXTRACTION,
            raw_output="raw",
        )
        assert as_mapping == as_dict
        for claim in as_dict.claims:
            assert claim == FieldClaim.make(
                claim.field, claim.value, claim.confidence, claim.source_model, claim.phase,
                claim.in_schema,
            )


class _ReadOnlyMapping(Mapping):
    """A mapping that is not a dict, as a caller's own document type may be."""

    def __init__(self, data):
        self._data = data

    @classmethod
    def of(cls, value):
        """`value` with every dict in it, however deep, made one of these."""
        if isinstance(value, dict):
            return cls({key: cls.of(item) for key, item in value.items()})
        if isinstance(value, list):
            return [cls.of(item) for item in value]
        return value

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

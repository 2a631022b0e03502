"""Shared domain types, value canonicalization, and model-output validation.

Every other module depends only on the types defined here. All types are
immutable after construction and all operations are pure functions, so
everything in this module is safe to share across concurrent tasks.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any

__all__ = [
    "SCALAR_TEXT",
    "QUANTITY_WITH_UNIT",
    "NESTED_MAP",
    "FIELD_KINDS",
    "PHASE_EXTRACTION",
    "PHASE_RESEARCH",
    "MISSING_FIELD",
    "KIND_MISMATCH",
    "FAIL_TIMEOUT",
    "FAIL_TRANSPORT",
    "FAIL_AUTH",
    "FAIL_RATE_LIMITED",
    "FAIL_EXHAUSTED",
    "FAIL_PARSE",
    "PartDescription",
    "SpecSchema",
    "FieldClaim",
    "ValidationIssue",
    "Failure",
    "ProviderResponse",
    "ExtractionResult",
    "canonicalize_value",
    "canonicalize_field_name",
    "render_leaf_value",
    "render_nested_value",
    "validate_spec_document",
    "decode_json",
    "text_mode_line_ends",
    "JsonKind",
    "json_value",
    "check_field_kinds",
    "json_object",
    "read_text_file",
    "read_json_file",
    "check_utf8",
]

# Field kinds a schema may declare.
SCALAR_TEXT = "scalar-text"
QUANTITY_WITH_UNIT = "quantity-with-unit"
NESTED_MAP = "nested-map"
FIELD_KINDS = frozenset({SCALAR_TEXT, QUANTITY_WITH_UNIT, NESTED_MAP})

# Pipeline phases a claim can originate from.
PHASE_EXTRACTION = "extraction"
PHASE_RESEARCH = "research"

# Validation issue kinds.
MISSING_FIELD = "missing_field"
KIND_MISMATCH = "kind_mismatch"

_FLOAT_MAX = sys.float_info.max
_NAME_SEPARATORS = re.compile(r"[\s\-]")
_NAME_STRIP = re.compile(r"[^a-z0-9_]")


def text_mode_line_ends(text: str) -> str:
    """`text` as a text-mode read gives it: CRLF and a lone CR read as LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def decode_json(
    text: str, source: str | Path, error: Callable[[str], Exception] = ValueError
) -> Any:
    """Decode the JSON document `text` read from `source`.

    Text that is not JSON, nests too deeply to decode or holds an integer
    too long to convert, raises `error` with a message that names `source`.
    """
    try:
        return json.loads(text_mode_line_ends(text))  # error positions as a text-mode read
    except (ValueError, RecursionError) as exc:
        raise error(f"{source}: invalid JSON: {exc}") from None


def _is_number(value: Any) -> bool:
    # bool is an int to isinstance, and an int past the float range fits no float.
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX
    )


def _is_strings(value: Any) -> bool:  # JSON yields no frozenset, Python config defaults do
    return isinstance(value, (list, tuple, frozenset)) and all(isinstance(s, str) for s in value)


class JsonKind:
    """The kinds of value `json_value` reads, each the words its message uses and its test."""

    STRING = "a string", lambda value: isinstance(value, str)
    OPTIONAL_STRING = "a string or null", lambda value: value is None or isinstance(value, str)
    INTEGER = "an integer", lambda value: isinstance(value, int) and _is_number(value)
    STRING_OR_INTEGER = "a string or an integer", lambda value: (
        isinstance(value, str) or (isinstance(value, int) and _is_number(value))
    )
    NUMBER = "a number", _is_number
    BOOLEAN = "a boolean", lambda value: isinstance(value, bool)
    STRINGS = "an array of strings", _is_strings
    FIELD_NAMES = "an array of field names", _is_strings
    ARRAY = "an array", lambda value: isinstance(value, (list, tuple))
    OBJECT = "an object", lambda value: isinstance(value, Mapping)


def json_value(
    data: Any, key: str | int, kind: tuple[str, Callable[[Any], bool]],
    error: Callable[[str], Exception] = ValueError, default: Any = ...,
) -> Any:
    """`data[key]` from a decoded JSON object (or array) if it is of `kind`, a
    `JsonKind`; a number reads as a float, and a missing key as `default` if
    given. Else raises `error("<key> is missing")` or `error("<key> must be
    <kind>, got <repr>")`, the repr cut at 500 characters. Nothing is
    converted: int() reads 2.9 as 2."""
    try:
        value = data[key]
    except LookupError:
        if default is ...:
            raise error(f"{key} is missing") from None
        return default
    noun, test = kind
    if not test(value):
        shown = repr(value)  # cut, so a run file given as the wrong kind is not printed whole
        raise error(f"{key} must be {noun}, got {shown[:500]}{'...' if len(shown) > 500 else ''}")
    return float(value) if kind is JsonKind.NUMBER else value


_ANNOTATION_KINDS = {  # the JSON kind of a dataclass field, by its annotation string
    "str": JsonKind.STRING, "str | None": JsonKind.OPTIONAL_STRING,
    "int": JsonKind.INTEGER, "float": JsonKind.NUMBER,
    "tuple[str, ...]": JsonKind.STRINGS, "frozenset[str]": JsonKind.STRINGS,
}


def check_field_kinds(record: Any, error: Callable[[str], Exception] = ValueError) -> None:
    """Read each field of dataclass `record` by its annotation through `json_value`, in
    declaration order, and store it back, a number as a float; `error` refuses a bad one."""
    for declared in fields(record):
        if kind := _ANNOTATION_KINDS.get(declared.type):
            value = json_value(vars(record), declared.name, kind, error)
            object.__setattr__(record, declared.name, value)


def json_object(
    cls: type, data: Any, what: str, error: Callable[[str], Exception] = ValueError
) -> dict[str, Any]:
    """Constructor arguments for dataclass `cls` from the decoded JSON object
    `data`, whose keys must be `cls`'s fields; an absent key keeps its default.
    Else raises `error("<what> must be a JSON object")`, `error("unknown <what>
    keys: [...]")` or, for a field without a default, `error("<key> is
    missing")`. Value kinds and ranges are `cls`'s to check."""
    if not isinstance(data, Mapping):
        raise error(f"{what} must be a JSON object")
    unknown = set(data) - {declared.name for declared in fields(cls)}
    if unknown:
        raise error(f"unknown {what} keys: {sorted(unknown)}")
    for declared in fields(cls):
        required = declared.default is MISSING and declared.default_factory is MISSING
        if required and declared.name not in data:
            raise error(f"{declared.name} is missing")
    return dict(data)


def read_text_file(path: str | Path, error: Callable[[str], Exception] = ValueError) -> str:
    """The text of the UTF-8 file at `path`, with its own line ends and any
    byte order mark; other bytes raise `error`, naming `path`. `os.read` and
    one decode of the whole file cost a third of what a text-mode stream does."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        # One read of the file's size, and one that finds its end; a pipe has no size.
        size = os.fstat(fd).st_size or 1 << 16
        chunks = []
        while chunk := os.read(fd, size):
            chunks.append(chunk)
    except IsADirectoryError as exc:  # os.read names no file; open() does
        raise IsADirectoryError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    try:
        return b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


def read_json_file(path: str | Path, error: Callable[[str], Exception] = ValueError) -> Any:
    """Decode the UTF-8 JSON file at `path`; errors as in `read_text_file` and `decode_json`."""
    return decode_json(read_text_file(path, error), path, error)


def check_utf8(text: str, what: str) -> None:
    """Refuse text UTF-8 cannot encode: text holding a lone surrogate, which a
    JSON "\\ud800" escape or a read with surrogateescape yields. Prompts, fixture
    keys and embeddings are made from UTF-8 bytes. The ValueError's message
    begins with `what`."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{what} cannot be encoded as UTF-8: {exc}") from None


def canonicalize_value(raw: str) -> str:
    """Lexically canonicalize a field value.

    Trims, collapses whitespace runs to one space, and case-folds, so unit
    tokens such as "MM" and "mm" compare equal. Idempotent; no unit
    conversion is attempted.
    """
    return " ".join(raw.split()).casefold()


# Every model document repeats the same few field names, so the last results
# are kept; the bound keeps the cache small whatever names arrive.
@lru_cache(maxsize=256)
def canonicalize_field_name(raw: str) -> str:
    """Canonicalize a field name to [a-z0-9_].

    Case-folds, turns whitespace and hyphens into underscores, and drops
    everything else. Idempotent.
    """
    folded = _NAME_SEPARATORS.sub("_", raw.casefold())
    return _NAME_STRIP.sub("", folded)


@dataclass(frozen=True)
class PartDescription:
    """One unstructured part description, the pipeline input unit."""

    id: str
    text: str
    category: str | None = None

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError(f"description {self.id!r} has empty text")


@dataclass(frozen=True)
class SpecSchema:
    """The shared output schema all models are asked to follow.

    ``required_fields`` is an ordered, duplicate-free tuple of canonical
    names; ``field_kinds`` maps canonical names (required or optional) to a
    member of FIELD_KINDS. Required fields without a declared kind default
    to scalar-text.
    """

    required_fields: tuple[str, ...]
    field_kinds: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.required_fields:
            raise ValueError("schema requires at least one required field")
        seen: set[str] = set()
        for name in self.required_fields:
            if canonicalize_field_name(name) != name:
                raise ValueError(f"required field {name!r} is not canonical")
            if name in seen:
                raise ValueError(f"duplicate required field {name!r}")
            seen.add(name)
        for name, kind in self.field_kinds.items():
            if canonicalize_field_name(name) != name:
                raise ValueError(f"schema field {name!r} is not canonical")
            if not isinstance(kind, str) or kind not in FIELD_KINDS:
                raise ValueError(f"unknown field kind {kind!r} for {name!r}")

    def kind_of(self, name: str) -> str | None:
        """Declared kind for a recognized field, None for unrecognized."""
        return self._kinds.get(name)

    @cached_property
    def _kinds(self) -> dict[str, str]:
        return {**dict.fromkeys(self.required_fields, SCALAR_TEXT), **self.field_kinds}

    @cached_property
    def known_fields(self) -> frozenset[str]:
        return frozenset(self._kinds)

    @cached_property
    def _required(self) -> frozenset[str]:
        return frozenset(self.required_fields)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> SpecSchema:
        """Load from the documented JSON shape with exact key names."""
        json_object(cls, data, "schema")
        required = json_value(data, "required_fields", JsonKind.FIELD_NAMES)
        kinds = json_value(data, "field_kinds", JsonKind.OBJECT, default={})
        return cls(tuple(required), dict(kinds))

    @classmethod
    def from_file(cls, path: str | Path) -> SpecSchema:
        return cls.from_dict(read_json_file(path))

    @classmethod
    def default(cls) -> SpecSchema:
        """Minimal built-in schema for part specifications."""
        return cls(
            required_fields=("part_name", "manufacturer", "part_number", "specifications"),
            field_kinds={
                "part_name": SCALAR_TEXT,
                "manufacturer": SCALAR_TEXT,
                "part_number": SCALAR_TEXT,
                "specifications": NESTED_MAP,
            },
        )


@dataclass(frozen=True, slots=True)
class FieldClaim:
    """One model's assertion about one field in one phase."""

    # Slots: a run holds dozens of claims per description, and a slotted
    # claim is a third smaller than one with an instance dict.
    field: str
    value: str
    canonical_value: str
    confidence: float
    source_model: str
    phase: str
    in_schema: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")

    @classmethod
    def make(
        cls,
        field: str,
        value: str,
        confidence: float,
        source_model: str,
        phase: str,
        in_schema: bool = True,
    ) -> FieldClaim:
        """Build a claim with the canonical value derived from the raw one."""
        # Positional: keyword arguments slow the constructor call, and a model
        # document makes dozens of claims.
        return cls(
            field, value, canonicalize_value(value), confidence, source_model, phase, in_schema
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "field": self.field,
            "value": self.value,
            "canonical_value": self.canonical_value,
            "confidence": self.confidence,
            "source_model": self.source_model,
            "phase": self.phase,
            "in_schema": self.in_schema,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> FieldClaim:
        value = json_value(data, "value", JsonKind.STRING, TypeError)
        canonical = json_value(data, "canonical_value", JsonKind.STRING, TypeError, None)
        return cls(
            field=json_value(data, "field", JsonKind.STRING, TypeError),
            value=value,
            canonical_value=canonicalize_value(value) if canonical is None else canonical,
            confidence=json_value(data, "confidence", JsonKind.NUMBER, TypeError, 1.0),
            source_model=json_value(data, "source_model", JsonKind.STRING, TypeError, ""),
            phase=json_value(data, "phase", JsonKind.STRING, TypeError, PHASE_EXTRACTION),
            in_schema=json_value(data, "in_schema", JsonKind.BOOLEAN, TypeError, True),
        )


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found while validating a model document."""

    kind: str  # MISSING_FIELD or KIND_MISMATCH
    path: str
    expected: str = ""
    found: str = ""

    def to_dict(self) -> dict[str, str]:
        return {"kind": self.kind, "path": self.path, "expected": self.expected, "found": self.found}


# Failure kinds: the first five come from the provider call, the last from
# reading its output.
FAIL_TIMEOUT = "timeout"
FAIL_TRANSPORT = "transport"
FAIL_AUTH = "auth"
FAIL_RATE_LIMITED = "rate_limited"
FAIL_EXHAUSTED = "exhausted_retries"
FAIL_PARSE = "parse_error"


@dataclass(frozen=True)
class Failure:
    """Terminal failure descriptor attached to an ExtractionResult."""

    kind: str
    detail: str = ""

    def to_dict(self) -> dict[str, str]:
        return {"kind": self.kind, "detail": self.detail}


@dataclass(frozen=True)
class ProviderResponse:
    """The record of one provider call, whatever its outcome.

    `latency` covers every attempt and backoff; a failed call has
    `raw_text == ""` and its `failure` set.
    """

    model_id: str
    raw_text: str
    latency: float
    attempt_count: int
    failure: Failure | None = None


@dataclass(frozen=True)
class ExtractionResult:
    """One model's structured output for one description in one phase."""

    model_id: str
    phase: str
    claims: tuple[FieldClaim, ...]
    schema_valid: bool
    raw_output: str = ""
    failure: Failure | None = None
    issues: tuple[ValidationIssue, ...] = ()
    # The provider call this result came from. Like PipelineResult.timings it
    # holds wall-clock data, so it stays out of to_dict() and equality.
    call: ProviderResponse | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.failure is not None and (self.claims or self.schema_valid):
            raise ValueError("failed results must carry no claims and be schema-invalid")
        names = [claim.field for claim in self.claims]
        if len(names) != len(set(names)):
            raise ValueError("claims must be duplicate-free by field name")

    @classmethod
    def failed(
        cls,
        model_id: str,
        phase: str,
        failure: Failure,
        raw_output: str = "",
        call: ProviderResponse | None = None,
    ) -> ExtractionResult:
        """The result of a call or document that yielded no claims: `failure`
        says why, and it is schema-invalid."""
        return cls(model_id, phase, (), False, raw_output, failure, (), call)

    def field_names(self) -> frozenset[str]:
        return frozenset(claim.field for claim in self.claims)

    def to_dict(self) -> dict[str, Any]:
        return {
            "model_id": self.model_id,
            "phase": self.phase,
            "claims": [claim.to_dict() for claim in self.claims],
            "schema_valid": self.schema_valid,
            "raw_output": self.raw_output,
            "failure": self.failure.to_dict() if self.failure else None,
            "issues": [issue.to_dict() for issue in self.issues],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> ExtractionResult:
        failure = data.get("failure")
        if failure is not None:
            failure = _string_record(Failure, failure, "failure")
        claims = json_value(data, "claims", JsonKind.ARRAY, TypeError, ())
        issues = json_value(data, "issues", JsonKind.ARRAY, TypeError, ())
        return cls(
            model_id=json_value(data, "model_id", JsonKind.STRING, TypeError),
            phase=json_value(data, "phase", JsonKind.STRING, TypeError, PHASE_EXTRACTION),
            claims=tuple(FieldClaim.from_dict(claim) for claim in claims),
            schema_valid=json_value(data, "schema_valid", JsonKind.BOOLEAN, TypeError, False),
            raw_output=json_value(data, "raw_output", JsonKind.STRING, TypeError, ""),
            failure=failure,
            issues=tuple(_string_record(ValidationIssue, issue, "issue") for issue in issues),
        )


def _string_record(cls: type, data: Any, what: str) -> Any:
    """`cls` from a run-file record of strings, its keys checked by `json_object`."""
    record = json_object(cls, data, what, TypeError)
    return cls(**{key: json_value(record, key, JsonKind.STRING, TypeError) for key in record})


def render_nested_value(mapping: Mapping[str, Any]) -> str:
    """Render a nested map as a flat "key: value | key: value" string.

    Keys are canonicalized, nesting uses dotted paths, and entries are
    sorted so the rendering is deterministic for any traversal order.
    """
    leaves, _issues = _nested_leaves(mapping)
    return _join_leaves(leaves)


def _join_leaves(leaves: list[tuple[str, str, float | None]]) -> str:
    # Sorted on (path, value) alone: equal pairs render the same, and their
    # confidences (a float and None) do not compare.
    return " | ".join(f"{path}: {value}" for path, value in sorted((p, v) for p, v, _ in leaves))


def _nested_leaves(
    mapping: Mapping[str, Any], prefix: str = ""
) -> tuple[list[tuple[str, str, float | None]], list[ValidationIssue]]:
    """Flatten a nested map into (dotted path, value, own confidence) leaves."""
    leaves: list[tuple[str, str, float | None]] = []
    issues: list[ValidationIssue] = []
    for key, value in mapping.items():
        name = canonicalize_field_name(str(key))
        if not name:
            continue
        path = f"{prefix}.{name}" if prefix else name
        leaf, confidence, conf_issues = _unwrap(value, path)
        issues.extend(conf_issues)
        if _is_mapping(leaf):
            inner, inner_issues = _nested_leaves(leaf, path)
            leaves.extend(inner)
            issues.extend(inner_issues)
        else:
            leaves.append((path, render_leaf_value(leaf), confidence))
    return leaves, issues


def _is_mapping(value: Any) -> bool:
    """`isinstance(value, Mapping)`, deciding the common JSON types without
    the slower abstract-class check."""
    cls = type(value)
    return cls is dict or (cls is not str and isinstance(value, Mapping))


def render_leaf_value(value: Any) -> str:
    """Render one field value as text: the form claims and KB records share.

    None is empty, booleans are lowercase, maps render as
    `render_nested_value`, and arrays join their items with ", ".
    """
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if _is_mapping(value):
        return render_nested_value(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(render_leaf_value(item) for item in value)
    return str(value)


def _unwrap(value: Any, path: str) -> tuple[Any, float | None, tuple[ValidationIssue, ...]]:
    """Unwrap an optional {"value": ..., "confidence": ...} envelope.

    A mapping is treated as an envelope only when "value" is its sole key
    besides an optional "confidence"; anything else passes through with
    confidence None. An envelope's confidence defaults to 1.0; one that is
    not a number in [0, 1] is clamped (1.0 if not a number) and reported
    rather than rejected.
    """
    if not (
        _is_mapping(value)
        and "value" in value
        and (len(value) == 1 or (len(value) == 2 and "confidence" in value))
    ):
        return value, None, ()
    confidence = value.get("confidence", 1.0)
    if not _is_number(confidence):
        found, clamped = repr(confidence), 1.0
    elif 0.0 <= confidence <= 1.0:
        return value["value"], float(confidence), ()
    else:
        found, clamped = repr(float(confidence)), float(min(1.0, max(0.0, confidence)))
    issue = ValidationIssue(KIND_MISMATCH, f"{path}.confidence", "number in [0, 1]", found)
    return value["value"], clamped, (issue,)


def _has_digit(text: str) -> bool:
    return any(ch.isdigit() for ch in text)


def validate_spec_document(
    document: Any,
    schema: SpecSchema,
    model_id: str,
    phase: str,
    raw_output: str | None = None,
    call: ProviderResponse | None = None,
) -> ExtractionResult:
    """Validate one parsed model document against the shared schema.

    Returns schema_valid=True iff every required field is present with its
    declared kind. Claims are populated for every field in the document;
    fields the schema does not know are retained with in_schema=False so
    surplus attributes stay countable. Never raises: structural problems
    are collected into the issues report instead. `call`, the provider call
    the document came from, is kept on the result.
    """
    is_object = _is_mapping(document)
    if raw_output is None:
        try:
            raw_output = json.dumps(document, sort_keys=True) if is_object else str(document)
        except TypeError:
            # Not encodable as JSON: a mapping that is not a dict, a set
            # value, or keys of mixed types.
            raw_output = str(document)
    if not is_object:
        failure = Failure(FAIL_PARSE, "top-level value is not an object")
        return ExtractionResult.failed(model_id, phase, failure, raw_output, call)

    issues: list[ValidationIssue] = []
    claims: list[FieldClaim] = []

    for key, raw_value in document.items():
        name = canonicalize_field_name(str(key))
        if not name:
            issues.append(
                ValidationIssue(
                    KIND_MISMATCH,
                    path=str(key),
                    expected="field name containing word characters",
                    found=repr(key),
                )
            )
            continue
        kind = schema.kind_of(name)
        in_schema = kind is not None
        leaf, confidence, conf_issues = _unwrap(raw_value, name)
        confidence = 1.0 if confidence is None else confidence
        issues.extend(conf_issues)

        if _is_mapping(leaf):
            # Nested payload: one claim for the parent plus one per leaf, so
            # consensus and detail counting both have handles.
            if in_schema and kind != NESTED_MAP:
                issues.append(
                    ValidationIssue(KIND_MISMATCH, path=name, expected=kind, found="nested map")
                )
            leaves, leaf_issues = _nested_leaves(leaf, name)
            issues.extend(leaf_issues)
            rendered = _join_leaves(leaves)
            claims.append(FieldClaim.make(name, rendered, confidence, model_id, phase, in_schema))
            for path, value, leaf_conf in leaves:
                claims.append(
                    FieldClaim.make(
                        path,
                        value,
                        confidence if leaf_conf is None else leaf_conf,
                        model_id,
                        phase,
                        path in schema.known_fields,
                    )
                )
        else:
            text = render_leaf_value(leaf)
            if in_schema and kind == NESTED_MAP:
                issues.append(
                    ValidationIssue(KIND_MISMATCH, path=name, expected=kind, found=type(leaf).__name__)
                )
            elif in_schema and kind == QUANTITY_WITH_UNIT and not _has_digit(text):
                issues.append(
                    ValidationIssue(KIND_MISMATCH, path=name, expected=kind, found=repr(text))
                )
            elif isinstance(leaf, (list, tuple)):
                issues.append(
                    ValidationIssue(
                        KIND_MISMATCH, path=name, expected=kind or SCALAR_TEXT, found="array"
                    )
                )
            claims.append(FieldClaim.make(name, text, confidence, model_id, phase, in_schema))

    deduped = _collapse_duplicates(claims)
    present = {claim.field for claim in deduped}
    for name in schema.required_fields:
        if name not in present:
            issues.append(ValidationIssue(MISSING_FIELD, path=name))

    # Any issue on a required field, missing or of the wrong kind, invalidates
    # the document; issues elsewhere are only reported.
    required = schema._required
    return ExtractionResult(
        model_id=model_id,
        phase=phase,
        claims=tuple(deduped),
        schema_valid=not any(issue.path in required for issue in issues),
        raw_output=raw_output,
        issues=tuple(issues),
        call=call,
    )


def _collapse_duplicates(claims: list[FieldClaim]) -> list[FieldClaim]:
    """Keep one claim per field: highest confidence, earliest on ties.

    Replacing a dict entry keeps its position, so fields stay in first-seen
    document order.
    """
    best: dict[str, FieldClaim] = {}
    for claim in claims:
        current = best.get(claim.field)
        if current is None or claim.confidence > current.confidence:
            best[claim.field] = claim
    return list(best.values())

"""Evaluation metrics and run-level scoring.

Five normalized scores, each in [0, 1]:

- information coverage (ics): share of expected fields that were extracted
- technical depth (tdi): permitted extra detail relative to a per-part cap
- structural quality (sdq): share of outputs that were schema-valid
- inter-model divergence (idr): mean pairwise Jaccard distance of field sets
- attribute relevance / hallucination (ara): share of extracted attributes
  outside the allowed whitelist (lower is better)
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any

from .core import (
    PHASE_EXTRACTION, ExtractionResult, JsonKind, json_object, json_value, read_json_file,
)

__all__ = [
    "MetricError",
    "ics",
    "tdi",
    "sdq",
    "idr",
    "ara",
    "ManifestEntry",
    "GroundTruthManifest",
    "MetricReport",
    "DescriptionRun",
    "SystemRun",
    "load_system_run",
    "load_runs_dir",
    "evaluate_run",
    "render_table",
]


class MetricError(ValueError):
    """Input a metric, the manifest or a run file cannot be scored from; the
    message says what is wrong."""


def _refusal(where: str | Path) -> Callable[[str], MetricError]:
    """The error for a value read at `where`: a MetricError whose message begins with it."""
    return lambda text: MetricError(f"{where}: {text}")


def ics(extracted: Iterable[str], expected: Iterable[str]) -> float:
    """Information coverage: |extracted ∩ expected| / |expected|."""
    expected_set = set(expected)
    if not expected_set:
        raise MetricError("expected field set is empty")
    return len(set(extracted) & expected_set) / len(expected_set)


def tdi(detail_counts: Sequence[int], d_max: int) -> float:
    """Technical depth: mean detail count over the cap, clamped into [0, 1]."""
    if not detail_counts:
        raise MetricError("detail_counts is empty")
    if d_max <= 0:
        raise MetricError(f"d_max must be positive, got {d_max}")
    ratio = sum(detail_counts) / (len(detail_counts) * d_max)
    return 0.0 if ratio < 0.0 else 1.0 if ratio > 1.0 else ratio


def sdq(outputs: Sequence[ExtractionResult]) -> float:
    """Structured data quality: schema-valid outputs over all outputs."""
    if not outputs:
        raise MetricError("outputs is empty")
    return sum(1 for output in outputs if output.schema_valid) / len(outputs)


def idr(field_sets: Sequence[Iterable[str]]) -> float:
    """Inter-model divergence: mean pairwise Jaccard distance.

    Two empty sets count as identical (distance zero).
    """
    sets = [frozenset(fields) for fields in field_sets]
    n = len(sets)
    if n < 2:
        raise MetricError(f"need at least 2 field sets, got {n}")
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            union = sets[i] | sets[j]
            if union:
                total += 1.0 - len(sets[i] & sets[j]) / len(union)
    return 2.0 * total / (n * (n - 1))


def ara(attributes: Sequence[str], allowed: Iterable[str]) -> float:
    """Attribute relevance: extraneous attributes over all attributes.

    Counts occurrences, not distinct names; 0.0 means fully grounded.
    """
    if not attributes:
        raise MetricError("attributes is empty")
    allowed_set = set(allowed)
    extraneous = sum(1 for attribute in attributes if attribute not in allowed_set)
    return extraneous / len(attributes)


@dataclass(frozen=True)
class ManifestEntry:
    """Ground truth for one description."""

    expected_fields: frozenset[str]
    detail_max: int
    allowed_attributes: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.expected_fields:
            raise MetricError("expected_fields must be non-empty")
        if self.detail_max <= 0:
            raise MetricError(f"detail_max must be positive, got {self.detail_max}")


@dataclass(frozen=True)
class GroundTruthManifest:
    entries: Mapping[str, ManifestEntry]

    def entry(self, description_id: str) -> ManifestEntry:
        try:
            return self.entries[description_id]
        except KeyError:
            raise MetricError(f"no manifest entry for description {description_id!r}") from None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> GroundTruthManifest:
        entries: dict[str, ManifestEntry] = {}
        for description_id, raw in data.items():
            refuse = _refusal(f"manifest entry {description_id!r}")
            raw = json_object(ManifestEntry, raw, "manifest entry", refuse)
            read = partial(json_value, raw, error=refuse)
            entries[description_id] = ManifestEntry(
                frozenset(read("expected_fields", JsonKind.FIELD_NAMES)),
                read("detail_max", JsonKind.INTEGER),
                frozenset(read("allowed_attributes", JsonKind.FIELD_NAMES, default=())),
            )
        return cls(entries)

    @classmethod
    def from_file(cls, path: str | Path) -> GroundTruthManifest:
        data = read_json_file(path, MetricError)
        if not isinstance(data, Mapping):
            raise MetricError(f"{path}: manifest must be a JSON object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class MetricReport:
    """One system's scores, every value already normalized into [0, 1]."""

    system_id: str
    ics: float
    tdi: float
    sdq: float
    idr: float
    ara: float

    def __post_init__(self) -> None:
        for name in ("ics", "tdi", "sdq", "idr", "ara"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class DescriptionRun:
    """All model outputs a system produced for one description."""

    description_id: str
    outputs: tuple[ExtractionResult, ...]
    final_fields: tuple[str, ...] | None = None


@dataclass(frozen=True)
class SystemRun:
    system_id: str
    descriptions: tuple[DescriptionRun, ...]


def load_system_run(path: str | Path) -> SystemRun:
    """Read one run file: {"system_id", "descriptions": [...]}.

    Each description carries "description_id", "outputs" (serialized
    extraction results), and optionally "final" (a synthesized spec object
    or null; only its field names matter for scoring). Other keys, such as
    the "context_used" and "quorum_failure" that `extract` writes, are
    ignored.
    """
    data = read_json_file(path, MetricError)
    if not isinstance(data, Mapping) or not isinstance(data.get("system_id"), str):
        raise MetricError(f"{path}: run file must be an object with a string system_id")
    raw_descriptions = json_value(data, "descriptions", JsonKind.ARRAY, _refusal(path), [])
    descriptions: list[DescriptionRun] = []
    for position, raw in enumerate(raw_descriptions):
        where = f"{path}: description {position}"
        if not isinstance(raw, Mapping):
            raise MetricError(f"{where} must be an object")
        read = partial(json_value, error=_refusal(where))
        description_id = read(raw, "description_id", JsonKind.STRING)
        raw_outputs = read(raw, "outputs", JsonKind.ARRAY, default=())
        try:
            outputs = tuple(ExtractionResult.from_dict(o) for o in raw_outputs)
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MetricError(f"{where}: unreadable output ({type(exc).__name__}: {exc})") from None
        final_fields: tuple[str, ...] | None = None
        if raw.get("final") is not None:
            final = read(raw, "final", JsonKind.OBJECT)
            final_fields = tuple(sorted(read(final, "fields", JsonKind.OBJECT, default=final)))
        descriptions.append(DescriptionRun(description_id, outputs, final_fields))
    return SystemRun(system_id=data["system_id"], descriptions=tuple(descriptions))


def load_runs_dir(directory: str | Path) -> list[SystemRun]:
    """Load every *.json run file in a directory, sorted by filename."""
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise MetricError(f"{directory}: no run files found")
    return [load_system_run(path) for path in paths]


def evaluate_run(
    runs: Sequence[SystemRun], manifest: GroundTruthManifest
) -> tuple[list[MetricReport], str]:
    """Score each system against the manifest and render a report table.

    Per system: coverage and depth average per-description values; quality
    pools outputs across descriptions; divergence averages over descriptions
    with at least two schema-valid first-phase outputs (0.0 when none
    qualify); relevance pools attribute occurrences. A description's
    extracted fields come from its final spec when present, otherwise from
    the union of its schema-valid outputs' claims.
    """
    reports: list[MetricReport] = []
    for run in runs:
        if not run.descriptions:
            raise MetricError(f"system {run.system_id!r} has no descriptions")
        ics_values: list[float] = []
        tdi_values: list[float] = []
        idr_values: list[float] = []
        outputs: list[ExtractionResult] = []
        extraneous = 0
        attribute_count = 0
        for description in run.descriptions:
            entry = manifest.entry(description.description_id)
            if description.final_fields is not None:
                attributes: list[str] = list(description.final_fields)
            else:
                valid = [out.field_names() for out in description.outputs if out.schema_valid]
                attributes = sorted(frozenset().union(*valid))
            extracted = set(attributes)
            ics_values.append(ics(extracted, entry.expected_fields))
            depth = sum(
                1
                for name in extracted
                if name not in entry.expected_fields and name in entry.allowed_attributes
            )
            tdi_values.append(tdi([depth], entry.detail_max))
            outputs += description.outputs
            first_phase = [
                output.field_names()
                for output in description.outputs
                if output.schema_valid and output.phase == PHASE_EXTRACTION
            ]
            if len(first_phase) >= 2:
                idr_values.append(idr(first_phase))
            attribute_count += len(attributes)
            extraneous += sum(1 for name in attributes if name not in entry.allowed_attributes)
        reports.append(
            MetricReport(
                system_id=run.system_id,
                ics=sum(ics_values) / len(ics_values),
                tdi=sum(tdi_values) / len(tdi_values),
                sdq=sdq(outputs) if outputs else 0.0,
                idr=sum(idr_values) / len(idr_values) if idr_values else 0.0,
                ara=extraneous / attribute_count if attribute_count else 0.0,
            )
        )
    return reports, render_table(reports)


_COLUMNS = ("Model", "ICS", "TDI", "SDQ", "IDR", "ARA")


def render_table(reports: Sequence[MetricReport]) -> str:
    """Plain-text score table; divergence keeps three decimals, the rest two."""
    rows = [
        (
            report.system_id,
            f"{report.ics:.2f}",
            f"{report.tdi:.2f}",
            f"{report.sdq:.2f}",
            f"{report.idr:.3f}",
            f"{report.ara:.2f}",
        )
        for report in reports
    ]
    widths = [
        max(len(_COLUMNS[i]), *(len(row[i]) for row in rows)) if rows else len(_COLUMNS[i])
        for i in range(len(_COLUMNS))
    ]
    lines = [
        "  ".join(_COLUMNS[i].ljust(widths[i]) for i in range(len(_COLUMNS))).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(_COLUMNS))),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))).rstrip())
    return "\n".join(lines)

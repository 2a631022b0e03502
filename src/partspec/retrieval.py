"""Knowledge-base ingestion, deterministic embedding, and exact top-k search.

The index is a frozen flat matrix of unit-norm vectors scanned exhaustively,
so every search result can be checked against a brute-force oracle. Build is
single-writer; a built index is immutable and safe for concurrent readers.
"""

from __future__ import annotations

import csv
import json
import logging
import struct
import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

import numpy as np

from .core import read_json_file, render_leaf_value

logger = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_DIMENSION",
    "FormatError",
    "PartRecord",
    "Hit",
    "RetrievedContext",
    "Embedder",
    "HashTrigramEmbedder",
    "FlatIndex",
    "flatten_record",
    "ingest_records",
    "embed_text",
]

DEFAULT_DIMENSION = 384

INDEX_MAGIC = b"SFIX"
INDEX_VERSION = 1
_HEADER = struct.Struct("<4sIII")  # magic, version, count, dim
VECTORS_FILENAME = "vectors.sfix"
MANIFEST_FILENAME = "manifest.json"


class FormatError(ValueError):
    """Malformed knowledge-base input; carries the offending location."""

    def __init__(self, location: str, reason: str) -> None:
        super().__init__(f"{location}: {reason}")
        self.location = location
        self.reason = reason


@dataclass(frozen=True)
class PartRecord:
    """One knowledge-base entry: the retrieval corpus unit."""

    record_id: str
    flat_text: str
    source: str
    raw_fields: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Hit:
    record_id: str
    similarity: float
    snippet: str

    def to_dict(self) -> dict[str, Any]:
        return {"record_id": self.record_id, "similarity": self.similarity, "snippet": self.snippet}


@dataclass(frozen=True)
class RetrievedContext:
    """Top-k retrieval outcome handed to prompt builders and synthesis."""

    hits: tuple[Hit, ...]
    query_text: str
    k_requested: int
    threshold_applied: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": [hit.to_dict() for hit in self.hits],
            "query_text": self.query_text,
            "k_requested": self.k_requested,
            "threshold_applied": self.threshold_applied,
        }

    @classmethod
    def empty(cls, query_text: str, k: int, threshold: float) -> RetrievedContext:
        return cls((), query_text, k, threshold)


def flatten_record(raw_fields: Mapping[str, Any]) -> str:
    """Render a record's fields as one deterministic embedding string.

    Keys are sorted lexicographically after nested maps are expanded to
    dotted paths; entries render as "key: value" joined by " | ", each value
    through `render_leaf_value`, the renderer model output uses too.
    """
    return " | ".join(f"{key}: {value}" for key, value in sorted(_flat_items(raw_fields)))


def _flat_items(mapping: Mapping[str, Any], prefix: str = "") -> list[tuple[str, str]]:
    items: list[tuple[str, str]] = []
    for key, value in mapping.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            items.extend(_flat_items(value, path))
        else:
            items.append((path, render_leaf_value(value)))
    return items


def ingest_records(path: str | Path, format: str | None = None) -> list[PartRecord]:
    """Load part records from a CSV (header row) or JSON array file.

    Record ids come from an explicit "id" column/key when present, otherwise
    "<filename>:<ordinal>". Malformed rows are skipped and reported through
    the module logger; only file-level problems raise FormatError.
    """
    path = Path(path)
    if format is None:
        suffix = path.suffix.lower()
        if suffix == ".csv":
            format = "csv"
        elif suffix == ".json":
            format = "json"
        else:
            raise FormatError(str(path), f"cannot infer format from suffix {suffix!r}")
    if format not in ("csv", "json"):
        raise FormatError(str(path), f"unsupported format {format!r}")

    if format == "csv":
        rows = _read_csv_rows(path)
    else:
        rows = _read_json_rows(path)

    records: list[PartRecord] = []
    seen_ids: set[str] = set()
    for ordinal, raw_fields in rows:
        location = f"{path.name}:{ordinal}"
        flat_text = flatten_record(raw_fields)
        try:
            # A JSON "\ud800" escape decodes to a lone surrogate, which the
            # embedder cannot encode.
            flat_text.encode("utf-8")
        except UnicodeEncodeError as exc:
            logger.warning(
                "%s", FormatError(location, f"record cannot be encoded as UTF-8: {exc}; skipped")
            )
            continue
        explicit = raw_fields.get("id")
        record_id = str(explicit) if explicit not in (None, "") else location
        if record_id in seen_ids:
            logger.warning("%s", FormatError(location, f"duplicate record id {record_id!r}; skipped"))
            continue
        seen_ids.add(record_id)
        records.append(
            PartRecord(
                record_id=record_id,
                flat_text=flat_text,
                source=location,
                raw_fields=raw_fields,
            )
        )
    return records


def _read_csv_rows(path: Path) -> list[tuple[int, dict[str, Any]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        # csv.Error (a cell over the field size limit, say) is not a
        # ValueError. The limit is process-wide state, so it is left alone.
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError(str(path), "CSV file has no header row")
            rows: list[tuple[int, dict[str, Any]]] = []
            for ordinal, row in enumerate(reader):
                if len(row) != len(header):
                    logger.warning(
                        "%s",
                        FormatError(
                            f"{path.name}:{ordinal}",
                            f"expected {len(header)} columns, found {len(row)}; row skipped",
                        ),
                    )
                    continue
                rows.append((ordinal, dict(zip(header, row))))
        except csv.Error as exc:
            raise FormatError(str(path), f"line {reader.line_num}: {exc}") from None
    return rows


def _read_json_rows(path: Path) -> list[tuple[int, dict[str, Any]]]:
    try:
        data = read_json_file(path)
    except ValueError as exc:
        # FormatError puts the location in front of the reason itself.
        raise FormatError(str(path), str(exc).removeprefix(f"{path}: ")) from None
    if not isinstance(data, list):
        raise FormatError(str(path), "top-level JSON value must be an array of objects")
    rows: list[tuple[int, dict[str, Any]]] = []
    for ordinal, element in enumerate(data):
        if not isinstance(element, Mapping):
            logger.warning(
                "%s",
                FormatError(f"{path.name}:{ordinal}", "element is not an object; skipped"),
            )
            continue
        rows.append((ordinal, dict(element)))
    return rows


@runtime_checkable
class Embedder(Protocol):
    """Anything that maps text to a fixed-dimension dense vector."""

    dimension: int

    def embed(self, text: str) -> np.ndarray: ...


@dataclass(frozen=True)
class HashTrigramEmbedder:
    """Deterministic test embedder: hashed character trigrams, L2-normalized.

    Texts are padded with '#' boundary markers before the trigram scan so
    even one-character inputs produce a non-zero vector; empty text maps to
    the first basis vector. No model download, bit-stable across runs.
    """

    dimension: int = DEFAULT_DIMENSION

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"embedding dimension must be at least 1, got {self.dimension}")

    def embed(self, text: str) -> np.ndarray:
        if not text:
            counts = np.zeros(self.dimension, dtype=np.float64)
            counts[0] = 1.0
            return counts.astype(np.float32)
        padded = f"##{text}##"
        dimension = self.dimension
        if padded.isascii():
            # One byte per character: each trigram's UTF-8 bytes are a slice.
            raw = padded.encode("ascii")
            buckets = [zlib.crc32(raw[i : i + 3]) % dimension for i in range(len(raw) - 2)]
        else:
            buckets = [
                zlib.crc32(padded[i : i + 3].encode("utf-8")) % dimension
                for i in range(len(padded) - 2)
            ]
        counts = np.bincount(buckets, minlength=dimension).astype(np.float64)
        counts /= np.linalg.norm(counts)
        return counts.astype(np.float32)

    def spec(self) -> dict[str, Any]:
        return {"kind": "hash_trigram", "dimension": self.dimension}


def embed_text(text: str, embedder: Embedder) -> np.ndarray:
    """Embed text into a unit-norm float32 vector of the embedder's dimension."""
    vector = np.asarray(embedder.embed(text), dtype=np.float64)
    if vector.ndim != 1 or vector.shape[0] != embedder.dimension:
        raise ValueError(
            f"embedder produced shape {vector.shape}, expected ({embedder.dimension},)"
        )
    norm = np.linalg.norm(vector)
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("embedder produced a zero or non-finite vector")
    return (vector / norm).astype(np.float32)


class FlatIndex:
    """Exact cosine-similarity index: a frozen matrix scanned in full.

    No approximation anywhere, so results are comparable one-to-one with a
    brute-force oracle. Ties on similarity break by record id ascending.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        record_ids: Sequence[str],
        flat_texts: Sequence[str],
        sources: Sequence[str],
        embedder: Embedder,
    ) -> None:
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if not (len(record_ids) == len(flat_texts) == len(sources) == matrix.shape[0]):
            raise ValueError("metadata length does not match matrix rows")
        if len(set(record_ids)) != len(record_ids):
            raise ValueError("duplicate record ids in index")
        self._matrix = matrix
        self._record_ids = tuple(record_ids)
        self._flat_texts = tuple(flat_texts)
        self._sources = tuple(sources)
        self._embedder = embedder
        # Each row's position in record-id order: the tie-break key of search.
        by_id = sorted(range(len(self._record_ids)), key=self._record_ids.__getitem__)
        self._id_rank = np.empty(len(by_id), dtype=np.intp)
        self._id_rank[by_id] = np.arange(len(by_id))

    @classmethod
    def build(cls, records: Sequence[PartRecord], embedder: Embedder) -> FlatIndex:
        """Embed every record's flat text and freeze the result."""
        if records:
            matrix = np.stack([embed_text(record.flat_text, embedder) for record in records])
        else:
            matrix = np.empty((0, embedder.dimension), dtype=np.float32)
        return cls(
            matrix,
            [record.record_id for record in records],
            [record.flat_text for record in records],
            [record.source for record in records],
            embedder,
        )

    @property
    def count(self) -> int:
        return self._matrix.shape[0]

    @property
    def dimension(self) -> int:
        return self._matrix.shape[1]

    @property
    def embedder(self) -> Embedder:
        return self._embedder

    def search(self, query_text: str, k: int, threshold: float) -> RetrievedContext:
        """Return the k highest-cosine records at or above the threshold.

        Only the rows at or above the k-th highest similarity are sorted,
        so the order of the hits is that of sorting every row.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.count == 0:
            logger.warning("IndexEmpty: search over an empty index returns no hits")
            return RetrievedContext.empty(query_text, k, threshold)
        query = embed_text(query_text, self._embedder)
        similarities = self._matrix @ query
        rows = np.arange(self.count)
        if 0 < k < self.count:
            # Every row tied with the k-th highest similarity stays, so the
            # id tie-break below sees all of them.
            kth = np.partition(similarities, self.count - k)[self.count - k]
            rows = np.flatnonzero(similarities >= kth)
        # Primary key: similarity descending; secondary: record id ascending.
        order = rows[np.lexsort((self._id_rank[rows], -similarities[rows]))]
        hits: list[Hit] = []
        for row in order[:k].tolist():
            similarity = float(similarities[row])
            if similarity < threshold:
                break
            hits.append(Hit(self._record_ids[row], similarity, self._flat_texts[row]))
        return RetrievedContext(tuple(hits), query_text, k, threshold)

    def save(self, directory: str | Path) -> None:
        """Persist as a binary vector blob plus a JSON manifest.

        Blob layout: 16-byte header (magic "SFIX", version u32, count u32,
        dim u32, all little-endian) followed by row-major little-endian
        float32 vectors. The round trip is bit-exact.

        The manifest records the embedder's `spec()`, which `load` rebuilds
        it from; an embedder without one is refused before anything is
        written, since the index would load with another embedder.
        """
        directory = Path(directory)
        if not hasattr(self._embedder, "spec"):
            raise ValueError(
                f"{directory}: cannot save an index whose embedder "
                f"({type(self._embedder).__name__}) has no spec() to rebuild it from"
            )
        directory.mkdir(parents=True, exist_ok=True)
        blob = _HEADER.pack(INDEX_MAGIC, INDEX_VERSION, self.count, self.dimension)
        blob += np.ascontiguousarray(self._matrix, dtype="<f4").tobytes()
        (directory / VECTORS_FILENAME).write_bytes(blob)
        manifest = {
            "version": INDEX_VERSION,
            "dimension": self.dimension,
            "embedder": self._embedder.spec(),
            "records": [
                {"record_id": rid, "flat_text": text, "source": source}
                for rid, text, source in zip(self._record_ids, self._flat_texts, self._sources)
            ],
        }
        (directory / MANIFEST_FILENAME).write_text(
            json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, directory: str | Path) -> FlatIndex:
        """Reload a persisted index; the embedder is rebuilt from the manifest."""
        directory = Path(directory)
        blob = (directory / VECTORS_FILENAME).read_bytes()
        if len(blob) < _HEADER.size:
            raise ValueError(f"{directory}: vector blob shorter than its header")
        magic, version, count, dim = _HEADER.unpack_from(blob)
        if magic != INDEX_MAGIC:
            raise ValueError(f"{directory}: bad magic {magic!r}")
        if version != INDEX_VERSION:
            raise ValueError(f"{directory}: unsupported index version {version}")
        body = blob[_HEADER.size :]
        expected = count * dim * 4
        if len(body) != expected:
            raise ValueError(f"{directory}: blob payload is {len(body)} bytes, expected {expected}")
        matrix = np.frombuffer(body, dtype="<f4").reshape(count, dim)
        if not np.isfinite(matrix).all():
            raise ValueError(f"{directory}: vector blob holds non-finite values")

        manifest = read_json_file(directory / MANIFEST_FILENAME)
        if not isinstance(manifest, Mapping):
            raise ValueError(f"{directory}: manifest must be a JSON object")
        records = manifest.get("records", [])
        if not isinstance(records, list):
            raise ValueError(f"{directory}: manifest records must be an array")
        if len(records) != count:
            raise ValueError(
                f"{directory}: manifest lists {len(records)} records, blob holds {count}"
            )
        for position, entry in enumerate(records):
            if not (
                isinstance(entry, Mapping)
                and isinstance(entry.get("record_id"), str)
                and isinstance(entry.get("flat_text"), str)
            ):
                raise ValueError(
                    f"{directory}: manifest record {position} needs a string record_id "
                    "and flat_text"
                )
            try:
                # A JSON "\ud800" escape decodes to a lone surrogate, which no
                # prompt holding this record could be encoded with.
                entry["flat_text"].encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ValueError(
                    f"{directory}: manifest record {position} flat_text cannot be encoded "
                    f"as UTF-8: {exc}"
                ) from None
        embedder = _embedder_from_spec(manifest.get("embedder"), dim, directory)
        if embedder.dimension != dim:
            raise ValueError(
                f"{directory}: embedder dimension {embedder.dimension} does not match "
                f"the index dimension {dim}"
            )
        return cls(
            matrix,
            [entry["record_id"] for entry in records],
            [entry["flat_text"] for entry in records],
            [entry.get("source", "") for entry in records],
            embedder,
        )


def _embedder_from_spec(spec: Any, dimension: int, directory: Path) -> Embedder:
    if spec is None:
        spec = {"kind": "hash_trigram"}
    if not isinstance(spec, Mapping):
        raise ValueError(f"{directory}: manifest embedder must be an object")
    kind = spec.get("kind")
    if kind != "hash_trigram":
        raise ValueError(f"{directory}: manifest names unknown embedder kind {kind!r}")
    dimension = spec.get("dimension", dimension)
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise ValueError(f"{directory}: manifest embedder dimension must be an integer")
    try:
        return HashTrigramEmbedder(dimension)
    except ValueError as exc:
        raise ValueError(f"{directory}: {exc}") from None


"""Knowledge-base ingestion, deterministic embedding, and exact top-k search.

The index is a frozen flat matrix of unit-norm vectors scanned exhaustively,
so every search result can be checked against a brute-force oracle. Build is
single-writer; a built index is immutable and safe for concurrent readers.
"""

from __future__ import annotations

import io
import json
import logging
import math
import struct
import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol

import numpy as np

from .core import (
    JsonKind,
    check_field_kinds,
    check_utf8,
    json_value,
    read_json_file,
    read_text_file,
    render_leaf_value,
)

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

# Texts `FlatIndex.build` embeds at once: enough to spread numpy's per-call
# cost thin, few enough that a block's counts take a few megabytes.
_BLOCK_ROWS = 1024

INDEX_MAGIC = b"SFIX"
INDEX_VERSION = 1
_HEADER = struct.Struct("<4sIII")  # magic, version, count, dim
VECTORS_FILENAME = "vectors.sfix"
MANIFEST_FILENAME = "manifest.json"


class FormatError(ValueError):
    """Malformed knowledge-base input; the message names the file."""


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

    Record ids come from an explicit "id" column/key when present (in JSON,
    a string or an integer), otherwise "<filename>:<ordinal>". Malformed rows
    are skipped and reported through the module logger; only file-level
    problems raise FormatError.
    """
    path = Path(path)
    readers = {"csv": _read_csv_rows, "json": _read_json_rows}
    if format is None:
        format = path.suffix.lower().removeprefix(".")
        if format not in readers:
            raise FormatError(f"{path}: cannot infer format from suffix {path.suffix.lower()!r}")
    elif format not in readers:
        raise FormatError(f"{path}: unsupported format {format!r}")
    rows = readers[format](path)

    records: list[PartRecord] = []
    seen_ids: set[str] = set()
    for ordinal, raw_fields in rows:
        location = f"{path.name}:{ordinal}"
        flat_text = flatten_record(raw_fields)
        try:
            check_utf8(flat_text, f"{location}: record")
        except ValueError as exc:
            logger.warning("%s; skipped", exc)
            continue
        if raw_fields.get("id") in (None, ""):
            record_id = location
        else:
            try:
                record_id = str(json_value(raw_fields, "id", JsonKind.STRING_OR_INTEGER))
            except ValueError as exc:
                logger.warning("%s: %s; skipped", location, exc)
                continue
        if record_id in seen_ids:
            logger.warning("%s: duplicate record id %r; skipped", location, record_id)
            continue
        seen_ids.add(record_id)
        records.append(PartRecord(record_id, flat_text, location, raw_fields))
    return records


def _read_csv_rows(path: Path) -> list[tuple[int, dict[str, Any]]]:
    import csv  # only CSV knowledge bases need it

    # As utf-8-sig would, drop a byte order mark; newline="" gives cells the
    # file's own line ends, as the csv module asks.
    text = read_text_file(path, FormatError).removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))
    # csv.Error (a cell over the field size limit, say) is not a
    # ValueError. The limit is process-wide state, so it is left alone.
    try:
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: CSV file has no header row")
        rows: list[tuple[int, dict[str, Any]]] = []
        for ordinal, row in enumerate(reader):
            if len(row) != len(header):
                logger.warning(
                    "%s:%d: expected %d columns, found %d; row skipped",
                    path.name,
                    ordinal,
                    len(header),
                    len(row),
                )
                continue
            rows.append((ordinal, dict(zip(header, row))))
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


def _read_json_rows(path: Path) -> list[tuple[int, dict[str, Any]]]:
    data = read_json_file(path, FormatError)
    if not isinstance(data, list):
        raise FormatError(f"{path}: top-level JSON value must be an array of objects")
    rows: list[tuple[int, dict[str, Any]]] = []
    for ordinal, element in enumerate(data):
        if not isinstance(element, Mapping):
            logger.warning("%s:%d: element is not an object; skipped", path.name, ordinal)
            continue
        rows.append((ordinal, dict(element)))
    return rows


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
        check_field_kinds(self)
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

    def embed_block(self, texts: Sequence[str]) -> np.ndarray:
        """The vectors `embed` gives for `texts`, bit for bit, as the rows of
        one float32 matrix.

        Non-empty ASCII texts are hashed together: their padded bytes are
        packed into one buffer, three table rounds give every trigram's
        CRC-32 at once, and one bincount counts the buckets of every row.
        Other texts go through `embed` one by one.
        """
        dimension = self.dimension
        rows = np.empty((len(texts), dimension), dtype=np.float32)
        packed: list[int] = []
        for row, text in enumerate(texts):
            if text and text.isascii():
                packed.append(row)
            else:
                rows[row] = self.embed(text)
        if not packed:
            return rows
        padded = [f"##{texts[row]}##" for row in packed]
        buffer = np.frombuffer("".join(padded).encode("ascii"), dtype=np.uint8)
        lengths = np.fromiter(map(len, padded), dtype=np.intp, count=len(padded))
        windows = len(buffer) - 2
        crc = np.full(windows, 0xFFFFFFFF, dtype=np.uint32)  # zlib's start, and final xor
        for offset in range(3):
            index = crc.astype(np.uint8)
            index ^= buffer[offset : offset + windows]
            crc >>= 8
            crc ^= _CRC32_TABLE.take(index)
        crc ^= 0xFFFFFFFF
        # A window starting in a text's last two bytes runs into the next text.
        ends = np.cumsum(lengths)
        inside = np.ones(len(buffer), dtype=bool)
        inside[ends - 1] = inside[ends - 2] = False
        buckets = crc[inside[:windows]]
        buckets %= dimension
        keys = np.repeat(np.arange(len(packed)) * dimension, lengths - 2)
        keys += buckets
        counts = np.bincount(keys, minlength=len(packed) * dimension)
        counts = counts.reshape(len(packed), dimension)
        # Squares of integer counts sum exactly in any order, so each norm is
        # the one `embed` takes.
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
        rows[packed] = counts / norms[:, np.newaxis]
        return rows

    def spec(self) -> dict[str, Any]:
        return {"kind": "hash_trigram", "dimension": self.dimension}


def embed_text(text: str, embedder: Embedder) -> np.ndarray:
    """Embed text into a unit-norm float32 vector of the embedder's dimension."""
    vector = np.array(embedder.embed(text), dtype=np.float64)
    if vector.ndim != 1 or vector.shape[0] != embedder.dimension:
        raise ValueError(
            f"embedder produced shape {vector.shape}, expected ({embedder.dimension},)"
        )
    return _unit_float32(vector)


def _unit_float32(vector: np.ndarray) -> np.ndarray:
    """A fresh contiguous float64 vector over its L2 norm, as float32.

    The norm is the one `np.linalg.norm` takes, `sqrt(x.dot(x))`. The last
    bit of a `dot` can depend on the order it sums in, so index build and
    search both scale every vector here, one at a time.
    """
    norm = math.sqrt(vector.dot(vector))
    if not 0.0 < norm < math.inf:
        raise ValueError("embedder produced a zero or non-finite vector")
    return (vector / norm).astype(np.float32)


def _crc32_table() -> np.ndarray:
    """The byte table of the CRC-32 `zlib.crc32` computes (reflected 0xEDB88320)."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC32_TABLE = _crc32_table()


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
            ordered = sorted(record_ids)
            repeated = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
            raise ValueError(f"duplicate record id {repeated!r} in index")
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
        """Embed every record's flat text and freeze the result.

        Row i holds `embed_text(records[i].flat_text, embedder)`. A
        `HashTrigramEmbedder` that keeps its own `embed` embeds in blocks.
        """
        texts = [record.flat_text for record in records]
        matrix = np.empty((len(texts), embedder.dimension), dtype=np.float32)
        if isinstance(embedder, HashTrigramEmbedder) and (
            type(embedder).embed is HashTrigramEmbedder.embed
        ):
            for first in range(0, len(texts), _BLOCK_ROWS):
                block = embedder.embed_block(texts[first : first + _BLOCK_ROWS])
                for row, vector in enumerate(block, first):
                    matrix[row] = _unit_float32(vector.astype(np.float64))
        else:
            for row, text in enumerate(texts):
                matrix[row] = embed_text(text, embedder)
        return cls(
            matrix,
            [record.record_id for record in records],
            texts,
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
        with open(directory / VECTORS_FILENAME, "wb") as blob:
            blob.write(_HEADER.pack(INDEX_MAGIC, INDEX_VERSION, self.count, self.dimension))
            blob.write(np.ascontiguousarray(self._matrix, dtype="<f4").data)
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
        payload = len(blob) - _HEADER.size
        expected = count * dim * 4
        if payload != expected:
            raise ValueError(f"{directory}: blob payload is {payload} bytes, expected {expected}")
        matrix = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(count, dim)
        if not np.isfinite(matrix).all():
            raise ValueError(f"{directory}: vector blob holds non-finite values")

        def refuse_manifest(text: str) -> ValueError:
            return ValueError(f"{directory}: manifest {text}")

        def refuse(text: str) -> ValueError:  # `where` names the record being read
            return ValueError(f"{where}: {text}")

        manifest = read_json_file(directory / MANIFEST_FILENAME)
        if not isinstance(manifest, Mapping):
            raise ValueError(f"{directory}: manifest must be a JSON object")
        records = json_value(manifest, "records", JsonKind.ARRAY, refuse_manifest, [])
        if len(records) != count:
            raise ValueError(
                f"{directory}: manifest lists {len(records)} records, blob holds {count}"
            )
        record_ids: list[str] = []
        flat_texts: list[str] = []
        sources: list[str] = []
        for position, entry in enumerate(records):
            where = f"{directory}: manifest record {position}"
            if not isinstance(entry, Mapping):
                raise ValueError(f"{where} must be an object, got {entry!r}")
            record_ids.append(json_value(entry, "record_id", JsonKind.STRING, refuse))
            flat_texts.append(json_value(entry, "flat_text", JsonKind.STRING, refuse))
            sources.append(json_value(entry, "source", JsonKind.STRING, refuse, ""))
            check_utf8(flat_texts[-1], f"{where} flat_text")
        spec = json_value(
            manifest, "embedder", JsonKind.OBJECT, refuse_manifest, {"kind": "hash_trigram"}
        )
        if (kind := spec.get("kind")) != "hash_trigram":
            raise ValueError(f"{directory}: manifest names unknown embedder kind {kind!r}")
        dimension = json_value(
            spec, "dimension", JsonKind.INTEGER,
            lambda text: ValueError(f"{directory}: manifest embedder {text}"), dim,
        )
        try:
            embedder = HashTrigramEmbedder(dimension)
        except ValueError as exc:
            raise ValueError(f"{directory}: {exc}") from None
        if embedder.dimension != dim:
            raise ValueError(
                f"{directory}: embedder dimension {embedder.dimension} does not match "
                f"the index dimension {dim}"
            )
        try:
            return cls(matrix, record_ids, flat_texts, sources, embedder)
        except ValueError as exc:  # a repeated record id
            raise ValueError(f"{directory}: {exc}") from None


"""Ingestion, embedding, and exact-search behavior of the knowledge index."""

from __future__ import annotations

import csv
import json
import logging
import random
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partspec.core import render_leaf_value
from partspec.retrieval import (
    DEFAULT_DIMENSION,
    FlatIndex,
    FormatError,
    HashTrigramEmbedder,
    PartRecord,
    RetrievedContext,
    embed_text,
    flatten_record,
    ingest_records,
)


def brute_force_search(index: FlatIndex, query: str, k: int, threshold: float):
    """Selection oracle: python-sorted exhaustive scan.

    Shares the similarity arithmetic with the index (one float32 matmul,
    cross-checked against float64 dots) and independently re-derives the
    selection: threshold filter, descending sort, id tie-break, k cut.
    """
    query_vec = embed_text(query, index.embedder)
    similarities = index._matrix @ query_vec
    reference = index._matrix.astype(np.float64) @ query_vec.astype(np.float64)
    assert np.allclose(similarities, reference, atol=1e-5)
    scored = sorted(
        ((float(similarities[row]), index._record_ids[row]) for row in range(index.count)),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return [(rid, sim) for sim, rid in scored if sim >= threshold][:k]


class TestFlattenRecord:
    def test_golden(self):
        assert flatten_record({"name": "bolt", "size": "M8"}) == "name: bolt | size: M8"

    def test_sorted_keys(self):
        assert flatten_record({"z": "1", "a": "2"}) == "a: 2 | z: 1"

    def test_nested_dotted_paths(self):
        flat = flatten_record({"dims": {"len": 10, "dia": 8}, "name": "bolt"})
        assert flat == "dims.dia: 8 | dims.len: 10 | name: bolt"

    def test_value_rendering(self):
        flat = flatten_record({"a": None, "b": True, "c": [1, 2], "d": 3.5})
        assert flat == "a:  | b: true | c: 1, 2 | d: 3.5"

    def test_array_of_objects_renders_like_model_output(self, tmp_path):
        threads = [{"Pitch": "1.25 mm", "size": "M8"}, {"size": "M10"}]
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps([{"id": "p1", "threads": threads}]), encoding="utf-8")
        (record,) = ingest_records(kb)
        # The same text a model claim for this value carries, not Python's repr.
        assert record.flat_text == "id: p1 | threads: pitch: 1.25 mm | size: M8, size: M10"
        assert record.flat_text.endswith("threads: " + render_leaf_value(threads))


class TestIngestRecords:
    def test_csv(self, tmp_path):
        kb = tmp_path / "kb.csv"
        kb.write_text(
            "id,name,material\nB1,hex bolt,steel\nB2,\"washer, flat\",brass\n",
            encoding="utf-8",
        )
        records = ingest_records(kb)
        assert [record.record_id for record in records] == ["B1", "B2"]
        assert records[0].flat_text == "id: B1 | material: steel | name: hex bolt"
        assert records[1].raw_fields["name"] == "washer, flat"
        assert records[0].source == "kb.csv:0"

    def test_csv_bad_row_skipped_and_reported(self, tmp_path, caplog):
        kb = tmp_path / "kb.csv"
        kb.write_text("id,name\nB1,bolt\nB2,washer,extra\nB3,nut\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="partspec.retrieval"):
            records = ingest_records(kb)
        assert [record.record_id for record in records] == ["B1", "B3"]
        assert any("kb.csv:1" in message for message in caplog.messages)

    def test_csv_without_header_rejected(self, tmp_path):
        kb = tmp_path / "kb.csv"
        kb.write_text("", encoding="utf-8")
        with pytest.raises(FormatError, match="header"):
            ingest_records(kb)

    def test_csv_cell_over_field_limit_rejected(self, tmp_path):
        kb = tmp_path / "kb.csv"
        cell = "x" * (csv.field_size_limit() + 1)
        kb.write_text(f"id,name\nB1,bolt\nB2,{cell}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"{re.escape(str(kb))}: line 3: field larger"):
            ingest_records(kb)

    def test_csv_not_utf8_rejected_with_file_offset(self, tmp_path):
        """The byte's offset counts from the start of the file, not from the
        chunk a streaming read was decoding."""
        kb = tmp_path / "kb.csv"
        body = b"id,name\n" + b"B1,bolt\n" * 5000
        kb.write_bytes(body + b"B2,\xff\n")
        message = f"{kb}: 'utf-8' codec can't decode byte 0xff in position {len(body) + 3}"
        with pytest.raises(FormatError, match=re.escape(message)):
            ingest_records(kb)

    def test_csv_byte_order_mark_is_dropped(self, tmp_path):
        """A spreadsheet's "CSV UTF-8" export starts with one; it is not part
        of the first column's name."""
        kb = tmp_path / "kb.csv"
        kb.write_bytes(b"\xef\xbb\xbfid,name,thread\nB1,hex bolt,M8\nB2,nut,M10\n")
        records = ingest_records(kb)
        assert [record.record_id for record in records] == ["B1", "B2"]
        assert records[0].flat_text == "id: B1 | name: hex bolt | thread: M8"

    def test_json_byte_order_mark_rejected(self, tmp_path):
        kb = tmp_path / "kb.json"
        kb.write_bytes(b'\xef\xbb\xbf[{"id": "B1"}]')
        with pytest.raises(FormatError, match=rf"{re.escape(str(kb))}: invalid JSON: Unexpected"):
            ingest_records(kb)

    def test_csv_cells_keep_the_files_line_ends(self, tmp_path):
        kb = tmp_path / "kb.csv"
        kb.write_bytes(b'id,note\r\nB1,"two\r\nlines"\r\nB2,"lone\rcr"\nB3,"lf\nonly"\r\n')
        records = ingest_records(kb)
        assert [record.flat_text for record in records] == [
            "id: B1 | note: two\r\nlines",
            "id: B2 | note: lone\rcr",
            "id: B3 | note: lf\nonly",
        ]

    def test_missing_id_gets_ordinal(self, tmp_path):
        kb = tmp_path / "kb.csv"
        kb.write_text("name\nbolt\nnut\n", encoding="utf-8")
        records = ingest_records(kb)
        assert [record.record_id for record in records] == ["kb.csv:0", "kb.csv:1"]

    def test_duplicate_ids_skipped_and_reported(self, tmp_path, caplog):
        kb = tmp_path / "kb.csv"
        kb.write_text("id,name\nB1,bolt\nB1,washer\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="partspec.retrieval"):
            records = ingest_records(kb)
        assert len(records) == 1
        assert any("duplicate record id" in message for message in caplog.messages)

    def test_json(self, tmp_path):
        kb = tmp_path / "kb.json"
        kb.write_text(
            json.dumps([{"id": "B1", "name": "bolt", "dims": {"len": 20}}]), encoding="utf-8"
        )
        records = ingest_records(kb)
        assert records[0].flat_text == "dims.len: 20 | id: B1 | name: bolt"

    def test_json_non_array_rejected(self, tmp_path):
        kb = tmp_path / "kb.json"
        kb.write_text('{"id": "B1"}', encoding="utf-8")
        with pytest.raises(FormatError, match="array"):
            ingest_records(kb)

    def test_json_bad_element_skipped(self, tmp_path, caplog):
        kb = tmp_path / "kb.json"
        # JSON "\\ud800" decodes to a lone surrogate, which UTF-8 cannot encode.
        kb.write_text('[{"id": "B1"}, 42, {"id": "B2"}, {"id": "B3", "note": "\\ud800"}]',
                      encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="partspec.retrieval"):
            records = ingest_records(kb)
        assert [record.record_id for record in records] == ["B1", "B2"]
        assert any("kb.json:1" in message for message in caplog.messages)
        assert any("kb.json:3" in message and "UTF-8" in message for message in caplog.messages)

    def test_json_ids_read_as_strings_or_skipped(self, tmp_path, caplog):
        kb = tmp_path / "kb.json"
        ids = ["B1", 7, True, {"a": 1}, None, "", 2.5, ["B2"], -3]
        kb.write_text(json.dumps([{"id": value, "name": "bolt"} for value in ids]),
                      encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="partspec.retrieval"):
            records = ingest_records(kb)
        # A string is the id and an integer its decimal digits; null and ""
        # fall back to the record's location.
        assert [record.record_id for record in records] == [
            "B1", "7", "kb.json:4", "kb.json:5", "-3",
        ]
        assert caplog.messages == [
            "kb.json:2: id must be a string or an integer, got True; skipped",
            "kb.json:3: id must be a string or an integer, got {'a': 1}; skipped",
            "kb.json:6: id must be a string or an integer, got 2.5; skipped",
            "kb.json:7: id must be a string or an integer, got ['B2']; skipped",
        ]

    def test_invalid_json_rejected(self, tmp_path):
        kb = tmp_path / "kb.json"
        kb.write_text("[{", encoding="utf-8")
        with pytest.raises(FormatError, match="invalid JSON"):
            ingest_records(kb)

    def test_unknown_suffix_rejected(self, tmp_path):
        kb = tmp_path / "kb.xml"
        kb.write_text("<kb/>", encoding="utf-8")
        with pytest.raises(FormatError, match="cannot infer"):
            ingest_records(kb)

    def test_unsupported_format_rejected(self, tmp_path):
        kb = tmp_path / "kb.json"
        kb.write_text("[]", encoding="utf-8")
        with pytest.raises(FormatError) as refused:
            ingest_records(kb, "xml")
        assert str(refused.value) == f"{kb}: unsupported format 'xml'"

    def test_explicit_format_overrides_suffix(self, tmp_path):
        kb = tmp_path / "kb.txt"
        kb.write_text("id,name\nB1,bolt\n", encoding="utf-8")
        records = ingest_records(kb, format="csv")
        assert len(records) == 1


class TestHashTrigramEmbedder:
    def test_deterministic(self):
        embedder = HashTrigramEmbedder(64)
        first = embedder.embed("M8 hex bolt, steel")
        second = embedder.embed("M8 hex bolt, steel")
        assert np.array_equal(first, second)

    def test_unit_norm(self):
        embedder = HashTrigramEmbedder()
        vector = embedder.embed("stainless steel washer")
        assert vector.shape == (DEFAULT_DIMENSION,)
        assert abs(float(np.linalg.norm(vector)) - 1.0) < 1e-6

    def test_empty_text_basis_vector(self):
        embedder = HashTrigramEmbedder(16)
        vector = embedder.embed("")
        expected = np.zeros(16, dtype=np.float32)
        expected[0] = 1.0
        assert np.array_equal(vector, expected)

    def test_single_character_nonzero(self):
        embedder = HashTrigramEmbedder(16)
        assert float(np.linalg.norm(embedder.embed("x"))) > 0

    @pytest.mark.parametrize("dimension", [2.5, True, "5"])
    def test_dimension_must_be_an_integer(self, dimension):
        message = f"dimension must be an integer, got {dimension!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            HashTrigramEmbedder(dimension)

    def test_different_texts_differ(self):
        embedder = HashTrigramEmbedder()
        assert not np.array_equal(embedder.embed("hex bolt"), embedder.embed("ball bearing"))

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.text(st.characters(exclude_categories=("Cs",))),
        dimension=st.sampled_from([1, 7, 48, 384]),
    )
    @example(text="", dimension=7)
    @example(text="é", dimension=48)
    @example(text="ß", dimension=384)
    @example(text="M8 × 40", dimension=384)
    @example(text="東京", dimension=7)
    def test_matches_trigram_definition(self, text, dimension):
        """Any text, ASCII or not, embeds as the documented definition does:
        crc32 of each 3-character window of the '#'-padded text as UTF-8,
        modulo the dimension, counted and L2-normalized."""
        if text:
            padded = f"##{text}##"
            windows = (padded[i : i + 3].encode("utf-8") for i in range(len(padded) - 2))
            counts = np.bincount([zlib.crc32(w) % dimension for w in windows], minlength=dimension)
            expected = counts / np.linalg.norm(counts)
        else:
            expected = np.eye(dimension)[0]
        actual = HashTrigramEmbedder(dimension).embed(text)
        assert np.array_equal(actual, expected.astype(np.float32))


class _FixedEmbedder:
    def __init__(self, dimension, vector):
        self.dimension = dimension
        self._vector = np.asarray(vector)

    def embed(self, text):
        return self._vector


class TestEmbedText:
    def test_normalizes(self):
        embedder = _FixedEmbedder(3, [3.0, 0.0, 4.0])
        vector = embed_text("anything", embedder)
        assert vector.dtype == np.float32
        assert np.allclose(vector, [0.6, 0.0, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            embed_text("anything", _FixedEmbedder(3, [0.0, 0.0, 0.0]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            embed_text("anything", _FixedEmbedder(4, [1.0, 0.0]))


class _SuffixedEmbedder(HashTrigramEmbedder):
    """Hashes as its base class does, but embeds other text."""

    def embed(self, text):
        return super().embed(text + "!")


_ASCII = st.characters(max_codepoint=127)
_BUILD_TEXTS = st.one_of(
    st.just(""),
    st.text(_ASCII, min_size=1, max_size=1),
    st.text(_ASCII, min_size=2, max_size=40),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=40),
    st.text(_ASCII, min_size=1, max_size=9).map(lambda text: text * 300),
)


class TestBlockBuild:
    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(_BUILD_TEXTS, min_size=1, max_size=12),
        count=st.one_of(
            st.integers(min_value=1, max_value=40),
            st.sampled_from([1023, 1024, 1025, 2049]),
        ),
        dimension=st.one_of(st.integers(min_value=1, max_value=512), st.just(DEFAULT_DIMENSION)),
        kind=st.sampled_from([HashTrigramEmbedder, _SuffixedEmbedder]),
    )
    @example(texts=["x"], count=1, dimension=1, kind=HashTrigramEmbedder)
    @example(texts=["", "é", "hex bolt"], count=1025, dimension=384, kind=HashTrigramEmbedder)
    def test_matrix_is_embed_text_of_each_record(self, texts, count, dimension, kind):
        """Blocks of records, on both sides of the block size, hold the bytes
        `embed_text` gives each record alone; an embedder that overrides
        `embed` keeps its own vectors."""
        records = [PartRecord(f"r{i}", texts[i % len(texts)], "s") for i in range(count)]
        embedder = kind(dimension)
        index = FlatIndex.build(records, embedder)
        expected = np.stack([embed_text(record.flat_text, embedder) for record in records])
        assert index._matrix.dtype == np.float32
        assert index._matrix.tobytes() == expected.tobytes()
        if kind is HashTrigramEmbedder:
            rows = np.stack([embedder.embed(text) for text in texts])
            assert embedder.embed_block(texts).tobytes() == rows.tobytes()


def _corpus(count: int, seed: int = 7) -> list[PartRecord]:
    rng = random.Random(seed)
    nouns = ["bolt", "bearing", "motor", "valve", "sensor", "washer", "coupling", "gear"]
    adjectives = ["steel", "brass", "sealed", "flanged", "hex", "miniature", "heavy-duty"]
    records = []
    for i in range(count):
        text = (
            f"{rng.choice(adjectives)} {rng.choice(nouns)} size {rng.randint(1, 40)} "
            f"rated {rng.randint(5, 500)}"
        )
        records.append(PartRecord(f"r{i:04d}", text, f"gen:{i}"))
    return records


class TestFlatIndexSearch:
    def test_matches_brute_force_oracle(self):
        index = FlatIndex.build(_corpus(120), HashTrigramEmbedder(96))
        for query in ["steel bolt size 8", "sealed bearing", "valve rated 250", "gear"]:
            for k in (1, 3, 10):
                for threshold in (0.0, 0.3, 0.8):
                    context = index.search(query, k, threshold)
                    expected = brute_force_search(index, query, k, threshold)
                    got = [(hit.record_id, hit.similarity) for hit in context.hits]
                    assert got == expected

    def test_tie_broken_by_record_id(self):
        # Identical texts embed identically, forcing exact similarity ties.
        records = [PartRecord(rid, "hex bolt steel", f"s:{rid}") for rid in ("z9", "a1", "m5")]
        index = FlatIndex.build(records, HashTrigramEmbedder(32))
        context = index.search("hex bolt steel", 3, 0.0)
        assert [hit.record_id for hit in context.hits] == ["a1", "m5", "z9"]

    def test_threshold_filters(self):
        index = FlatIndex.build(_corpus(50), HashTrigramEmbedder(64))
        context = index.search("steel bolt", 50, 0.99)
        assert all(hit.similarity >= 0.99 for hit in context.hits)

    def test_k_zero(self):
        index = FlatIndex.build(_corpus(10), HashTrigramEmbedder(32))
        assert index.search("bolt", 0, 0.0).hits == ()

    def test_k_negative_rejected(self):
        index = FlatIndex.build(_corpus(10), HashTrigramEmbedder(32))
        with pytest.raises(ValueError, match=">= 0"):
            index.search("bolt", -1, 0.0)

    def test_k_larger_than_corpus(self):
        index = FlatIndex.build(_corpus(5), HashTrigramEmbedder(32))
        context = index.search("bolt", 50, -1.0)
        assert len(context.hits) == 5

    def test_empty_index_warns_and_returns_empty(self, caplog):
        index = FlatIndex.build([], HashTrigramEmbedder(32))
        with caplog.at_level(logging.WARNING, logger="partspec.retrieval"):
            context = index.search("bolt", 5, 0.0)
        assert context.hits == ()
        assert context.k_requested == 5
        assert any("IndexEmpty" in message for message in caplog.messages)

    def test_snippet_is_flat_text(self):
        records = [PartRecord("r1", "hex bolt steel", "s:1")]
        index = FlatIndex.build(records, HashTrigramEmbedder(32))
        context = index.search("hex bolt", 1, 0.0)
        assert context.hits[0].snippet == "hex bolt steel"

    def test_duplicate_ids_rejected(self):
        records = [PartRecord("r1", "a", "s"), PartRecord("r1", "b", "s")]
        with pytest.raises(ValueError, match="duplicate"):
            FlatIndex.build(records, HashTrigramEmbedder(16))

    @pytest.mark.parametrize(
        "shape, rows, message",
        [((3,), 3, "matrix must be 2-D"), ((2, 4), 1, "metadata length does not match matrix rows")],
        ids=["one_dimensional_matrix", "metadata_length_not_rows"],
    )
    def test_bad_matrix_shape_rejected(self, shape, rows, message):
        ids = [f"r{row}" for row in range(rows)]
        with pytest.raises(ValueError) as refused:
            FlatIndex(np.zeros(shape, np.float32), ids, ids, ids, HashTrigramEmbedder(4))
        assert str(refused.value) == message

    def test_search_is_deterministic(self):
        index = FlatIndex.build(_corpus(60), HashTrigramEmbedder(64))
        first = index.search("sealed bearing size 12", 10, 0.0)
        second = index.search("sealed bearing size 12", 10, 0.0)
        assert first == second

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=0, max_value=12),
        threshold=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
    def test_oracle_property(self, seed, k, threshold):
        rng = random.Random(seed)
        index = FlatIndex.build(_corpus(25, seed=seed), HashTrigramEmbedder(48))
        query = " ".join(rng.choice(["steel", "bolt", "valve", "gear", "size 9"]) for _ in range(3))
        context = index.search(query, k, threshold)
        expected = brute_force_search(index, query, k, threshold)
        assert [(hit.record_id, hit.similarity) for hit in context.hits] == expected

    @settings(max_examples=80, deadline=None)
    @given(
        texts=st.lists(
            st.sampled_from(["hex bolt steel", "hex bolt", "brass valve", "gear 12", "g"]),
            min_size=1,
            max_size=14,
        ),
        data=st.data(),
    )
    def test_ties_at_the_kth_similarity_keep_the_oracle_order(self, texts, data):
        # Repeated texts embed identically, so their similarities tie wherever
        # the k-th hit falls; the ids are drawn so id order is not row order.
        ids = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=len(texts),
                                 max_size=len(texts), unique=True))
        index = FlatIndex.build(
            [PartRecord(rid, text, "s") for rid, text in zip(ids, texts)], HashTrigramEmbedder(32)
        )
        query = data.draw(st.sampled_from([*texts, "bolt"]))
        k = data.draw(st.integers(min_value=0, max_value=len(texts) + 2))
        threshold = data.draw(st.one_of(st.just(-1.0), st.floats(min_value=-1.0, max_value=1.0)))
        context = index.search(query, k, threshold)
        expected = brute_force_search(index, query, k, threshold)
        assert [(hit.record_id, hit.similarity) for hit in context.hits] == expected


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        index = FlatIndex.build(_corpus(40), HashTrigramEmbedder(64))
        first_dir = tmp_path / "first"
        index.save(first_dir)
        reloaded = FlatIndex.load(first_dir)
        second_dir = tmp_path / "second"
        reloaded.save(second_dir)
        assert (first_dir / "vectors.sfix").read_bytes() == (second_dir / "vectors.sfix").read_bytes()
        assert (first_dir / "manifest.json").read_bytes() == (second_dir / "manifest.json").read_bytes()

    def test_header_layout(self, tmp_path):
        index = FlatIndex.build(_corpus(3), HashTrigramEmbedder(16))
        index.save(tmp_path)
        blob = (tmp_path / "vectors.sfix").read_bytes()
        magic, version, count, dim = struct.unpack_from("<4sIII", blob)
        assert magic == b"SFIX"
        assert version == 1
        assert (count, dim) == (3, 16)
        assert len(blob) == 16 + count * dim * 4

    def test_searches_identical_after_reload(self, tmp_path):
        index = FlatIndex.build(_corpus(40), HashTrigramEmbedder(64))
        index.save(tmp_path)
        reloaded = FlatIndex.load(tmp_path)
        assert index.search("steel bolt size 4", 8, 0.1) == reloaded.search(
            "steel bolt size 4", 8, 0.1
        )

    def test_indented_manifest_still_loads(self, tmp_path):
        index = FlatIndex.build(_corpus(40), HashTrigramEmbedder(64))
        first_dir, second_dir = tmp_path / "first", tmp_path / "second"
        index.save(first_dir)
        compact = (first_dir / "manifest.json").read_text(encoding="utf-8")
        manifest = json.loads(compact)
        assert compact == json.dumps(manifest, sort_keys=True) + "\n"
        # Indexes saved before the manifest was written compactly.
        (first_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        reloaded = FlatIndex.load(first_dir)
        assert reloaded.search("steel bolt size 4", 8, 0.1) == index.search(
            "steel bolt size 4", 8, 0.1
        )
        reloaded.save(second_dir)
        assert (second_dir / "manifest.json").read_text(encoding="utf-8") == compact

    def test_bad_magic_rejected(self, tmp_path):
        index = FlatIndex.build(_corpus(2), HashTrigramEmbedder(16))
        index.save(tmp_path)
        blob = (tmp_path / "vectors.sfix").read_bytes()
        (tmp_path / "vectors.sfix").write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="magic"):
            FlatIndex.load(tmp_path)

    def test_truncated_blob_rejected(self, tmp_path):
        index = FlatIndex.build(_corpus(2), HashTrigramEmbedder(16))
        index.save(tmp_path)
        blob = (tmp_path / "vectors.sfix").read_bytes()
        (tmp_path / "vectors.sfix").write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="payload"):
            FlatIndex.load(tmp_path)

    def test_manifest_count_mismatch_rejected(self, tmp_path):
        index = FlatIndex.build(_corpus(2), HashTrigramEmbedder(16))
        index.save(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        manifest["records"].pop()
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="manifest lists"):
            FlatIndex.load(tmp_path)

    def test_unsupported_version_rejected(self, tmp_path):
        index = FlatIndex.build(_corpus(2), HashTrigramEmbedder(16))
        index.save(tmp_path)
        blob = bytearray((tmp_path / "vectors.sfix").read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        (tmp_path / "vectors.sfix").write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            FlatIndex.load(tmp_path)

    @pytest.mark.parametrize(
        "defect",
        [
            "manifest_not_object",
            "records_not_array",
            "record_without_id",
            "embedder_dimension_mismatch",
            "non_finite_vector",
            "embedder_not_object",
            "dimension_list",
            "dimension_null",
            "dimension_zero",
        ],
    )
    def test_broken_index_rejected(self, tmp_path, defect):
        FlatIndex.build(_corpus(2), HashTrigramEmbedder(16)).save(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if defect == "manifest_not_object":
            manifest = [manifest]
        elif defect == "records_not_array":
            manifest["records"] = {r["record_id"]: r for r in manifest["records"]}
        elif defect == "record_without_id":
            del manifest["records"][0]["record_id"]
        elif defect == "embedder_dimension_mismatch":
            manifest["embedder"]["dimension"] = 32
        elif defect == "non_finite_vector":
            blob = bytearray((tmp_path / "vectors.sfix").read_bytes())
            blob[16:20] = struct.pack("<f", float("nan"))
            (tmp_path / "vectors.sfix").write_bytes(bytes(blob))
        elif defect == "embedder_not_object":
            manifest["embedder"] = [manifest["embedder"]]
        elif defect == "dimension_list":
            manifest["embedder"]["dimension"] = [16]
        elif defect == "dimension_null":
            manifest["embedder"]["dimension"] = None
        elif defect == "dimension_zero":
            # Header and embedder agree on 0, so only the embedder can refuse it.
            blob = (tmp_path / "vectors.sfix").read_bytes()
            (tmp_path / "vectors.sfix").write_bytes(blob[:12] + struct.pack("<I", 0))
            manifest["embedder"]["dimension"] = 0
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(str(tmp_path))):
            FlatIndex.load(tmp_path)

    def test_non_string_source_rejected(self, tmp_path):
        FlatIndex.build(_corpus(2), HashTrigramEmbedder(16)).save(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["records"][1]["source"] = 5
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        message = f"{tmp_path}: manifest record 1: source must be a string, got 5"
        with pytest.raises(ValueError, match=re.escape(message)):
            FlatIndex.load(tmp_path)

    def test_repeated_record_id_rejected(self, tmp_path):
        FlatIndex.build(_corpus(3), HashTrigramEmbedder(16)).save(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["records"][2]["record_id"] = "r0000"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        message = f"{tmp_path}: duplicate record id 'r0000' in index"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FlatIndex.load(tmp_path)

    def test_unknown_embedder_kind_rejected(self, tmp_path):
        FlatIndex.build(_corpus(2), HashTrigramEmbedder(16)).save(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["embedder"]["kind"] = "sentence_transformer"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        message = f"{tmp_path}: manifest names unknown embedder kind 'sentence_transformer'"
        with pytest.raises(ValueError, match=re.escape(message)):
            FlatIndex.load(tmp_path)

    def test_lone_surrogate_flat_text_rejected(self, tmp_path):
        FlatIndex.build(_corpus(2), HashTrigramEmbedder(16)).save(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["records"][1]["flat_text"] = "steel bolt \ud800"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        message = f"{tmp_path}: manifest record 1 flat_text cannot be encoded as UTF-8"
        with pytest.raises(ValueError, match=re.escape(message)):
            FlatIndex.load(tmp_path)

    def test_embedder_without_spec_refused_before_writing(self, tmp_path):
        class _SpeclessEmbedder:
            dimension = 16

            def embed(self, text):
                return HashTrigramEmbedder(16).embed(text.upper())

        index = FlatIndex.build(_corpus(4), _SpeclessEmbedder())
        with pytest.raises(ValueError, match="_SpeclessEmbedder.*has no spec"):
            index.save(tmp_path / "index")
        # Saved, it would load with a HashTrigramEmbedder and search with it.
        assert not (tmp_path / "index").exists()

    def test_embedder_restored_from_manifest(self, tmp_path):
        index = FlatIndex.build(_corpus(4), HashTrigramEmbedder(32))
        index.save(tmp_path)
        reloaded = FlatIndex.load(tmp_path)
        assert isinstance(reloaded.embedder, HashTrigramEmbedder)
        assert reloaded.embedder.dimension == 32

    def test_empty_index_round_trip(self, tmp_path):
        index = FlatIndex.build([], HashTrigramEmbedder(16))
        index.save(tmp_path)
        reloaded = FlatIndex.load(tmp_path)
        assert reloaded.count == 0
        assert reloaded.search("bolt", 3, 0.0).hits == ()


class TestRetrievedContext:
    def test_to_dict(self):
        context = RetrievedContext.empty("query", 5, 0.25)
        assert context.to_dict() == {
            "hits": [],
            "query_text": "query",
            "k_requested": 5,
            "threshold_applied": 0.25,
        }

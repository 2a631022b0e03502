"""Command-line surface, exercised in-process through run_command."""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial, reduce, wraps
from operator import getitem
from pathlib import Path

import pytest
from conftest import JSON_VALUES, ScriptedHandler, finishes_within
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from partspec import cli, gateway, orchestrator, retrieval, synthesis
from partspec.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, run_command
from partspec.core import PartDescription, SpecSchema
from partspec.metrics import load_system_run
from partspec.orchestrator import EnsembleConfig, run_pipeline
from partspec.retrieval import FlatIndex


def _extract_args(corpus, *extra):
    return [
        "extract",
        "--input", str(corpus.descriptions_path),
        "--config", str(corpus.config_path),
        "--index", str(corpus.index_dir),
        *extra,
    ]


class TestIndexBuild:
    def test_builds_and_reports_summary(self, corpus, tmp_path):
        out_dir = tmp_path / "index"
        outcome = run_command(
            ["index", "build", "--kb", str(corpus.kb_path), "--out", str(out_dir)]
        )
        assert outcome.exit_code == EXIT_OK
        summary = json.loads(outcome.stdout)
        assert summary == {"dimension": 384, "indexed": 30, "out": str(out_dir)}
        assert FlatIndex.load(out_dir).count == 30

    def test_dimension_flag(self, corpus, tmp_path):
        out_dir = tmp_path / "small"
        outcome = run_command(
            [
                "index", "build",
                "--kb", str(corpus.kb_path),
                "--out", str(out_dir),
                "--dimension", "128",
            ]
        )
        assert outcome.exit_code == EXIT_OK
        assert json.loads(outcome.stdout)["dimension"] == 128

    def test_zero_dimension_is_usage_error(self, corpus, tmp_path):
        outcome = run_command(
            [
                "index", "build",
                "--kb", str(corpus.kb_path),
                "--out", str(tmp_path / "zero"),
                "--dimension", "0",
            ]
        )
        assert outcome.exit_code == EXIT_USAGE
        assert "embedding dimension must be at least 1, got 0" in outcome.stderr
        assert outcome.stdout == ""

    def test_missing_kb_is_usage_error(self, tmp_path):
        outcome = run_command(
            ["index", "build", "--kb", str(tmp_path / "nope.json"), "--out", str(tmp_path / "i")]
        )
        assert outcome.exit_code == EXIT_USAGE
        assert "error:" in outcome.stderr

    def test_unknown_suffix_is_usage_error(self, tmp_path):
        kb = tmp_path / "kb.xml"
        kb.write_text("<parts/>", encoding="utf-8")
        outcome = run_command(
            ["index", "build", "--kb", str(kb), "--out", str(tmp_path / "i")]
        )
        assert outcome.exit_code == EXIT_USAGE
        assert "cannot infer format" in outcome.stderr


class TestExtract:
    def test_stdout_is_pure_json(self, corpus):
        outcome = run_command(_extract_args(corpus))
        assert outcome.exit_code == EXIT_OK
        documents = json.loads(outcome.stdout)
        assert len(documents) == 24
        assert all("fields" in document for document in documents)
        assert [d["description_id"] for d in documents] == [
            case.description_id for case in corpus.cases
        ]

    def test_out_file_keeps_stdout_empty(self, corpus, tmp_path):
        out_path = tmp_path / "specs.json"
        outcome = run_command(_extract_args(corpus, "--out", str(out_path)))
        assert outcome.exit_code == EXIT_OK
        assert outcome.stdout == ""
        assert f"wrote 24 documents to {out_path}" in outcome.stderr
        documents = json.loads(out_path.read_text(encoding="utf-8"))
        assert len(documents) == 24

    def test_runs_out_is_loadable(self, corpus, tmp_path):
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        run_path = runs_dir / "ensemble.json"
        outcome = run_command(
            _extract_args(corpus, "--runs-out", str(run_path), "--system-id", "RAGsemble")
        )
        assert outcome.exit_code == EXIT_OK
        run = load_system_run(run_path)
        assert run.system_id == "RAGsemble"
        assert len(run.descriptions) == 24
        by_id = {d.description_id: d for d in run.descriptions}
        # Five extraction outputs everywhere; research adds two more.
        assert len(by_id["d001"].outputs) == 5
        assert len(by_id["d003"].outputs) == 7
        assert all(d.final_fields for d in run.descriptions)

    def test_run_file_entries_are_pipeline_records(self, corpus, tmp_path):
        run_path = tmp_path / "run.json"
        outcome = run_command(_extract_args(corpus, "--runs-out", str(run_path)))
        assert outcome.exit_code == EXIT_OK
        entries = [json.loads(result.to_json()) for result in corpus.results]
        run = json.loads(run_path.read_text(encoding="utf-8"))
        assert run == {"system_id": "ensemble", "descriptions": entries}
        # One line, sorted keys, and extraction results before research ones.
        assert run_path.read_text(encoding="utf-8") == json.dumps(run, sort_keys=True) + "\n"
        phases = [output["phase"] for output in run["descriptions"][2]["outputs"]]
        assert phases == ["extraction"] * 5 + ["research"] * 2

    def test_out_paths_create_parent_dirs(self, corpus, tmp_path):
        out_path = tmp_path / "deep" / "specs.json"
        run_path = tmp_path / "runs" / "nested" / "ensemble.json"
        outcome = run_command(
            _extract_args(corpus, "--out", str(out_path), "--runs-out", str(run_path))
        )
        assert outcome.exit_code == EXIT_OK
        assert len(json.loads(out_path.read_text(encoding="utf-8"))) == 24
        assert load_system_run(run_path).descriptions

    def test_stdin_text_lines(self, corpus):
        text = corpus.cases[0].text
        outcome = run_command(
            _extract_args(corpus)[:2] + ["-"] + _extract_args(corpus)[3:],
            stdin=io.StringIO(text + "\n"),
        )
        assert outcome.exit_code == EXIT_OK
        documents = json.loads(outcome.stdout)
        assert len(documents) == 1
        assert documents[0]["description_id"] == "line-1"
        assert documents[0]["fields"]["part_name"]["value"] == corpus.cases[0].part_name

    def test_stdin_line_with_lone_surrogate_is_usage_error(self, corpus):
        # A stdin read with surrogateescape turns an invalid byte into one.
        outcome = run_command(
            _extract_args(corpus)[:2] + ["-"] + _extract_args(corpus)[3:],
            stdin=io.StringIO("M4 washer\nM6 nut \udcff\n"),
        )
        assert outcome.exit_code == EXIT_USAGE
        assert "input line 2: text cannot be encoded as UTF-8" in outcome.stderr
        assert outcome.stdout == ""

    def test_text_file_input(self, corpus, tmp_path):
        listing = tmp_path / "parts.txt"
        listing.write_text(
            corpus.cases[0].text + "\n\n" + corpus.cases[1].text + "\n", encoding="utf-8"
        )
        outcome = run_command(
            _extract_args(corpus)[:2] + [str(listing)] + _extract_args(corpus)[3:]
        )
        assert outcome.exit_code == EXIT_OK
        documents = json.loads(outcome.stdout)
        assert [d["description_id"] for d in documents] == ["line-1", "line-2"]

    def test_text_file_after_byte_order_mark_reads_as_without(self, corpus, tmp_path):
        outputs = []
        for mark in ("", "\ufeff"):
            listing = tmp_path / f"parts-{len(mark)}.txt"
            listing.write_text(
                mark + corpus.cases[0].text + "\n" + corpus.cases[1].text + "\n", encoding="utf-8"
            )
            outcome = run_command([*_extract_args(corpus), "--input", str(listing)])
            assert outcome.exit_code == EXIT_OK
            outputs.append(outcome.stdout)
        assert outputs[0] == outputs[1]

    def test_empty_input_is_usage_error(self, corpus, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n", encoding="utf-8")
        outcome = run_command(
            _extract_args(corpus)[:2] + [str(empty)] + _extract_args(corpus)[3:]
        )
        assert outcome.exit_code == EXIT_USAGE
        assert "no descriptions" in outcome.stderr

    def test_malformed_json_input_item(self, corpus, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"text": "missing id"}]), encoding="utf-8")
        outcome = run_command(
            _extract_args(corpus)[:2] + [str(bad)] + _extract_args(corpus)[3:]
        )
        assert outcome.exit_code == EXIT_USAGE
        assert "id and text" in outcome.stderr

    @pytest.mark.parametrize(
        "item, message",
        [({"id": "d001", "text": "M4 washer"}, "repeats description id 'd001'"),
         ({"id": "x1", "text": None}, "id and text"),
         ({"id": None, "text": "M4 washer"}, "item 24: id must be a string"),
         ({"id": {"a": 1}, "text": "M4 washer"}, "item 24: id must be a string"),
         ({"id": "x1", "text": "M4 washer", "category": 5}, "category must be a string or null"),
         ({"id": "x1", "text": "M4 washer \ud800"}, "input item 24: text cannot be encoded")],
        ids=["duplicate_id", "null_text", "null_id", "object_id", "number_category",
             "lone_surrogate_text"],
    )
    def test_bad_input_item_is_usage_error(self, corpus, tmp_path, item, message):
        items = json.loads(corpus.descriptions_path.read_text(encoding="utf-8"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([*items, item]), encoding="utf-8")
        outcome = run_command(
            _extract_args(corpus)[:2] + [str(bad)] + _extract_args(corpus)[3:]
        )
        assert outcome.exit_code == EXIT_USAGE
        assert message in outcome.stderr
        assert outcome.stdout == ""

    def test_unknown_config_key_is_usage_error(self, corpus, tmp_path):
        data = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        data["api_key"] = "sk-live-123"
        bad_config = tmp_path / "config.json"
        bad_config.write_text(json.dumps(data), encoding="utf-8")
        outcome = run_command(
            _extract_args(corpus)[:4] + [str(bad_config)] + _extract_args(corpus)[5:]
        )
        assert outcome.exit_code == EXIT_USAGE
        assert "unknown config keys" in outcome.stderr

    def test_quorum_failure_everywhere_is_runtime_error(self, corpus):
        args = _extract_args(corpus)
        args[args.index("--config") + 1] = str(corpus.empty_config_path)
        outcome = run_command(args)
        assert outcome.exit_code == EXIT_RUNTIME
        documents = json.loads(outcome.stdout)
        assert all(d["error"]["kind"] == "quorum_not_met" for d in documents)
        assert "24 of 24 descriptions did not reach quorum" in outcome.stderr

    def test_env_mapping_reaches_http_provider(self, corpus, tmp_path, http_server):
        config = {
            "roster": [
                {
                    "model_id": "live",
                    "kind": "http_openai_compatible",
                    "endpoint": http_server,
                    "credentials_env": "PART_KEY",
                    "max_retries": 0,
                    "role_tags": ["extraction", "synthesis"],
                }
            ],
            "synthesis_model": "live",
            "min_quorum": 1,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        input_path = tmp_path / "input.txt"
        input_path.write_text("M8 hex bolt\n", encoding="utf-8")
        args = [
            "extract",
            "--input", str(input_path),
            "--config", str(config_path),
            "--index", str(corpus.index_dir),
        ]
        # Without the key the provider fails auth before any request is sent.
        assert run_command(args, env={}).exit_code == EXIT_RUNTIME
        assert ScriptedHandler.seen_auth == []
        # The stub's reply lacks required fields, so quorum still fails.
        outcome = run_command(args, env={"PART_KEY": "sekrit"})
        assert outcome.exit_code == EXIT_RUNTIME
        assert ScriptedHandler.seen_auth == ["Bearer sekrit"]

    def test_custom_schema_changes_validation(self, corpus, tmp_path):
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            json.dumps({"required_fields": ["part_name", "serial_number"]}),
            encoding="utf-8",
        )
        outcome = run_command(_extract_args(corpus, "--schema", str(schema_path)))
        # No model ever reports a serial number, so nothing reaches quorum.
        assert outcome.exit_code == EXIT_RUNTIME
        documents = json.loads(outcome.stdout)
        assert all("error" in document for document in documents)

    @pytest.mark.parametrize(
        "document, message",
        [(5, "schema must be a JSON object"),
         (None, "schema must be a JSON object"),
         ({"required_fields": ["part_name"], "field_kinds": {"part_name": []}},
          "unknown field kind [] for 'part_name'"),
         ({"required_fields": ["part_name", 5]},
          "required_fields must be an array of field names")],
        ids=["number", "null", "list_kind", "number_field_name"],
    )
    def test_bad_schema_is_usage_error(self, corpus, tmp_path, document, message):
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(document), encoding="utf-8")
        outcome = run_command(_extract_args(corpus, "--schema", str(schema_path)))
        assert outcome.exit_code == EXIT_USAGE
        assert message in outcome.stderr
        assert outcome.stdout == ""

    def test_end_to_end_matches_frozen_golden(self, corpus, tmp_path, request):
        """index build then extract reproduces the frozen stdout bytes."""
        index_dir = tmp_path / "cli-index"
        built = run_command(
            ["index", "build", "--kb", str(corpus.kb_path), "--out", str(index_dir)]
        )
        assert built.exit_code == EXIT_OK
        outcome = run_command(
            _extract_args(corpus)[:6] + [str(index_dir)]
        )
        assert outcome.exit_code == EXIT_OK
        golden = request.path.parent / "data" / "extract_golden.json"
        assert outcome.stdout == golden.read_text(encoding="utf-8")


# Malformed eval input -> text the error message must contain.
_EVAL_DEFECTS = {
    "description_not_object": "run.json: description 0",
    "missing_description_id": "run.json: description 0",
    "unknown_failure_key": "run.json: description 0",
    "manifest_not_json": "manifest.json",
    "non_integer_detail_max": "many",
    "manifest_entry_not_object": "manifest entry 'd001'",
    "missing_expected_fields": "manifest entry 'd001'",
    "overflowing_detail_max": "manifest entry 'd001'",
    "fractional_detail_max": "manifest entry 'd001': detail_max must be an integer, got 2.9",
    "boolean_detail_max": "manifest entry 'd001': detail_max must be an integer, got True",
    "string_number_detail_max": "manifest entry 'd001': detail_max must be an integer, got '3'",
    "half_detail_max": "manifest entry 'd001': detail_max must be an integer, got 0.5",
    "descriptions_not_array": "run.json: descriptions",
    "final_not_object": "run.json: description 0: final",
    "string_expected_fields": "manifest entry 'd001': expected_fields",
    "string_allowed_attributes": "manifest entry 'd001': allowed_attributes",
    "object_expected_fields": "manifest entry 'd001': expected_fields",
    "object_allowed_attributes": "manifest entry 'd001': allowed_attributes",
    "non_string_system_id": "run.json: run file must be an object with a string system_id",
    "output_not_object": "run.json: description 0",
    "description_id_not_string": "run.json: description 0",
    "overflowing_confidence": "run.json: description 0: unreadable output",
}

# The defects above that set one key of the first description's manifest entry.
_MANIFEST_ENTRY_VALUES = {
    "non_integer_detail_max": ("detail_max", "many"),
    "overflowing_detail_max": ("detail_max", 1e400),
    "fractional_detail_max": ("detail_max", 2.9),
    "boolean_detail_max": ("detail_max", True),
    "string_number_detail_max": ("detail_max", "3"),
    "half_detail_max": ("detail_max", 0.5),
    "string_expected_fields": ("expected_fields", "part_name"),
    "string_allowed_attributes": ("allowed_attributes", "part_name"),
    "object_expected_fields": ("expected_fields", {"part_name": 1}),
    "object_allowed_attributes": ("allowed_attributes", {"part_name": 1}),
}


def _http_extract_args(corpus, tmp_path, endpoint, texts):
    """extract argv for `texts` against three HTTP extractors at `endpoint`;
    the first is also the synthesis model and nobody researches."""
    config = {
        "roster": [
            {
                "model_id": f"live-{n}",
                "kind": "http_openai_compatible",
                "endpoint": endpoint,
                "max_retries": 0,
                "role_tags": ["extraction", "synthesis"] if n == 0 else ["extraction"],
            }
            for n in range(3)
        ],
        "synthesis_model": "live-0",
    }
    config_path = tmp_path / "http-config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    input_path = tmp_path / "batch.txt"
    input_path.write_text("\n".join(texts) + "\n", encoding="utf-8")
    return [
        "extract",
        "--input", str(input_path),
        "--config", str(config_path),
        "--index", str(corpus.index_dir),
    ]


# Every provider call waits this long. A description makes two calls in
# series: the extraction fan-out, then the synthesis review.
_CALL_DELAY_S = 0.1


class TestConcurrentBatch:
    def test_descriptions_overlap(self, corpus, tmp_path, keepalive_server):
        texts = [f"M{n} hex bolt, steel" for n in range(4, 12)]
        args = _http_extract_args(corpus, tmp_path, keepalive_server.url, texts)
        # One batch without delays first, so lazy set-up is not timed.
        assert run_command(args).exit_code == EXIT_OK
        keepalive_server.delay = lambda user_text: _CALL_DELAY_S
        started = time.perf_counter()
        outcome = run_command(args)
        elapsed = time.perf_counter() - started
        assert outcome.exit_code == EXIT_OK
        documents = json.loads(outcome.stdout)
        assert [d["description_id"] for d in documents] == [f"line-{n}" for n in range(1, 9)]
        assert all("fields" in d for d in documents)
        serial = len(texts) * 2 * _CALL_DELAY_S
        assert elapsed < serial / 2

    def test_order_kept_when_later_descriptions_finish_first(
        self, corpus, tmp_path, keepalive_server
    ):
        def staggered(user_text):
            # Extraction prompts quote the description; lot n waits (6 - n) x 40 ms.
            lot = re.search(r"lot (\d)", user_text)
            return 0.04 * (6 - int(lot.group(1))) if lot else 0.0

        keepalive_server.delay = staggered
        texts = [f"M8 hex bolt, steel, lot {n}" for n in range(6)]
        args = _http_extract_args(corpus, tmp_path, keepalive_server.url, texts)
        run_path = tmp_path / "runs" / "run.json"
        outcome = run_command([*args, "--runs-out", str(run_path)])
        assert outcome.exit_code == EXIT_OK
        expected = [f"line-{n}" for n in range(1, 7)]
        assert [d["description_id"] for d in json.loads(outcome.stdout)] == expected
        run = load_system_run(run_path)
        assert [d.description_id for d in run.descriptions] == expected

    def test_batch_width_one_gives_same_bytes(
        self, corpus, tmp_path, keepalive_server, monkeypatch
    ):
        lock = threading.Lock()
        in_flight, peaks = [0], []

        def staggered(user_text):
            # Lot n waits (6 - n) x 20 ms here rather than in the server, so
            # the peak of requests in flight shows how many descriptions ran
            # at once.
            lot = re.search(r"lot (\d)", user_text)
            with lock:
                in_flight[0] += 1
                peaks[-1] = max(peaks[-1], in_flight[0])
            time.sleep(0.02 * (6 - int(lot.group(1))) if lot else 0.0)
            with lock:
                in_flight[0] -= 1
            return 0.0

        keepalive_server.delay = staggered
        texts = [f"M8 hex bolt, steel, lot {n}" for n in range(6)]
        args = _http_extract_args(corpus, tmp_path, keepalive_server.url, texts)
        outputs = []
        for width in (8, 1):
            monkeypatch.setattr(orchestrator, "BATCH_WIDTH", width)
            peaks.append(0)
            run_path = tmp_path / f"run-{width}.json"
            outcome = finishes_within(60, lambda: run_command([*args, "--runs-out", str(run_path)]))
            assert outcome.exit_code == EXIT_OK
            outputs.append((outcome.stdout, run_path.read_bytes()))
        assert outputs[0] == outputs[1]
        # Each description calls its three extractors at once: at width 8
        # descriptions overlapped, at width 1 they did not.
        assert peaks[0] > 3 >= peaks[1]


class TestReplayBatch:
    def test_every_call_runs_on_the_calling_thread(self, corpus, monkeypatch):
        threads = []
        complete = gateway.ReplayBackend.complete

        def recording(backend, request):
            threads.append(threading.get_ident())
            return complete(backend, request)

        monkeypatch.setattr(gateway.ReplayBackend, "complete", recording)
        assert run_command(_extract_args(corpus)).exit_code == EXIT_OK
        assert len(threads) > len(corpus.cases)
        assert set(threads) == {threading.get_ident()}

    def test_same_bytes_as_a_shared_call_pool(self, corpus, tmp_path):
        run_path = tmp_path / "run.json"
        outcome = run_command(_extract_args(corpus, "--runs-out", str(run_path)))
        assert outcome.exit_code == EXIT_OK
        config = EnsembleConfig.from_file(corpus.config_path)
        index = FlatIndex.load(corpus.index_dir)
        run_one = partial(run_pipeline, config=config, index=index, schema=SpecSchema.default())
        descriptions = [PartDescription(c.description_id, c.text, c.category) for c in corpus.cases]
        with (
            ThreadPoolExecutor(orchestrator.BATCH_WIDTH * len(config.roster)) as calls,
            ThreadPoolExecutor(orchestrator.BATCH_WIDTH) as batch,
        ):
            results = list(batch.map(partial(run_one, executor=calls), descriptions))
        documents = [result.final.to_dict() for result in results]
        assert outcome.stdout == json.dumps(documents, indent=2, sort_keys=True) + "\n"
        run = json.loads(run_path.read_text(encoding="utf-8"))
        assert run["descriptions"] == [json.loads(result.to_json()) for result in results]
        assert run_path.read_text(encoding="utf-8") == json.dumps(run, sort_keys=True) + "\n"

    def test_one_http_entry_keeps_descriptions_overlapping(
        self, corpus, tmp_path, keepalive_server
    ):
        texts = [f"M{n} hex bolt, steel" for n in range(4, 12)]
        args = _http_extract_args(corpus, tmp_path, keepalive_server.url, texts)
        config_path = Path(args[args.index("--config") + 1])
        config = json.loads(config_path.read_text(encoding="utf-8"))
        # The replay entries find no fixture for these prompts and fail at
        # once; the one HTTP extractor carries the quorum.
        config["roster"][1:] = [
            {
                "model_id": f"replay-{n}",
                "kind": "replay_fixture",
                "fixtures_dir": str(corpus.fixtures_dir),
                "role_tags": ["extraction"],
            }
            for n in (1, 2)
        ]
        config["min_quorum"] = 1
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_command(args).exit_code == EXIT_OK
        keepalive_server.delay = lambda user_text: _CALL_DELAY_S
        started = time.perf_counter()
        outcome = run_command(args)
        elapsed = time.perf_counter() - started
        assert outcome.exit_code == EXIT_OK
        assert all("fields" in d for d in json.loads(outcome.stdout))
        assert elapsed < len(texts) * 2 * _CALL_DELAY_S / 2


class TestStartup:
    def test_requests_loaded_only_for_http_calls(self, corpus, tmp_path, keepalive_server):
        script = """
import json
import sys
from partspec.cli import run_command

def check(step, module):
    if module in sys.modules:
        sys.exit(f"{module} imported by {step}")

check("import partspec.cli", "http.client")
kb, index, descriptions, config, http_args = sys.argv[1:]
built = run_command(["index", "build", "--kb", kb, "--out", index])
check("index build", "http.client")
extracted = run_command(
    ["extract", "--input", descriptions, "--config", config, "--index", index]
)
check("extract with replay providers", "http.client")
live = run_command(json.loads(http_args))
if "http.client" not in sys.modules:
    sys.exit("extract with an HTTP provider did not load http.client")
check("extract with an HTTP provider", "requests")
sys.exit(built.exit_code or extracted.exit_code or live.exit_code)
"""
        src = str(Path(cli.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        http_args = _http_extract_args(corpus, tmp_path, keepalive_server.url, ["M8 hex bolt"])
        argv = [
            str(corpus.kb_path), str(tmp_path / "index"),
            str(corpus.descriptions_path), str(corpus.config_path), json.dumps(http_args),
        ]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestEval:
    @pytest.fixture()
    def runs_dir(self, corpus, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        outcome = run_command(
            _extract_args(corpus, "--runs-out", str(runs / "run.json"), "--system-id", "RAGsemble")
        )
        assert outcome.exit_code == EXIT_OK
        return runs

    def test_reports_and_table(self, corpus, runs_dir):
        outcome = run_command(
            ["eval", "--runs", str(runs_dir), "--manifest", str(corpus.manifest_path)]
        )
        assert outcome.exit_code == EXIT_OK
        payload = json.loads(outcome.stdout)
        report = payload["reports"][0]
        assert report["system_id"] == "RAGsemble"
        assert report["ics"] == 1.0
        assert report["sdq"] == 1.0
        assert report["tdi"] == 1.0
        assert report["ara"] == 0.0
        assert 0.0 < report["idr"] < 1.0
        assert payload["table"].startswith("Model")
        assert "RAGsemble" in payload["table"]
        # The table is echoed to stderr as a human-readable diagnostic.
        assert payload["table"] in outcome.stderr

    def test_out_file(self, corpus, runs_dir, tmp_path):
        report_path = tmp_path / "report.json"
        outcome = run_command(
            [
                "eval",
                "--runs", str(runs_dir),
                "--manifest", str(corpus.manifest_path),
                "--out", str(report_path),
            ]
        )
        assert outcome.exit_code == EXIT_OK
        assert outcome.stdout == ""
        assert json.loads(report_path.read_text(encoding="utf-8"))["reports"]

    def test_missing_manifest_entry_is_usage_error(self, corpus, runs_dir, tmp_path):
        manifest = json.loads(corpus.manifest_path.read_text(encoding="utf-8"))
        del manifest["d001"]
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(manifest), encoding="utf-8")
        outcome = run_command(["eval", "--runs", str(runs_dir), "--manifest", str(partial)])
        assert outcome.exit_code == EXIT_USAGE
        assert outcome.stderr == "error: no manifest entry for description 'd001'\n"

    @pytest.mark.parametrize("defect", sorted(_EVAL_DEFECTS))
    def test_malformed_input_is_usage_error(self, corpus, runs_dir, tmp_path, defect):
        run_path = runs_dir / "run.json"
        run = json.loads(run_path.read_text(encoding="utf-8"))
        manifest = json.loads(corpus.manifest_path.read_text(encoding="utf-8"))
        first = run["descriptions"][0]
        if defect in _MANIFEST_ENTRY_VALUES:
            key, value = _MANIFEST_ENTRY_VALUES[defect]
            manifest[first["description_id"]][key] = value
        elif defect == "description_not_object":
            run["descriptions"][0] = first["description_id"]
        elif defect == "missing_description_id":
            del first["description_id"]
        elif defect == "unknown_failure_key":
            first["outputs"][0].update(
                claims=[], schema_valid=False, failure={"kind": "timeout", "reason": "slow"}
            )
        elif defect == "manifest_entry_not_object":
            manifest[first["description_id"]] = 5
        elif defect == "missing_expected_fields":
            del manifest[first["description_id"]]["expected_fields"]
        elif defect == "descriptions_not_array":
            run["descriptions"] = {d["description_id"]: d for d in run["descriptions"]}
        elif defect == "final_not_object":
            first["final"] = [1]
        elif defect == "non_string_system_id":
            run["system_id"] = 5
        elif defect == "output_not_object":
            first["outputs"][0] = 7
        elif defect == "description_id_not_string":
            first["description_id"] = {}
        elif defect == "overflowing_confidence":
            first["outputs"][0]["claims"][0]["confidence"] = 10**400
        run_path.write_text(json.dumps(run), encoding="utf-8")
        manifest_path = tmp_path / "manifest.json"
        manifest_text = "{not json" if defect == "manifest_not_json" else json.dumps(manifest)
        manifest_path.write_text(manifest_text, encoding="utf-8")
        outcome = run_command(
            ["eval", "--runs", str(runs_dir), "--manifest", str(manifest_path)]
        )
        assert outcome.exit_code == EXIT_USAGE
        assert outcome.stderr.startswith("error:")
        assert _EVAL_DEFECTS[defect] in outcome.stderr
        assert outcome.stdout == ""

    def test_empty_runs_dir_is_usage_error(self, corpus, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        outcome = run_command(
            ["eval", "--runs", str(empty), "--manifest", str(corpus.manifest_path)]
        )
        assert outcome.exit_code == EXIT_USAGE
        assert "no run files" in outcome.stderr

    def test_parent_run_file_shape_scores_the_same(self, corpus, runs_dir, tmp_path):
        """An indented run file holding only description_id, outputs and
        final scores byte-identically to the one extract writes."""
        run = json.loads((runs_dir / "run.json").read_text(encoding="utf-8"))
        assert {"context_used", "quorum_failure"} <= set(run["descriptions"][0])
        old_runs = tmp_path / "old-runs"
        old_runs.mkdir()
        old_run = {
            "system_id": "RAGsemble",
            "descriptions": [
                {
                    "description_id": result.description_id,
                    "outputs": [
                        r.to_dict() for r in result.phase1_results + result.phase2_results
                    ],
                    "final": result.final.to_dict() if result.final else None,
                }
                for result in corpus.results
            ],
        }
        (old_runs / "run.json").write_text(
            json.dumps(old_run, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        outcomes = [
            run_command(["eval", "--runs", str(runs), "--manifest", str(corpus.manifest_path)])
            for runs in (runs_dir, old_runs)
        ]
        assert [outcome.exit_code for outcome in outcomes] == [EXIT_OK, EXIT_OK]
        assert outcomes[0].stdout == outcomes[1].stdout

    @pytest.fixture(scope="class")
    def run_paths(self, corpus, tmp_path_factory):
        """A CLI-written run file's text and its paths, grouped by depth."""
        run_path = tmp_path_factory.mktemp("property") / "run.json"
        assert run_command(_extract_args(corpus, "--runs-out", str(run_path))).exit_code == EXIT_OK
        text = run_path.read_text(encoding="utf-8")
        by_depth: dict[int, list[tuple]] = {}
        for path in _json_paths(json.loads(text)):
            by_depth.setdefault(len(path), []).append(path)
        return text, by_depth

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data(), value=JSON_VALUES)
    def test_any_replaced_subtree_gives_documented_outcome(
        self, corpus, run_paths, tmp_path, data, value
    ):
        text, by_depth = run_paths
        run = json.loads(text)
        # Depth first, so shallow keys are drawn as often as deep leaves.
        path = data.draw(st.sampled_from(by_depth[data.draw(st.sampled_from(sorted(by_depth)))]))
        if path:
            reduce(getitem, path[:-1], run)[path[-1]] = value
        else:
            run = value
        (tmp_path / "run.json").write_text(json.dumps(run), encoding="utf-8")
        outcome = run_command(
            ["eval", "--runs", str(tmp_path), "--manifest", str(corpus.manifest_path)]
        )
        assert outcome.exit_code in (EXIT_OK, EXIT_USAGE), outcome.stderr
        if outcome.stdout:
            json.loads(outcome.stdout)
        assert "Traceback" not in outcome.stderr


def _json_paths(node, path=()):
    """Every key/index path into a decoded JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, (*path, key))


# Text no JSON loader can decode: cut off, and nested past the recursion limit.
_UNDECODABLE = {"truncated": '[{"id": ', "too_deep": "[" * 200_000}


class TestJsonInputs:
    """Every JSON file the CLI reads fails the same way: exit 2, file named."""

    @pytest.mark.parametrize("text_id", sorted(_UNDECODABLE))
    @pytest.mark.parametrize(
        "source",
        ["config", "descriptions", "index_manifest", "kb", "manifest", "run_file", "schema"],
    )
    def test_undecodable_file_is_usage_error(self, corpus, tmp_path, source, text_id):
        bad = tmp_path / f"{source}.json"
        runs = tmp_path / "runs"
        runs.mkdir()
        if source == "index_manifest":
            shutil.copytree(corpus.index_dir, tmp_path / "index")
            bad = tmp_path / "index" / "manifest.json"
        elif source == "run_file":
            bad = runs / "run.json"
        bad.write_text(_UNDECODABLE[text_id], encoding="utf-8")
        flag = {
            "config": "--config",
            "descriptions": "--input",
            "index_manifest": "--index",
            "schema": "--schema",
        }.get(source)
        if flag:
            # The last of a repeated option wins.
            args = [*_extract_args(corpus), flag, str(bad.parent if flag == "--index" else bad)]
        elif source == "kb":
            args = ["index", "build", "--kb", str(bad), "--out", str(tmp_path / "built")]
        else:
            manifest = bad if source == "manifest" else corpus.manifest_path
            args = ["eval", "--runs", str(runs), "--manifest", str(manifest)]
        outcome = run_command(args)
        assert outcome.exit_code == EXIT_USAGE
        assert outcome.stderr.startswith(f"error: {bad}: invalid JSON")
        assert outcome.stdout == ""


    def test_descriptions_array_after_byte_order_mark_is_usage_error(self, corpus, tmp_path):
        bad = tmp_path / "descriptions.json"
        text = corpus.descriptions_path.read_text(encoding="utf-8")
        bad.write_text("\ufeff" + text, encoding="utf-8")
        outcome = run_command([*_extract_args(corpus), "--input", str(bad)])
        assert outcome.exit_code == EXIT_USAGE
        assert outcome.stderr.startswith(f"error: {bad}: invalid JSON: Unexpected UTF-8 BOM")
        assert outcome.stdout == ""


class TestConfigCheck:
    def test_valid_config(self, corpus):
        outcome = run_command(["config", "check", "--config", str(corpus.config_path)])
        assert outcome.exit_code == EXIT_OK
        assert json.loads(outcome.stdout) == {
            "ok": True,
            "models": 6,
            "synthesis_model": "synth-1",
            "research_models": ["delta", "echo"],
        }

    def test_empty_research_models_lists_tagged_models(self, corpus, tmp_path):
        data = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        data["research_models"] = []
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data), encoding="utf-8")
        outcome = run_command(["config", "check", "--config", str(config_path)])
        assert outcome.exit_code == EXIT_OK
        assert json.loads(outcome.stdout)["research_models"] == ["delta", "echo"]

    def test_embedded_secret_is_refused(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "roster": [
                        {
                            "model_id": "a",
                            "kind": "http_openai_compatible",
                            "endpoint": "https://api.example.test/v1/chat/completions",
                            "credentials_env": "sk-proj-abcdef0123456789",
                            "role_tags": ["extraction", "synthesis"],
                        }
                    ],
                    "synthesis_model": "a",
                    "min_quorum": 1,
                }
            ),
            encoding="utf-8",
        )
        outcome = run_command(["config", "check", "--config", str(config_path)])
        assert outcome.exit_code == EXIT_USAGE
        assert "never put key material" in outcome.stderr
        # The full pasted value is not echoed back.
        assert "abcdef0123456789" not in outcome.stderr

    def test_relative_endpoint_is_refused(self, corpus, tmp_path):
        args = _http_extract_args(corpus, tmp_path, "api.example.com/v1", ["M8 hex bolt"])
        config_path = args[args.index("--config") + 1]
        for argv in (["config", "check", "--config", config_path], args):
            outcome = run_command(argv)
            assert outcome.exit_code == EXIT_USAGE
            assert "provider 'live-0' endpoint is not an absolute" in outcome.stderr

    def test_invalid_json_is_usage_error(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text("{", encoding="utf-8")
        outcome = run_command(["config", "check", "--config", str(config_path)])
        assert outcome.exit_code == EXIT_USAGE
        assert "invalid JSON" in outcome.stderr


class TestParser:
    def test_no_arguments_is_usage_error(self):
        outcome = run_command([])
        assert outcome.exit_code == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        outcome = run_command(["frobnicate"])
        assert outcome.exit_code == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self):
        outcome = run_command(["extract", "--input", "parts.txt"])
        assert outcome.exit_code == EXIT_USAGE
        assert "usage:" in outcome.stderr

    def test_help_exits_zero(self):
        outcome = run_command(["--help"])
        assert outcome.exit_code == EXIT_OK
        assert "usage: partspec" in outcome.stdout

    def test_main_wires_through(self, corpus, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.argv", ["partspec", "config", "check", "--config", str(corpus.config_path)]
        )
        assert main() == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["ok"] is True


# The attributes perfbench/tracing.py wraps to time each layer. Its patcher
# skips a name the program no longer has, so a rename would silently zero
# that layer's figures; here it fails a test instead.
_TRACED_BOUNDARIES = [
    (cli, "run_pipeline"),
    (cli, "ingest_records"),
    (orchestrator, "extract_phase"),
    (orchestrator, "research_phase"),
    (orchestrator, "build_prompt"),
    (orchestrator, "identify_gaps"),
    (orchestrator, "synthesize_spec"),
    (gateway, "parse_structured_output"),
    (gateway, "validate_spec_document"),
    (gateway.ReplayBackend, "complete"),
    (synthesis, "resolve_field"),
    (synthesis, "canonicalize_value"),
    (retrieval, "embed_text"),
    (FlatIndex, "search"),
    (FlatIndex, "build"),
    (FlatIndex, "save"),
    (FlatIndex, "load"),
]


def _counting(original, name, counts):
    if isinstance(original, classmethod):
        return classmethod(_counting(original.__func__, name, counts))

    @wraps(original)
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    return counted


class TestTracedBoundaries:
    def test_corpus_run_reaches_every_traced_boundary(self, corpus, tmp_path, monkeypatch):
        counts: Counter[str] = Counter()
        names = []
        for owner, attr in _TRACED_BOUNDARIES:
            name = f"{owner.__name__}.{attr}"
            names.append(name)
            monkeypatch.setattr(owner, attr, _counting(vars(owner)[attr], name, counts))
        index_dir = tmp_path / "index"
        built = run_command(
            ["index", "build", "--kb", str(corpus.kb_path), "--out", str(index_dir)]
        )
        assert built.exit_code == EXIT_OK
        outcome = run_command(_extract_args(corpus)[:6] + [str(index_dir)])
        assert outcome.exit_code == EXIT_OK
        assert [name for name in names if counts[name] == 0] == []

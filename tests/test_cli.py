"""Command-line surface, exercised in-process through run_command."""

from __future__ import annotations

import copy
import csv
import gc
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial, reduce, wraps
from operator import getitem
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import JSON_VALUES, ScriptedHandler, finishes_within
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.control import currently_in_test_context

from partspec import cli, gateway, orchestrator, retrieval, synthesis
from partspec.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, run_command
from partspec.core import PartDescription, SpecSchema
from partspec.metrics import load_system_run
from partspec.orchestrator import EnsembleConfig, run_pipeline
from partspec.retrieval import FlatIndex


# Characters str.splitlines() breaks at that a text-mode read keeps inside a line.
_NOT_LINE_ENDS = pytest.mark.parametrize(
    "separator",
    ["\u2028", "\u2029", "\x85", "\x0c", "\x0b", "\x1c", "\x1d", "\x1e"],
    ids=lambda separator: f"U+{ord(separator):04X}",
)


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

    @pytest.mark.parametrize("content", ["csv", "json"])
    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_format_flag_overrides_suffix(self, corpus, tmp_path, content, format):
        """The file's suffix names the other format; `--format` decides how it
        is read. Read as what it holds, it builds the index its own suffix
        builds; read as the other format, it gives a documented outcome."""
        data = _kb_csv(corpus) if content == "csv" else corpus.kb_path.read_bytes()
        other = {"csv": "json", "json": "csv"}[format]
        misnamed, named = tmp_path / f"kb.{other}", tmp_path / f"kb.{content}"
        misnamed.write_bytes(data)
        named.write_bytes(data)
        args = ["index", "build", "--kb", str(misnamed), "--out", str(tmp_path / "flag")]
        outcome = run_command([*args, "--format", format])
        _assert_documented_outcome(outcome)
        if content == format:
            assert outcome.exit_code == EXIT_OK, outcome.stderr
            suffix = ["index", "build", "--kb", str(named), "--out", str(tmp_path / "suffix")]
            assert run_command(suffix).exit_code == EXIT_OK
            for filename in ("vectors.sfix", "manifest.json"):
                by_suffix = (tmp_path / "suffix" / filename).read_bytes()
                by_flag = (tmp_path / "flag" / filename).read_bytes()
                # Record sources name the file, which differs only in its suffix.
                assert by_flag.replace(misnamed.name.encode(), named.name.encode()) == by_suffix
        elif format == "json":
            assert outcome.stderr.startswith(f"error: {misnamed}: invalid JSON")

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

    @_NOT_LINE_ENDS
    def test_stdin_text_lines(self, corpus, separator):
        text = corpus.cases[0].text
        outcome = run_command(
            _extract_args(corpus)[:2] + ["-"] + _extract_args(corpus)[3:],
            stdin=io.StringIO(f"{text}\nM8 hex bolt{separator}zinc plated\n"),
        )
        assert outcome.exit_code == EXIT_OK
        documents = json.loads(outcome.stdout)
        assert [d["description_id"] for d in documents] == ["line-1", "line-2"]
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

    @_NOT_LINE_ENDS
    def test_text_file_input(self, corpus, tmp_path, separator):
        listing = tmp_path / "parts.txt"
        listing.write_text(
            f"{corpus.cases[0].text}\n\n{corpus.cases[1].text}\r\n"
            f"M8 hex bolt{separator}zinc plated\r",
            encoding="utf-8",
            newline="",
        )
        outcome = run_command(
            _extract_args(corpus)[:2] + [str(listing)] + _extract_args(corpus)[3:]
        )
        assert outcome.exit_code == EXIT_OK
        documents = json.loads(outcome.stdout)
        assert [d["description_id"] for d in documents] == ["line-1", "line-2", "line-3"]
        assert documents[1]["fields"]["part_name"]["value"] == corpus.cases[1].part_name

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
    "string_schema_valid": "run.json: description 0: unreadable output (TypeError: schema_valid",
    "null_phase": "run.json: description 0: unreadable output (TypeError: phase",
    "string_in_schema": "run.json: description 0: unreadable output (TypeError: in_schema",
    "number_claim_field": "run.json: description 0: unreadable output (TypeError: field",
    "string_confidence": "run.json: description 0: unreadable output (TypeError: confidence",
    "number_failure_kind": "run.json: description 0: unreadable output (TypeError: kind",
    "non_string_issue_path": "run.json: description 0: unreadable output (TypeError: path",
    "issue_without_path": "run.json: description 0: unreadable output (TypeError: path is missing)",
    "issue_not_object": (
        "run.json: description 0: unreadable output (TypeError: issue must be a JSON object)"
    ),
    "outputs_not_array": "run.json: description 0: outputs must be an array, got {",
    "string_claims": (
        "run.json: description 0: unreadable output "
        "(TypeError: claims must be an array, got 'part_name')"
    ),
    "unknown_manifest_entry_key": "manifest entry 'd001': unknown manifest entry keys: ['weight']",
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
    "unknown_manifest_entry_key": ("weight", 2),
}

# The defects above that set one key of the first output, or of its first claim.
_OUTPUT_VALUES = {
    "string_schema_valid": ((), "schema_valid", "false"),
    "null_phase": ((), "phase", None),
    "string_in_schema": (("claims", 0), "in_schema", "no"),
    "number_claim_field": (("claims", 0), "field", 5),
    "string_confidence": (("claims", 0), "confidence", "0.5"),
    "number_failure_kind": ((), "failure", {"kind": 5, "detail": None}),
    "non_string_issue_path": ((), "issues", [{"kind": "missing_field", "path": [2]}]),
    "issue_without_path": ((), "issues", [{"kind": "missing_field"}]),
    "issue_not_object": ((), "issues", [5]),
    "string_claims": ((), "claims", "part_name"),
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


def _lots(count):
    """Descriptions whose extraction prompts each quote a distinct lot."""
    return [f"M8 hex bolt, steel, lot {n:02d}" for n in range(count)]


def _subprocess_env():
    """This environment, with the package's source directory on PYTHONPATH."""
    src = str(Path(cli.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


# Every provider call waits this long. A description makes two calls in
# series: the extraction fan-out, then the synthesis review.
_CALL_DELAY_S = 0.1


class _InFlight:
    """A server `delay` that waits `delay(user_text)` itself and keeps the
    peak of requests the server held at once, which shows how many calls,
    and so how many descriptions, ran at the same time."""

    def __init__(self, delay):
        self.delay = delay
        self.lock = threading.Lock()
        self.now = self.peak = 0

    def __call__(self, user_text):
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
        time.sleep(self.delay(user_text))
        with self.lock:
            self.now -= 1
        return 0.0


class TestConcurrentBatch:
    def test_descriptions_overlap(self, corpus, tmp_path, keepalive_server):
        texts = [f"M{n} hex bolt, steel" for n in range(4, 12)]
        args = _http_extract_args(corpus, tmp_path, keepalive_server.url, texts)
        keepalive_server.delay = in_flight = _InFlight(lambda user_text: _CALL_DELAY_S)
        outcome = run_command(args)
        assert outcome.exit_code == EXIT_OK
        documents = json.loads(outcome.stdout)
        assert [d["description_id"] for d in documents] == [f"line-{n}" for n in range(1, 9)]
        assert all("fields" in d for d in documents)
        # A description calls its three extractors at once: more requests
        # than that in flight means descriptions overlapped.
        assert in_flight.peak > 3

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
        def staggered(user_text):
            # Lot n waits (6 - n) x 20 ms.
            lot = re.search(r"lot (\d)", user_text)
            return 0.02 * (6 - int(lot.group(1))) if lot else 0.0

        texts = [f"M8 hex bolt, steel, lot {n}" for n in range(6)]
        args = _http_extract_args(corpus, tmp_path, keepalive_server.url, texts)
        outputs, peaks = [], []
        for width in (8, 1):
            monkeypatch.setattr(orchestrator, "BATCH_WIDTH", width)
            keepalive_server.delay = in_flight = _InFlight(staggered)
            run_path = tmp_path / f"run-{width}.json"
            outcome = finishes_within(60, lambda: run_command([*args, "--runs-out", str(run_path)]))
            assert outcome.exit_code == EXIT_OK
            outputs.append((outcome.stdout, run_path.read_bytes()))
            peaks.append(in_flight.peak)
        assert outputs[0] == outputs[1]
        # Each description calls its three extractors at once: at width 8
        # descriptions overlapped, at width 1 they did not.
        assert peaks[0] > 3 >= peaks[1]


@pytest.fixture()
def shares(monkeypatch):
    """`shares(n)` makes n CPUs usable and any batch worth splitting, even
    while threads an earlier test left are still ending; the fixture's
    `forks` records the pid of every child `extract` forks."""
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            use.forks.append(pid)
        return pid

    def use(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        use.forks.clear()

    use.forks = []
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cli, "_MIN_SHARE", 1)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    return use


class TestReplayBatch:
    def test_every_call_runs_on_the_calling_thread(self, corpus, monkeypatch, tmp_path, shares):
        # Every process appends its calls to one file, so a forked share's
        # calls are counted too.
        log_path = tmp_path / "calls.log"
        complete = gateway.ReplayBackend.complete

        def recording(backend, request):
            with open(log_path, "a", encoding="utf-8") as log:
                log.write(f"{os.getpid()} {threading.get_ident()}\n")
            return complete(backend, request)

        monkeypatch.setattr(gateway.ReplayBackend, "complete", recording)
        calls = []
        for cpus in (1, 2):
            shares(cpus)
            log_path.write_text("", encoding="utf-8")
            assert run_command(_extract_args(corpus)).exit_code == EXIT_OK
            lines = [line.split() for line in log_path.read_text(encoding="utf-8").splitlines()]
            assert len({pid for pid, _ in lines}) == cpus == len(shares.forks) + 1
            # A forked child's one thread is a copy of the thread that forked it.
            assert {int(thread) for _, thread in lines} == {threading.get_ident()}
            calls.append(len(lines))
        assert calls[0] == calls[1] > len(corpus.cases)

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
        # One batch without delays first, so lazy set-up does not hold back
        # the first descriptions.
        assert run_command(args).exit_code == EXIT_OK
        keepalive_server.delay = in_flight = _InFlight(lambda user_text: _CALL_DELAY_S)
        outcome = run_command(args)
        assert outcome.exit_code == EXIT_OK
        assert all("fields" in d for d in json.loads(outcome.stdout))
        # A description makes one HTTP call at a time, so more than two
        # requests in flight means more than two descriptions ran at once.
        assert in_flight.peak > 2


def _broken_calls(corpus, monkeypatch):
    """Fail calls so that, in corpus order, d016's consistency review falls
    back, d021 misses quorum and echo's calls on d023 raise from `invoke`,
    which logs a traceback. All three sit past the first third of the batch."""
    complete = gateway.ReplayBackend.complete
    record = gateway.ProviderResponse
    review_of, missing, raising = (corpus.cases[n] for n in (15, 20, 22))

    def failing(backend, request):
        text = request.user_text
        if text.startswith("DRAFT SPECIFICATION:") and review_of.part_number in text:
            raise gateway.BackendError("transport", "review line down")
        if missing.text in text and backend.config.model_id in ("alpha", "bravo", "charlie"):
            raise gateway.BackendError("transport", "extraction line down")
        return complete(backend, request)

    def breaking(model_id, text, *rest):
        if model_id == "echo" and raising.part_number in text:
            raise RuntimeError("echo's record broke")
        return record(model_id, text, *rest)

    monkeypatch.setattr(gateway.ReplayBackend, "complete", failing)
    monkeypatch.setattr(gateway, "ProviderResponse", breaking)


@pytest.fixture(params=["replay", "http"])
def batch(request, corpus, tmp_path):
    """A 24-description `extract --runs-out`: the replay corpus, or three
    HTTP extractors at a kept-alive `server` (None for replay). `ids` are
    the descriptions' ids in input order; `most_shares` bounds the shares
    the batch is cut into."""
    run_path = tmp_path / "run.json"
    if request.param == "replay":
        server, most_shares = None, len(corpus.cases)
        args = _extract_args(corpus)
        ids = [case.description_id for case in corpus.cases]
    else:
        server = request.getfixturevalue("keepalive_server")
        most_shares = cli._MOST_WAITING_SHARES
        args = _http_extract_args(corpus, tmp_path, server.url, _lots(24))
        ids = [f"line-{n}" for n in range(1, 25)]
    return SimpleNamespace(
        args=[*args, "--runs-out", str(run_path)],
        run_path=run_path,
        ids=ids,
        server=server,
        most_shares=most_shares,
    )


def _outputs(args, run_path):
    outcome = run_command(args)
    return outcome, run_path.read_bytes() if run_path.exists() else None


class TestShares:
    """A batch splits into one forked share per usable CPU and reads the
    same as one process: stdout, run file, stderr and exit code."""

    def test_shares_change_no_byte(self, corpus, batch, monkeypatch, shares):
        if batch.server is None:
            _broken_calls(corpus, monkeypatch)
            expected = [
                "WARNING partspec.synthesis: consistency pass for d016 fell back (transport); "
                "keeping draft",
                "WARNING partspec.orchestrator: quorum not met for d021: 2 of 3 required",
                "WARNING partspec.gateway: provider echo raised echo's record broke",
                "WARNING partspec.gateway: provider echo raised echo's record broke",
            ]
        else:
            # One warning only: a share's HTTP warnings come in completion order.
            reply = batch.server.reply
            batch.server.reply = lambda user_text: [] if "lot 20" in user_text else reply(user_text)
            expected = [
                "WARNING partspec.orchestrator: quorum not met for line-21: 0 of 2 required"
            ]
        outputs = []
        for cpus in (1, 2, 3):
            shares(cpus)
            outputs.append(_outputs(batch.args, batch.run_path))
            assert len(shares.forks) == min(cpus, batch.most_shares) - 1
        (outcome, run_file), *others = outputs
        assert all(other == (outcome, run_file) for other in others)
        assert outcome.exit_code == EXIT_OK
        warnings = [line for line in outcome.stderr.splitlines() if line.startswith("WARNING")]
        assert warnings == expected
        # Each "provider raised" warning carries its traceback.
        tracebacks = outcome.stderr.count("Traceback (most recent call last):")
        assert tracebacks == sum("raised" in warning for warning in warnings)
        assert outcome.stderr.endswith("1 of 24 descriptions did not reach quorum\n")

    def test_batch_missing_quorum_everywhere_still_fails(self, corpus, tmp_path, shares):
        run_path = tmp_path / "run.json"
        args = _extract_args(corpus, "--runs-out", str(run_path))
        args[args.index("--config") + 1] = str(corpus.empty_config_path)
        outputs = []
        for cpus in (1, 2):
            shares(cpus)
            outputs.append(_outputs(args, run_path))
        assert outputs[0] == outputs[1]
        assert outputs[1][0].exit_code == EXIT_RUNTIME
        assert outputs[1][0].stderr.count("quorum not met") == len(corpus.cases)

    @pytest.mark.parametrize(
        "broken, error, code",
        [
            ({12, 19}, RuntimeError, EXIT_RUNTIME),
            ({12}, ValueError, EXIT_USAGE),
            ({1, 12}, RuntimeError, EXIT_RUNTIME),
        ],
        ids=["child_raises", "child_raises_usage_error", "parent_share_raises"],
    )
    def test_a_raising_share_fails_the_batch(
        self, batch, monkeypatch, shares, broken, error, code
    ):
        broken_ids = {batch.ids[position] for position in broken}

        def raising(description, **kwargs):
            if description.id in broken_ids:
                raise error(f"share broke at {description.id}")
            return run_pipeline(description, **kwargs)

        monkeypatch.setattr(cli, "run_pipeline", raising)
        outcomes = []
        for cpus in (2, 1):
            shares(cpus)
            outcome, run_file = _outputs(batch.args, batch.run_path)
            assert (outcome.exit_code, outcome.stdout, run_file) == (code, "", None)
            # The first broken description in input order is the one reported.
            assert outcome.stderr == f"error: share broke at {batch.ids[min(broken)]}\n"
            outcomes.append(outcome)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert outcomes[0] == outcomes[1]

    def test_a_killed_share_fails_the_batch(self, batch, monkeypatch, shares):
        parent = os.getpid()

        def dying(description, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_pipeline(description, **kwargs)

        monkeypatch.setattr(cli, "run_pipeline", dying)
        shares(2)
        outcome, run_file = _outputs(batch.args, batch.run_path)
        assert (outcome.exit_code, outcome.stdout, run_file) == (EXIT_RUNTIME, "", None)
        assert outcome.stderr == (
            "error: the process running descriptions 13-24 ended without a result (signal 9)\n"
        )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(
        shutil.which("taskset") is None or not hasattr(os, "fork"),
        reason="needs taskset and os.fork",
    )
    def test_fresh_http_process_matches_one_cpu(self, corpus, tmp_path, keepalive_server):
        """`python -m partspec.cli extract` on 48 HTTP descriptions: held to
        one CPU by `taskset` it runs one share, else one share per usable CPU
        (up to two), and both write the same bytes."""
        reply = keepalive_server.reply
        keepalive_server.reply = lambda text: [] if "lot 40" in text else reply(text)
        run_path = tmp_path / "run.json"
        args = [*_http_extract_args(corpus, tmp_path, keepalive_server.url, _lots(48)),
                "--runs-out", str(run_path)]
        cpu = str(min(os.sched_getaffinity(0)))
        outputs = []
        for prefix in ([], ["taskset", "-c", cpu]):
            done = subprocess.run(
                [*prefix, sys.executable, "-m", "partspec.cli", *args],
                env=_subprocess_env(), capture_output=True, timeout=120,
            )
            outputs.append((done.returncode, done.stdout, done.stderr, run_path.read_bytes()))
            run_path.unlink()
        assert outputs[0] == outputs[1]
        code, stdout, stderr, _ = outputs[0]
        assert code == EXIT_OK, stderr
        assert len(json.loads(stdout)) == 48
        assert stderr.endswith(b"1 of 48 descriptions did not reach quorum\n")

    def test_one_description_never_forks(self, corpus, tmp_path, shares):
        descriptions = tmp_path / "one.txt"
        descriptions.write_text(corpus.cases[0].text + "\n", encoding="utf-8")
        args = _extract_args(corpus)
        args[args.index("--input") + 1] = str(descriptions)
        shares(4)
        assert run_command(args).exit_code == EXIT_OK
        assert shares.forks == []

    @pytest.mark.parametrize(
        "cpus, items, expected",
        [(1, 1000, 1), (2, 1, 1), (2, 19, 1), (2, 20, 2), (2, 1000, 2), (3, 29, 2), (3, 30, 3)],
    )
    def test_share_count(self, monkeypatch, cpus, items, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(cli, "_MIN_SHARE", 10)
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        assert cli._share_count(items) == expected

    @pytest.mark.parametrize(
        "cpus, items, expected", [(1, 1000, 1), (2, 19, 1), (3, 30, 2), (8, 1000, 2)]
    )
    def test_share_count_at_most(self, monkeypatch, cpus, items, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(cli, "_MIN_SHARE", 10)
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        assert cli._share_count(items, 2) == expected

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_process_without_fork_or_affinity(self, monkeypatch, missing):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        monkeypatch.delattr(os, missing)
        assert cli._share_count(1000) == 1

    def test_one_process_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert cli._share_count(1000) == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()


@settings(max_examples=200)
@given(st.lists(JSON_VALUES, min_size=1), st.lists(JSON_VALUES), st.text())
@example(
    documents=[{"\u00e9\x00": [], "k": {}}, float("nan"), [math.inf, -math.inf, [[{}]]], "\x1f\U0001f600"],
    entries=[],
    system_id="syst\u00e8me\n\x7f",
)
def test_joined_rendering_equals_one_dump(documents, entries, system_id):
    """The joins `extract` builds its output with equal one `json.dumps`."""
    joined = cli._join_documents([cli._indented(document) for document in documents])
    assert joined == json.dumps(documents, indent=2, sort_keys=True) + "\n"
    run_file = cli._join_run_file(system_id, [json.dumps(e, sort_keys=True) for e in entries])
    expected = {"system_id": system_id, "descriptions": entries}
    assert run_file == json.dumps(expected, sort_keys=True) + "\n"


# Any text, lone surrogates included: json escapes them as `\udxxx`.
_ANY_TEXT = st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs"]))
# Every value `_indented` encodes itself, at its edges.
_ENCODABLE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
    | _ANY_TEXT,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(_ANY_TEXT, children),
    max_leaves=40,
)


@settings(max_examples=100)
@given(_ENCODABLE, st.sampled_from(["", "  "]))
@example(value={"": [], "b": {}, "a": ()}, margin="  ")
@example(value=[-0.0, 10**30, -(2**63), "\ud800\x7f\u00e9"], margin="")
def test_indented_equals_json_dumps(value, margin):
    """At both levels the CLI writes: the eval report and a stdout document."""
    expected = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + margin)
    assert cli._indented(value, margin) == expected


@pytest.mark.parametrize(
    ("value", "message"),
    [
        ({"a": [object()]}, "Object of type object is not JSON serializable"),
        ({"a": {3: "b"}}, "keys must be str, not int"),
    ],
    ids=["unknown_type", "non_string_key"],
)
def test_indented_refuses_what_it_does_not_encode(value, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        cli._indented(value)


class TestScript:
    def test_freezes_after_main_and_exits_with_its_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or EXIT_RUNTIME)
        # The real freeze must not run in this process.
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exited:
            cli.script()
        assert exited.value.code == EXIT_RUNTIME
        assert calls == ["main", "freeze"]

    @pytest.mark.parametrize(
        "case, code",
        [("ok", EXIT_OK), ("every_quorum_missed", EXIT_RUNTIME), ("usage_error", EXIT_USAGE)],
    )
    def test_module_run_reads_as_run_command(self, corpus, case, code):
        """`python -m partspec.cli` writes what `run_command` returns."""
        argv = {
            "ok": _extract_args(corpus),
            "every_quorum_missed": [
                "extract",
                "--input", str(corpus.descriptions_path),
                "--config", str(corpus.empty_config_path),
                "--index", str(corpus.index_dir),
            ],
            "usage_error": ["extract", "--input", str(corpus.descriptions_path)],
        }[case]
        done = subprocess.run(
            [sys.executable, "-m", "partspec.cli", *argv],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        outcome = run_command(argv)
        assert outcome.exit_code == code
        assert (done.returncode, done.stdout, done.stderr) == (
            outcome.exit_code,
            outcome.stdout,
            outcome.stderr,
        )


class TestStartup:
    def test_http_client_loaded_only_for_http_calls_and_requests_never(
        self, corpus, tmp_path, keepalive_server
    ):
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
        http_args = _http_extract_args(corpus, tmp_path, keepalive_server.url, ["M8 hex bolt"])
        argv = [
            str(corpus.kb_path), str(tmp_path / "index"),
            str(corpus.descriptions_path), str(corpus.config_path), json.dumps(http_args),
        ]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_eval_code_and_csv_stay_unloaded_outside_eval(self, corpus, tmp_path):
        script = """
import sys
from partspec.cli import run_command

def check(step):
    loaded = [module for module in ("partspec.metrics", "csv") if module in sys.modules]
    if loaded:
        sys.exit(f"{step} imported {loaded}")

check("import partspec.cli")
kb, index, descriptions, config = sys.argv[1:]
built = run_command(["index", "build", "--kb", kb, "--out", index])
check("index build")
extracted = run_command(
    ["extract", "--input", descriptions, "--config", config, "--index", index]
)
check("extract")
import partspec

for name in partspec.__all__:
    exec(f"from partspec import {name}")
sys.exit(built.exit_code or extracted.exit_code)
"""
        argv = [
            str(corpus.kb_path), str(tmp_path / "index"),
            str(corpus.descriptions_path), str(corpus.config_path),
        ]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestModuleEntryPoint:
    def test_warnings_name_their_logger(self, corpus, tmp_path):
        """Run as `python -m partspec.cli`, a warning keeps its logger's name."""
        descriptions = tmp_path / "one.txt"
        descriptions.write_text(corpus.cases[0].text + "\n", encoding="utf-8")
        done = subprocess.run(
            [
                sys.executable, "-m", "partspec.cli", "extract",
                "--input", str(descriptions),
                "--config", str(corpus.empty_config_path),
                "--index", str(corpus.index_dir),
            ],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == EXIT_RUNTIME, done.stderr
        assert done.stderr.startswith(
            "WARNING partspec.orchestrator: quorum not met for line-1: 0 of"
        ), done.stderr


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
        elif defect in _OUTPUT_VALUES:
            path, key, value = _OUTPUT_VALUES[defect]
            reduce(getitem, path, first["outputs"][0])[key] = value
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
        elif defect == "outputs_not_array":
            first["outputs"] = first["outputs"][0]
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


def _mutations(document):
    """A strategy for `document` with one subtree, the root included,
    replaced by any JSON value or by another of its subtrees."""
    by_depth: dict[int, list[tuple]] = {}
    for path in _json_paths(document):
        by_depth.setdefault(len(path), []).append(path)
    # Depth first, so shallow keys are drawn as often as deep leaves.
    depths = st.sampled_from(sorted(by_depth))
    paths = depths.flatmap(lambda depth: st.sampled_from(by_depth[depth]))
    # A subtree from elsewhere often has the right type, so the file can still load.
    subtrees = st.sampled_from([reduce(getitem, path, document) for path in _json_paths(document)])

    def replaced(path, value):
        if not path:
            return value
        mutated = copy.deepcopy(document)
        reduce(getitem, path[:-1], mutated)[path[-1]] = value
        return mutated

    return st.builds(replaced, paths, JSON_VALUES | subtrees)


def _assert_documented_outcome(outcome):
    """Exit 0, 1 only when no description reached quorum, or 2 with one
    `error:` line; stdout empty or JSON; no traceback."""
    assert outcome.exit_code in (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE), outcome.stderr
    if currently_in_test_context():
        event(f"exit {outcome.exit_code}")
    assert "Traceback" not in outcome.stderr, outcome.stderr
    errors = [line for line in outcome.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == (outcome.exit_code == EXIT_USAGE), outcome.stderr
    if outcome.exit_code == EXIT_RUNTIME:
        last_line = outcome.stderr.splitlines()[-1]
        quorum = re.fullmatch(r"(\d+) of (\d+) descriptions did not reach quorum", last_line)
        assert quorum and quorum[1] == quorum[2], outcome.stderr
    if outcome.exit_code == EXIT_USAGE:
        assert outcome.stdout == ""
    if outcome.stdout:
        json.loads(outcome.stdout)


# The input files `extract` and `eval` read, each mutated by one property.
_EXTRACT_FILES = {
    "config": "config.json",
    "schema": "schema.json",
    "descriptions": "descriptions.json",
    "index_manifest": "index/manifest.json",
}
_EVAL_FILES = {"eval_manifest": "manifest.json", "run_file": "runs/run.json"}
_INDEX_BUILD_FILES = {"kb": "kb.json"}


class TestMutatedInputFiles:
    """One subtree of a valid corpus file replaced by any JSON value gives a
    documented outcome, whichever input file it is in."""

    @pytest.fixture(scope="class")
    def mutations(self, corpus, tmp_path_factory):
        """Each input file's valid document and its mutations strategy."""
        run_path = tmp_path_factory.mktemp("valid") / "run.json"
        assert run_command(_extract_args(corpus, "--runs-out", str(run_path))).exit_code == EXIT_OK
        config = json.loads(corpus.config_path.read_text(encoding="utf-8"))
        for provider in config["roster"]:
            # Absolute, so the config holds wherever its copy is written.
            provider["fixtures_dir"] = str(corpus.config_path.parent / provider["fixtures_dir"])
        schema = SpecSchema.default()
        documents = {
            "config": config,
            "schema": {
                "required_fields": list(schema.required_fields),
                "field_kinds": dict(schema.field_kinds),
            },
            # Two descriptions keep each extract short.
            "descriptions": json.loads(corpus.descriptions_path.read_text(encoding="utf-8"))[:2],
            "index_manifest": json.loads(
                (corpus.index_dir / "manifest.json").read_text(encoding="utf-8")
            ),
            "eval_manifest": json.loads(corpus.manifest_path.read_text(encoding="utf-8")),
            "run_file": json.loads(run_path.read_text(encoding="utf-8")),
            "kb": json.loads(corpus.kb_path.read_text(encoding="utf-8")),
        }
        return {name: (document, _mutations(document)) for name, document in documents.items()}

    @pytest.mark.parametrize("source", [*_EXTRACT_FILES, *_EVAL_FILES, *_INDEX_BUILD_FILES])
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_file_gives_documented_outcome(
        self, corpus, mutations, tmp_path, source, data
    ):
        files = next(
            files for files in (_EXTRACT_FILES, _EVAL_FILES, _INDEX_BUILD_FILES) if source in files
        )
        paths = {name: tmp_path / relative for name, relative in files.items()}
        shutil.copytree(corpus.index_dir, tmp_path / "index", dirs_exist_ok=True)
        (tmp_path / "runs").mkdir(exist_ok=True)
        for name, path in paths.items():
            document, mutated = mutations[name]
            if name == source:
                document = data.draw(mutated, label=source)
            path.write_text(json.dumps(document), encoding="utf-8")
        if files is _EVAL_FILES:
            args = ["eval", "--runs", str(paths["run_file"].parent)]
            args += ["--manifest", str(paths["eval_manifest"])]
        elif files is _INDEX_BUILD_FILES:
            args = ["index", "build", "--kb", str(paths["kb"]), "--out", str(tmp_path / "built")]
        else:
            args = [
                "extract",
                "--input", str(paths["descriptions"]),
                "--config", str(paths["config"]),
                "--index", str(tmp_path / "index"),
                "--schema", str(paths["schema"]),
            ]
        _assert_documented_outcome(run_command(args))


def _byte_mutations(data, end=None):
    """A strategy for `data` cut off, with one byte flipped, or with bytes
    inserted, at a position before `end` (default: anywhere)."""
    end = len(data) if end is None else end
    cut = st.integers(0, end).map(lambda at: data[:at])
    flipped = st.builds(
        lambda at, mask: data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :],
        st.integers(0, end - 1),
        st.integers(1, 255),
    )
    # Bytes that mean something to a CSV reader or a UTF-8 decoder, or any others.
    inserts = st.sampled_from([b'"', b",", b"\r", b"\n", b"\x00", b"\xef\xbb\xbf", b"\xff"])
    inserted = st.builds(
        lambda at, extra: data[:at] + extra + data[at:],
        st.integers(0, end),
        inserts | st.binary(min_size=1, max_size=8),
    )
    return st.one_of(cut, flipped, inserted)


def _kb_csv(corpus):
    """The corpus knowledge base as CSV bytes, one column per key."""
    records = json.loads(corpus.kb_path.read_text(encoding="utf-8"))
    out = io.StringIO(newline="")
    writer = csv.DictWriter(out, sorted({key for record in records for key in record}))
    writer.writeheader()
    writer.writerows(records)
    return out.getvalue().encode("utf-8")


class TestMutatedBytes:
    """The CSV knowledge base and the index blob's header, mutated byte by
    byte, give a documented outcome."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_csv_kb_gives_documented_outcome(self, corpus, tmp_path, data):
        kb = tmp_path / "kb.csv"
        kb.write_bytes(data.draw(_byte_mutations(_kb_csv(corpus)), label="kb.csv"))
        out_dir = tmp_path / "built"
        shutil.rmtree(out_dir, ignore_errors=True)
        _assert_documented_outcome(
            run_command(["index", "build", "--kb", str(kb), "--out", str(out_dir)])
        )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_blob_header_gives_documented_outcome(self, corpus, tmp_path, data):
        index_dir = tmp_path / "index"
        shutil.copytree(corpus.index_dir, index_dir, dirs_exist_ok=True)
        blob = (corpus.index_dir / "vectors.sfix").read_bytes()
        mutated = data.draw(_byte_mutations(blob, end=16), label="vectors.sfix")
        (index_dir / "vectors.sfix").write_bytes(mutated)
        descriptions = tmp_path / "descriptions.json"
        # Two descriptions keep each extract short.
        cases = json.loads(corpus.descriptions_path.read_text(encoding="utf-8"))[:2]
        descriptions.write_text(json.dumps(cases), encoding="utf-8")
        args = [*_extract_args(corpus), "--input", str(descriptions), "--index", str(index_dir)]
        outcome = run_command(args)
        _assert_documented_outcome(outcome)
        if outcome.exit_code == EXIT_USAGE:
            assert outcome.stderr.startswith(f"error: {index_dir}"), outcome.stderr


def _with_line_end(tree, line_end):
    """Rewrite every text file under `tree` with `line_end` for each LF."""
    for path in tree.rglob("*"):
        if path.suffix in (".json", ".txt"):
            data = path.read_bytes()
            assert b"\r" not in data, path
            path.write_bytes(data.replace(b"\n", line_end.encode()))


class TestLineEnds:
    """Text inputs read the same whatever their line ends: CRLF and a lone
    CR as LF, except in a CSV cell, which keeps the file's own."""

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_corpus_extracts_to_the_golden(self, corpus, tmp_path, request, line_end):
        twin = tmp_path / "twin"
        shutil.copytree(corpus.root, twin, ignore=shutil.ignore_patterns("index"))
        _with_line_end(twin, line_end)
        indexes = {}
        for name, kb in (("lf", corpus.kb_path), ("twin", twin / "kb.json")):
            indexes[name] = tmp_path / f"index-{name}"
            built = run_command(["index", "build", "--kb", str(kb), "--out", str(indexes[name])])
            assert built.exit_code == EXIT_OK, built.stderr
        for filename in ("vectors.sfix", "manifest.json"):
            lf_bytes = (indexes["lf"] / filename).read_bytes()
            assert (indexes["twin"] / filename).read_bytes() == lf_bytes
        _with_line_end(indexes["twin"], line_end)

        outcomes = {}
        for name, root in (("lf", corpus.root), ("twin", twin)):
            outcomes[name] = run_command([
                "extract",
                "--input", str(root / "descriptions.json"),
                "--config", str(root / "config.json"),
                "--index", str(indexes[name]),
                "--runs-out", str(tmp_path / f"{name}.run"),
            ])
        golden = request.path.parent / "data" / "extract_golden.json"
        assert outcomes["twin"].exit_code == EXIT_OK, outcomes["twin"].stderr
        assert outcomes["twin"].stdout == golden.read_text(encoding="utf-8")
        assert (tmp_path / "twin.run").read_bytes() == (tmp_path / "lf.run").read_bytes()

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_malformed_config_error_points_to_the_same_char(self, tmp_path, line_end):
        text = '{\n  "min_quorum": 1,\n  "roster": [\n    {"model_id": "a",,}\n  ]\n}\n'
        errors = {}
        for name, ends in (("lf", "\n"), ("twin", line_end)):
            config_path = tmp_path / name / "config.json"
            config_path.parent.mkdir()
            config_path.write_bytes(text.replace("\n", ends).encode())
            outcome = run_command(["config", "check", "--config", str(config_path)])
            assert outcome.exit_code == EXIT_USAGE
            errors[name] = outcome.stderr.replace(str(config_path), "<config>")
        with pytest.raises(json.JSONDecodeError, match="line 4 column 22") as lf_error:
            json.loads(text)
        assert errors["lf"] == f"error: <config>: invalid JSON: {lf_error.value}\n"
        assert errors["twin"] == errors["lf"]


# Text no JSON loader can decode: cut off, nested past the recursion limit,
# and an integer past the digits Python converts; and bytes no input file may
# hold, since they are not UTF-8.
_UNDECODABLE = {
    "truncated": b'[{"id": ',
    "too_deep": b"[" * 200_000,
    "too_many_digits": b"[" + b"9" * 5000 + b"]",
    "not_utf8": b"M8 hex bolt, \xff steel\n",
}
_JSON_SOURCES = ["config", "descriptions", "index_manifest", "kb", "manifest", "run_file", "schema"]


class TestJsonInputs:
    """Every input file the CLI reads fails the same way: exit 2, file named."""

    @pytest.mark.parametrize(
        "source, text_id",
        [(source, text_id) for source in _JSON_SOURCES for text_id in sorted(_UNDECODABLE)]
        + [("kb_csv", "not_utf8"), ("descriptions_text", "not_utf8")],
    )
    def test_undecodable_file_is_usage_error(self, corpus, tmp_path, source, text_id):
        names = {"kb_csv": "kb.csv", "descriptions_text": "descriptions.txt"}
        bad = tmp_path / names.get(source, f"{source}.json")
        runs = tmp_path / "runs"
        runs.mkdir()
        if source == "index_manifest":
            shutil.copytree(corpus.index_dir, tmp_path / "index")
            bad = tmp_path / "index" / "manifest.json"
        elif source == "run_file":
            bad = runs / "run.json"
        bad.write_bytes(_UNDECODABLE[text_id])
        flag = {
            "config": "--config",
            "descriptions": "--input",
            "descriptions_text": "--input",
            "index_manifest": "--index",
            "schema": "--schema",
        }.get(source)
        if flag:
            # The last of a repeated option wins.
            args = [*_extract_args(corpus), flag, str(bad.parent if flag == "--index" else bad)]
        elif source in ("kb", "kb_csv"):
            args = ["index", "build", "--kb", str(bad), "--out", str(tmp_path / "built")]
        else:
            manifest = bad if source == "manifest" else corpus.manifest_path
            args = ["eval", "--runs", str(runs), "--manifest", str(manifest)]
        outcome = run_command(args)
        assert outcome.exit_code == EXIT_USAGE
        if text_id == "not_utf8":
            reason = "'utf-8' codec can't decode byte 0xff in position 13"
        else:
            reason = "invalid JSON"
        assert outcome.stderr.startswith(f"error: {bad}: {reason}")
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

    def test_overflowing_weight_names_the_key(self, corpus, tmp_path):
        text = corpus.config_path.read_text(encoding="utf-8")
        data = json.loads(text)
        data["confidence_weights"] = [10**400, 0, 0]
        config_path = corpus.config_path.parent / "overflowing.json"
        config_path.write_text(json.dumps(data), encoding="utf-8")
        try:
            outcome = run_command(["config", "check", "--config", str(config_path)])
        finally:
            config_path.unlink()
        assert (outcome.exit_code, outcome.stdout) == (EXIT_USAGE, "")
        assert outcome.stderr == (
            "error: confidence_weights must be three non-negative finite numbers\n"
        )


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

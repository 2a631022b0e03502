"""Command-line entry points.

Every command writes machine-readable JSON to stdout and keeps diagnostics
on stderr, so output can be piped. Exit codes: 0 success, 1 runtime failure,
2 usage or configuration error.

`run_command` is the in-process seam: it takes argv plus an environment
mapping and returns captured output instead of touching global state, which
keeps the whole surface testable without subprocesses.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, TextIO

from .core import PartDescription, SpecSchema, check_utf8, decode_json, read_text_file
from .gateway import invoke
from .metrics import GroundTruthManifest, evaluate_run, load_runs_dir
from .orchestrator import EnsembleConfig, batch_executors, run_pipeline
from .retrieval import DEFAULT_DIMENSION, FlatIndex, HashTrigramEmbedder, ingest_records

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# Bad input of any kind is a usage error; ConfigError, FormatError and
# MetricError are ValueErrors too.
_USAGE_ERRORS = (
    ValueError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    stdout: str
    stderr: str


def run_command(
    argv: Sequence[str],
    env: Mapping[str, str] | None = None,
    stdin: TextIO | None = None,
) -> CommandOutcome:
    """Run one CLI invocation in-process and capture its output."""
    out = io.StringIO()
    err = io.StringIO()
    environ = os.environ if env is None else env
    input_stream = sys.stdin if stdin is None else stdin

    handler = logging.StreamHandler(err)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package_logger = logging.getLogger(__name__.rsplit(".", 1)[0])
    package_logger.addHandler(handler)
    previous_level = package_logger.level
    package_logger.setLevel(logging.INFO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = _build_parser().parse_args(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else EXIT_USAGE if exc.code else EXIT_OK
                return CommandOutcome(code, out.getvalue(), err.getvalue())
            try:
                code = args.handler(args, out, err, environ, input_stream)
            except _USAGE_ERRORS as exc:
                err.write(f"error: {exc}\n")
                code = EXIT_USAGE
            except Exception as exc:  # noqa: BLE001 - CLI boundary reports, never crashes
                err.write(f"error: {exc}\n")
                code = EXIT_RUNTIME
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(previous_level)
    return CommandOutcome(code, out.getvalue(), err.getvalue())


def main() -> int:
    outcome = run_command(sys.argv[1:])
    sys.stdout.write(outcome.stdout)
    sys.stderr.write(outcome.stderr)
    return outcome.exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partspec",
        description="Retrieval-grounded multi-model extraction of part specifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    index_parser = sub.add_parser("index", help="knowledge-base index operations")
    index_sub = index_parser.add_subparsers(dest="index_command", required=True)
    build = index_sub.add_parser("build", help="embed a knowledge base into a search index")
    build.add_argument("--kb", required=True, help="CSV or JSON knowledge-base file")
    build.add_argument("--out", required=True, help="directory to write the index into")
    build.add_argument("--format", choices=("csv", "json"), help="override format inference")
    build.add_argument(
        "--dimension", type=int, default=DEFAULT_DIMENSION, help="embedding dimension"
    )
    build.set_defaults(handler=_cmd_index_build)

    extract = sub.add_parser("extract", help="run the extraction pipeline")
    extract.add_argument(
        "--input", required=True, help="description file (JSON array or text lines); '-' for stdin"
    )
    extract.add_argument("--config", required=True, help="ensemble configuration JSON")
    extract.add_argument("--index", required=True, help="directory holding a built index")
    extract.add_argument("--out", help="write the spec documents here instead of stdout")
    extract.add_argument("--schema", help="output schema JSON (defaults to the built-in schema)")
    extract.add_argument(
        "--runs-out", dest="runs_out", help="also write a run file consumable by 'eval'"
    )
    extract.add_argument(
        "--system-id", dest="system_id", default="ensemble", help="system id for the run file"
    )
    extract.set_defaults(handler=_cmd_extract)

    eval_parser = sub.add_parser("eval", help="score run files against ground truth")
    eval_parser.add_argument("--runs", required=True, help="directory of *.json run files")
    eval_parser.add_argument("--manifest", required=True, help="ground-truth manifest JSON")
    eval_parser.add_argument("--out", help="write the report JSON here instead of stdout")
    eval_parser.set_defaults(handler=_cmd_eval)

    config_parser = sub.add_parser("config", help="configuration utilities")
    config_sub = config_parser.add_subparsers(dest="config_command", required=True)
    check = config_sub.add_parser("check", help="validate an ensemble configuration")
    check.add_argument("--config", required=True, help="ensemble configuration JSON")
    check.set_defaults(handler=_cmd_config_check)

    return parser


def _cmd_index_build(
    args: argparse.Namespace,
    out: TextIO,
    err: TextIO,
    env: Mapping[str, str],
    stdin: TextIO,
) -> int:
    records = ingest_records(args.kb, args.format)
    index = FlatIndex.build(records, HashTrigramEmbedder(args.dimension))
    index.save(args.out)
    summary = {"indexed": index.count, "dimension": index.dimension, "out": str(args.out)}
    out.write(json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_extract(
    args: argparse.Namespace,
    out: TextIO,
    err: TextIO,
    env: Mapping[str, str],
    stdin: TextIO,
) -> int:
    config = EnsembleConfig.from_file(args.config)
    schema = SpecSchema.from_file(args.schema) if args.schema else SpecSchema.default()
    index = FlatIndex.load(args.index)
    descriptions = _read_descriptions(args.input, stdin)

    # Credentials are read from `env` here and nowhere else in the pipeline.
    invoke_fn = partial(invoke, env=env)
    run_one = partial(run_pipeline, config=config, index=index, schema=schema, invoke_fn=invoke_fn)
    # map keeps the input order.
    with batch_executors(config, invoke_fn) as (batch, calls):
        results = list(batch.map(partial(run_one, executor=calls), descriptions))

    documents: list[dict[str, Any]] = []
    for result in results:
        if result.final is not None:
            documents.append(result.final.to_dict())
        else:
            assert result.quorum_failure is not None
            documents.append(
                {
                    "description_id": result.description_id,
                    "error": {"kind": "quorum_not_met", **result.quorum_failure.to_dict()},
                }
            )
    rendered = json.dumps(documents, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_file(args.out, rendered)
        err.write(f"wrote {len(documents)} documents to {args.out}\n")
    else:
        out.write(rendered)

    if args.runs_out:
        run_doc = {"system_id": args.system_id, "descriptions": [r.to_dict() for r in results]}
        _write_file(args.runs_out, json.dumps(run_doc, sort_keys=True) + "\n")
        err.write(f"wrote run file to {args.runs_out}\n")

    failed = sum(1 for result in results if result.final is None)
    if failed:
        err.write(f"{failed} of {len(results)} descriptions did not reach quorum\n")
    return EXIT_RUNTIME if failed == len(results) else EXIT_OK


def _write_file(path: str, text: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


def _read_descriptions(source: str, stdin: TextIO) -> list[PartDescription]:
    """Parse descriptions from a JSON array or plain text, one per line."""
    if source == "-":
        text = stdin.read()
    else:
        text = read_text_file(source)
    descriptions: list[PartDescription] = []
    # A byte order mark still marks a JSON array: json refuses it, naming the file.
    if text.removeprefix("\ufeff").lstrip().startswith("["):
        data = decode_json(text, "<stdin>" if source == "-" else source)
        seen: set[str] = set()
        for position, item in enumerate(data):
            item_text = item.get("text") if isinstance(item, Mapping) else None
            if not isinstance(item_text, str) or "id" not in item:
                raise ValueError(f"input item {position} must be an object with id and text")
            description_id, category = item["id"], item.get("category")
            if not isinstance(description_id, str):
                raise ValueError(f"input item {position}: id must be a string")
            if not isinstance(category, (str, type(None))):
                raise ValueError(f"input item {position}: category must be a string or null")
            if description_id in seen:
                raise ValueError(f"input item {position} repeats description id {description_id!r}")
            check_utf8(item_text, f"input item {position}: text")
            seen.add(description_id)
            descriptions.append(PartDescription(description_id, item_text, category or None))
    else:
        # As utf-8-sig would, drop a byte order mark; str.strip() keeps it.
        stripped = (line.strip() for line in text.removeprefix("\ufeff").splitlines())
        for position, line in enumerate((line for line in stripped if line), start=1):
            check_utf8(line, f"input line {position}: text")
            descriptions.append(PartDescription(f"line-{position}", line))
    if not descriptions:
        raise ValueError("input contains no descriptions")
    return descriptions


def _cmd_eval(
    args: argparse.Namespace,
    out: TextIO,
    err: TextIO,
    env: Mapping[str, str],
    stdin: TextIO,
) -> int:
    manifest = GroundTruthManifest.from_file(args.manifest)
    runs = load_runs_dir(args.runs)
    reports, table = evaluate_run(runs, manifest)
    payload = {"reports": [report.to_dict() for report in reports], "table": table}
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_file(args.out, rendered)
        err.write(f"wrote report to {args.out}\n")
    else:
        out.write(rendered)
    err.write(table + "\n")
    return EXIT_OK


def _cmd_config_check(
    args: argparse.Namespace,
    out: TextIO,
    err: TextIO,
    env: Mapping[str, str],
    stdin: TextIO,
) -> int:
    config = EnsembleConfig.from_file(args.config)
    summary = {
        "ok": True,
        "models": len(config.roster),
        "synthesis_model": config.synthesis_model,
        "research_models": list(config.research_models),
    }
    out.write(json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

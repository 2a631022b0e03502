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
import gc
import io
import json
import logging
import marshal
import os
import sys
import threading
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, BinaryIO, NoReturn, TextIO

from .core import (
    PartDescription,
    SpecSchema,
    check_utf8,
    decode_json,
    json_object,
    read_text_file,
    text_mode_line_ends,
)
from .gateway import invoke
from .orchestrator import EnsembleConfig, PipelineResult, batch_executors, calls_wait, run_pipeline
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
    package_logger = logging.getLogger(__package__)  # `__name__` is "__main__" under -m
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


def script() -> NoReturn:
    """The `partspec` program: `main()`, then exit with its code. The process
    is ending, so nothing left needs collecting: freezing every object first
    spares the interpreter's exit-time collections. `main()` and
    `run_command` callers keep their collector as it was."""
    code = main()
    gc.freeze()
    raise SystemExit(code)


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

    def render_share(share: Sequence[PartDescription]) -> list[tuple[str, str, bool]]:
        # Opened here, a forked share's threads and connections are its own.
        with batch_executors(config, invoke_fn) as (batch, calls):
            render = partial(_render_one, partial(run_one, executor=calls), bool(args.runs_out))
            return list(batch.map(render, share))

    most = _MOST_WAITING_SHARES if calls_wait(config, invoke_fn) else sys.maxsize
    # Results keep the input order.
    documents, entries, reached = zip(*_map_in_shares(render_share, descriptions, most))

    text = _join_documents(documents)
    if args.out:
        _write_file(args.out, text)
        err.write(f"wrote {len(documents)} documents to {args.out}\n")
    else:
        out.write(text)

    if args.runs_out:
        _write_file(args.runs_out, _join_run_file(args.system_id, entries))
        err.write(f"wrote run file to {args.runs_out}\n")

    failed = reached.count(False)
    if failed:
        err.write(f"{failed} of {len(reached)} descriptions did not reach quorum\n")
    return EXIT_RUNTIME if failed == len(reached) else EXIT_OK


def _render_one(
    run_one: Callable[[PartDescription], PipelineResult],
    with_entry: bool,
    description: PartDescription,
) -> tuple[str, str, bool]:
    """Run one description and encode it: its stdout document as an element
    of `_join_documents`, its run-file entry (empty unless `with_entry`) and
    whether it reached quorum."""
    result = run_one(description)
    if result.final is not None:
        document = result.final.to_dict()
    else:
        assert result.quorum_failure is not None
        document = {
            "description_id": result.description_id,
            "error": {"kind": "quorum_not_met", **result.quorum_failure.to_dict()},
        }
    return _indented(document), result.to_json() if with_entry else "", result.final is not None


def _indented(document: Any, margin: str = "  ") -> str:
    """`json.dumps(document, indent=2, sort_keys=True)` with `margin` after
    each line break: by default, the document as it reads one level into a
    list. CPython encodes `indent=2` in pure Python; this encoder writes the
    same bytes in well under half the time. It encodes dicts with string
    keys, lists, tuples, strings, ints, floats, booleans and None, the
    values every `to_dict` builds, and raises TypeError on anything else."""
    parts: list[str] = []
    _encode(document, "\n" + margin, parts)
    return "".join(parts)


_encode_string = json.encoder.encode_basestring_ascii
# float.__repr__ of the values json writes as JavaScript constants.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(value: Any, newline: str, parts: list[str]) -> None:
    """Append `value`'s fragments to `parts`, each line break written as
    `newline`."""
    kind = type(value)
    if kind is str:
        parts.append(_encode_string(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        parts.append("{")
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(f"{inner}{_encode_string(key)}: ")
            _encode(value[key], inner, parts)
            parts.append(",")
        parts[-1] = newline + "}"
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        parts.append("[")
        for item in value:
            parts.append(inner)
            _encode(item, inner, parts)
            parts.append(",")
        parts[-1] = newline + "]"
    elif kind is float:
        text = float.__repr__(value)
        parts.append(_NON_FINITE.get(text, text))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _join_documents(documents: Sequence[str]) -> str:
    """The stdout text: `json.dumps(docs, indent=2, sort_keys=True)` and a
    newline, given a non-empty list of documents `_indented` encoded."""
    return "[\n  " + ",\n  ".join(documents) + "\n]\n"


def _join_run_file(system_id: str, entries: Sequence[str]) -> str:
    """The run file: `json.dumps({"system_id": ..., "descriptions": ...},
    sort_keys=True)` and a newline, given entries `PipelineResult.to_json`
    encoded."""
    system = json.dumps(system_id)
    return '{"descriptions": [' + ", ".join(entries) + '], "system_id": ' + system + "}\n"


# Fewest descriptions worth a process of their own. Below this, forking and
# the copy-on-write faults it brings on cost more than the share saves.
_MIN_SHARE = 24

# Most shares for a batch whose provider calls may wait. Each share keeps
# `orchestrator.BATCH_WIDTH` = 8 descriptions in flight, so one batch sends a
# provider at most 16 requests at once, however many CPUs there are.
_MOST_WAITING_SHARES = 2


def _share_count(items: int, most: int = sys.maxsize) -> int:
    """Processes for a batch of `items`: one per usable CPU, each with at
    least `_MIN_SHARE` items, and no more than `most`. A batch whose
    providers answer quickly is CPU work on one interpreter lock per process,
    whatever its threads wait on. Only this one where the platform cannot
    fork, or while other threads run: a child holds a copy of the calling
    thread alone, so a lock another thread held stays held there."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), items // _MIN_SHARE, most))


def _map_in_shares(
    fn: Callable[[Sequence[Any]], list[Any]], items: Sequence[Any], most: int = sys.maxsize
) -> list[Any]:
    """`fn(items)`, for an `fn` that returns one result per item in order,
    computed by calling `fn` once on each of `_share_count(len(items), most)`
    contiguous shares.

    This process runs the first share. Each other share runs in a forked
    child, which sends back only its results, which must be plain values
    `marshal` can encode, and the log records it emitted. The parent
    re-emits those records share by share, so the log reads as if this
    process had run the shares one after another. A share that raises fails
    the batch with its own message; every child is reaped on every path.
    """
    shares = _share_count(len(items), most)
    if shares == 1:
        return fn(items)
    cuts = [len(items) * share // shares for share in range(shares + 1)]
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end), in share order
    try:
        # Frozen objects are left alone by the children's collector, so their
        # pages stay shared instead of being copied on the first collection.
        gc.freeze()
        try:
            for share in range(1, shares):
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
                    raise
                if pid == 0:
                    _run_child_share(fn, items[cuts[share] : cuts[share + 1]], write_end)
                os.close(write_end)
                children.append((pid, open(read_end, "rb")))
        finally:
            gc.unfreeze()
        results = fn(items[: cuts[1]])
        for share in range(1, shares):
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            results.extend(_share_results(payload, status, cuts[share], cuts[share + 1]))
        return results
    finally:
        if children:
            import signal  # only a failed batch has children left to stop

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_child_share(
    fn: Callable[[Sequence[Any]], list[Any]], items: Sequence[Any], write_end: int
) -> NoReturn:
    """In a forked child: call `fn` on `items`, send the outcome to the
    parent through `write_end` and leave without running any exit handler."""
    code = 1
    try:
        records = _RecordList()
        # Every record the package emits, whichever handlers the parent has:
        # the parent passes each one on as if it had been emitted there.
        package_logger = logging.getLogger(__package__)
        package_logger.handlers = [records]
        package_logger.propagate = False
        try:
            payload = (fn(items), records.records, None)
        except BaseException as exc:  # noqa: BLE001 - the parent reports it
            error = (str(exc), isinstance(exc, _USAGE_ERRORS))
            payload = (None, records.records, error)
        with open(write_end, "wb") as pipe:
            pipe.write(marshal.dumps(payload))
        code = 0
    finally:
        os._exit(code)


class _RecordList(logging.Handler):
    """Keeps each record as the plain values `logging.makeLogRecord` needs
    to rebuild it, its arguments merged into the message and its
    traceback formatted."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[dict[str, Any]] = []

    def emit(self, record: logging.LogRecord) -> None:
        trace = logging.Formatter().formatException(record.exc_info) if record.exc_info else None
        self.records.append(
            {
                "name": record.name,
                "levelno": record.levelno,
                "levelname": record.levelname,
                "msg": record.getMessage(),
                "exc_text": trace,
            }
        )


def _share_results(payload: bytes, status: int, first: int, end: int) -> list[Any]:
    """A child's results, after re-emitting its log records; raises what
    the child raised, or reports a child that ended without a result."""
    try:
        results, records, error = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        code = os.waitstatus_to_exitcode(status)
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(
            f"the process running descriptions {first + 1}-{end} ended without a result ({how})"
        ) from None
    for record in records:
        logging.getLogger(record["name"]).handle(logging.makeLogRecord(record))
    if error is not None:
        message, usage = error
        raise (ValueError if usage else RuntimeError)(message)
    return results


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
            try:
                arguments = json_object(PartDescription, item, "input item")
                if arguments.get("category") == "":  # an empty category reads as null
                    arguments["category"] = None
                description = PartDescription(**arguments)
                check_utf8(description.text, "text")
            except ValueError as exc:
                raise ValueError(f"input item {position}: {exc}") from None
            if description.id in seen:
                raise ValueError(f"input item {position} repeats description id {description.id!r}")
            seen.add(description.id)
            descriptions.append(description)
    else:
        # strip() keeps a byte order mark (utf-8-sig drops it); splitlines() also splits at U+2028.
        text = text_mode_line_ends(text.removeprefix("\ufeff"))
        stripped = (line.strip() for line in text.split("\n"))
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
    from .metrics import GroundTruthManifest, evaluate_run, load_runs_dir  # eval alone scores

    manifest = GroundTruthManifest.from_file(args.manifest)
    runs = load_runs_dir(args.runs)
    reports, table = evaluate_run(runs, manifest)
    payload = {"reports": [report.to_dict() for report in reports], "table": table}
    rendered = _indented(payload, "") + "\n"
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
    script()

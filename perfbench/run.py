"""partspec benchmark: end-to-end and per-layer, on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the program is imported from `src/` and the
24-description replay corpus from `tests/corpusgen.py`. Every input is
generated from the seed into a scratch directory inside the checkout
(`.perfbench_work/`, removed on exit). Before any number is reported, each
batch is checked against the generator's truth and the corpus extract
against `tests/data/extract_golden.json`, byte for byte.

Each workload is a closed loop with one caller in one process. With
`--trace 0` the run measures, interleaved for about S seconds:

- `partspec extract --runs-out` over the whole batch as a fresh child
  process (throughput_dps, peak_rss_mb from the child's rusage);
- `run_pipeline` called once per description in this process, in at least
  two passes; a description's latency is the median of its passes
  (latency_p50_ms, latency_p90_ms over descriptions);
- a fresh process that imports partspec and loads config and index
  (setup_s);
- `partspec index build` over the workload's knowledge base as a fresh
  child process (index_build_s);
- a fixed pure-Python loop, whose median goes to the record line as a
  measure of the machine's speed during the run.

With `--trace 1` it runs `extract`, `index build` and `evaluate_run` in this
process with span wrappers installed (see tracing.py) and reports the
per-layer metrics plus the tracing overhead.

The last stdout line is the result object; the line before it records the
machine and the workload set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

import numpy
import requests

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"
GOLDEN = TESTS / "data" / "extract_golden.json"
WORK_ROOT = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 150.0
# Share of the measuring time each timed operation gets. Operations
# interleave, so machine speed drifting during a run reaches every metric.
SHARES = {"extract": 0.3, "pipeline": 0.25, "setup": 0.15, "index_build": 0.28,
          "reference": 0.02}
# Descriptions per in-process pipeline step; a step is one slice of a pass.
PIPELINE_STEP = 20
# Fewest full passes over the descriptions for the latency figures.
PIPELINE_PASSES = 2
SETUP_CODE = (
    "import sys, partspec.cli as cli; "
    "cli.EnsembleConfig.from_file(sys.argv[1]); cli.FlatIndex.load(sys.argv[2])"
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in (SRC / "partspec", TESTS / "corpusgen.py", GOLDEN)
               if not p.exists()]
    if missing:
        print(f"error: not a partspec checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    import workload as workloads  # noqa: PLC0415 - needs src/ and tests/ on sys.path

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        bench = Bench(workloads.generate(args.workload, args.seed), work)
        try:
            metrics = bench.run_traced(args.seconds) if args.trace else bench.run(args.seconds)
        finally:
            bench.close()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"record": bench.record}, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def percentile(values: list[float], q: float) -> float:
    return float(numpy.percentile(values, q))


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": requests.__version__,
    }


class Bench:
    """One workload in one scratch directory: inputs, gates and timings."""

    def __init__(self, workload, work: Path) -> None:
        from partspec.core import SpecSchema

        self.workload = workload
        self.work = work
        self.schema = SpecSchema.default()
        self.attempted = 0
        self.failed = 0
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(work)}
        self.stub: subprocess.Popen | None = None
        self.endpoint: str | None = None
        self.reference_output: tuple[bytes, bytes] | None = None
        self.record = {
            "machine": machine_info(),
            "workload": workload.spec.name,
            "seed": workload.seed,
            "descriptions": len(workload.cases),
            "kb_records": workload.spec.kb_records,
            "planned_quorum_misses": len(workload.quorum_misses),
            "planned_faults": sum(len(f) for f in workload.faults.values()),
            "loop": "closed, one caller, one process",
        }

    # --- set-up -----------------------------------------------------------

    def prepare(self) -> None:
        """Golden gate, inputs, index and providers; nothing here is timed."""
        self.golden_gate()
        if self.workload.spec.http:
            self.start_stub()
        from workload import write_inputs

        self.paths = write_inputs(self.workload, self.work / "inputs", self.endpoint)
        self.index_dir = self.work / "inputs" / "index"
        self.extract_argv = [
            "extract",
            "--input", str(self.paths["descriptions"]),
            "--config", str(self.paths["config"]),
            "--index", str(self.index_dir),
            "--runs-out", str(self.work / "runs" / "run.json"),
        ]

    def record_fixtures(self) -> None:
        """Replay workloads: record every reply through the real pipeline."""
        from partspec.core import PartDescription
        from partspec.gateway import fixture_path, invoke
        from partspec.orchestrator import EnsembleConfig, run_pipeline
        from partspec.retrieval import FlatIndex

        workload = self.workload

        def recording_invoke(provider, request, env=None):
            path = fixture_path(provider.fixtures_dir, provider.model_id, request.user_text)
            if not path.is_file():
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(workload.reply(provider.model_id, request.user_text),
                                encoding="utf-8")
            return invoke(provider, request, env=env)

        config = EnsembleConfig.from_file(self.paths["config"])
        index = FlatIndex.load(self.index_dir)
        for case in workload.cases:
            run_pipeline(PartDescription(case.description_id, case.text, case.category),
                         config, index, self.schema, invoke_fn=recording_invoke)
        fixtures = self.paths["config"].parent / "fixtures"
        self.record["fixtures"] = sum(1 for _ in fixtures.rglob("*.txt"))

    def start_stub(self) -> None:
        plan = self.work / "stub-workload.json"
        plan.write_text(self.workload.to_json(), encoding="utf-8")
        self.stub = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub.py")), str(plan)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True,
        )
        line = self.stub.stdout.readline()
        if not line:
            raise BenchError("stub server did not start")
        port = json.loads(line)["port"]
        self.endpoint = f"http://127.0.0.1:{port}/v1/chat/completions"
        self.record["fixtures"] = 0

    def stub_stats(self) -> dict:
        if self.stub is None:
            return {"requests": 0, "connections": 0}
        self.stub.stdin.write("stats\n")
        self.stub.stdin.flush()
        return json.loads(self.stub.stdout.readline())

    def close(self) -> None:
        if self.stub is not None:
            try:
                self.stub.stdin.close()
                self.stub.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None

    # --- child processes ------------------------------------------------

    def child(self, argv: list[str], stdout: Path | None = None) -> tuple[float, float, bytes]:
        """Run python with argv; return wall seconds, peak RSS in MB and stdout."""
        out_path = stdout or self.work / "child.out"
        err_path = self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            detail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"child {argv[:4]} exited {proc.returncode}: {detail}")
        return wall, usage.ru_maxrss / 1024.0, out_path.read_bytes()

    # --- correctness ------------------------------------------------------

    def golden_gate(self) -> None:
        """The 24-description corpus must reproduce the frozen extract bytes."""
        import corpusgen

        corpus = corpusgen.build_workspace(self.work / "golden")
        _, _, stdout = self.child([
            "-m", "partspec.cli", "extract",
            "--input", str(corpus.descriptions_path),
            "--config", str(corpus.config_path),
            "--index", str(corpus.index_dir),
        ])
        golden = GOLDEN.read_bytes()
        expected = json.loads(golden)
        self.attempted += len(expected)
        if stdout != golden:
            try:
                got = json.loads(stdout)
            except ValueError:
                got = []
            wrong = sum(1 for i, doc in enumerate(expected) if i >= len(got) or got[i] != doc)
            self.failed += max(1, wrong)
            print(f"golden gate: {max(1, wrong)} documents differ from the golden",
                  file=sys.stderr)

    def check_documents(self, documents: list[dict], source: str) -> None:
        cases = self.workload.cases
        self.attempted += len(cases)
        if len(documents) != len(cases):
            self.failed += len(cases)
            print(f"{source}: {len(documents)} documents for {len(cases)} descriptions",
                  file=sys.stderr)
            return
        for case, document in zip(cases, documents):
            problem = self.workload.check_document(case, document)
            if problem is not None:
                self.failed += 1
                print(f"{source}: {case.description_id}: {problem}", file=sys.stderr)

    def check_batch(self, stdout: bytes, source: str) -> None:
        """Check one extract batch; later batches must repeat the first byte for byte."""
        output = (stdout, (self.work / "runs" / "run.json").read_bytes())
        if self.reference_output is None:
            self.reference_output = output
        elif output != self.reference_output:
            print(f"{source}: output differs from the first batch of this seed",
                  file=sys.stderr)
            self.attempted += 1
            self.failed += 1
        self.check_documents(json.loads(stdout), source)

    def check_result(self, case, result) -> None:
        document = (result.final.to_dict() if result.final is not None
                    else {"description_id": result.description_id,
                          "error": {"kind": "quorum_not_met"}})
        self.attempted += 1
        problem = self.workload.check_document(case, document)
        if problem is not None:
            self.failed += 1
            print(f"run_pipeline: {case.description_id}: {problem}", file=sys.stderr)

    def eval_gate(self, tracer=None) -> None:
        """evaluate_run scores coverage 1.0 on descriptions that reached quorum."""
        from partspec.metrics import GroundTruthManifest, SystemRun, evaluate_run, load_runs_dir

        manifest = GroundTruthManifest.from_file(self.paths["manifest"])
        with span(tracer, "metrics.load_runs_dir"):
            runs = load_runs_dir(self.work / "runs")
        with span(tracer, "metrics.evaluate_run"):
            evaluate_run(runs, manifest)
        reached = [d for d in runs[0].descriptions if d.final_fields is not None]
        self.attempted += len(reached)
        planned = len(self.workload.cases) - len(self.workload.quorum_misses)
        if len(reached) != planned:
            self.failed += abs(len(reached) - planned)
        if reached:
            reports, _ = evaluate_run([SystemRun(runs[0].system_id, tuple(reached))], manifest)
            if reports[0].ics != 1.0:
                wrong = [d for d in reached
                         if set(manifest.entry(d.description_id).expected_fields)
                         - set(d.final_fields)]
                self.failed += max(1, len(wrong))
                print(f"eval: coverage {reports[0].ics} on quorum-reaching descriptions",
                      file=sys.stderr)

    # --- untraced run -----------------------------------------------------

    def run(self, seconds: float) -> dict:
        from partspec.core import PartDescription
        from partspec.orchestrator import EnsembleConfig, run_pipeline
        from partspec.retrieval import FlatIndex

        prepare_started = time.perf_counter()
        self.prepare()
        # Warm-up: compile bytecode and fill the page cache.
        self.child(["-c", "import partspec.cli"])
        # The first timed index build writes the index every later step uses.
        first_build, _, _ = self.child(["-m", "partspec.cli", "index", "build",
                                        "--kb", str(self.paths["kb"]),
                                        "--out", str(self.index_dir)])
        if not self.workload.spec.http:
            self.record_fixtures()

        config = EnsembleConfig.from_file(self.paths["config"])
        index = FlatIndex.load(self.index_dir)
        descriptions = [(case, PartDescription(case.description_id, case.text, case.category))
                        for case in self.workload.cases]
        samples: dict[str, list[float]] = {"extract": [], "rss": [], "latency": [],
                                           "setup": [], "index_build": [first_build],
                                           "reference": []}
        self.record["prepare_s"] = time.perf_counter() - prepare_started

        def extract() -> None:
            wall, rss, stdout = self.child(["-m", "partspec.cli", *self.extract_argv])
            samples["extract"].append(wall)
            samples["rss"].append(rss)
            self.check_batch(stdout, "extract")

        steps = itertools.cycle(range(0, len(descriptions), PIPELINE_STEP))
        latency: list[list[float]] = [[] for _ in descriptions]

        def pipeline() -> None:
            start = next(steps)
            for position in range(start, min(start + PIPELINE_STEP, len(descriptions))):
                case, description = descriptions[position]
                started = time.perf_counter()
                result = run_pipeline(description, config, index, self.schema)
                latency[position].append(time.perf_counter() - started)
                self.check_result(case, result)

        def setup() -> None:
            wall, _, _ = self.child(["-c", SETUP_CODE, str(self.paths["config"]),
                                     str(self.index_dir)])
            samples["setup"].append(wall)

        def reference() -> None:
            started = time.perf_counter()
            reference_loop()
            samples["reference"].append(time.perf_counter() - started)

        def index_build() -> None:
            out = self.work / "index-rebuild"
            wall, _, _ = self.child(["-m", "partspec.cli", "index", "build",
                                     "--kb", str(self.paths["kb"]), "--out", str(out)])
            shutil.rmtree(out)
            samples["index_build"].append(wall)

        # At least: two batches, two full pipeline passes, five set-ups, four
        # index builds and ten reference loops, however long they take.
        steps_per_pass = -(-len(descriptions) // PIPELINE_STEP)
        run_schedule(seconds, {"extract": (extract, 2),
                               "pipeline": (pipeline, PIPELINE_PASSES * steps_per_pass),
                               "setup": (setup, 5), "index_build": (index_build, 4),
                               "reference": (reference, 10)},
                     done={"index_build": first_build})
        self.eval_gate()
        # Each description's latency is the median over its passes, so a slow
        # moment of the machine moves one sample of a description, not the tail.
        samples["latency"] = [median(values) for values in latency]
        n = len(self.workload.cases)
        self.record["samples"] = {name: len(values) for name, values in samples.items()
                                  if name != "rss"}
        self.record["latency_passes"] = min(len(values) for values in latency)
        self.record["reference_loop_ms"] = median(samples["reference"]) * 1e3
        self.record["error_ratio"] = self.failed / self.attempted
        return {
            "throughput_dps": metric(n / median(samples["extract"]), "1/s"),
            "latency_p50_ms": metric(percentile(samples["latency"], 50) * 1e3, "ms"),
            "latency_p90_ms": metric(percentile(samples["latency"], 90) * 1e3, "ms"),
            "setup_s": metric(median(samples["setup"]), "s"),
            "index_build_s": metric(median(samples["index_build"]), "s"),
            "peak_rss_mb": metric(median(samples["rss"]), "MB"),
            "correct_ratio": metric((self.attempted - self.failed) / self.attempted, "ratio"),
        }

    # --- traced run -------------------------------------------------------

    def run_traced(self, seconds: float) -> dict:
        from partspec.cli import run_command

        import tracing

        self.prepare()
        build_tracer = tracing.Tracer()
        with tracing.instrument(build_tracer, self.workload.description_id):
            with build_tracer.span("cli.index_build"):
                outcome = run_command(["index", "build", "--kb", str(self.paths["kb"]),
                                       "--out", str(self.index_dir)])
        if outcome.exit_code != 0:
            raise BenchError(f"index build failed: {outcome.stderr[-2000:]}")
        if not self.workload.spec.http:
            self.record_fixtures()

        def extract() -> tuple[float, str]:
            started = time.perf_counter()
            outcome = run_command(self.extract_argv)
            wall = time.perf_counter() - started
            if outcome.exit_code != 0:
                raise BenchError(f"extract failed: {outcome.stderr[-2000:]}")
            return wall, outcome.stdout

        # Alternate untraced and traced batches; per-layer figures come from
        # the last traced batch, the overhead from the medians.
        untraced: list[float] = []
        traced: list[float] = []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            wall, stdout = extract()
            untraced.append(wall)
            self.check_batch(stdout.encode("utf-8"), "extract untraced")
            tracer = tracing.Tracer()
            before = self.stub_stats()
            with tracing.instrument(tracer, self.workload.description_id):
                with tracer.span("cli.extract"):
                    wall, stdout = extract()
            after = self.stub_stats()
            traced.append(wall)
            self.check_batch(stdout.encode("utf-8"), "extract traced")

        self.eval_gate(tracer)
        documents = json.loads(stdout)
        overhead = median(traced) - median(untraced)
        self.record["samples"] = {"traced": len(traced), "untraced": len(untraced)}
        self.record["trace_overhead_ms"] = overhead * 1e3
        self.record["error_ratio"] = self.failed / self.attempted
        http = {key: after[key] - before[key] for key in after}
        return layer_metrics(tracer, build_tracer, documents, http, overhead, median(untraced))


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def reference_loop() -> int:
    """Fixed pure-Python work, timed to record the machine's speed during a run."""
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def run_schedule(seconds: float, operations: dict, done: dict[str, float]) -> None:
    """Fair-share loop: always run the operation least far on its way to done.

    `operations` maps a name to (callable, minimum runs). An operation is
    done once it has had its share of `seconds` and its minimum number of
    runs; its progress is the lesser of those two fractions, so runs that
    only a minimum asks for spread over the loop instead of bunching at its
    end. `done` holds the time of one earlier run per name.
    """
    spent = {name: done.get(name, 0.0) for name in operations}
    reps = {name: int(name in done) for name in operations}

    def progress(name: str) -> float:
        return min(spent[name] / (SHARES[name] * seconds), reps[name] / operations[name][1])

    while True:
        due = [name for name in operations if progress(name) < 1.0]
        if not due:
            return
        name = min(due, key=progress)
        started = time.perf_counter()
        operations[name][0]()
        spent[name] += time.perf_counter() - started
        reps[name] += 1


def layer_metrics(tracer, build_tracer, documents, http, overhead, untraced_wall) -> dict:
    """Per-layer figures from the spans and counters of one traced batch."""
    from tracing import self_times

    spans = tracer.spans
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def pct(values: list[float], q: float, scale: float) -> float:
        return percentile(values, q) * scale if values else 0.0

    def p(name: str, q: float, scale: float) -> float:
        return pct([s.end - s.start for s in by_name.get(name, ())], q, scale)

    def total(name: str, source=None) -> float:
        source = by_name if source is None else source
        return sum(s.end - s.start for s in source.get(name, ()))

    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    n = max(1, len(by_name.get("orchestrator.run_pipeline", ())))
    pipeline_time = total("orchestrator.run_pipeline") or 1.0
    calls = by_name.get("gateway.complete", [])
    wait = 0.0
    fanout_overhead: list[float] = []
    consistency: list[float] = []
    for index, s in enumerate(spans):
        kids = children.get(index, ())
        slowest = max((c.end - c.start for c in kids if c.name == "gateway.complete"),
                      default=0.0)
        if s.name in ("orchestrator.extract_phase", "orchestrator.research_phase"):
            searched = sum(c.end - c.start for c in kids if c.name == "retrieval.search")
            fanout_overhead.append((s.end - s.start) - searched - slowest)
            wait += slowest
        elif s.name == "synthesis.synthesize_spec":
            wait += slowest
            resolved = max((c.end for c in kids if c.name == "synthesis.resolve_field"),
                           default=s.start)
            consistency.append(s.end - resolved)
    failed = tracer.counts
    build_by_name: dict[str, list] = {}
    for s in build_tracer.spans:
        build_by_name.setdefault(s.name, []).append(s)
    synthesized = [d for d in documents if "error" not in d]
    applied = sum(1 for d in synthesized
                  if d["provenance"]["synthesis_pass"].startswith("applied"))
    selfs = self_times(spans)
    root = total("cli.extract")
    embeds = [s for s in by_name.get("retrieval.embed_text", ()) if s.desc is not None]

    out = {
        "retrieval.embed_us_p50": (pct([s.end - s.start for s in embeds], 50, 1e6), "us"),
        "retrieval.embed_calls_per_desc": (len(embeds) / n, "count"),
        "retrieval.search_ms_p50": (p("retrieval.search", 50, 1e3), "ms"),
        "retrieval.search_ms_p90": (p("retrieval.search", 90, 1e3), "ms"),
        "retrieval.search_share": (total("retrieval.search") / pipeline_time, "ratio"),
        "retrieval.ingest_s": (total("retrieval.ingest_records", build_by_name), "s"),
        "retrieval.index_embed_s": (total("retrieval.index_build", build_by_name), "s"),
        "retrieval.index_save_s": (total("retrieval.index_save", build_by_name), "s"),
        "retrieval.index_load_s": (total("retrieval.index_load"), "s"),
        "gateway.call_ms_p50": (p("gateway.complete", 50, 1e3), "ms"),
        "gateway.call_ms_p90": (p("gateway.complete", 90, 1e3), "ms"),
        "gateway.calls_per_desc": (len(calls) / n, "count"),
        "gateway.attempts_per_call": (len(calls) / max(1, len(tracer.requests)), "count"),
        "gateway.failed_calls.timeout": (failed["failed.timeout"], "count"),
        "gateway.failed_calls.transport": (failed["failed.transport"], "count"),
        "gateway.failed_calls.parse_error": (failed["failed.parse_error"], "count"),
        "gateway.parse_us_p50": (p("gateway.parse_structured_output", 50, 1e6), "us"),
        "gateway.connections_per_call": (
            http["connections"] / http["requests"] if http["requests"] else 0.0, "count"),
        "gateway.provider_wait_share": (wait / pipeline_time, "ratio"),
        "core.validate_us_p50": (p("core.validate_spec_document", 50, 1e6), "us"),
        "core.schema_valid_ratio": (failed["parse.valid"] / max(1, len(calls)), "ratio"),
        "orchestrator.extract_phase_ms_p50": (p("orchestrator.extract_phase", 50, 1e3), "ms"),
        "orchestrator.research_phase_ms_p50": (p("orchestrator.research_phase", 50, 1e3), "ms"),
        "orchestrator.fanout_overhead_ms_p50": (pct(fanout_overhead, 50, 1e3), "ms"),
        "orchestrator.build_prompt_us_p50": (p("orchestrator.build_prompt", 50, 1e6), "us"),
        "orchestrator.identify_gaps_us_p50": (p("orchestrator.identify_gaps", 50, 1e6), "us"),
        "orchestrator.research_ratio": (
            len(by_name.get("orchestrator.research_phase", ())) / n, "ratio"),
        "orchestrator.quorum_miss_ratio": ((len(documents) - len(synthesized)) / n, "ratio"),
        "synthesis.synthesize_ms_p50": (p("synthesis.synthesize_spec", 50, 1e3), "ms"),
        "synthesis.consistency_ms_p50": (pct(consistency, 50, 1e3), "ms"),
        "synthesis.consistency_applied_ratio": (applied / max(1, len(synthesized)), "ratio"),
        "synthesis.resolve_field_us_p50": (p("synthesis.resolve_field", 50, 1e6), "us"),
        "synthesis.resolve_calls_per_desc": (
            len(by_name.get("synthesis.resolve_field", ())) / n, "count"),
        "synthesis.canonicalize_calls_per_desc": (
            failed["synthesis.canonicalize"] / n, "count"),
        "metrics.load_runs_ms": (total("metrics.load_runs_dir") * 1e3, "ms"),
        "metrics.eval_ms": (total("metrics.evaluate_run") * 1e3, "ms"),
        "cli.overhead_ms": ((root - pipeline_time) * 1e3, "ms"),
        "trace.overhead_ms": (overhead * 1e3, "ms"),
        "trace.overhead_share": (overhead / untraced_wall, "ratio"),
    }
    for layer in ("cli", "orchestrator", "retrieval", "gateway", "core", "synthesis"):
        out[f"{layer}.self_ms"] = (selfs.get(layer, 0.0) * 1e3, "ms")
    return {name: metric(value, unit) for name, (value, unit) in out.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

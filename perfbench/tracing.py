"""Span tracing at partspec's layer boundaries, installed from outside.

`instrument()` swaps module and class attributes for wrappers that record a
span around each call and restores the originals on exit. Nothing inside
partspec changes. Two details decide where the wrappers go:

- `run_pipeline` and `synthesize_spec` bind `invoke` as a default argument
  when they are defined, so patching `gateway.invoke` would miss every call.
  Provider calls are spanned at the backends' `complete` methods instead.
- Fan-out runs provider calls on executor threads, which inherit neither
  contextvars nor thread-locals. Those spans take their description id from
  the prompt itself and hang off the open phase span of that description.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from partspec import cli, gateway, orchestrator, retrieval, synthesis
from partspec.retrieval import FlatIndex


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    desc: str | None


class Tracer:
    """Keeps every span in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        # Distinct (description, model, prompt) requests: attempts share one.
        self.requests: set[tuple[str, str, str]] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        # Innermost open anchoring span (pipeline or phase) per description.
        self._anchors: dict[str, list[int]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_desc(self) -> str | None:
        return getattr(self._local, "desc", None)

    @current_desc.setter
    def current_desc(self, desc: str | None) -> None:
        self._local.desc = desc

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    @contextlib.contextmanager
    def span(self, name: str, desc: str | None = None, anchor: bool = False) -> Iterator[int]:
        desc = desc if desc is not None else self.current_desc
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                anchors = self._anchors.get(desc) if desc is not None else None
                parent = anchors[-1] if anchors else None
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, desc))
            if anchor and desc is not None:
                self._anchors.setdefault(desc, []).append(index)
        stack.append(index)
        span = self.spans[index]
        span.start = time.perf_counter()
        try:
            yield index
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if anchor and desc is not None:
                with self._lock:
                    self._anchors[desc].pop()


@contextlib.contextmanager
def instrument(tracer: Tracer, desc_of_prompt: Callable[[str], str]) -> Iterator[Tracer]:
    """Install span wrappers on partspec for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, wrapper: Callable[[Callable], object]) -> None:
        # A boundary the program no longer has is skipped; its figures read 0.
        namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in namespace:
            return
        original = namespace[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def spanned(name: str, anchor: bool = False, on_result=None):
        def wrapper(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with tracer.span(name, anchor=anchor):
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result

            return traced

        return wrapper

    def spanned_classmethod(name: str):
        def wrapper(original):
            function = original.__func__

            @functools.wraps(function)
            def traced(cls, *args, **kwargs):
                with tracer.span(name):
                    return function(cls, *args, **kwargs)

            return classmethod(traced)

        return wrapper

    def pipeline(original):
        @functools.wraps(original)
        def traced(description, *args, **kwargs):
            tracer.current_desc = description.id
            try:
                with tracer.span("orchestrator.run_pipeline", anchor=True):
                    return original(description, *args, **kwargs)
            finally:
                tracer.current_desc = None

        return traced

    def provider_call(original):
        @functools.wraps(original)
        def traced(self, request):
            desc = desc_of_prompt(request.user_text)
            # Executor threads learn their description here; the parse that
            # follows on the same thread picks it up.
            tracer.current_desc = desc
            with tracer._lock:
                config = getattr(self, "config", None) or self._config
                tracer.requests.add((desc, config.model_id, request.user_text))
            with tracer.span("gateway.complete", desc=desc):
                try:
                    return original(self, request)
                except gateway.BackendError as exc:
                    tracer.count(f"failed.{exc.failure_kind}")
                    raise

        return traced

    def parsed(result) -> None:
        if result.schema_valid:
            tracer.count("parse.valid")
        elif result.failure is not None and result.failure.kind == "parse_error":
            tracer.count("failed.parse_error")

    def canonicalize(original):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count("synthesis.canonicalize")
            return original(*args, **kwargs)

        return counted

    try:
        patch(cli, "run_pipeline", pipeline)
        patch(cli, "ingest_records", spanned("retrieval.ingest_records"))
        patch(orchestrator, "extract_phase", spanned("orchestrator.extract_phase", anchor=True))
        patch(orchestrator, "research_phase", spanned("orchestrator.research_phase", anchor=True))
        patch(orchestrator, "build_prompt", spanned("orchestrator.build_prompt"))
        patch(orchestrator, "identify_gaps", spanned("orchestrator.identify_gaps"))
        patch(orchestrator, "synthesize_spec", spanned("synthesis.synthesize_spec", anchor=True))
        parse = spanned("gateway.parse_structured_output", on_result=parsed)
        patch(orchestrator, "parse_structured_output", parse)
        patch(gateway, "parse_structured_output", parse)
        patch(gateway, "validate_spec_document", spanned("core.validate_spec_document"))
        patch(gateway.ReplayBackend, "complete", provider_call)
        patch(gateway.HttpBackend, "complete", provider_call)
        patch(synthesis, "resolve_field", spanned("synthesis.resolve_field"))
        patch(synthesis, "canonicalize_value", canonicalize)
        patch(retrieval, "embed_text", spanned("retrieval.embed_text"))
        patch(FlatIndex, "search", spanned("retrieval.search"))
        patch(FlatIndex, "save", spanned("retrieval.index_save"))
        patch(FlatIndex, "build", spanned_classmethod("retrieval.index_build"))
        patch(FlatIndex, "load", spanned_classmethod("retrieval.index_load"))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: span duration minus the union of its children."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: Counter[str] = Counter()
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        totals[span.name.split(".", 1)[0]] += (span.end - span.start) - covered
    return dict(totals)

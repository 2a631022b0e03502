"""Seeded workloads for the partspec benchmark.

Every input is a pure function of the workload name and the seed:
descriptions, knowledge base, ensemble config, provider replies and (for
the HTTP workload) the fault plan. Descriptions are variants of the
`tests/corpusgen.py` cases with their numbers re-drawn, so they cover the
same part families, the same research triggers and the same consistency
corrections, while every text is distinct.

The stub server imports this module too, so replies served over HTTP and
replies recorded as replay fixtures come from the same code.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from statistics import NormalDist

from corpusgen import (
    CASES,
    EXTRACTION_MODELS,
    RESEARCH_MODELS,
    SYNTHESIS_MODEL,
    PartCase,
    config_document,
    extraction_document,
    research_document,
)

MIN_QUORUM = config_document()["min_quorum"]

# HTTP workload: provider timeout, per-call delay model and fault shares.
HTTP_TIMEOUT_S = 0.2
DELAY_MEDIAN_S = 0.010
DELAY_SIGMA = 0.5
DELAY_MIN_S = 0.005
DELAY_MAX_S = 0.150
TIMEOUT_DELAY_S = 0.3
QUORUM_MISS_SHARE = 0.05  # descriptions whose extraction replies are mostly garbage
TIMEOUT_SHARE = 0.05  # descriptions with one call that outlives the timeout
GARBAGE_SHARE = 0.13  # descriptions with one non-JSON reply (about 2% of calls)
QUORUM_MISS_MODELS = EXTRACTION_MODELS[: len(EXTRACTION_MODELS) - MIN_QUORUM + 1]
GARBAGE_TEXT = "Sorry, I cannot produce a specification for this part right now."

PHASE_EXTRACTION = "extraction"
PHASE_RESEARCH = "research"
PHASE_SYNTHESIS = "synthesis"

_NUMBER = re.compile(r"\d+(?:\.\d+)?")
_DRAFT_PREFIX = "DRAFT SPECIFICATION:"
_FOCUS_MARK = "\n\nFOCUS:\n"


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    descriptions: int
    kb_records: int
    http: bool


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec("replay-small-kb", 240, 500, False),
        WorkloadSpec("replay-large-kb", 100, 50_000, False),
        WorkloadSpec("http-stub", 100, 500, True),
    )
}


@dataclass(frozen=True)
class CallFault:
    """One planned fault: which model, in which phase, fails how."""

    model: str
    phase: str
    kind: str  # "timeout" or "garbage"


@dataclass(frozen=True)
class Workload:
    """Generated cases plus the fault plan; everything else derives from these."""

    spec: WorkloadSpec
    seed: int
    cases: tuple[PartCase, ...]
    quorum_misses: frozenset[str]
    faults: dict[str, tuple[CallFault, ...]]
    # Seconds the stub waits before answering, per (description, model, phase).
    delays: dict[tuple[str, str, str], float]

    @cached_property
    def _by_text(self) -> dict[str, PartCase]:
        return {case.text: case for case in self.cases}

    @cached_property
    def _by_part_number(self) -> dict[str, PartCase]:
        return {case.part_number: case for case in self.cases}

    # --- identifying the case and phase behind a prompt -------------------

    def case_for_prompt(self, user_text: str) -> tuple[PartCase, str]:
        if user_text.startswith(_DRAFT_PREFIX):
            drafted = {}
            for line in user_text.splitlines()[1:]:
                name, _, value = line.partition(": ")
                drafted[name] = value
            return self._by_part_number[drafted["part_number"]], PHASE_SYNTHESIS
        text = user_text.split("\n\n", 1)[0].removeprefix("DESCRIPTION:\n")
        phase = PHASE_RESEARCH if _FOCUS_MARK in user_text else PHASE_EXTRACTION
        return self._by_text[text], phase

    def description_id(self, user_text: str) -> str:
        return self.case_for_prompt(user_text)[0].description_id

    # --- replies --------------------------------------------------------

    def reply(self, model_id: str, user_text: str) -> str:
        """The well-behaved reply: what a replay fixture holds."""
        case, phase = self.case_for_prompt(user_text)
        if phase == PHASE_SYNTHESIS:
            return json.dumps(truth_document(case))
        if phase == PHASE_RESEARCH:
            return research_document(case)
        return extraction_document(case, model_id)

    def served_reply(self, model_id: str, user_text: str) -> tuple[float, str]:
        """Delay and body the HTTP stub serves, faults included.

        A pure function of (seed, model, prompt text), never of arrival order,
        so concurrency cannot change what a batch produces.
        """
        case, phase = self.case_for_prompt(user_text)
        delay = self.delays[case.description_id, model_id, phase]
        if (
            phase == PHASE_EXTRACTION
            and case.description_id in self.quorum_misses
            and model_id in QUORUM_MISS_MODELS
        ):
            return delay, GARBAGE_TEXT
        for fault in self.faults.get(case.description_id, ()):
            if fault.model == model_id and fault.phase == phase:
                if fault.kind == "timeout":
                    return TIMEOUT_DELAY_S, GARBAGE_TEXT
                return delay, GARBAGE_TEXT
        return delay, self.reply(model_id, user_text)

    # --- files ----------------------------------------------------------

    def descriptions_document(self) -> list[dict]:
        return [
            {"id": case.description_id, "text": case.text, "category": case.category}
            for case in self.cases
        ]

    def kb_documents(self) -> list[dict]:
        records = [_own_record(case) for case in self.cases]
        rng = random.Random(f"kb:{self.spec.name}:{self.seed}")
        for number in range(max(0, self.spec.kb_records - len(records))):
            records.append(_distractor(rng, number))
        return records

    def config_document(self, endpoint: str | None = None) -> dict:
        config = config_document()
        if endpoint is not None:
            for entry in config["roster"]:
                del entry["fixtures_dir"]
                entry.update(
                    kind="http_openai_compatible", endpoint=endpoint, timeout=HTTP_TIMEOUT_S
                )
        return config

    def manifest_document(self) -> dict:
        manifest = {}
        for case in self.cases:
            allowed = {*truth_fields(case), *REQUIRED_FIELDS, "specifications.packaging"}
            manifest[case.description_id] = {
                "expected_fields": sorted(REQUIRED_FIELDS),
                "detail_max": len(case.specs) + 1,
                "allowed_attributes": sorted(allowed),
            }
        return manifest

    def to_json(self) -> str:
        return json.dumps(
            {
                "workload": self.spec.name,
                "seed": self.seed,
                "cases": [_case_to_dict(case) for case in self.cases],
                "quorum_misses": sorted(self.quorum_misses),
                "faults": {
                    desc: [[f.model, f.phase, f.kind] for f in faults]
                    for desc, faults in sorted(self.faults.items())
                },
                "delays": [[*key, delay] for key, delay in sorted(self.delays.items())],
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> Workload:
        data = json.loads(text)
        return cls(
            spec=WORKLOADS[data["workload"]],
            seed=int(data["seed"]),
            cases=tuple(_case_from_dict(entry) for entry in data["cases"]),
            quorum_misses=frozenset(data["quorum_misses"]),
            faults={
                desc: tuple(CallFault(*fault) for fault in faults)
                for desc, faults in data["faults"].items()
            },
            delays={(desc, model, phase): delay for desc, model, phase, delay in data["delays"]},
        )

    # --- correctness ----------------------------------------------------

    def check_document(self, case: PartCase, document: dict) -> str | None:
        """Why one output document is wrong, or None when it is right."""
        if document.get("description_id") != case.description_id:
            return f"expected {case.description_id}, got {document.get('description_id')}"
        if case.description_id in self.quorum_misses:
            error = document.get("error")
            if not error or error.get("kind") != "quorum_not_met":
                return "planned quorum miss produced a document"
            return None
        if "error" in document:
            return f"unplanned failure: {document['error']}"
        fields = document.get("fields", {})
        for name, value in truth_fields(case).items():
            got = fields.get(name, {}).get("value")
            if got != value:
                return f"{name}: expected {value!r}, got {got!r}"
        return None


REQUIRED_FIELDS = ("manufacturer", "part_name", "part_number", "specifications")


def truth_document(case: PartCase) -> dict:
    return {
        "part_name": case.part_name,
        "manufacturer": case.manufacturer,
        "part_number": case.part_number,
        "specifications": dict(case.specs),
    }


def truth_fields(case: PartCase) -> dict[str, str]:
    """Scalar fields and spec leaves every final document must carry."""
    fields = {
        "part_name": case.part_name,
        "manufacturer": case.manufacturer,
        "part_number": case.part_number,
    }
    fields.update({f"specifications.{key}": value for key, value in case.specs})
    return fields


def _delay_plan(
    cases: list[PartCase], rng: random.Random
) -> dict[tuple[str, str, str], float]:
    """Log-normal delays (median 10 ms), stratified over every possible call.

    Each call gets its own quantile of the distribution, shuffled by the
    seed, so every seed serves the same multiset of delays and only their
    assignment to calls changes.
    """
    calls = []
    for case in cases:
        calls += [(case.description_id, model, PHASE_EXTRACTION) for model in EXTRACTION_MODELS]
        calls += [(case.description_id, model, PHASE_RESEARCH) for model in RESEARCH_MODELS]
        calls.append((case.description_id, SYNTHESIS_MODEL, PHASE_SYNTHESIS))
    quantiles = [(rank + 0.5) / len(calls) for rank in range(len(calls))]
    rng.shuffle(quantiles)
    normal = NormalDist()
    return {
        call: min(DELAY_MAX_S, max(DELAY_MIN_S, DELAY_MEDIAN_S * math.exp(
            DELAY_SIGMA * normal.inv_cdf(quantile))))
        for call, quantile in zip(calls, quantiles)
    }


def generate(workload: str, seed: int) -> Workload:
    """Build a workload's cases and fault plan from its name and seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"cases:{workload}:{seed}")
    templates = [CASES[i % len(CASES)] for i in range(spec.descriptions)]
    rng.shuffle(templates)
    cases: list[PartCase] = []
    texts: set[str] = set()
    for position, template in enumerate(templates, start=1):
        for attempt in itertools.count(1):
            mapping: dict[str, str] = {}
            text = _NUMBER.sub(
                lambda m: mapping.setdefault(m.group(), _redraw(m.group(), rng, attempt)),
                template.text,
            )
            if text not in texts:
                break
        texts.add(text)
        specs = {
            key: _NUMBER.sub(lambda m: mapping.get(m.group(), m.group()), value)
            for key, value in template.specs
        }
        cases.append(
            replace(
                template,
                description_id=f"g{position:04d}",
                text=text,
                part_number=f"{template.part_number}-{position:04d}",
                specs=tuple(sorted(specs.items())),
            )
        )
    misses: frozenset[str] = frozenset()
    faults: dict[str, tuple[CallFault, ...]] = {}
    delays: dict[tuple[str, str, str], float] = {}
    if spec.http:
        rng = random.Random(f"faults:{workload}:{seed}")
        misses, faults = _fault_plan(cases, rng)
        delays = _delay_plan(cases, rng)
    return Workload(spec, seed, tuple(cases), misses, faults, delays)


def _fault_plan(
    cases: list[PartCase], rng: random.Random
) -> tuple[frozenset[str], dict[str, tuple[CallFault, ...]]]:
    """Exact fault counts per seed; at most two extraction faults per case.

    With five extraction models and a quorum of three, only the planned
    cases can miss quorum. The synthesis review is faulted only where the
    draft already equals the truth, so a skipped review never leaves a wrong
    value behind.
    """
    count = len(cases)
    misses = {case.description_id for case in rng.sample(cases, round(QUORUM_MISS_SHARE * count))}
    eligible = [case for case in cases if case.description_id not in misses]
    planned: dict[str, list[CallFault]] = {}
    for kind, share in (("timeout", TIMEOUT_SHARE), ("garbage", GARBAGE_SHARE)):
        for case in rng.sample(eligible, round(share * count)):
            taken = {(f.model, f.phase) for f in planned.get(case.description_id, ())}
            calls = [(model, PHASE_EXTRACTION) for model in EXTRACTION_MODELS]
            if case.research_trigger:
                calls += [(model, PHASE_RESEARCH) for model in RESEARCH_MODELS]
            if case.drafted_manufacturer is None:
                calls.append((SYNTHESIS_MODEL, PHASE_SYNTHESIS))
            model, phase = rng.choice([call for call in calls if call not in taken])
            planned.setdefault(case.description_id, []).append(CallFault(model, phase, kind))
    return frozenset(misses), {desc: tuple(faults) for desc, faults in planned.items()}


def _redraw(token: str, rng: random.Random, attempt: int) -> str:
    """A new number near the old one; the range widens on every retry."""
    if "." in token:
        decimals = len(token.split(".")[1])
        return f"{float(token) * rng.uniform(0.5, 1.0 + attempt):.{decimals}f}"
    value = int(token)
    return str(rng.randint(max(1, value // 2), max(2, value * 2) * attempt))


def _own_record(case: PartCase) -> dict:
    record = {
        "id": f"kb-{case.description_id}",
        "name": f"{case.part_name.lower()} {case.text.split(',')[0].lower()}",
        "manufacturer": case.manufacturer,
        "part_number": case.part_number,
    }
    record.update(dict(case.specs))
    return record


_NOUNS = (
    "hose", "belt", "rail", "coupling", "terminal block", "cable gland", "bushing",
    "spring", "o-ring", "seal", "clamp", "bracket", "hinge", "caster", "fuse",
    "relay", "contactor", "filter", "nozzle", "fitting", "shaft collar", "key stock",
)
_ADJECTIVES = (
    "hydraulic", "pneumatic", "stainless", "heavy duty", "miniature", "flanged",
    "threaded", "insulated", "reinforced", "adjustable", "split", "sealed",
)
_ATTRIBUTES = (
    ("material", ("steel", "brass", "nylon", "aluminium", "epdm", "ptfe")),
    ("rating", ("12 v", "24 v", "10 a", "3000 psi", "ip67", "class 2")),
    ("length", ("50 mm", "120 mm", "1 m", "44 in", "300 mm")),
    ("finish", ("black oxide", "zinc", "anodized", "painted", "bare")),
)


def _distractor(rng: random.Random, number: int) -> dict:
    record = {
        "id": f"kb-z{number:06d}",
        "name": f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)} {rng.randint(2, 400)}",
        "part_number": f"ZX-{rng.randint(0, 999_999):06d}",
    }
    for key, values in rng.sample(_ATTRIBUTES, 2):
        record[key] = rng.choice(values)
    return record


def _case_to_dict(case: PartCase) -> dict:
    return {
        "description_id": case.description_id,
        "text": case.text,
        "category": case.category,
        "part_name": case.part_name,
        "manufacturer": case.manufacturer,
        "part_number": case.part_number,
        "specs": [list(pair) for pair in case.specs],
        "research_trigger": case.research_trigger,
        "drafted_manufacturer": case.drafted_manufacturer,
    }


def _case_from_dict(data: dict) -> PartCase:
    return PartCase(**{**data, "specs": tuple(tuple(pair) for pair in data["specs"])})


def write_inputs(workload: Workload, root: Path, endpoint: str | None = None) -> dict[str, Path]:
    """Write descriptions, knowledge base, config and manifest under root."""
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "descriptions": root / "descriptions.json",
        "kb": root / "kb.json",
        "config": root / "config.json",
        "manifest": root / "manifest.json",
        "workload": root / "workload.json",
    }
    paths["descriptions"].write_text(json.dumps(workload.descriptions_document(), indent=1))
    paths["kb"].write_text(json.dumps(workload.kb_documents()))
    paths["config"].write_text(json.dumps(workload.config_document(endpoint), indent=1))
    paths["manifest"].write_text(json.dumps(workload.manifest_document(), indent=1))
    paths["workload"].write_text(workload.to_json())
    return paths

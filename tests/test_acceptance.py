"""Acceptance gate: eight end-to-end checks, one printed verdict line each.

Each check prints "[criterion N] PASS/FAIL - <label>" to the real stdout so
the verdict is visible even under pytest's capture. Tolerances and budgets
are pinned as module constants next to nothing else; every numeric claim a
check makes is asserted, never logged-and-ignored.
"""

from __future__ import annotations

import contextlib
import json
import random
import struct
import time
from fractions import Fraction

import numpy as np

from corpusgen import EXTRACTION_MODELS, CASES
from partspec.cli import run_command
from partspec.core import (
    PHASE_EXTRACTION,
    PHASE_RESEARCH,
    ExtractionResult,
    Failure,
    FieldClaim,
    PartDescription,
    SpecSchema,
)
from partspec.gateway import (
    KIND_REPLAY,
    ProviderConfig,
    ProviderResponse,
    invoke,
)
from partspec.metrics import MetricReport, ara, ics, idr, render_table, sdq, tdi
from partspec.orchestrator import EnsembleConfig, extract_phase, run_pipeline
from partspec.retrieval import (
    FlatIndex,
    HashTrigramEmbedder,
    Hit,
    PartRecord,
    RetrievedContext,
    embed_text,
)
from partspec.synthesis import (
    DEFAULT_CONFIDENCE_WEIGHTS,
    field_confidence,
    resolve_field,
)

# Pinned tolerances and budgets. A failure against these is a real failure.
IDR_ORACLE_TOL = 1e-12
CONFIDENCE_EXAMPLE_TOL = 1e-12
SELF_SIMILARITY_TOL = 1e-6
METRIC_CASES = 1_000
METRIC_BUDGET_S = 5.0
RETRIEVAL_RECORDS = 1_000
RETRIEVAL_BUDGET_S = 10.0
SYNTHESIS_CASES = 10_000
DETERMINISM_RUNS = 10
PARALLEL_BUDGET_S = 0.9


@contextlib.contextmanager
def criterion(number: int, label: str, capfd):
    """Print one verdict line straight to the terminal, bypassing capture."""
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"[criterion {number}] FAIL - {label}", flush=True)
        raise
    with capfd.disabled():
        print(f"[criterion {number}] PASS - {label}", flush=True)


# --- criterion 1: metric implementations against independent oracles ---


def _oracle_idr(field_sets) -> Fraction:
    sets = [frozenset(s) for s in field_sets]
    n = len(sets)
    total = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            union = sets[i] | sets[j]
            jaccard = Fraction(len(sets[i] & sets[j]), len(union)) if union else Fraction(1)
            total += 1 - jaccard
    return 2 * total / (n * (n - 1))


def test_criterion_1_metric_oracles(capfd):
    with criterion(1, "metrics match independent oracles on 1000 random instances", capfd):
        rng = random.Random(0x51C5)
        pool = [f"f{i}" for i in range(10)]
        started = time.perf_counter()
        for _ in range(METRIC_CASES):
            sets = [
                rng.sample(pool, rng.randint(0, 10))
                for _ in range(rng.randint(2, 6))
            ]
            assert abs(idr(sets) - float(_oracle_idr(sets))) <= IDR_ORACLE_TOL

            expected = rng.sample(pool, rng.randint(1, 10))
            extracted = rng.sample(pool, rng.randint(0, 10))
            overlap = len(set(extracted) & set(expected))
            assert ics(extracted, expected) == float(Fraction(overlap, len(expected)))

            counts = [rng.randint(0, 10) for _ in range(rng.randint(1, 6))]
            d_max = rng.randint(1, 10)
            exact = Fraction(sum(counts), len(counts) * d_max)
            assert tdi(counts, d_max) == float(min(max(exact, Fraction(0)), Fraction(1)))

            total = rng.randint(1, 50)
            valid = rng.randint(0, total)
            outputs = [
                ExtractionResult(f"m{i}", PHASE_EXTRACTION, (), i < valid)
                for i in range(total)
            ]
            assert sdq(outputs) == float(Fraction(valid, total))

            attributes = rng.choices(pool, k=rng.randint(1, 30))
            allowed = rng.sample(pool, rng.randint(0, 10))
            extraneous = sum(1 for name in attributes if name not in set(allowed))
            assert ara(attributes, allowed) == float(Fraction(extraneous, len(attributes)))
        elapsed = time.perf_counter() - started
        assert elapsed < METRIC_BUDGET_S, f"metric oracle sweep took {elapsed:.2f} s"


# --- criterion 2: published reference scores render byte-exact ---

REFERENCE_SCORES = (
    ("GPT-4o", 0.60, 0.45, 0.80, 0.092, 0.85),
    ("Claude", 0.55, 0.40, 0.90, 0.074, 0.90),
    ("Gemini 2.5", 0.65, 0.50, 0.85, 0.118, 0.80),
    ("Grok 3", 0.85, 0.80, 0.70, 0.143, 0.55),
    ("RAGsemble", 1.00, 1.00, 0.95, 0.215, 0.40),
)


def test_criterion_2_reference_table(request, capfd):
    with criterion(2, "reference score table renders byte-exact against the golden file", capfd):
        reports = [
            MetricReport(system_id=row[0], ics=row[1], tdi=row[2], sdq=row[3], idr=row[4], ara=row[5])
            for row in REFERENCE_SCORES
        ]
        golden = request.path.parent / "data" / "reference_scores.txt"
        assert render_table(reports) + "\n" == golden.read_text(encoding="utf-8")


# --- criterion 3: search equals the exhaustive scan ---

_WORDS = (
    "bearing", "bolt", "valve", "sensor", "gear", "motor", "shaft", "flange",
    "washer", "seal", "bushing", "coupling", "spring", "nut", "pin", "clamp",
)


def _synthetic_records(count: int, rng: random.Random) -> list[PartRecord]:
    records = []
    for i in range(count):
        text = " ".join(rng.choices(_WORDS, k=5)) + f" part {i:04d}"
        records.append(PartRecord(f"r{i:04d}", text, f"gen:{i}"))
    return records


def _scan_oracle(index: FlatIndex, query: str, k: int, threshold: float):
    """Exhaustive selection oracle.

    Shares the similarity arithmetic with the index (one float32 matmul,
    sanity-checked against float64) and independently re-derives selection:
    threshold filter, similarity-descending sort, id tie-break, k cut.
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


def test_criterion_3_retrieval_exactness(capfd):
    with criterion(3, "top-k search equals the exhaustive cosine scan on 1000 records", capfd):
        rng = random.Random(0xA11CE)
        records = _synthetic_records(RETRIEVAL_RECORDS, rng)
        started = time.perf_counter()
        index = FlatIndex.build(records, HashTrigramEmbedder(128))
        queries = [" ".join(rng.choices(_WORDS, k=3)) for _ in range(20)]
        queries += [record.flat_text for record in rng.sample(records, 5)]
        for query in queries:
            for k in (1, 5, 20):
                for threshold in (-1.0, 0.0, 0.25, 0.9):
                    got = [
                        (hit.record_id, hit.similarity)
                        for hit in index.search(query, k, threshold).hits
                    ]
                    assert got == _scan_oracle(index, query, k, threshold)
        for record in rng.sample(records, 25):
            top = index.search(record.flat_text, 1, -1.0).hits
            assert top[0].record_id == record.record_id
            assert abs(top[0].similarity - 1.0) <= SELF_SIMILARITY_TOL
        elapsed = time.perf_counter() - started
        assert elapsed < RETRIEVAL_BUDGET_S, f"retrieval sweep took {elapsed:.2f} s"


# --- criterion 4: persistence round trip ---


def test_criterion_4_persistence(tmp_path, capfd):
    with criterion(4, "index persists, reloads bit-identically, and matches the binary layout", capfd):
        rng = random.Random(0x5F1E)
        records = _synthetic_records(200, rng)
        embedder = HashTrigramEmbedder(96)
        built = FlatIndex.build(records, embedder)
        first_dir = tmp_path / "first"
        built.save(first_dir)
        reloaded = FlatIndex.load(first_dir)
        second_dir = tmp_path / "second"
        reloaded.save(second_dir)

        first_blob = (first_dir / "vectors.sfix").read_bytes()
        assert first_blob == (second_dir / "vectors.sfix").read_bytes()
        assert (first_dir / "manifest.json").read_bytes() == (
            second_dir / "manifest.json"
        ).read_bytes()

        magic, version, count, dimension = struct.unpack_from("<4sIII", first_blob)
        assert (magic, version, count, dimension) == (b"SFIX", 1, 200, 96)
        assert len(first_blob) == 16 + count * dimension * 4
        for i, record in enumerate(records):
            row = first_blob[16 + i * dimension * 4 : 16 + (i + 1) * dimension * 4]
            vector = np.ascontiguousarray(embed_text(record.flat_text, embedder), dtype="<f4")
            assert row == vector.tobytes()

        for _ in range(10):
            query = " ".join(rng.choices(_WORDS, k=4))
            assert (
                built.search(query, 7, 0.1).hits
                == reloaded.search(query, 7, 0.1).hits
            )


# --- criterion 5: synthesis properties at scale ---

_VALUE_POOL = ("alloy steel", "brass", "nylon", "E52100", "cast iron")
_CONFIDENCE_STEPS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def test_criterion_5_synthesis_properties(capfd):
    with criterion(5, "synthesis invariants hold on 10000 random claim multisets", capfd):
        example = field_confidence(0.75, 0.8, True, DEFAULT_CONFIDENCE_WEIGHTS)
        assert abs(example - 0.82) <= CONFIDENCE_EXAMPLE_TOL

        rng = random.Random(0xC0FFEE)
        roster = tuple(f"m{i}" for i in range(1, 6))
        aligned_context = RetrievedContext(
            hits=(Hit("kb-1", 0.75, "material: alloy steel | name: pivot arm"),),
            query_text="pivot arm",
            k_requested=3,
            threshold_applied=0.25,
        )
        empty_context = RetrievedContext.empty("pivot arm", 3, 0.25)
        for _ in range(SYNTHESIS_CASES):
            claims = [
                FieldClaim.make(
                    "material",
                    rng.choice(_VALUE_POOL),
                    rng.choice(_CONFIDENCE_STEPS),
                    rng.choice(roster),
                    rng.choice((PHASE_EXTRACTION, PHASE_RESEARCH)),
                )
                for _ in range(rng.randint(1, 8))
            ]
            context = aligned_context if rng.random() < 0.5 else empty_context
            resolved = resolve_field(claims, context, DEFAULT_CONFIDENCE_WEIGHTS, roster)

            assert 0.0 <= resolved.agreement <= 1.0
            assert 0.0 <= resolved.mean_confidence <= 1.0
            assert 0.0 <= resolved.confidence <= 1.0

            shuffled = claims[:]
            rng.shuffle(shuffled)
            assert resolve_field(shuffled, context, DEFAULT_CONFIDENCE_WEIGHTS, roster) == resolved

            tallies: dict[str, int] = {}
            for claim in claims:
                tallies[claim.canonical_value] = tallies.get(claim.canonical_value, 0) + 1
            ranked = sorted(tallies.values(), reverse=True)
            if len(ranked) == 1 or ranked[0] > ranked[1]:
                majority = max(tallies, key=lambda name: tallies[name])
                assert resolved.canonical_value == majority

            agreement, mean_conf = rng.random(), rng.random()
            base = field_confidence(agreement, mean_conf, False, DEFAULT_CONFIDENCE_WEIGHTS)
            assert base <= field_confidence(agreement, mean_conf, True, DEFAULT_CONFIDENCE_WEIGHTS)
            bumped_a = min(agreement + 0.3, 1.0)
            assert base <= field_confidence(bumped_a, mean_conf, False, DEFAULT_CONFIDENCE_WEIGHTS)
            bumped_m = min(mean_conf + 0.3, 1.0)
            assert base <= field_confidence(agreement, bumped_m, False, DEFAULT_CONFIDENCE_WEIGHTS)


# --- criterion 6: pipeline determinism and fault tolerance ---


def test_criterion_6_determinism_and_faults(corpus, capfd):
    with criterion(6, "pipeline output byte-stable over 10 runs; quorum honored under faults", capfd):
        config = EnsembleConfig.from_file(corpus.config_path)
        index = FlatIndex.load(corpus.index_dir)
        schema = SpecSchema.default()
        descriptions = [
            PartDescription(case.description_id, case.text, case.category)
            for case in corpus.cases
        ]

        recorded = {result.description_id: result.to_json() for result in corpus.results}
        for description in descriptions:
            runs = [
                run_pipeline(description, config, index, schema).to_json()
                for _ in range(DETERMINISM_RUNS)
            ]
            assert all(run == runs[0] for run in runs)
            assert runs[0] == recorded[description.id]

        for description in (descriptions[0], descriptions[2]):
            for f in range(len(EXTRACTION_MODELS) + 1):
                failing = set(EXTRACTION_MODELS[:f])

                def faulty(provider, request, env=None, _failing=failing):
                    if provider.model_id in _failing:
                        return ProviderResponse(
                            provider.model_id, "", 0.0, 1, Failure("timeout", "injected")
                        )
                    return invoke(provider, request, env=env)

                result = run_pipeline(description, config, index, schema, invoke_fn=faulty)
                successes = len(EXTRACTION_MODELS) - f
                assert len(result.phase1_results) == len(EXTRACTION_MODELS)
                if successes >= config.min_quorum:
                    assert result.final is not None
                    assert result.quorum_failure is None
                else:
                    assert result.final is None
                    assert result.quorum_failure is not None
                    assert result.quorum_failure.successes == successes
                    assert result.quorum_failure.min_quorum == config.min_quorum


# --- criterion 7: extraction fan-out is actually parallel ---

_STUB_DELAYS = {"m100": 0.1, "m200": 0.2, "m300": 0.3, "m400": 0.4, "m500": 0.5}
_STUB_DOC = json.dumps(
    {
        "part_name": "Idler Pulley",
        "manufacturer": "Acme",
        "part_number": "IP-77",
        "specifications": {"bore": "10 mm"},
    }
)


def test_criterion_7_parallel_fan_out(capfd):
    with criterion(7, "5 stub providers (serial sum 1500 ms) fan out in under 900 ms", capfd):
        roster = tuple(
            ProviderConfig(
                model_id=model,
                kind=KIND_REPLAY,
                fixtures_dir="unused",
                role_tags=frozenset({"extraction"}),
            )
            for model in sorted(_STUB_DELAYS)
        ) + (
            ProviderConfig(
                model_id="synth",
                kind=KIND_REPLAY,
                fixtures_dir="unused",
                role_tags=frozenset({"synthesis"}),
            ),
        )
        config = EnsembleConfig(roster=roster, synthesis_model="synth", min_quorum=3)
        index = FlatIndex.build(
            [PartRecord("r1", "idler pulley 10 mm bore", "stub:1")],
            HashTrigramEmbedder(64),
        )

        def sleepy(provider, request, env=None):
            time.sleep(_STUB_DELAYS[provider.model_id])
            return ProviderResponse(provider.model_id, _STUB_DOC, 0.0, 1)

        description = PartDescription("p1", "idler pulley, 10mm bore")
        started = time.perf_counter()
        results, _ = extract_phase(
            description, config, index, SpecSchema.default(), invoke_fn=sleepy
        )
        elapsed = time.perf_counter() - started
        with capfd.disabled():
            print(f"  extract_phase wall-clock: {elapsed * 1000:.0f} ms")
        assert len(results) == 5
        assert all(result.schema_valid for result in results)
        assert elapsed < PARALLEL_BUDGET_S


# --- criterion 8: the documented corpus scores perfect coverage and validity ---


def test_criterion_8_corpus_scores(corpus, tmp_path, capfd):
    with criterion(8, "24-description replay corpus reaches ICS 1.0 and SDQ 1.0 via the CLI", capfd):
        assert len(CASES) >= 20
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        extract = run_command(
            [
                "extract",
                "--input", str(corpus.descriptions_path),
                "--config", str(corpus.config_path),
                "--index", str(corpus.index_dir),
                "--runs-out", str(runs_dir / "ensemble.json"),
                "--system-id", "RAGsemble",
            ]
        )
        assert extract.exit_code == 0
        evaluated = run_command(
            ["eval", "--runs", str(runs_dir), "--manifest", str(corpus.manifest_path)]
        )
        assert evaluated.exit_code == 0
        report = json.loads(evaluated.stdout)["reports"][0]
        with capfd.disabled():
            print(
                "  corpus scores: "
                + " ".join(f"{key}={report[key]}" for key in ("ics", "tdi", "sdq", "idr", "ara"))
            )
        assert report["ics"] == 1.0
        assert report["sdq"] == 1.0

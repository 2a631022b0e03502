"""Metric formulas, ground-truth manifest, run scoring, table rendering."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partspec.core import (
    PHASE_EXTRACTION,
    PHASE_RESEARCH,
    ExtractionResult,
    Failure,
    FieldClaim,
    SpecSchema,
    validate_spec_document,
)
from partspec.metrics import (
    DescriptionRun,
    GroundTruthManifest,
    ManifestEntry,
    MetricError,
    MetricReport,
    SystemRun,
    ara,
    evaluate_run,
    ics,
    idr,
    load_runs_dir,
    load_system_run,
    render_table,
    sdq,
    tdi,
)

DATA_DIR = Path(__file__).parent / "data"


class TestIcs:
    def test_golden(self):
        assert ics({"a", "b", "c"}, {"a", "b", "c", "d"}) == pytest.approx(0.75)

    def test_full_coverage(self):
        assert ics({"a", "b"}, {"a", "b"}) == 1.0

    def test_extra_extracted_ignored(self):
        assert ics({"a", "b", "x", "y"}, {"a", "b"}) == 1.0

    def test_no_overlap(self):
        assert ics({"x"}, {"a"}) == 0.0

    def test_empty_expected_rejected(self):
        with pytest.raises(MetricError, match="expected field set is empty"):
            ics({"a"}, set())

    def test_empty_extracted_fine(self):
        assert ics(set(), {"a"}) == 0.0


class TestTdi:
    def test_golden(self):
        assert tdi([2, 3], 4) == pytest.approx(5 / 8)

    def test_clamped_at_one(self):
        assert tdi([9, 9], 4) == 1.0

    def test_zero_details(self):
        assert tdi([0, 0, 0], 5) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(MetricError, match="detail_counts is empty"):
            tdi([], 4)

    def test_nonpositive_dmax_rejected(self):
        with pytest.raises(MetricError, match="d_max must be positive, got 0"):
            tdi([1], 0)
        with pytest.raises(MetricError, match="d_max must be positive, got -2"):
            tdi([1], -2)


def _result(valid: bool, fields=(), model="m", phase=PHASE_EXTRACTION):
    claims = tuple(FieldClaim.make(f, "v", 1.0, model, phase) for f in fields)
    if valid:
        return ExtractionResult(model, phase, claims, True)
    return ExtractionResult(model, phase, (), False, failure=Failure("timeout"))


class TestSdq:
    def test_golden(self):
        outputs = [_result(True), _result(True), _result(False), _result(True)]
        assert sdq(outputs) == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(MetricError, match="outputs is empty"):
            sdq([])


class TestIdr:
    def test_worked_example(self):
        # Pairwise distances: 1/3 vs both supersets... computed by hand:
        # ({a,b},{b,c}) = 1 - 1/3 = 2/3; ({a,b},{a,b,c}) = 1/3; ({b,c},{a,b,c}) = 1/3
        # mean = (2/3 + 1/3 + 1/3) / 3 = 4/9
        value = idr([{"a", "b"}, {"b", "c"}, {"a", "b", "c"}])
        assert value == pytest.approx(4 / 9, abs=1e-12)

    def test_identical_sets(self):
        assert idr([{"a"}, {"a"}, {"a"}]) == 0.0

    def test_disjoint_sets(self):
        assert idr([{"a"}, {"b"}]) == 1.0

    def test_two_empty_sets_are_identical(self):
        assert idr([set(), set()]) == 0.0

    def test_empty_vs_nonempty_fully_divergent(self):
        assert idr([set(), {"a"}]) == 1.0

    def test_too_few_rejected(self):
        with pytest.raises(MetricError, match="need at least 2 field sets, got 1"):
            idr([{"a"}])
        with pytest.raises(MetricError, match="need at least 2 field sets, got 0"):
            idr([])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.sampled_from("abcdef"), max_size=6), min_size=2, max_size=6
        )
    )
    def test_matches_fraction_oracle(self, sets):
        n = len(sets)
        total = Fraction(0)
        for i in range(n):
            for j in range(i + 1, n):
                union = sets[i] | sets[j]
                if union:
                    total += 1 - Fraction(len(sets[i] & sets[j]), len(union))
        oracle = Fraction(2) * total / (n * (n - 1))
        assert idr(sets) == pytest.approx(float(oracle), abs=1e-12)
        assert 0.0 <= idr(sets) <= 1.0


class TestAra:
    def test_golden(self):
        attributes = ["a", "b", "c", "d", "x"]
        assert ara(attributes, {"a", "b", "c", "d"}) == pytest.approx(0.2)

    def test_counts_occurrences(self):
        assert ara(["x", "x", "a"], {"a"}) == pytest.approx(2 / 3)

    def test_fully_grounded(self):
        assert ara(["a", "b"], {"a", "b", "c"}) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(MetricError, match="attributes is empty"):
            ara([], {"a"})


class TestManifest:
    def test_from_dict(self):
        manifest = GroundTruthManifest.from_dict(
            {
                "d1": {
                    "expected_fields": ["part_name"],
                    "detail_max": 3,
                    "allowed_attributes": ["part_name", "weight"],
                }
            }
        )
        entry = manifest.entry("d1")
        assert entry.expected_fields == {"part_name"}
        assert entry.detail_max == 3

    def test_missing_entry_raises(self):
        manifest = GroundTruthManifest({})
        with pytest.raises(MetricError, match="no manifest entry for description 'nope'"):
            manifest.entry("nope")

    def test_unknown_keys_rejected(self):
        message = "manifest entry 'd1': unknown manifest entry keys: ['extra']"
        with pytest.raises(MetricError, match=f"^{re.escape(message)}$"):
            GroundTruthManifest.from_dict(
                {"d1": {"expected_fields": ["a"], "detail_max": 1, "extra": 1}}
            )

    def test_entry_validation(self):
        with pytest.raises(MetricError, match="expected_fields must be non-empty"):
            ManifestEntry(frozenset(), 3, frozenset())
        with pytest.raises(MetricError, match="detail_max must be positive, got 0"):
            ManifestEntry(frozenset({"a"}), 0, frozenset())

    @pytest.mark.parametrize(
        "arguments, message",
        [({"expected_fields": "abc", "detail_max": 2},
          "expected_fields must be an array of strings, got 'abc'"),
         ({"expected_fields": frozenset({"a"}), "detail_max": 2.5},
          "detail_max must be an integer, got 2.5"),
         ({"expected_fields": ["a"], "detail_max": 2, "allowed_attributes": [5]},
          "allowed_attributes must be an array of strings, got [5]")],
        ids=["string_expected_fields", "fractional_detail_max", "number_attribute"],
    )
    def test_entry_built_in_python_is_refused_in_the_loaders_words(self, arguments, message):
        with pytest.raises(MetricError, match=f"^{re.escape(message)}$"):
            ManifestEntry(**arguments)
        with pytest.raises(MetricError, match=f"^manifest entry 'd1': {re.escape(message)}$"):
            GroundTruthManifest.from_dict({"d1": arguments})

    def test_entry_stores_arrays_as_frozensets(self):
        entry = ManifestEntry(["a"], 2, ["a", "b"])
        assert type(entry.expected_fields) is frozenset
        assert type(entry.allowed_attributes) is frozenset
        assert hash(entry) == hash(ManifestEntry(frozenset({"a"}), 2, frozenset({"a", "b"})))

    def test_smallest_detail_max_accepted(self):
        entry = GroundTruthManifest.from_dict({"d1": {"expected_fields": ["a"], "detail_max": 1}})
        assert entry.entry("d1") == ManifestEntry(frozenset({"a"}), 1)


class TestMetricReport:
    def test_range_enforced(self):
        with pytest.raises(ValueError, match="within"):
            MetricReport("s", 1.2, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="within"):
            MetricReport("s", 0.5, 0.5, 0.5, -0.1, 0.5)

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (1.0, 0.0)])
    def test_range_bounds_accepted(self, low, high):
        report = MetricReport("s", low, high, low, high, low)
        assert list(report.to_dict().items()) == [
            ("system_id", "s"), ("ics", low), ("tdi", high), ("sdq", low), ("idr", high),
            ("ara", low),
        ]


class TestRenderTable:
    def test_reference_scores_golden(self):
        reports = [
            MetricReport("GPT-4o", 0.60, 0.45, 0.80, 0.092, 0.85),
            MetricReport("Claude", 0.55, 0.40, 0.90, 0.074, 0.90),
            MetricReport("Gemini 2.5", 0.65, 0.50, 0.85, 0.118, 0.80),
            MetricReport("Grok 3", 0.85, 0.80, 0.70, 0.143, 0.55),
            MetricReport("RAGsemble", 1.00, 1.00, 0.95, 0.215, 0.40),
        ]
        expected = (DATA_DIR / "reference_scores.txt").read_text(encoding="utf-8")
        assert render_table(reports) + "\n" == expected

    def test_empty_reports(self):
        table = render_table([])
        assert table.splitlines()[0].split() == ["Model", "ICS", "TDI", "SDQ", "IDR", "ARA"]


def _run_fixture() -> SystemRun:
    schema = SpecSchema.default()
    doc_full = {
        "part_name": "Bolt",
        "manufacturer": "Acme",
        "part_number": "B1",
        "specifications": {"material": "steel"},
    }
    doc_partial = {
        "part_name": "Bolt",
        "manufacturer": "Acme",
        "part_number": "B1",
        "specifications": {},
    }
    d1_outputs = (
        validate_spec_document(doc_full, schema, "m1", PHASE_EXTRACTION),
        validate_spec_document(doc_partial, schema, "m2", PHASE_EXTRACTION),
        _result(False, model="m3"),
    )
    d2_outputs = (
        validate_spec_document(doc_full, schema, "m1", PHASE_EXTRACTION),
        validate_spec_document(doc_full, schema, "m2", PHASE_EXTRACTION),
    )
    return SystemRun(
        system_id="sys-a",
        descriptions=(
            DescriptionRun("d1", d1_outputs, None),
            DescriptionRun(
                "d2",
                d2_outputs,
                final_fields=(
                    "manufacturer",
                    "part_name",
                    "part_number",
                    "specifications",
                    "specifications.material",
                ),
            ),
        ),
    )


def _manifest() -> GroundTruthManifest:
    required = ["part_name", "manufacturer", "part_number", "specifications"]
    return GroundTruthManifest.from_dict(
        {
            "d1": {
                "expected_fields": required,
                "detail_max": 2,
                "allowed_attributes": required + ["specifications.material"],
            },
            "d2": {
                "expected_fields": required,
                "detail_max": 2,
                "allowed_attributes": required + ["specifications.material"],
            },
        }
    )


class TestEvaluateRun:
    def test_hand_computed_scores(self):
        reports, table = evaluate_run([_run_fixture()], _manifest())
        report = reports[0]
        # d1 fields (union of valid outputs): 4 required + 1 detail leaf.
        # d2 fields (final): same five. Both cover everything expected.
        assert report.ics == 1.0
        # One detail leaf against detail_max=2 per description: 0.5.
        assert report.tdi == pytest.approx(0.5)
        # 4 of 5 outputs schema-valid.
        assert report.sdq == pytest.approx(4 / 5)
        # d1 divergence: {5 fields} vs {4 fields} = 1 - 4/5; d2: identical sets.
        assert report.idr == pytest.approx((1 - 4 / 5) / 2, abs=1e-12)
        # Every attribute inside the allowed whitelist.
        assert report.ara == 0.0
        assert "sys-a" in table

    def test_missing_manifest_entry_raises(self):
        run = SystemRun("sys-a", (DescriptionRun("unknown", (_result(True, ["a"]),), None),))
        with pytest.raises(MetricError, match="no manifest entry for description 'unknown'"):
            evaluate_run([run], _manifest())

    def test_system_without_descriptions_rejected(self):
        with pytest.raises(MetricError, match="system 'sys-a' has no descriptions"):
            evaluate_run([SystemRun("sys-a", ())], _manifest())

    def test_research_outputs_excluded_from_divergence(self):
        schema = SpecSchema.default()
        doc = {
            "part_name": "Bolt",
            "manufacturer": "Acme",
            "part_number": "B1",
            "specifications": {},
        }
        outputs = (
            validate_spec_document(doc, schema, "m1", PHASE_EXTRACTION),
            validate_spec_document(doc, schema, "m2", PHASE_EXTRACTION),
            validate_spec_document(dict(doc, extra="x"), schema, "m3", PHASE_RESEARCH),
        )
        run = SystemRun("sys-a", (DescriptionRun("d1", outputs, None),))
        reports, _ = evaluate_run([run], _manifest())
        # The research output's extra field would raise divergence above zero.
        assert reports[0].idr == 0.0

    def test_descriptions_without_outputs_score_zero_quality_and_relevance(self):
        run = SystemRun("sys-a", (DescriptionRun("d1", ()), DescriptionRun("d2", ())))
        [report], _ = evaluate_run([run], _manifest())
        # No output to judge and no attribute to weigh: 0.0, not a division by zero.
        assert (report.ics, report.sdq, report.idr, report.ara) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "description, extraneous",
        [
            (DescriptionRun("d1", (), ("manufacturer", "part_name", "weight")), 1 / 3),
            (
                DescriptionRun(
                    "d1",
                    (
                        _result(True, ["part_name", "color"], model="m1"),
                        _result(True, ["part_name", "mass"], model="m2"),
                        # Schema-invalid, so its field is not extracted.
                        ExtractionResult(
                            "m3", PHASE_EXTRACTION,
                            (FieldClaim.make("junk", "v", 1.0, "m3", PHASE_EXTRACTION),), False,
                        ),
                    ),
                ),
                2 / 3,
            ),
        ],
        ids=["final_fields", "union_of_outputs"],
    )
    def test_extraneous_attributes_raise_relevance(self, description, extraneous):
        """Attributes outside the allowed set over all attributes: from the
        final spec's fields, else from the union of schema-valid outputs."""
        manifest = GroundTruthManifest.from_dict(
            {
                "d1": {
                    "expected_fields": ["part_name"],
                    "detail_max": 2,
                    "allowed_attributes": ["manufacturer", "part_name"],
                }
            }
        )
        [report], _ = evaluate_run([SystemRun("sys-a", (description,))], manifest)
        assert report.ara == extraneous

    def test_single_valid_output_scores_zero_divergence(self):
        run = SystemRun(
            "sys-a",
            (DescriptionRun("d1", (_result(True, ["part_name"]), _result(False)), None),),
        )
        reports, _ = evaluate_run([run], _manifest())
        assert reports[0].idr == 0.0


class TestRunFiles:
    def test_round_trip(self, tmp_path):
        run = _run_fixture()
        payload = {
            "system_id": run.system_id,
            "descriptions": [
                {
                    "description_id": d.description_id,
                    "outputs": [o.to_dict() for o in d.outputs],
                    "final": (
                        None
                        if d.final_fields is None
                        else {"fields": {name: {} for name in d.final_fields}}
                    ),
                }
                for d in run.descriptions
            ],
        }
        path = tmp_path / "sys-a.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_system_run(path)
        assert loaded == run

    def test_runs_dir_sorted(self, tmp_path):
        for name in ("zeta.json", "alpha.json"):
            (tmp_path / name).write_text(
                json.dumps({"system_id": name.split(".")[0], "descriptions": []}),
                encoding="utf-8",
            )
        runs = load_runs_dir(tmp_path)
        assert [run.system_id for run in runs] == ["alpha", "zeta"]

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no run files"):
            load_runs_dir(tmp_path)

    def test_malformed_run_file_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text('["not", "an", "object"]', encoding="utf-8")
        with pytest.raises(ValueError, match="system_id"):
            load_runs_dir(tmp_path)

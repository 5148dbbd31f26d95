"""tools/bench_diff.py — the benchmark regression gate."""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

DIFF_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_diff.py"
BASELINE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


@pytest.fixture(scope="module")
def bench_diff():
    spec = importlib.util.spec_from_file_location("bench_diff", DIFF_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through
    # sys.modules, so the module must be registered before exec.
    sys.modules["bench_diff"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def telemetry_doc():
    return {
        "schema": "repro-bench-telemetry/1",
        "tier": "tiny",
        "seed": 0,
        "colors": 4,
        "runs": [
            {
                "graph": "orkut",
                "count": 1000,
                "phases": {
                    "setup": 0.010,
                    "sample_creation": 0.002,
                    "triangle_count": 0.005,
                },
                "throughput_edges_per_ms": 2500.0,
                "load_balance": 1.8,
                "wall_seconds": 0.4,
            },
            {
                "graph": "wikipedia",
                "count": 2000,
                "phases": {
                    "setup": 0.012,
                    "sample_creation": 0.003,
                    "triangle_count": 0.009,
                },
                "throughput_edges_per_ms": 1800.0,
                "load_balance": 2.1,
                "wall_seconds": 0.9,
            },
        ],
    }


class TestDiffDocuments:
    def test_identical_documents_pass(self, bench_diff, telemetry_doc):
        summary = bench_diff.diff_documents(telemetry_doc, telemetry_doc)
        assert summary["failed"] is False
        assert summary["failures"] == []
        assert all(e["verdict"] == "ok" for e in summary["entries"])

    def test_twenty_percent_simulated_regression_fails(
        self, bench_diff, telemetry_doc
    ):
        current = copy.deepcopy(telemetry_doc)
        current["runs"][0]["phases"]["triangle_count"] *= 1.20
        summary = bench_diff.diff_documents(telemetry_doc, current)
        assert summary["failed"] is True
        assert any("triangle_count" in f for f in summary["failures"])

    def test_small_drift_within_threshold_passes(self, bench_diff, telemetry_doc):
        current = copy.deepcopy(telemetry_doc)
        current["runs"][0]["throughput_edges_per_ms"] *= 0.97
        current["runs"][1]["load_balance"] *= 1.03
        summary = bench_diff.diff_documents(telemetry_doc, current)
        assert summary["failed"] is False

    def test_improvement_never_fails(self, bench_diff, telemetry_doc):
        current = copy.deepcopy(telemetry_doc)
        current["runs"][0]["load_balance"] *= 0.5
        current["runs"][0]["throughput_edges_per_ms"] *= 2.0
        summary = bench_diff.diff_documents(telemetry_doc, current)
        assert summary["failed"] is False
        assert any(e["verdict"] == "improved" for e in summary["entries"])

    @pytest.mark.parametrize("factor", [1.03, 0.5])
    def test_phase_totals_are_exact(self, bench_diff, telemetry_doc, factor):
        """Simulated phase totals are bit-identical across machines: any
        drift fails the gate, whatever the threshold or direction."""
        current = copy.deepcopy(telemetry_doc)
        current["runs"][0]["phases"]["triangle_count"] *= factor
        summary = bench_diff.diff_documents(telemetry_doc, current, threshold=10.0)
        assert summary["failed"] is True
        assert any("phases.triangle_count" in f for f in summary["failures"])

    @pytest.mark.parametrize(
        "metric", ["kernel.instructions", "kernel.dma_requests", "kernel.dma_bytes"]
    )
    def test_one_unit_kernel_charge_drift_fails(
        self, bench_diff, telemetry_doc, metric
    ):
        """Metric names contain dots; the rules must still reach them."""
        baseline = copy.deepcopy(telemetry_doc)
        for run in baseline["runs"]:
            run["metrics"] = {
                "kernel.instructions": {"kind": "counter", "value": 2103660.0},
                "kernel.dma_requests": {"kind": "counter", "value": 12337.0},
                "kernel.dma_bytes": {"kind": "counter", "value": 1144224.0},
            }
        clean = bench_diff.diff_documents(baseline, baseline)
        assert clean["failed"] is False
        gated = {e["metric"] for e in clean["entries"]}
        assert f"metrics.{metric}.value" in gated
        current = copy.deepcopy(baseline)
        current["runs"][1]["metrics"][metric]["value"] += 1
        summary = bench_diff.diff_documents(baseline, current, threshold=10.0)
        assert summary["failed"] is True
        assert any(f"wikipedia.metrics.{metric}.value" in f for f in summary["failures"])

    def test_count_change_fails_regardless_of_threshold(
        self, bench_diff, telemetry_doc
    ):
        current = copy.deepcopy(telemetry_doc)
        current["runs"][0]["count"] += 1
        summary = bench_diff.diff_documents(
            telemetry_doc, current, threshold=10.0
        )
        assert summary["failed"] is True

    def test_throughput_drop_fails(self, bench_diff, telemetry_doc):
        current = copy.deepcopy(telemetry_doc)
        current["runs"][1]["throughput_edges_per_ms"] *= 0.7
        summary = bench_diff.diff_documents(telemetry_doc, current)
        assert summary["failed"] is True

    def test_wall_clock_regression_only_warns(self, bench_diff, telemetry_doc):
        current = copy.deepcopy(telemetry_doc)
        current["runs"][0]["wall_seconds"] *= 3.0
        summary = bench_diff.diff_documents(telemetry_doc, current)
        assert summary["failed"] is False
        assert any("wall_seconds" in w for w in summary["warnings"])

    def test_missing_graph_is_a_coverage_regression(
        self, bench_diff, telemetry_doc
    ):
        current = copy.deepcopy(telemetry_doc)
        del current["runs"][1]
        summary = bench_diff.diff_documents(telemetry_doc, current)
        assert summary["failed"] is True
        assert any("wikipedia" in f for f in summary["failures"])

    def test_new_graph_only_warns(self, bench_diff, telemetry_doc):
        current = copy.deepcopy(telemetry_doc)
        extra = copy.deepcopy(current["runs"][0])
        extra["graph"] = "kron"
        current["runs"].append(extra)
        summary = bench_diff.diff_documents(telemetry_doc, current)
        assert summary["failed"] is False
        assert any("kron" in w for w in summary["warnings"])

    def test_schema_mismatch_fails(self, bench_diff, telemetry_doc):
        current = copy.deepcopy(telemetry_doc)
        current["schema"] = "repro-bench-ingest/1"
        summary = bench_diff.diff_documents(telemetry_doc, current)
        assert summary["failed"] is True

    def test_unknown_schema_fails(self, bench_diff):
        doc = {"schema": "no-such-schema/9", "runs": []}
        summary = bench_diff.diff_documents(doc, doc)
        assert summary["failed"] is True

    def test_imbalance_schema_gates_skew_ratios(self, bench_diff):
        doc = {
            "schema": "repro-bench-imbalance/1",
            "runs": [
                {
                    "graph": "orkut",
                    "count": 42,
                    "baseline": {
                        "count_seconds": {"max": 0.004, "max_over_mean": 2.0},
                        "merge_steps": {"max_over_mean": 2.5},
                    },
                    "misra_gries": {
                        "count_seconds": {"max": 0.003, "max_over_mean": 1.4},
                    },
                    "skew_improvement_max_over_mean": 1.43,
                }
            ],
        }
        current = copy.deepcopy(doc)
        current["runs"][0]["misra_gries"]["count_seconds"]["max_over_mean"] = 1.8
        summary = bench_diff.diff_documents(doc, current)
        assert summary["failed"] is True
        assert bench_diff.diff_documents(doc, doc)["failed"] is False

    def test_imbalance_v2_gates_degree_strategy(self, bench_diff):
        doc = {
            "schema": "repro-bench-imbalance/2",
            "runs": [
                {
                    "graph": "wikipedia",
                    "count": 1368,
                    "counts_match": True,
                    "counts_match_degree": True,
                    "baseline": {
                        "count_seconds": {"max": 0.004, "max_over_mean": 2.14},
                        "merge_steps": {"max_over_mean": 2.5},
                    },
                    "misra_gries": {
                        "count_seconds": {"max": 0.003, "max_over_mean": 1.4},
                    },
                    "degree": {
                        "count_seconds": {"max_over_mean": 2.12},
                        "edges_routed": {
                            "max_over_mean": 2.12, "p99_over_p50": 2.24,
                        },
                    },
                    "skew_improvement_max_over_mean": 1.53,
                    "skew_improvement_degree": 1.01,
                }
            ],
        }
        assert bench_diff.diff_documents(doc, doc)["failed"] is False

        # a degree-side skew regression beyond threshold is a hard failure
        worse = copy.deepcopy(doc)
        worse["runs"][0]["degree"]["edges_routed"]["p99_over_p50"] = 2.6
        assert bench_diff.diff_documents(doc, worse)["failed"] is True

        # a degree-count mismatch (exact metric flips True -> False) fails
        broken = copy.deepcopy(doc)
        broken["runs"][0]["counts_match_degree"] = False
        assert bench_diff.diff_documents(doc, broken)["failed"] is True

        # a shrinking improvement factor only warns, never fails
        flat = copy.deepcopy(doc)
        flat["runs"][0]["skew_improvement_degree"] = 0.9
        summary = bench_diff.diff_documents(doc, flat)
        assert summary["failed"] is False
        assert any("skew_improvement_degree" in w for w in summary["warnings"])


class TestCli:
    def test_exit_codes_and_summary_artifact(
        self, bench_diff, telemetry_doc, tmp_path
    ):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(telemetry_doc))
        regressed = copy.deepcopy(telemetry_doc)
        for run in regressed["runs"]:
            run["throughput_edges_per_ms"] *= 0.80
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(regressed))
        out = tmp_path / "summary.json"

        assert bench_diff.main([str(base), str(base)]) == 0
        assert bench_diff.main([str(base), str(cur), "--out", str(out)]) == 1
        summary = json.loads(out.read_text())
        assert summary["schema"] == "repro-bench-diff/1"
        assert summary["failed"] is True
        # a loose threshold lets the same regression through
        assert bench_diff.main([str(base), str(cur), "--threshold", "0.5"]) == 0

    def test_render_summary_mentions_regressions(self, bench_diff, telemetry_doc):
        current = copy.deepcopy(telemetry_doc)
        current["runs"][0]["phases"]["setup"] *= 2.0
        summary = bench_diff.diff_documents(telemetry_doc, current)
        text = bench_diff.render_summary(summary)
        assert "REGRESSION" in text
        assert "hard failures" in text


class TestCommittedBaselines:
    """The baselines shipped in-repo must be self-consistent with the gate."""

    @pytest.mark.parametrize(
        "name", ["BENCH_telemetry.json", "BENCH_ingest.json", "BENCH_imbalance.json"]
    )
    def test_baseline_diffs_clean_against_itself(self, bench_diff, name):
        path = BASELINE_DIR / name
        doc = json.loads(path.read_text())
        summary = bench_diff.diff_documents(doc, doc)
        assert summary["failed"] is False
        assert summary["entries"], f"{name}: gate compared no metrics"


class TestHistoryTrendExtension:
    """--history: the point gate extended to trajectory-vs-history."""

    def test_current_run_is_appended_to_history(
        self, bench_diff, telemetry_doc, tmp_path
    ):
        from repro.observability.history import RunHistory

        base = tmp_path / "base.json"
        base.write_text(json.dumps(telemetry_doc))
        db = tmp_path / "history.db"
        assert bench_diff.main([str(base), str(base), "--history", str(db)]) == 0
        assert bench_diff.main([str(base), str(base), "--history", str(db)]) == 0
        with RunHistory(db) as history:
            assert history.num_runs() == 2 * len(telemetry_doc["runs"])

    def test_trend_failure_fails_gate_even_when_point_diff_passes(
        self, bench_diff, telemetry_doc, tmp_path
    ):
        """Slow drift: each run passes the point diff, the trajectory fails."""
        from repro.observability.history import RunHistory

        db = tmp_path / "history.db"
        with RunHistory(db) as history:
            for _ in range(6):
                history.ingest(telemetry_doc, source="seeded")
        drifted = copy.deepcopy(telemetry_doc)
        for run in drifted["runs"]:
            run["phases"]["triangle_count"] *= 1.20
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        # Point diff sees cur-vs-cur (clean); only the history knows better.
        base.write_text(json.dumps(drifted))
        cur.write_text(json.dumps(drifted))
        out = tmp_path / "summary.json"
        rc = bench_diff.main(
            [str(base), str(cur), "--history", str(db), "--out", str(out)]
        )
        assert rc == 1
        summary = json.loads(out.read_text())
        assert summary["trend"]["failed"] is True
        assert any(
            "triangle_count" in line for line in summary["trend"]["failures"]
        )

    def test_young_history_stays_warn_only(
        self, bench_diff, telemetry_doc, tmp_path
    ):
        from repro.observability.history import RunHistory

        db = tmp_path / "history.db"
        with RunHistory(db) as history:
            history.ingest(telemetry_doc, source="seeded")
        drifted = copy.deepcopy(telemetry_doc)
        for run in drifted["runs"]:
            run["phases"]["triangle_count"] *= 1.20
        base = tmp_path / "base.json"
        base.write_text(json.dumps(drifted))
        rc = bench_diff.main(
            [str(base), str(base), "--history", str(db), "--trend-min-runs", "5"]
        )
        assert rc == 0

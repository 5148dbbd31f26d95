"""Run-history store and trend regression gate.

The load-bearing assertions: ingestion is lossless (the stored document
round-trips byte-for-byte and every numeric leaf is queryable), the
committed benchmark baselines re-ingested against themselves are trend-clean
(a stable history never bricks the gate), and an injected 20% simulated-clock
drift over a synthetic 10-run history is flagged as a hard regression (the
gate has teeth).  Young series (< min_runs) only warn.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import PimTriangleCounter
from repro.graph.generators import erdos_renyi
from repro.observability.history import (
    RunHistory,
    classify_metric,
    detect_trends,
    flatten_numeric,
    main as history_main,
    render_trend_summary,
)
from repro.telemetry import RunReport, Telemetry
import numpy as np

BASELINE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


def small_report(seed: int = 0) -> dict:
    """A real RunReport document from one tiny pipeline run."""
    rng = np.random.default_rng(11)
    graph = erdos_renyi(80, 400, rng).canonicalize()
    telemetry = Telemetry(detail=True)
    result = PimTriangleCounter(num_colors=4, seed=seed, telemetry=telemetry).count(
        graph
    )
    return RunReport.from_result(
        result, graph=graph, config={"colors": 4, "seed": seed, "executor": "serial"}
    ).to_dict()


@pytest.fixture(scope="module")
def report_doc() -> dict:
    return small_report()


class TestFlatten:
    def test_scalars_bools_and_nesting(self):
        flat = flatten_numeric(
            {"a": 1, "b": {"c": 2.5, "d": True}, "e": "text", "f": [1, 2]}
        )
        assert flat == {"a": 1.0, "b.c": 2.5, "b.d": 1.0}

    def test_metric_registry_entries_collapse(self):
        flat = flatten_numeric(
            {
                "m": {"kind": "counter", "value": 7, "help": "x"},
                "g": {"kind": "gauge", "value": 1.5},
                "h": {"kind": "histogram", "sum": 10.0, "count": 4, "buckets": {}},
            }
        )
        assert flat == {"m": 7.0, "g": 1.5, "h.sum": 10.0, "h.count": 4.0}

    def test_spans_subtree_skipped(self):
        assert flatten_numeric({"spans": {"x": 1}, "y": 2}) == {"y": 2.0}

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll",)),
                min_size=1,
                max_size=6,
            ),
            st.one_of(
                st.integers(-1000, 1000),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.booleans(),
                st.dictionaries(
                    st.text(
                        alphabet=st.characters(whitelist_categories=("Ll",)),
                        min_size=1,
                        max_size=6,
                    ),
                    st.integers(-1000, 1000),
                    max_size=3,
                ),
            ),
            max_size=6,
        )
    )
    def test_every_numeric_leaf_lands_exactly_once(self, record):
        flat = flatten_numeric(record)
        expected = 0
        for key, value in record.items():
            if key == "spans":  # mirrors flatten_numeric's default skip list
                continue
            if isinstance(value, dict):
                expected += sum(
                    isinstance(v, (int, float, bool))
                    for k, v in value.items()
                    if k != "spans"
                )
            elif isinstance(value, (int, float, bool)):
                expected += 1
        assert len(flat) == expected
        assert all(isinstance(v, float) for v in flat.values())


class TestIngestRoundTrip:
    def test_report_document_round_trips(self, report_doc, tmp_path):
        with RunHistory(tmp_path / "h.db") as history:
            (ref,) = history.ingest(report_doc, source="unit")
            record = history.run(ref)
        # JSON normalization (tuples -> lists) is the only permitted change.
        assert record["document"] == json.loads(json.dumps(report_doc))
        assert record["graph"] == report_doc["graph"]["name"]
        assert record["kind"] == "report"
        assert record["executor"] == "serial"

    def test_report_samples_cover_result_and_phases(self, report_doc, tmp_path):
        with RunHistory(tmp_path / "h.db") as history:
            (ref,) = history.ingest(report_doc)
            samples = history.samples(ref)
            record = history.run(ref)
        result = report_doc["result"]
        assert samples["result.count"] == float(result["count"])
        for phase, sim in result["phases"].items():
            assert samples[f"result.phases.{phase}"] == pytest.approx(float(sim))
            assert record["phases"][phase]["sim_seconds"] == pytest.approx(float(sim))
            # Wall per phase comes from the top-level spans.
            assert record["phases"][phase]["wall_seconds"] is not None
        assert "wall_seconds" in samples

    def test_bench_artifact_one_row_per_graph(self, tmp_path):
        path = BASELINE_DIR / "BENCH_telemetry.json"
        document = json.loads(path.read_text())
        with RunHistory(tmp_path / "h.db") as history:
            refs = history.ingest_file(str(path))
            assert len(refs) == len(document["runs"])
            graphs = history.graphs()
            assert sorted(r["graph"] for r in document["runs"]) == graphs
            record = history.run(refs[0])
        assert record["kind"] == "bench"
        assert record["config"]["tier"] == document["tier"]
        assert record["document"] in document["runs"]

    def test_all_committed_baselines_ingest(self, tmp_path):
        with RunHistory(tmp_path / "h.db") as history:
            for path in sorted(BASELINE_DIR.glob("BENCH_*.json")):
                assert history.ingest_file(str(path))
            assert set(history.schemas()) == {
                "repro-bench-telemetry/1",
                "repro-bench-ingest/1",
                "repro-bench-imbalance/2",
            }

    def test_unknown_schema_rejected(self, tmp_path):
        with RunHistory(tmp_path / "h.db") as history:
            with pytest.raises(ValueError, match="cannot ingest"):
                history.ingest({"schema": "mystery/1"})

    def test_series_and_compare(self, report_doc, tmp_path):
        with RunHistory(tmp_path / "h.db") as history:
            (a,) = history.ingest(report_doc, source="first")
            (b,) = history.ingest(report_doc, source="second")
            graph = report_doc["graph"]["name"]
            series = history.series(graph, "result.count")
            assert series == [(a, series[0][1]), (b, series[0][1])]
            diff = history.compare(a, b)
        assert diff["entries"]
        assert all(e["rel_change"] == 0.0 for e in diff["entries"])


class TestTrendGate:
    def test_rules_classify_the_gated_families(self):
        assert classify_metric("result.phases.triangle_count").severity == "hard"
        assert classify_metric("result.count").direction == "exact"
        assert classify_metric("wall_seconds").severity == "warn"
        assert classify_metric("throughput_edges_per_ms").direction == "lower_worse"
        assert classify_metric("skew.edges_routed.max_over_mean").severity == "hard"
        assert classify_metric("some.unrelated.metric") is None

    def test_injected_sim_clock_drift_fails(self, report_doc, tmp_path):
        """A 20% simulated-clock regression on the latest run is a hard fail."""
        with RunHistory(tmp_path / "h.db") as history:
            for _ in range(9):
                history.ingest(report_doc)
            drifted = copy.deepcopy(report_doc)
            for phase in drifted["result"]["phases"]:
                drifted["result"]["phases"][phase] *= 1.20
            history.ingest(drifted, source="drifted")
            summary = detect_trends(history, window=5, min_runs=5)
        assert summary["failed"]
        failing = {e["metric"] for e in summary["entries"] if e["verdict"] == "regression"}
        assert any(m.startswith("result.phases.") for m in failing)
        rendered = render_trend_summary(summary)
        assert "hard failures" in rendered

    def test_stable_self_history_is_clean(self, tmp_path):
        """Committed baselines re-ingested against themselves never fail."""
        with RunHistory(tmp_path / "h.db") as history:
            for _ in range(3):
                for path in sorted(BASELINE_DIR.glob("BENCH_*.json")):
                    history.ingest_file(str(path))
            summary = detect_trends(history, window=5, min_runs=2)
        assert summary["entries"]
        assert not summary["failed"]
        assert not summary["warnings"]

    def test_young_series_downgrades_to_warn(self, report_doc, tmp_path):
        with RunHistory(tmp_path / "h.db") as history:
            history.ingest(report_doc)
            drifted = copy.deepcopy(report_doc)
            for phase in drifted["result"]["phases"]:
                drifted["result"]["phases"][phase] *= 1.20
            history.ingest(drifted)
            summary = detect_trends(history, window=5, min_runs=5)
        assert not summary["failed"]
        assert summary["warnings"]

    def test_exact_metric_any_deviation_flags(self, report_doc, tmp_path):
        with RunHistory(tmp_path / "h.db") as history:
            for _ in range(6):
                history.ingest(report_doc)
            off_by_one = copy.deepcopy(report_doc)
            off_by_one["result"]["count"] += 1
            history.ingest(off_by_one)
            summary = detect_trends(history, min_runs=5)
        assert summary["failed"]
        assert any("result.count" in line for line in summary["failures"])

    def test_improvement_does_not_fail(self, report_doc, tmp_path):
        """Drift in the good direction (faster clocks) passes the gate."""
        with RunHistory(tmp_path / "h.db") as history:
            for _ in range(6):
                history.ingest(report_doc)
            faster = copy.deepcopy(report_doc)
            for phase in faster["result"]["phases"]:
                faster["result"]["phases"][phase] *= 0.5
            history.ingest(faster)
            summary = detect_trends(history, min_runs=5)
        phase_entries = [
            e
            for e in summary["entries"]
            if e["metric"].startswith("result.phases.")
        ]
        assert phase_entries
        assert all(e["verdict"] == "ok" for e in phase_entries)


class TestHistoryCli:
    def test_ingest_list_show_trend(self, tmp_path, capsys):
        db = str(tmp_path / "h.db")
        baseline = str(BASELINE_DIR / "BENCH_telemetry.json")
        assert history_main([db, "ingest", baseline]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out

        assert history_main([db, "list", "--graph", "wikipedia"]) == 0
        out = capsys.readouterr().out
        assert "wikipedia" in out and "1 run(s)" in out

        assert history_main([db, "show", "1"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["id"] == 1 and shown["samples"]

        trend_out = tmp_path / "trend.json"
        assert history_main([db, "trend", "--min-runs", "2", "--out", str(trend_out)]) == 0
        summary = json.loads(trend_out.read_text())
        assert summary["schema"] == "repro-history-trend/1"

    def test_compare_subcommand(self, tmp_path, capsys):
        db = str(tmp_path / "h.db")
        baseline = str(BASELINE_DIR / "BENCH_telemetry.json")
        history_main([db, "ingest", baseline, baseline])
        capsys.readouterr()
        first_two_same_graph = None
        with RunHistory(db) as history:
            rows = history.runs()
            by_graph: dict = {}
            for row in rows:
                by_graph.setdefault(row["graph"], []).append(row["id"])
            first_two_same_graph = next(iter(by_graph.values()))[:2]
        a, b = first_two_same_graph
        assert history_main([db, "compare", str(a), str(b)]) == 0
        assert "comparing run" in capsys.readouterr().out

    def test_trend_exit_code_on_regression(self, tmp_path):
        db = str(tmp_path / "h.db")
        doc = small_report()
        with RunHistory(db) as history:
            for _ in range(6):
                history.ingest(doc)
            drifted = copy.deepcopy(doc)
            drifted["result"]["count"] += 5
            history.ingest(drifted)
        assert history_main([db, "trend", "--min-runs", "5"]) == 1


class TestConcurrentIngest:
    """WAL + busy_timeout make parallel writers (service sessions, CI jobs
    sharing a cached store) wait instead of failing with 'database is locked'."""

    def test_store_opens_in_wal_mode(self, tmp_path):
        db = str(tmp_path / "wal.db")
        with RunHistory(db) as history:
            mode = history._db.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode.lower() == "wal"
        # In-memory stores skip WAL (it needs a file) but must still work.
        with RunHistory(":memory:") as history:
            history.ingest(small_report())
            assert len(history.runs()) == 1

    def test_parallel_writers_all_land(self, tmp_path, report_doc):
        import threading

        db = str(tmp_path / "contended.db")
        writers, per_writer = 6, 5
        errors: list[BaseException] = []
        barrier = threading.Barrier(writers)

        def ingest_many():
            try:
                barrier.wait()  # maximize write overlap
                with RunHistory(db, busy_timeout=30.0) as history:
                    for _ in range(per_writer):
                        history.ingest(report_doc)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=ingest_many) for _ in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors, errors
        with RunHistory(db) as history:
            rows = history.runs()
            assert len(rows) == writers * per_writer
            # Every row's stored document is intact despite the contention
            # (compared post-JSON-round-trip: tuples legitimately become lists).
            canonical = json.loads(json.dumps(report_doc))
            for row in rows[:3]:
                stored = history.run(row["id"])
                assert stored["document"] == canonical


def _service_snapshot(requests=3.0, p99=0.002):
    """A minimal repro-service-metrics/1 document (the metrics-op shape)."""
    return {
        "schema": "repro-service-metrics/1",
        "generated_at": 1000.0,
        "uptime_seconds": 60.0,
        "observability": True,
        "max_sessions": 8,
        "sessions_open": 1,
        "service": {
            "service.requests.insert": {
                "kind": "counter", "value": requests, "help": "", "volatile": False,
            },
            "service.rejections.backpressure": {
                "kind": "counter", "value": 1.0, "help": "", "volatile": False,
            },
            "service.sessions_open": {
                "kind": "gauge", "value": 1.0, "help": "", "volatile": False,
            },
            "service.op_latency_seconds.insert": {
                "kind": "histogram",
                "buckets": [0.001, 0.01],
                "counts": [2, 1, 0],
                "sum": 0.004,
                "count": 3,
                "min": 0.0005,
                "max": 0.003,
                "help": "",
                "volatile": True,
            },
        },
        "latency": {
            "insert": {"n": 3, "mean": 0.0013, "p50": 0.001, "p99": p99},
        },
        "sessions": {
            "alpha": {
                "metrics": {
                    "session.ops.insert": {
                        "kind": "counter", "value": 3.0, "help": "",
                        "volatile": False,
                    },
                },
                "latency": {
                    "insert": {"n": 3, "mean": 0.0013, "p50": 0.001, "p99": p99},
                },
                "pending": 0,
                "resident_bytes": 512,
                "rounds": 3,
            },
        },
    }


class TestServiceSnapshotIngest:
    def test_one_row_for_service_one_per_session(self, tmp_path):
        with RunHistory(str(tmp_path / "h.db")) as history:
            refs = history.ingest(_service_snapshot())
            rows = {row["id"]: row for row in history.runs()}
        assert len(refs) == 2
        kinds = {rows[r]["kind"] for r in refs}
        assert kinds == {"service", "service-session"}
        graphs = {rows[r]["graph"] for r in refs}
        assert graphs == {"service", "session:alpha"}

    def test_samples_cover_instruments_latency_and_scalars(self, tmp_path):
        with RunHistory(str(tmp_path / "h.db")) as history:
            service_ref, session_ref = history.ingest(_service_snapshot())
            service = history.run(service_ref)["samples"]
            session = history.run(session_ref)["samples"]
        assert service["service.requests.insert"] == 3.0
        assert service["service.op_latency_seconds.insert.sum"] == 0.004
        assert service["service.op_latency_seconds.insert.count"] == 3.0
        assert service["service.latency.insert.p99"] == 0.002
        assert service["service.uptime_seconds"] == 60.0
        assert session["session.ops.insert"] == 3.0
        assert session["session.latency.insert.p50"] == 0.001
        assert session["session.resident_bytes"] == 512.0

    def test_latency_drift_warns_but_never_hard_fails(self, tmp_path):
        with RunHistory(str(tmp_path / "h.db")) as history:
            for _ in range(6):
                history.ingest(_service_snapshot())
            history.ingest(_service_snapshot(requests=50.0, p99=0.5))
            summary = detect_trends(
                history, schema="repro-service-metrics/1", min_runs=2
            )
        drifted = [
            e
            for e in summary["entries"]
            if e["verdict"] != "ok" and "latency" in e["metric"]
        ]
        assert drifted, "the p99 regression must at least warn"
        assert summary["failures"] == []  # wall-derived series never gate hard
        assert not summary["failed"]


class TestServiceTrendRules:
    def test_service_series_classify_as_warn(self):
        for name in (
            "service.op_latency_seconds.insert.count",
            "service.latency.insert.p99",
            "session.latency.count.n",
            "session.ops.insert",
            "service.rejections.backpressure",
            "session.queue_wait_seconds.sum",
        ):
            rule = classify_metric(name)
            assert rule is not None, name
            assert rule.severity == "warn", name
            assert rule.direction == "higher_worse", name

    def test_histogram_count_never_claimed_by_exact_count_rule(self):
        # `…op_latency_seconds.count.count` ends in ".count" but is a
        # histogram sample total, not a triangle count: the service rules
        # sit first so the exact-hard rule never sees it.
        rule = classify_metric("service.op_latency_seconds.count.count")
        assert rule.severity == "warn"
        # The real triangle-count metric is still exact-hard.
        assert classify_metric("result.count").direction == "exact"

#!/usr/bin/env python
"""Benchmark regression gate: diff two ``BENCH_*.json`` artifacts.

Compares a freshly generated benchmark artifact against a committed baseline
(``benchmarks/baselines/``) metric by metric and exits nonzero when a *hard*
metric regresses beyond its threshold — this is what makes the ROADMAP's
"as fast as the hardware allows" north star enforceable in CI instead of
aspirational.

Severity model
--------------

* **hard** — simulated-clock quantities, counts, peak-memory bounds and skew
  ratios.  These are engine-invariant, bit-identical across machines, so any
  drift is a real behavior change: the gate fails (exit 1) when the relative
  change exceeds the threshold in the bad direction (default 5%).  Exact
  metrics (triangle counts, the telemetry phase totals and kernel charges)
  allow no drift at all, in either direction.
* **warn** — wall-clock measurements.  Honest timings vary across runners,
  so these only print a warning, never fail the gate.

Improvements (changes in the *good* direction) are reported but never fail.
A graph present in the baseline but missing from the current artifact is a
hard failure (coverage regression); new graphs only warn.

Usage::

    python tools/bench_diff.py benchmarks/baselines/BENCH_telemetry.json \
        BENCH_telemetry.json --out bench_diff_summary.json
    python tools/bench_diff.py baseline.json current.json --threshold 0.10

``--history DB`` extends the gate from point-vs-baseline to
trajectory-vs-history: the current artifact is appended to the
:class:`repro.observability.history.RunHistory` store at ``DB`` and a
rolling-window median drift check runs over the accumulated series
(warn-only until ``--trend-min-runs`` runs exist; see
``docs/observability.md`` §7).

Supported schemas: ``repro-bench-telemetry/1``, ``repro-bench-ingest/1``,
and ``repro-bench-imbalance/1`` and ``/2`` (see
``benchmarks/bench_report.py``; v2 adds the degree-partitioner comparison
columns).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

#: direction: "higher_worse" (times, bytes, skew), "lower_worse"
#: (throughput, savings), "exact" (counts — any change fails).
#: severity: "hard" fails the gate, "warn" only prints.
@dataclass(frozen=True)
class Rule:
    path: str
    direction: str
    severity: str


#: Simulated phase totals and kernel charges are bit-identical across
#: machines and engines, so they are gated exactly: only a deliberate
#: cost-model change, committed with a regenerated baseline, may move them.
_TELEMETRY_RULES = (
    Rule("phases.setup", "exact", "hard"),
    Rule("phases.sample_creation", "exact", "hard"),
    Rule("phases.triangle_count", "exact", "hard"),
    Rule("metrics.kernel.instructions.value", "exact", "hard"),
    Rule("metrics.kernel.dma_requests.value", "exact", "hard"),
    Rule("metrics.kernel.dma_bytes.value", "exact", "hard"),
    Rule("throughput_edges_per_ms", "lower_worse", "hard"),
    Rule("load_balance", "higher_worse", "hard"),
    Rule("count", "exact", "hard"),
    Rule("wall_seconds", "higher_worse", "warn"),
)

_INGEST_RULES = (
    Rule("count_batched", "exact", "hard"),
    Rule("count_monolithic", "exact", "hard"),
    Rule("sample_seconds_batched", "higher_worse", "hard"),
    Rule("total_seconds_batched", "higher_worse", "hard"),
    Rule("peak_routed_bytes_batched", "higher_worse", "hard"),
    Rule("overlap_saved_seconds", "lower_worse", "warn"),
)

_IMBALANCE_RULES = (
    Rule("count", "exact", "hard"),
    Rule("baseline.count_seconds.max", "higher_worse", "hard"),
    Rule("baseline.count_seconds.max_over_mean", "higher_worse", "hard"),
    Rule("baseline.merge_steps.max_over_mean", "higher_worse", "hard"),
    Rule("misra_gries.count_seconds.max", "higher_worse", "hard"),
    Rule("misra_gries.count_seconds.max_over_mean", "higher_worse", "hard"),
    Rule("skew_improvement_max_over_mean", "lower_worse", "warn"),
)

#: v2 extends v1 with the degree-partitioner side: counts stay exact, its
#: skew ratios are hard-gated (they are simulated-clock quantities), and the
#: hash-vs-degree improvement factor warns when it shrinks.
_IMBALANCE_RULES_V2 = _IMBALANCE_RULES + (
    Rule("counts_match_degree", "exact", "hard"),
    Rule("degree.count_seconds.max_over_mean", "higher_worse", "hard"),
    Rule("degree.edges_routed.max_over_mean", "higher_worse", "hard"),
    Rule("degree.edges_routed.p99_over_p50", "higher_worse", "hard"),
    Rule("skew_improvement_degree", "lower_worse", "warn"),
)

RULES_BY_SCHEMA: dict[str, tuple[Rule, ...]] = {
    "repro-bench-telemetry/1": _TELEMETRY_RULES,
    "repro-bench-ingest/1": _INGEST_RULES,
    "repro-bench-imbalance/1": _IMBALANCE_RULES,
    "repro-bench-imbalance/2": _IMBALANCE_RULES_V2,
}


def _lookup(record: dict, path: str):
    """Dotted-path lookup into nested dicts; None when any hop is missing.

    Keys may contain dots themselves (metric names such as
    ``kernel.instructions``): each hop takes the longest run of the remaining
    path's parts that is a key of the current dict.
    """
    node = record
    parts = path.split(".")
    while parts:
        if not isinstance(node, dict):
            return None
        for end in range(len(parts), 0, -1):
            key = ".".join(parts[:end])
            if key in node:
                node = node[key]
                parts = parts[end:]
                break
        else:
            return None
    return node


def _rel_change(base: float, cur: float) -> float:
    if base == 0:
        return 0.0 if cur == 0 else float("inf")
    return (cur - base) / abs(base)


def diff_documents(
    baseline: dict, current: dict, threshold: float = 0.05
) -> dict:
    """Compare two artifacts of the same schema; return the summary document.

    The summary carries one entry per (graph, metric) with the baseline and
    current values, the relative change, and the verdict (``ok`` /
    ``improved`` / ``warn`` / ``regression``), plus the overall ``failed``
    flag the CLI turns into the exit code.
    """
    schema = baseline.get("schema")
    entries: list[dict] = []
    failures: list[str] = []
    warnings: list[str] = []
    if schema != current.get("schema"):
        failures.append(
            f"schema mismatch: baseline {schema!r} vs current {current.get('schema')!r}"
        )
        return _summary(schema, threshold, entries, failures, warnings)
    rules = RULES_BY_SCHEMA.get(schema or "")
    if rules is None:
        failures.append(f"unknown schema {schema!r}; cannot diff")
        return _summary(schema, threshold, entries, failures, warnings)

    base_runs = {r.get("graph"): r for r in baseline.get("runs", [])}
    cur_runs = {r.get("graph"): r for r in current.get("runs", [])}
    for graph in base_runs:
        if graph not in cur_runs:
            failures.append(f"{graph}: present in baseline, missing from current")
    for graph in cur_runs:
        if graph not in base_runs:
            warnings.append(f"{graph}: new graph, no baseline to compare")

    for graph in sorted(set(base_runs) & set(cur_runs)):
        base_run, cur_run = base_runs[graph], cur_runs[graph]
        for rule in rules:
            base_val = _lookup(base_run, rule.path)
            cur_val = _lookup(cur_run, rule.path)
            if base_val is None or cur_val is None:
                # Baselines predating a metric (or vice versa) only warn:
                # schema evolution must not brick the gate.
                if base_val is not None or cur_val is not None:
                    warnings.append(f"{graph}.{rule.path}: present on one side only")
                continue
            base_val, cur_val = float(base_val), float(cur_val)
            rel = _rel_change(base_val, cur_val)
            verdict = "ok"
            if rule.direction == "exact":
                if cur_val != base_val:
                    verdict = "regression" if rule.severity == "hard" else "warn"
            else:
                bad = rel if rule.direction == "higher_worse" else -rel
                if bad > threshold:
                    verdict = "regression" if rule.severity == "hard" else "warn"
                elif bad < -threshold:
                    verdict = "improved"
            entry = {
                "graph": graph,
                "metric": rule.path,
                "severity": rule.severity,
                "baseline": base_val,
                "current": cur_val,
                "rel_change": rel,
                "verdict": verdict,
            }
            entries.append(entry)
            line = (
                f"{graph}.{rule.path}: {base_val:g} -> {cur_val:g} "
                f"({rel:+.1%})"
            )
            if verdict == "regression":
                failures.append(line)
            elif verdict == "warn":
                warnings.append(line)
    return _summary(schema, threshold, entries, failures, warnings)


def _summary(schema, threshold, entries, failures, warnings) -> dict:
    return {
        "schema": "repro-bench-diff/1",
        "compared_schema": schema,
        "threshold": threshold,
        "entries": entries,
        "failures": failures,
        "warnings": warnings,
        "failed": bool(failures),
    }


def render_summary(summary: dict) -> str:
    """Human-readable verdict table for CI logs."""
    lines = [
        f"bench diff ({summary['compared_schema']}, "
        f"threshold {summary['threshold']:.0%}):"
    ]
    interesting = [
        e for e in summary["entries"] if e["verdict"] != "ok"
    ] or summary["entries"][:5]
    for e in interesting:
        lines.append(
            f"  [{e['verdict']:<10}] {e['graph']}.{e['metric']}: "
            f"{e['baseline']:g} -> {e['current']:g} ({e['rel_change']:+.1%})"
        )
    for w in summary["warnings"]:
        lines.append(f"  [warn      ] {w}")
    for f in summary["failures"]:
        lines.append(f"  [REGRESSION] {f}")
    ok = sum(1 for e in summary["entries"] if e["verdict"] == "ok")
    lines.append(
        f"  {len(summary['entries'])} comparisons: {ok} ok, "
        f"{len(summary['warnings'])} warnings, "
        f"{len(summary['failures'])} hard failures"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json artifacts; exit 1 on hard regression"
    )
    parser.add_argument("baseline", help="committed baseline artifact")
    parser.add_argument("current", help="freshly generated artifact")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="relative-change tolerance for hard ratio "
                             "metrics (default 0.05 = 5%%)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON diff summary (CI artifact)")
    parser.add_argument("--history", default=None, metavar="DB",
                        help="append the current artifact to this run-history "
                             "store and extend the gate from point-vs-baseline "
                             "to trajectory-vs-history: a rolling-window "
                             "median drift check over the accumulated runs "
                             "(see docs/observability.md §7)")
    parser.add_argument("--trend-window", type=int, default=5, metavar="N",
                        help="median window for the --history trend check "
                             "(default 5)")
    parser.add_argument("--trend-min-runs", type=int, default=5, metavar="N",
                        help="with --history: series shorter than this only "
                             "warn, so a young history cannot fail the gate "
                             "(default 5)")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.current) as fh:
        current = json.load(fh)
    summary = diff_documents(baseline, current, threshold=args.threshold)
    print(render_summary(summary))
    failed = summary["failed"]
    if args.history:
        from repro.observability.history import (
            RunHistory,
            detect_trends,
            render_trend_summary,
        )

        with RunHistory(args.history) as history:
            history.ingest(current, source=args.current)
            trend = detect_trends(
                history,
                schema=current.get("schema"),
                window=args.trend_window,
                threshold=args.threshold,
                min_runs=args.trend_min_runs,
            )
        print(render_trend_summary(trend))
        summary["trend"] = trend
        failed = failed or trend["failed"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"diff summary written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one command, three workloads, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload static-hub --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` interleaves traced and untraced operations and prints the
per-layer metrics (self seconds per operation) plus the tracing overhead.
Every answer is checked against the ``count_triangles`` oracle; the last line
of standard output is one JSON object, and the exit status is non-zero when
any check failed.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import time

T0 = time.perf_counter()  # set-up time starts before the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("static-hub", "static-dense", "stream-window")
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time per phase (at least one full cycle or pass runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tier", default=None, choices=("tiny", "small", "bench"),
                   help="override the workload's dataset tier (self-test runs use tiny)")
    p.add_argument("--inject-wrong-count", action="store_true",
                   help="add one to the first checked count (self-test of the check)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def metric_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def ms(seconds: float) -> float:
    return seconds * 1e3


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    units = metric_units()[args.trace]
    # The workload is defined by its arguments alone, not by REPRO_* knobs.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    import_s = time.perf_counter() - T0
    workload = workloads.WORKLOADS[args.workload]
    if args.tier is not None:
        workload = replace(workload, tier=args.tier)
    if args.setup_only:  # one set-up repetition of a static workload, in a fresh process
        workload.setup(args.seed)
        print(time.perf_counter() - T0)
        return 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True  # set-up is traced for graph.load_s
    runner = run_stream if args.workload == "stream-window" else run_static
    out, setup_reps, rss, server_spans = runner(workload, args, tracer, import_s)
    attempted, failed = out.attempted, out.failed
    setup_s = statistics.median(setup_reps)

    print(f"perfbench {args.workload} seed={args.seed} tier={workload.tier} "
          f"trace={args.trace}: closed loop, one caller")
    if args.trace:
        # Static set-up repetitions after the first run in fresh, untraced processes.
        traced_setups = len(setup_reps) if runner is run_stream else 1
        metrics = layer_metrics(args.workload, out, tracer.spans, server_spans, traced_setups)
        write_trace(args, tracer.spans + server_spans)
    else:
        metrics = end_to_end(args.workload, out, setup_s, rss)
    print(f"  {'fail_ratio':28s} {failed}/{attempted} = {failed / attempted:.4f}")
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------- runners
def run_static(workload, args, tracer, import_s):
    """Set up, measure and check the answers.

    Set-up is timed here, imports included, and again in fresh processes.
    """
    t0 = time.perf_counter()
    variants = workload.setup(args.seed)
    reps = [import_s + time.perf_counter() - t0]
    for _ in range(SETUP_REPS - 1):
        cmd = [sys.executable, __file__, "--setup-only", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0"]
        if args.tier is not None:
            cmd += ["--tier", args.tier]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        reps.append(float(done.stdout.split()[-1]))
    trace_next = None
    if tracer is not None:
        keep_setup_spans(tracer)

        def trace_next(on):
            tracer.enabled = on
            tracer.trace_id = f"count-{len(tracer.spans)}"

    out = workload.measure(variants, args.seconds, trace_next)
    rss = rss_mb(resource.RUSAGE_SELF)
    workload.check(variants, out, corrupt=args.inject_wrong_count)
    return out, reps, rss, []


def run_stream(workload, args, tracer, import_s):
    """Set up a server three times (keeping the last), measure, shut down."""
    trace_out = None
    if tracer is not None:
        trace_out = workload.out_dir / f"spans-server-{os.getpid()}.json"
    reps, state = [], None
    try:
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            state = workload.setup(args.seed, str(trace_out) if trace_out else None)
            reps.append(import_s + time.perf_counter() - t0)
            if rep < SETUP_REPS - 1:
                workload.close(state)
                state = None
        trace_next = None
        if tracer is not None:
            keep_setup_spans(tracer)

            def trace_next(on):
                # The server records between SIGUSR1 and SIGUSR2; the ping
                # returns once its main thread has run the signal handler.
                tracer.enabled = False
                state.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
                state.client.ping()
                tracer.enabled = on

        out = workload.measure(state, args.seconds, trace_next,
                               corrupt=args.inject_wrong_count)
    finally:
        if state is not None:
            workload.close(state)
    server_spans = []
    if trace_out is not None:
        import tracing

        server_spans = tracing.load_spans(str(trace_out))
        trace_out.unlink()
    # Every server has exited and been waited for: this is their peak RSS.
    return out, reps, rss_mb(resource.RUSAGE_CHILDREN), server_spans


def keep_setup_spans(tracer) -> None:
    """Stop recording; of the set-up spans keep only the dataset loads.

    The warm-up's spans would otherwise count as work of the measured ops.
    """
    tracer.enabled = False
    tracer.spans[:] = [s for s in tracer.spans if s.layer == "graph"]


# --------------------------------------------------------------------- metrics
def end_to_end(name: str, out, setup_s: float, rss: float) -> dict:
    """The end-to-end metrics of an untraced phase, printed as they go."""
    stream = name == "stream-window"
    kinds = ("insert", "delete") if stream else ("count",)
    if not out.walls(*kinds):
        raise RuntimeError("no operation completed")
    timed = sum(op.wall for op in out.ops)
    edges = sum(op.edges for op in out.ops)
    metrics = {
        "setup_s": setup_s,
        "edges_per_s": edges / timed,
        "op_ms_p50": ms(out.median(*kinds)),
        "sim_s": out.sim["total"],
        "peak_rss_mb": rss,
    }
    named = {"setup_s": (setup_s, "s"), "edges_per_s": (metrics["edges_per_s"], "edges/s")}
    if stream:
        named["insert_ms_p50"] = (ms(out.median("insert")), "ms")
        named["delete_ms_p50"] = (ms(out.median("delete")), "ms")
        named["update_ms_p90"] = (ms(statistics.quantiles(out.walls(*kinds), n=10)[8]), "ms")
        named["query_ms_p50"] = (ms(out.median("count")), "ms")
    else:
        named["count_ms_p50"] = (metrics["op_ms_p50"], "ms")
    named["sim_s"] = (out.sim["total"], "s")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    for key, (value, unit) in named.items():
        print(f"  {key:28s} {value:.6g} {unit}")
    split = ", ".join(f"{p}={v:.6g}" for p, v in out.sim.items() if p != "total")
    print(f"  {'sim_s by phase':28s} {split}")
    counts = Counter(op.kind for op in out.ops)
    print(f"  {'samples':28s} " + ", ".join(f"{k}={n}" for k, n in sorted(counts.items())))
    return metrics


def layer_metrics(name, out, spans, server_spans, traced_setups) -> dict:
    """Per-layer self seconds and work counts per traced operation."""
    import tracing

    stream = name == "stream-window"
    kinds = ("insert", "delete") if stream else ("count",)
    setup_spans = [s for s in spans if s.layer == "graph"]
    run_spans = [s for s in spans if s.layer != "graph"] + server_spans
    ops = len(out.walls(*kinds, traced=True))
    self_s = tracing.self_times(run_spans)

    def per_op(layer):
        return self_s.get(layer, 0.0) / ops

    def total(layer, key):
        return sum(s.attrs.get(key, 0) for s in run_spans if s.layer == layer)

    def calls(*layers):
        return sum(1 for s in run_spans if s.layer in layers)

    arith_edges = total("core.arith", "edges")
    service = [s for s in spans if s.layer == "service" and s.attrs.get("op") in kinds]
    roundtrip = sum(s.seconds for s in service) / ops if stream else 0.0
    queue_wait = sum(s.attrs["queue_wait"] for s in service) / ops if stream else 0.0
    execute = sum(s.attrs["execute"] for s in service) / ops if stream else 0.0
    in_counter = sum(s.seconds for s in run_spans if s.layer.startswith("dynamic.")) / ops
    op_traced = statistics.fmean(out.walls(*kinds, traced=True))
    op_untraced = statistics.fmean(out.walls(*kinds))
    m = {
        "graph.load_s": tracing.self_times(setup_spans).get("graph", 0.0) / traced_setups,
        "coloring.assign_s": per_op("coloring"),
        "coloring.assign_calls": calls("coloring") / ops,
        "coloring.edges_routed": total("coloring", "routed") / ops,
        "core.orient_s": per_op("core.orient"),
        "core.orient_edges": total("core.orient", "edges") / ops,
        "core.region_s": per_op("core.region"),
        "core.arith_s": per_op("core.arith"),
        "core.arith_calls": calls("core.arith") / ops,
        "core.arith_edges": arith_edges / ops,
        "core.arith_edges_per_update": arith_edges / ops if stream else 0.0,
        "core.arith_useful_ratio": (
            total("coloring", "routed") / arith_edges if stream and arith_edges else 0.0
        ),
        "core.kernel_s": per_op("core.kernel"),
        "core.charge_s": per_op("core.charge"),
        "pimsim.insert_s": per_op("pimsim.insert"),
        "pimsim.launch_s": per_op("pimsim.launch"),
        "pimsim.dpu_tasks": (total("pimsim.insert", "dpu_tasks")
                             + total("pimsim.launch", "dpu_tasks")) / ops,
        "core.host_self_s": per_op("core.host"),
        "dynamic.insert_s": per_op("dynamic.insert"),
        "dynamic.delete_s": per_op("dynamic.delete"),
        "dynamic.calls": calls("dynamic.insert", "dynamic.delete") / ops,
        "service.roundtrip_s": roundtrip,
        "service.queue_wait_s": queue_wait,
        "service.execute_s": execute,
        "service.wire_s": roundtrip - queue_wait - execute if stream else 0.0,
        "service.session_overhead_s": execute - in_counter if stream else 0.0,
        "service.requests": float(calls("service")),
        "service.errors": float(out.service_errors),
        "trace.op_ms": ms(op_traced),
        "trace.untraced_op_ms": ms(op_untraced),
        "trace.overhead_ms": ms(op_traced - op_untraced),
    }
    if stream:
        parts = ["service.wire_s", "service.queue_wait_s", "service.session_overhead_s",
                 "dynamic.insert_s", "dynamic.delete_s"]
    else:
        parts = ["core.host_self_s", "pimsim.insert_s", "pimsim.launch_s",
                 "core.kernel_s", "core.charge_s"]
    parts += ["coloring.assign_s", "core.orient_s", "core.region_s", "core.arith_s"]
    print(f"  self time per {'/'.join(kinds)} (traced mean {ms(op_traced):.2f} ms over "
          f"{ops} ops, interleaved untraced mean {ms(op_untraced):.2f} ms):")
    for key in sorted(parts, key=lambda k: -m[k]):
        print(f"    {key:28s} {ms(m[key]):9.3f} ms  {m[key] / op_traced:6.1%}")
    rest = op_traced - sum(m[k] for k in parts)
    print(f"    {'(outside spans)':28s} {ms(rest):9.3f} ms  {rest / op_traced:6.1%}")
    for key in sorted(m):
        if key not in parts:
            print(f"  {key:30s} {m[key]:.6g}")
    return m


def write_trace(args, spans) -> None:
    """Keep the traced run's spans next to the build outputs."""
    import tracing

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracing.dump_spans(spans, str(path))
    print(f"  spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark, so it cannot rot silently.

Runs every workload once on tiny-tier inputs, untraced and traced, and
checks that each run passes with every metric of ``BENCHMARK.json``; then
feeds a deliberately wrong count through the correctness check and checks
that the run reports a failure and exits non-zero.  Run from the
repository root (about a minute)::

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tier", "tiny", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{' '.join(cmd)} printed nothing:\n{done.stderr}")
    return done.returncode, json.loads(lines[-1])


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)
    print(f"ok   {what}")


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            want = {m["name"] for m in SPEC[key]}
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace} passes on tiny inputs")
            expect(set(result["metrics"]) == want,
                   f"{workload} trace={trace} reports every {key} metric")
    for workload in ("static-hub", "stream-window"):
        code, result = run(workload, 0, "--inject-wrong-count")
        expect(code != 0 and not result["correct"]
               and result["failed"] / result["attempted"] > 0,
               f"{workload} flags a wrong count (fail_ratio > 0, exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

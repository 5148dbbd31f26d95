"""Run parameters come from arguments only.

The library reads no environment variable: a counter built with the same
arguments behaves the same whatever the process environment holds, and the
experiment harness hands its flags to the counters it builds as arguments
instead of leaving them behind in ``os.environ``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.api import PimTriangleCounter
from repro.core.host import PimTcOptions
from repro.experiments import runner
from repro.graph.generators import erdos_renyi
from repro.pimsim.executor import set_payload_pickle_hook
from repro.pimsim.shm import shm_available

#: The variables earlier versions read, each set to a non-default value.
FORMER_KNOBS = {
    "REPRO_BATCH_EDGES": "64",
    "REPRO_PARTITIONER": "degree",
    "REPRO_REBALANCE_CV": "0.25",
    "REPRO_KERNEL": "probe",
    "REPRO_EXECUTOR": "thread",
    "REPRO_JOBS": "3",
    "REPRO_SHM": "0",
}


@pytest.fixture
def clean_env(monkeypatch):
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    return monkeypatch


def test_environment_does_not_steer_a_counter(clean_env, rngs):
    for key, value in FORMER_KNOBS.items():
        clean_env.setenv(key, value)
    counter = PimTriangleCounter(num_colors=3)
    assert counter.options == PimTcOptions(num_colors=3)
    assert counter.system.config.executor == "serial"
    if not shm_available():
        return
    graph = erdos_renyi(300, 2500, rngs.stream("env")).canonicalize()
    transports: list[str] = []
    set_payload_pickle_hook(lambda size, transport: transports.append(transport))
    try:
        PimTriangleCounter(num_colors=3, executor="process", jobs=2).count(graph)
    finally:
        set_payload_pickle_hook(None)
    assert transports and set(transports) == {"shm"}


def test_arguments_set_every_former_knob():
    counter = PimTriangleCounter(
        num_colors=3,
        batch_edges=7,
        partitioner="degree",
        rebalance_cv=0.25,
        kernel_variant="probe",
        executor="thread",
        jobs=3,
    )
    o = counter.options
    assert (o.batch_edges, o.partitioner, o.rebalance_cv, o.kernel_variant) == (
        7,
        "degree",
        0.25,
        "probe",
    )
    assert (counter.system.config.executor, counter.system.config.jobs) == ("thread", 3)


def test_harness_flags_leave_no_environment_behind(clean_env, capsys):
    assert runner.main(["list", "--batch-edges", "64", "--partitioner", "degree"]) == 0
    assert not [k for k in os.environ if k.startswith("REPRO_")]
    assert PimTriangleCounter().options == PimTcOptions()


def test_harness_flags_reach_the_experiment_counters(clean_env, capsys):
    def fig3(*flags: str) -> dict:
        assert runner.main(["fig3", "--tier", "tiny", "--json", *flags]) == 0
        return json.loads(capsys.readouterr().out)

    assert fig3("--batch-edges", "64") != fig3()

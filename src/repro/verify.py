"""Self-verification: run the library's core invariants on demand.

``repro.verify.verify_installation()`` executes the correctness pillars on a
freshly generated graph — the checks a user should see pass before trusting
any number the library produces:

1. the exact oracle agrees with two independent reference implementations;
2. the coloring partition + monochromatic correction is exact for several C;
3. the reference tasklet kernel, the production (merge) kernel and the
   probe kernel agree, and the full PIM pipeline returns the oracle's count;
4. the remap is count-preserving;
5. the samplers' estimators pass a seed-sweep statistical acceptance test
   (Chebyshev bound with an explicit failure probability — see
   :mod:`repro.testing.statistical`);
6. local counts sum to three times the global count;
7. a small budget of the seeded correctness fuzzer
   (:mod:`repro.testing.fuzz`) finds no differential, metamorphic or
   dynamic-counter violation.

Also exposed as ``repro-count --verify`` (and the fuzzer alone, with a
bigger budget, as ``repro-count --fuzz N``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CheckResult", "verify_installation"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, fn) -> CheckResult:
    try:
        detail = fn() or ""
        return CheckResult(name=name, passed=True, detail=str(detail))
    except AssertionError as exc:
        return CheckResult(name=name, passed=False, detail=str(exc))


def verify_installation(
    seed: int = 0, verbose: bool = False, fuzz_budget: int = 3
) -> list[CheckResult]:
    """Run all invariant checks; returns one :class:`CheckResult` per pillar.

    ``fuzz_budget`` controls how many seeded fuzz iterations the last pillar
    spends (each runs the full differential grid plus every metamorphic
    relation on one generated graph, and replays its raw edge stream
    through the dynamic counter).
    """
    from .baselines.reference import count_triangles_dense
    from .coloring.partition import ColoringPartitioner
    from .common.rng import RngFactory
    from .core.api import PimTriangleCounter
    from .core.kernel_tc import count_triangles_reference
    from .core.kernel_tc_fast import fast_count
    from .core.kernel_tc_probe import probe_count
    from .core.remap import RemapTable, apply_remap
    from .graph.coo import COOGraph
    from .graph.generators import erdos_renyi
    from .graph.local_triangles import count_triangles_per_node
    from .graph.triangles import count_triangles

    rngs = RngFactory(seed)
    graph = erdos_renyi(120, 1800, rngs.stream("verify"), name="verify").canonicalize()
    truth = count_triangles(graph)

    def oracle_check():
        dense = count_triangles_dense(graph)
        assert truth == dense, f"oracle {truth} != dense reference {dense}"
        return f"T = {truth}"

    def partition_check():
        for c in (1, 2, 4, 7):
            p = ColoringPartitioner(c, rngs.stream("vc", c))
            counts = np.array(
                [
                    count_triangles(COOGraph(s.copy(), d.copy(), graph.num_nodes))
                    for s, d in p.assign(graph).per_dpu
                ],
                dtype=np.float64,
            )
            total = counts.sum() - (c - 1) * counts[p.mono_mask()].sum()
            assert total == truth, f"C={c}: corrected {total} != {truth}"
        return "C in {1,2,4,7} exact"

    def kernel_check():
        ref = count_triangles_reference(graph.src, graph.dst)
        fast = fast_count(graph.src, graph.dst, graph.num_nodes)
        probe = probe_count(graph.src, graph.dst, graph.num_nodes)
        assert ref.triangles == fast.triangles == probe.triangles == truth
        pipeline = PimTriangleCounter(num_colors=4, seed=seed).count(graph)
        assert pipeline.count == truth, f"pipeline {pipeline.count} != {truth}"
        return "reference == fast == probe == pipeline"

    def remap_check():
        top = np.argsort(-graph.degrees())[:5].astype(np.int64)
        table = RemapTable(nodes=top, num_nodes=graph.num_nodes)
        src, dst = apply_remap(table, graph.src, graph.dst)
        remapped = COOGraph(src, dst, table.remapped_num_nodes)
        assert count_triangles(remapped) == truth
        return "bijection count-preserving"

    def sampler_check():
        # Seed-sweep acceptance (repro.testing.statistical): a small sweep per
        # sampler, judged by a Chebyshev interval with explicit failure
        # probability.  On failure the AssertionError carries the observed
        # relative error and the seed range, so CheckResult.detail names both.
        from .testing.statistical import sweep_reservoir, sweep_uniform

        uni = sweep_uniform(
            graph, 0.5, n_seeds=8, delta=0.05, num_colors=4, first_seed=seed
        ).require()
        res = sweep_reservoir(
            graph,
            capacity=max(3, graph.num_edges // 6),
            n_seeds=8,
            delta=0.05,
            num_colors=4,
            first_seed=seed,
        ).require()
        return (
            f"uniform rel_err={uni.relative_mean_error:.2%}, "
            f"reservoir rel_err={res.relative_mean_error:.2%} "
            f"(seeds {seed}..{seed + 7}, Chebyshev delta=0.05)"
        )

    def local_check():
        local = count_triangles_per_node(graph)
        assert local.sum() == 3 * truth
        result = PimTriangleCounter(num_colors=3, seed=seed).count_local(graph)
        assert np.array_equal(result.local_counts(), local)
        return "local sums == 3T, pipeline exact"

    def fuzz_check():
        from .testing.fuzz import run_fuzz

        report = run_fuzz(fuzz_budget, seed=seed)
        assert report.ok, report.render()
        return report.summary()

    checks = [
        _check("oracle vs independent references", oracle_check),
        _check("coloring partition + mono correction", partition_check),
        _check("kernel equivalence + full pipeline", kernel_check),
        _check("Misra-Gries remap bijection", remap_check),
        _check("sampling estimators", sampler_check),
        _check("local triangle counting", local_check),
        _check("differential + metamorphic fuzz", fuzz_check),
    ]
    if verbose:
        for c in checks:
            mark = "ok " if c.passed else "FAIL"
            print(f"[{mark}] {c.name}: {c.detail}")
    return checks

"""Seeded fuzz driver over the full correctness harness.

One fuzz *iteration* is fully determined by a single integer seed: it draws a
:class:`~repro.testing.strategies.GraphCase`, runs the differential grid
(:mod:`repro.testing.differential`) and every metamorphic relation
(:mod:`repro.testing.metamorphic`) on it, replays its raw edge stream
through the dynamic counter (:mod:`repro.core.dynamic`), and reports any
violation.  A run of ``budget`` iterations with base seed ``s`` uses
iteration seeds ``s, s+1, ..., s+budget-1`` — so a failure at iteration
``i`` names seed ``s+i`` and is reproduced, alone, by::

    repro-count --fuzz 1 --seed <printed seed>

or ``run_fuzz(1, seed=<printed seed>)`` from Python.  That reproduction
contract is pinned by ``tests/test_testing_fuzz.py``.

Entry points: the CLI (``repro-count --fuzz N``), the installation
self-check (:func:`repro.verify.verify_installation` runs a small budget),
and CI's ``fuzz-smoke`` job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..common.rng import RngFactory
from ..core.dynamic import DynamicPimCounter
from ..graph.coo import COOGraph
from ..graph.triangles import count_triangles
from .differential import DifferentialRunner
from .metamorphic import ALL_RELATIONS, MetamorphicRelation
from .strategies import GraphCase, sample_case

__all__ = ["FuzzFailure", "FuzzReport", "fuzz_iteration", "run_fuzz"]

#: A checker takes (case, per-iteration RngFactory) and returns failure strings.
Checker = Callable[[GraphCase, RngFactory], list[str]]


@dataclass(frozen=True)
class FuzzFailure:
    """One failed iteration, with everything needed to reproduce it."""

    iteration: int
    seed: int
    family: str
    case_repr: str
    messages: tuple[str, ...]

    @property
    def repro_command(self) -> str:
        return f"repro-count --fuzz 1 --seed {self.seed}"

    def __str__(self) -> str:
        lines = [
            f"fuzz iteration {self.iteration} FAILED (seed={self.seed}, "
            f"family={self.family}) — reproduce with: {self.repro_command}",
            f"  case: {self.case_repr}",
        ]
        lines += [f"  - {m}" for m in self.messages]
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    budget: int
    base_seed: int
    failures: list[FuzzFailure] = field(default_factory=list)
    cases_by_family: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        families = ", ".join(
            f"{name}={count}" for name, count in sorted(self.cases_by_family.items())
        )
        status = "all ok" if self.ok else f"{len(self.failures)} FAILED"
        return (
            f"fuzz: {self.budget} iterations (seeds {self.base_seed}.."
            f"{self.base_seed + self.budget - 1}), {status}; cases: {families}"
        )

    def render(self) -> str:
        parts = [self.summary()]
        parts += [str(f) for f in self.failures]
        return "\n".join(parts)


# ------------------------------------------------------------------- checkers
def differential_checker(runner: DifferentialRunner | None = None) -> Checker:
    """Checker running the differential grid (truth = construction if known)."""

    def check(case: GraphCase, rngs: RngFactory) -> list[str]:
        r = runner or DifferentialRunner(seed=rngs.seed)
        report = r.run(case.graph, expected=case.exact)
        return [f"differential: {msg}" for msg in report.failures]

    return check


def metamorphic_checker(
    relations: Sequence[MetamorphicRelation] = ALL_RELATIONS,
) -> Checker:
    """Checker applying every metamorphic relation with a derived stream."""

    def check(case: GraphCase, rngs: RngFactory) -> list[str]:
        failures = []
        for relation in relations:
            result = relation.check(case.graph, rngs.stream(f"mr/{relation.name}"))
            if not result.ok:
                failures.append(f"metamorphic {relation.name}: {result.detail}")
        return failures

    return check


#: Insert batches the dynamic checker cuts each case's raw edge stream into.
DYNAMIC_ROUNDS = 3


def dynamic_checker() -> Checker:
    """Checker replaying the case's raw edge stream through the dynamic counter.

    The raw stream (self-loops, repeats and reversed copies included, for the
    adversarial family) is cut into ``DYNAMIC_ROUNDS`` seeded insert batches;
    after each insert, a seeded subset of that batch is deleted again, reversed.
    Runs plain and with Misra-Gries remapping; after every round the count
    must equal the oracle's count of the model edge set.
    """

    def check(case: GraphCase, rngs: RngFactory) -> list[str]:
        raw, failures = case.raw, []
        for label, mg in (("plain", {}), ("mg", {"misra_gries_k": 8, "misra_gries_t": 2})):
            rng = rngs.stream(f"dynamic/{label}")
            dyn = DynamicPimCounter(
                raw.num_nodes,
                num_colors=int(rng.integers(1, 4)),
                seed=int(rng.integers(0, 2**31)),
                **mg,
            )
            cuts = np.sort(rng.integers(0, raw.num_edges + 1, size=DYNAMIC_ROUNDS - 1))
            bounds = [0, *cuts.tolist(), raw.num_edges]
            model: set[tuple[int, int]] = set()
            for r in range(DYNAMIC_ROUNDS):
                batch = raw.slice(bounds[r], bounds[r + 1])
                drop = rng.random(batch.num_edges) < 0.3
                tombstones = COOGraph(batch.dst[drop], batch.src[drop], raw.num_nodes)
                dyn.apply_update(batch)
                model |= _edge_set(batch)
                message = _mismatch(dyn, model, f"dynamic {label} round {r} insert")
                if message is None:
                    dyn.apply_deletion(tombstones)
                    model -= _edge_set(tombstones)
                    message = _mismatch(dyn, model, f"dynamic {label} round {r} delete")
                if message is not None:
                    failures.append(message)
                    break
            dyn.close()
        return failures

    return check


def _mismatch(dyn: DynamicPimCounter, model: set[tuple[int, int]], where: str) -> str | None:
    truth = count_triangles(COOGraph.from_edges(sorted(model), num_nodes=dyn.num_nodes))
    if dyn.triangles == truth:
        return None
    return f"{where}: counted {dyn.triangles}, oracle says {truth}"


def _edge_set(graph: COOGraph) -> set[tuple[int, int]]:
    """Undirected edges of ``graph`` as ``(low, high)`` pairs, self-loops dropped."""
    lo, hi = np.minimum(graph.src, graph.dst), np.maximum(graph.src, graph.dst)
    keep = lo != hi
    return set(zip(lo[keep].tolist(), hi[keep].tolist()))


def default_checkers() -> list[Checker]:
    return [differential_checker(), metamorphic_checker(), dynamic_checker()]


# ------------------------------------------------------------------ execution
def fuzz_iteration(
    iter_seed: int, checkers: Sequence[Checker] | None = None
) -> tuple[GraphCase, list[str]]:
    """Run one fully seeded iteration; returns (case, failure messages)."""
    rngs = RngFactory(iter_seed)
    case = sample_case(rngs.stream("case"))
    messages: list[str] = []
    for checker in checkers if checkers is not None else default_checkers():
        messages.extend(checker(case, rngs))
    return case, messages


def run_fuzz(
    budget: int,
    seed: int = 0,
    *,
    checkers: Sequence[Checker] | None = None,
    verbose: bool = False,
    fail_fast: bool = False,
) -> FuzzReport:
    """Run ``budget`` iterations with iteration seeds ``seed .. seed+budget-1``."""
    if budget < 1:
        raise ValueError("fuzz budget must be >= 1")
    report = FuzzReport(budget=budget, base_seed=seed)
    for i in range(budget):
        iter_seed = seed + i
        case, messages = fuzz_iteration(iter_seed, checkers)
        report.cases_by_family[case.family] = (
            report.cases_by_family.get(case.family, 0) + 1
        )
        if messages:
            failure = FuzzFailure(
                iteration=i,
                seed=iter_seed,
                family=case.family,
                case_repr=repr(case),
                messages=tuple(messages),
            )
            report.failures.append(failure)
            if verbose:
                print(str(failure))
            if fail_fast:
                break
        elif verbose:
            print(f"[ok ] fuzz seed={iter_seed} {case!r}")
    return report

"""The fuzz driver and its seed-reproduction contract.

The contract pinned here: a failure printed by ``run_fuzz(budget, seed)`` at
iteration ``i`` names ``seed + i``, and ``run_fuzz(1, seed + i)`` — which is
exactly what ``repro-count --fuzz 1 --seed <printed>`` runs — rebuilds the
identical case and the identical failure.
"""

from __future__ import annotations

import pytest

from repro.testing.fuzz import (
    FuzzFailure,
    FuzzReport,
    default_checkers,
    dynamic_checker,
    fuzz_iteration,
    metamorphic_checker,
    run_fuzz,
)
from repro.testing.metamorphic import MetamorphicRelation
from repro.testing.strategies import FAMILY_NAMES


def _broken_relation() -> MetamorphicRelation:
    """A relation that fails on every graph with >= 2 edges."""
    return MetamorphicRelation(
        "planted-defect",
        "synthetic always-failing relation to exercise the failure path",
        lambda graph, rng: (
            graph.num_edges < 2,
            f"injected defect on m={graph.num_edges}",
        ),
    )


class TestIterationDeterminism:
    def test_same_seed_same_case(self):
        a, _ = fuzz_iteration(1234, checkers=[])
        b, _ = fuzz_iteration(1234, checkers=[])
        assert a.fingerprint() == b.fingerprint()

    def test_iteration_i_equals_standalone_run(self):
        """Seed arithmetic: run_fuzz(n, s) iteration i == run_fuzz(1, s+i)."""
        base = 40
        cases = [fuzz_iteration(base + i, checkers=[])[0] for i in range(5)]
        for i, case in enumerate(cases):
            alone, _ = fuzz_iteration(base + i, checkers=[])
            assert alone.fingerprint() == case.fingerprint(), f"iteration {i}"


class TestReportBookkeeping:
    def test_clean_run(self):
        report = run_fuzz(6, seed=0, checkers=[lambda case, rngs: []])
        assert report.ok
        assert report.budget == 6
        assert sum(report.cases_by_family.values()) == 6
        assert set(report.cases_by_family) <= set(FAMILY_NAMES)
        assert "all ok" in report.summary()
        assert "seeds 0..5" in report.summary()

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            run_fuzz(0)

    def test_fail_fast_stops_early(self):
        checker = metamorphic_checker([_broken_relation()])
        report = run_fuzz(10, seed=0, checkers=[checker], fail_fast=True)
        assert len(report.failures) == 1
        assert sum(report.cases_by_family.values()) < 10

    def test_render_lists_failures(self):
        checker = metamorphic_checker([_broken_relation()])
        report = run_fuzz(3, seed=5, checkers=[checker])
        assert not report.ok
        text = report.render()
        assert "FAILED" in text
        assert "injected defect" in text


class TestReproductionContract:
    """A printed fuzz failure must reproduce from its printed seed, alone."""

    def test_failure_names_reproducing_seed(self):
        checker = metamorphic_checker([_broken_relation()])
        report = run_fuzz(8, seed=100, checkers=[checker])
        assert report.failures, "the injected defect should fire at least once"
        for failure in report.failures:
            assert failure.seed == 100 + failure.iteration
            assert failure.repro_command == f"repro-count --fuzz 1 --seed {failure.seed}"
            assert failure.repro_command in str(failure)
            # Replay exactly what the printed command runs: budget 1, that seed.
            replay = run_fuzz(1, seed=failure.seed, checkers=[checker])
            assert len(replay.failures) == 1
            replayed = replay.failures[0]
            assert replayed.family == failure.family
            assert replayed.case_repr == failure.case_repr
            assert replayed.messages == failure.messages

    def test_real_checkers_pass_smoke_budget(self):
        """The default grid (differential + metamorphic) is clean on 4 seeds."""
        report = run_fuzz(4, seed=2, checkers=default_checkers())
        assert report.ok, report.render()


class TestFailureFormatting:
    def test_str_is_actionable(self):
        failure = FuzzFailure(
            iteration=3,
            seed=45,
            family="gnp",
            case_repr="GraphCase(...)",
            messages=("differential: kernel:fast: counted 9, oracle says 8",),
        )
        text = str(failure)
        assert "seed=45" in text
        assert "repro-count --fuzz 1 --seed 45" in text
        assert "oracle says 8" in text

    def test_empty_report_ok(self):
        report = FuzzReport(budget=1, base_seed=0)
        assert report.ok
        assert "all ok" in report.summary()


class TestDynamicChecker:
    """The dynamic checker replays raw streams (seed 17 draws the adversarial
    family: repeats, reversed copies, self-loops) through the dynamic
    counter."""

    def test_default_grid_includes_it_and_passes(self):
        checkers = default_checkers()
        assert any(c.__qualname__.startswith("dynamic_checker") for c in checkers)
        report = run_fuzz(4, seed=15, checkers=[dynamic_checker()])
        assert report.ok, report.render()

    def test_over_count_fails_and_replays_from_printed_seed(self, monkeypatch):
        """With insert canonicalization switched off, raw repeats over-count;
        the printed seed replays the identical failure alone."""
        from repro.core.dynamic import DynamicPimCounter

        monkeypatch.setattr(DynamicPimCounter, "_fresh_edges", lambda self, batch: batch)
        report = run_fuzz(4, seed=15, checkers=[dynamic_checker()])
        assert report.failures
        for failure in report.failures:
            replay = run_fuzz(1, seed=failure.seed, checkers=[dynamic_checker()])
            assert replay.failures[0].messages == failure.messages
            assert "oracle says" in failure.messages[0]

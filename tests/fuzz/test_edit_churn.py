"""Churn fuzzing: cached recompiles of an edited program audit clean.

A seeded fuzz program is mutated step by step while a cached scheduler
recompiles it; every link runs the post-link auditor
(``verify=True``), so each recompile — fresh objects for the modules
whose directive slice changed, cached objects for the rest — must
produce directives the linked code actually honors.  Mutants are
analyzed, built, and audited — never executed: call-edge mutations may
create runtime recursion (:meth:`FuzzProgramGenerator.mutate`).  The
generator's mutation chains themselves are pinned here too: seeded
chains are deterministic and reach every edit kind.
"""

import pytest

from repro import AnalyzerOptions
from repro.driver.scheduler import CompilationScheduler
from repro.verify.progen import FuzzProgramGenerator

STEPS = 8
SEEDS = (1, 4)


@pytest.fixture
def scheduler(tmp_path):
    """One cache per chain, so its hits and misses are the chain's own."""
    with CompilationScheduler(
        jobs=2, cache_dir=tmp_path / "churn-cache", verify=True
    ) as sched:
        yield sched


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config", ["C", "D"])
def test_churned_programs_build_and_audit_clean(seed, config, scheduler):
    generator = FuzzProgramGenerator(seed)
    sources = generator.generate()
    options = AnalyzerOptions.config(config)
    reused = rebuilt_unedited = 0

    for step in range(STEPS + 1):
        if step:
            sources = generator.mutate(sources, step)
        result = scheduler.compile_program(
            sources, analyzer_options=options
        )
        assert result.executable is not None, (seed, config, step)

        audit = scheduler.last_audit_report
        assert audit is not None and audit.ok, (
            seed, config, step, audit and audit.format()
        )
        assert audit.functions_checked == len(
            result.executable.function_ranges
        )
        metrics = result.metrics
        assert metrics.stage_tasks.get("analyze") == 1
        if step:
            # An edited module always misses phase 2 (its phase-1
            # fingerprint moved); any miss beyond those is an unedited
            # module whose directive digest moved under it.
            reused += metrics.cache_hits.get("phase2", 0)
            rebuilt_unedited += metrics.cache_misses.get(
                "phase2", 0
            ) - metrics.cache_misses.get("phase1", 0)

    # Call-graph churn must both reuse objects (directive digests that
    # did not move) and rebuild unedited ones (digests that did): a key
    # that ignored the directives would never rebuild an unedited
    # module, and one that moved on every compile would never hit.
    assert reused > 0, (seed, config)
    assert rebuilt_unedited > 0, (seed, config)


@pytest.mark.parametrize("seed", (0, 7))
def test_mutation_chain_is_deterministic(seed):
    def final_sources():
        generator = FuzzProgramGenerator(seed)
        sources = generator.generate()
        for step in range(1, STEPS + 1):
            sources = generator.mutate(sources, step)
        return sources

    first = final_sources()
    assert first == final_sources()
    # ... and every step changed something analyzable at least once
    # over the chain: the final program differs from the seed program.
    assert first != FuzzProgramGenerator(seed).generate()


def test_mutation_kinds_all_reachable():
    """Across a modest seed sweep every mutation helper fires at least
    once, so mutation chains cover every edit kind."""
    fired = set()
    for seed in range(6):
        generator = FuzzProgramGenerator(seed)
        sources = generator.generate()
        for step in range(1, 11):
            before = sources
            sources = generator.mutate(sources, step)
            diff = "".join(
                text for module, text in sorted(sources.items())
                if before.get(module) != text
            )
            if f"mb{step}" in diff:
                fired.add("body")
            if f"pa{step}" in diff:
                fired.add("take-address")
            if "> 999983" in diff:
                fired.add("add-call")
            if "+= 0 + (" in diff:
                fired.add("remove-call")
    assert {"body", "take-address", "add-call", "remove-call"} <= fired

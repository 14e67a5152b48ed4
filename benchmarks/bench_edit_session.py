"""Editing session: what a 10-edit session costs to re-analyze and
recompile.

Replays a deterministic 10-edit session on othello and dhrystone.  For
each edit it times a from-scratch ``analyze_program`` (the analyzer
reruns at every link, as in the paper) and compiles the step through a
cached scheduler to count how many phase-2 object modules actually
recompile.  Prints the per-session totals and records them, with the
per-edit rows, into ``benchmarks/BENCH_results.json`` under
``"edit_session"``.

The session draws the fuzz generator's *body-level* mutations (loop
traffic on a visible global, a new reference to an untouched global) —
the shape of a real editing session, where the call graph rarely moves.
Call-graph churn (address-taking, call-edge add/remove) is exercised by
``tests/fuzz/test_edit_churn.py``.
"""

import tempfile
import time

from repro import AnalyzerOptions, run_phase1
from repro.analyzer.driver import analyze_program
from repro.driver.scheduler import CompilationScheduler
from repro.verify.progen import FuzzProgramGenerator
from repro.workloads import get_workload

from conftest import _EDIT_SESSION, print_table, record_note

EDITS = 10
WORKLOADS = ("othello", "dhrystone")
CONFIG = "C"


def _session_sources(name):
    """The unedited program plus EDITS seeded body-level edit steps."""
    import random

    mutator = FuzzProgramGenerator(seed=0)
    sources = dict(get_workload(name).sources)
    steps = [sources]
    for step in range(1, EDITS + 1):
        rng = random.Random(f"bench-incr-{name}-{step}")
        edited = None
        for operation in (
            mutator._mutate_body, mutator._mutate_toggle_global
        ):
            edited = operation(dict(sources), rng, step)
            if edited is not None:
                break
        sources = edited if edited is not None else sources
        steps.append(sources)
    return steps


def _run_session(name):
    options = AnalyzerOptions.config(CONFIG)
    totals = {
        "edits": EDITS,
        "config": CONFIG,
        "modules": len(get_workload(name).sources),
        "analyze_seconds": 0.0,
        "phase2_hits": 0,
        "phase2_misses": 0,
        "per_edit": [],
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-edit-") as cache:
        with CompilationScheduler(cache_dir=cache) as scheduler:
            for step, sources in enumerate(_session_sources(name)):
                summaries = [r.summary for r in run_phase1(sources)]
                start = time.perf_counter()
                analyze_program(summaries, options)
                seconds = time.perf_counter() - start

                metrics = scheduler.compile_program(
                    sources, analyzer_options=options
                ).metrics
                if not step:  # the cold step fills the cache
                    continue
                row = {
                    "edit": step,
                    "analyze_seconds": seconds,
                    "phase2_hits": metrics.cache_hits.get("phase2", 0),
                    "phase2_misses": metrics.cache_misses.get(
                        "phase2", 0
                    ),
                }
                totals["per_edit"].append(row)
                totals["analyze_seconds"] += seconds
                totals["phase2_hits"] += row["phase2_hits"]
                totals["phase2_misses"] += row["phase2_misses"]
    return totals


def test_editing_session():
    rows = []
    for name in WORKLOADS:
        totals = _run_session(name)
        _EDIT_SESSION[name] = totals
        slots = EDITS * totals["modules"]
        rows.append(
            (
                name,
                EDITS,
                f"{totals['analyze_seconds']:.3f}s",
                f"{totals['analyze_seconds'] / EDITS * 1e3:.1f}ms",
                f"{totals['phase2_misses']}/{slots}",
            )
        )
        # Every edit looks up every module's object exactly once.
        assert totals["phase2_hits"] + totals["phase2_misses"] == slots
        # Body-level edits leave most directive digests alone, so phase
        # 2 recompiles only a fraction of module slots.
        assert totals["phase2_misses"] < slots, name
        assert totals["phase2_hits"] > 0, name

    print_table(
        f"Editing session: {EDITS} edits, full analyze per edit "
        f"(config {CONFIG})",
        ["Benchmark", "Edits", "Analyze total", "Analyze/edit",
         "Phase2 rebuilt"],
        rows,
    )
    record_note(
        "phase2 rebuilt counts object modules whose directive digest or "
        "source moved; every other module comes from the phase-2 cache"
    )

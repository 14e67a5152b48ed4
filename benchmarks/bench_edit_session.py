"""Editing session: what a 10-edit session costs to re-analyze and
recompile.

Replays a deterministic 10-edit session on othello and dhrystone.  For
each edit it times a from-scratch ``analyze_program`` (the analyzer
reruns at every link, as in the paper) and compiles the step through a
cached scheduler to count how many phase-2 object modules actually
recompile.  It then times, in CPU milliseconds, what a steady-state
daemon request spends outside the cache: linking the cached objects
again, fingerprinting that executable, and one baseline
``run_executable`` of a re-linked copy of an executable the process
already ran (a ``profile`` request).  Prints the per-session totals and
records them, with the per-edit rows, into
``benchmarks/BENCH_results.json`` under ``"edit_session"``.

The session draws the fuzz generator's *body-level* mutations (loop
traffic on a visible global, a new reference to an untouched global) —
the shape of a real editing session, where the call graph rarely moves.
Call-graph churn (address-taking, call-edge add/remove) is exercised by
``tests/fuzz/test_edit_churn.py``.
"""

import statistics
import tempfile
import time

from repro import AnalyzerOptions, ProgramDatabase, run_phase1
from repro.analyzer.driver import analyze_program
from repro.driver.scheduler import CompilationScheduler
from repro.linker.link import executable_fingerprint, link
from repro.machine.simulator import ExecutionLimitExceeded, run_executable
from repro.verify.progen import FuzzProgramGenerator
from repro.workloads import get_workload

from conftest import _EDIT_SESSION, print_table, record_note

EDITS = 10
WORKLOADS = ("othello", "dhrystone")
CONFIG = "C"
#: Link and fingerprint samples per edit step (the median is recorded).
REPEATS = 5
#: Per-edit steady-state costs, in CPU ms.
STEADY_STATE = ("link_ms", "fingerprint_ms", "relinked_run_ms")
#: Cycle budget of the re-linked run.  An edit may leave a loop that
#: never ends, and the run should weigh code generation, not execution.
RUN_CYCLES = 100_000

#: Median per-edit CPU ms of the same measurements before instructions
#: were copied slot by slot, fingerprinted from a per-class layout and
#: simulated from a shared block-code cache (2-CPU container, Python
#: 3.11).  Kept so the ledger shows the change, not only its result.
#: Each is the middle of three sessions.
BEFORE = {
    "othello": {"link_ms": 2.2, "fingerprint_ms": 3.3,
                "relinked_run_ms": 62.6},
    "dhrystone": {"link_ms": 1.3, "fingerprint_ms": 1.9,
                  "relinked_run_ms": 48.9},
}


def _cpu_ms(fn):
    """(CPU milliseconds of one ``fn()`` call, its result)."""
    started = time.process_time()
    result = fn()
    return (time.process_time() - started) * 1e3, result


def _run(executable):
    try:
        run_executable(executable, RUN_CYCLES)
    except ExecutionLimitExceeded:
        pass


def _steady_state_costs(scheduler, sources, options):
    """CPU ms a cached recompile spends linking and fingerprinting
    (median of REPEATS), and one baseline run (up to RUN_CYCLES) of a
    re-linked executable whose twin already ran."""
    phase1 = scheduler.run_phase1(sources)
    database = scheduler.analyze([r.summary for r in phase1], options)
    objects = scheduler.compile_objects(phase1, database)
    link_ms, fingerprint_ms = [], []
    for _ in range(REPEATS):
        seconds, executable = _cpu_ms(lambda: link(objects))
        link_ms.append(seconds)
        fingerprint_ms.append(
            _cpu_ms(lambda: executable_fingerprint(executable))[0]
        )
    baseline = scheduler.compile_objects(phase1, ProgramDatabase())
    _run(link(baseline))
    relinked = link(baseline)
    run_ms, _result = _cpu_ms(lambda: _run(relinked))
    return {
        "link_ms": statistics.median(link_ms),
        "fingerprint_ms": statistics.median(fingerprint_ms),
        "relinked_run_ms": run_ms,
    }


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
                row.update(
                    _steady_state_costs(scheduler, sources, options)
                )
                totals["per_edit"].append(row)
                totals["analyze_seconds"] += seconds
                totals["phase2_hits"] += row["phase2_hits"]
                totals["phase2_misses"] += row["phase2_misses"]
    for key in STEADY_STATE:
        totals[f"{key}_median"] = statistics.median(
            row[key] for row in totals["per_edit"]
        )
    totals["before"] = {
        f"{key}_median": value for key, value in BEFORE[name].items()
    }
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
            ) + tuple(
                f"{totals[key + '_median']:.1f}" for key in STEADY_STATE
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
         "Phase2 rebuilt", "Link ms", "Fingerprint ms", "Re-linked run ms"],
        rows,
    )
    record_note(
        "phase2 rebuilt counts object modules whose directive digest or "
        "source moved; every other module comes from the phase-2 cache"
    )
    record_note(
        "link/fingerprint/re-linked run: median CPU ms per edit of a "
        "fully cached recompile's link and fingerprint, and of a baseline "
        f"run (at most {RUN_CYCLES:,} cycles) of a re-linked executable "
        "the process already ran"
    )

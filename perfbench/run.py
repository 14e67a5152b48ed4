"""Run one benchmark workload and print its metrics.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 12
    python3 perfbench/run.py --workload daemon-edit --seed 1 --trace 1

Workloads: ``paper-suite``, ``analyzer-scale``, ``daemon-edit`` (see
``perfbench/README.md``).  The seed makes the inputs; ``--seconds`` is
how long the measured loop runs.  With ``--trace 0`` the last line of
output is a JSON object carrying every end-to-end metric; with
``--trace 1`` the run measures half its time untraced and half with the
per-layer recorder installed, and the JSON carries the per-layer
metrics instead.  Every output is checked; a run with any failed
operation or any nondeterministic exact metric reports
``"correct": false``.  Exit code 2, with no result printed, means the
benchmark could not run at all (no program to measure, ``REPRO_*``
knobs set).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

import common
import layers
from common import BenchmarkError, metric

WORKLOADS = ("paper-suite", "analyzer-scale", "daemon-edit")
SETUP_REPEATS = 3
#: Largest allowed gap between the summed top-level span time and the
#: traced window it was recorded in, as a fraction of the window.
RECONCILE_TOLERANCE = 0.10

#: Per-layer metrics: name -> (unit, source).  Sources: ``self:<span>``
#: (self time of the span name, seconds), ``count:<name>`` (a wrapper
#: count) or ``suite`` (measured by the workload itself).
PER_LAYER = {
    "lang.busy_s": ("s", "self:lang.busy"),
    "lang.lex_s": ("s", "self:lang.lex"),
    "lang.tokens": ("count", "count:lang.tokens"),
    "ir.lower_s": ("s", "self:ir.lower"),
    "ir.verify_s": ("s", "self:ir.verify"),
    "ir.instrs_lowered": ("count", "count:ir.instrs_lowered"),
    "opt.busy_s": ("s", "self:opt.busy"),
    "opt.instrs_after": ("count", "count:opt.instrs_after"),
    "analysis.liveness_solves": ("count", "count:analysis.liveness_solves"),
    "analysis.liveness_s": ("s", "self:analysis.liveness"),
    "frontend.summarize_s": ("s", "self:frontend.summarize"),
    "analyzer.busy_s": ("s", "self:analyzer.busy"),
    "analyzer.webs_s": ("s", "self:analyzer.webs"),
    "analyzer.coloring_s": ("s", "self:analyzer.coloring"),
    "analyzer.clusters_s": ("s", "self:analyzer.clusters"),
    "analyzer.regsets_s": ("s", "self:analyzer.regsets"),
    "analyzer.webs": ("count", "count:analyzer.webs"),
    "analyzer.webs_colored": ("count", "count:analyzer.webs_colored"),
    "analyzer.clusters": ("count", "count:analyzer.clusters"),
    "backend.promotion_s": ("s", "self:backend.promotion"),
    "backend.isel_s": ("s", "self:backend.isel"),
    "backend.regalloc_s": ("s", "self:backend.regalloc"),
    "backend.finalize_s": ("s", "self:backend.finalize"),
    "backend.emit_s": ("s", "self:backend.emit"),
    "backend.machine_instrs": ("count", "count:backend.machine_instrs"),
    "backend.spills": ("count", "count:backend.spills"),
    "linker.busy_s": ("s", "self:linker.busy"),
    "linker.words": ("words", "count:linker.words"),
    "machine.busy_s": ("s", "self:machine.busy"),
    "machine.instructions": ("count", "count:machine.instructions"),
    "machine.instrs_per_s": ("1/s", "suite"),
    "machine.sim_cycles": ("cycles", "suite"),
    "machine.mem_refs": ("refs", "suite"),
    "driver.self_s": ("s", "suite"),
    "driver.compile_s": ("s", "suite"),
    "driver.phase1_s": ("s", "suite"),
    "driver.analyze_s": ("s", "suite"),
    "driver.phase2_s": ("s", "suite"),
    "driver.link_s": ("s", "suite"),
    "driver.cache_lookups": ("count", "suite"),
    "driver.cache_hit_ratio": ("ratio", "suite"),
    "driver.cache_bad_entries": ("count", "suite"),
    "incremental.busy_s": ("s", "self:incremental.update"),
    "incremental.webs_reused_ratio": ("ratio", "suite"),
    "incremental.clusters_reused_ratio": ("ratio", "suite"),
    "service.queue_ms": ("ms", "suite"),
    "service.lock_ms": ("ms", "suite"),
    "service.server_ms": ("ms", "suite"),
    "service.wire_ms": ("ms", "suite"),
    "service.phase1_cached_ratio": ("ratio", "suite"),
    "service.phase2_cached_ratio": ("ratio", "suite"),
    "service.requests_per_s": ("1/s", "suite"),
    "trace.overhead_ms": ("ms", "suite"),
    "trace.covered_ratio": ("ratio", "suite"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_suite(workload: str):
    """Import the workload (and with it the program under test)."""
    if workload == "paper-suite":
        from suite_paper import PaperSuite as suite
    elif workload == "analyzer-scale":
        from suite_analyzer import AnalyzerScale as suite
    else:
        from suite_daemon import DaemonEdit as suite
    return suite


# -- metrics --------------------------------------------------------------


def latency_figures(window: dict, tail_pct: float) -> dict:
    """p50, tail and throughput of one window's operations; a failed
    operation counts as beyond any latency limit."""
    latencies = list(window["latencies_s"])
    failures = min(len(window["failed"]), window["attempted"])
    ranked = latencies + [math.inf] * failures
    tail_value, beyond = common.tail(ranked, tail_pct)
    return {
        "p50_ms": _finite(1000 * common.percentile(ranked, 50)),
        "tail_ms": _finite(1000 * tail_value),
        "tail_pct": tail_pct,
        "tail_beyond": beyond,
        "samples": len(ranked),
        "ops_per_s": len(latencies) / window["busy_s"],
    }


def _finite(value: float) -> float:
    """JSON has no infinity: a latency beyond any limit (a failed
    operation) is reported as the largest float."""
    return value if math.isfinite(value) else sys.float_info.max


def layer_metrics(window: dict, trace: dict, untraced: dict,
                  tail_pct: float) -> dict:
    """Per-layer metrics of a traced window, per workload unit."""
    units = window["units"]
    self_times = layers.self_times(trace["spans"])
    counts = trace["counts"]
    suite_layers = dict(window["layers"])
    busy = self_times.get("machine.busy", 0.0)
    suite_layers["machine.instrs_per_s"] = (
        counts.get("machine.instructions", 0) / busy if busy else 0.0
    )
    suite_layers["driver.self_s"] = sum(
        seconds for name, seconds in self_times.items()
        if name.startswith("driver.")
    ) / units
    suite_layers.setdefault("driver.compile_s", 0.0)
    suite_layers["trace.overhead_ms"] = (
        latency_figures(window, tail_pct)["p50_ms"]
        - latency_figures(untraced, tail_pct)["p50_ms"]
    )
    suite_layers["trace.covered_ratio"] = covered_ratio(window, trace)
    values = {}
    for name, (unit, source) in PER_LAYER.items():
        kind, _, key = source.partition(":")
        if kind == "self":
            value = self_times.get(key, 0.0) / units
        elif kind == "count":
            value = counts.get(key, 0) / units
        else:
            value = suite_layers.get(name, 0.0)
        values[name] = metric(value, unit)
    return values


def covered_ratio(window: dict, trace: dict) -> float:
    """Top-level span time over the time it should account for: the
    traced window's wall time in-process, or, for ``daemon-edit``, the
    compile seconds the daemon reported (its spans run on worker
    threads, one tree per compile job)."""
    names = window.get("root_names")
    roots = sum(
        end - start
        for _id, name, start, end, parent, _op, _thread in trace["spans"]
        if parent < 0 and (names is None or name in names)
    )
    reference = window.get("root_reference_s", window["wall_s"])
    return roots / reference if reference else 0.0


def reconciles(metrics: dict) -> bool:
    return abs(metrics["trace.covered_ratio"]["value"] - 1.0) <= (
        RECONCILE_TOLERANCE
    )


# -- main -----------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        os.chdir(common.ROOT)
        common.check_environment()
        common.use_source_tree()
        import_started = time.perf_counter()
        suite_class = load_suite(args.workload)
        import_s = time.perf_counter() - import_started
    except (BenchmarkError, ImportError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    suite = suite_class(args.seed)
    try:
        setup_samples = []
        for _repeat in range(SETUP_REPEATS):
            started = time.perf_counter()
            suite.setup()
            setup_samples.append(time.perf_counter() - started)
        if args.trace:
            untraced = suite.measure(args.seconds / 2)
            # Both halves start from the same state (a fresh daemon and
            # cache for daemon-edit) so their difference is the tracing.
            suite.setup()
            suite.start_trace()
            window = suite.measure(args.seconds / 2)
            trace = suite.stop_trace()
        else:
            window = suite.measure(args.seconds)
        rss_mb = suite.peak_rss_mb()
    finally:
        suite.close()

    figures = latency_figures(window, suite.tail_pct)
    failed = min(len(window["failed"]), window["attempted"])
    exact = window["exact"]
    key = args.workload if args.workload == "paper-suite" else (
        f"{args.workload}|{args.seed}"
    )
    drift = common.check_exact_record(f"{key}|trace={args.trace}", exact)
    correct = failed == 0 and not drift
    provenance = common.provenance(args.workload, args.seed, bool(args.trace))
    setup_s = import_s + statistics.median(setup_samples)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(f"setup_s: {setup_s:.4f} (imports {import_s:.4f} + median of "
          + ", ".join(f"{s:.4f}" for s in setup_samples) + ")")
    for line in window["lines"]:
        print(line)
    print(f"ops: {figures['samples']} in {window['wall_s']:.3f} s; "
          f"p50 {figures['p50_ms']:.3f} ms, "
          f"p{figures['tail_pct']:g} {figures['tail_ms']:.3f} ms "
          f"({figures['tail_beyond']} samples beyond"
          + ("" if figures["tail_beyond"] >= common.TAIL_MIN_BEYOND
             else f", fewer than {common.TAIL_MIN_BEYOND}") + ")")
    print(f"failed_fraction: {failed / window['attempted']:.6f} "
          f"({failed} of {window['attempted']})")
    for message in window["failed"][:10]:
        print(f"  failure: {message}")
    if drift:
        print("nondeterministic exact metrics: " + ", ".join(drift))

    if args.trace:
        metrics = layer_metrics(window, trace, untraced, suite.tail_pct)
        print(f"tracing overhead: {metrics['trace.overhead_ms']['value']:.3f}"
              f" ms per operation (traced p50 minus untraced p50); "
              f"span coverage {metrics['trace.covered_ratio']['value']:.4f}"
              f" (reconciles within {RECONCILE_TOLERANCE:g}: "
              f"{'yes' if reconciles(metrics) else 'no'})")
        trace_path = common.work_dir() / (
            f"trace-{args.workload}-{args.seed}.json"
        )
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"provenance": provenance, "units": window["units"],
                       "wall_s": window["wall_s"], **trace}, handle)
        if trace["missing"]:
            print("entry points not found (layers not traced): "
                  + ", ".join(trace["missing"]))
        print(f"spans: {len(trace['spans'])} written to "
              f"{os.path.relpath(trace_path, common.ROOT)}")
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "op_p50_ms": metric(figures["p50_ms"], "ms"),
            "op_tail_ms": metric(figures["tail_ms"], "ms"),
            "ops_per_s": metric(figures["ops_per_s"], "1/s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": window["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

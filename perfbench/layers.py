"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :func:`install`
replaces each public entry point of a layer with a wrapper, at the name
its caller looks it up under (callers use ``from ... import``, so the
wrapper goes on the importing module, e.g.
``repro.frontend.phase1.analyze_source``).  Each span keeps its name,
start, end, parent span, operation id (build or request) and thread;
counts are taken at the same wrappers.  Everything stays in memory until
:meth:`Recorder.dump` writes it out at the end of the run.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Spans nest per thread, so the daemon's concurrent
worker threads keep separate trees.
"""

from __future__ import annotations

import importlib
import itertools
import json
import resource
import threading
import time
from collections import defaultdict

PAPER, ANALYZER, DAEMON = "paper-suite", "analyzer-scale", "daemon-edit"


def _ir_size(module) -> int:
    return sum(
        1
        for function in module.functions.values()
        for _instruction in function.iter_instructions()
    )


def _count(name, amount):
    return lambda counts, args, result: counts.__setitem__(
        name, counts[name] + amount(args, result)
    )


def _analyzer_counts(counts, args, result):
    stats = result.statistics
    counts["analyzer.webs"] += stats.total_webs
    counts["analyzer.webs_colored"] += stats.webs_colored
    counts["analyzer.clusters"] += stats.clusters


def _machine_instrs(args, result):
    return sum(len(block.instructions) for block in args[0].blocks.values())


#: (target, span name, counter or None, workloads the entry point must
#: fire on).  ``target`` is ``module:attribute`` or
#: ``module:Class.attribute``.
PATCHES = (
    ("repro:compile_program", "driver.compile", None, {PAPER}),
    ("repro.driver.scheduler:CompilationScheduler.run_phase1",
     "driver.phase1", None, {PAPER, DAEMON}),
    ("repro.driver.scheduler:CompilationScheduler.analyze",
     "driver.analyze", None, {PAPER, DAEMON}),
    ("repro.driver.scheduler:CompilationScheduler.compile_objects",
     "driver.phase2", None, {PAPER, DAEMON}),
    ("repro.driver.scheduler:CompilationScheduler.compile_with_database",
     "driver.build", None, {DAEMON}),
    ("repro.service.server:collect_profile", "driver.profile", None,
     {DAEMON}),
    ("repro.frontend.phase1:analyze_source", "lang.busy", None,
     {PAPER}),
    ("repro.lang.parser:tokenize", "lang.lex",
     _count("lang.tokens", lambda args, result: len(result)),
     {PAPER}),
    ("repro.frontend.phase1:lower_module", "ir.lower",
     _count("ir.instrs_lowered", lambda args, result: _ir_size(result)),
     {PAPER}),
    ("repro.frontend.phase1:verify_module", "ir.verify", None,
     {PAPER}),
    ("repro.frontend.phase1:optimize_module", "opt.busy",
     _count("opt.instrs_after", lambda args, result: _ir_size(args[0])),
     {PAPER}),
    ("repro.frontend.phase1:summarize_module", "frontend.summarize", None,
     {PAPER}),
    ("repro.opt.dce:compute_ir_liveness", "analysis.liveness",
     _count("analysis.liveness_solves", lambda args, result: 1),
     {PAPER}),
    ("repro.analysis.frequency:compute_ir_liveness", "analysis.liveness",
     _count("analysis.liveness_solves", lambda args, result: 1),
     {PAPER}),
    ("repro.backend.allocators.paper:compute_liveness",
     "analysis.liveness",
     _count("analysis.liveness_solves", lambda args, result: 1),
     {PAPER}),
    ("repro:analyze_program", "analyzer.busy", _analyzer_counts,
     {ANALYZER}),
    ("repro.driver.scheduler:analyze_program", "analyzer.busy",
     _analyzer_counts, {PAPER}),
    ("repro.incremental.engine:analyze_program", "analyzer.busy",
     _analyzer_counts, {DAEMON}),
    ("repro.incremental.engine:IncrementalAnalyzer.update",
     "incremental.update", None, {DAEMON}),
    ("repro.analyzer.driver:identify_webs", "analyzer.webs", None,
     {PAPER}),
    ("repro.analyzer.webs:identify_variable_webs", "analyzer.webs", None,
     {PAPER, ANALYZER, DAEMON}),
    ("repro.incremental.engine:identify_variable_webs", "analyzer.webs",
     None, {DAEMON}),
    ("repro.analyzer.driver:color_webs_priority", "analyzer.coloring",
     None, {PAPER, ANALYZER, DAEMON}),
    ("repro.analyzer.driver:color_webs_greedy", "analyzer.coloring",
     None, {PAPER}),
    ("repro.analyzer.driver:identify_clusters", "analyzer.clusters", None,
     {PAPER, ANALYZER, DAEMON}),
    ("repro.analyzer.driver:compute_register_sets", "analyzer.regsets",
     None, {PAPER, ANALYZER, DAEMON}),
    ("repro.backend.phase2:apply_web_promotion", "backend.promotion",
     None, {PAPER}),
    ("repro.backend.phase2:select_function", "backend.isel", None,
     {PAPER}),
    ("repro.backend.allocators.paper:PaperAllocator.allocate",
     "backend.regalloc",
     _count("backend.spills", lambda args, result: args[1].num_spills),
     {PAPER}),
    ("repro.backend.phase2:finalize_frame", "backend.finalize",
     _count("backend.machine_instrs", _machine_instrs), {PAPER}),
    ("repro.backend.phase2:emit_module", "backend.emit", None,
     {PAPER}),
    ("repro.driver.scheduler:link", "linker.busy",
     _count("linker.words", lambda args, result: result.code_size),
     {PAPER, DAEMON}),
    ("repro.machine.simulator:Simulator.run", "machine.busy",
     _count("machine.instructions", lambda args, result: result.instructions),
     {PAPER, DAEMON}),
)


class Recorder:
    """In-memory span and count store shared by every wrapper."""

    def __init__(self):
        self.spans: list = []  # [id, name, start, end, parent, op, thread]
        self.counts: defaultdict = defaultdict(int)
        self.fired: defaultdict = defaultdict(int)
        self._ids = itertools.count()
        self._lock = threading.Lock()  # counts are read-modify-write
        self._local = threading.local()
        self._undo: list = []
        self.missing: list = []

    # -- operation ids ----------------------------------------------------

    def set_op(self, op) -> None:
        """Tag the spans this thread records next with ``op``."""
        self._local.op = op

    # -- wrapping ---------------------------------------------------------

    def wrap(self, target: str, name: str, counter, function):
        spans, counts, fired = self.spans, self.counts, self.fired
        ids, local, lock = self._ids, self._local, self._lock
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append([
                    span_id, name, start, end, parent,
                    getattr(local, "op", None),
                    threading.current_thread().name,
                ])
            with lock:
                fired[target] += 1
                if counter is not None:
                    counter(counts, args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def install(self) -> "Recorder":
        """Wrap every entry point in :data:`PATCHES`.  A target that no
        longer exists is skipped and listed in :attr:`missing`."""
        self.missing = []
        for target, name, counter, _workloads in PATCHES:
            module_name, attribute = target.split(":")
            *path, leaf = attribute.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            setattr(owner, leaf, self.wrap(target, name, counter, original))
            self._undo.append((owner, leaf, original))
            self.fired.setdefault(target, 0)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    # -- output ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "fired": dict(self.fired),
            "missing": list(self.missing),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle)


class InProcessTracing:
    """Tracing and memory figures for a workload that runs in the
    benchmark's own process."""

    recorder = None

    def start_trace(self) -> None:
        self.recorder = Recorder().install()

    def stop_trace(self) -> dict:
        recorder, self.recorder = self.recorder, None
        recorder.uninstall()
        return recorder.to_json()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def self_times(spans) -> dict:
    """Span name -> summed self time: each span's duration minus the
    time its direct children cover."""
    child_time: defaultdict = defaultdict(float)
    for _id, _name, start, end, parent, _op, _thread in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: defaultdict = defaultdict(float)
    for span_id, name, start, end, _parent, _op, _thread in spans:
        totals[name] += (end - start) - child_time[span_id]
    return dict(totals)


def expected_to_fire(workload: str) -> list:
    return sorted(
        target for target, _n, _c, workloads in PATCHES
        if workload in workloads
    )

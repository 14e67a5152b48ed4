"""``analyzer-scale``: the program analyzer alone, on a large program.

Summary files for a 5,000-procedure, 100-module program come straight
from ``FuzzProgramGenerator(seed).synthesize_large`` (no front end), and
each operation runs ``analyze_program`` on them under config A (spill
code motion only) and then config C (webs and coloring as well), as one
link-time analysis would.  Only the analyzer stack does work here:
``callgraph``, ``analysis.packed`` and ``analyzer``.
"""

from __future__ import annotations

import hashlib
import time

import repro
from repro import AnalyzerOptions
from repro.verify.progen import FuzzProgramGenerator

from layers import InProcessTracing

MODULES, PROCEDURES = 100, 5_000
CONFIGS = ("A", "C")


class AnalyzerScale(InProcessTracing):
    name = "analyzer-scale"
    #: Percentile reported as op_tail_ms (see README).
    tail_pct = 50.0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Synthesize the summaries and run one warm-up analysis, whose
        database digests every later analysis must reproduce."""
        self.summaries = FuzzProgramGenerator(self.seed).synthesize_large(
            MODULES, PROCEDURES
        )
        self.options = {c: AnalyzerOptions.config(c) for c in CONFIGS}
        self.census, self.digests = self._analyze()

    def _analyze(self, digest: bool = True) -> tuple:
        census, digests = {}, {}
        for config in CONFIGS:
            database = repro.analyze_program(
                self.summaries, self.options[config]
            )
            stats = database.statistics
            census[config] = [
                stats.total_webs, stats.webs_colored, stats.clusters,
                stats.cluster_nodes,
            ]
            if digest:
                digests[config] = hashlib.sha256(
                    database.to_json().encode()
                ).hexdigest()
        return census, digests

    def measure(self, seconds: float) -> dict:
        latencies, failed = [], []
        attempted = 0
        started, cpu_started = time.perf_counter(), time.process_time()
        while not attempted or time.perf_counter() - started < seconds:
            attempted += 1
            if self.recorder is not None:
                self.recorder.set_op(f"analysis/{attempted}")
            op_started = time.process_time()
            try:
                census, _ = self._analyze(digest=False)
            except Exception as error:  # a failed analysis, counted
                failed.append(f"{type(error).__name__}: {error}")
                continue
            latencies.append(time.process_time() - op_started)
            if census != self.census:
                failed.append(f"census {census} differs from {self.census}")
        wall = time.perf_counter() - started
        busy = time.process_time() - cpu_started
        if self.recorder is None:
            _, digests = self._analyze()
            if digests != self.digests:
                failed.append("program database differs from the warm-up's")
        return {
            "latencies_s": latencies,
            "wall_s": wall,
            "busy_s": busy,
            "attempted": attempted,
            "failed": failed,
            "exact": {"census": self.census, "digests": self.digests},
            "units": attempted,
            "layers": {},
            "lines": [
                f"program: {len(self.summaries)} modules, "
                f"{sum(len(s.procedures) for s in self.summaries)} "
                f"procedures; configs {', '.join(CONFIGS)} per analysis",
                "census (webs, colored, clusters, cluster nodes): "
                + ", ".join(f"{c}={v}" for c, v in self.census.items()),
            ],
        }

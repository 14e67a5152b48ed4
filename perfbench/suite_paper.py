"""``paper-suite``: the paper's Table 4 matrix, built and run.

Each of the seven Table-3 programs is built at level 2 with no analyzer
(``baseline``) and under configs A-F: 49 builds per pass.  A build is
``compile_program`` then ``run_executable``; configs B and F take their
profile from the same program's ``baseline`` run in the same pass, as
the paper's gprof step does.  The seed sets the order of the builds.
Every run's output and exit code must equal the committed expected
output, which comes from the source-level evaluator, not the compiler.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field

import repro
from repro import PAPER_CONFIGS, AnalyzerOptions, ProfileData
from repro.workloads import all_workloads

from common import geomean
from layers import InProcessTracing
from tinyc_eval import load_expected

CONFIGS = ("baseline",) + PAPER_CONFIGS
PROFILED = ("B", "F")
WARMUP_PROGRAMS = ("dhrystone", "fgrep")


def build_order(programs, seed: int, pass_index: int) -> list:
    """Seeded order of the pass's (program, config) builds, with each
    program's baseline moved ahead of its other builds (B and F need
    its profile)."""
    order = [(program, config) for program in programs for config in CONFIGS]
    random.Random(f"paper-suite-{seed}-{pass_index}").shuffle(order)
    for program in programs:
        slots = [i for i, (p, _c) in enumerate(order) if p == program]
        first = slots[0]
        base = order.index((program, "baseline"))
        order[first], order[base] = order[base], order[first]
    return order


@dataclass
class Build:
    program: str
    config: str
    cpu_s: float = 0.0  # process CPU time of the whole build
    compile_s: float = 0.0  # wall-clock
    simulate_s: float = 0.0  # wall-clock
    exact: tuple = ()  # (cycles, memory references, code words)
    stage_seconds: dict = field(default_factory=dict)
    cache_lookups: int = 0
    cache_bad_entries: int = 0
    error: str = ""


class PaperSuite(InProcessTracing):
    name = "paper-suite"
    #: Percentile reported as op_tail_ms (see README).
    tail_pct = 75.0

    def __init__(self, seed: int):
        self.seed = seed
        self.passes = 0

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Load the programs and expected outputs, then warm up with a
        config-C build of the two smallest programs (checked like any
        other)."""
        self.workloads = all_workloads()
        self.expected = load_expected()
        missing = sorted(set(self.workloads) - set(self.expected))
        if missing:
            raise RuntimeError(f"no expected output for {missing}")
        for program in WARMUP_PROGRAMS:
            build, _stats = self._build(program, "C", None)
            if build.error:
                raise RuntimeError(f"warm-up {program}: {build.error}")

    # -- one build --------------------------------------------------------

    def _build(self, program: str, config: str, profile):
        workload = self.workloads[program]
        build = Build(program, config)
        options = None
        if config != "baseline":
            options = AnalyzerOptions.config(
                config, profile if config in PROFILED else None
            )
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            result = repro.compile_program(
                workload.sources, 2, analyzer_options=options
            )
            compiled = time.perf_counter()
            stats = repro.run_executable(
                result.executable, workload.max_cycles
            )
            finished = time.perf_counter()
        except Exception as error:  # a failed build, counted as such
            build.error = f"{type(error).__name__}: {error}"
            return build, None
        build.cpu_s = time.process_time() - cpu_started
        build.compile_s = compiled - started
        build.simulate_s = finished - compiled
        expected = self.expected[program]
        if (stats.output, stats.exit_code) != (
            expected["output"], expected["exit_code"]
        ):
            build.error = "output differs from the expected output"
        build.exact = (
            stats.cycles, stats.memory_references,
            result.executable.code_size,
        )
        metrics = result.metrics
        build.stage_seconds = dict(metrics.stage_seconds)
        build.cache_lookups = sum(metrics.cache_hits.values()) + sum(
            metrics.cache_misses.values()
        )
        build.cache_bad_entries = sum(metrics.cache_bad_entries.values())
        return build, stats

    # -- one pass ---------------------------------------------------------

    def run_pass(self, recorder=None) -> dict:
        order = build_order(list(self.workloads), self.seed, self.passes)
        self.passes += 1
        profiles: dict = {}
        builds = []
        started, cpu_started = time.perf_counter(), time.process_time()
        for program, config in order:
            if recorder is not None:
                recorder.set_op(f"{program}/{config}/{self.passes}")
            build, stats = self._build(
                program, config, profiles.get(program)
            )
            if config == "baseline" and stats is not None:
                profiles[program] = ProfileData.from_stats(stats)
            builds.append(build)
        return {
            "builds": builds,
            "wall_s": time.perf_counter() - started,
            "busy_s": time.process_time() - cpu_started,
        }

    # -- measurement ------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Whole passes, at least one; another starts only if it is
        expected to end within ``seconds``."""
        summaries, count_deltas = [], []
        started = time.perf_counter()
        while not summaries or (
            time.perf_counter() - started + summaries[-1]["wall_s"]
            <= seconds
        ):
            before = dict(self.recorder.counts) if self.recorder else {}
            summaries.append(summarize_pass(self.run_pass(self.recorder)))
            if self.recorder is not None:
                counts = self.recorder.counts
                count_deltas.append({
                    name: counts[name] - before.get(name, 0)
                    for name in sorted(counts)
                })
        wall = time.perf_counter() - started
        first = summaries[0]
        failed = [line for s in summaries for line in s["failed"]]
        for index, summary in enumerate(summaries[1:], start=2):
            if summary["exact"] != first["exact"]:
                failed.append(f"pass {index}: exact metrics differ")
        for index, counts in enumerate(count_deltas[1:], start=2):
            if counts != count_deltas[0]:
                failed.append(f"pass {index}: traced counts differ")
        exact = {"builds": first["exact"]}
        if count_deltas:
            exact["trace_counts"] = count_deltas[0]
        stages = ("phase1", "analyze", "phase2", "link")
        layers = {
            f"driver.{stage}_s": statistics.median(
                s["stage_seconds"].get(stage, 0.0) for s in summaries
            )
            for stage in stages
        }
        lookups = sum(s["cache_lookups"] for s in summaries)
        layers.update({
            "driver.compile_s": statistics.median(
                s["compile_s"] for s in summaries
            ),
            "driver.cache_lookups": lookups / len(summaries),
            "driver.cache_hit_ratio": 0.0,
            "driver.cache_bad_entries": sum(
                s["cache_bad_entries"] for s in summaries
            ) / len(summaries),
            "machine.sim_cycles": first.get("sim_cycles", 0.0),
            "machine.mem_refs": first.get("mem_refs", 0.0),
        })
        return {
            "latencies_s": [v for s in summaries for v in s["latencies_s"]],
            "wall_s": wall,
            "busy_s": sum(s["busy_s"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": failed,
            "exact": exact,
            "units": len(summaries),
            "layers": layers,
            "lines": self._report(summaries),
        }

    def _report(self, summaries) -> list:
        first = summaries[0]
        compile_s = [s["compile_s"] for s in summaries]
        simulate_s = [s["simulate_s"] for s in summaries]
        lines = [
            f"passes: {len(summaries)} x {first['attempted']} builds",
            "compile_s per pass: median "
            f"{statistics.median(compile_s):.4f} (min {min(compile_s):.4f}, "
            f"max {max(compile_s):.4f})",
            "simulate_s per pass: median "
            f"{statistics.median(simulate_s):.4f} (min {min(simulate_s):.4f}, "
            f"max {max(simulate_s):.4f})",
        ]
        if "sim_cycles" in first:
            lines.append(
                f"sim_cycles geomean {first['sim_cycles']:.1f}, mem_refs "
                f"geomean {first['mem_refs']:.1f}, code_words "
                f"{first['code_words']}"
            )
        rows: dict = {}
        for key, (cycles, refs, words) in first["exact"].items():
            program, config = key.split("/")
            rows.setdefault(program, {})[config] = (cycles, refs, words)
        lines.append("program     config: cycles / mem refs / code words")
        for program in sorted(rows):
            lines.append(
                f"  {program:10s} " + "  ".join(
                    f"{config}: {c}/{r}/{w}"
                    for config, (c, r, w) in sorted(
                        rows[program].items(),
                        key=lambda item: CONFIGS.index(item[0]),
                    )
                )
            )
        return lines


def summarize_pass(pass_result: dict) -> dict:
    """Per-pass figures: op latencies, sums, exact metrics."""
    builds = pass_result["builds"]
    good = [b for b in builds if not b.error]
    exact = {
        f"{b.program}/{b.config}": list(b.exact)
        for b in sorted(builds, key=lambda b: (b.program, b.config))
        if b.exact
    }
    stages: dict = {}
    for build in good:
        for stage, seconds in build.stage_seconds.items():
            stages[stage] = stages.get(stage, 0.0) + seconds
    summary = {
        "wall_s": pass_result["wall_s"],
        "busy_s": pass_result["busy_s"],
        "latencies_s": [b.cpu_s for b in good],
        "compile_s": sum(b.compile_s for b in good),
        "simulate_s": sum(b.simulate_s for b in good),
        "attempted": len(builds),
        "failed": [f"{b.program}/{b.config}: {b.error}"
                   for b in builds if b.error],
        "exact": exact,
        "stage_seconds": stages,
        "cache_lookups": sum(b.cache_lookups for b in builds),
        "cache_bad_entries": sum(b.cache_bad_entries for b in builds),
    }
    if len(exact) == len(builds):
        rows = list(exact.values())
        summary["sim_cycles"] = geomean(row[0] for row in rows)
        summary["mem_refs"] = geomean(row[1] for row in rows)
        summary["code_words"] = sum(row[2] for row in rows)
    return summary

"""Shared plumbing for the benchmark: paths, environment checks,
provenance, statistics, and the cross-run determinism record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIR = ROOT / "src"
#: Scratch space the benchmark owns inside the checkout (gitignored).
WORK_DIR = ROOT / ".perfbench"

#: Samples a tail percentile should have beyond it.
TAIL_MIN_BEYOND = 10


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, bad settings)."""


def use_source_tree() -> None:
    """Put the checkout's ``src`` on the import path, or refuse."""
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program to measure: {SOURCE_DIR / 'repro'} is missing"
        )
    if str(SOURCE_DIR) not in sys.path:
        sys.path.insert(0, str(SOURCE_DIR))


def check_environment() -> None:
    """Refuse to run with any ``REPRO_*`` knob set: each one changes
    what is measured (simulator backend, dataflow kernels, worker
    counts, caches, allocator, auditing, daemon settings)."""
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        raise BenchmarkError(
            "refusing to run with configuration knobs set: "
            + ", ".join(knobs)
        )


def child_environment() -> dict:
    """Environment for processes the benchmark starts: the checkout's
    sources on the path, temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE_DIR)
    env["TMPDIR"] = str(work_dir("tmp"))
    return env


def work_dir(*parts: str) -> Path:
    path = WORK_DIR.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    ``"none"`` when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """sha256 over the program's and the benchmark's Python sources, so
    results from different code never share a determinism record."""
    digest = hashlib.sha256()
    for base in (SOURCE_DIR, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, trace: bool) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


# -- statistics ---------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ranked)))
    return ranked[rank - 1]


def tail(values, pct: float) -> tuple:
    """``(value, beyond)``: the ``pct`` percentile and how many samples
    lie beyond it (a tail is meaningful with at least
    :data:`TAIL_MIN_BEYOND`)."""
    ranked = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ranked)))
    return ranked[rank - 1], len(ranked) - rank


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- determinism across runs ---------------------------------------------


def check_exact_record(key: str, exact: dict) -> list:
    """Compare this run's exact metrics with the first run of the same
    code and inputs; record them if this is the first.  Returns the
    names of metrics that differ."""
    exact = json.loads(json.dumps(exact, sort_keys=True))
    path = work_dir("exact") / (
        hashlib.sha256(
            (source_digest() + "|" + key).encode()
        ).hexdigest()[:32] + ".json"
    )
    if path.is_file():
        recorded = json.loads(path.read_text())
        return sorted(
            name
            for name in set(recorded) | set(exact)
            if recorded.get(name) != exact.get(name)
        )
    temporary = path.with_suffix(f".{os.getpid()}.tmp")
    temporary.write_text(json.dumps(exact, sort_keys=True))
    os.replace(temporary, path)
    return []


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}

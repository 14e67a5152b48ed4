"""The benchmark's own checks.

Run from the repository root (not part of the tier-1 suite; the traced
runs take a few minutes)::

    python3 -m pytest -q perfbench

* the committed expected outputs are what the source-level evaluator
  produces today, and the evaluator never imports the compiler;
* every wrapper of the traced run fires on the workload its row names,
  the top-level span time reconciles with the traced window, and the
  predicted bypasses hold;
* the untraced run prints exactly the end-to-end metrics of
  ``BENCHMARK.json``, none of them zero;
* the benchmark refuses ``REPRO_*`` knobs and a checkout without the
  program, exiting non-zero without printing a result.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import tinyc_eval  # noqa: E402
from common import percentile, tail  # noqa: E402
from suite_paper import build_order  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FORBIDDEN = ("repro.ir", "repro.opt", "repro.backend", "repro.linker",
             "repro.machine")


def _run(*args, env=None, cwd=ROOT, timeout=600):
    environment = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    environment.update(env or {})
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, env=environment, capture_output=True, text=True,
        timeout=timeout,
    )


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


# -- expected outputs -------------------------------------------------------


def test_expected_outputs_match_the_evaluator():
    assert tinyc_eval.expected_outputs() == tinyc_eval.load_expected()


def test_evaluator_imports_no_compiler_stage():
    tree = ast.parse(Path(tinyc_eval.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [
        name for name in imported
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    ]


def test_evaluator_semantics():
    program = {"main": """
        int g[4];
        int twice(int x) { return x + x; }
        int main() {
            int i; int *p; int *f = &twice;
            p = g;
            for (i = 0; i < 4; i++) g[i] = i * 3;
            print(*(p + 2));
            print(-7 / 2); print(-7 % 2); print(1 << 33);
            print(2147483647 + 1);
            print(f(21));
            putc(65); putc(10);
            return g[3];
        }"""}
    assert tinyc_eval.evaluate(program) == {
        "output": "6\n-3\n-1\n2\n-2147483648\n42\nA\n",
        "exit_code": 9,
    }


# -- small pieces -------------------------------------------------------------


def test_build_order_is_seeded_and_profiles_come_first():
    programs = ["p", "q", "r"]
    order = build_order(programs, seed=5, pass_index=0)
    assert order == build_order(programs, seed=5, pass_index=0)
    assert order != build_order(programs, seed=6, pass_index=0)
    assert sorted(order) == sorted(
        (p, c) for p in programs for c in ("baseline", "A", "B", "C",
                                           "D", "E", "F")
    )
    for program in programs:
        first = next(c for p, c in order if p == program)
        assert first == "baseline"


def test_tail_counts_samples_beyond():
    values = list(range(1, 41))
    assert percentile(values, 50) == 20
    assert tail(values, 75) == (30, 10)


def test_per_layer_metrics_match_the_spec():
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    for entry in SPEC["per_layer"]:
        assert entry["unit"] == run.PER_LAYER[entry["name"]][0]


# -- whole runs ---------------------------------------------------------------


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run("--workload", "analyzer-scale", "--seed", "3",
                          "--seconds", "2", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        reported = result["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert reported["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_is_complete_and_reconciles(workload):
    completed = _run("--workload", workload, "--seed", "3",
                     "--seconds", "2", "--trace", "1")
    result = _result(completed)
    assert result["correct"] and result["failed"] == 0, completed.stdout
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert "tracing overhead:" in completed.stdout

    trace = json.loads(
        (ROOT / ".perfbench" / f"trace-{workload}-3.json").read_text()
    )
    assert trace["missing"] == []
    silent = [
        target for target in layers.expected_to_fire(workload)
        if not trace["fired"].get(target)
    ]
    assert silent == []
    assert abs(metrics["trace.covered_ratio"] - 1.0) <= (
        run.RECONCILE_TOLERANCE
    )

    if workload == "analyzer-scale":
        assert metrics["machine.busy_s"] == 0
        assert metrics["analyzer.busy_s"] > 0
    if workload == "paper-suite":
        assert metrics["driver.cache_lookups"] == 0
        assert metrics["analyzer.busy_s"] < 0.05 * metrics["driver.compile_s"]
        assert metrics["machine.busy_s"] > 0
    if workload == "daemon-edit":
        assert metrics["driver.cache_lookups"] > 0
        assert metrics["service.server_ms"] > 0


# -- refusals -----------------------------------------------------------------


def test_refuses_configuration_knobs():
    completed = _run("--workload", "analyzer-scale", "--seconds", "1",
                     env={"REPRO_SIM": "reference"}, timeout=120)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
    assert "REPRO_SIM" in completed.stderr


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for workload in [w["name"] for w in SPEC["workloads"]]:
        completed = _run("--workload", workload, "--seconds", "1",
                         cwd=tmp_path, timeout=120)
        assert completed.returncode != 0
        assert completed.stdout.strip() == ""

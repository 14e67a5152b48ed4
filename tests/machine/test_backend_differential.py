"""Cross-backend differential suite.

The compiled (threaded-code) backend must be observationally
indistinguishable from the reference interpreter: bit-identical
:class:`ExecutionStats` — cycles, instructions, memref/singleton
splits, save/restore, call counts and edges, per-procedure
attribution, output, exit code — and the same exception with the same
message at the same instruction boundary.  The matrix here is the full
workload suite under every analyzer configuration A-F (plus the
level-2 baseline), seeded fuzz programs, cycle-limit boundaries, and a
convention-violating executable.  See ``docs/SIMULATOR.md``.
"""

import pytest

from repro import (
    AnalyzerOptions,
    ProgramDatabase,
    collect_profile,
    compile_program,
    compile_with_database,
    run_phase1,
)
from repro.analyzer.driver import analyze_program
from repro.machine import compiled
from repro.machine.simulator import (
    BACKENDS,
    DEFAULT_BACKEND,
    ConventionViolation,
    ExecutionLimitExceeded,
    MachineError,
    Simulator,
    resolve_backend,
)
from repro.target import isa
from repro.target.registers import RP, RV
from repro.verify.progen import generate_fuzz_program
from repro.workloads import all_workloads

WORKLOADS = all_workloads()
CONFIGS = [None, "A", "B", "C", "D", "E", "F"]
FUZZ_SEEDS = range(12)
FUZZ_MAX_CYCLES = 200_000


def _stats_key(stats):
    """Every observable field of :class:`ExecutionStats`."""
    return (
        stats.cycles,
        stats.instructions,
        stats.loads,
        stats.stores,
        stats.singleton_loads,
        stats.singleton_stores,
        stats.save_restore_executed,
        dict(stats.call_counts),
        dict(stats.call_edges),
        repr(stats.per_procedure),
        stats.output,
        stats.exit_code,
    )


def _outcome(executable, max_cycles, backend, **kwargs):
    """Run to a comparable value: stats on success, else the exact
    exception class and message."""
    try:
        stats = Simulator(executable, backend=backend, **kwargs).run(
            max_cycles
        )
        return ("stats", _stats_key(stats))
    except ExecutionLimitExceeded as exc:
        return ("limit", str(exc))
    except ConventionViolation as exc:
        return ("convention", str(exc))
    except MachineError as exc:
        return ("fault", str(exc))


def assert_backends_agree(executable, max_cycles, **kwargs):
    reference = _outcome(executable, max_cycles, "reference", **kwargs)
    compiled = _outcome(executable, max_cycles, "compiled", **kwargs)
    assert compiled == reference
    return reference


# ----------------------------------------------------------------------
# Workload matrix: every workload x {baseline, A-F}.

_PHASE1 = {}
_PROFILES = {}


def _workload_phase1(name):
    if name not in _PHASE1:
        _PHASE1[name] = run_phase1(WORKLOADS[name].sources)
    return _PHASE1[name]


def _workload_profile(name):
    if name not in _PROFILES:
        workload = WORKLOADS[name]
        _PROFILES[name] = collect_profile(
            _workload_phase1(name), max_cycles=workload.max_cycles
        )
    return _PROFILES[name]


def _database(name, config):
    if config is None:
        return ProgramDatabase()
    phase1 = _workload_phase1(name)
    profile = _workload_profile(name) if config in "BF" else None
    return analyze_program(
        [result.summary for result in phase1],
        AnalyzerOptions.config(config, profile),
    )


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: c or "baseline")
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matrix_bit_identical(name, config):
    workload = WORKLOADS[name]
    database = _database(name, config)
    executable = compile_with_database(_workload_phase1(name), database)
    outcome = assert_backends_agree(executable, workload.max_cycles)
    assert outcome[0] == "stats"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_per_procedure_attribution_identical(name):
    workload = WORKLOADS[name]
    executable = compile_with_database(
        _workload_phase1(name), ProgramDatabase()
    )
    outcome = assert_backends_agree(
        executable, workload.max_cycles, procedure_stats=True
    )
    assert outcome[0] == "stats"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_convention_checking_identical(name):
    workload = WORKLOADS[name]
    database = _database(name, "C")
    executable = compile_with_database(_workload_phase1(name), database)
    outcome = assert_backends_agree(
        executable,
        workload.max_cycles,
        check_conventions=True,
        volatile_registers=database.convention_volatile_registers(),
    )
    assert outcome[0] == "stats"


# ----------------------------------------------------------------------
# Seeded fuzz programs.

@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_program_bit_identical(seed):
    sources = generate_fuzz_program(seed)
    executable = compile_program(sources).executable
    for kwargs in ({}, {"procedure_stats": True},
                   {"check_conventions": True}):
        assert_backends_agree(executable, FUZZ_MAX_CYCLES, **kwargs)


# ----------------------------------------------------------------------
# Cycle-limit boundaries: ExecutionLimitExceeded must fire at the same
# instruction boundary, and runs that just fit must complete on both.

def test_limit_boundary_identical():
    result = compile_program({"m": """
        int work(int n) {
          int i;
          int s = 0;
          for (i = 0; i < n; i++) s = s + i * i;
          return s;
        }
        int main() { print(work(40)); return work(9) & 255; }
    """})
    executable = result.executable
    total = Simulator(executable, backend="reference").run().cycles
    saw_limit = saw_stats = False
    limits = (list(range(1, 48))
              + [total // 2, total - 1, total, total + 1])
    for limit in limits:
        outcome = assert_backends_agree(executable, limit)
        if outcome[0] == "limit":
            saw_limit = True
        else:
            saw_stats = True
    assert saw_limit and saw_stats


# ----------------------------------------------------------------------
# Convention violations: same exception, same message, both backends.

def test_convention_violation_identical():
    result = compile_program({"m": """
        int helper(int x) { return x + 1; }
        int main() { return helper(1); }
    """})
    executable = result.executable
    start = executable.function_entries["helper"]
    executable.instructions[start] = isa.LDI(20, 12345)
    outcome = assert_backends_agree(
        executable, 200_000_000, check_conventions=True
    )
    assert outcome[0] == "convention"
    assert "r20" in outcome[1]


# ----------------------------------------------------------------------
# Backend selection plumbing.

def test_default_backend_is_compiled():
    assert DEFAULT_BACKEND == "compiled"
    assert set(BACKENDS) == {"compiled", "reference"}


def test_resolve_backend_prefers_explicit_name(monkeypatch):
    monkeypatch.setenv("REPRO_SIM", "compiled")
    assert resolve_backend("reference") == "reference"


def test_resolve_backend_reads_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SIM", "reference")
    assert resolve_backend() == "reference"
    result = compile_program({"m": "int main() { return 3; }"})
    assert Simulator(result.executable).backend == "reference"
    monkeypatch.delenv("REPRO_SIM")
    assert resolve_backend() == DEFAULT_BACKEND


def test_unknown_backend_rejected(monkeypatch):
    with pytest.raises(ValueError, match="unknown simulator backend"):
        resolve_backend("turbo")
    monkeypatch.setenv("REPRO_SIM", "bogus")
    with pytest.raises(ValueError, match="unknown simulator backend"):
        resolve_backend()


# ----------------------------------------------------------------------
# Lazy block entry: the compiled backend generates a block the first
# time control reaches it.  Every way a block can be entered first must
# still agree with the reference interpreter, and code no run reaches
# must never be generated.

KWARG_SETS = ({}, {"procedure_stats": True}, {"check_conventions": True})


def _programs(executable):
    """The compiled programs cached for ``executable`` (one per
    accounting configuration run so far)."""
    return list(compiled._PROGRAM_CACHE[executable].values())


def _generated(executable):
    """Every pc some compiled program generated a block for."""
    return {pc for program in _programs(executable) for pc in program.codes}


def _function_pcs(executable, name):
    rng = next(r for r in executable.function_ranges if r.name == name)
    return set(range(rng.start, rng.end))


_INDIRECT = """
    int target(int x) { return x * 2 + 1; }
    int twice(int x) { int *p = &target; return p(p(x)); }
    int main() { print(twice(3)); return twice(5) & 255; }
"""


@pytest.mark.parametrize("kwargs", KWARG_SETS, ids=str)
def test_lazy_entry_through_indirect_call(kwargs):
    executable = compile_program({"m": _INDIRECT}).executable
    outcome = assert_backends_agree(executable, FUZZ_MAX_CYCLES, **kwargs)
    assert outcome[0] == "stats"
    # ``target`` is only ever called through BLR: its block was first
    # entered (and generated) by the indirect call.
    assert executable.function_entries["target"] in _generated(executable)


@pytest.mark.parametrize("kwargs", KWARG_SETS, ids=str)
def test_lazy_entry_through_return(kwargs):
    # The BLR ends its block, so the return site after it is a separate
    # block first reached by the callee's RET.
    executable = compile_program({"m": _INDIRECT}).executable
    return_sites = {
        pc + 1 for pc, instruction in enumerate(executable.instructions)
        if isinstance(instruction, isa.BLR)
    }
    assert return_sites
    outcome = assert_backends_agree(executable, FUZZ_MAX_CYCLES, **kwargs)
    assert outcome[0] == "stats"
    assert return_sites <= _generated(executable)


_CALLS = """
    int helper(int x) { return x + 1; }
    int main() {
      int a;
      a = helper(1);
      print(a);
      print(a + 2);
      return helper(a);
    }
"""


@pytest.mark.parametrize("kwargs", KWARG_SETS, ids=str)
def test_lazy_entry_through_corrupted_return_pointer(kwargs):
    executable = compile_program({"m": _CALLS}).executable
    # helper now returns two instructions past each return site: into
    # the middle of a block that was never entered.
    entry = executable.function_entries["helper"]
    executable.instructions[entry] = isa.ALUI("+", RP, RP, 2)
    assert_backends_agree(executable, FUZZ_MAX_CYCLES, **kwargs)
    leaders = {pc for program in _programs(executable)
               for pc in program.leaders}
    assert _generated(executable) - leaders, "no suffix block was entered"


def test_lazy_entry_cycle_limit_before_most_blocks_exist():
    workload = WORKLOADS["paopt"]
    executable = compile_with_database(
        _workload_phase1("paopt"), ProgramDatabase()
    )
    for limit in (1, 60, 2_000):
        outcome = assert_backends_agree(executable, limit)
        assert outcome[0] == "limit"
    (program,) = _programs(executable)
    assert len(program.codes) < len(program.leaders) // 4
    # The same cached program then runs to completion, generating the
    # blocks the truncated runs never reached.
    outcome = assert_backends_agree(executable, workload.max_cycles)
    assert outcome[0] == "stats"
    assert _programs(executable) == [program]
    assert len(program.codes) > len(program.leaders) // 4


_NEVER = """
    int never(int x) { return x * 3 + x / 7; }
    int helper(int x) { return x + 1; }
    int main() { %s print(helper(4)); return 0; }
"""


@pytest.mark.parametrize("reached", [False, True])
def test_lazy_unreached_function_with_bad_constant_address(reached):
    call = "int *p = &never; print(p(2));" if reached else ""
    executable = compile_program({"m": _NEVER % call}).executable
    # never() loads from a constant address past the end of memory:
    # codegen resolves the bounds check to the reference fault.
    entry = executable.function_entries["never"]
    executable.instructions[entry] = isa.LDI(RV, 1 << 22)
    executable.instructions[entry + 1] = isa.LDW(RV, RV, 0)
    for kwargs in KWARG_SETS:
        outcome = assert_backends_agree(
            executable, FUZZ_MAX_CYCLES, **kwargs
        )
        assert outcome[0] == ("fault" if reached else "stats")
    generated = _generated(executable)
    if reached:
        assert entry in generated
    else:
        assert generated
        assert not _function_pcs(executable, "never") & generated


_DEAD_CODE = """
    int g;
    int used(int n) {
      int i;
      int s = 0;
      for (i = 0; i < n; i++) s = s + i;
      return s;
    }
    int dead_loop(int n) {
      int i;
      for (i = 0; i < n; i++) g = g + i * i;
      return g;
    }
    int dead_caller(int n) { if (n > 3) return dead_loop(n); return used(n); }
    int main() { print(used(10)); return 0; }
"""


@pytest.mark.parametrize("kwargs", KWARG_SETS, ids=str)
def test_unreached_functions_never_generated(kwargs):
    executable = compile_program({"m": _DEAD_CODE}).executable
    outcome = assert_backends_agree(executable, FUZZ_MAX_CYCLES, **kwargs)
    assert outcome[0] == "stats"
    generated = _generated(executable)
    assert generated
    for name in ("dead_loop", "dead_caller"):
        assert not _function_pcs(executable, name) & generated, name

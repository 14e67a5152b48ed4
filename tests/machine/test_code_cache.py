"""The compiled backend's process-wide block-code cache.

Block code objects are shared across executables, keyed by the block's
generated source (``compiled._block_code``): a second executable with
the same code — a re-link of an unchanged program, as every daemon
``profile`` request makes — runs without compiling any block source,
while a block whose source changed gets fresh code.  The cache is a
bounded LRU.  See ``docs/SIMULATOR.md``.
"""

import sys
import threading
from collections import OrderedDict

import pytest

from repro import compile_program, run_executable
from repro.machine import compiled
from repro.target import isa

SOURCE = """
    int table[8];
    int work(int n) {
      int i;
      int s = 0;
      for (i = 0; i < n; i++) {
        if (i & 1) s = s + i * i; else s = s - i;
        table[i & 7] = s;
      }
      return s;
    }
    int main() { print(work(40)); print(table[3]); return work(9) & 255; }
"""


def _stats_key(stats):
    """Every observable field of ``ExecutionStats``."""
    return (
        stats.cycles, stats.instructions, stats.loads, stats.stores,
        stats.singleton_loads, stats.singleton_stores,
        stats.save_restore_executed, dict(stats.call_counts),
        dict(stats.call_edges), repr(stats.per_procedure), stats.output,
        stats.exit_code,
    )


def _reference(executable):
    return _stats_key(run_executable(executable, backend="reference"))


@pytest.fixture
def code_cache(monkeypatch):
    """A fresh, empty code cache for the test (restored afterwards)."""
    cache = OrderedDict()
    monkeypatch.setattr(compiled, "_CODE_CACHE", cache)
    return cache


@pytest.fixture
def compiles(monkeypatch):
    """Counts the ``compile()`` calls block code generation makes."""
    calls = []

    def counting(source, filename, mode):
        calls.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(compiled, "compile", counting, raising=False)
    return calls


def _executable():
    return compile_program({"m": SOURCE}).executable


def test_identical_executable_compiles_no_block(code_cache, compiles):
    first, second = _executable(), _executable()
    assert first is not second
    assert _stats_key(run_executable(first)) == _reference(first)
    blocks = len(compiles)
    assert blocks > 0
    assert len(code_cache) == blocks
    stats = run_executable(second)
    assert len(compiles) == blocks  # zero compile() calls this run
    assert _stats_key(stats) == _reference(second)
    # Both programs run the very same code objects.
    (first_program,) = compiled._PROGRAM_CACHE[first].values()
    (second_program,) = compiled._PROGRAM_CACHE[second].values()
    assert first_program is not second_program
    assert first_program.codes == second_program.codes


def test_mutated_block_gets_fresh_code(code_cache, compiles):
    original, mutated = _executable(), _executable()
    run_executable(original)
    blocks = len(compiles)
    # Rewrite the exit code's mask: main's final AND.
    main = next(
        rng for rng in mutated.function_ranges if rng.name == "main"
    )
    mask = max(
        pc for pc in range(main.start, main.end)
        if isinstance(mutated.instructions[pc], isa.ALUI)
        and mutated.instructions[pc].op == "&"
    )
    instruction = mutated.instructions[mask]
    mutated.instructions[mask] = isa.ALUI(
        "&", instruction.rd, instruction.ra, 15
    )
    stats = run_executable(mutated)
    # Only the block holding the mask was compiled again.
    assert len(compiles) == blocks + 1
    assert compiles[-1] not in compiles[:blocks]
    assert _stats_key(stats) == _reference(mutated)
    assert stats.exit_code != run_executable(original).exit_code


def test_cache_never_exceeds_its_bound(code_cache, compiles, monkeypatch):
    bound = 3
    monkeypatch.setattr(compiled, "_CODE_CACHE_SIZE", bound)
    sizes = []
    insert = compiled._block_code

    def watched(source):
        code = insert(source)
        sizes.append(len(code_cache))
        return code

    monkeypatch.setattr(compiled, "_block_code", watched)
    executables = [_executable() for _ in range(3)]
    for executable in executables:
        assert _stats_key(run_executable(executable)) == (
            _reference(executable)
        )
    assert len(compiles) > bound
    assert max(sizes) == bound


def _block_source(value):
    return (f"def _factory():\n    def _b0():\n"
            f"        return {value}")


def test_least_recently_used_block_goes_first(code_cache, monkeypatch):
    monkeypatch.setattr(compiled, "_CODE_CACHE_SIZE", 3)
    a, b, c, d = (_block_source(value) for value in range(4))
    codes = {source: compiled._block_code(source) for source in (a, b, c)}
    assert compiled._block_code(a) is codes[a]  # a hit refreshes a
    compiled._block_code(d)
    assert list(code_cache) == [c, a, d]  # b was least recently used
    assert compiled._block_code(b) is not codes[b]
    assert list(code_cache) == [a, d, b]


def test_threads_racing_first_runs_stay_correct(code_cache):
    executables = [_executable() for _ in range(6)]
    expected = _reference(executables[0])
    results = []
    errors = []

    def worker(executable):
        try:
            for _ in range(3):
                results.append(_stats_key(run_executable(executable)))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(executable,))
            for executable in executables
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert results == [expected] * 18
    assert len(code_cache) <= compiled._CODE_CACHE_SIZE

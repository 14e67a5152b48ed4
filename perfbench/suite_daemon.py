"""``daemon-edit``: editor sessions against the compile daemon.

The daemon runs in its own process with default settings
(:mod:`daemon_launcher`).  Two client connections from this process run
edit sessions in a closed loop with no think time: open a fuzz program
(config C), ``compile``, ``profile``, then rounds of one seeded
``mutate`` edit followed by ``compile``, then ``close``.  Session
scripts come from a small pool shared by both clients, so sessions hit
the daemon's shared cache.  Every fingerprint the daemon returns must
equal a serial, uncached ``compile_program`` of the same sources,
computed during set-up.

The program pool is fixed; the seed chooses the edits and the order in
which each client runs the scripts, so the amount of work per run does
not swing with the seed's choice of program sizes.
"""

from __future__ import annotations

import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time

import repro
from repro import AnalyzerOptions
from repro.linker.link import executable_fingerprint
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.verify.progen import FuzzProgramGenerator

from common import BENCH_DIR, ROOT, child_environment, percentile, work_dir

CONFIG = "C"
POOL_PROGRAMS = (0, 1, 2, 3)
SCRIPTS = 6
ROUNDS = 3
CLIENTS = 2
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def _key(sources: dict) -> tuple:
    return tuple(sorted(sources.items()))


def make_script(program: int, rng: random.Random) -> list:
    """Source states of one session: the program, then one seeded
    ``mutate`` edit per round."""
    generator = FuzzProgramGenerator(program)
    states = [generator.generate()]
    for _round in range(ROUNDS):
        states.append(generator.mutate(states[-1], rng.randrange(1, 10**6)))
    return states


class DaemonEdit:
    name = "daemon-edit"
    #: Percentile reported as op_tail_ms (see README).
    tail_pct = 75.0

    def __init__(self, seed: int):
        self.seed = seed
        self.process = None
        self.trace_path = work_dir() / f"daemon-trace-{os.getpid()}.json"
        self.socket = os.path.relpath(
            work_dir() / f"daemon-{os.getpid()}.sock", ROOT
        )
        self.daemon_rss_mb = 0.0

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Start the daemon and warm it up with every session script
        once (split over the clients), while this process computes the
        serial truth; then check the warm-up's fingerprints too.  The
        cold compiles land here, so the measured loop is the steady
        state of editors re-opening programs the daemon has seen."""
        self.close()
        self._start_daemon()
        rng = random.Random(f"daemon-edit-{self.seed}")
        self.scripts = [
            make_script(POOL_PROGRAMS[i % len(POOL_PROGRAMS)], rng)
            for i in range(SCRIPTS)
        ]
        self.orders = [
            rng.sample(range(SCRIPTS), SCRIPTS) for _client in range(CLIENTS)
        ]
        warmup: dict = {}

        def warm_up() -> None:
            try:
                self._wait_for("READY")
                warmup.update(self._closed_loop(
                    [self.scripts[client::CLIENTS]
                     for client in range(CLIENTS)],
                    deadline=None, truth=None,
                ))
            except RuntimeError as error:
                warmup["failed"] = [str(error)]

        thread = threading.Thread(target=warm_up)
        thread.start()
        options = AnalyzerOptions.config(CONFIG)
        self.truth = {}
        for states in self.scripts:
            for sources in states:
                if _key(sources) not in self.truth:
                    result = repro.compile_program(
                        dict(sources), 2, analyzer_options=options
                    )
                    self.truth[_key(sources)] = executable_fingerprint(
                        result.executable
                    )
        thread.join()
        failed = list(warmup.get("failed", ["no warm-up"]))
        failed += [
            "fingerprint differs from the serial truth"
            for key, fingerprint in warmup.get("fingerprints", [])
            if self.truth[key] != fingerprint
        ]
        if failed:
            raise RuntimeError(f"warm-up failed: {failed[:3]}")

    def _start_daemon(self) -> None:
        command = [
            sys.executable, str(BENCH_DIR / "daemon_launcher.py"),
            self.socket, "--trace-out", str(self.trace_path),
        ]
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_environment(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.lines = queue.Queue()
        self.reader = threading.Thread(
            target=_pump, args=(self.process.stdout, self.lines)
        )
        self.reader.start()

    def _wait_for(self, token: str) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while (left := deadline - time.monotonic()) > 0:
            try:
                line = self.lines.get(timeout=left)
            except queue.Empty:
                break
            if line is None:
                break
            if line == token:
                return
        raise RuntimeError(f"daemon did not report {token}")

    # -- the closed loop --------------------------------------------------

    def _closed_loop(self, plans, deadline, truth) -> dict:
        """Each client runs its plan of scripts back to back until the
        deadline (a session in flight finishes); ``deadline=None`` runs
        each plan once.  Fingerprints are checked against ``truth``, or
        only collected when it is ``None``."""
        records: list = []  # (client, operation, seconds, reply or None)
        failed: list = []
        fingerprints: list = []  # (sources key, fingerprint)
        lock = threading.Lock()

        def client(index: int) -> None:
            plan = plans[index]
            try:
                conn = ServiceClient.connect_unix(self.socket, timeout=120)
            except OSError as error:
                with lock:
                    failed.append(f"client {index}: connect: {error}")
                return
            with conn:
                position = 0
                while position < len(plan) if deadline is None else (
                    time.perf_counter() < deadline
                ):
                    states = plan[position % len(plan)]
                    position += 1
                    try:
                        usable = self._session(
                            conn, states, index, records, failed,
                            fingerprints, lock, truth,
                        )
                    except Exception as error:  # reported, not lost
                        usable = False
                        with lock:
                            failed.append(f"client {index}: {error!r}")
                    if not usable:
                        return

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(len(plans))
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {
            "records": records,
            "failed": failed,
            "fingerprints": fingerprints,
            "wall_s": time.perf_counter() - started,
        }

    def _session(self, conn, states, index, records, failed,
                 fingerprints, lock, truth) -> bool:
        """One edit session; False when the connection is unusable."""

        def request(operation, call):
            started = time.perf_counter()
            try:
                reply = call()
            except ServiceError as error:
                with lock:
                    failed.append(f"{operation}: {error}")
                    records.append((index, operation, None, None))
                return None
            except (OSError, ConnectionError) as error:
                with lock:
                    failed.append(f"{operation}: connection: {error}")
                    records.append((index, operation, None, None))
                raise
            seconds = time.perf_counter() - started
            with lock:
                records.append((index, operation, seconds, reply))
            return reply

        def compile_and_check(session, sources, operation) -> bool:
            reply = request(operation, lambda: conn.compile(session))
            if reply is None:
                return False
            key, fingerprint = _key(sources), reply["fingerprint"]
            with lock:
                fingerprints.append((key, fingerprint))
                if truth is not None and truth[key] != fingerprint:
                    failed.append(f"{operation}: fingerprint differs "
                                  "from the serial truth")
                    return False
            return True

        try:
            opened = request(
                "open_session",
                lambda: conn.open_session(dict(states[0]), config=CONFIG),
            )
            if opened is None:
                return True
            session = opened["session"]
            if compile_and_check(session, states[0], "compile") and request(
                "profile", lambda: conn.profile(session)
            ) is not None:
                for before, after in zip(states, states[1:]):
                    for module in sorted(set(before) | set(after)):
                        if before.get(module) != after.get(module):
                            request("edit", lambda m=module: conn.edit(
                                session, m, after.get(m)))
                    if not compile_and_check(session, after, "recompile"):
                        break
            request("close", lambda: conn.close_session(session))
        except (OSError, ConnectionError):
            return False
        return True

    # -- measurement ------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        plans = [
            [self.scripts[i] for i in order] for order in self.orders
        ]
        with ServiceClient.connect_unix(self.socket) as conn:
            before = conn.stats()["cache"]
        started = time.perf_counter()
        window = self._closed_loop(
            plans, deadline=started + seconds, truth=self.truth
        )
        with ServiceClient.connect_unix(self.socket) as conn:
            after = conn.stats()["cache"]
        records = window["records"]
        compiles = [
            (seconds, reply) for _c, operation, seconds, reply in records
            if operation in ("compile", "recompile") and reply is not None
        ]
        by_kind = {
            kind: sorted(
                seconds for _c, operation, seconds, reply in records
                if operation == kind and reply is not None
            )
            for kind in ("compile", "recompile")
        }
        completed = sum(1 for record in records if record[3] is not None)
        return {
            "latencies_s": [seconds for seconds, _reply in compiles],
            "wall_s": window["wall_s"],
            "busy_s": window["wall_s"],
            "attempted": len(records),
            "failed": window["failed"],
            "exact": {
                "truth": sorted(set(self.truth.values())),
            },
            "units": max(1, len(compiles)),
            "root_names": {"service.compile_job"},
            "root_reference_s": sum(
                reply["seconds"] for _seconds, reply in compiles
            ),
            "layers": _reply_layers(
                compiles, completed, window["wall_s"], before, after
            ),
            "lines": [
                f"requests: {completed} completed of {len(records)} "
                f"({completed / window['wall_s']:.2f}/s), "
                f"{len(compiles)} compiles, {CLIENTS} clients",
                f"serial truth: {len(self.truth)} distinct program states",
            ] + [
                f"{kind} p50 {1000 * percentile(values, 50):.3f} ms "
                f"(n={len(values)})"
                for kind, values in by_kind.items() if values
            ],
        }

    # -- tracing ----------------------------------------------------------

    def start_trace(self) -> None:
        self.process.send_signal(signal.SIGUSR1)
        self._wait_for("TRACING")

    def stop_trace(self) -> dict:
        self.close()
        with open(self.trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        os.remove(self.trace_path)
        return trace

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon's process (known once it exits)."""
        self.close()
        if not self.daemon_rss_mb:
            raise RuntimeError("the daemon exited without its peak RSS")
        return self.daemon_rss_mb

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Shut the daemon down, wait for it, and read its peak RSS."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            try:
                with ServiceClient.connect_unix(self.socket,
                                                timeout=10) as conn:
                    conn.shutdown()
            except (OSError, ServiceError):
                pass
        process.stdin.close()  # the launcher also stops on EOF
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        self.reader.join()
        process.stdout.close()
        last = None
        while (line := self.lines.get()) is not None:
            last = line
        try:
            self.daemon_rss_mb = json.loads(last)["peak_rss_mb"]
        except (TypeError, ValueError, KeyError):
            pass


def _pump(stream, lines: queue.Queue) -> None:
    """Move the daemon's output lines onto ``lines``; ``None`` at EOF."""
    for line in stream:
        lines.put(line.strip())
    lines.put(None)


def _reply_layers(compiles, completed, wall_s, before, after) -> dict:
    """Per-compile-request layer figures from the daemon's replies."""
    count = max(1, len(compiles))

    def mean(values) -> float:
        values = list(values)
        return sum(values) / count if values else 0.0

    queue = mean(reply["queue_seconds"] for _s, reply in compiles)
    lock = mean(reply["lock_seconds"] for _s, reply in compiles)
    server = mean(reply["seconds"] for _s, reply in compiles)
    latency = mean(seconds for seconds, _reply in compiles)
    modules = sum(reply["modules"] for _s, reply in compiles) or 1
    layers = {
        "service.queue_ms": 1000 * queue,
        "service.lock_ms": 1000 * lock,
        "service.server_ms": 1000 * server,
        "service.wire_ms": 1000 * (latency - queue - lock - server),
        "service.phase1_cached_ratio": sum(
            reply["phase1_cached"] for _s, reply in compiles) / modules,
        "service.phase2_cached_ratio": sum(
            reply["phase2_cached"] for _s, reply in compiles) / modules,
        "service.requests_per_s": completed / wall_s,
    }
    for stage in ("phase1", "analyze", "phase2", "link"):
        layers[f"driver.{stage}_s"] = mean(
            reply["stage_seconds"].get(stage, 0.0) for _s, reply in compiles
        )

    def delta(field: str) -> int:
        return sum(after[field].values()) - sum(before[field].values())

    hits, misses = delta("hits"), delta("misses")
    layers["driver.cache_lookups"] = (hits + misses) / count
    layers["driver.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    layers["driver.cache_bad_entries"] = delta("bad_entries") / count
    analyze: dict = {}
    for _s, reply in compiles:
        for name, value in reply.get("analyze", {}).items():
            analyze[name] = analyze.get(name, 0) + value
    for kind in ("webs", "clusters"):
        reused = analyze.get(f"{kind}_reused", 0)
        total = reused + analyze.get(f"{kind}_recomputed", 0)
        layers[f"incremental.{kind}_reused_ratio"] = (
            reused / total if total else 0.0
        )
    return layers

"""Run the compile daemon with its default settings for ``daemon-edit``.

Usage::

    PYTHONPATH=src python3 perfbench/daemon_launcher.py SOCKET [--trace-out FILE]

Listens on the unix socket ``SOCKET`` and prints ``READY`` once it
accepts connections.  With ``--trace-out``, ``SIGUSR1`` installs the
per-layer span recorder (:mod:`layers`) and prints ``TRACING``; the
recorded spans are written to ``FILE`` at exit.  The daemon exits after
a client's ``shutdown`` request, or when its standard input closes
because the process that started it went away.  Its last line of
output is a JSON object with its peak RSS.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import signal
import sys
import threading

from repro.service.server import CompileService

from layers import InProcessTracing, Recorder


def trace_jobs(recorder: Recorder) -> None:
    """Give every compute job the daemon runs its own root span
    (``service.compile_job`` / ``service.profile_job``) and operation
    id, so the spans of one request form one tree."""
    original = CompileService._run_job
    ids = itertools.count(1)

    async def run_job(self, fn, *args, **kwargs):
        kind = "compile" if "_op_compile" in fn.__qualname__ else "profile"
        op = f"{kind}/{next(ids)}"
        traced = recorder.wrap(
            f"repro.service.server:{kind}-job", f"service.{kind}_job",
            None, fn,
        )

        def job():
            recorder.set_op(op)
            return traced()

        return await original(self, job, *args, **kwargs)

    CompileService._run_job = run_job


async def serve(socket_path: str, trace_out: str | None) -> None:
    service = CompileService(unix_path=socket_path)
    await service.start()
    loop = asyncio.get_running_loop()
    recorder = None

    def start_tracing() -> None:
        nonlocal recorder
        if recorder is None:
            recorder = Recorder().install()
            trace_jobs(recorder)
        print("TRACING", flush=True)

    if trace_out:
        loop.add_signal_handler(signal.SIGUSR1, start_tracing)

    stopping: set = set()  # keeps the stop task referenced

    def watch_stdin() -> None:
        sys.stdin.read()
        loop.call_soon_threadsafe(
            lambda: stopping.add(loop.create_task(service.stop()))
        )

    threading.Thread(target=watch_stdin, daemon=True).start()
    print("READY", flush=True)
    await service.serve_forever()
    # ``serve_forever`` returns once the listeners close; finish the
    # drain (idempotent) before reporting.
    await service.stop()
    if recorder is not None:
        recorder.uninstall()
        recorder.dump(trace_out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("socket")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    asyncio.run(serve(args.socket, args.trace_out))
    rss = InProcessTracing().peak_rss_mb()
    print(json.dumps({"peak_rss_mb": rss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's child process: one fresh interpreter per workload run.

Usage: ``python3 child.py <src-dir>``.  The child imports ``ordsearch.cli``
from ``<src-dir>`` only, says it is ready, and then serves pickled commands
from its standard input, one at a time, answering on its standard output:

* ``("run", argv, stdin_text)``: call ``ordsearch.cli.main(argv)`` in-process
  with that standard input, and answer ``(exit_code, stdout, stderr,
  seconds, exception)``; only the call itself is timed;
* ``("trace", mode)``: install the tracer (once) and set its mode, one of
  ``None``, ``"spans"`` or ``"memory"``; answers the absent layer names;
* ``("report",)``: the tracer's totals;
* ``("rusage",)``: this process's peak resident set size in MB;
* ``("quit",)``.
"""

from __future__ import annotations

import io
import os
import pickle
import resource
import sys
from time import perf_counter


def serve(src: str, commands, replies) -> None:
    def send(message) -> None:
        pickle.dump(message, replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()

    sys.path.insert(0, src)
    try:
        import ordsearch
        import ordsearch.cli
    except ImportError as exc:
        send(("error", f"cannot import ordsearch from {src}: {exc}"))
        return
    where = os.path.realpath(ordsearch.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        send(("error", f"ordsearch was imported from {where}, not from {src}"))
        return
    send(("ready",))

    tracer = None
    while True:
        command = pickle.load(commands)
        kind = command[0]
        if kind == "run":
            _, argv, text = command
            send(_run(ordsearch.cli, argv, text, tracer))
        elif kind == "trace":
            absent = []
            if tracer is None:
                from tracer import Tracer

                tracer = Tracer()
                absent = tracer.install(ordsearch)
            tracer.mode = command[1]
            send(absent)
        elif kind == "report":
            send(tracer.report())
        elif kind == "rusage":
            send(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        elif kind == "quit":
            return
        else:
            raise ValueError(f"unknown command {kind!r}")


class _Chunks(io.TextIOBase):
    """Collects written text as a list of pieces, so that handing the output
    back needs no single copy of the whole text."""

    def __init__(self):
        self.pieces: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)


def _run(cli, argv, text, tracer):
    out, err = _Chunks(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text or ""), out, err
    exception = None
    start = perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # an exception escaping main is a failed request
        code = None
        exception = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        seconds = perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    if tracer is not None and tracer.mode == "spans":
        tracer.finish_request()
    return code, out.pieces, err.getvalue(), seconds, exception


if __name__ == "__main__":
    commands, replies = sys.stdin.buffer, sys.stdout.buffer
    # Keep stray prints from corrupting the reply stream.
    sys.stdout = sys.stderr
    serve(sys.argv[1], commands, replies)

"""Argument dispatch against the full parser's route.

``main`` hands a request that starts with a command name to that command's
parser alone.  The reference route here is the one every request took
before: the full parser's ``parse_args``, then the command's handler, with
``main``'s own error handling around it.  Both must give the same exit code
(or ``SystemExit`` code), stdout and stderr on every argv.

Only the standard library is used, so the corpus also runs as a script on
Python versions without the test dependencies:

    PYTHONPATH=src python tests/dispatch_corpus.py

It prints each argv that differs and exits 1 if any does.
"""

from __future__ import annotations

import functools
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from ordsearch import cli

SIX = "n 6\ne 0 1\ne 1 2\ne 2 4\ne 4 5\ne 5 0\ne 3 5\n"

# "{six}" stands for a file holding SIX; "-" reads SIX from stdin.
CORPUS = [
    # Every command with valid arguments.
    ["search", "{six}"],
    ["search", "{six}", "--trace", "--start", "3"],
    ["bfs", "-", "--trace"],
    ["alt", "{six}", "--stats"],
    ["tree", "{six}", "--traversal"],
    ["tree", "{six}", "--bfs", "--dot", "--start", "2"],
    ["check", "{six}", "--order", "0", "1", "5", "2", "3", "4", "--kind", "dfs"],
    ["check", "{six}", "--kind", "traversal", "--order", "0", "1", "2"],
    ["enumerate", "{six}", "--kind", "bfs"],
    ["enumerate", "{six}", "--kind", "all", "--start", "2"],
    ["verify", "{six}", "--suite", "lexmin"],
    ["verify", "{six}", "--suite", "colexmax"],
    ["verify", "{six}", "--suite", "stability", "--seed", "4"],
    ["verify", "{six}", "--suite", "identities", "--probes", "3"],
    ["witness", "--m", "2", "--n", "1", "--k", "3", "--verify"],
    ["zeta", "w^2*3+w+4"],
    ["random", "--n", "7", "--density", "0.4", "--seed", "2"],
    ["selftest", "--only", "99"],
    # Help, at the top level and per command.
    ["--help"],
    ["-h"],
    *[[command, "--help"] for command in (
        "search", "bfs", "alt", "tree", "check", "enumerate", "verify",
        "witness", "zeta", "random", "selftest",
    )],
    ["verify", "-h"],
    ["search", "{six}", "-h"],
    ["search", "{six}", "--he"],
    ["witness", "--m", "1", "--help", "--n", "x"],
    # Usage errors.
    [],
    ["frobnicate"],
    ["frobnicate", "{six}"],
    [""],
    ["Search", "{six}"],
    ["search"],
    ["tree", "{six}"],
    ["tree", "{six}", "--traversal", "--bfs"],
    ["check", "{six}", "--order", "0", "1"],
    ["witness", "--m", "1", "--n", "1"],
    ["search", "{six}", "--start", "x"],
    ["witness", "--m", "1", "--n", "1", "--k", "two"],
    ["random", "--n", "5", "--density", "dense"],
    ["enumerate", "{six}", "--kind", "widest"],
    ["verify", "{six}", "--suite", "all"],
    ["search", "{six}", "--start"],
    # Unknown options and trailing extras.
    ["search", "{six}", "--fast"],
    ["search", "{six}", "-x"],
    ["search", "{six}", "{six}"],
    ["search", "{six}", "extra", "more"],
    ["zeta", "w", "w"],
    ["selftest", "extra"],
    ["witness", "--m", "1", "--n", "1", "--k", "1", "--verify", "yes"],
    ["check", "{six}", "--order", "0", "1", "2", "--kind", "traversal", "3"],
    ["search", "{six}", "--fast", "--start", "x"],
    # Abbreviations and --opt=value.
    ["witness", "--m", "1", "--n", "1", "--k", "2", "--ver"],
    ["search", "{six}", "--st", "2"],
    ["search", "{six}", "--tr"],
    ["alt", "{six}", "--st", "2"],
    ["alt", "{six}", "--sta"],
    ["search", "{six}", "--start=1"],
    ["search", "{six}", "--sta=1"],
    ["search", "{six}", "--start=x"],
    ["search", "{six}", "--trace=1"],
    ["enumerate", "{six}", "--kind=dfs"],
    ["check", "{six}", "--order=0", "--kind=traversal"],
    ["search", "{six}", "--start", "-1"],
    ["search", "{six}", "--start=-1"],
    ["zeta", "-1"],
    # "--" in several places.
    ["--", "search", "{six}"],
    ["search", "--", "{six}"],
    ["search", "{six}", "--"],
    ["search", "{six}", "--", "--start"],
    ["search", "--", "{six}", "--start", "1"],
    ["search", "--start", "1", "--", "{six}"],
    ["search", "--", "--", "{six}"],
    ["zeta", "--", "w+1"],
    ["zeta", "--", "-1"],
    ["check", "{six}", "--order", "0", "1", "--", "2", "--kind", "traversal"],
    ["check", "{six}", "--kind", "traversal", "--order", "0", "1", "5", "--"],
    ["--"],
    # An option before the command.
    ["-x", "search", "{six}"],
    ["--help", "search"],
    ["-h", "search", "{six}"],
    ["--start", "1", "search", "{six}"],
    ["--he"],
    ["-hx"],
    # Input errors, after a successful parse.
    ["search", "{six}", "--start", "9"],
    ["search", "/nonexistent/file.g"],
    ["verify", "{six}", "--suite", "identities", "--probes", "-1"],
    ["zeta", "w^"],
]


def outcome(run, argv: list[str]) -> tuple[object, str, str]:
    """(exit or SystemExit code, stdout, stderr) of ``run(argv)``, with SIX
    on stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(SIX)), redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _reference_parser():
    """A full parser of the reference route's own, built by the uncached
    ``_build_parsers``, so that it shares no parser with ``main``."""
    return cli._build_parsers.__wrapped__()[0]


def _reference_parse(argv):
    return _reference_parser().parse_args(argv)


def reference_main(argv: list[str]) -> int:
    """``main`` on the full parser's route: one ``parse_args`` call."""
    with mock.patch.object(cli, "_parse", _reference_parse):
        return cli.main(argv)


def both(argv: list[str]) -> tuple[tuple, tuple]:
    """The outcomes of ``main`` and of the reference route on argv."""
    return outcome(cli.main, argv), outcome(reference_main, argv)


def differing(six: str) -> list[list[str]]:
    """The corpus argvs, with "{six}" filled in, whose outcomes differ."""
    found = []
    for template in CORPUS:
        argv = [word.format(six=six) for word in template]
        new, old = both(argv)
        if new != old:
            found.append(argv)
    return found


if __name__ == "__main__":
    # Help text is wrapped to the terminal width; fix it for both routes.
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        six = os.path.join(tmp, "six.g")
        with open(six, "w", encoding="utf-8") as handle:
            handle.write(SIX)
        bad = differing(six)
    for argv in bad:
        print("differs:", argv)
    print(f"Python {sys.version.split()[0]}: {len(CORPUS) - len(bad)} of {len(CORPUS)} argvs match")
    sys.exit(1 if bad else 0)

"""Command-line front end.

Exit codes: 0 on success with every verdict PASS, 1 when any verdict line
reports FAIL, 2 on usage, syntax or input errors, 3 on an internal error (an
unexpected exception, reported as one ``internal error: <Type>: <message>``
line on stderr, without a traceback).  Graphs are read from a file argument,
`-` meaning standard input.  All output is deterministic for identical
arguments.  Output that grows with the input (an enumeration, a trace, a
tree, a random graph, a witness manifest) comes from an iterator of whole
lines, written with ``sys.stdout.writelines`` as each piece is made; those
commands raise every input error before their first line.

The argument parsers are built once, by ``functools.cache`` on the first
request, and reused; they hold only this module's handlers, which look up
library functions by name when they run.  Each request is parsed once: when
the first argument names a command, that command's own parser reads the
rest, as the full parser would hand it over.  Every other request goes
through the full parser, so that its usage, help and error text stay as they
are: no arguments, an option or an unknown word first, and arguments the
command leaves over ("unrecognized arguments" is the full parser's error).
``selftest`` loads the acceptance suite when it runs, so no other request
imports it.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .graph import (
    NotATraversalError,
    OrderedGraph,
    deserialize,
    dot_export,
    random_connected_graph,
    serialize,
)
from .ordinal import Ordinal, zeta
from .predicates import (
    closure_samples,
    enumeration_lines,
    is_breadth_first,
    is_depth_first,
    is_traversal,
    verify_colex_max,
    verify_identities,
    verify_lex_min,
    verify_stability,
)
from .search import alt_search_with_counts, bfs_search, deterministic_search, traversal_tree
from .witness import build_zeta_witness, format_manifest, verify_witness


def _read_graph(path: str) -> OrderedGraph:
    if path == "-":
        return deserialize(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return deserialize(handle.read())


def _fmt(order) -> str:
    return " ".join(map(str, order))


def _report(verdicts: dict[str, bool], notes: dict[str, str] | None = None) -> int:
    """Print one ``name: PASS|FAIL [note]`` line per verdict, in order, then
    one ``note: <note>`` line per note keyed by no verdict; 1 if any verdict
    failed, else 0."""
    notes = notes or {}
    for name, ok in verdicts.items():
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if name in notes:
            line += f" [{notes[name]}]"
        print(line)
    sys.stdout.writelines(f"note: {note}\n" for key, note in notes.items() if key not in verdicts)
    return 0 if all(verdicts.values()) else 1


def _cmd_search(args) -> int:
    g = _read_graph(args.graph)
    kernel = deterministic_search if args.command == "search" else bfs_search
    trace = kernel(g, args.start)
    print(_fmt(trace.visit_order))
    if args.trace:
        sys.stdout.writelines(trace.stage_lines())
    return 0


def _cmd_alt(args) -> int:
    g = _read_graph(args.graph)
    order, counts = alt_search_with_counts(g, args.start)
    print(_fmt(order))
    if args.stats:
        print(f"splits: {counts['splits']}")
        print(f"scanned: {counts['scanned']}")
    return 0


def _cmd_tree(args) -> int:
    g = _read_graph(args.graph)
    kernel = bfs_search if args.bfs else deterministic_search
    order = kernel(g, args.start).visit_order
    tree = traversal_tree(g, order)
    sys.stdout.writelines(dot_export(tree, traversal=order) if args.dot else serialize(tree))
    return 0


def _cmd_check(args) -> int:
    g = _read_graph(args.graph)
    name, test = {
        "traversal": ("traversal", is_traversal),
        "bfs": ("breadth-first", is_breadth_first),
        "dfs": ("depth-first", is_depth_first),
    }[args.kind]
    # The breadth-first and depth-first tests reject a non-traversal in
    # their own pass.
    try:
        ok, notes = test(g, tuple(args.order)), None
    except NotATraversalError:
        ok, notes = False, {name: "not a traversal"}
    return _report({name: ok}, notes)


def _cmd_enumerate(args) -> int:
    g = _read_graph(args.graph)
    kind = {"all": "all", "bfs": "breadth_first", "dfs": "depth_first"}[args.kind]
    # The walk makes each line as it places the vertices, and each is
    # written as it is made: no order is held and none is formatted.
    sys.stdout.writelines(enumeration_lines(g, kind, args.start))
    return 0


def _cmd_verify(args) -> int:
    if args.probes < 0:
        raise ValueError("--probes must be >= 0")
    g = _read_graph(args.graph)
    if args.suite == "lexmin":
        return _report(verify_lex_min(g))
    if args.suite == "colexmax":
        return _report(verify_colex_max(g))
    if args.suite == "stability":
        run = deterministic_search(g)
        return _report(*verify_stability(run, closure_samples(run, args.seed, 12)))
    return _report(*verify_identities(g, args.probes, args.seed))


def _cmd_witness(args) -> int:
    build = build_zeta_witness(args.m, args.n, args.k)
    sys.stdout.writelines(format_manifest(build))
    return _report(verify_witness(build)) if args.verify else 0


def _cmd_zeta(args) -> int:
    print(zeta(Ordinal.parse(args.ordinal)))
    return 0


def _cmd_random(args) -> int:
    sys.stdout.writelines(serialize(random_connected_graph(args.n, args.density, args.seed)))
    return 0


def _cmd_selftest(args) -> int:
    from . import acceptance

    criteria = [c for c in acceptance.CRITERIA if args.only in (None, c.number)]
    if not criteria:
        print(f"no criterion numbered {args.only}", file=sys.stderr)
        return 2
    return 0 if acceptance.run_all(criteria=criteria) else 1


@functools.cache
def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's parser by name."""
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("graph", help="graph file in the line format, or - for stdin")
    start = argparse.ArgumentParser(add_help=False)
    start.add_argument("--start", type=int, default=0)
    parser = argparse.ArgumentParser(
        prog="ordsearch",
        description="Graph search traversals, order predicates, ordinal bounds "
        "and witness constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", parents=[graph, start], help="deterministic search traversal")
    p.add_argument("--trace", action="store_true", help="print one line per stage")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bfs", parents=[graph, start], help="breadth-first traversal")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("alt", parents=[graph, start], help="divide-and-conquer traversal")
    p.add_argument("--stats", action="store_true", help="print work counters")
    p.set_defaults(func=_cmd_alt)

    p = sub.add_parser("tree", parents=[graph], help="spanning tree of a search run")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--traversal", action="store_true", help="use deterministic search")
    kind.add_argument("--bfs", action="store_true", help="use breadth-first search")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of the line format")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("check", parents=[graph], help="test an order against a predicate")
    p.add_argument("--order", type=int, nargs="+", required=True)
    p.add_argument("--kind", choices=("traversal", "bfs", "dfs"), required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", parents=[graph], help="list all orders of a kind")
    p.add_argument("--kind", choices=("all", "bfs", "dfs"), required=True)
    p.add_argument("--start", type=int, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", parents=[graph], help="run a verdict suite on a graph")
    p.add_argument(
        "--suite", choices=("lexmin", "colexmax", "stability", "identities"), required=True
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--probes",
        type=int,
        default=0,
        help="identities suite: also probe N random relabelings for "
        "bfs-after-search disagreements (informational)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("witness", help="build a truncated witness graph")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="append certificate verdicts")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("zeta", help="order-type bound of an ordinal")
    p.add_argument("ordinal", help="ordinal text, e.g. w^2*3+w+4")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("random", help="seeded random connected graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", type=int, default=None, help="run a single criterion by number")
    p.set_defaults(func=_cmd_selftest)

    return parser, sub.choices


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """One parse of the request; see the module docstring."""
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _build_parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: fixed request lists built from the seed.

A request is what one user invocation of ``ordsearch`` would be: an argv, an
optional standard input text, and the independent check its response must
pass.  ``probe`` marks requests that test the exit-code contract on hostile
input; they count in ``failed`` like any other request, but a failed probe
does not make the run's outputs incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import gen
import oracles

Check = Callable[[int | None, str, str], "str | None"]


@dataclass
class Request:
    argv: list[str]
    stdin: str | None
    check: Check
    input_edges: int = 0
    probe: bool = False


def _graph_request(argv: list[str], g: gen.Graph, check: Check, text: str | None = None) -> Request:
    return Request(argv, text if text is not None else g.text(), check, len(g.edges))


def traverse_large(seed: int) -> list[Request]:
    """Trace-free requests on large inputs: the search kernel and the graph
    layer's parse, normalize and adjacency path do most of the work."""
    reqs: list[Request] = []
    for g in (
        gen.sparse_connected(3000, 6.0, gen.rng_for(seed, "sparse-3000")),
        gen.star(2000, gen.rng_for(seed, "star-2000")),
    ):
        text = g.text()
        order = oracles.least_first_order(g)
        reqs.append(_graph_request(
            ["search", "-"], g,
            oracles.exact(0, lambda g=g: " ".join(map(str, oracles.least_first_order(g))) + "\n"),
            text,
        ))
        reqs.append(_graph_request(
            ["tree", "-", "--traversal"], g,
            lambda code, out, err, g=g: (
                f"exit {code}" if code != 0 else oracles.check_tree(g, oracles.least_first_order(g), out)
            ),
            text,
        ))
        reqs.append(_graph_request(
            ["check", "-", "--kind", "traversal", "--order", *map(str, order)], g,
            oracles.exact(0, "traversal: PASS\n"),
            text,
        ))
    big = gen.sparse_connected(20_000, 6.0, gen.rng_for(seed, "sparse-20000"))
    text = big.text()
    reqs.append(_graph_request(
        ["bfs", "-"], big,
        oracles.exact(0, lambda: " ".join(map(str, oracles.bfs_queue(big)[0])) + "\n"),
        text,
    ))
    reqs.append(_graph_request(
        ["tree", "-", "--bfs"], big,
        lambda code, out, err: (
            f"exit {code}" if code != 0 else oracles.check_tree(big, oracles.bfs_queue(big)[0], out)
        ),
        text,
    ))
    reqs.append(Request(
        ["witness", "--m", "3", "--n", "0", "--k", "40", "--verify"], None,
        oracles.witness_verified(3, 0, 40),
    ))
    n = 2000
    reqs.append(Request(
        ["random", "--n", str(n), "--density", "0.001", "--seed", str(gen.rng_for(seed, "random").randrange(10**6))],
        None,
        lambda code, out, err: f"exit {code}" if code != 0 else oracles.check_random_graph(n, out),
    ))
    return reqs


def trace_medium(seed: int) -> list[Request]:
    """Explaining requests on moderate sparse graphs: per-stage frontier and
    queue output and CLI formatting dominate; parsing is negligible."""
    reqs: list[Request] = []
    for i in range(2):
        g = gen.sparse_connected(2000, 6.0, gen.rng_for(seed, f"explain-2000-{i}"))
        text = g.text()
        reqs.append(_graph_request(
            ["search", "-", "--trace"], g,
            oracles.exact(0, lambda g=g: oracles.least_first_trace(g)), text,
        ))
        reqs.append(_graph_request(
            ["bfs", "-", "--trace"], g,
            oracles.exact(0, lambda g=g: oracles.bfs_trace(g)), text,
        ))
        reqs.append(_graph_request(
            ["tree", "-", "--traversal", "--dot"], g,
            lambda code, out, err, g=g: (
                f"exit {code}" if code != 0 else oracles.check_tree_dot(g, oracles.least_first_order(g), out)
            ),
            text,
        ))
    for i in range(2):
        # alt is O(n * (n + m)) by design, hence the smaller graphs.
        g = gen.sparse_connected(1000, 6.0, gen.rng_for(seed, f"alt-1000-{i}"))
        reqs.append(_graph_request(
            ["alt", "-", "--stats"], g,
            lambda code, out, err, g=g: _check_alt(g, code, out),
        ))
    return reqs


def _check_alt(g: gen.Graph, code, out) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    lines = out.splitlines()
    if len(lines) != 3 or lines[0] != " ".join(map(str, oracles.least_first_order(g))):
        return "order differs from the least-first order"
    if not (lines[1].startswith("splits: ") and lines[2].startswith("scanned: ")):
        return "missing work counters"
    return None


def _witness_grid():
    """The acceptance suite's in-envelope grid: 236 builds."""
    for m in range(3):
        for n in range(4):
            if m + n:
                for k in range(1, 21):
                    yield m, n, k
    for n in range(2):
        for k in range(1, 9):
            yield 3, n, k


# Graphs per vertex count: the n = 7 enumerations are the exponential tail,
# so they are few enough that a pass stays a few seconds long.
SMALL_GRAPHS = {4: 25, 5: 25, 6: 20, 7: 8}
ZETA_REQUESTS = 220
DEEP_TOWER = 2000


def verify_small(seed: int) -> list[Request]:
    """Short verdict requests: enumeration, the predicates, the witness
    builder and the ordinal layer do the work; search and graph appear only as
    per-call overhead on tiny graphs."""
    rng = gen.rng_for(seed, "verify-small")
    reqs: list[Request] = []
    # A fixed number of graphs per (n, extra edges) class keeps the mix of
    # cheap and exponential requests the same on every seed.
    for n, count in SMALL_GRAPHS.items():
        max_extra = (n - 1) * (n - 2) // 2
        for j in range(count):
            g = gen.small_connected(n, round(j * max_extra / (count - 1)), rng)
            text = g.text()
            for suite in ("lexmin", "colexmax", "stability", "identities"):
                argv = ["verify", "-", "--suite", suite]
                if suite == "stability":
                    argv += ["--seed", str(rng.randrange(1000))]
                reqs.append(_graph_request(argv, g, oracles.all_pass(suite, g), text))
            start = rng.randrange(n)
            for kind, start_arg in (("all", None), ("bfs", start), ("dfs", None)):
                argv = ["enumerate", "-", "--kind", kind]
                if start_arg is not None:
                    argv += ["--start", str(start_arg)]
                reqs.append(_graph_request(
                    argv, g,
                    oracles.exact(0, lambda g=g, kind=kind, s=start_arg: "".join(
                        " ".join(map(str, o)) + "\n" for o in oracles.traversals(g, kind, s)
                    )),
                    text,
                ))
    for m, n, k in _witness_grid():
        reqs.append(Request(
            ["witness", "--m", str(m), "--n", str(n), "--k", str(k), "--verify"], None,
            oracles.witness_verified(m, n, k),
        ))
    for _ in range(ZETA_REQUESTS):
        a = gen.random_ordinal(rng, rng.randint(1, 3))
        reqs.append(Request(
            ["zeta", gen.ordinal_text(a)], None,
            oracles.exact(0, gen.ordinal_text(oracles.zeta(a)) + "\n"),
        ))
    commands = (["search", "-"], ["bfs", "-"], ["tree", "-", "--traversal"],
                ["enumerate", "-", "--kind", "all"], ["verify", "-", "--suite", "lexmin"],
                ["alt", "-"])
    for i in range(12):
        reqs.append(Request(
            commands[i % len(commands)], gen.malformed_graph_text(rng), oracles.usage_error, probe=True,
        ))
    for _ in range(4):
        reqs.append(Request(
            ["zeta", gen.deep_tower_text(DEEP_TOWER)], None, _deep_tower_check, probe=True,
        ))
    rng.shuffle(reqs)
    return reqs


def _deep_tower_check(code, out, err) -> str | None:
    # zeta(w^X) = w^(w^X) for infinite X, so the answer is one level deeper;
    # refusing the input with exit 2 is also within the contract.
    if code == 2:
        return oracles.usage_error(code, out, err)
    expected = "w^(" * DEEP_TOWER + "w^w" + ")" * DEEP_TOWER + "\n"
    return oracles.exact(0, expected)(code, out, err)


WORKLOADS = {
    "traverse-large": traverse_large,
    "trace-medium": trace_medium,
    "verify-small": verify_small,
}

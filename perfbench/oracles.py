"""Independent references for every request the benchmark sends.

Nothing here imports ordsearch: each oracle works from the generator's own
records (``gen.Graph`` and tuple ordinals) and from the documented output
formats.  A check returns ``None`` when the response is right and a short
reason otherwise.  Expensive references are cached on the generated input,
so a request repeated in later passes costs only the comparison.
"""

from __future__ import annotations

import heapq
import re
from typing import Callable

import gen

_VERDICT = re.compile(r"^[a-z][a-z-]*: (PASS|FAIL)( \[.*\])?$")


# -- graph references ----------------------------------------------------------


def adjacency(g: gen.Graph) -> list[list[int]]:
    """Ascending neighbour lists."""
    if "adj" not in g.cache:
        adj: list[list[int]] = [[] for _ in range(g.n)]
        for u, v in g.edges:
            adj[u].append(v)
            adj[v].append(u)
        for ns in adj:
            ns.sort()
        g.cache["adj"] = adj
    return g.cache["adj"]


def least_first_order(g: gen.Graph, start: int = 0) -> list[int]:
    """Always visit the least vertex adjacent to the visited set."""
    key = ("lex", start)
    if key not in g.cache:
        adj = adjacency(g)
        seen = bytearray(g.n)
        seen[start] = 1
        heap = [start]
        order = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    heapq.heappush(heap, w)
        g.cache[key] = order
    return g.cache[key]


def least_first_trace(g: gen.Graph, start: int = 0) -> str:
    """Expected ``search --trace`` text: the order, then the sorted frontier
    before each pick."""
    key = ("lex-trace", start)
    if key not in g.cache:
        order = least_first_order(g, start)
        adj = adjacency(g)
        lines = [" ".join(map(str, order)), f"stage 0: pick {start} from {{{start}}}"]
        frontier: set[int] = set()
        placed = bytearray(g.n)
        placed[start] = 1
        frontier.update(adj[start])
        for i, v in enumerate(order[1:], start=1):
            lines.append(f"stage {i}: pick {v} from {{{' '.join(map(str, sorted(frontier)))}}}")
            frontier.discard(v)
            placed[v] = 1
            frontier.update(w for w in adj[v] if not placed[w])
        g.cache[key] = "\n".join(lines) + "\n"
    return g.cache[key]


def bfs_queue(g: gen.Graph, start: int = 0) -> tuple[list[int], list[int]]:
    """Queue order with ascending neighbours, and the queue length when each
    queued vertex is processed."""
    key = ("bfs", start)
    if key not in g.cache:
        adj = adjacency(g)
        queue = [start]
        seen = bytearray(g.n)
        seen[start] = 1
        lengths = []
        for q in queue:
            lengths.append(len(queue))
            for w in adj[q]:
                if not seen[w]:
                    seen[w] = 1
                    queue.append(w)
        g.cache[key] = (queue, lengths)
    return g.cache[key]


def bfs_trace(g: gen.Graph, start: int = 0) -> str:
    """Expected ``bfs --trace`` text."""
    key = ("bfs-trace", start)
    if key not in g.cache:
        queue, lengths = bfs_queue(g, start)
        lines = [" ".join(map(str, queue))]
        for alpha, qlen in enumerate(lengths):
            lines.append(
                f"stage {alpha}: B={alpha} Q=({' '.join(map(str, queue[:qlen]))}) q={queue[alpha]}"
            )
        g.cache[key] = "\n".join(lines) + "\n"
    return g.cache[key]


def least_neighbour_tree(g: gen.Graph, order: list[int]) -> set[tuple[int, int]]:
    """Edges joining each non-first vertex to its neighbour earliest in the
    order."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    adj = adjacency(g)
    return {
        (min(v, p), max(v, p))
        for v in range(g.n)
        if v != order[0]
        for p in [min(adj[v], key=pos.__getitem__)]
    }


def _parse_line_format(text: str) -> tuple[int, list[tuple[int, int]]] | str:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("n "):
        return "missing vertex count line"
    try:
        n = int(lines[0][2:])
        edges = []
        for line in lines[1:]:
            tag, u, v = line.split()
            if tag != "e":
                return f"unexpected line {line!r}"
            edges.append((int(u), int(v)))
    except ValueError:
        return "malformed line"
    return n, edges


def check_tree(g: gen.Graph, order: list[int], out: str) -> str | None:
    """``tree`` output must be the least-neighbour spanning tree, in the
    canonical line format."""
    parsed = _parse_line_format(out)
    if isinstance(parsed, str):
        return parsed
    n, edges = parsed
    if n != g.n:
        return f"vertex count {n} != {g.n}"
    if any(u >= v for u, v in edges) or edges != sorted(edges):
        return "edges not canonical"
    if set(edges) != least_neighbour_tree(g, order) or len(edges) != g.n - 1:
        return "not the least-neighbour spanning tree"
    return None


_DOT_VERTEX = re.compile(r'^  (\d+) \[label="(\d+) \(pos (\d+)\)"\];$')
_DOT_EDGE = re.compile(r"^  (\d+) -- (\d+);$")


def check_tree_dot(g: gen.Graph, order: list[int], out: str) -> str | None:
    """``tree --dot``: every vertex labelled with its position in the order,
    and the least-neighbour spanning tree as the edge list."""
    lines = out.splitlines()
    if not lines or lines[0] != "graph ordered {" or lines[-1] != "}":
        return "not a DOT graph"
    pos = {}
    edges = set()
    for line in lines[1:-1]:
        m = _DOT_VERTEX.match(line)
        if m:
            if m.group(1) != m.group(2):
                return f"bad label {line!r}"
            pos[int(m.group(1))] = int(m.group(3))
            continue
        m = _DOT_EDGE.match(line)
        if not m:
            return f"unexpected line {line!r}"
        edges.add((int(m.group(1)), int(m.group(2))))
    if pos != {v: i for i, v in enumerate(order)}:
        return "positions differ from the least-first order"
    if edges != least_neighbour_tree(g, order):
        return "not the least-neighbour spanning tree"
    return None


def check_random_graph(n: int, out: str) -> str | None:
    """``random``: a connected graph on n vertices in canonical form."""
    parsed = _parse_line_format(out)
    if isinstance(parsed, str):
        return parsed
    count, edges = parsed
    if count != n:
        return f"vertex count {count} != {n}"
    if any(not 0 <= u < v < n for u, v in edges) or edges != sorted(set(edges)):
        return "edges not canonical"
    g = gen.Graph(n, edges)
    if len(least_first_order(g)) != n:
        return "not connected"
    return None


# -- small-graph enumeration (pruned permutation filter) ------------------------


def traversals(g: gen.Graph, kind: str, start: int | None) -> list[tuple[int, ...]]:
    """All orders of ``kind`` ("all", "bfs" or "dfs"), in lexicographic
    order.  An order is a traversal when each vertex after the first has an
    earlier neighbour; breadth-first and depth-first orders are traversals
    meeting the three-vertex conditions of Corneil & Krueger: for positions
    a < b < c with a~c and not a~b, some d < a (breadth-first) or a < d < b
    (depth-first) has d~b.  Every triple is tested when its last vertex is
    placed, so pruning on prefixes is exact."""
    key = ("orders", kind, start)
    if key in g.cache:
        return g.cache[key]
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    order: list[int] = []
    masks = [0]  # masks[i] = set of the first i vertices of the order
    found: list[tuple[int, ...]] = []

    def triples_ok(c: int) -> bool:
        k = len(order) - 1
        for a in range(k):
            u = order[a]
            if not adj[u] >> c & 1:
                continue
            for b in range(a + 1, k):
                v = order[b]
                if adj[u] >> v & 1:
                    continue
                if kind == "bfs":
                    allowed = masks[a]
                else:
                    allowed = masks[b] & ~masks[a + 1]
                if not adj[v] & allowed:
                    return False
        return True

    def extend() -> None:
        if len(order) == n:
            found.append(tuple(order))
            return
        placed = masks[-1]
        for c in range(n):
            if placed >> c & 1 or not adj[c] & placed:
                continue
            order.append(c)
            masks.append(placed | 1 << c)
            if kind == "all" or triples_ok(c):
                extend()
            order.pop()
            masks.pop()

    for s in [start] if start is not None else range(n):
        order.append(s)
        masks.append(1 << s)
        extend()
        order.pop()
        masks.pop()
    found.sort()
    g.cache[key] = found
    return found


# -- ordinals --------------------------------------------------------------------


def zeta(a: tuple) -> tuple:
    """w^b * (n+1) for infinite a = w*b + n; finite a is fixed."""
    if gen.is_finite(a):
        return a
    terms = list(a)
    n = terms.pop()[1] if terms[-1][0] == gen.ZERO else 0
    b = tuple(
        (gen.finite(e[0][1] - 1) if gen.is_finite(e) else e, c) for e, c in terms
    )
    return ((b, n + 1),)


def witness_size(m: int, n: int, k: int) -> int:
    """Vertex count of the truncated witness, from the construction's
    recursive description."""
    if m == 0:
        return n + 1
    if m == 1 and n == 0:
        return k
    if n > 0:
        return (n + 1) * (witness_size(m, 0, k) + 1)
    return k * (witness_size(m - 1, 0, k) + 1)


def witness_header(m: int, n: int, k: int) -> str:
    alpha = gen.finite(n + 1) if m == 0 else tuple(
        t for t in ((gen.ONE, m), (gen.ZERO, n)) if t[1]
    )
    return (
        f"witness m={m} n={n} k={k} alpha={gen.ordinal_text(alpha)} "
        f"zeta={gen.ordinal_text(zeta(alpha))}"
    )


# -- response checks ---------------------------------------------------------------


def exact(expected_code: int, expected_out) -> Callable:
    """The response must have this exit code and exactly this stdout;
    ``expected_out`` may be a callable made lazily."""

    def check(code, out, err):
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        want = expected_out() if callable(expected_out) else expected_out
        if out != want:
            return "output differs from the reference"
        return None

    return check


SUITE_VERDICTS = {
    "lexmin": ("lex-min-traversal", "lex-min-breadth-first"),
    "colexmax": ("colex-max-inverse",),
    "stability": ("subset-stability", "quotient-stability-singletons", "quotient-stability-whole"),
    "identities": (
        "search-fixes-traversals",
        "idempotent",
        "bfs-fixed-by-search",
        "search-tree-retraversal",
        "bfs-tree-retraversal",
    ),
}
WITNESS_VERDICTS = ("predicted-traversal", "block-intervals", "quotient-stability", "zeta-profile")


def _verdicts_pass(lines, names) -> str | None:
    found = []
    for line in lines:
        m = _VERDICT.match(line)
        if m:
            if m.group(1) != "PASS":
                return f"verdict {line!r}"
            found.append(line.split(":")[0])
    return None if tuple(found) == names else f"verdicts {found} != {list(names)}"


def bfs_after_search(g: gen.Graph) -> bool:
    """Whether breadth-first search on the graph renumbered along the
    least-first order, mapped back, equals breadth-first search on g."""
    tau = least_first_order(g)
    new_index = [0] * g.n
    for i, v in enumerate(tau):
        new_index[v] = i
    renumbered = gen.Graph(g.n, [(new_index[u], new_index[v]) for u, v in g.edges])
    return [tau[v] for v in bfs_queue(renumbered)[0]] == bfs_queue(g)[0]


def all_pass(suite: str, g: gen.Graph) -> Callable:
    """``verify --suite``: exit 0, the suite's verdicts in order, each PASS;
    the identities suite ends with its bfs-after-search note."""
    names = SUITE_VERDICTS[suite]

    def check(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        lines = out.splitlines()
        if suite == "identities":
            note = f"note: bfs-after-search equals bfs on this input: {'yes' if bfs_after_search(g) else 'no'}"
            if not lines or lines.pop() != note:
                return "missing or wrong bfs-after-search note"
        stray = [x for x in lines if not _VERDICT.match(x)]
        if stray:
            return f"unexpected line {stray[0]!r}"
        return _verdicts_pass(lines, names)

    return check


def usage_error(code, out, err) -> str | None:
    """Bad input: exit 2, nothing on stdout, an error message on stderr."""
    if code != 2:
        return f"exit {code}, expected 2"
    if out or not err.startswith("error:"):
        return "bad input was not reported as an error"
    return None


def witness_verified(m: int, n: int, k: int) -> Callable:
    """``witness --verify``: the header from the oracle's formulas, the
    predicted traversal equal to the least-first order of the printed graph,
    and every verdict PASS with exit 0."""

    def check(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        lines = out.splitlines()
        if not lines or lines[0] != witness_header(m, n, k):
            return "header differs from the oracle's formulas"
        size = witness_size(m, n, k)
        edges = []
        predicted = None
        verdict_lines = []
        for line in lines[1:]:
            if line.startswith("e "):
                _, u, v = line.split()
                edges.append((int(u), int(v)))
            elif line.startswith("predicted: "):
                predicted = list(map(int, line[11:].split()))
            elif _VERDICT.match(line):
                verdict_lines.append(line)
        if f"n {size}" not in lines:
            return f"vertex count line is not 'n {size}'"
        if predicted != least_first_order(gen.Graph(size, edges)):
            return "predicted traversal is not the least-first order"
        return _verdicts_pass(verdict_lines, WITNESS_VERDICTS)

    return check

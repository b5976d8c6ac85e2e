"""Finite undirected graphs whose vertex numbering is the input order.

Vertices are the integers 0..vertex_count-1 and the numeric order on indices
is the order every search in this package consults.  Any other vertex order
is expressed by relabeling the graph along a permutation.  Graphs are
immutable and canonical: edges are stored sorted with each pair normalized,
so structural equality is plain equality.

The text format is line based: ``n <count>`` first, then ``e <u> <v>`` lines,
``#`` starts a comment, blank lines are ignored.  DOT export is one way and
can annotate vertices with their position in a traversal.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

Traversal = tuple[int, ...]
"""A sequence listing every vertex exactly once, read as a vertex order."""

MAX_VERTICES = 1_000_000
"""The largest vertex count ``deserialize`` accepts.  Searches allocate per
vertex, so a header alone must not be able to ask for gigabytes; the bound
lies five times above the largest graphs the package is measured on."""


class GraphFormatError(ValueError):
    """Malformed graph text; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedGraphError(ValueError):
    """Search was asked to traverse a graph with an unreachable vertex."""

    def __init__(self, vertex: int, start: int):
        super().__init__(f"vertex {vertex} is unreachable from {start}")
        self.vertex = vertex
        self.start = start


@dataclass(frozen=True)
class OrderedGraph:
    """An undirected graph on vertices 0..vertex_count-1.

    Edges may be given in any order and orientation; they are normalized to
    (min, max), deduplicated and sorted.  Self-loops and out-of-range
    endpoints are rejected.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            seen.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor tuples in ascending input order, indexed by vertex."""
        lists: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in lists)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range")
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


def reach(g: OrderedGraph, start: int, marks: bytearray | None = None) -> bytearray:
    """Mark ``start`` and every vertex reachable from it through unmarked
    vertices; returns ``marks``, one byte per vertex (fresh when omitted).

    Vertices marked beforehand are walls: the search neither enters nor
    passes them, so pre-marking restricts it to the rest of the graph.
    Iterative depth-first search, O(n + m).
    """
    if marks is None:
        marks = bytearray(g.vertex_count)
    adjacency = g.adjacency
    marks[start] = 1
    stack = [start]
    while stack:
        for v in adjacency[stack.pop()]:
            if not marks[v]:
                marks[v] = 1
                stack.append(v)
    return marks


def is_connected(g: OrderedGraph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    if g.vertex_count == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    return 0 not in reach(g, 0)


def induced_subgraph(g: OrderedGraph, w: Iterable[int]) -> tuple[OrderedGraph, tuple[int, ...]]:
    """Subgraph induced by the vertex set w, relabeled order-preservingly
    onto 0..len(w)-1.

    Returns the subgraph and the sorted vertex tuple; entry i of the tuple is
    the original vertex that became vertex i.
    """
    kept = sorted(set(w))
    if not kept:
        raise ValueError("cannot induce a subgraph on the empty set")
    if kept[0] < 0 or kept[-1] >= g.vertex_count:
        raise ValueError("vertex set out of range")
    index = {v: i for i, v in enumerate(kept)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    ]
    return OrderedGraph(len(kept), tuple(edges)), tuple(kept)


def is_permutation(order: Sequence[int], n: int) -> bool:
    return len(order) == n and sorted(order) == list(range(n))


def invert_permutation(order: Sequence[int]) -> tuple[int, ...]:
    """positions[v] = index of v in order."""
    positions = [0] * len(order)
    for i, v in enumerate(order):
        positions[v] = i
    return tuple(positions)


def relabel(g: OrderedGraph, order: Sequence[int]) -> OrderedGraph:
    """Make the vertex listed at position i of ``order`` the new vertex i."""
    if not is_permutation(order, g.vertex_count):
        raise ValueError("relabeling order must be a permutation of the vertices")
    new_index = invert_permutation(order)
    return OrderedGraph(
        g.vertex_count,
        tuple((new_index[u], new_index[v]) for u, v in g.edges),
    )


def random_connected_graph(n: int, density: float, seed: int) -> OrderedGraph:
    """Seeded connected graph: a uniform random spanning tree plus every
    remaining pair independently with the given probability.

    Identical arguments always produce the identical graph.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = random.Random(seed)
    edges = set(_uniform_spanning_tree(n, rng))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < density:
                edges.add((u, v))
    return OrderedGraph(n, tuple(edges))


def _uniform_spanning_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    # Decode a uniform random Pruefer sequence; uniform over labeled trees.
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def serialize(g: OrderedGraph) -> str:
    lines = [f"n {g.vertex_count}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _numeral(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError as exc:  # a literal beyond Python's digit limit
        raise GraphFormatError(f"unreadable number: {exc}", lineno) from None


def deserialize(text: str) -> OrderedGraph:
    """Parse the line-based graph format, reporting errors with line numbers."""
    vertex_count = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "n":
            if vertex_count is not None:
                raise GraphFormatError("duplicate vertex count line", lineno)
            if len(fields) != 2 or not fields[1].isdecimal():
                raise GraphFormatError("expected 'n <count>'", lineno)
            vertex_count = _numeral(fields[1], lineno)
            if vertex_count > MAX_VERTICES:
                raise GraphFormatError(
                    f"vertex count {vertex_count} exceeds the limit of {MAX_VERTICES}", lineno
                )
        elif fields[0] == "e":
            if vertex_count is None:
                raise GraphFormatError("edge before vertex count line", lineno)
            if len(fields) != 3 or not fields[1].isdecimal() or not fields[2].isdecimal():
                raise GraphFormatError("expected 'e <u> <v>'", lineno)
            u, v = _numeral(fields[1], lineno), _numeral(fields[2], lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            if u >= vertex_count or v >= vertex_count:
                raise GraphFormatError(f"endpoint out of range in ({u}, {v})", lineno)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({key[0]}, {key[1]})", lineno)
            seen.add(key)
            edges.append(key)
        else:
            raise GraphFormatError(f"unknown directive {fields[0]!r}", lineno)
    if vertex_count is None:
        raise GraphFormatError("missing vertex count line", len(text.splitlines()) or 1)
    return OrderedGraph(vertex_count, tuple(edges))


def dot_export(g: OrderedGraph, traversal: Sequence[int] | None = None) -> str:
    """DOT text; with a traversal, each vertex label carries its position."""
    if traversal is not None and not is_permutation(traversal, g.vertex_count):
        raise ValueError("traversal must be a permutation of the vertices")
    lines = ["graph ordered {"]
    if traversal is not None:
        positions = invert_permutation(traversal)
        for v in range(g.vertex_count):
            lines.append(f'  {v} [label="{v} (pos {positions[v]})"];')
    else:
        for v in range(g.vertex_count):
            lines.append(f"  {v};")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"

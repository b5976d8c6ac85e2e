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
import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Sequence

Traversal = tuple[int, ...]
"""A sequence listing every vertex exactly once, read as a vertex order."""

MAX_VERTICES = 1_000_000
"""The largest vertex count ``deserialize`` and ``random_connected_graph``
accept.  Searches allocate per vertex, so a header alone must not be able to
ask for gigabytes.  Witness builds are bounded by their envelope instead
(``witness.MAX_M``, ``MAX_N``, ``MAX_K``): the largest has 1,864,135
vertices, 1.86 times this bound."""

MAX_RANDOM_EDGES = 1_000_000
"""The largest expected number of random pairs, density * n * (n - 1) / 2,
that ``random_connected_graph`` accepts.  With the spanning tree's n - 1
edges a generated graph then has at most about two million edges."""


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


class NotATraversalError(ValueError):
    """A permutation of the vertices that is not a traversal: some vertex
    after the first has no earlier neighbor, so the prefix it ends is
    disconnected.  An order that is not a permutation gets a plain
    ``ValueError`` instead."""

    def __init__(self):
        super().__init__("order is not a traversal of the graph")


@dataclass(frozen=True)
class OrderedGraph:
    """An undirected graph on vertices 0..vertex_count-1.

    Edges may be given in any order and orientation; they are normalized to
    (min, max), deduplicated and sorted.  Self-loops and out-of-range
    endpoints are rejected.  The constructor checks and sorts every edge, in
    O(m log m); the package's own builders, which produce canonical edges
    already, skip that pass through the trusted ``_canonical``.
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

    @classmethod
    def _canonical(cls, vertex_count: int, edges: tuple[tuple[int, int], ...]) -> OrderedGraph:
        # Trusted constructor: edges already (min, max), in range, without
        # duplicates, sorted.
        self = object.__new__(cls)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        return self

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor tuples in ascending input order, indexed by vertex.

        The edges are sorted by (min, max), so v's smaller neighbors arrive
        first, in ascending order, then its larger ones: no list needs a
        sort, and the index costs O(n + m)."""
        lists: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return tuple(map(tuple, lists))


def reach(g: OrderedGraph, start: int) -> bytearray:
    """One byte per vertex, set for ``start`` and every vertex reachable
    from it.  Iterative depth-first search, O(n + m)."""
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
    # The renumbering keeps the vertex order, so the kept edges stay
    # canonical and in sorted order.
    edges = tuple(
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    )
    return OrderedGraph._canonical(len(kept), edges), tuple(kept)


def is_permutation(order: Sequence[int], n: int) -> bool:
    return len(order) == n and sorted(order) == list(range(n))


def _require_order(g: OrderedGraph, order: Sequence[int]) -> None:
    """Raise the ``ValueError`` every traversal check gives for an order that
    is not a permutation of g's vertices, and for the empty graph."""
    if not is_permutation(order, g.vertex_count):
        raise ValueError("order must be a permutation of the vertices")
    if g.vertex_count == 0:
        raise ValueError("no traversals of the empty graph")


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
    edges = []
    for u, v in g.edges:
        a, b = new_index[u], new_index[v]
        edges.append((a, b) if a < b else (b, a))
    edges.sort()
    return OrderedGraph._canonical(g.vertex_count, tuple(edges))


def random_connected_graph(n: int, density: float, seed: int) -> OrderedGraph:
    """Seeded connected graph: a uniform random spanning tree plus every
    remaining pair independently with the given probability.

    Identical arguments always produce the identical graph.  The pairs are
    drawn by geometric skipping (Batagelj and Brandes, Phys. Rev. E 71,
    036113, 2005), so the run takes O(n log n + m log m) time, not a coin
    per pair.  More than ``MAX_VERTICES`` vertices, or an expected edge
    count above ``MAX_RANDOM_EDGES``, is refused with ``ValueError`` before
    anything is built.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    pair_count = n * (n - 1) // 2
    if density * pair_count > MAX_RANDOM_EDGES:
        raise ValueError(
            f"expected edge count {density * pair_count:.0f} exceeds the limit of {MAX_RANDOM_EDGES}"
        )
    rng = random.Random(seed)
    edges = set(_uniform_spanning_tree(n, rng))
    edges.update(_decode_pairs(n, _pair_indices(pair_count, density, rng)))
    return OrderedGraph._canonical(n, tuple(sorted(edges)))


def _pair_indices(count: int, density: float, rng: random.Random) -> Iterator[int]:
    """Ascending indices in range(count), each kept independently with
    probability ``density``.  The gap before the next kept index is
    geometric, P(gap >= k) = (1 - density)^k, so it is drawn by inversion
    from one uniform variate per kept index."""
    if density == 1:
        yield from range(count)
        return
    # log1p keeps log(1 - density) nonzero for subnormal densities; the gap
    # stays a float until it is known to land in range, since it can be inf.
    log_keep = math.log1p(-density)
    i = -1
    while True:
        gap = math.log(1.0 - rng.random()) / log_keep
        if gap >= count - 1 - i:
            return
        i += 1 + int(gap)
        yield i


def _decode_pairs(n: int, indices: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The pairs (u, v), u < v < n, at ascending indices into the pairs in
    lexicographic order; walks the rows once, O(n + len(indices))."""
    u, row_start, row_end = 0, 0, n - 1
    for i in indices:
        while i >= row_end:
            u += 1
            row_start, row_end = row_end, row_end + n - 1 - u
        yield u, u + 1 + i - row_start


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


def deserialize(text: str) -> OrderedGraph:
    """Parse the line-based graph format, reporting errors with line numbers.

    Each edge is checked once, as its line is read, and stored as the
    number u * n + v of its normalized pair (u, v), u < v; one sort of those
    numbers then puts the edges in canonical order, so the parse costs
    O(m log m) and the graph is built without a second check."""
    vertex_count = None
    seen: set[int] = set()
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields:
            continue
        head = fields[0]
        if head == "e":
            if vertex_count is None:
                raise GraphFormatError("edge before vertex count line", lineno)
            if len(fields) != 3 or not fields[1].isdecimal() or not fields[2].isdecimal():
                raise GraphFormatError("expected 'e <u> <v>'", lineno)
            try:
                u = int(fields[1])
                v = int(fields[2])
            except ValueError as exc:  # a literal beyond Python's digit limit
                raise GraphFormatError(f"unreadable number: {exc}", lineno) from None
            if u < v:
                if v >= vertex_count:
                    raise GraphFormatError(f"endpoint out of range in ({u}, {v})", lineno)
                key = u * vertex_count + v
            elif v < u:
                if u >= vertex_count:
                    raise GraphFormatError(f"endpoint out of range in ({u}, {v})", lineno)
                key = v * vertex_count + u
            else:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            if key in seen:
                lo, hi = divmod(key, vertex_count)
                raise GraphFormatError(f"duplicate edge ({lo}, {hi})", lineno)
            seen.add(key)
        elif head == "n":
            if vertex_count is not None:
                raise GraphFormatError("duplicate vertex count line", lineno)
            if len(fields) != 2 or not fields[1].isdecimal():
                raise GraphFormatError("expected 'n <count>'", lineno)
            try:
                vertex_count = int(fields[1])
            except ValueError as exc:
                raise GraphFormatError(f"unreadable number: {exc}", lineno) from None
            if vertex_count > MAX_VERTICES:
                raise GraphFormatError(
                    f"vertex count {vertex_count} exceeds the limit of {MAX_VERTICES}", lineno
                )
        elif head[0] != "#":
            raise GraphFormatError(f"unknown directive {head!r}", lineno)
    if vertex_count is None:
        raise GraphFormatError("missing vertex count line", len(lines) or 1)
    keys = sorted(seen)
    del seen, lines
    return OrderedGraph._canonical(vertex_count, tuple(map(divmod, keys, repeat(vertex_count))))


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

"""Finite undirected graphs whose vertex numbering is the input order.

Vertices are the integers 0..vertex_count-1 and the numeric order on indices
is the order every search in this package consults.  Any other vertex order
is expressed by relabeling the graph along a permutation.  Graphs are
immutable and canonical: ``edges`` reads as the normalized pairs, sorted,
so structural equality is plain equality.  A graph stores one of two forms
and derives the other on first use.  The checking constructor and the
package's builders store the edges; ``deserialize`` stores the adjacency
index, which is what every search reads.

The text format is line based: ``n <count>`` first, then ``e <u> <v>`` lines,
``#`` starts a comment, blank lines are ignored.  Lines break at ``"\n"``,
``"\r\n"`` and ``"\r"``, as universal-newline reading breaks them, and
nowhere else.  DOT export is one way and
can annotate vertices with their position in a traversal.  Both writers
yield pieces of whole ``"\n"``-terminated lines as they are asked for, so
writing a graph holds no copy of its text: ``dot_export`` one line a piece,
``serialize``, the one writer of the line format, ``EDGES_PER_PIECE`` edge
lines a piece.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from operator import eq
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

EDGES_PER_PIECE = 2048
"""The most edge lines ``serialize`` makes with one format: a piece of a few
tens of KB, written with one ``write`` rather than one per line."""


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


class _DerivedEdges:
    """The class attribute behind ``OrderedGraph.edges``.  On the class it
    reads as the field's default, ``()``.  A graph that stores its edges
    shadows it; on one that stores only its adjacency index it derives the
    edges in canonical order, each vertex's larger neighbors in turn, in
    O(n + m), and stores them."""

    def __get__(self, g, owner=None):
        if g is None:
            return ()
        edges = tuple(
            chain.from_iterable(
                zip(repeat(u), nbs[bisect_right(nbs, u) :]) for u, nbs in enumerate(g.adjacency)
            )
        )
        object.__setattr__(g, "edges", edges)
        return edges


@dataclass(frozen=True)
class OrderedGraph:
    """An undirected graph on vertices 0..vertex_count-1.

    Edges may be given in any order and orientation; they are normalized to
    (min, max), deduplicated and sorted.  Self-loops and out-of-range
    endpoints are rejected.  The constructor checks and sorts every edge, in
    O(m log m), and stores them; ``adjacency`` is derived on first use.  Two
    trusted constructors skip that pass.  ``_canonical``, for the package's
    builders, stores edges that are canonical already.  ``_indexed``, for
    ``deserialize``, stores a checked adjacency index, and ``edges`` is then
    derived from it on first use.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = _DerivedEdges()

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

    @classmethod
    def _indexed(cls, vertex_count: int, adjacency: tuple[tuple[int, ...], ...]) -> OrderedGraph:
        # Trusted constructor: each neighbor tuple ascending, in range,
        # without repeats or self-loops, and u in v's tuple iff v in u's.
        self = object.__new__(cls)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "adjacency", adjacency)
        return self

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor tuples in ascending input order, indexed by vertex.

        The edges are sorted by (min, max), so v's smaller neighbors arrive
        first, in ascending order, then its larger ones: no list needs a
        sort, and the index costs O(n + m).  Each list is replaced by its
        tuple as that is made, so the lists and the tuples are never all
        held at once."""
        lists: list = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        for v, nbs in enumerate(lists):
            lists[v] = tuple(nbs)
        return tuple(lists)


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
    """True iff the order lists each of 0..n-1 once; compares its sorted
    copy with ``range(n)`` without building the range as a list."""
    return len(order) == n and all(map(eq, sorted(order), range(n)))


def _require_order(g: OrderedGraph, order: Sequence[int]) -> None:
    """Raise the ``ValueError`` every traversal check gives for an order that
    is not a permutation of g's vertices, and for the empty graph."""
    if not is_permutation(order, g.vertex_count):
        raise ValueError("order must be a permutation of the vertices")
    if g.vertex_count == 0:
        raise ValueError("no traversals of the empty graph")


def invert_permutation(order: Sequence[int]) -> list[int]:
    """positions[v] = index of v in order."""
    positions = [0] * len(order)
    for i, v in enumerate(order):
        positions[v] = i
    return positions


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


def serialize(g: OrderedGraph) -> Iterator[str]:
    """The graph's text in the line format: the ``n`` line, then pieces of
    at most ``EDGES_PER_PIECE`` edge lines."""
    yield f"n {g.vertex_count}\n"
    for i in range(0, len(g.edges), EDGES_PER_PIECE):
        piece = g.edges[i : i + EDGES_PER_PIECE]
        yield ("e %d %d\n" * len(piece)) % tuple(chain.from_iterable(piece))


def deserialize(text: str) -> OrderedGraph:
    """Parse the line-based graph format, reporting errors with line numbers.

    Lines break at ``"\n"``, ``"\r\n"`` and ``"\r"`` only.  The edge lines
    fill one neighbor list per vertex, and each list is sorted once and kept
    as the graph's adjacency index: O(n + m log Δ) time for maximum degree
    Δ, O(n + m) memory, and no edge tuple unless ``edges`` is read.  A
    repeated edge is found in the sorted lists, after the read.  Whatever
    the fault, the error names the first faulty line in text order: before
    a fault is reported, the lines above it are scanned for a repeat."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    try:
        vertex_count, lists = _neighbor_lists(lines)
    except GraphFormatError as fault:
        raise _first_repeat(islice(lines, fault.line - 1)) or fault from None
    if vertex_count is None:
        # The count splitlines() gives: a final line break ends no line.
        raise GraphFormatError("missing vertex count line", len(lines) - (lines[-1] == "") or 1)
    # The lines' memory goes to the tuples below; a repeat splits the text again.
    del lines
    if lists is None:
        return OrderedGraph._indexed(vertex_count, ((),) * vertex_count)
    repeated = False
    # Each list is replaced by its tuple as that is made, so the lists and
    # the tuples are never all held at once.
    for v, nbs in enumerate(lists):
        if len(nbs) > 1:
            nbs.sort()
            repeated = repeated or len(set(nbs)) < len(nbs)
        lists[v] = tuple(nbs)
    if repeated:
        raise _first_repeat(text.split("\n"))
    return OrderedGraph._indexed(vertex_count, tuple(lists))


def _neighbor_lists(lines: list[str]) -> tuple[int | None, list[list[int]] | None]:
    """The vertex count and the neighbor lists the lines give, each list in
    line order.  Every rule is checked, as each line is read, but the one
    against repeated edges.  The lists are made at the first edge line, so
    a header alone costs no more than the index of empty tuples it implies;
    they are None if there is none.  A per-vertex table gives each vertex
    one int object, which every list that holds the vertex shares."""
    vertex_count = lists = None
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields:
            continue
        head = fields[0]
        if head == "e":
            if lists is None:
                if vertex_count is None:
                    raise GraphFormatError("edge before vertex count line", lineno)
                lists = [[] for _ in range(vertex_count)]
                table = list(range(vertex_count))
            if len(fields) != 3 or not fields[1].isdecimal() or not fields[2].isdecimal():
                raise GraphFormatError("expected 'e <u> <v>'", lineno)
            try:
                u = int(fields[1])
                v = int(fields[2])
            except ValueError as exc:  # a literal beyond Python's digit limit
                raise GraphFormatError(f"unreadable number: {exc}", lineno) from None
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            if u >= vertex_count or v >= vertex_count:
                raise GraphFormatError(f"endpoint out of range in ({u}, {v})", lineno)
            lists[u].append(table[v])
            lists[v].append(table[u])
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
    return vertex_count, lists


def _first_repeat(lines: Iterable[str]) -> GraphFormatError | None:
    """The error for the first edge line that repeats an earlier one, in
    either orientation, or None.  Every edge line given has passed all the
    other checks."""
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if fields and fields[0] == "e":
            u, v = int(fields[1]), int(fields[2])
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                return GraphFormatError(f"duplicate edge {pair}", lineno)
            seen.add(pair)
    return None


def dot_export(g: OrderedGraph, traversal: Sequence[int] | None = None) -> Iterator[str]:
    """DOT text, one line at a time; with a traversal, each vertex label
    carries its position.  A traversal that is not a permutation raises
    ``ValueError`` here, before any line is made."""
    if traversal is None:
        vertices = map("  %d;\n".__mod__, range(g.vertex_count))
    elif is_permutation(traversal, g.vertex_count):
        vertices = (
            f'  {v} [label="{v} (pos {p})"];\n' for v, p in enumerate(invert_permutation(traversal))
        )
    else:
        raise ValueError("traversal must be a permutation of the vertices")
    return chain(("graph ordered {\n",), vertices, map("  %d -- %d;\n".__mod__, g.edges), ("}\n",))

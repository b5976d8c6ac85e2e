"""The three search algorithms and the traversal trees they induce.

``deterministic_search`` grows a visited set one vertex at a time, always
taking the numerically least vertex adjacent to the visited set.  It keeps
only the visit order; each stage's candidate frontier is derived from it on
demand, so a caller that wants no trace pays for none.  ``bfs_search`` is
the queue variant: when a vertex is processed its unseen neighbors are
appended to the queue in ascending order, and the queue itself, once
complete, is the visit order.  ``alt_search`` computes the same order as
``deterministic_search`` by a divide and conquer scheme: remove the greatest
remaining vertex, traverse the start's component, then traverse the rest
from that removed vertex.  The agreement of the two is a checked property,
not an assumption.

A traversal's least-neighbor map sends every vertex except the first to its
earliest neighbor in the order; symmetrizing it yields a spanning tree, and
re-running the matching search on that tree reproduces the traversal.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate
from typing import Iterator, Mapping, Sequence

from .graph import (
    DisconnectedGraphError,
    OrderedGraph,
    Traversal,
    invert_permutation,
    is_permutation,
    reach,
)


@dataclass(frozen=True)
class ChoiceStage:
    """One stage of deterministic search: the frontier and the pick."""

    chosen: int
    frontier: tuple[int, ...]


@dataclass(frozen=True)
class SearchTrace:
    """Deterministic search run.  Only the visit order is stored; the graph
    is kept (outside ``==`` and ``repr``) so that the per-stage frontiers and
    the least-neighbor map can be derived from the run on demand.

    Stage i of ``stages()`` picks visit_order[i]; the stage-0 frontier is
    the start vertex alone.  Each call of ``stages()`` or ``stage_lines()``
    replays the order, in time proportional to the total size of the
    frontiers.  The replay keeps each frontier vertex's decimal name beside
    it, so a trace line is one join over strings that already exist and the
    whole trace costs about one copy of its text.

    ``positions`` and ``least_neighbors`` are derived on first use and kept
    (outside ``==`` and ``repr``), so every verdict on one run shares them.
    """

    visit_order: Traversal
    graph: OrderedGraph = field(compare=False, repr=False)

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """positions[v] = index of v in the visit order."""
        return invert_permutation(self.visit_order)

    @cached_property
    def least_neighbors(self) -> LeastNeighborMap:
        """The least-neighbor map of the visit order."""
        return least_neighbor_map(self.graph, self.visit_order)

    def _frontiers(self) -> Iterator[tuple[list[int], list[str]]]:
        """The sorted frontier before each pick and its vertices' names, in
        the same order; the same two lists are yielded every stage, so copy
        them to keep them."""
        adjacency = self.graph.adjacency
        names = list(map(str, range(self.graph.vertex_count)))
        seen = bytearray(self.graph.vertex_count)
        start = self.visit_order[0]
        seen[start] = 1
        frontier = [start]
        frontier_names = [names[start]]
        for v in self.visit_order:
            yield frontier, frontier_names
            del frontier[0]
            del frontier_names[0]
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = 1
                    i = bisect_left(frontier, w)
                    frontier.insert(i, w)
                    frontier_names.insert(i, names[w])

    def stages(self) -> Iterator[ChoiceStage]:
        for v, (frontier, _) in zip(self.visit_order, self._frontiers()):
            yield ChoiceStage(v, tuple(frontier))

    def stage_lines(self) -> list[str]:
        # The pick is the least frontier vertex, so its name comes first.
        return [
            f"stage {i}: pick {names[0]} from {{{' '.join(names)}}}"
            for i, (_, names) in enumerate(self._frontiers())
        ]


@dataclass(frozen=True)
class BfsStage:
    """One stage of breadth-first search: processed-prefix length, the queue
    so far, and the vertex being processed."""

    prefix_len: int
    queue: tuple[int, ...]
    q: int


@dataclass(frozen=True)
class BfsTrace:
    """Breadth-first run.  The queue only ever grows at the end, so each
    stage's queue is a prefix of the final one; storing the visit order (the
    final queue) plus the queue length at each stage captures every stage.

    ``stage_lines()`` prints the sum of the queue lengths in entries, which
    is quadratic in n in the worst case (a star).  It names the vertices and
    joins them once, and slices each stage's queue from that one string, so
    the trace costs about one copy of its text.
    """

    visit_order: Traversal
    queue_lengths: tuple[int, ...]

    def stages(self) -> Iterator[BfsStage]:
        for alpha, qlen in enumerate(self.queue_lengths):
            yield BfsStage(alpha, self.visit_order[:qlen], self.visit_order[alpha])

    def stage_lines(self) -> list[str]:
        names = list(map(str, self.visit_order))
        joined = " ".join(names)
        # ends[k] is the offset just past the separator after the k-th name,
        # so the first k names, space separated, are joined[:ends[k] - 1].
        ends = list(accumulate((len(name) + 1 for name in names), initial=0))
        return [
            f"stage {alpha}: B={alpha} Q=({joined[:ends[qlen] - 1]}) q={names[alpha]}"
            for alpha, qlen in enumerate(self.queue_lengths)
        ]


def _check_start(g: OrderedGraph, start: int) -> None:
    if g.vertex_count == 0:
        raise ValueError("cannot search the empty graph")
    if not 0 <= start < g.vertex_count:
        raise ValueError(f"start vertex {start} out of range")


def deterministic_search(g: OrderedGraph, start: int = 0) -> SearchTrace:
    """Visit all vertices, at each stage taking the least vertex adjacent to
    the visited set.  Raises DisconnectedGraphError if some vertex is never
    reached."""
    _check_start(g, start)
    n = g.vertex_count
    adjacency = g.adjacency
    # A vertex is marked when it enters the frontier, so each vertex is
    # pushed once and the heap holds exactly the current frontier.
    seen = bytearray(n)
    seen[start] = 1
    frontier = [start]
    order = []
    while frontier:
        v = heappop(frontier)
        order.append(v)
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = 1
                heappush(frontier, w)
    if len(order) != n:
        raise DisconnectedGraphError(seen.index(0), start)
    return SearchTrace(tuple(order), g)


def bfs_search(g: OrderedGraph, start: int = 0) -> BfsTrace:
    """Queue-based breadth-first search; newly discovered neighbors are
    enqueued in ascending input order."""
    _check_start(g, start)
    n = g.vertex_count
    queue = [start]
    enqueued = bytearray(n)
    enqueued[start] = 1
    qlens = []
    alpha = 0
    while alpha < len(queue):
        qlens.append(len(queue))
        q = queue[alpha]
        for w in g.adjacency[q]:
            if not enqueued[w]:
                enqueued[w] = 1
                queue.append(w)
        alpha += 1
    if len(queue) != n:
        raise DisconnectedGraphError(enqueued.index(0), start)
    return BfsTrace(tuple(queue), tuple(qlens))


def alt_search(g: OrderedGraph, start: int = 0) -> Traversal:
    """Divide and conquer traversal: split off the greatest remaining vertex,
    finish the start's side, then continue from the removed vertex."""
    order, _ = alt_search_with_counts(g, start)
    return order


def alt_search_with_counts(g: OrderedGraph, start: int = 0) -> tuple[Traversal, dict[str, int]]:
    """As alt_search, also returning crude work counters: ``splits`` is the
    number of two-way splits performed and ``scanned`` the total size of the
    vertex sets that were split.

    Every split scans its vertex set and the edges inside it, and the split
    chain can be as long as the vertex count, so the run takes O(n*(n+m))
    time; memory stays O(n+m).
    """
    _check_start(g, start)
    n = g.vertex_count
    adjacency = g.adjacency
    reached = reach(g, start)
    if 0 in reached:
        raise DisconnectedGraphError(reached.index(0), start)
    splits = scanned = 0
    order: list[int] = []
    # owner[u] is the id of the pending subproblem that holds u.  Each
    # subproblem is (sorted member list, vertex to start from, id); the lists
    # on the stack are disjoint.  An explicit stack, because the split chain
    # can be as long as the vertex count.
    owner = [0] * n
    stack: list[tuple[list[int], int, int]] = [(list(range(n)), start, 0)]
    while stack:
        members, v, mid = stack.pop()
        if len(members) == 1:
            order.append(v)
            continue
        w = members[-1] if members[-1] != v else members[-2]
        # v's component without w becomes the new subproblem xid; the rest,
        # w included, keeps the id mid.
        splits += 1
        scanned += len(members)
        xid = splits
        owner[v] = xid
        todo = [v]
        while todo:
            for x in adjacency[todo.pop()]:
                if owner[x] == mid and x != w:
                    owner[x] = xid
                    todo.append(x)
        stack.append(([u for u in members if owner[u] == mid], w, mid))
        stack.append(([u for u in members if owner[u] == xid], v, xid))
    return tuple(order), {"splits": splits, "scanned": scanned}


@dataclass(frozen=True)
class LeastNeighborMap:
    """For a vertex order: every vertex except the order's first element maps
    to its neighbor that comes earliest in the order."""

    root: int
    parent: Mapping[int, int]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """The symmetrized parent edges, normalized and sorted."""
        return tuple(sorted({(min(v, p), max(v, p)) for v, p in self.parent.items()}))


def least_neighbor_map(g: OrderedGraph, order: Sequence[int]) -> LeastNeighborMap:
    """Map each non-first vertex of the order to its order-least neighbor.

    Every vertex other than the order's first element must have at least one
    neighbor.
    """
    if not is_permutation(order, g.vertex_count):
        raise ValueError("order must be a permutation of the vertices")
    adjacency = g.adjacency
    root = order[0]
    # Walking the order, the first vertex seen next to w is w's order-least
    # neighbor; the root is pre-set so it gets no parent.
    first_seen: list[int | None] = [None] * g.vertex_count
    first_seen[root] = root
    for u in order:
        for w in adjacency[u]:
            if first_seen[w] is None:
                first_seen[w] = u
    if None in first_seen:
        raise ValueError(
            f"vertex {first_seen.index(None)} is isolated and not first in the order"
        )
    return LeastNeighborMap(root, {v: p for v, p in enumerate(first_seen) if v != root})


def traversal_tree(g: OrderedGraph, order: Sequence[int]) -> OrderedGraph:
    """Spanning tree obtained by symmetrizing the least-neighbor map of a
    traversal of g.

    The least-neighbor walk checks the order as it goes: a vertex that no
    earlier vertex touched leaves its prefix disconnected, so the order is
    not a traversal and ``ValueError`` is raised, as it is for an order that
    is not a permutation and for the empty graph."""
    n = g.vertex_count
    if not is_permutation(order, n):
        raise ValueError("order must be a permutation of the vertices")
    if n == 0:
        raise ValueError("no traversals of the empty graph")
    adjacency = g.adjacency
    root = order[0]
    parent = [-1] * n
    parent[root] = root
    for u in order:
        if parent[u] < 0:
            raise ValueError("order is not a traversal of the graph")
        for w in adjacency[u]:
            if parent[w] < 0:
                parent[w] = u
    # Each vertex but the root adds the edge to its parent, which came
    # earlier in the order, so no edge is added twice.
    edges = [(v, p) if v < p else (p, v) for v, p in enumerate(parent) if v != root]
    edges.sort()
    return OrderedGraph._canonical(n, tuple(edges))

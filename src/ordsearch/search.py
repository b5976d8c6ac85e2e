"""The three search algorithms and the traversal trees they induce.

``deterministic_search`` grows a visited set one vertex at a time, always
taking the numerically least vertex adjacent to the visited set.
``bfs_search`` is the queue variant: when a vertex is processed its unseen
neighbors are appended to the queue in ascending order, and the queue
itself, once complete, is the visit order.  ``alt_search`` computes the same
order as ``deterministic_search`` by a divide and conquer scheme: remove the
greatest remaining vertex, traverse the start's component, then traverse the
rest from that removed vertex.  The agreement of the two is a checked
property, not an assumption.

A run is its visit order plus its graph; nothing else is stored, so a caller
that wants no trace pays for none.  Each search stage's candidate frontier
is replayed from the order, and each BFS stage's queue length is read off
the least-neighbor map.

A traversal's least-neighbor map sends every vertex except the first to its
earliest neighbor in the order.  ``least_neighbor_map`` is the one walk that
computes it, and it rejects an order that is not a traversal.  Symmetrizing
the map yields a spanning tree, and re-running the matching search on that
tree reproduces the traversal.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate
from typing import Sequence

from .graph import (
    DisconnectedGraphError,
    OrderedGraph,
    Traversal,
    _require_order,
    invert_permutation,
    reach,
)


@dataclass(frozen=True)
class Run:
    """A search run: its visit order, with the graph kept (outside ``==``
    and ``repr``) so that everything else about the run is derived from the
    order on demand.

    ``positions`` and ``least_neighbors`` are derived on first use and kept,
    so the stage lines and every verdict on one run share them.
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


@dataclass(frozen=True)
class SearchTrace(Run):
    """Deterministic search run.  Stage i picks visit_order[i]; the stage-0
    frontier is the start vertex alone.

    Each call of ``stage_lines()`` replays the order, in time proportional
    to the total size of the frontiers.  The replay keeps each frontier
    vertex's decimal name beside it, so a trace line is one join over
    strings that already exist and the whole trace costs about one copy of
    its text.
    """

    def stage_lines(self) -> list[str]:
        adjacency = self.graph.adjacency
        names = list(map(str, range(self.graph.vertex_count)))
        seen = bytearray(self.graph.vertex_count)
        start = self.visit_order[0]
        seen[start] = 1
        # The sorted frontier and its vertices' names, in the same order.
        # The pick is the least frontier vertex, so its name comes first.
        frontier = [start]
        frontier_names = [names[start]]
        lines = []
        for i, v in enumerate(self.visit_order):
            lines.append(f"stage {i}: pick {frontier_names[0]} from {{{' '.join(frontier_names)}}}")
            del frontier[0]
            del frontier_names[0]
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = 1
                    j = bisect_left(frontier, w)
                    frontier.insert(j, w)
                    frontier_names.insert(j, names[w])
        return lines


@dataclass(frozen=True)
class BfsTrace(Run):
    """Breadth-first run.  The queue only ever grows at the end, so each
    stage's queue is a prefix of the final one, the visit order; its length
    comes from the least-neighbor map.

    ``stage_lines()`` prints the sum of the queue lengths in entries, which
    is quadratic in n in the worst case (a star).  It names the vertices and
    joins them once, and slices each stage's queue from that one string, so
    the trace costs about one copy of its text.
    """

    def stage_lines(self) -> list[str]:
        # A BFS enqueues w while processing w's order-least neighbor, so the
        # queue before stage alpha holds the root and every vertex whose
        # least neighbor sits before alpha.
        positions = self.positions
        parent = self.least_neighbors.parent
        enqueued = [0] * len(self.visit_order)
        for v in self.visit_order[1:]:
            enqueued[positions[parent[v]]] += 1
        names = list(map(str, self.visit_order))
        joined = " ".join(names)
        # ends[k] is the offset just past the separator after the k-th name,
        # so the first k names, space separated, are joined[:ends[k] - 1].
        ends = list(accumulate((len(name) + 1 for name in names), initial=0))
        return [
            f"stage {alpha}: B={alpha} Q=({joined[:ends[qlen] - 1]}) q={name}"
            for alpha, (name, qlen) in enumerate(zip(names, accumulate(enqueued, initial=1)))
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
    adjacency = g.adjacency
    queue = [start]
    enqueued = bytearray(n)
    enqueued[start] = 1
    # A list iterator also yields the items appended while it runs, so this
    # loop processes the queue in order until it is exhausted.
    for q in queue:
        for w in adjacency[q]:
            if not enqueued[w]:
                enqueued[w] = 1
                queue.append(w)
    if len(queue) != n:
        raise DisconnectedGraphError(enqueued.index(0), start)
    return BfsTrace(tuple(queue), g)


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
    """For a traversal: ``parent[v]`` is v's neighbor that comes earliest in
    the order, for every vertex v except the order's first element, the
    root, which maps to itself."""

    root: int
    parent: tuple[int, ...]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """The symmetrized parent edges, normalized and sorted.  Each vertex
        but the root adds the edge to its parent, which came earlier in the
        order, so no edge is added twice."""
        root = self.root
        edges = [(v, p) if v < p else (p, v) for v, p in enumerate(self.parent) if v != root]
        edges.sort()
        return tuple(edges)


def least_neighbor_map(g: OrderedGraph, order: Sequence[int]) -> LeastNeighborMap:
    """Map each vertex of a traversal of g to its order-least neighbor, and
    the first vertex to itself.

    The walk checks the order as it goes: a vertex that no earlier vertex
    touched leaves its prefix disconnected, so the order is not a traversal
    and ``ValueError`` is raised, with ``is_traversal``'s message, as it is
    for an order that is not a permutation and for the empty graph."""
    _require_order(g, order)
    adjacency = g.adjacency
    root = order[0]
    # Walking the order, the first vertex seen next to w is w's order-least
    # neighbor; the root is pre-set so it keeps itself.
    parent = [-1] * g.vertex_count
    parent[root] = root
    for u in order:
        if parent[u] < 0:
            raise ValueError("order is not a traversal of the graph")
        for w in adjacency[u]:
            if parent[w] < 0:
                parent[w] = u
    return LeastNeighborMap(root, tuple(parent))


def traversal_tree(g: OrderedGraph, order: Sequence[int]) -> OrderedGraph:
    """Spanning tree obtained by symmetrizing the least-neighbor map of a
    traversal of g; raises ``ValueError`` as ``least_neighbor_map`` does."""
    return OrderedGraph._canonical(g.vertex_count, least_neighbor_map(g, order).edges())

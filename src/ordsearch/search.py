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

from bisect import insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
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
    frontiers.
    """

    visit_order: Traversal
    graph: OrderedGraph = field(compare=False, repr=False)

    def _frontiers(self) -> Iterator[list[int]]:
        """The sorted frontier before each pick; the same list is yielded
        every stage, so copy it to keep it."""
        adjacency = self.graph.adjacency
        seen = bytearray(self.graph.vertex_count)
        start = self.visit_order[0]
        seen[start] = 1
        frontier = [start]
        for v in self.visit_order:
            yield frontier
            del frontier[0]
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = 1
                    insort(frontier, w)

    def stages(self) -> Iterator[ChoiceStage]:
        for v, frontier in zip(self.visit_order, self._frontiers()):
            yield ChoiceStage(v, tuple(frontier))

    def stage_lines(self) -> list[str]:
        names = list(map(str, range(self.graph.vertex_count)))
        return [
            f"stage {i}: pick {names[v]} from {{{' '.join(map(names.__getitem__, frontier))}}}"
            for i, (v, frontier) in enumerate(zip(self.visit_order, self._frontiers()))
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
    """

    visit_order: Traversal
    queue_lengths: tuple[int, ...]

    def stages(self) -> Iterator[BfsStage]:
        for alpha, qlen in enumerate(self.queue_lengths):
            yield BfsStage(alpha, self.visit_order[:qlen], self.visit_order[alpha])

    def stage_lines(self) -> list[str]:
        return [
            f"stage {s.prefix_len}: B={s.prefix_len} Q=({' '.join(map(str, s.queue))}) q={s.q}"
            for s in self.stages()
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
    positions = invert_permutation(order)
    parent = {}
    for v in range(g.vertex_count):
        if v == order[0]:
            continue
        ns = g.adjacency[v]
        if not ns:
            raise ValueError(f"vertex {v} is isolated and not first in the order")
        parent[v] = min(ns, key=positions.__getitem__)
    return LeastNeighborMap(order[0], parent)


def traversal_tree(g: OrderedGraph, order: Sequence[int]) -> OrderedGraph:
    """Spanning tree obtained by symmetrizing the least-neighbor map of a
    traversal of g."""
    from .predicates import is_traversal

    if not is_traversal(g, order):
        raise ValueError("order is not a traversal of the graph")
    return OrderedGraph(g.vertex_count, least_neighbor_map(g, order).edges())

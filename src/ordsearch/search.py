"""The three search algorithms and the traversal trees they induce.

``deterministic_search`` grows a visited set one vertex at a time, always
taking the numerically least vertex adjacent to the visited set.
``bfs_search`` is the queue variant: when a vertex is processed its unseen
neighbors are appended to the queue in ascending order, and the queue
itself, once complete, is the visit order.  ``alt_search_with_counts``
computes the same order as ``deterministic_search`` by a divide and conquer
scheme: remove the greatest remaining vertex, traverse the start's
component, then traverse the rest from that removed vertex.  It reads every
split off one union-find component tree instead of performing them.  The
agreement of the two is a checked property, not an assumption.

A run is its visit order plus its graph; nothing else is stored, so a caller
that wants no trace pays for none.  Each search stage's candidate frontier
is replayed from the order, and each BFS stage's queue length is read off
the least-neighbor map.

A traversal's least-neighbor map sends every vertex except the first to its
earliest neighbor in the order.  ``least_neighbor_map`` is the one walk that
computes it, and the package's one traversal test: it rejects an order that
is not a traversal.  Symmetrizing the map yields a spanning tree, and
re-running the matching search on that tree reproduces the traversal.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate
from typing import Iterator, Sequence

from .graph import (
    DisconnectedGraphError,
    NotATraversalError,
    OrderedGraph,
    Traversal,
    _require_order,
    invert_permutation,
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
    def positions(self) -> list[int]:
        """positions[v] = index of v in the visit order."""
        return invert_permutation(self.visit_order)

    @cached_property
    def least_neighbors(self) -> tuple[int, ...]:
        """The least-neighbor map of the visit order, indexed by vertex."""
        return least_neighbor_map(self.graph, self.visit_order)


class SearchTrace(Run):
    """Deterministic search run.  Stage i picks visit_order[i]; the stage-0
    frontier is the start vertex alone.

    Each call of ``stage_lines()`` replays the order, yielding each stage's
    ``"\n"``-terminated line as the replay reaches it.  The replay keeps the
    sorted frontier's text in one byte buffer, so a trace line is a copy of
    that buffer rather than a join over the frontier's names.  The trace
    holds O(n) besides the line being written, and costs its own bytes, plus
    O(log n) bisects and one move of the buffer's tail per discovered
    vertex: O(max degree * output) in the worst case.
    """

    def stage_lines(self) -> Iterator[str]:
        adjacency = self.graph.adjacency
        seen = bytearray(self.graph.vertex_count)
        start = self.visit_order[0]
        seen[start] = 1
        # The sorted frontier, and its text: each name followed by a space.
        # The pick is the least frontier vertex, so its name comes first.
        frontier = [start]
        text = bytearray(b"%d " % start)
        for i, v in enumerate(self.visit_order):
            yield f"stage {i}: pick {v} from {{{text[:-1].decode()}}}\n"
            del frontier[0]
            del text[: len(str(v)) + 1]
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = 1
                    j = bisect_left(frontier, w)
                    # A name's length grows with its value: each of the
                    # first j names takes two bytes, plus one for every
                    # power of ten 10**t, t >= 1, that it reaches.  Those
                    # reaching 10**t are the last j - bisect_left(...) of
                    # them, and none reaches a power above frontier[j - 1].
                    offset = 2 * j
                    power = 10
                    while j and frontier[j - 1] >= power:
                        offset += j - bisect_left(frontier, power, 0, j)
                        power *= 10
                    frontier.insert(j, w)
                    text[offset:offset] = b"%d " % w


class BfsTrace(Run):
    """Breadth-first run.  The queue only ever grows at the end, so each
    stage's queue is a prefix of the final one, the visit order; its length
    comes from the least-neighbor map.

    ``stage_lines()`` yields ``"\n"``-terminated lines that hold the sum of
    the queue lengths in entries, which is quadratic in n in the worst case
    (a star).  It names the vertices and joins them once, and slices each
    line's queue from that one string as the line is asked for, so the
    trace holds O(n) besides the line being written.
    """

    def stage_lines(self) -> Iterator[str]:
        # A BFS enqueues w while processing w's order-least neighbor, so the
        # queue before stage alpha holds the root and every vertex whose
        # least neighbor sits before alpha.
        positions = self.positions
        parent = self.least_neighbors
        enqueued = [0] * len(self.visit_order)
        for v in self.visit_order[1:]:
            enqueued[positions[parent[v]]] += 1
        names = list(map(str, self.visit_order))
        joined = " ".join(names)
        # ends[k] is the offset just past the separator after the k-th name,
        # so the first k names, space separated, are joined[:ends[k] - 1].
        ends = list(accumulate((len(name) + 1 for name in names), initial=0))
        return (
            f"stage {alpha}: B={alpha} Q=({joined[:ends[qlen] - 1]}) q={name}\n"
            for alpha, (name, qlen) in enumerate(zip(names, accumulate(enqueued, initial=1)))
        )


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


def alt_search_with_counts(g: OrderedGraph, start: int = 0) -> tuple[Traversal, dict[str, int]]:
    """Divide and conquer traversal: split off the greatest remaining vertex
    but the start, finish the start's side, then continue from the removed
    vertex.  Returns the order and two work counters: ``splits``, the number
    of two-way splits, n-1, and ``scanned``, the total size of the vertex
    sets that were split.

    The whole recursion is read off one component tree J.  Insert the
    start, then the other vertices in ascending order; each inserted u
    becomes the J-parent of the tops of its earlier neighbors' components.
    So the J-subtree of y is y's component among the vertices inserted up
    to y.  A subproblem (S, u) splits off w_1 > w_2 > ..., its chain, and
    after w_i goes, u's side is u's component among u and the members below
    w_i.  So a member y is on the chain iff it is on u's side among u and
    the members up to y, that is iff its J-subtree holds the start, for the
    whole graph, or else holds a neighbor of u in S.  The chain is thus the
    J-path above the start, or the union of the J-paths from u's neighbors
    in S up to u.  The side that leaves with y is y and the J-subtrees of
    its children off the chain.  The order is the preorder of these
    subproblems, each u followed by its chain's subproblems in ascending
    order, and w_i's split set is u and the sides of the chain vertices up
    to w_i.

    Every vertex but the start is on one chain, and a chain is marked when
    its u is taken from the stack.  Then the J-subtrees of u's children
    outside S are marked already, their subproblems coming earlier in the
    order, and no other member of S is.  So u's neighbors in S are its
    unmarked smaller neighbors, and a walk up from one stops at the first
    marked vertex.  On a disconnected graph the start's chain ends at the
    root of the start's J-tree and no walk leaves that tree, so the
    vertices left unmarked are those outside the start's component, and
    the least of them is the one ``DisconnectedGraphError`` reports.

    Cost: J takes one find per edge, with union by size and path halving,
    O(m * alpha(n)) (Tarjan, J. ACM 22, 1975); the walks mark each vertex
    once and end with one look per edge, O(n+m); the chains are n-1
    vertices in all, sorted in O(n log n).  Memory is O(n+m).
    """
    _check_start(g, start)
    n = g.vertex_count
    adjacency = g.adjacency
    parent = [-1] * n
    size = [1] * n
    # uf is the union-find forest over J's components, and top[r] is the
    # J-top of the component whose root is r.
    uf = list(range(n))
    top = list(range(n))
    for u in range(n):
        if u == start:
            continue
        u_root = u
        for x in adjacency[u]:
            if x > u and x != start:
                continue
            r = x
            while uf[r] != r:
                uf[r] = r = uf[uf[r]]
            if r == u_root:
                continue
            t = top[r]
            parent[t] = u
            if size[t] > size[u]:
                uf[u_root] = r
                u_root = r
            else:
                uf[r] = u_root
            size[u] += size[t]
        top[u_root] = u
    # side[y] ends as the size of y's side: its J-subtree less the
    # J-subtrees of its children on the same chain.  mark[y] is the u whose
    # chain holds y, and the start marks itself.  The start's chain is the
    # J-path above it, ascending.
    side = size[:]
    mark = [-1] * n
    mark[start] = start
    chain = []
    y = start
    while parent[y] >= 0:
        side[parent[y]] -= size[y]
        y = parent[y]
        mark[y] = start
        chain.append(y)
    order = [start]
    stack: list[int] = []
    scanned = 0
    while True:
        # chain is the chain of order[-1], ascending.
        split_set = 1
        for y in chain:
            split_set += side[y]
            scanned += split_set
        chain.reverse()
        stack += chain
        if not stack:
            break
        u = stack.pop()
        order.append(u)
        chain = []
        for x in adjacency[u]:
            if x > u:
                break
            while mark[x] < 0:
                mark[x] = u
                chain.append(x)
                side[parent[x]] -= size[x]
                x = parent[x]
        chain.sort()
    if len(order) != n:
        raise DisconnectedGraphError(mark.index(-1), start)
    return tuple(order), {"splits": n - 1, "scanned": scanned}


def least_neighbor_map(g: OrderedGraph, order: Sequence[int]) -> tuple[int, ...]:
    """Map each vertex of a traversal of g to its order-least neighbor, and
    the first vertex, the root, to itself: ``parent[v]``, indexed by vertex.

    The walk is the package's one traversal test: a vertex that no earlier
    vertex touched leaves its prefix disconnected, and the walk raises
    ``NotATraversalError``.  An order that is not a permutation, and the
    empty graph, get a plain ``ValueError``."""
    _require_order(g, order)
    adjacency = g.adjacency
    root = order[0]
    # Walking the order, the first vertex seen next to w is w's order-least
    # neighbor; the root is pre-set so it keeps itself.
    parent = [-1] * g.vertex_count
    parent[root] = root
    for u in order:
        if parent[u] < 0:
            raise NotATraversalError
        for w in adjacency[u]:
            if parent[w] < 0:
                parent[w] = u
    return tuple(parent)


def traversal_tree(g: OrderedGraph, order: Sequence[int]) -> OrderedGraph:
    """Spanning tree obtained by symmetrizing the least-neighbor map of a
    traversal of g; raises ``ValueError`` as ``least_neighbor_map`` does.

    Each vertex but the root, the one vertex that is its own parent, adds
    the edge to its parent, which came earlier in the order, so no edge is
    added twice."""
    parent = least_neighbor_map(g, order)
    edges = [(v, p) if v < p else (p, v) for v, p in enumerate(parent) if v != p]
    edges.sort()
    return OrderedGraph._canonical(g.vertex_count, tuple(edges))

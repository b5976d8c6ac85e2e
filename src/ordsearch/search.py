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
    def least_neighbors(self) -> tuple[int, ...]:
        """The least-neighbor map of the visit order, indexed by vertex."""
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
        parent = self.least_neighbors
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
    """As alt_search, also returning work counters: ``splits`` is the
    number of two-way splits performed, n-1, and ``scanned`` the total size
    of the vertex sets that were split.

    A split of the set S from v removes w, the greatest member but v, and
    finds X, v's component of S - w.  Each component of S - w holds a
    neighbor of w, so one search runs from each such neighbor, one vertex
    per search in turn, and two searches that meet become one.  Once at
    most one search is still running, every finished search is a whole
    component: if v's is among them it is X, otherwise the rest of S is w
    and the finished components.  Only that finished side is relabeled and
    gets a new member list; the other side keeps S's list, and vertices
    that left it are dropped as they surface at its end.

    Cost, with vol(S) the sum of the degrees in S:

    * the searches of a split claim, pop and read the adjacency of each
      vertex of S at most once, O(|S| + vol(S));
    * a split merges searches at most deg(w) - 1 times, each time moving
      the shorter frontier and one search's seeds, O(|S| + deg(w)); a
      vertex is w in at most one split, since it then starts its side, so
      all merges together cost O(sum of deg(w) * n) = O(n*m);
    * the finished side is sorted only when that costs no more than a pass
      over S's list, and S's list is rebuilt when more than half of it
      would be vertices that left, so no list exceeds twice its side's
      size and its upkeep is O(|S|) per split.

    A vertex lies in at most n-1 split sets, so the run takes O(n*(n+m))
    time, the bound of rescanning every split set, and O(n+m) memory.  The
    searches seldom come near it, but they do not reach O((n+m) log n)
    either: when S - w stays connected, w's neighbors race until they all
    meet, and on sparse random graphs of mean degree 6 the searches pop
    roughly n**1.5 / 2 vertices in all (README.md has the measurements).
    """
    _check_start(g, start)
    n = g.vertex_count
    adjacency = g.adjacency
    reached = reach(g, start)
    if 0 in reached:
        raise DisconnectedGraphError(reached.index(0), start)
    scanned = 0
    order: list[int] = []
    # owner[u] is the id of the pending subproblem that holds u.  Each
    # subproblem is (id, vertex to start from, size, ascending list holding
    # its members and vertices that have since moved to another id).  An
    # explicit stack, because the split chain can be as long as the vertex
    # count.
    owner = [0] * n
    last_id = 0
    # In a race, mark[x] - base is the seed whose search reached x; marks
    # below base are from earlier races.
    mark = [-1] * n
    base = 0
    stack: list[tuple[int, int, int, list[int]]] = [(0, start, n, list(range(n)))]
    while stack:
        mid, v, size, members = stack.pop()
        while size > 1:
            scanned += size
            while owner[members[-1]] != mid:
                members.pop()
            if members[-1] == v:
                members.pop()
                while owner[members[-1]] != mid:
                    members.pop()
                w = members[-1]
                members.append(v)
            else:
                w = members[-1]
            seeds = [x for x in adjacency[w] if owner[x] == mid]
            k = len(seeds)
            if k == 1:
                # S - w is connected: X is all of it.
                moved = [w]
                v_moves = False
            else:
                owner[w] = -1
                for j, x in enumerate(seeds, base):
                    mark[x] = j
                root = list(range(k))
                group = [[j] for j in range(k)]
                frontier = [[x] for x in seeds]
                claimed = [[x] for x in seeds]
                running = list(range(k))
                while len(running) > 1:
                    for r in running:
                        todo = frontier[r]
                        if root[r] != r or not todo:
                            continue
                        for x in adjacency[todo.pop()]:
                            if owner[x] == mid:
                                j = mark[x] - base
                                if j < 0:
                                    mark[x] = base + r
                                    todo.append(x)
                                    claimed[r].append(x)
                                elif root[j] != r:
                                    # The searches meet: the one with the
                                    # shorter frontier joins the other.
                                    q = root[j]
                                    if len(frontier[q]) > len(todo):
                                        r, q = q, r
                                        todo = frontier[r]
                                    for i in group[q]:
                                        root[i] = r
                                    group[r] += group[q]
                                    todo += frontier[q]
                                    frontier[q] = []
                    running = [r for r in running if root[r] == r and frontier[r]]
                j = mark[v] - base
                v_moves = j >= 0 and not frontier[root[j]]
                if v_moves:
                    moved = [x for i in group[root[j]] for x in claimed[i]]
                    owner[w] = mid
                else:
                    moved = [w]
                    moved += [x for i in range(k) if not frontier[root[i]] for x in claimed[i]]
                base += k
            last_id += 1
            for x in moved:
                owner[x] = last_id
            count = len(moved)
            if count * count.bit_length() <= len(members) <= 2 * (size - count):
                moved.sort()
            else:
                # Sorting would cost more than a pass over S's list, or the
                # list would hold more vertices that left than members.
                moved = [x for x in members if owner[x] == last_id]
                members = [x for x in members if owner[x] == mid]
            if v_moves:
                stack.append((mid, w, size - count, members))
                mid, size, members = last_id, count, moved
            else:
                stack.append((last_id, w, count, moved))
                size -= count
        order.append(v)
    return tuple(order), {"splits": n - 1, "scanned": scanned}


def least_neighbor_map(g: OrderedGraph, order: Sequence[int]) -> tuple[int, ...]:
    """Map each vertex of a traversal of g to its order-least neighbor, and
    the first vertex, the root, to itself: ``parent[v]``, indexed by vertex.

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

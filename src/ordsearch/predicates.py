"""Order predicates, traversal enumeration, and extremality/stability verifiers.

A vertex order is a traversal when every initial segment induces a connected
subgraph, that is when every vertex after the first has an earlier neighbor.
``is_traversal`` asks ``least_neighbor_map``'s walk, the package's one
traversal test, which raises ``NotATraversalError`` on the first vertex
without one.

Breadth-first and depth-first orders are characterized by the classical
three-vertex conditions.  Each has an equivalent working form that one pass
over the order checks.  Breadth-first: the least-neighbor map is weakly
monotone.  Depth-first: each vertex after the first is a neighbor of the
latest earlier vertex that still has an unplaced neighbor (the candidate
rule of Corneil and Krueger, 2008), in O(n+m).  Both passes reject a
non-traversal with ``NotATraversalError``.  The literal conditions stay on
the oracle side: acceptance criterion 9 checks the breadth-first equivalence
on every traversal at n <= 5, criterion 3 on the search outputs at n = 6,
and the tests check the depth-first one.

``enumerate_traversals`` lists the orders of a kind in lexicographic order
by one backtracking walk, lexicographic generation with restricted prefixes
(Knuth, TAOCP 4A, 7.2.1.2).  The next vertex is drawn only from the
candidates of the generic search of the kind (Corneil and Krueger, "A
unified view of graph searching", 2008): any unplaced vertex with a placed
neighbor, or the unplaced neighbors of the earliest (breadth-first) or
latest (depth-first) placed vertex that still has one.  Every prefix then
completes, so nothing is pruned and no predicate runs; the tests compare the
output, order included, with brute-force permutation filtering through the
predicates above.  Enumeration is capped at ``MAX_ENUMERATION_VERTICES``
vertices, so the walk keeps its vertex sets as bit masks, one per depth, and
a step is a few mask operations.

The walk (``_lex_walk``) folds each order as it places it: every vertex
placed adds its term for that position to the prefix's running value, so a
finished order comes out already made into what its caller wants.  The
last position is forced, since one vertex is left, so the walk yields one
level above it.  ``enumerate_traversals`` folds tuples;
``enumeration_lines`` folds the output lines, which ``enumerate`` writes as
they come, holding no order; ``verify_colex_max`` folds one integer colex
key per order and takes their maximum in O(n) memory.  ``verify_lex_min``
has no vertex cap; it builds each least order directly (``_least_order``),
taking the least candidate at each position, in O((n+m) log n).

``verify_stability`` and ``verify_identities`` are ``verify``'s stability
and identities suites, verdicts and notes, which criteria 6 and 5 assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from itertools import combinations
from operator import getitem, itemgetter, or_
import random
from typing import Iterable, Iterator, Sequence

from .graph import (
    DisconnectedGraphError,
    NotATraversalError,
    OrderedGraph,
    Traversal,
    _require_order,
    induced_subgraph,
    invert_permutation,
    reach,
    relabel,
)
from .search import SearchTrace, bfs_search, deterministic_search, least_neighbor_map, traversal_tree

KINDS = ("all", "breadth_first", "depth_first")

# A verdict suite's verdicts by name and its notes, as ``verify`` prints them.
Report = tuple[dict[str, bool], dict[str, str]]


@dataclass(frozen=True)
class TraversalSet:
    """All orders of one graph passing one predicate, in lexicographic
    order."""

    orders: tuple[Traversal, ...]

    def sorted_orders(self) -> list[Traversal]:
        return list(self.orders)

    def __len__(self) -> int:
        return len(self.orders)


def is_traversal(g: OrderedGraph, order: Sequence[int]) -> bool:
    """True iff every prefix of the order induces a connected subgraph;
    ``ValueError`` if the order is not a permutation of the vertices."""
    try:
        least_neighbor_map(g, order)
    except NotATraversalError:
        return False
    return True


def is_breadth_first(g: OrderedGraph, order: Sequence[int]) -> bool:
    """Breadth-first test via the least-neighbor map: parents' positions must
    be weakly increasing along the order.  The map's walk checks the order
    first and raises ``NotATraversalError`` on one that is not a
    traversal."""
    parent = least_neighbor_map(g, order)
    return _parents_in_order(order, invert_permutation(order), parent)


def _parents_in_order(order: Sequence[int], positions: Sequence[int], parent: Sequence[int]) -> bool:
    last = -1
    for v in order[1:]:
        p = positions[parent[v]]
        if p < last:
            return False
        last = p
    return True


def is_depth_first(g: OrderedGraph, order: Sequence[int]) -> bool:
    """Depth-first test by the candidate rule, in one O(n+m) pass: each
    vertex after the first must be a neighbor of the latest earlier vertex
    that still has an unplaced neighbor.  On traversals this is the
    three-vertex condition (whenever u < v < w, u and w adjacent but u and v
    not, some x strictly between u and v is adjacent to v).

    Placed vertices wait on a stack and are popped once no neighbor of
    theirs is left unplaced, so the top is the latest vertex that still has
    one.  A vertex with no placed neighbor leaves its prefix disconnected,
    and the pass raises ``NotATraversalError``; it runs on after the rule
    first fails, so that error is not missed."""
    _require_order(g, order)
    adjacency = g.adjacency
    # left[u] counts u's unplaced neighbors.
    left = [len(nbs) for nbs in adjacency]
    depth_first = True
    stack: list[int] = []
    for v in order:
        nbs = adjacency[v]
        # The stack is empty only before the first vertex.
        if stack:
            if left[v] == len(nbs):
                raise NotATraversalError
            while not left[stack[-1]]:
                stack.pop()
            if depth_first and stack[-1] not in nbs:
                depth_first = False
        for u in nbs:
            left[u] -= 1
        stack.append(v)
    return depth_first


MAX_ENUMERATION_VERTICES = 9


def _lex_walk(
    g: OrderedGraph, kind: str, starts: Iterable[int], terms: Sequence[Sequence]
) -> Iterator:
    """The orders of the kind that begin at one of the starts, in
    lexicographic order, each folded into one value: the sum of
    ``terms[d][v]`` over the positions d of the order, v the vertex there.
    Tuple terms ``(v,)`` give the orders themselves, text terms their output
    lines, integer terms a number per order.  The graph must be connected,
    with at most ``MAX_ENUMERATION_VERTICES`` vertices: vertex sets are bit
    masks.

    Depth d is the position being filled.  ``unplaced[d]`` holds the
    vertices not in ``order[:d]``, ``rest[d]`` the candidates for position d
    not yet tried, taken lowest bit first, and ``acc[d]`` the fold of
    ``order[:d]``: placing v at depth d sets ``acc[d + 1] = acc[d] +
    terms[d][v]``.  The candidates are read off the prefix: for "all" the
    unplaced vertices with a placed neighbor (``front[d]``, grown by each
    placed vertex's neighbors), for breadth-first the unplaced neighbors of
    the earliest placed vertex that still has one, for depth-first those of
    the latest such vertex, whose position is ``source[d]``.  A step costs a
    few mask operations and one fold: nothing is undone on the way back up,
    and no candidate list is scanned.  Every prefix built this way
    completes, so no branch is cut, and the last position is forced: the
    walk yields at depth n - 2, with the one vertex left in ``unplaced``,
    and never descends to n - 1.  A 1-vertex graph yields its start."""
    n = g.vertex_count
    if n == 1:
        yield from (terms[0][s] for s in starts)
        return
    nbr = [sum(1 << w for w in nbs) for nbs in g.adjacency]
    last, tail = n - 2, terms[n - 1]
    order = [0] * n
    unplaced = [0] * n
    rest = [0] * n
    front = [0] * n
    source = [0] * n
    # Times 0 is the empty fold of text, tuples and integers alike.
    acc = [terms[0][0] * 0] * n
    unplaced[0] = (1 << n) - 1
    rest[0] = sum(1 << s for s in starts)
    d = 0
    while d >= 0:
        c = rest[d]
        if not c:
            d -= 1
            continue
        low = c & -c
        rest[d] = c ^ low
        v = low.bit_length() - 1
        free = unplaced[d] ^ low
        if d == last:
            yield acc[d] + terms[d][v] + tail[free.bit_length() - 1]
            continue
        order[d] = v
        acc[d + 1] = acc[d] + terms[d][v]
        d += 1
        unplaced[d] = free
        if kind == "all":
            rest[d] = front[d] = (front[d - 1] | nbr[v]) & free
            continue
        if kind == "breadth_first":
            # The earliest such vertex only moves forward as the prefix grows.
            i = source[d - 1]
            while not nbr[order[i]] & free:
                i += 1
        elif nbr[v] & free:
            i = d - 1
        else:
            # When position i was filled, no vertex placed after source[i]
            # had an unplaced neighbor, and none has one now.
            i = source[d - 1]
            while not nbr[order[i]] & free:
                i = source[i]
        source[d] = i
        rest[d] = nbr[order[i]] & free


def _enumeration_starts(g: OrderedGraph, kind: str, fixed_start: int | None) -> Sequence[int]:
    """The starts to enumerate from, once every check on the request has
    passed."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if g.vertex_count == 0:
        raise ValueError("no traversals of the empty graph")
    reached = reach(g, 0)
    if 0 in reached:
        raise DisconnectedGraphError(reached.index(0), 0)
    if fixed_start is not None and not 0 <= fixed_start < g.vertex_count:
        raise ValueError(f"start vertex {fixed_start} out of range")
    _require_enumerable(g)
    return [fixed_start] if fixed_start is not None else range(g.vertex_count)


def enumerate_traversals(
    g: OrderedGraph, kind: str = "all", fixed_start: int | None = None
) -> TraversalSet:
    """All vertex orders of the given kind, in lexicographic order, from
    ``fixed_start`` or from every vertex.

    The orders come from one backtracking walk (``_lex_walk``) whose
    candidates at each position are exactly the vertices that keep the
    prefix completable to an order of the kind.  Graphs with more than
    ``MAX_ENUMERATION_VERTICES`` vertices are refused with ``ValueError``:
    K_n alone has n! orders."""
    starts = _enumeration_starts(g, kind, fixed_start)
    singles = [(v,) for v in range(g.vertex_count)]
    return TraversalSet(tuple(_lex_walk(g, kind, starts, [singles] * g.vertex_count)))


def enumeration_lines(
    g: OrderedGraph, kind: str = "all", fixed_start: int | None = None
) -> Iterator[str]:
    """The orders ``enumerate_traversals`` lists, as ``enumerate`` prints
    them: vertex numbers joined by spaces, one order per line.  The walk
    makes each line as it places the vertices, and yields it when it is
    done: nothing is held but the prefixes of the line being built.  Every
    check runs before this returns, so an error comes before the first
    line."""
    starts = _enumeration_starts(g, kind, fixed_start)
    n = g.vertex_count
    inner = ["%d " % v for v in range(n)]
    return _lex_walk(g, kind, starts, [inner] * (n - 1) + [["%d\n" % v for v in range(n)]])


def _require_enumerable(g: OrderedGraph) -> None:
    if g.vertex_count > MAX_ENUMERATION_VERTICES:
        raise ValueError(
            f"enumeration is limited to {MAX_ENUMERATION_VERTICES} vertices; "
            f"the graph has {g.vertex_count}"
        )


def _least_order(g: OrderedGraph, kind: str) -> Traversal:
    """The lexicographically least order of the kind ("all" or
    "breadth_first") from vertex 0 of connected g, the first of
    ``enumerate_traversals(g, kind, 0).orders``, built by taking the least
    of the same candidates at each position.  For "all" they wait in a
    min-heap of vertices with a placed neighbor, placed ones dropped as they
    surface.  For breadth-first, ``head`` points at the earliest placed
    vertex that may still have an unplaced neighbor and ``i`` into its
    ascending neighbors; both only move forward.  O((n+m) log n) time."""
    n = g.vertex_count
    adjacency = g.adjacency
    placed = bytearray(n)
    placed[0] = 1
    order = [0]
    if kind == "all":
        heap = list(adjacency[0])
        while len(order) < n:
            v = heappop(heap)
            if not placed[v]:
                placed[v] = 1
                order.append(v)
                for w in adjacency[v]:
                    if not placed[w]:
                        heappush(heap, w)
    else:
        head = i = 0
        while len(order) < n:
            nbs = adjacency[order[head]]
            if i == len(nbs):
                head += 1
                i = 0
                continue
            v = nbs[i]
            i += 1
            if not placed[v]:
                placed[v] = 1
                order.append(v)
    return tuple(order)


def verify_lex_min(g: OrderedGraph) -> dict[str, bool]:
    """Verdicts by name: the search output is the lexicographically least
    traversal from vertex 0, and the breadth-first output the least
    breadth-first traversal from vertex 0, each least order from
    ``_least_order``."""
    tau = deterministic_search(g, 0).visit_order
    beta = bfs_search(g, 0).visit_order
    return {
        "lex-min-traversal": tau == _least_order(g, "all"),
        "lex-min-breadth-first": beta == _least_order(g, "breadth_first"),
    }


def verify_colex_max(g: OrderedGraph) -> dict[str, bool]:
    """Verdict by name: the search output's inverse is colexicographically
    greatest among inverses of traversals from vertex 0.  Walks at most
    (n-1)! orders in O(n) memory, within ``MAX_ENUMERATION_VERTICES``.

    The walk folds each order into the integer sum of d·n**v over its
    positions d: the base-n number whose digit at place v is v's position.
    Its digits from the top are the positions of the greatest vertex down
    to the least, so comparing the integers compares the inverse
    permutations colexicographically, with one integer per order and no
    key tuple."""
    tau = deterministic_search(g, 0).visit_order
    _require_enumerable(g)
    terms = _colex_terms(g.vertex_count)
    best = max(_lex_walk(g, "all", (0,), terms))
    return {"colex-max-inverse": best == sum(map(getitem, terms, tau))}


def _colex_terms(n: int) -> list[list[int]]:
    """``_lex_walk`` terms that fold an order into its colex key as one
    integer: d·n**v for vertex v at position d."""
    return [[d * n**v for v in range(n)] for d in range(n)]


def _run_facts(run: SearchTrace) -> tuple[Traversal, list[int], tuple[int, ...]]:
    """The run's order, the positions in it and its least-neighbor map (the
    run derives the last two once, for every verdict on it); the stability
    verdicts are stated for searches from vertex 0 only."""
    tau = run.visit_order
    if tau[0] != 0:
        raise ValueError(f"stability verdicts need a search from vertex 0, not from {tau[0]}")
    return tau, run.positions, run.least_neighbors


def closure_samples(run: SearchTrace, seed: int, count: int) -> list[frozenset[int]]:
    """Vertex sets closed under the run's least-neighbor map, obtained by
    closing random seed sets of one to three vertices in at most 20·count
    draws.  At most ``count`` distinct sets are returned (small graphs may
    admit fewer).

    The closure of a seed set is the union of its vertices' ancestor chains
    under the map, and the n one-vertex chains are pairwise distinct, so
    fewer than ``count`` sets can be drawn only when n < count.  Then the
    drawable unions are counted as bit masks, and the loop stops at the draw
    that yields the last of them: no later draw could add a set, so the list
    is the one the full 20·count draws give."""
    tau, _, parent = _run_facts(run)
    n = run.graph.vertex_count
    limit = count
    if n < count:
        chains = [0] * n
        for v in tau:
            # The root is its own parent, and its chain is still empty here.
            chains[v] = (1 << v) | chains[parent[v]]
        unions = {
            reduce(or_, seeds)
            for size in range(1, min(3, n) + 1)
            for seeds in combinations(chains, size)
        }
        limit = min(count, len(unions))
    rng = random.Random(seed)
    out: list[frozenset[int]] = []
    seen = set()
    for _ in range(20 * count):
        if len(out) == limit:
            break
        size = rng.randint(1, min(3, n))
        pending = set(rng.sample(range(n), size))
        closed: set[int] = set()
        while pending:
            v = pending.pop()
            closed.add(v)
            # The root is its own parent, and already closed.
            if parent[v] not in closed:
                pending.add(parent[v])
        key = frozenset(closed)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def verify_subset_stability(run: SearchTrace, w: Iterable[int]) -> bool:
    """Searching the subgraph induced by a parent-closed set from its first
    element must list the set in the same relative order as the run lists
    it."""
    w = set(w)
    if not w:
        raise ValueError("vertex set must be nonempty")
    _, positions, parent = _run_facts(run)
    if min(w) < 0 or max(w) >= run.graph.vertex_count:
        raise ValueError("vertex set out of range")
    w_sorted = sorted(w, key=positions.__getitem__)
    w0 = w_sorted[0]
    for v in w:
        if v != w0 and parent[v] not in w:
            raise ValueError(f"set is not closed under the least-neighbor map at vertex {v}")
    sub, kept = induced_subgraph(run.graph, w)
    sub_order = deterministic_search(sub, kept.index(w0)).visit_order
    return [kept[i] for i in sub_order] == w_sorted


def verify_quotient_stability(run: SearchTrace, parts: Sequence[Iterable[int]]) -> bool:
    """Collapsing an interval partition (each part parent-closed except at
    its first element) and searching the quotient must order the parts as
    the run ordered their first elements.

    A closed part is connected: from each of its vertices the parent chain
    stays inside the part and descends in the order to the first element,
    along graph edges.  So partition, interval and closure are checked, and
    connectivity follows."""
    parts = [tuple(p) for p in parts]
    partition = _interval_partition(parts, run.positions)
    if partition is None:
        raise ValueError("parts do not partition the vertex set")
    block_of, _, anchors = partition
    return _quotient_stable(run, parts, block_of, anchors)


def verify_stability(run: SearchTrace, sets: Sequence[Iterable[int]]) -> Report:
    """Verdicts by name and notes, as ``verify --suite stability`` prints
    them: subset stability on each of the parent-closed sets, and quotient
    stability on the partitions into singletons and into one part."""
    n = run.graph.vertex_count
    return {
        "subset-stability": all(verify_subset_stability(run, w) for w in sets),
        "quotient-stability-singletons": verify_quotient_stability(run, [(v,) for v in range(n)]),
        "quotient-stability-whole": verify_quotient_stability(run, [range(n)]),
    }, {"subset-stability": f"{len(sets)} closed sets"}


def _bfs_after_search(tau: Traversal, relabeled: OrderedGraph) -> Traversal:
    """BFS of a graph relabeled by its search order tau, mapped back."""
    return tuple(tau[v] for v in bfs_search(relabeled).visit_order)


def verify_identities(g: OrderedGraph, probes: int = 0, seed: int = 0) -> Report:
    """Verdicts by name and notes, as ``verify --suite identities`` prints
    them: the five fixed-point laws of search, and whether breadth-first
    search after search is breadth-first search, on g and on ``probes``
    seeded relabelings of g.  A negative ``probes`` is a ``ValueError``."""
    if probes < 0:
        raise ValueError(f"probes must be >= 0, not {probes}")
    identity = tuple(range(g.vertex_count))
    tau = deterministic_search(g).visit_order
    beta = bfs_search(g).visit_order
    relabeled = relabel(g, tau)
    vacuous = not is_traversal(g, identity)
    verdicts = {
        "search-fixes-traversals": vacuous or tau == identity,
        "idempotent": deterministic_search(relabeled).visit_order == identity,
        "bfs-fixed-by-search": deterministic_search(relabel(g, beta)).visit_order == identity,
        "search-tree-retraversal": deterministic_search(traversal_tree(g, tau)).visit_order == tau,
        "bfs-tree-retraversal": bfs_search(traversal_tree(g, beta)).visit_order == beta,
    }
    notes = {"search-fixes-traversals": "vacuous: input order is not a traversal"} if vacuous else {}
    same = _bfs_after_search(tau, relabeled) == beta
    notes["bfs-after-search"] = f"bfs-after-search equals bfs on this input: {'yes' if same else 'no'}"
    if probes:
        rng = random.Random(seed)
        differed = 0
        for _ in range(probes):
            perm = list(identity)
            rng.shuffle(perm)
            h = relabel(g, perm)
            tau_h = deterministic_search(h).visit_order
            differed += _bfs_after_search(tau_h, relabel(h, tau_h)) != bfs_search(h).visit_order
        notes["probes"] = f"bfs-after-search differed from bfs on {differed} of {probes} probed orders"
    return verdicts, notes


def _block_verdicts(run: SearchTrace, blocks: Sequence[Sequence[int]]) -> dict[str, bool]:
    """Verdicts by name on blocks each headed by its anchor, read off one
    ``_interval_partition`` pass: "block-intervals", each block is an
    interval of the run's order that starts at its anchor and lists each
    member once, and "quotient-stability", as ``verify_quotient_stability``
    on the blocks.  A malformed list (an empty block, a member outside the
    graph, a vertex in two blocks or in none) fails both; a member repeated
    within its own block still partitions, as in a set, and fails only the
    block check."""
    partition = _interval_partition(blocks, run.positions)
    if partition is None:
        return {"block-intervals": False, "quotient-stability": False}
    block_of, sizes, anchors = partition
    try:
        quotient_ok = _quotient_stable(run, blocks, block_of, anchors)
    except ValueError:
        quotient_ok = False
    return {
        "block-intervals": all(
            size == len(block) and block[0] == anchor
            for block, size, anchor in zip(blocks, sizes, anchors)
        ),
        "quotient-stability": quotient_ok,
    }


def _interval_partition(
    parts: Sequence[Sequence[int]], positions: Sequence[int]
) -> tuple[list[int], list[int], list[int | None]] | None:
    """Each vertex's part, each part's size and each part's first vertex in
    the order whose positions are given (None for a part that is not an
    interval of that order); None unless the parts are nonempty and cover
    each vertex exactly once.  A member listed twice in its own part counts
    once, as in a set.

    Given a partition, a part is an interval iff its positions span exactly
    its size, so a min and a max of its positions decide it: O(n) in all,
    with no set, dict or sort over the vertices."""
    vertex_count = len(positions)
    block_of = [-1] * vertex_count
    sizes = []
    for i, part in enumerate(parts):
        if not part or min(part) < 0 or max(part) >= vertex_count:
            return None
        size = 0
        for v in part:
            b = block_of[v]
            if b < 0:
                block_of[v] = i
                size += 1
            elif b != i:
                return None
        sizes.append(size)
    if sum(sizes) != vertex_count:
        return None
    at = positions.__getitem__
    anchors: list[int | None] = []
    for part, size in zip(parts, sizes):
        first = min(part, key=at)
        anchors.append(first if at(max(part, key=at)) - at(first) + 1 == size else None)
    return block_of, sizes, anchors


def _quotient_stable(
    run: SearchTrace,
    parts: Sequence[Sequence[int]],
    block_of: Sequence[int],
    anchors: Sequence[int | None],
) -> bool:
    """``verify_quotient_stability`` on a partition of the vertex set, read
    off ``_interval_partition``."""
    g = run.graph
    _, positions, parent = _run_facts(run)
    for i, (part, anchor) in enumerate(zip(parts, anchors)):
        if anchor is None:
            raise ValueError(f"part {i} is not an interval of the traversal")
        for v in part:
            if v != anchor and block_of[parent[v]] != i:
                raise ValueError(
                    f"part {i} is not closed under the least-neighbor map at vertex {v}"
                )
    # Quotient input order: parts sorted by their anchors' vertex numbers.
    order_of_parts = sorted(range(len(parts)), key=anchors.__getitem__)
    quotient_vertex = invert_permutation(order_of_parts)
    # The distinct pairs of parts that the edges join, gathered at C speed.
    part_of = block_of.__getitem__
    joined = set(
        zip(map(part_of, map(itemgetter(0), g.edges)), map(part_of, map(itemgetter(1), g.edges)))
    )
    quotient_edges = set()
    for a, b in joined:
        if a != b:
            qa, qb = quotient_vertex[a], quotient_vertex[b]
            quotient_edges.add((qa, qb) if qa < qb else (qb, qa))
    quotient = OrderedGraph._canonical(len(parts), tuple(sorted(quotient_edges)))
    quotient_order = deterministic_search(quotient, 0).visit_order
    searched = [anchors[order_of_parts[qi]] for qi in quotient_order]
    expected = sorted(anchors, key=positions.__getitem__)
    return searched == expected


def level_decomposition(
    g: OrderedGraph, order: Sequence[int]
) -> tuple[tuple[frozenset[int], ...], dict[str, bool]]:
    """Distance levels from the order's first vertex, the root, and verdicts
    by name.  A graph with a cycle gets ``{"acyclic": False}`` alone; on an
    acyclic graph ``"acyclic"`` is followed by the structure checks: each
    level is an interval of the order, levels appear in increasing distance
    order, and the least-neighbor map drops every vertex exactly one
    level."""
    parent = least_neighbor_map(g, order)
    positions = invert_permutation(order)
    if not _parents_in_order(order, positions, parent):
        raise ValueError("order is not a breadth-first traversal")
    root = order[0]
    dist = {root: 0}
    frontier = [root]
    levels = [frozenset([root])]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        if nxt:
            levels.append(frozenset(nxt))
        frontier = nxt
    if len(g.edges) != g.vertex_count - 1:
        return tuple(levels), {"acyclic": False}
    bounds = [(min(ps), max(ps)) for ps in ([positions[v] for v in level] for level in levels)]
    return tuple(levels), {
        "acyclic": True,
        "levels-are-intervals": all(
            hi - lo + 1 == len(level) for (lo, hi), level in zip(bounds, levels)
        ),
        "levels-in-order": all(hi < lo for (_, hi), (lo, _) in zip(bounds, bounds[1:])),
        "parents-one-level-up": all(
            parent[v] in levels[i - 1] for i in range(1, len(levels)) for v in levels[i]
        ),
    }

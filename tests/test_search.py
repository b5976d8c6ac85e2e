import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_connected_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    prefix_connected,
    random_traversal,
    star_graph,
)
from ordsearch.graph import (
    DisconnectedGraphError,
    NotATraversalError,
    OrderedGraph,
    invert_permutation,
    random_connected_graph,
    reach,
)
from ordsearch.predicates import is_breadth_first, is_depth_first, is_traversal
from ordsearch.search import (
    alt_search_with_counts,
    bfs_search,
    deterministic_search,
    least_neighbor_map,
    traversal_tree,
)


def brute_force_stage_simulation(g, start):
    """Reference implementation: recompute the frontier from scratch each
    stage by scanning all vertices, with no incremental state.  Returns the
    visit order and every stage's frontier (the start alone at stage 0), or
    None if some vertex is never reached."""
    order = [start]
    visited = {start}
    frontiers = [(start,)]
    while len(order) < g.vertex_count:
        frontier = tuple(
            v
            for v in range(g.vertex_count)
            if v not in visited and any(u in visited for u in g.adjacency[v])
        )
        if not frontier:
            return None
        frontiers.append(frontier)
        order.append(min(frontier))
        visited.add(order[-1])
    return tuple(order), tuple(frontiers)


def replay_search_lines(g, start):
    """Reference for ``SearchTrace.stage_lines``: a set frontier, sorted and
    joined afresh at every stage, with neighbors read off the edge list."""
    neighbors = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    frontier = {start}
    visited = set()
    lines = []
    while frontier:
        v = min(frontier)
        lines.append(f"stage {len(lines)}: pick {v} from {{{' '.join(map(str, sorted(frontier)))}}}")
        frontier.remove(v)
        visited.add(v)
        frontier.update(w for w in neighbors[v] if w not in visited)
    return lines


def brute_force_bfs_lines(g, start):
    """Reference for ``BfsTrace.stage_lines``: a plain queue simulation that
    reads neighbors off the edge list and formats every stage's whole queue
    from scratch."""
    queue = [start]
    lines = []
    alpha = 0
    while alpha < len(queue):
        q = queue[alpha]
        lines.append(f"stage {alpha}: B={alpha} Q=({' '.join(str(v) for v in queue)}) q={q}")
        neighbors = sorted(v for e in g.edges if q in e for v in e if v != q)
        queue.extend([v for v in neighbors if v not in queue])
        alpha += 1
    assert len(queue) == g.vertex_count
    return lines


def joined(lines):
    """The text of a list of lines, each ended by a newline."""
    return "\n".join(lines) + "\n"


def split_lines(text):
    """The lines of a text that ends with a newline, without their newlines."""
    assert text.endswith("\n")
    return text[:-1].split("\n")


def random_graphs_with_long_names(seed, count):
    """Random connected graphs on 11 to 200 vertices, so vertex names have
    two or three digits, sparse and dense alike; each with a random start."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(11, 200)
        density = rng.choice((1.5 / n, 4 / n, 0.3))
        yield random_connected_graph(n, density, rng.randint(0, 9999)), rng.randrange(n)


def assert_matches_brute_force(g, start):
    order, frontiers = brute_force_stage_simulation(g, start)
    trace = deterministic_search(g, start)
    assert trace.visit_order == order
    assert "".join(trace.stage_lines()) == joined(
        [
            f"stage {i}: pick {v} from {{{' '.join(map(str, f))}}}"
            for i, (v, f) in enumerate(zip(order, frontiers))
        ]
    )


class TestDeterministicSearch:
    def test_path_unique_choices(self):
        assert deterministic_search(path_graph(3)).visit_order == (0, 1, 2)

    def test_zigzag_path(self):
        g = OrderedGraph(4, ((0, 3), (3, 1), (1, 2)))
        assert brute_force_stage_simulation(g, 0)[0] == (0, 3, 1, 2)
        assert deterministic_search(g).visit_order == (0, 3, 1, 2)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(21)
        for _ in range(60):
            g = random_connected_graph(rng.randint(1, 12), 0.35, rng.randint(0, 9999))
            assert_matches_brute_force(g, rng.randrange(g.vertex_count))
        for g, start in random_graphs_with_long_names(22, 20):
            assert_matches_brute_force(g, start)

    def test_matches_brute_force_on_all_small_graphs(self):
        checked = 0
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                for start in range(n):
                    assert_matches_brute_force(g, start)
                    checked += 1
        # 1 + 1*2 + 4*3 + 38*4 + 728*5 (connected labelled graphs times starts)
        assert checked == 3807

    def test_trace_free_run_stores_no_frontiers(self):
        # Storing every stage's frontier costs about n^2/2 entries on a star.
        g = star_graph(5000)
        g.adjacency  # build the index outside the measurement
        tracemalloc.start()
        try:
            order = deterministic_search(g).visit_order
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert order == tuple(range(5000))
        assert peak < 2 * 2**20

    def test_trace_records_choice_per_stage(self, six_cycle_tail):
        trace = deterministic_search(six_cycle_tail)
        lines = split_lines("".join(trace.stage_lines()))
        assert len(lines) == 6
        frontiers = []
        for i, line in enumerate(lines):
            head, _, rest = line.partition(": pick ")
            chosen, _, frontier = rest.partition(" from ")
            frontier = tuple(map(int, frontier.strip("{}").split()))
            assert head == f"stage {i}"
            assert int(chosen) == trace.visit_order[i]
            assert int(chosen) == min(frontier)
            frontiers.append(frontier)
        assert frontiers[1] == (1, 5)

    def test_stage_lines_where_name_lengths_change(self):
        # A path plus the chords (v, v + 9995) for v < 50: for about 10,000
        # stages the frontier holds 5-digit names beside names of 1 to 4
        # digits, so the text offsets count every power of ten below n.
        n = 10_050
        edges = [(v, v + 1) for v in range(n - 1)] + [(v, v + 9_995) for v in range(50)]
        g = OrderedGraph(n, tuple(edges))
        for start in (0, 999, 9_999, n - 1):
            assert "".join(deterministic_search(g, start).stage_lines()) == joined(
                replay_search_lines(g, start)
            )

    def test_stage_lines(self):
        trace = deterministic_search(path_graph(2))
        assert "".join(trace.stage_lines()) == "stage 0: pick 0 from {0}\nstage 1: pick 1 from {1}\n"

    def test_disconnected_reports_vertex(self):
        g = OrderedGraph(3, ((0, 1),))
        with pytest.raises(DisconnectedGraphError) as exc:
            deterministic_search(g)
        assert exc.value.vertex == 2

    def test_start_parameter(self, six_cycle_tail):
        assert deterministic_search(six_cycle_tail, 3).visit_order == (3, 5, 0, 1, 2, 4)
        assert brute_force_stage_simulation(six_cycle_tail, 3)[0] == (3, 5, 0, 1, 2, 4)

    def test_bad_start(self):
        with pytest.raises(ValueError):
            deterministic_search(path_graph(2), 7)


class TestBfsSearch:
    def test_path(self):
        assert bfs_search(path_graph(3)).visit_order == (0, 1, 2)

    def test_final_queue_is_visit_order(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_connected_graph(rng.randint(1, 15), 0.3, rng.randint(0, 9999))
            trace = bfs_search(g)
            lines = split_lines("".join(trace.stage_lines()))
            assert len(lines) == g.vertex_count
            queues = []
            for alpha, line in enumerate(lines):
                head, _, rest = line.partition(" Q=(")
                queue, _, q = rest.partition(") q=")
                queues.append(tuple(map(int, queue.split())))
                # the processed set is always a prefix of the queue
                assert head == f"stage {alpha}: B={alpha}"
                assert int(q) == trace.visit_order[alpha]
                assert len(queues[-1]) >= alpha + 1
            # queues end-extend, up to the visit order
            for queue in queues:
                assert queue == trace.visit_order[: len(queue)]
            assert queues[-1] == trace.visit_order

    def test_stage_lines(self, six_cycle_tail):
        text = "".join(bfs_search(six_cycle_tail).stage_lines())
        assert text.startswith("stage 0: B=0 Q=(0) q=0\nstage 1: B=1 Q=(0 1 5) q=1\n")

    def test_stage_lines_match_brute_force_on_all_small_graphs(self):
        checked = 0
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                for start in range(n):
                    assert "".join(bfs_search(g, start).stage_lines()) == joined(
                        brute_force_bfs_lines(g, start)
                    )
                    checked += 1
        assert checked == 3807

    def test_stage_lines_match_brute_force_on_random_graphs(self):
        for g, start in random_graphs_with_long_names(24, 30):
            assert "".join(bfs_search(g, start).stage_lines()) == joined(brute_force_bfs_lines(g, start))

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            bfs_search(OrderedGraph(2))


class TestAltSearch:
    def test_six_cycle_tail_splits(self, six_cycle_tail):
        # greatest vertex 5 splits off {5, 3}; recursing gives the
        # concatenation (0,1,2,4) then (5,3)
        assert alt_search_with_counts(six_cycle_tail)[0] == (0, 1, 2, 4, 5, 3)

    def test_path(self):
        assert alt_search_with_counts(path_graph(3))[0] == (0, 1, 2)

    def test_triangle(self):
        g = cycle_graph(3)
        assert alt_search_with_counts(g)[0] == deterministic_search(g).visit_order

    def test_long_path_needs_no_recursion(self):
        # the split chain has depth ~n here, far past the interpreter's
        # default recursion limit
        n = 3000
        g = path_graph(n)
        assert alt_search_with_counts(g)[0] == tuple(range(n))

    def test_counts(self, six_cycle_tail):
        # The split sets are {0..5}, {0,1,2,4}, {0,1,2}, {0,1} and {5,3}.
        order, counts = alt_search_with_counts(six_cycle_tail)
        assert order == (0, 1, 2, 4, 5, 3)
        assert counts == {"splits": 5, "scanned": 6 + 4 + 3 + 2 + 2}

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            alt_search_with_counts(OrderedGraph(3, ((0, 1),)))
        # Every graph on up to five vertices from every start: the error
        # names the least vertex that reach leaves unmarked.
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = OrderedGraph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1))
                for start in range(n):
                    marks = reach(g, start)
                    if 0 not in marks:
                        continue
                    with pytest.raises(DisconnectedGraphError) as exc:
                        alt_search_with_counts(g, start)
                    assert (exc.value.vertex, exc.value.start) == (marks.index(0), start)

    def test_large_sparse_graph(self):
        # Mean degree about 6.  A kernel that rescans or re-searches the
        # split sets takes seconds here and the component tree about 0.1 s,
        # so the bound leaves room for a slow host.
        g = random_connected_graph(32_000, 0.00012, 32)
        g.adjacency  # built outside the timed region
        began = time.perf_counter()
        order, counts = alt_search_with_counts(g)
        elapsed = time.perf_counter() - began
        assert order == deterministic_search(g).visit_order
        assert counts == {"splits": 31_999, "scanned": max_cartesian_split_sum(order)}
        assert elapsed < 1.5


def max_cartesian_split_sum(order):
    """The total size of alt's split sets, read off its visit order.  The
    interval [a, b) of the order splits at the position p of the greatest
    vertex of order[a+1:b], into [a, p) and [p, b).  So position p >= 1
    splits the interval from the nearest earlier position >= 1 holding a
    greater vertex (else 0) to the nearest later one (else the end), and
    one stack finds both neighbors in O(n)."""
    n = len(order)
    left = [0] * n
    right = [n] * n
    stack = []
    for p in range(1, n):
        while stack and order[stack[-1]] < order[p]:
            right[stack.pop()] = p
        if stack:
            left[p] = stack[-1]
        stack.append(p)
    return sum(right[p] - left[p] for p in range(1, n))


def rescanning_alt(g, start):
    """Reference for ``alt_search_with_counts`` on a connected graph: every
    split filters its whole member list and searches v's side anew,
    O(n*(n+m)), and returns the same order and counters."""
    splits = scanned = 0
    order = []
    owner = [0] * g.vertex_count
    stack = [(list(range(g.vertex_count)), start, 0)]
    while stack:
        members, v, mid = stack.pop()
        if len(members) == 1:
            order.append(v)
            continue
        w = members[-1] if members[-1] != v else members[-2]
        splits += 1
        scanned += len(members)
        xid = splits
        owner[v] = xid
        todo = [v]
        while todo:
            for x in g.adjacency[todo.pop()]:
                if owner[x] == mid and x != w:
                    owner[x] = xid
                    todo.append(x)
        stack.append(([u for u in members if owner[u] == mid], w, mid))
        stack.append(([u for u in members if owner[u] == xid], v, xid))
    return tuple(order), {"splits": splits, "scanned": scanned}


@st.composite
def connected_graphs_with_start(draw, max_n=40):
    """A random spanning tree on a shuffled labeling plus random extra
    edges, and a start vertex."""
    n = draw(st.integers(1, max_n))
    label = draw(st.permutations(range(n)))
    pairs = [(label[i], label[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    return OrderedGraph(n, tuple(edges)), draw(st.integers(0, n - 1))


def _peeling_path(n):
    """The path 0, n-1, n-2, ..., 1: from 0 every split's X is v alone."""
    return OrderedGraph(n, ((0, n - 1),) + tuple((i, i + 1) for i in range(1, n - 1)))


def _cycle_with_hub(n, spacing):
    """A cycle on 0..n-2 and the hub n-1 joined to every spacing-th cycle
    vertex: the hub's neighbors lie far apart in one component, so the
    first split's searches run a long way and merge many times."""
    edges = [(i, i + 1) for i in range(n - 2)] + [(0, n - 2)]
    edges += [(i, n - 1) for i in range(0, n - 1, spacing)]
    return OrderedGraph(n, tuple(edges))


def _theta(n, branches):
    """branches paths of equal length between the hubs 0 and 1: each split
    inside a branch leaves its two sides joined only around the far hub."""
    length = (n - 2) // branches
    edges = []
    for b in range(branches):
        inner = list(range(2 + b * length, 2 + (b + 1) * length))
        edges += zip([0] + inner, inner + [1])
    return OrderedGraph(2 + branches * length, tuple(sorted((min(e), max(e)) for e in edges)))


def _random_tree(n, seed):
    """A random recursive tree on a shuffled labeling: removing a vertex
    splits its side into one component per neighbor."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    edges = ((label[i], label[rng.randrange(i)]) for i in range(1, n))
    return OrderedGraph(n, tuple(sorted((min(e), max(e)) for e in edges)))


class TestAltAgainstRescanning:
    """The component-tree kernel against the rescanning reference: the same
    order and the same counters.  The large cases use the O(n) references
    instead, which the exhaustive test checks against rescanning."""

    def test_every_connected_graph_to_five_vertices_from_every_start(self):
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                for start in range(n):
                    expected = rescanning_alt(g, start)
                    assert alt_search_with_counts(g, start) == expected, (g, start)
                    assert max_cartesian_split_sum(expected[0]) == expected[1]["scanned"], (g, start)

    @settings(max_examples=400, deadline=None)
    @given(connected_graphs_with_start())
    def test_random_graphs_to_forty_vertices(self, case):
        g, start = case
        assert alt_search_with_counts(g, start) == rescanning_alt(g, start)

    @pytest.mark.parametrize(
        "g,starts",
        [
            pytest.param(path_graph(2000), (0, 999), id="path"),
            pytest.param(star_graph(2000), (0, 1999), id="star"),
            pytest.param(cycle_graph(2000), (0, 1000), id="cycle"),
            pytest.param(_peeling_path(2000), (0,), id="peeling-path"),
            pytest.param(_cycle_with_hub(2000, 40), (0, 1999), id="cycle-with-hub"),
            pytest.param(_theta(2000, 8), (0, 500), id="theta"),
            pytest.param(_random_tree(2000, 11), (0, 1234), id="random-tree"),
            pytest.param(random_connected_graph(2000, 0.002, 12), (0,), id="sparse-random"),
        ],
    )
    def test_large_graphs(self, g, starts):
        for start in starts:
            order = deterministic_search(g, start).visit_order
            expected = {"splits": g.vertex_count - 1, "scanned": max_cartesian_split_sum(order)}
            assert alt_search_with_counts(g, start) == (order, expected), start


class TestLeastNeighborMap:
    # The map is a tuple indexed by vertex, and the root maps to itself.
    def test_six_cycle_tail_search_order(self, six_cycle_tail):
        assert least_neighbor_map(six_cycle_tail, (0, 1, 2, 4, 5, 3)) == (0, 0, 1, 5, 2, 0)

    def test_six_cycle_tail_bfs_order(self, six_cycle_tail):
        assert least_neighbor_map(six_cycle_tail, (0, 1, 5, 2, 3, 4)) == (0, 0, 1, 5, 5, 0)

    def test_path_identity(self):
        assert least_neighbor_map(path_graph(4), (0, 1, 2, 3)) == (0, 0, 1, 2)

    def test_triangle_identity(self):
        assert least_neighbor_map(cycle_graph(3), (0, 1, 2)) == (0, 0, 0)

    def test_rejects_isolated_non_first(self):
        g = OrderedGraph(2)
        with pytest.raises(ValueError):
            least_neighbor_map(g, (0, 1))

    def test_minimizes_position_not_vertex_number(self):
        rng = random.Random(29)
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 10), 0.5, rng.randint(0, 9999))
            order = random_traversal(g, rng)
            positions = invert_permutation(order)
            parent = least_neighbor_map(g, order)
            for v, p in enumerate(parent):
                if v == order[0]:
                    assert p == v
                    continue
                assert p in g.adjacency[v]
                assert all(positions[p] <= positions[u] for u in g.adjacency[v])


class TestTraversalTree:
    def test_six_cycle_tail(self, six_cycle_tail):
        tree = traversal_tree(six_cycle_tail, (0, 1, 2, 4, 5, 3))
        assert tree.edges == ((0, 1), (0, 5), (1, 2), (2, 4), (3, 5))

    def test_path_is_its_own_tree(self):
        g = path_graph(4)
        assert traversal_tree(g, (0, 1, 2, 3)) == g

    def test_triangle_becomes_star(self):
        assert traversal_tree(cycle_graph(3), (0, 1, 2)) == star_graph(3)

    def test_rejects_non_traversal(self):
        with pytest.raises(ValueError):
            traversal_tree(path_graph(3), (0, 2, 1))

    def test_rejects_what_is_traversal_rejects(self):
        # Every graph and every order on up to five vertices, connected or
        # not: the walk's verdict must agree with a prefix search that
        # shares no code with it, in is_traversal, traversal_tree,
        # least_neighbor_map, is_breadth_first and is_depth_first alike.
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = OrderedGraph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1))
                for order in itertools.permutations(range(n)):
                    if prefix_connected(g, order):
                        assert is_traversal(g, order)
                        tree = traversal_tree(g, order)
                        parent = least_neighbor_map(g, order)
                        assert tree == OrderedGraph(n, tuple((v, p) for v, p in enumerate(parent) if v != p))
                        is_breadth_first(g, order)  # judged, not rejected
                        continue
                    assert not is_traversal(g, order)
                    for call in (traversal_tree, least_neighbor_map, is_breadth_first, is_depth_first):
                        # try rather than pytest.raises: this runs about
                        # 340,000 times, and the context manager costs more
                        # than the call.
                        try:
                            call(g, order)
                        except NotATraversalError as exc:
                            assert str(exc) == "order is not a traversal of the graph"
                        else:
                            pytest.fail(f"{call.__name__} accepted {order} on {g}")

    @pytest.mark.parametrize(
        "g, order",
        [
            (OrderedGraph(0), ()),
            (OrderedGraph(0), (0,)),
            (path_graph(3), (0, 1)),
            (path_graph(3), (0, 1, 1)),
            (path_graph(3), (0, 5)),
            (path_graph(3), (0, 0, 7)),
        ],
    )
    def test_input_errors_match_is_traversal(self, g, order):
        with pytest.raises(ValueError) as expected:
            is_traversal(g, order)
        assert not isinstance(expected.value, NotATraversalError)
        for call in (traversal_tree, least_neighbor_map, is_breadth_first, is_depth_first):
            with pytest.raises(ValueError) as exc:
                call(g, order)
            assert type(exc.value) is ValueError
            assert str(exc.value) == str(expected.value)

    def test_trees_of_search_runs_are_canonical(self):
        for g, start in random_graphs_with_long_names(47, 30):
            for order in (deterministic_search(g, start).visit_order, bfs_search(g, start).visit_order):
                tree = traversal_tree(g, order)
                assert tree == OrderedGraph(tree.vertex_count, tree.edges)
                assert tree.adjacency == OrderedGraph(g.vertex_count, tree.edges).adjacency

    def test_tree_shape_properties(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_connected_graph(rng.randint(1, 14), 0.4, rng.randint(0, 9999))
            tau = deterministic_search(g).visit_order
            tree = traversal_tree(g, tau)
            assert len(tree.edges) == g.vertex_count - 1
            assert set(tree.edges) <= set(g.edges)
            assert is_traversal(tree, tau)


class TestFixedPointLaws:
    # The five laws themselves are criterion 5's, on 5,000 random graphs,
    # and the golden relabel-then-BFS composition is criterion 1's.

    def test_visit_orders_are_decreasing_traversals(self):
        rng = random.Random(43)
        for _ in range(40):
            g = random_connected_graph(rng.randint(1, 14), 0.35, rng.randint(0, 9999))
            for order in (
                deterministic_search(g).visit_order,
                bfs_search(g).visit_order,
            ):
                assert is_traversal(g, order)
                positions = invert_permutation(order)
                parents = least_neighbor_map(g, order)
                assert all(positions[parents[v]] < positions[v] for v in order[1:])

    def test_complete_graph_identity(self):
        g = complete_graph(5)
        assert deterministic_search(g).visit_order == (0, 1, 2, 3, 4)
        assert bfs_search(g).visit_order == (0, 1, 2, 3, 4)

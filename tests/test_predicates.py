import functools
import itertools
import math
import random
import time

import pytest

from conftest import (
    all_connected_graphs,
    complete_graph,
    cycle_graph,
    edge_masks,
    path_graph,
    prefix_connected,
    random_traversal,
    star_graph,
)
from ordsearch.graph import (
    DisconnectedGraphError,
    NotATraversalError,
    OrderedGraph,
    random_connected_graph,
)
from ordsearch.predicates import (
    closure_samples,
    enumerate_traversals,
    enumeration_lines,
    is_breadth_first,
    is_depth_first,
    is_traversal,
    level_decomposition,
    verify_colex_max,
    verify_identities,
    verify_lex_min,
    verify_quotient_stability,
    verify_subset_stability,
)
from ordsearch import predicates
from ordsearch.acceptance import _colex_key, _flood
from ordsearch.search import (
    BfsTrace,
    SearchTrace,
    alt_search_with_counts,
    bfs_search,
    deterministic_search,
    least_neighbor_map,
    traversal_tree,
)
from ordsearch.witness import build_bfs_tree_witness


def permutation_filter(g, predicate, fixed_start=None):
    if fixed_start is None:
        perms = itertools.permutations(range(g.vertex_count))
    else:
        others = [v for v in range(g.vertex_count) if v != fixed_start]
        perms = ((fixed_start,) + p for p in itertools.permutations(others))
    return {perm for perm in perms if predicate(g, perm)}


def safe_traversal(g, perm):
    return is_traversal(g, perm)


def safe_breadth_first(g, perm):
    return is_traversal(g, perm) and is_breadth_first(g, perm)


def safe_depth_first(g, perm):
    return is_traversal(g, perm) and is_depth_first(g, perm)


class TestIsTraversal:
    def test_path_forward(self):
        assert is_traversal(path_graph(3), (0, 1, 2))

    def test_path_disconnected_prefix(self):
        assert not is_traversal(path_graph(3), (0, 2, 1))

    def test_six_cycle_tail_bfs_order(self, six_cycle_tail):
        assert is_traversal(six_cycle_tail, (0, 1, 5, 2, 3, 4))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            is_traversal(path_graph(3), (0, 1, 1))

    def test_reconnecting_later_does_not_help(self):
        # prefix {1, 2} of the star is disconnected even though adding 0
        # reconnects everything
        assert not is_traversal(star_graph(3), (1, 2, 0))


class TestBreadthFirstPredicate:
    def test_six_cycle_tail_bfs_output(self, six_cycle_tail):
        assert is_breadth_first(six_cycle_tail, (0, 1, 5, 2, 3, 4))

    def test_six_cycle_tail_search_output(self, six_cycle_tail):
        assert not is_breadth_first(six_cycle_tail, (0, 1, 2, 4, 5, 3))

    def test_star_any_order_from_center(self):
        g = star_graph(4)
        for tail in itertools.permutations((1, 2, 3)):
            assert is_breadth_first(g, (0,) + tail)

    def test_raises_on_non_traversal(self):
        with pytest.raises(ValueError):
            is_breadth_first(path_graph(3), (0, 2, 1))

    def test_bfs_output_always_breadth_first(self):
        rng = random.Random(45)
        for _ in range(50):
            g = random_connected_graph(rng.randint(1, 14), 0.4, rng.randint(0, 9999))
            assert is_breadth_first(g, bfs_search(g).visit_order)


class TestDepthFirstPredicate:
    def test_path(self):
        assert is_depth_first(path_graph(3), (0, 1, 2))

    def test_star_scan(self):
        assert is_depth_first(star_graph(4), (0, 1, 2, 3))

    def test_six_cycle_tail_bfs_output_not_depth_first(self, six_cycle_tail):
        assert not is_depth_first(six_cycle_tail, (0, 1, 5, 2, 3, 4))

    def test_matches_naive_triple_scan(self):
        def naive(g, order):
            pos = {v: i for i, v in enumerate(order)}
            edges = set(g.edges) | {(v, u) for u, v in g.edges}
            for u, v, w in itertools.permutations(range(g.vertex_count), 3):
                if pos[u] < pos[v] < pos[w] and (u, w) in edges and (u, v) not in edges:
                    if not any(
                        pos[u] < pos[x] < pos[v] for x in g.adjacency[v]
                    ):
                        return False
            return True

        def check(g, order):
            # A non-traversal raises even where the depth-first rule fails
            # first, as in (0, 2, 4, 3, 1) on the edges 0-2, 0-4, 1-2, 1-3:
            # 4 is placed while 2 still has the unplaced neighbor 1, then 3
            # has no earlier neighbor.
            if not prefix_connected(g, order):
                with pytest.raises(NotATraversalError, match="^order is not a traversal of the graph$"):
                    is_depth_first(g, order)
                return None
            verdict = is_depth_first(g, order)
            assert verdict == naive(g, order), (g, order)
            return verdict

        for n in range(1, 6):
            for g in all_connected_graphs(n):
                for perm in itertools.permutations(range(n)):
                    check(g, perm)
        # Beyond n = 5: search and BFS outputs, random traversals and
        # random permutations of sampled graphs.
        rng = random.Random(53)
        verdicts = []
        for _ in range(300):
            n = rng.randint(6, 10)
            g = random_connected_graph(n, rng.uniform(0.15, 0.7), rng.randint(0, 9999))
            start = rng.randrange(n)
            for order in (
                deterministic_search(g, start).visit_order,
                bfs_search(g, start).visit_order,
                random_traversal(g, rng),
                tuple(rng.sample(range(n), n)),
            ):
                verdicts.append(check(g, order))
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100

    def test_linear_time_on_a_star(self):
        # A quadratic check takes seconds at this size and one pass takes
        # milliseconds, so the bound leaves room for a slow host.
        g = star_graph(20_000)
        order = tuple(range(20_000))
        start = time.perf_counter()
        assert is_depth_first(g, order)
        assert time.perf_counter() - start < 0.5


class TestComparators:
    def test_colex_inverse_path_orders(self):
        # keys read positions of vertex 2, then 1, then 0
        assert _colex_key((0, 1, 2)) > _colex_key((1, 0, 2))
        assert _colex_key((1, 2, 0)) > _colex_key((2, 1, 0))

    def test_colex_key_explicit(self):
        assert _colex_key((0, 1, 2)) == (2, 1, 0)
        assert _colex_key((1, 0, 2)) == (2, 0, 1)


class TestEnumerateTraversals:
    # The orders come back in lexicographic order, so each comparison with
    # sorted brute-force output checks the order as well as the content.
    def test_triangle_from_zero(self):
        ts = enumerate_traversals(cycle_graph(3), "all", fixed_start=0)
        assert ts.orders == ((0, 1, 2), (0, 2, 1))

    def test_path_all_starts(self):
        ts = enumerate_traversals(path_graph(3), "all")
        assert ts.orders == ((0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0))

    def test_complete_graph_all_permutations(self):
        ts = enumerate_traversals(complete_graph(3), "all")
        assert len(ts) == 6

    def test_matches_permutation_filter_small(self):
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                for kind, pred in (
                    ("all", safe_traversal),
                    ("breadth_first", safe_breadth_first),
                    ("depth_first", safe_depth_first),
                ):
                    ts = enumerate_traversals(g, kind)
                    assert ts.sorted_orders() == sorted(permutation_filter(g, pred))

    def test_matches_permutation_filter_sampled(self):
        rng = random.Random(47)
        for _ in range(25):
            g = random_connected_graph(rng.randint(5, 7), 0.45, rng.randint(0, 9999))
            start = rng.randrange(g.vertex_count)
            for kind, pred in (
                ("all", safe_traversal),
                ("breadth_first", safe_breadth_first),
                ("depth_first", safe_depth_first),
            ):
                assert enumerate_traversals(g, kind, fixed_start=start).sorted_orders() == sorted(
                    permutation_filter(g, pred, fixed_start=start)
                )

    @pytest.mark.parametrize(
        "g, kind, count",
        [
            (complete_graph(8), "all", math.factorial(8)),
            (path_graph(8), "all", 2**7),
            (star_graph(8), "all", 2 * math.factorial(7)),
            (complete_graph(8), "breadth_first", math.factorial(8)),
            (complete_graph(8), "depth_first", math.factorial(8)),
        ],
        ids=["complete-all", "path-all", "star-all", "complete-bfs", "complete-dfs"],
    )
    def test_closed_form_counts_at_eight_vertices(self, g, kind, count):
        orders = enumerate_traversals(g, kind).orders
        assert len(orders) == count
        assert all(a < b for a, b in zip(orders, orders[1:]))

    @pytest.mark.parametrize(
        "g, counts",
        [(path_graph(9), (256, 16, 16)), (cycle_graph(9), (1152, 18, 18))],
        ids=["path", "cycle"],
    )
    def test_closed_form_counts_at_the_top_mask_bit(self, g, counts):
        # Vertex 8 is bit 1 << 8, the highest the envelope allows.
        for kind, count in zip(predicates.KINDS, counts):
            orders = enumerate_traversals(g, kind).orders
            assert len(orders) == count
            assert all(a < b for a, b in zip(orders, orders[1:]))

    def test_matches_permutation_filter_at_nine_vertices(self):
        g = random_connected_graph(9, 0.4, 2018)
        for kind, pred in (
            ("all", safe_traversal),
            ("breadth_first", safe_breadth_first),
            ("depth_first", safe_depth_first),
        ):
            assert enumerate_traversals(g, kind, fixed_start=8).sorted_orders() == sorted(
                permutation_filter(g, pred, fixed_start=8)
            )

    def test_vertex_envelope(self):
        assert len(enumerate_traversals(path_graph(predicates.MAX_ENUMERATION_VERTICES))) == 2 ** (
            predicates.MAX_ENUMERATION_VERTICES - 1
        )
        too_many = path_graph(predicates.MAX_ENUMERATION_VERTICES + 1)
        with pytest.raises(ValueError, match="enumeration is limited to"):
            enumerate_traversals(too_many)
        with pytest.raises(ValueError, match="enumeration is limited to"):
            verify_colex_max(too_many)

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            enumerate_traversals(OrderedGraph(2), "all")

    def test_disconnected_errors_name_the_least_unreached_vertex(self):
        # From 0 only {0, 3} is reachable; every entry point reports vertex 1.
        g = OrderedGraph(5, ((0, 3), (1, 2), (2, 4)))
        for call in (
            lambda: deterministic_search(g),
            lambda: bfs_search(g),
            lambda: alt_search_with_counts(g),
            lambda: enumerate_traversals(g),
        ):
            with pytest.raises(DisconnectedGraphError) as exc:
                call()
            assert (exc.value.vertex, exc.value.start) == (1, 0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            enumerate_traversals(path_graph(2), "widest_first")


LEX_MIN_PASS = [("lex-min-traversal", True), ("lex-min-breadth-first", True)]
COLEX_MAX_PASS = [("colex-max-inverse", True)]


class TestExtremality:
    # The verifiers return mappings, which are truthy whenever nonempty, so
    # every verdict and its name are compared, in CLI order.
    def test_complete_graph(self):
        assert list(verify_lex_min(complete_graph(3)).items()) == LEX_MIN_PASS
        assert list(verify_colex_max(complete_graph(3)).items()) == COLEX_MAX_PASS

    def test_six_cycle_tail(self, six_cycle_tail):
        assert list(verify_lex_min(six_cycle_tail).items()) == LEX_MIN_PASS
        assert list(verify_colex_max(six_cycle_tail).items()) == COLEX_MAX_PASS

    def test_path_from_zero_unique(self):
        assert list(verify_colex_max(path_graph(3)).items()) == COLEX_MAX_PASS

    def test_each_verdict_judged_on_its_own(self, monkeypatch, six_cycle_tail):
        # A breadth-first kernel gone wrong fails its own verdict only; a
        # search kernel gone wrong fails both verdicts that read its order.
        wrong = BfsTrace((0, 5, 1, 2, 3, 4), six_cycle_tail)
        monkeypatch.setattr(predicates, "bfs_search", lambda g, start: wrong)
        assert verify_lex_min(six_cycle_tail) == {
            "lex-min-traversal": True,
            "lex-min-breadth-first": False,
        }
        monkeypatch.setattr(
            predicates, "deterministic_search", lambda g, start: SearchTrace(wrong.visit_order, g)
        )
        assert verify_lex_min(six_cycle_tail)["lex-min-traversal"] is False
        assert verify_colex_max(six_cycle_tail) == {"colex-max-inverse": False}

    def test_colex_max_beats_all_starts_on_path(self):
        # among all four traversals of the path, not just those from 0
        ts = enumerate_traversals(path_graph(3), "all")
        best = max(ts.orders, key=_colex_key)
        assert best == (0, 1, 2)

    def test_exhaustive_small(self):
        for n in range(1, 5):
            for g in all_connected_graphs(n):
                assert list(verify_lex_min(g).items()) == LEX_MIN_PASS
                assert list(verify_colex_max(g).items()) == COLEX_MAX_PASS

    def test_least_order_is_the_first_order_of_the_walk(self):
        for n in range(1, 7):
            for g in all_connected_graphs(n):
                for kind in ("all", "breadth_first"):
                    # The walk's first line, made without the rest.
                    first = next(enumeration_lines(g, kind, 0))
                    assert predicates._least_order(g, kind) == tuple(map(int, first.split()))


def formatted(orders, n):
    return "".join(("%d " * (n - 1) + "%d\n") % o for o in orders)


class TestFoldedWalk:
    # One walk folds each order into a tuple, an output line or an integer
    # colex key, and yields at depth n - 2 with the last vertex forced.

    def test_lines_match_the_formatted_orders_exhaustively(self):
        # Every kind, with no start and with every start, on every connected
        # graph up to five vertices.  At six vertices every graph is walked
        # once, kind and start taking their turns over the 26,704 graphs:
        # every pair on all of them would take about 25 s.
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                for kind in predicates.KINDS:
                    for start in (None, *range(n)):
                        expected = formatted(enumerate_traversals(g, kind, start).orders, n)
                        assert "".join(enumeration_lines(g, kind, start)) == expected
        turns = [(kind, start) for kind in predicates.KINDS for start in (None, *range(6))]
        for i, g in enumerate(all_connected_graphs(6)):
            kind, start = turns[i % len(turns)]
            expected = formatted(enumerate_traversals(g, kind, start).orders, 6)
            assert "".join(enumeration_lines(g, kind, start)) == expected

    def test_one_vertex_yields_its_start(self):
        g = OrderedGraph(1)
        for kind in predicates.KINDS:
            for start in (None, 0):
                assert enumerate_traversals(g, kind, start).orders == ((0,),)
                assert list(enumeration_lines(g, kind, start)) == ["0\n"]
        assert verify_colex_max(g) == {"colex-max-inverse": True}

    @pytest.mark.parametrize(
        "g, kind, start, error",
        [
            (OrderedGraph(2), "all", None, DisconnectedGraphError),
            (path_graph(3), "all", 3, ValueError),
            (path_graph(10), "all", None, ValueError),
            (OrderedGraph(0), "all", None, ValueError),
            (path_graph(2), "widest_first", None, ValueError),
        ],
        ids=["disconnected", "start-out-of-range", "ten-vertices", "empty", "unknown-kind"],
    )
    def test_lines_are_checked_before_the_walk_starts(self, g, kind, start, error):
        # Raised by the call itself, before any line is asked for.
        with pytest.raises(error):
            enumeration_lines(g, kind, start)

    def test_colex_verdict_matches_the_tuple_key_exhaustively(self):
        # The old per-order key tuple judges the integer fold: the verdict,
        # and the integer of every order from 0 read off the key's digits,
        # on every connected graph up to five vertices.  At six, criterion 3
        # finds the colex maximum with the oracle's own traversals and
        # asserts it is the search output, so the verdict must be PASS.
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                orders = enumerate_traversals(g, "all", 0).orders
                tau = deterministic_search(g, 0).visit_order
                best = max(orders, key=_colex_key)
                assert verify_colex_max(g) == {"colex-max-inverse": tau == best}
                keys = list(predicates._lex_walk(g, "all", (0,), predicates._colex_terms(n)))
                assert keys == [
                    functools.reduce(lambda a, p: a * n + p, _colex_key(o), 0)
                    for o in orders
                ]
        for g in all_connected_graphs(6):
            assert verify_colex_max(g) == {"colex-max-inverse": True}

    def test_colex_verdict_compares_the_searched_order(self, monkeypatch):
        # The search output is the colex maximum, so on real runs the
        # verdict is always PASS; hand it every traversal from 0 instead.
        for n in range(1, 5):
            for g in all_connected_graphs(n):
                orders = enumerate_traversals(g, "all", 0).orders
                best = max(orders, key=_colex_key)
                for order in orders:
                    monkeypatch.setattr(
                        predicates, "deterministic_search", lambda g, start: SearchTrace(order, g)
                    )
                    assert verify_colex_max(g) == {"colex-max-inverse": order == best}


def drawn_seed_sets(n, seed, draws):
    """The seed sets the sampler draws, in order.  Its random calls depend
    on n and the seed only, not on the graph."""
    rng = random.Random(seed)
    drawn = []
    for _ in range(draws):
        size = rng.randint(1, min(3, n))
        drawn.append(frozenset(rng.sample(range(n), size)))
    return drawn


def closure(parent, seeds):
    """The seed set closed under the least-neighbor map, as the sampler
    closed it before it stopped at saturation."""
    pending = set(seeds)
    closed = set()
    while pending:
        v = pending.pop()
        closed.add(v)
        if parent[v] not in closed:
            pending.add(parent[v])
    return frozenset(closed)


def reference_samples(closures, count):
    """The sampler's loop before it stopped at saturation, on the closures
    of its draws: the first ``count`` distinct sets among the first
    20·count draws, all of which it made when fewer sets exist."""
    out = []
    seen = set()
    for key in closures[: 20 * count]:
        if len(out) == count:
            break
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


SAMPLE_COUNTS = (1, 3, 12, 25, 40)


class TestClosureSamples:
    def test_matches_the_full_loop_exhaustively(self):
        # The sampler reads only n and the run's least-neighbor map, so one
        # run per distinct map covers every connected graph with n <= 6.
        # Every seed 0-9 runs on each map up to n = 5, and one seed per map
        # (in turn) on the 1,296 maps with n = 6, which keeps the test to a
        # few seconds.
        for n in range(1, 7):
            drawn = {seed: drawn_seed_sets(n, seed, 20 * max(SAMPLE_COUNTS)) for seed in range(10)}
            seed_sets = set().union(*drawn.values())
            runs = {}
            for g in all_connected_graphs(n):
                run = deterministic_search(g)
                runs.setdefault(run.least_neighbors, run)
            for index, (parent, run) in enumerate(runs.items()):
                closed = {s: closure(parent, s) for s in seed_sets}
                for seed in range(10) if n <= 5 else [index % 10]:
                    closures = [closed[s] for s in drawn[seed]]
                    for count in SAMPLE_COUNTS:
                        expected = reference_samples(closures, count)
                        assert closure_samples(run, seed, count) == expected, (parent, seed, count)

    def test_matches_the_full_loop_on_random_graphs(self):
        rng = random.Random(18)
        for _ in range(60):
            n = rng.choice([rng.randint(1, 12), rng.randint(13, 200)])
            run = deterministic_search(random_connected_graph(n, rng.choice([0.05, 0.3]), rng.randint(0, 9999)))
            seed, count = rng.randint(0, 999), rng.choice(SAMPLE_COUNTS)
            closures = [closure(run.least_neighbors, s) for s in drawn_seed_sets(n, seed, 20 * count)]
            assert closure_samples(run, seed, count) == reference_samples(closures, count), (n, seed, count)

    def test_stops_at_the_draw_that_yields_the_last_set(self, monkeypatch):
        # A path searched from 0 has exactly its 5 prefixes as closed sets.
        run = deterministic_search(path_graph(5))
        draws = 0

        class Counting(random.Random):
            def randint(self, a, b):
                nonlocal draws
                draws += 1
                return super().randint(a, b)

        for seed in range(10):
            closures = [closure(run.least_neighbors, s) for s in drawn_seed_sets(5, seed, 240)]
            last = max(closures.index(w) for w in set(closures))
            assert len(set(closures)) == 5 and last < 239
            draws = 0
            with monkeypatch.context() as patch:
                patch.setattr(predicates.random, "Random", Counting)
                assert len(closure_samples(run, seed, 12)) == 5
            assert draws == last + 1

    def test_closure_of_root_is_trivial(self, six_cycle_tail):
        tau = deterministic_search(six_cycle_tail).visit_order
        parent = least_neighbor_map(six_cycle_tail, tau)
        closed = {4}
        while True:
            extra = {parent[v] for v in closed} - closed
            if not extra:
                break
            closed |= extra
        assert closed == {0, 1, 2, 4}

    def test_samples_satisfy_precondition(self):
        rng = random.Random(49)
        for _ in range(20):
            g = random_connected_graph(rng.randint(1, 12), 0.4, rng.randint(0, 9999))
            run = deterministic_search(g)
            for w in closure_samples(run, rng.randint(0, 999), 8):
                assert verify_subset_stability(run, w)

    def test_deterministic(self):
        run = deterministic_search(random_connected_graph(10, 0.4, 7))
        assert closure_samples(run, 5, 6) == closure_samples(run, 5, 6)


@pytest.fixture
def six_run(six_cycle_tail):
    return deterministic_search(six_cycle_tail)


class TestSubsetStability:
    def test_reports_violating_vertex(self, six_run):
        # {0, 1, 4} misses 4's parent 2
        with pytest.raises(ValueError, match="vertex 4"):
            verify_subset_stability(six_run, {0, 1, 4})


class TestQuotientStability:
    def test_traversal_split(self, six_run):
        # tau = (0,1,2,4,5,3); both halves are intervals, connected, closed
        assert verify_quotient_stability(six_run, [{0, 1, 2, 4}, {5, 3}])

    def test_rejects_non_interval(self, six_run):
        with pytest.raises(ValueError, match="interval"):
            verify_quotient_stability(six_run, [{0, 1, 3}, {2, 4, 5}])

    def test_rejects_non_partition(self, six_run):
        with pytest.raises(ValueError, match="partition"):
            verify_quotient_stability(six_run, [{0, 1}, {1, 2, 3, 4, 5}])

    def test_quotient_graph_is_canonical(self, monkeypatch, six_run):
        searched = []

        def spy(g, start=0):
            searched.append(g)
            return deterministic_search(g, start)

        monkeypatch.setattr(predicates, "deterministic_search", spy)
        assert verify_quotient_stability(six_run, [{0, 1, 2, 4}, {5, 3}])
        assert searched == [OrderedGraph(2, ((0, 1),))]
        # With singleton parts the quotient is the graph itself, edge order
        # included.
        rng = random.Random(29)
        for _ in range(30):
            g = random_connected_graph(rng.randint(1, 40), 0.2, rng.randint(0, 9999))
            searched.clear()
            assert verify_quotient_stability(deterministic_search(g), [{v} for v in range(g.vertex_count)])
            assert searched == [g]

    @pytest.mark.parametrize("parts", [[{0}, {1, 2}, {3}], [{0}, {1}, {2, 3}]])
    def test_rejects_part_connected_only_through_another(self, parts):
        # On a star the leaves 1, 2, 3 are intervals of (0, 1, 2, 3) but
        # meet only at the centre, which lies outside the part; the second
        # leaf's parent is the centre, so the part is not closed.
        with pytest.raises(ValueError, match="closed"):
            verify_quotient_stability(deterministic_search(star_graph(4)), parts)


def test_closed_parts_are_connected_exhaustively():
    # verify_quotient_stability checks no connectivity, because a part that
    # is closed under the least-neighbor map except at its first element is
    # connected.  Check that on every interval of the search run from 0 of
    # every connected graph with n <= 6, against the acceptance suite's
    # bitmask flood fill.
    closed_parts = 0
    for n in range(1, 7):
        for g in all_connected_graphs(n):
            neighbors = edge_masks(g)
            run = deterministic_search(g)
            tau, positions, parent = run.visit_order, run.positions, run.least_neighbors
            for i in range(n):
                part = 0
                for j in range(i, n):
                    # Parents come earlier, so a part stays closed until a
                    # new last element's parent falls before the part.
                    if j > i and positions[parent[tau[j]]] < i:
                        break
                    part |= 1 << tau[j]
                    assert _flood(neighbors, 1 << tau[i], part) == part, (g, tau[i : j + 1])
                    closed_parts += 1
    assert closed_parts == 361_608


@pytest.mark.parametrize(
    "g, verdict, arg, message",
    [
        (path_graph(6), verify_subset_stability, {0, 9}, "vertex set out of range"),
        (path_graph(6), verify_subset_stability, {-1, 0}, "vertex set out of range"),
        (path_graph(6), verify_subset_stability, set(), "vertex set must be nonempty"),
        (path_graph(3), verify_quotient_stability, [{0, 1, 2}, set()], "parts do not partition"),
    ],
    ids=["subset-above", "subset-negative", "subset-empty", "quotient-empty-part"],
)
def test_stability_verdicts_reject_malformed_vertex_sets(g, verdict, arg, message):
    with pytest.raises(ValueError, match=message):
        verdict(deterministic_search(g), arg)


def test_stability_verdicts_reject_a_run_not_from_vertex_zero(six_cycle_tail):
    run = deterministic_search(six_cycle_tail, 1)
    for verdict in (
        lambda: closure_samples(run, 0, 3),
        lambda: verify_subset_stability(run, range(6)),
        lambda: verify_quotient_stability(run, [set(range(6))]),
    ):
        with pytest.raises(ValueError, match="from vertex 0, not from 1"):
            verdict()


def test_identities_reject_a_negative_probe_count(six_cycle_tail):
    with pytest.raises(ValueError, match="^probes must be >= 0, not -1$"):
        verify_identities(six_cycle_tail, -1)


@pytest.mark.parametrize(
    "call",
    [
        is_traversal,
        is_breadth_first,
        is_depth_first,
        least_neighbor_map,
        traversal_tree,
        level_decomposition,
    ],
    ids=[
        "is_traversal",
        "is_breadth_first",
        "is_depth_first",
        "least_neighbor_map",
        "traversal_tree",
        "level_decomposition",
    ],
)
def test_empty_graph_has_no_traversals(call):
    with pytest.raises(ValueError) as exc:
        call(OrderedGraph(0), ())
    assert str(exc.value) == "no traversals of the empty graph"


LEVELS_PASS = {
    "acyclic": True,
    "levels-are-intervals": True,
    "levels-in-order": True,
    "parents-one-level-up": True,
}


class TestLevelDecomposition:
    def test_depth_two_binary_tree(self):
        g = build_bfs_tree_witness(2, 2)
        order = bfs_search(g).visit_order
        levels, verdict = level_decomposition(g, order)
        assert [len(l) for l in levels] == [1, 2, 4]
        assert list(verdict.items()) == list(LEVELS_PASS.items())

    def test_walks_the_least_neighbor_map_once(self, monkeypatch):
        walks = []

        def counting(g, order):
            walks.append(order)
            return least_neighbor_map(g, order)

        monkeypatch.setattr(predicates, "least_neighbor_map", counting)
        g = build_bfs_tree_witness(2, 3)
        assert level_decomposition(g, bfs_search(g).visit_order)[1] == LEVELS_PASS
        assert len(walks) == 1

    def test_single_vertex(self):
        levels, verdict = level_decomposition(OrderedGraph(1), (0,))
        assert levels == (frozenset({0}),)
        assert verdict == LEVELS_PASS

    def test_path_from_end(self):
        g = path_graph(4)
        levels, verdict = level_decomposition(g, (0, 1, 2, 3))
        assert [sorted(l) for l in levels] == [[0], [1], [2], [3]]
        assert verdict == LEVELS_PASS

    def test_cycle_skips_structure_checks(self):
        g = cycle_graph(4)
        order = bfs_search(g).visit_order
        levels, verdict = level_decomposition(g, order)
        assert [sorted(l) for l in levels] == [[0], [1, 3], [2]]
        assert verdict == {"acyclic": False}

    def test_rejects_non_breadth_first(self, six_cycle_tail):
        with pytest.raises(ValueError, match="breadth-first"):
            level_decomposition(six_cycle_tail, (0, 1, 2, 4, 5, 3))

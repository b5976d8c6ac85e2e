"""The acceptance suite: nine self-contained checks covering the golden
examples, the ordinal bound function, exhaustive extremality at small sizes,
algorithm equivalence, the fixed-point laws, stability, the witness builds,
breadth-first level structure, and predicate equivalences.

Each criterion is a function that raises AssertionError on failure.  The
brute-force sides of the checks (prefix walks, bitmask graph enumeration,
independent decompositions, the literal three-vertex breadth-first condition
of Corneil and Krueger, 2008) are local to this module, so they share no code
path with the library routines they judge; the tests judge with them too.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .graph import OrderedGraph, random_connected_graph, relabel
from .ordinal import ONE, OMEGA, Ordinal, cofinality, fundamental_sequence, omega_power, omega_quot_rem, zeta
from .predicates import (
    _bfs_after_search,
    closure_samples,
    is_breadth_first,
    is_traversal,
    level_decomposition,
    verify_identities,
    verify_stability,
)
from .search import alt_search_with_counts, bfs_search, deterministic_search
from .witness import build_bfs_tree_witness, build_zeta_witness, verify_witness

SIX_CYCLE_TAIL = OrderedGraph(6, ((0, 1), (1, 2), (2, 4), (4, 5), (5, 0), (3, 5)))

CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26_704}


# -- small-graph machinery (oracle side) ------------------------------------


def iter_connected_adjacency(n: int) -> Iterator[list[int]]:
    """All labeled connected graphs on n vertices as adjacency bitmasks."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        adj = [0] * n
        b = bits
        i = 0
        while b:
            if b & 1:
                u, v = pairs[i]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            b >>= 1
            i += 1
        if _flood(adj, 1, (1 << n) - 1) == (1 << n) - 1:
            yield adj


def _flood(adj: list[int], seed: int, within: int) -> int:
    """The vertices of the bitmask ``within`` that the bitmask ``seed``
    reaches through edges inside it."""
    reached = frontier = seed
    while frontier:
        grown = 0
        v = 0
        while frontier:
            if frontier & 1:
                grown |= adj[v]
            frontier >>= 1
            v += 1
        frontier = grown & within & ~reached
        reached |= frontier
    return reached


def graph_from_adjacency(adj: list[int]) -> OrderedGraph:
    n = len(adj)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1
    ]
    return OrderedGraph(n, tuple(edges))


def _traversals_from_zero(adj: list[int]) -> list[tuple[int, ...]]:
    """Every traversal from vertex 0, in lexicographic order, grown one
    vertex at a time: a connected prefix stays connected after adding u iff
    u has a neighbor in it, so no other order is ever built."""
    n = len(adj)
    full = (1 << n) - 1
    order = [0]
    out = []

    def grow(placed: int) -> None:
        if placed == full:
            out.append(tuple(order))
            return
        for u in range(n):
            if adj[u] & placed and not placed >> u & 1:
                order.append(u)
                grow(placed | 1 << u)
                order.pop()

    grow(1)
    return out


def _prefix_connected(adj: list[int], order: tuple[int, ...]) -> bool:
    """Every initial segment of the order induces a connected subgraph:
    each prefix is flooded from its first vertex inside the prefix."""
    prefix = 0
    for v in order:
        prefix |= 1 << v
        if _flood(adj, 1 << order[0], prefix) != prefix:
            return False
    return True


def _breadth_first_triples(adj: list[int], order: tuple[int, ...]) -> bool:
    """The literal three-vertex breadth-first condition: whenever
    u < v < w in the order, u and w adjacent but u and v not, some x < u
    is adjacent to v."""
    # before holds the vertices ahead of u, rest those after u, and after
    # those after v.
    before = 0
    rest = (1 << len(order)) - 1
    for i, u in enumerate(order):
        rest &= ~(1 << u)
        after = rest
        for v in order[i + 1 :]:
            after &= ~(1 << v)
            if not adj[u] >> v & 1 and adj[u] & after and not adj[v] & before:
                return False
        before |= 1 << u
    return True


def _colex_key(order: tuple[int, ...]) -> tuple[int, ...]:
    positions = [0] * len(order)
    for i, v in enumerate(order):
        positions[v] = i
    return tuple(reversed(positions))


# -- ordinal sampling ---------------------------------------------------------


def sample_ordinal_below_omega4(rng: random.Random) -> Ordinal:
    exponents = sorted(rng.sample(range(4), rng.randint(0, 4)), reverse=True)
    return Ordinal(tuple((Ordinal.from_int(e), rng.randint(1, 9)) for e in exponents))


def _local_quot_rem(a: Ordinal) -> tuple[Ordinal, int]:
    """Independent decomposition a = w*b + n for finite-exponent ordinals."""
    n = 0
    terms = []
    for e, c in a.terms:
        ei = e.to_int()
        if ei == 0:
            n = c
        else:
            terms.append((Ordinal.from_int(ei - 1), c))
    return Ordinal(tuple(terms)), n


# -- criteria -----------------------------------------------------------------


def criterion_golden_triple() -> None:
    """Exact search and breadth-first outputs on the 6-vertex cycle-and-tail
    graph, and BFS after search as ``verify_identities``'s note composes it."""
    g = SIX_CYCLE_TAIL
    beta = bfs_search(g).visit_order
    tau = deterministic_search(g).visit_order
    assert beta == (0, 1, 5, 2, 3, 4), beta
    assert tau == (0, 1, 2, 4, 5, 3), tau
    mapped_back = _bfs_after_search(tau, relabel(g, tau))
    assert mapped_back == (0, 1, 5, 2, 4, 3), mapped_back


def criterion_zeta_formula() -> None:
    """The bound function agrees with w^b*(n+1) on 10,000 samples below w^4
    and satisfies monotonicity, the sum bound, the product identity at limits
    and limit continuity through fundamental sequences."""
    rng = random.Random(2024)
    samples = [sample_ordinal_below_omega4(rng) for _ in range(10_000)]
    for a in samples:
        beta, n = _local_quot_rem(a)
        assert omega_quot_rem(a) == (beta, n)
        expected = a if a.is_finite else omega_power(beta) * Ordinal.from_int(n + 1)
        assert zeta(a) == expected, a
    for a, b in zip(samples, samples[1:]):
        lo, hi = (a, b) if a <= b else (b, a)
        assert zeta(lo) <= zeta(hi)
        if not a.is_zero:
            assert zeta(a + b) <= zeta(a) * zeta(ONE + b)
        if cofinality(a) == OMEGA:
            assert zeta(a + b) == zeta(a) * zeta(ONE + b)
    slack = 8
    checked = 0
    for beta in samples:
        if not beta.is_limit:
            continue
        if checked >= 300:
            break
        checked += 1
        zb = zeta(beta)
        values = [zeta(fundamental_sequence(beta, i)) for i in range(10 + slack + 1)]
        for i, v in enumerate(values):
            assert v < zb
            if i:
                assert values[i - 1] < v
        for j in range(10):
            target = fundamental_sequence(zb, j)
            assert any(target <= values[i] for i in range(j + slack + 1))
    assert checked >= 200


def criterion_lex_colex_exhaustive() -> None:
    """On every labeled connected graph with at most 6 vertices the search
    output is the lex-least traversal from 0, its inverse is colex-greatest,
    and the breadth-first output is the least traversal that meets the literal
    three-vertex condition; each comparison's other side is a bitmask walk
    over connected prefixes."""
    for n in range(1, 7):
        count = 0
        for adj in iter_connected_adjacency(n):
            count += 1
            g = graph_from_adjacency(adj)
            tau = deterministic_search(g).visit_order
            beta = bfs_search(g).visit_order
            traversals = _traversals_from_zero(adj)
            assert tau == min(traversals), (g, tau)
            assert tau == max(traversals, key=_colex_key), (g, tau)
            # Traversals come in lex order: the first breadth-first one is least.
            assert beta == next(t for t in traversals if _breadth_first_triples(adj, t)), (g, beta)
        assert count == CONNECTED_GRAPH_COUNTS[n], (n, count)


def criterion_alt_equivalence() -> None:
    """The divide-and-conquer traversal equals deterministic search:
    exhaustively at n <= 5, on 20,000 sampled graphs with n <= 7, and on
    1,000 random graphs with n <= 14."""
    for n in range(1, 6):
        for adj in iter_connected_adjacency(n):
            g = graph_from_adjacency(adj)
            assert alt_search_with_counts(g)[0] == deterministic_search(g).visit_order
    rng = random.Random(404)
    for count, top, low, high in ((20_000, 7, 0.1, 1.0), (1_000, 14, 0.05, 0.9)):
        for _ in range(count):
            g = random_connected_graph(rng.randint(1, top), rng.uniform(low, high), rng.randrange(1 << 30))
            start = rng.randrange(g.vertex_count)
            assert alt_search_with_counts(g, start)[0] == deterministic_search(g, start).visit_order


def criterion_fixed_point_laws() -> None:
    """The five fixed-point laws of ``verify_identities`` hold on 5,000
    random connected graphs; the identity order is a traversal of 2,645 of
    them."""
    rng = random.Random(505)
    fixed = 0
    for _ in range(5_000):
        g = random_connected_graph(rng.randint(1, 20), rng.uniform(0.1, 0.9), rng.randrange(1 << 30))
        verdicts, notes = verify_identities(g)
        assert all(verdicts.values()), (g, verdicts)
        fixed += "search-fixes-traversals" not in notes
    assert fixed == 2_645, fixed


def criterion_stability() -> None:
    """``verify_stability`` passes on 10,000 sampled parent-closed sets.
    Quotient stability on every witness block partition is criterion 7's
    "quotient-stability" verdict, on the same runs and blocks."""
    rng = random.Random(606)
    total = 0
    while total < 10_000:
        g = random_connected_graph(rng.randint(2, 12), rng.uniform(0.15, 0.8), rng.randrange(1 << 30))
        run = deterministic_search(g)
        sets = closure_samples(run, rng.randrange(1 << 30), 25)
        verdicts, _ = verify_stability(run, sets)
        assert all(verdicts.values()), (g, verdicts)
        total += len(sets)


def _witness_grid() -> Iterator[tuple[int, int, int]]:
    for m in range(0, 3):
        for n in range(0, 4):
            if m + n == 0:
                continue
            for k in range(1, 21):
                yield m, n, k
    for n in range(0, 2):
        for k in range(1, 9):
            yield 3, n, k


def criterion_witness_suite() -> None:
    """Every in-envelope witness build passes all four certificate checks; in
    particular the compositionally predicted traversal equals the search
    output exactly."""
    for m, n, k in _witness_grid():
        verdict = verify_witness(build_zeta_witness(m, n, k))
        assert all(verdict.values()), (m, n, k, verdict)


def criterion_bfs_levels() -> None:
    """Complete b-ary trees under 50 random input orders: levels are
    intervals in order with exact sizes b^i and parents one level up."""
    rng = random.Random(808)
    for b in (2, 3, 4):
        for d in range(1, 7):
            tree = build_bfs_tree_witness(b, d)
            expected_sizes = [b**i for i in range(d + 1)]
            orders = [tuple(range(tree.vertex_count))]
            for _ in range(50):
                perm = list(range(tree.vertex_count))
                rng.shuffle(perm)
                orders.append(tuple(perm))
            for perm in orders:
                g = relabel(tree, perm)
                visit = bfs_search(g, perm.index(0)).visit_order
                levels, verdict = level_decomposition(g, visit)
                assert all(verdict.values()), (b, d, perm)
                assert [len(l) for l in levels] == expected_sizes


def criterion_predicate_equivalences() -> None:
    """Exhaustively on all permutations of all connected graphs with n <= 5:
    ``is_traversal`` agrees with prefix connectivity, and on traversals
    ``is_breadth_first`` agrees with the literal three-vertex condition;
    both references are bitmask walks."""
    for n in range(1, 6):
        for adj in iter_connected_adjacency(n):
            g = graph_from_adjacency(adj)
            for perm in itertools.permutations(range(n)):
                t = _prefix_connected(adj, perm)
                assert is_traversal(g, perm) == t, (g, perm)
                if t:
                    assert is_breadth_first(g, perm) == _breadth_first_triples(adj, perm), (g, perm)


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    budget_seconds: float
    run: Callable[[], None]


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "golden-triple", 1.0, criterion_golden_triple),
    Criterion(2, "zeta-formula", 10.0, criterion_zeta_formula),
    Criterion(3, "lex-colex-exhaustive", 180.0, criterion_lex_colex_exhaustive),
    Criterion(4, "alt-equivalence", 120.0, criterion_alt_equivalence),
    Criterion(5, "fixed-point-laws", 60.0, criterion_fixed_point_laws),
    Criterion(6, "stability", 60.0, criterion_stability),
    Criterion(7, "witness-suite", 60.0, criterion_witness_suite),
    Criterion(8, "bfs-levels", 30.0, criterion_bfs_levels),
    Criterion(9, "predicate-equivalences", 30.0, criterion_predicate_equivalences),
)


def run_criterion(criterion: Criterion) -> tuple[bool, str]:
    """Execute one criterion; returns whether it passed inside its budget,
    and its verdict line."""
    start = time.perf_counter()
    passed, detail = True, ""
    try:
        criterion.run()
    except AssertionError as exc:
        passed, detail = False, str(exc)
    elapsed = time.perf_counter() - start
    in_budget = elapsed <= criterion.budget_seconds
    ok = passed and in_budget
    line = f"criterion {criterion.number} {criterion.name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
    if passed and not in_budget:
        line += f" [exceeded budget of {criterion.budget_seconds:.0f}s]"
    if detail:
        line += f" [{detail[:120]}]"
    return ok, line


def run_all(criteria: Iterable[Criterion]) -> bool:
    """Run the criteria, printing one verdict line each; True iff all passed
    inside their budgets."""
    all_ok = True
    for criterion in criteria:
        ok, line = run_criterion(criterion)
        print(line)
        all_ok = all_ok and ok
    return all_ok

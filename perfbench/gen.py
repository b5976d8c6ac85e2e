"""Seeded input generator for the benchmark.

Everything the benchmark feeds to ordsearch is made here, from the workload
seed alone, in O(n + m) time per graph.  ordsearch receives only the text, so
a change to ordsearch's own ``random`` command cannot change any workload.

Graphs are plain records of the benchmark (vertex count plus an edge list);
ordinals are nested tuples in Cantor normal form, ``((exponent, coeff), ...)``
with exponents in the same form and ``()`` for zero.  Python's tuple order on
that form is the ordinal order, which the generator uses to sort exponents.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

HELD_OUT_SEED = 20181024
"""A seed kept out of tuning; a claimed gain must also hold on it."""


def rng_for(seed: int, name: str) -> random.Random:
    """An independent stream per input, so adding an input to one workload
    leaves every other input of the same seed unchanged."""
    return random.Random(f"perfbench/{seed}/{name}")


@dataclass
class Graph:
    """A generated graph: the edge list is in emission order and orientation,
    which is what the text carries; ``cache`` holds oracle results."""

    n: int
    edges: list[tuple[int, int]]
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    def text(self) -> str:
        lines = [f"n {self.n}"]
        lines.extend(f"e {u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _shuffled_edges(edges: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    # Emit in random order and orientation so parsing and normalizing do the
    # work a hand-written file would need.
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return out


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random recursive tree on a random labelling: vertex perm[i] joins a
    uniformly chosen earlier vertex.  O(n)."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[rng.randrange(i)], perm[i]) for i in range(1, n)]


def skip_pairs(n: int, p: float, rng: random.Random):
    """Each unordered pair (w, v), w < v < n, independently with probability
    p, by geometric skipping (Batagelj & Brandes, Phys. Rev. E 71, 2005):
    O(n + number of pairs yielded)."""
    if p <= 0:
        return
    if p >= 1:
        for v in range(1, n):
            for w in range(v):
                yield w, v
        return
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            yield w, v


def sparse_connected(n: int, avg_degree: float, rng: random.Random) -> Graph:
    """Connected graph with about avg_degree * n / 2 edges: a random spanning
    tree plus independent extra pairs placed by geometric skipping."""
    tree = random_tree(n, rng)
    pairs = n * (n - 1) // 2
    extra = max(0.0, avg_degree * n / 2 - (n - 1))
    seen = {(min(u, v), max(u, v)) for u, v in tree}
    edges = list(seen)
    for key in skip_pairs(n, extra / max(1, pairs - (n - 1)), rng):
        if key not in seen:
            seen.add(key)
            edges.append(key)
    return Graph(n, _shuffled_edges(edges, rng))


def star(n: int, rng: random.Random) -> Graph:
    """Star whose centre is a random vertex other than 0."""
    centre = rng.randrange(1, n)
    return Graph(n, _shuffled_edges([(centre, v) for v in range(n) if v != centre], rng))


def small_connected(n: int, extra: int, rng: random.Random) -> Graph:
    """Connected graph on n vertices: a random tree plus ``extra`` distinct
    further edges (capped at the complete graph)."""
    tree = {(min(u, v), max(u, v)) for u, v in random_tree(n, rng)}
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    chosen = rng.sample(rest, min(extra, len(rest)))
    return Graph(n, _shuffled_edges(sorted(tree) + chosen, rng))


# -- ordinals ----------------------------------------------------------------

ZERO: tuple = ()
ONE = ((ZERO, 1),)
OMEGA = ((ONE, 1),)


def finite(k: int) -> tuple:
    return ((ZERO, k),) if k else ZERO


def is_finite(a: tuple) -> bool:
    return not a or (len(a) == 1 and a[0][0] == ZERO)


def random_ordinal(rng: random.Random, depth: int) -> tuple:
    """A random ordinal below epsilon_0 whose exponents nest at most
    ``depth`` levels deep."""
    if depth == 0:
        return finite(rng.randint(0, 9))
    exponents = {random_ordinal(rng, depth - 1) for _ in range(rng.randint(1, 3))}
    return tuple((e, rng.randint(1, 9)) for e in sorted(exponents, reverse=True))


def ordinal_text(a: tuple) -> str:
    """Canonical text: ``^1`` and ``*1`` omitted, compound exponents in
    parentheses."""
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if e == ZERO:
            parts.append(str(c))
            continue
        if e == ONE:
            s = "w"
        elif is_finite(e):
            s = f"w^{e[0][1]}"
        elif e == OMEGA:
            s = "w^w"
        else:
            s = f"w^({ordinal_text(e)})"
        if c != 1:
            s += f"*{c}"
        parts.append(s)
    return "+".join(parts)


def deep_tower_text(depth: int) -> str:
    """``w^(w^(...(w)...))`` with ``depth`` nested exponents."""
    return "w^(" * depth + "w" + ")" * depth


# -- inputs that test the exit-code contract ----------------------------------


def malformed_graph_text(rng: random.Random) -> str:
    """A graph text with exactly one defect, which must be answered with
    exit code 2."""
    n = rng.randint(3, 9)
    good = [f"e {i} {i + 1}" for i in range(n - 1)]
    kind = rng.randrange(6)
    if kind == 0:
        bad = f"e 0 {n + rng.randint(0, 5)}"  # endpoint out of range
    elif kind == 1:
        v = rng.randrange(n)
        bad = f"e {v} {v}"  # self-loop
    elif kind == 2:
        bad = good[rng.randrange(len(good))]  # duplicate edge
    elif kind == 3:
        bad = "x 1 2"  # unknown directive
    elif kind == 4:
        bad = "e 1 two"  # not a number
    else:
        return "\n".join(good) + "\n"  # no vertex count line
    lines = good[:]
    lines.insert(rng.randrange(len(lines) + 1), bad)
    return f"n {n}\n" + "\n".join(lines) + "\n"

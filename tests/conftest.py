import functools
import hashlib
import io

import pytest

from ordsearch.acceptance import SIX_CYCLE_TAIL, _prefix_connected, graph_from_adjacency, iter_connected_adjacency
from ordsearch.graph import OrderedGraph


class DigestSink(io.TextIOBase):
    """A text stream that keeps only a running hash and a byte count of
    what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.size = 0

    def writable(self):
        return True

    def write(self, text):
        data = text.encode()
        self.digest.update(data)
        self.size += len(data)
        return len(text)


def text_digest(lines):
    """(sha256 hex digest, byte count) of the text made of the given lines."""
    data = "".join(lines).encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def path_graph(n: int) -> OrderedGraph:
    return OrderedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> OrderedGraph:
    return OrderedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> OrderedGraph:
    return OrderedGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(n: int) -> OrderedGraph:
    """Center 0 with n - 1 leaves."""
    return OrderedGraph(n, tuple((0, i) for i in range(1, n)))


@functools.cache
def all_connected_graphs(n):
    """Every labeled connected graph on n vertices, in the order of their
    edge subsets, made once per n and kept for the test run.  They come
    from the acceptance suite's brute force, whose bitmask flood fill
    shares no code with the library's ``is_connected``."""
    return tuple(map(graph_from_adjacency, iter_connected_adjacency(n)))


def edge_masks(g):
    """The acceptance suite's graph form: one neighbor bitmask per vertex,
    built from g.edges rather than the library's adjacency index."""
    masks = [0] * g.vertex_count
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def prefix_connected(g, order):
    """Reference traversal test: the acceptance suite's prefix flood fill
    on g's edge masks.  Calls no library predicate."""
    return _prefix_connected(edge_masks(g), order)


def random_traversal(g, rng):
    """A traversal of connected g drawn step by step: a random start, then
    each time a random unplaced vertex with a placed neighbor."""
    start = rng.randrange(g.vertex_count)
    order, placed = [start], {start}
    while len(order) < g.vertex_count:
        v = rng.choice(
            [v for v in range(g.vertex_count) if v not in placed and placed.intersection(g.adjacency[v])]
        )
        order.append(v)
        placed.add(v)
    return tuple(order)


@pytest.fixture
def six_cycle_tail() -> OrderedGraph:
    """The 6-vertex graph used throughout: the 5-cycle 0-1-2-4-5-0 with the
    extra vertex 3 hanging off 5."""
    return SIX_CYCLE_TAIL

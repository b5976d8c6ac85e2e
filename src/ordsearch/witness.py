"""Finite truncations of the graphs whose search traversals realize the
order-type bound, with their predicted traversals and block certificates.

The target order type is encoded by (m, n): alpha = w*m + n, and the bound
value is w^m * (n+1).  The untruncated construction splits the vertex order
into a low part S and a set T of anchors (vertex 0 plus the top of the
order), puts a path on the anchors, splits S into one piece per anchor, puts
a recursively built graph on each piece, and wires each piece's least vertex
to its anchor.  Every occurrence of "infinitely many" is replaced by the same
finite depth k:

* m = 0: a path on n+1 vertices (all anchors, no pieces);
* n = 0, m = 1: a path on k vertices, the truncated ray;
* n > 0: n+1 anchors, each carrying a truncated witness for w*m; the pieces
  interleave through the middle of the vertex order (vertex v of the middle
  belongs to piece (v-1) mod (n+1));
* n = 0, m >= 2: k anchors, each carrying a truncated witness for w*(m-1);
  the pieces are consecutive runs of the middle (row-major).

The predicted traversal is assembled compositionally: blocks follow the
anchors' order and inside a block the anchor comes first, then the piece's
own predicted traversal.  A block is the tuple of its members in that
order, so its first member is its anchor.  The search itself is never
consulted for the prediction; agreement with the actual search output is a
checked verdict.

Nothing is copied or sorted that the output does not need.  The build emits
every edge as (min, max), so one sort over its presorted runs makes the
edges canonical, and the top-level blocks are slices of the predicted
traversal.  ``verify_witness`` returns its four verdicts by name; its
private helper ``predicates._block_verdicts`` checks the blocks in O(n);
``format_manifest`` yields the certificate in pieces, the graph's as
``graph.serialize`` makes them and one format for each other line.  The
envelope (``MAX_M``, ``MAX_N``, ``MAX_K``) bounds the builds;
``graph.MAX_VERTICES`` bounds parsed and random graphs only.  The largest
build, (3, 6, 64), has 1,864,135 vertices, 1.86 times that bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import OrderedGraph, Traversal, serialize
from .ordinal import OMEGA, Ordinal, zeta
from .predicates import _block_verdicts
from .search import deterministic_search

MAX_M = 3
MAX_N = 6
MAX_K = 64


@dataclass(frozen=True)
class WitnessBuild:
    graph: OrderedGraph
    predicted: Traversal
    blocks: tuple[tuple[int, ...], ...]
    m: int
    n: int
    k: int
    nesting_depth: int

    @property
    def alpha(self) -> Ordinal:
        """Input order type of the untruncated construction (1 + w*m + n)."""
        if self.m == 0:
            return Ordinal.from_int(self.n + 1)
        return OMEGA * Ordinal.from_int(self.m) + Ordinal.from_int(self.n)

    @property
    def zeta_value(self) -> Ordinal:
        return zeta(self.alpha)


def _check_envelope(m: int, n: int, k: int) -> None:
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m >= 0, n >= 0 and m + n >= 1")
    if m > MAX_M or n > MAX_N or not 1 <= k <= MAX_K:
        raise ValueError(
            f"parameters outside the supported envelope (m <= {MAX_M}, n <= {MAX_N}, 1 <= k <= {MAX_K})"
        )


def _top_block_count(m: int, n: int, k: int) -> int:
    """Number of anchors at the top level, one block each."""
    return n + 1 if (n > 0 or m == 0) else k


def _anchor_layout(anchor_count: int, piece_size: int) -> tuple[int, list[int]]:
    """Total size and the anchor vertices in anchor order (vertex 0, then the
    top anchor_count - 1 vertices)."""
    total = anchor_count * (piece_size + 1)
    anchors = [0] + [total - anchor_count + 1 + j for j in range(anchor_count - 1)]
    return total, anchors


def _piece_vertices(n: int, anchor_count: int, piece_size: int, total: int) -> list[list[int]]:
    """Split the middle of the vertex order (everything between vertex 0 and
    the top anchors) into one piece per anchor: interleaved for finite tails,
    consecutive runs for the truncated-limit case.  Each piece ascends."""
    middle = range(1, total - anchor_count + 1)
    if n > 0:
        return [list(middle[i::anchor_count]) for i in range(anchor_count)]
    return [
        list(middle[i * piece_size : (i + 1) * piece_size])
        for i in range(anchor_count)
    ]


_Part = tuple[int, list[tuple[int, int]], Sequence[int], int]
"""A build's size, its edges as (min, max) pairs, its predicted traversal and
its nesting depth."""


def _path(size: int, depth: int) -> _Part:
    return size, [(i, i + 1) for i in range(size - 1)], range(size), depth


def _build(m: int, n: int, k: int) -> _Part:
    """The truncated witness, with every edge emitted as (min, max): the
    anchor path ascends, vertex 0 lies below piece 0 and every other anchor
    above its piece, and each piece ascends, so the piece's own edges keep
    their orientation."""
    if m == 0:
        return _path(n + 1, 0)
    if m == 1 and n == 0:
        return _path(k, 1)
    if n > 0:
        size, piece_edges, piece_order, depth = _build(m, 0, k)
        anchor_count = n + 1
    else:
        size, piece_edges, piece_order, depth = _build(m - 1, 0, k)
        anchor_count = k
        depth += 1
    total, anchors = _anchor_layout(anchor_count, size)
    pieces = _piece_vertices(n, anchor_count, size, total)
    edges = list(zip(anchors, anchors[1:]))
    predicted: list[int] = []
    for anchor, verts in zip(anchors, pieces):
        edges.append((anchor, verts[0]) if anchor == 0 else (verts[0], anchor))
        edges.extend([(verts[a], verts[b]) for a, b in piece_edges])
        predicted.append(anchor)
        predicted.extend(map(verts.__getitem__, piece_order))
    return total, edges, predicted, depth


def build_zeta_witness(m: int, n: int, k: int) -> WitnessBuild:
    """Truncated witness for target order type w*m + n at depth k."""
    _check_envelope(m, n, k)
    size, edges, predicted, depth = _build(m, n, k)
    # The edges are (min, max) already and listed once, in presorted runs:
    # one sort makes them canonical, and the checking constructor is skipped.
    edges.sort()
    predicted = tuple(predicted)
    # Each top-level block is the anchor followed by its piece: a slice.
    step = size // _top_block_count(m, n, k)
    blocks = tuple(predicted[i : i + step] for i in range(0, size, step))
    return WitnessBuild(
        graph=OrderedGraph._canonical(size, tuple(edges)),
        predicted=predicted,
        blocks=blocks,
        m=m,
        n=n,
        k=k,
        nesting_depth=depth,
    )


def verify_witness(build: WitnessBuild) -> dict[str, bool]:
    """The build's four certificate verdicts by name, in CLI order, against
    an actual search run: the search output is the prediction, the blocks
    pass ``predicates._block_verdicts``, and the block profile and nesting
    depth are the ones (m, n, k) asks for."""
    run = deterministic_search(build.graph, 0)
    blocks = build.blocks
    return {
        "predicted-traversal": run.visit_order == build.predicted,
        **_block_verdicts(run, blocks),
        "zeta-profile": len(blocks) == _top_block_count(build.m, build.n, build.k)
        and len(set(map(len, blocks))) == 1
        and build.nesting_depth == build.m,
    }


def build_bfs_tree_witness(branching: int, depth: int) -> OrderedGraph:
    """Complete ``branching``-ary tree of the given depth, vertices numbered
    level by level with the root 0."""
    if branching < 2:
        raise ValueError("branching factor must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if branching**depth > 10**6:
        raise ValueError("tree too large (branching**depth must be <= 10**6)")
    total = (branching ** (depth + 1) - 1) // (branching - 1)
    internal = (branching**depth - 1) // (branching - 1)
    # Parents ascend and each one's children ascend above it, so the edges
    # come out canonical.
    edges = tuple(
        (v, branching * v + 1 + j) for v in range(internal) for j in range(branching)
    )
    return OrderedGraph._canonical(total, edges)


def format_manifest(build: WitnessBuild) -> Iterator[str]:
    """Printable witness certificate, in pieces of whole lines: parameters,
    the graph as ``serialize`` writes it, the predicted traversal and one
    line per block, each of those lines made by one format."""
    yield f"witness m={build.m} n={build.n} k={build.k} alpha={build.alpha} zeta={build.zeta_value}\n"
    yield "# truncated construction; the block certificate is evidence, not proof\n"
    yield from serialize(build.graph)
    yield ("predicted: " + " ".join(["%d"] * len(build.predicted)) + "\n") % build.predicted
    for block in build.blocks:
        yield ("block: anchor=%d members=" + " ".join(["%d"] * len(block)) + "\n") % (block[0], *block)

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
own predicted traversal.  The search itself is never consulted for the
prediction; agreement with the actual search output is a checked verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import OrderedGraph, Traversal, serialize
from .ordinal import OMEGA, Ordinal, zeta
from .predicates import _interval_anchors, _is_partition, _quotient_stable
from .search import deterministic_search

MAX_M = 3
MAX_N = 6
MAX_K = 64


@dataclass(frozen=True)
class Block:
    """An interval of the predicted traversal; the anchor is its first
    element."""

    anchor: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class WitnessBuild:
    graph: OrderedGraph
    predicted: Traversal
    blocks: tuple[Block, ...]
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


@dataclass(frozen=True)
class WitnessVerdict:
    predicted_matches_search: bool
    blocks_are_intervals: bool
    quotient_stable: bool
    profile_matches: bool

    def all_pass(self) -> bool:
        return all(self.by_name().values())

    def by_name(self) -> dict[str, bool]:
        """The four verdicts under their CLI names, in CLI order."""
        return {
            "predicted-traversal": self.predicted_matches_search,
            "block-intervals": self.blocks_are_intervals,
            "quotient-stability": self.quotient_stable,
            "zeta-profile": self.profile_matches,
        }


@dataclass(frozen=True)
class _Part:
    size: int
    edges: tuple[tuple[int, int], ...]
    predicted: tuple[int, ...]
    blocks: tuple[Block, ...]
    depth: int


def _check_envelope(m: int, n: int, k: int) -> None:
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m >= 0, n >= 0 and m + n >= 1")
    if m > MAX_M or n > MAX_N or not 1 <= k <= MAX_K:
        raise ValueError(
            f"parameters outside the supported envelope (m <= {MAX_M}, n <= {MAX_N}, 1 <= k <= {MAX_K})"
        )


def _anchor_layout(anchor_count: int, piece_size: int) -> tuple[int, list[int]]:
    """Total size and the anchor vertices in anchor order (vertex 0, then the
    top anchor_count - 1 vertices)."""
    total = anchor_count * (piece_size + 1)
    anchors = [0] + [total - anchor_count + 1 + j for j in range(anchor_count - 1)]
    return total, anchors


def _piece_vertices(n: int, anchor_count: int, piece_size: int, total: int) -> list[list[int]]:
    """Split the middle of the vertex order (everything between vertex 0 and
    the top anchors) into one piece per anchor: interleaved for finite tails,
    consecutive runs for the truncated-limit case."""
    middle = range(1, total - anchor_count + 1)
    if n > 0:
        return [
            [v for v in middle if (v - 1) % anchor_count == i]
            for i in range(anchor_count)
        ]
    return [
        list(middle[i * piece_size : (i + 1) * piece_size])
        for i in range(anchor_count)
    ]


def _identity_part(size: int, depth: int) -> _Part:
    edges = tuple((i, i + 1) for i in range(size - 1))
    blocks = tuple(Block(i, (i,)) for i in range(size))
    return _Part(size, edges, tuple(range(size)), blocks, depth)


def _build(m: int, n: int, k: int) -> _Part:
    if m == 0:
        return _identity_part(n + 1, 0)
    if m == 1 and n == 0:
        return _identity_part(k, 1)
    if n > 0:
        piece = _build(m, 0, k)
        anchor_count = n + 1
        depth = piece.depth
    else:
        piece = _build(m - 1, 0, k)
        anchor_count = k
        depth = piece.depth + 1
    total, anchors = _anchor_layout(anchor_count, piece.size)
    pieces = _piece_vertices(n, anchor_count, piece.size, total)
    edges = [(anchors[i], anchors[i + 1]) for i in range(anchor_count - 1)]
    predicted: list[int] = []
    blocks: list[Block] = []
    for i in range(anchor_count):
        verts = pieces[i]
        edges.append((anchors[i], verts[0]))
        edges.extend((verts[a], verts[b]) for a, b in piece.edges)
        transported = tuple(verts[j] for j in piece.predicted)
        predicted.append(anchors[i])
        predicted.extend(transported)
        blocks.append(Block(anchors[i], (anchors[i],) + transported))
    return _Part(total, tuple(edges), tuple(predicted), tuple(blocks), depth)


def build_zeta_witness(m: int, n: int, k: int) -> WitnessBuild:
    """Truncated witness for target order type w*m + n at depth k."""
    _check_envelope(m, n, k)
    part = _build(m, n, k)
    # _build lists each edge once, but not all as (min, max): normalize and
    # sort once, and skip the checking constructor.
    edges = [(u, v) if u < v else (v, u) for u, v in part.edges]
    edges.sort()
    return WitnessBuild(
        graph=OrderedGraph._canonical(part.size, tuple(edges)),
        predicted=part.predicted,
        blocks=part.blocks,
        m=m,
        n=n,
        k=k,
        nesting_depth=part.depth,
    )


def verify_witness(build: WitnessBuild) -> WitnessVerdict:
    """Check the build's certificate against an actual search run."""
    run = deterministic_search(build.graph, 0)
    actual = run.visit_order
    predicted_ok = actual == build.predicted

    # The block certificate and the quotient check share one partition and
    # interval check.  The blocks' member lists partition the vertices iff
    # their sets do and no list repeats a member.  Anchors are looked up
    # only then: an empty block or a member outside the graph fails both.
    parts = [set(b.members) for b in build.blocks]
    blocks_ok = quotient_ok = False
    if _is_partition(parts, build.graph.vertex_count):
        anchors = _interval_anchors(actual, run.positions, parts)
        blocks_ok = all(
            len(part) == len(block.members) and block.members[0] == block.anchor == anchor
            for block, part, anchor in zip(build.blocks, parts, anchors)
        )
        try:
            quotient_ok = _quotient_stable(run, parts, anchors)
        except ValueError:
            pass

    expected_top = build.n + 1 if (build.n > 0 or build.m == 0) else build.k
    sizes = {len(b.members) for b in build.blocks}
    profile_ok = (
        len(build.blocks) == expected_top
        and len(sizes) == 1
        and build.nesting_depth == build.m
    )
    return WitnessVerdict(predicted_ok, blocks_ok, quotient_ok, profile_ok)


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


def format_manifest(build: WitnessBuild) -> str:
    """Printable witness certificate: parameters, the graph, the predicted
    traversal and one line per block."""
    lines = [
        f"witness m={build.m} n={build.n} k={build.k} "
        f"alpha={build.alpha} zeta={build.zeta_value}",
        "# truncated construction; the block certificate is evidence, not proof",
    ]
    lines.append(serialize(build.graph).rstrip("\n"))
    lines.append("predicted: " + " ".join(map(str, build.predicted)))
    for block in build.blocks:
        lines.append(
            f"block: anchor={block.anchor} members=" + " ".join(map(str, block.members))
        )
    return "\n".join(lines) + "\n"

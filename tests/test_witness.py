import tracemalloc
from dataclasses import replace

import pytest

from conftest import path_graph, star_graph
from ordsearch.acceptance import _witness_grid
from ordsearch.graph import OrderedGraph
from ordsearch.ordinal import Ordinal
from ordsearch.predicates import level_decomposition, verify_quotient_stability
from ordsearch.search import bfs_search, deterministic_search
from ordsearch.witness import (
    Block,
    WitnessBuild,
    _anchor_layout,
    _build,
    _piece_vertices,
    build_bfs_tree_witness,
    build_zeta_witness,
    format_manifest,
    verify_witness,
)


class TestBuildZetaWitness:
    def test_one_omega_plus_one_depth_two(self):
        b = build_zeta_witness(1, 1, 2)
        assert b.graph == OrderedGraph(6, ((0, 1), (1, 3), (2, 4), (5, 2), (0, 5)))
        assert b.predicted == (0, 1, 3, 5, 2, 4)
        assert [(blk.anchor, set(blk.members)) for blk in b.blocks] == [
            (0, {0, 1, 3}),
            (5, {5, 2, 4}),
        ]
        # independent confirmation: run the search on the built graph
        assert deterministic_search(b.graph).visit_order == b.predicted

    def test_finite_base_is_path(self):
        for k in (1, 5, 20):
            b = build_zeta_witness(0, 3, k)
            assert b.graph == path_graph(4)
            assert b.predicted == (0, 1, 2, 3)
            assert b.nesting_depth == 0

    def test_ray_base(self):
        b = build_zeta_witness(1, 0, 3)
        assert b.graph == path_graph(3)
        assert b.predicted == (0, 1, 2)
        assert b.nesting_depth == 1

    def test_anchor_pieces_interleave_for_finite_part(self):
        b = build_zeta_witness(1, 1, 2)
        assert {tuple(sorted(blk.members)) for blk in b.blocks} == {(0, 1, 3), (2, 4, 5)}

    def test_rejects_outside_envelope(self):
        for m, n, k in [(0, 0, 3), (4, 0, 2), (0, 7, 2), (1, 1, 0), (1, 1, 65), (-1, 2, 3)]:
            with pytest.raises(ValueError):
                build_zeta_witness(m, n, k)

    def test_alpha_and_zeta_fields(self):
        b = build_zeta_witness(1, 1, 4)
        assert b.alpha == Ordinal.parse("w+1")
        assert b.zeta_value == Ordinal.parse("w*2")
        base = build_zeta_witness(0, 3, 1)
        assert base.alpha == Ordinal.from_int(4)
        assert base.zeta_value == Ordinal.from_int(4)


class TestVerifyWitness:
    def test_hand_checked_build(self):
        verdict = verify_witness(build_zeta_witness(1, 1, 2))
        assert verdict.all_pass()
        assert list(verdict.by_name().items()) == [
            ("predicted-traversal", True),
            ("block-intervals", True),
            ("quotient-stability", True),
            ("zeta-profile", True),
        ]

    def test_finite_bases_pass(self):
        for n in range(0, 5):
            if n == 0:
                continue
            assert verify_witness(build_zeta_witness(0, n, 1)).all_pass()

    def test_small_grid_passes(self):
        for m in range(0, 3):
            for n in range(0, 4):
                if m + n == 0:
                    continue
                for k in (1, 2, 3, 5, 8):
                    build = build_zeta_witness(m, n, k)
                    verdict = verify_witness(build)
                    assert verdict.all_pass(), (m, n, k, verdict)

    def test_spot_check_depth_three(self):
        assert verify_witness(build_zeta_witness(3, 0, 4)).all_pass()
        assert verify_witness(build_zeta_witness(3, 1, 4)).all_pass()

    def test_spot_check_wide_envelope(self):
        assert verify_witness(build_zeta_witness(1, 6, 64)).all_pass()
        assert verify_witness(build_zeta_witness(2, 6, 32)).all_pass()

    def test_detects_wrong_prediction(self):
        good = build_zeta_witness(1, 1, 2)
        bad = WitnessBuild(
            graph=good.graph,
            predicted=tuple(reversed(good.predicted)),
            blocks=good.blocks,
            m=good.m,
            n=good.n,
            k=good.k,
            nesting_depth=good.nesting_depth,
        )
        verdict = verify_witness(bad)
        assert not verdict.predicted_matches_search
        assert not verdict.all_pass()

    def test_malformed_blocks_fail_without_raising(self):
        good = build_zeta_witness(1, 1, 2)
        first, *rest = good.blocks
        # The four verdicts, in CLI order.
        for blocks, verdicts in (
            (good.blocks + (Block(0, ()),), (True, False, False, False)),  # an empty block
            ((Block(first.anchor, (0, 1, 3, 9)), *rest), (True, False, False, False)),  # outside the graph
            ((Block(first.anchor, (0, 1, 3, -1)), *rest), (True, False, False, False)),  # negative
            # A member repeated within its own block still partitions the
            # vertices, so only the block check fails on the length.
            ((Block(first.anchor, (0, 1, 3, 1)), *rest), (True, False, True, False)),
            ((Block(first.anchor, (0, 1)), *rest), (True, False, False, False)),  # vertex 3 missing
            ((Block(first.anchor, (0, 1, 3, 5)), *rest), (True, False, False, False)),  # 5 in two blocks
        ):
            verdict = verify_witness(replace(good, blocks=blocks))
            assert tuple(verdict.by_name().values()) == verdicts, blocks


def truncation_embedding(m, n, k):
    """Vertex map from build(m, n, k) into build(m, n, k+1).

    Entry v is the vertex of the deeper build playing the role vertex v
    plays in the shallower one: anchors map to anchors in order (the extra
    anchor of the deeper build is skipped) and pieces embed recursively."""
    if m == 0:
        return tuple(range(n + 1))
    if m == 1 and n == 0:
        return tuple(range(k))
    if n > 0:
        sub = truncation_embedding(m, 0, k)
        small_size, big_size = _build(m, 0, k)[0], _build(m, 0, k + 1)[0]
        anchor_count_small = anchor_count_big = n + 1
    else:
        sub = truncation_embedding(m - 1, 0, k)
        small_size, big_size = _build(m - 1, 0, k)[0], _build(m - 1, 0, k + 1)[0]
        anchor_count_small, anchor_count_big = k, k + 1
    total_s, anchors_s = _anchor_layout(anchor_count_small, small_size)
    total_b, anchors_b = _anchor_layout(anchor_count_big, big_size)
    pieces_s = _piece_vertices(n, anchor_count_small, small_size, total_s)
    pieces_b = _piece_vertices(n, anchor_count_big, big_size, total_b)
    mapping = {}
    for i in range(anchor_count_small):
        mapping[anchors_s[i]] = anchors_b[i]
        for local, v in enumerate(pieces_s[i]):
            mapping[v] = pieces_b[i][sub[local]]
    return tuple(mapping[v] for v in range(total_s))


class TestTruncationCoherence:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 0), (2, 2), (0, 3), (1, 0), (3, 0)])
    def test_deeper_build_extends_shallower(self, m, n):
        for k in (1, 2, 3, 5):
            small = build_zeta_witness(m, n, k)
            big = build_zeta_witness(m, n, k + 1)
            emb = truncation_embedding(m, n, k)
            image = set(emb)
            restricted = [v for v in big.predicted if v in image]
            assert [emb[v] for v in small.predicted] == restricted

    def test_block_counts_and_sizes_grow_with_k(self):
        for m, n in [(1, 1), (2, 0), (2, 3)]:
            previous = None
            for k in range(1, 12):
                b = build_zeta_witness(m, n, k)
                profile = (len(b.blocks), sorted(len(blk.members) for blk in b.blocks))
                if previous is not None:
                    assert profile[0] >= previous[0]
                    assert all(
                        new >= old for new, old in zip(profile[1], previous[1])
                    )
                previous = profile


class TestBfsTreeWitness:
    def test_depth_two_binary(self):
        g = build_bfs_tree_witness(2, 2)
        assert g.vertex_count == 7
        assert g.edges == ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6))

    def test_bfs_identity_and_levels(self):
        g = build_bfs_tree_witness(2, 2)
        order = bfs_search(g).visit_order
        assert order == tuple(range(7))
        levels, verdict = level_decomposition(g, order)
        assert [len(l) for l in levels] == [1, 2, 4]
        assert verdict.all_pass()

    def test_branching_three_depth_one_is_star(self):
        assert build_bfs_tree_witness(3, 1) == star_graph(4)

    def test_level_sizes_exact(self):
        for b in (2, 3, 4):
            for d in (1, 2, 3):
                g = build_bfs_tree_witness(b, d)
                levels, verdict = level_decomposition(g, bfs_search(g).visit_order)
                assert [len(l) for l in levels] == [b**i for i in range(d + 1)]
                assert verdict.all_pass()

    def test_rejects_envelope(self):
        with pytest.raises(ValueError):
            build_bfs_tree_witness(1, 3)
        with pytest.raises(ValueError):
            build_bfs_tree_witness(10, 7)


def test_builders_emit_canonical_graphs():
    # The builders skip the checking constructor, so each graph must equal
    # the one that constructor makes from the same edges: normalized, without
    # duplicates, sorted.
    def assert_canonical(g):
        assert OrderedGraph(g.vertex_count, g.edges) == g

    for m, n, k in _witness_grid():
        assert_canonical(build_zeta_witness(m, n, k).graph)
    for b in (2, 3, 4):
        for d in range(1, 7):
            assert_canonical(build_bfs_tree_witness(b, d))


class TestManifest:
    def test_golden_small(self):
        text = format_manifest(build_zeta_witness(1, 1, 2))
        assert text == (
            "witness m=1 n=1 k=2 alpha=w+1 zeta=w*2\n"
            "# truncated construction; the block certificate is evidence, not proof\n"
            "n 6\n"
            "e 0 1\n"
            "e 0 5\n"
            "e 1 3\n"
            "e 2 4\n"
            "e 2 5\n"
            "predicted: 0 1 3 5 2 4\n"
            "block: anchor=0 members=0 1 3\n"
            "block: anchor=5 members=5 2 4\n"
        )

    def test_quotient_on_blocks(self):
        for m, n, k in [(1, 2, 4), (2, 0, 5), (2, 2, 3)]:
            b = build_zeta_witness(m, n, k)
            parts = [set(blk.members) for blk in b.blocks]
            assert verify_quotient_stability(deterministic_search(b.graph), parts)


def _reference_build(m, n, k):
    """The build as it was made before its edges came out canonical:
    (size, edges, predicted, blocks, depth), with every level's blocks
    copied, the pieces interleaved by filtering the middle, and the edges
    normalized and sorted at the end.  The blocks are (anchor, members)
    pairs."""

    def part(m, n):
        if m == 0 or (m == 1 and n == 0):
            size = n + 1 if m == 0 else k
            return size, [(i, i + 1) for i in range(size - 1)], tuple(range(size)), [(i, (i,)) for i in range(size)], m
        if n > 0:
            piece_size, piece_edges, piece_predicted, _, depth = part(m, 0)
            anchor_count = n + 1
        else:
            piece_size, piece_edges, piece_predicted, _, depth = part(m - 1, 0)
            anchor_count = k
            depth += 1
        total = anchor_count * (piece_size + 1)
        anchors = [0] + [total - anchor_count + 1 + j for j in range(anchor_count - 1)]
        middle = range(1, total - anchor_count + 1)
        if n > 0:
            pieces = [[v for v in middle if (v - 1) % anchor_count == i] for i in range(anchor_count)]
        else:
            pieces = [list(middle[i * piece_size : (i + 1) * piece_size]) for i in range(anchor_count)]
        edges = [(anchors[i], anchors[i + 1]) for i in range(anchor_count - 1)]
        predicted, blocks = [], []
        for anchor, verts in zip(anchors, pieces):
            edges.append((anchor, verts[0]))
            edges.extend((verts[a], verts[b]) for a, b in piece_edges)
            transported = tuple(verts[j] for j in piece_predicted)
            predicted.append(anchor)
            predicted.extend(transported)
            blocks.append((anchor, (anchor,) + transported))
        return total, edges, tuple(predicted), blocks, depth

    size, edges, predicted, blocks, depth = part(m, n)
    edges = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
    return size, edges, predicted, blocks, depth


def _reference_manifest(build):
    """The manifest joined line by line, as it was printed before one
    template held it."""
    lines = [
        f"witness m={build.m} n={build.n} k={build.k} "
        f"alpha={build.alpha} zeta={build.zeta_value}",
        "# truncated construction; the block certificate is evidence, not proof",
        f"n {build.graph.vertex_count}",
    ]
    lines.extend(f"e {u} {v}" for u, v in build.graph.edges)
    lines.append("predicted: " + " ".join(map(str, build.predicted)))
    for block in build.blocks:
        lines.append(f"block: anchor={block.anchor} members=" + " ".join(map(str, block.members)))
    return "\n".join(lines) + "\n"


class TestAgainstReference:
    # Above criterion 7's grid: (3, 1, 16) has 8,738 vertices and (3, 0, 40),
    # traverse-large's build, 65,640.
    LARGE = [(3, 1, 16), (3, 0, 40)]

    def test_build_and_manifest_match_the_reference(self):
        for m, n, k in [*_witness_grid(), *self.LARGE]:
            build = build_zeta_witness(m, n, k)
            size, edges, predicted, blocks, depth = _reference_build(m, n, k)
            assert build.graph == OrderedGraph._canonical(size, edges), (m, n, k)
            assert build.predicted == predicted, (m, n, k)
            assert [(b.anchor, b.members) for b in build.blocks] == blocks, (m, n, k)
            assert build.nesting_depth == depth, (m, n, k)
            assert format_manifest(build) == _reference_manifest(build), (m, n, k)
        assert build_zeta_witness(3, 1, 16).graph.vertex_count == 8_738

    def test_above_the_grid_passes_all_verdicts(self):
        assert verify_witness(build_zeta_witness(3, 1, 16)).all_pass()

    def test_malformed_manifest_matches_the_reference(self):
        good = build_zeta_witness(1, 1, 2)
        for blocks in (good.blocks + (Block(0, ()),), ()):
            build = replace(good, blocks=blocks, predicted=())
            assert format_manifest(build) == _reference_manifest(build)


def test_build_and_verify_peak_memory():
    # traverse-large's build keeps about 7.4 MB.  The build peaks at 8.0 MB
    # and the check at 10.7 MB above what the build keeps; when every level's
    # blocks were copied and the check made a set per block and sorted every
    # vertex, these were 12.0 and 16.7 MB.
    tracemalloc.start()
    try:
        build = build_zeta_witness(3, 0, 40)
        kept, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        verdict = verify_witness(build)
        _, verify_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.all_pass()
    assert build_peak < 10 * 10**6
    assert verify_peak - kept < 13 * 10**6

import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DigestSink, complete_graph, path_graph, text_digest
from ordsearch.graph import (
    EDGES_PER_PIECE,
    MAX_RANDOM_EDGES,
    MAX_VERTICES,
    GraphFormatError,
    OrderedGraph,
    deserialize,
    dot_export,
    induced_subgraph,
    invert_permutation,
    is_connected,
    is_permutation,
    random_connected_graph,
    reach,
    relabel,
    serialize,
    _decode_pairs,
    _pair_indices,
    _uniform_spanning_tree,
)
from ordsearch.witness import build_zeta_witness


class TestConstruction:
    def test_normalizes_edges(self):
        g = OrderedGraph(3, ((2, 1), (1, 2), (0, 1)))
        assert g.edges == ((0, 1), (1, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            OrderedGraph(2, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            OrderedGraph(2, ((0, 2),))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex_count must be >= 0$"):
            OrderedGraph(-1)

    def test_adjacency_sorted(self, six_cycle_tail):
        assert six_cycle_tail.adjacency[5] == (0, 3, 4)

    def test_adjacency_peak_memory(self):
        # traverse-large's witness graph: 65,640 vertices, 4.2 MB of neighbor
        # tuples.  Freeing each list as its tuple is made peaks at 1.5 times
        # that; holding every list until the last tuple was made, at 2.5.
        g = build_zeta_witness(3, 0, 40).graph
        tracemalloc.start()
        try:
            adjacency = g.adjacency
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert adjacency == sorted_neighbor_lists(g.vertex_count, g.edges)
        assert peak < 2 * kept


class TestIsPermutation:
    @pytest.mark.parametrize(
        "order, n, expected",
        [
            ((), 0, True),
            ((0,), 1, True),
            ((2, 0, 1), 3, True),
            ((0, 1), 3, False),
            ((0, 1, 2, 3), 3, False),
            ((0, 0, 1), 3, False),
            ((0, 1, 3), 3, False),
            ((-1, 0, 1), 3, False),
            ((1,), 1, False),
        ],
    )
    def test_cases(self, order, n, expected):
        assert is_permutation(order, n) is expected

    def test_peak_memory(self):
        # Sorting the order copies n pointers, 1.6 MB here; building
        # list(range(n)) to compare with added 200,000 fresh integers, 9.6 MB
        # in all.
        order = tuple(range(200_000))[::-1]
        broken = order[:-1] + (1,)
        tracemalloc.start()
        try:
            results = is_permutation(order, len(order)), is_permutation(broken, len(order))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert results == (True, False)
        assert peak < 4 * 10**6


class TestConnectivity:
    def test_path(self):
        assert is_connected(path_graph(3))

    def test_isolated_pair(self):
        assert not is_connected(OrderedGraph(2))

    def test_six_cycle_tail(self, six_cycle_tail):
        assert is_connected(six_cycle_tail)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            is_connected(OrderedGraph(0))


class TestReach:
    def test_marks_the_component(self, six_cycle_tail):
        assert reach(six_cycle_tail, 3) == bytearray([1] * 6)
        assert reach(OrderedGraph(4, ((0, 2),)), 2) == bytearray([1, 0, 1, 0])

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 30)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.08]
            g = OrderedGraph(n, tuple(edges))
            start = rng.randrange(n)
            free = nx.Graph()
            free.add_nodes_from(range(n))
            free.add_edges_from(edges)
            expected = nx.node_connected_component(free, start)
            assert reach(g, start) == bytearray(v in expected for v in range(n))


class TestInducedSubgraph:
    def test_drops_vertices_and_edges(self, six_cycle_tail):
        sub, kept = induced_subgraph(six_cycle_tail, {0, 1, 2, 4})
        assert kept == (0, 1, 2, 4)
        assert sub == path_graph(4)

    def test_identity_on_full_set(self, six_cycle_tail):
        sub, kept = induced_subgraph(six_cycle_tail, range(6))
        assert sub == six_cycle_tail
        assert kept == (0, 1, 2, 3, 4, 5)

    def test_singleton(self, six_cycle_tail):
        sub, kept = induced_subgraph(six_cycle_tail, {3})
        assert sub == OrderedGraph(1)
        assert kept == (3,)

    def test_rejects_empty_set(self, six_cycle_tail):
        with pytest.raises(ValueError):
            induced_subgraph(six_cycle_tail, ())

    @pytest.mark.parametrize("w", [{0, 6}, {-1, 0}], ids=["above", "negative"])
    def test_rejects_out_of_range(self, six_cycle_tail, w):
        with pytest.raises(ValueError, match="^vertex set out of range$"):
            induced_subgraph(six_cycle_tail, w)

    def test_preserves_adjacency(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 12), 0.4, rng.randint(0, 999))
            w = sorted(rng.sample(range(g.vertex_count), rng.randint(1, g.vertex_count)))
            sub, kept = induced_subgraph(g, w)
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert ((i, j) in sub.edges) == ((kept[i], kept[j]) in g.edges)


class TestRelabel:
    def test_identity(self, six_cycle_tail):
        assert relabel(six_cycle_tail, (0, 1, 2, 3, 4, 5)) == six_cycle_tail

    def test_moves_edge(self, six_cycle_tail):
        h = relabel(six_cycle_tail, (0, 1, 2, 4, 5, 3))
        assert (4, 5) in h.edges  # the old edge 3-5
        assert h == OrderedGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5)))

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_graph(rng.randint(1, 10), 0.5, rng.randint(0, 999))
            order = list(range(g.vertex_count))
            rng.shuffle(order)
            inverse = invert_permutation(order)
            assert relabel(relabel(g, order), inverse) == g

    def test_preserves_degrees_and_connectivity(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 12), 0.4, rng.randint(0, 999))
            order = list(range(g.vertex_count))
            rng.shuffle(order)
            h = relabel(g, order)
            assert sorted(map(len, h.adjacency)) == sorted(map(len, g.adjacency))
            assert is_connected(h) == is_connected(g)

    def test_rejects_non_permutation(self, six_cycle_tail):
        with pytest.raises(ValueError):
            relabel(six_cycle_tail, (0, 0, 1, 2, 3, 4))


class TestRandomConnectedGraph:
    def test_single_vertex(self):
        assert random_connected_graph(1, 0.5, 0) == OrderedGraph(1)

    def test_full_density(self):
        assert random_connected_graph(5, 1.0, 3) == complete_graph(5)

    def test_deterministic(self):
        a = random_connected_graph(14, 0.3, 42)
        b = random_connected_graph(14, 0.3, 42)
        assert a == b

    def test_always_connected(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_connected_graph(
                rng.randint(1, 25), rng.choice([0.05, 0.2, 0.6, 1.0]), rng.randint(0, 10_000)
            )
            assert is_connected(g)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_connected_graph(0, 0.5, 0)

    def test_decodes_every_pair_index(self):
        for n in range(1, 41):
            pairs = list(itertools.combinations(range(n), 2))
            assert list(_decode_pairs(n, range(len(pairs)))) == pairs
            rng = random.Random(n)
            indices = sorted(rng.sample(range(len(pairs)), len(pairs) // 3))
            assert list(_decode_pairs(n, indices)) == [pairs[i] for i in indices]

    def test_pair_indices_ascend_within_range(self):
        assert list(_pair_indices(10, 1.0, random.Random(0))) == list(range(10))
        assert list(_pair_indices(0, 0.5, random.Random(0))) == []
        for seed in range(50):
            indices = list(_pair_indices(300, 0.2, random.Random(seed)))
            assert indices == sorted(set(indices))
            assert all(0 <= i < 300 for i in indices)

    def test_edge_count_matches_expectation(self):
        # Beyond the n - 1 tree edges, each of the other pairs joins with
        # probability d, so over the seeds the count is binomial.
        n, d, seeds = 2000, 0.001, 20
        trials = seeds * (n * (n - 1) // 2 - (n - 1))
        extra = sum(len(random_connected_graph(n, d, seed).edges) - (n - 1) for seed in range(seeds))
        assert abs(extra - trials * d) <= 4 * math.sqrt(trials * d * (1 - d))

    def test_each_pair_joins_with_the_density(self):
        # The tree is drawn first from the same stream, so it can be redrawn
        # to tell which pairs were left to chance.
        n, d, seeds = 6, 0.3, 5000
        trials = dict.fromkeys(itertools.combinations(range(n), 2), 0)
        joined = dict(trials)
        for seed in range(seeds):
            tree = set(_uniform_spanning_tree(n, random.Random(seed)))
            edges = set(random_connected_graph(n, d, seed).edges)
            assert tree <= edges
            for pair in trials:
                if pair not in tree:
                    trials[pair] += 1
                    joined[pair] += pair in edges
        for pair, count in trials.items():
            assert abs(joined[pair] - count * d) <= 4 * math.sqrt(count * d * (1 - d)), pair

    def test_envelope(self):
        with pytest.raises(ValueError, match="vertex count"):
            random_connected_graph(MAX_VERTICES + 1, 1e-9, 0)
        n = 20_000  # about 2 * 10^8 pairs
        with pytest.raises(ValueError, match="expected edge count"):
            random_connected_graph(n, (MAX_RANDOM_EDGES + 1) / (n * (n - 1) // 2), 0)
        g = random_connected_graph(n, MAX_RANDOM_EDGES / (n * (n - 1) // 2) / 1000, 0)
        assert is_connected(g)


def canonical_copy(g):
    """The same graph built by the checking constructor from its edges."""
    return OrderedGraph(g.vertex_count, g.edges)


def sorted_neighbor_lists(n, edges):
    lists = [[] for _ in range(n)]
    for u, v in edges:
        lists[u].append(v)
        lists[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in lists)


LINE_BREAK = re.compile(r"\r\n|\r|\n")
"""Where universal-newline reading breaks lines, as README's format says."""


@st.composite
def edge_texts(draw):
    """A graph's edge list and its text: the edge lines shuffled, each edge in
    a random orientation, among comments and blank lines, with padded fields,
    leading zeros, and "\n", "\r\n" or "\r" ending each line."""
    n = draw(st.integers(0, 30))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    pad = st.sampled_from(["", " ", "\t", "  "])

    def numeral(k):
        return draw(st.sampled_from(["", "0", "00"])) + str(k)

    def line(*fields):
        return draw(pad) + draw(st.sampled_from([" ", "\t", " \t "])).join(fields) + draw(pad)

    # Comments hold no surrogate, and no character that str.splitlines()
    # alone breaks at: test_comments_and_blanks covers those.
    remark = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8)
    filler = st.one_of(pad, st.builds("{}#{}".format, pad, remark))
    lines = [line("e", *map(numeral, draw(st.permutations((u, v))))) for u, v in edges]
    lines = draw(st.permutations(lines + draw(st.lists(filler, max_size=4))))
    lines = [*draw(st.lists(filler, max_size=2)), line("n", numeral(n)), *lines]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    return n, edges, "".join(map(str.__add__, lines, ends))


def first_fault(text):
    """(line, message) for the first line of the text that breaks README's
    format rules, or None.  Written from those rules alone, so it shares no
    code with ``deserialize``."""
    count, seen = None, set()
    for lineno, line in enumerate(LINE_BREAK.split(text), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "n":
            if count is not None:
                return lineno, "duplicate vertex count line"
            if len(fields) != 2 or not fields[1].isdecimal():
                return lineno, "expected 'n <count>'"
            count = int(fields[1])
        elif fields[0] != "e":
            return lineno, f"unknown directive {fields[0]!r}"
        elif count is None:
            return lineno, "edge before vertex count line"
        elif len(fields) != 3 or not (fields[1].isdecimal() and fields[2].isdecimal()):
            return lineno, "expected 'e <u> <v>'"
        else:
            u, v = int(fields[1]), int(fields[2])
            if u == v:
                return lineno, f"self-loop at vertex {u}"
            if max(u, v) >= count:
                return lineno, f"endpoint out of range in ({u}, {v})"
            if (min(u, v), max(u, v)) in seen:
                return lineno, f"duplicate edge ({min(u, v)}, {max(u, v)})"
            seen.add((min(u, v), max(u, v)))
    return None


@st.composite
def faulty_texts(draw):
    """An ``edge_texts`` text with one to three faulty lines put in at random
    places: a repeated edge in either orientation, a self-loop, an endpoint
    out of range, a token that is not a decimal number, or a second count
    line."""
    n, edges, text = draw(edge_texts())
    lines = LINE_BREAK.split(text)[:-1]  # the text ends with a line break
    vertex = st.integers(0, max(n - 1, 0))

    def edge_line(ends):  # either orientation
        return ends.flatmap(st.permutations).map(lambda pair: "e {} {}".format(*pair))

    faults = [
        st.builds("e {0} {0}".format, vertex),
        edge_line(st.tuples(vertex, st.integers(n, n + 5))),
        edge_line(st.tuples(vertex, st.sampled_from(["x", "-1", "+1", "1.0", "\u00b2", "1_0"]))),
        st.builds("n {}".format, st.integers(0, 40)),
    ]
    if edges:
        # A repeat is the one fault found after the read, so it comes up
        # twice as often as each of the others.
        faults += [edge_line(st.sampled_from(edges))] * 2
    for fault in draw(st.lists(st.one_of(faults), min_size=1, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), fault)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + end


class TestTrustedPath:
    """Graphs built without the constructor's checks must equal the ones the
    checking constructor builds from the same edges."""

    @settings(max_examples=300, deadline=None)
    @given(edge_texts())
    def test_parse_matches_the_checking_constructor(self, case):
        n, edges, text = case
        g = deserialize(text)
        checked = OrderedGraph(n, tuple(edges))
        assert g.adjacency == sorted_neighbor_lists(n, edges)
        assert g.edges == checked.edges
        assert g == checked
        assert hash(g) == hash(checked)
        assert repr(g) == repr(checked)
        assert "".join(serialize(g)) == "".join(serialize(checked))

    @settings(max_examples=300, deadline=None)
    @given(faulty_texts())
    def test_parse_reports_the_first_fault_in_text_order(self, text):
        line, message = first_fault(text)
        with pytest.raises(GraphFormatError) as exc:
            deserialize(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    def test_relabel_on_all_small_graphs(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = OrderedGraph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1))
                if not is_connected(g):
                    continue
                for order in itertools.permutations(range(n)):
                    h = relabel(g, order)
                    assert h == canonical_copy(h)
                    new = invert_permutation(order)
                    assert h.edges == OrderedGraph(n, tuple((new[u], new[v]) for u, v in g.edges)).edges

    def test_builders_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 200)
            g = random_connected_graph(n, rng.choice((1.5 / n, 4 / n, 0.3)), rng.randint(0, 9999))
            assert g == canonical_copy(g)
            assert g.adjacency == sorted_neighbor_lists(n, g.edges)
            order = list(range(n))
            rng.shuffle(order)
            h = relabel(g, order)
            assert h == canonical_copy(h)
            assert h.adjacency == sorted_neighbor_lists(n, h.edges)
            sub, _ = induced_subgraph(g, rng.sample(range(n), rng.randint(1, n)))
            assert sub == canonical_copy(sub)


class TestSerialization:
    def test_parse_path(self):
        g = deserialize("n 3\ne 0 1\ne 1 2\n")
        assert g == path_graph(3)

    def test_comments_and_blanks(self):
        for text in [
            "# a path\n\nn 2\n e 0 1 \n",
            "n 2\r\n# a path\r\re 0 1",
            # Only "\n", "\r\n" and "\r" end a line; these are one comment.
            "n 2\n# note\u2028more\ne 0 1\n",
            "n 2\n# \v \f \x1c \x1d \x1e \x85 \u2029 end\ne 0 1\n",
        ]:
            assert deserialize(text) == path_graph(2)

    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_connected_graph(rng.randint(1, 15), 0.4, rng.randint(0, 999))
            assert deserialize("".join(serialize(g))) == g

    def test_serialize_sorted(self, six_cycle_tail):
        assert "".join(serialize(six_cycle_tail)) == "n 6\ne 0 1\ne 0 5\ne 1 2\ne 2 4\ne 3 5\ne 4 5\n"

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("n 2\ne 0 2\n", 2),
            ("n 2\ne 9 0\n", 2),  # the larger endpoint first
            ("n 2\ne 0 1\ne 1 0\n", 3),
            ("n 2\ne 1 1\n", 2),
            ("e 0 1\n", 1),
            ("n 2\nx 0 1\n", 2),
            ("n 2\ne 0\n", 2),
            ("n 2\nn 3\n", 2),
            ("n 2\ne 0 1\x85\ne 0 5\n", 3),  # "\x85" ends no line
            ("n 2\r\n\r\ne 0 5\r\n", 3),
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(GraphFormatError) as exc:
            deserialize(text)
        assert exc.value.line == lineno

    def test_missing_count(self):
        with pytest.raises(GraphFormatError):
            deserialize("# nothing\n")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("n 2\ne 0 \u00b2\n", 2),  # a superscript digit passes str.isdigit()
            ("n \u00b2\n", 1),
            ("# long\nn " + "9" * 5000 + "\n", 2),  # beyond int()'s digit limit
            ("n 2\ne 0 " + "1" * 5000 + "\n", 2),
        ],
        ids=["superscript-endpoint", "superscript-count", "long-count", "long-endpoint"],
    )
    def test_bad_numerals_carry_line_numbers(self, text, lineno):
        with pytest.raises(GraphFormatError) as exc:
            deserialize(text)
        assert exc.value.line == lineno

    def test_vertex_count_envelope(self):
        # A header alone costs no more than the index of empty tuples it
        # implies, 8 bytes a vertex.
        tracemalloc.start()
        try:
            g = deserialize(f"n {MAX_VERTICES}\n")
            g.adjacency
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.vertex_count == MAX_VERTICES
        assert g.adjacency == ((),) * MAX_VERTICES
        assert peak < 8 * MAX_VERTICES + 2**16
        with pytest.raises(GraphFormatError) as exc:
            deserialize(f"# one too many\nn {MAX_VERTICES + 1}\n")
        assert exc.value.line == 2


class TestDotExport:
    def test_single_vertex(self):
        assert "".join(dot_export(OrderedGraph(1))) == "graph ordered {\n  0;\n}\n"

    def test_traversal_positions(self):
        text = "".join(dot_export(path_graph(2), traversal=(1, 0)))
        assert '0 [label="0 (pos 1)"]' in text
        assert '1 [label="1 (pos 0)"]' in text
        assert "0 -- 1;" in text

    def test_rejects_bad_traversal(self):
        # The check runs when dot_export is called, not when the first line
        # is asked for, so a caller writes nothing for a bad order.
        for traversal in [(0, 0), (0,), (0, 1, 2), (1, 2)]:
            with pytest.raises(ValueError, match="traversal must be a permutation"):
                dot_export(path_graph(2), traversal=traversal)


class TestWritersStream:
    """``serialize`` and ``dot_export`` make each piece as it is written:
    ``dot_export`` one line, ``serialize`` up to ``EDGES_PER_PIECE`` edge
    lines.  The graph joins each of 10,000 vertices to the next 10, so it
    has 99,945 edges and its text is 1.2 to 1.9 MB; it is built before the
    measurement, which covers the writer's call and the writing."""

    N, WIDTH = 10_000, 10

    def edges(self):
        return ((u, v) for u in range(self.N) for v in range(u + 1, min(u + self.WIDTH + 1, self.N)))

    @pytest.fixture(scope="class")
    def band(self):
        return OrderedGraph(self.N, tuple(self.edges()))

    def written(self, make):
        sink = DigestSink()
        tracemalloc.start()
        try:
            sink.writelines(make())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (sink.digest.hexdigest(), sink.size), peak

    def test_serialize(self, band):
        written, peak = self.written(lambda: serialize(band))
        expected = [f"n {self.N}\n"] + [f"e {u} {v}\n" for u, v in self.edges()]
        assert written == text_digest(expected)
        assert written[1] > 1_000_000
        assert peak < 2**18

    def test_serialize_pieces_are_whole_lines(self, band):
        pieces = list(serialize(band))
        assert pieces[0] == f"n {self.N}\n"
        assert all(p.endswith("\n") for p in pieces)
        assert max(p.count("\n") for p in pieces) <= EDGES_PER_PIECE
        assert len(pieces) <= 1 + math.ceil(len(band.edges) / EDGES_PER_PIECE)

    def test_dot_export(self, band):
        written, peak = self.written(lambda: dot_export(band))
        expected = ["graph ordered {\n"] + [f"  {v};\n" for v in range(self.N)]
        expected += [f"  {u} -- {v};\n" for u, v in self.edges()] + ["}\n"]
        assert written == text_digest(expected)
        assert peak < 2**18

    def test_dot_export_with_a_traversal(self, band):
        # The traversal's check and its inverse are O(n), about 0.5 MB here.
        order = tuple(reversed(range(self.N)))
        written, peak = self.written(lambda: dot_export(band, traversal=order))
        expected = ["graph ordered {\n"]
        expected += [f'  {v} [label="{v} (pos {self.N - 1 - v})"];\n' for v in range(self.N)]
        expected += [f"  {u} -- {v};\n" for u, v in self.edges()] + ["}\n"]
        assert written == text_digest(expected)
        assert peak < 2**20

import argparse
import hashlib
import io
import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import dispatch_corpus
from conftest import DigestSink, text_digest
from dispatch_corpus import SIX
from ordsearch import acceptance, cli, graph, predicates, search, witness
from ordsearch.cli import main
from ordsearch.graph import MAX_RANDOM_EDGES, MAX_VERTICES, deserialize, is_connected, serialize
from ordsearch.ordinal import MAX_EXPONENT_DEPTH
from ordsearch.witness import build_zeta_witness


@pytest.fixture
def six_file(tmp_path):
    path = tmp_path / "six.g"
    path.write_text(SIX)
    return str(path)


def tower(depth):
    """``w^(w^(...(w)...))`` with ``depth`` nested exponents."""
    return "w^(" * depth + "w" + ")" * depth


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTraversalCommands:
    def test_search(self, capsys, six_file):
        code, out, _ = run(capsys, "search", six_file)
        assert code == 0
        assert out == "0 1 2 4 5 3\n"

    def test_bfs(self, capsys, six_file):
        code, out, _ = run(capsys, "bfs", six_file)
        assert code == 0
        assert out == "0 1 5 2 3 4\n"

    def test_alt(self, capsys, six_file):
        code, out, _ = run(capsys, "alt", six_file)
        assert code == 0
        assert out == "0 1 2 4 5 3\n"

    def test_alt_stats(self, capsys, six_file):
        code, out, _ = run(capsys, "alt", six_file, "--stats")
        assert code == 0
        assert "splits: 5" in out

    def test_search_trace(self, capsys, six_file):
        code, out, _ = run(capsys, "search", six_file, "--trace")
        lines = out.splitlines()
        assert lines[0] == "0 1 2 4 5 3"
        assert lines[1] == "stage 0: pick 0 from {0}"
        assert lines[2] == "stage 1: pick 1 from {1 5}"

    def test_bfs_trace(self, capsys, six_file):
        code, out, _ = run(capsys, "bfs", six_file, "--trace")
        lines = out.splitlines()
        assert lines[1] == "stage 0: B=0 Q=(0) q=0"
        assert lines[2] == "stage 1: B=1 Q=(0 1 5) q=1"

    def test_start_option(self, capsys, six_file):
        code, out, _ = run(capsys, "search", six_file, "--start", "3")
        assert out == "3 5 0 1 2 4\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("n 3\ne 0 1\ne 1 2\n"))
        code, out, _ = run(capsys, "bfs", "-")
        assert code == 0
        assert out == "0 1 2\n"

    def test_disconnected_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "g"
        path.write_text("n 3\ne 0 1\n")
        code, out, err = run(capsys, "search", str(path))
        assert code == 2
        assert "unreachable" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "search", "/nonexistent/file.g")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "text", ["n 3\ne 0 \u00b2\n", "n 3\ne 0 " + "1" * 5000 + "\n"], ids=["superscript", "long"]
    )
    def test_bad_numeral_names_its_line(self, capsys, tmp_path, text):
        path = tmp_path / "g"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "search", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 2: ")

    def test_huge_vertex_count_is_input_error(self, capsys, tmp_path):
        # Building this graph's per-vertex tables would take gigabytes.
        path = tmp_path / "g"
        path.write_text("# header only\nn 300000000\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "search", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: vertex count 300000000 exceeds the limit")
        assert peak < 4 * 2**20


class TestTree:
    def test_traversal_tree(self, capsys, six_file):
        code, out, _ = run(capsys, "tree", six_file, "--traversal")
        assert code == 0
        assert deserialize(out).edges == ((0, 1), (0, 5), (1, 2), (2, 4), (3, 5))

    def test_bfs_tree_dot(self, capsys, six_file):
        code, out, _ = run(capsys, "tree", six_file, "--bfs", "--dot")
        assert code == 0
        assert out.startswith("graph ordered {")
        assert '0 [label="0 (pos 0)"];' in out
        assert "4 -- 5;" in out

    @pytest.mark.parametrize("kind", ["--traversal", "--bfs"])
    def test_tree_checks_its_order_without_is_traversal(self, capsys, monkeypatch, six_file, kind):
        calls = []
        original = predicates.is_traversal

        def counted(g, order):
            calls.append(order)
            return original(g, order)

        # cli binds its own name at import, so both bindings are counted.
        monkeypatch.setattr(predicates, "is_traversal", counted)
        monkeypatch.setattr(cli, "is_traversal", counted)
        code, out, _ = run(capsys, "tree", six_file, kind)
        assert code == 0 and out.startswith("n 6\n")
        assert calls == []

    def test_requires_kind(self, six_file):
        with pytest.raises(SystemExit) as exc:
            main(["tree", six_file])
        assert exc.value.code == 2


class TestCheck:
    @pytest.mark.parametrize("kind", ["traversal", "bfs", "dfs"])
    @pytest.mark.parametrize("order", [["0", "5"], ["0", "0", "7"]])
    def test_order_outside_the_vertices_is_input_error(self, capsys, six_file, kind, order):
        code, out, err = run(capsys, "check", six_file, "--order", *order, "--kind", kind)
        assert (code, out) == (2, "")
        assert err == "error: order must be a permutation of the vertices\n"

    @pytest.mark.parametrize("kind", ["bfs", "dfs"])
    @pytest.mark.parametrize(
        "order, codes",
        [
            ("0 1 5 2 3 4", {"bfs": 0, "dfs": 1}),
            ("0 2 1 4 5 3", {"bfs": 1, "dfs": 1}),
            ("0 1 5", {"bfs": 2, "dfs": 2}),
        ],
        ids=["traversal", "non-traversal", "non-permutation"],
    )
    def test_kind_checks_its_order_in_one_pass(self, capsys, monkeypatch, six_file, kind, order, codes):
        # The breadth-first and depth-first tests reject a non-traversal
        # themselves, so check runs no separate traversal test, and the
        # breadth-first test walks the least-neighbor map once.
        traversal_calls, walks = [], []
        original_walk = predicates.least_neighbor_map

        def counted_walk(g, order):
            walks.append(order)
            return original_walk(g, order)

        monkeypatch.setattr(cli, "is_traversal", lambda g, order: traversal_calls.append(order))
        monkeypatch.setattr(predicates, "least_neighbor_map", counted_walk)
        code, _, _ = run(capsys, "check", six_file, "--order", *order.split(), "--kind", kind)
        assert code == codes[kind]
        assert traversal_calls == []
        assert len(walks) == (kind == "bfs")


class TestEnumerate:
    def test_triangle_from_zero(self, capsys, tmp_path):
        path = tmp_path / "t"
        path.write_text("n 3\ne 0 1\ne 1 2\ne 0 2\n")
        code, out, _ = run(capsys, "enumerate", str(path), "--kind", "all", "--start", "0")
        assert code == 0
        assert out == "0 1 2\n0 2 1\n"

    def test_bfs_kind(self, capsys, six_file):
        code, out, _ = run(capsys, "enumerate", six_file, "--kind", "bfs", "--start", "0")
        assert code == 0
        assert "0 1 5 2 3 4" in out.splitlines()

    @pytest.mark.parametrize("kind", ["all", "bfs", "dfs"])
    @pytest.mark.parametrize("start", [[], ["--start", "0"]], ids=["no-start", "start-0"])
    def test_one_vertex(self, capsys, tmp_path, kind, start):
        # The only position is the forced last one.
        path = tmp_path / "one"
        path.write_text("n 1\n")
        assert run(capsys, "enumerate", str(path), "--kind", kind, *start) == (0, "0\n", "")

    @pytest.mark.parametrize(
        "text, start, error",
        [
            ("n 3\ne 0 1\n", [], "vertex 2 is unreachable from 0"),
            (SIX, ["--start", "6"], "start vertex 6 out of range"),
            ("n 10\n" + "".join(f"e {i} {i + 1}\n" for i in range(9)), [],
             "enumeration is limited to 9 vertices; the graph has 10"),
            ("n 0\n", [], "no traversals of the empty graph"),
        ],
        ids=["disconnected", "start-out-of-range", "ten-vertices", "empty"],
    )
    def test_errors_come_before_any_output(self, capsys, tmp_path, text, start, error):
        # The lines are made lazily, so every check has to run first.
        path = tmp_path / "g"
        path.write_text(text)
        assert run(capsys, "enumerate", str(path), "--kind", "all", *start) == (2, "", f"error: {error}\n")


def complete_graph_text(n):
    return f"n {n}\n" + "".join(f"e {i} {j}\n" for i in range(n) for j in range(i + 1, n))


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--kind", "all"], ["enumerate", "--kind", "dfs", "--start", "0"],
     ["verify", "--suite", "colexmax"]],
    ids=["enumerate", "enumerate-start", "colexmax"],
)
def test_enumeration_envelope(capsys, tmp_path, argv):
    # K_10 has 10! orders; beyond the envelope nothing is enumerated.
    limit = predicates.MAX_ENUMERATION_VERTICES
    path = tmp_path / "k10"
    path.write_text(complete_graph_text(limit + 1))
    started = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: enumeration is limited to {limit} vertices; the graph has {limit + 1}\n"
    assert peak < 2**20
    assert time.perf_counter() - started < 1.0


def test_lexmin_has_no_enumeration_envelope(capsys, tmp_path):
    path = tmp_path / "k12"
    path.write_text(complete_graph_text(12))
    code, out, _ = run(capsys, "verify", str(path), "--suite", "lexmin")
    assert (code, out) == (0, "lex-min-traversal: PASS\nlex-min-breadth-first: PASS\n")


def test_lexmin_takes_linearithmic_time(capsys, tmp_path):
    # A descent that scans every vertex at every position takes tens of
    # seconds at this size; taking the least candidate off a heap, tens of
    # milliseconds.
    n = 20_000
    path = tmp_path / "path"
    path.write_text(f"n {n}\n" + "".join(f"e {i} {i + 1}\n" for i in range(n - 1)))
    started = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(path), "--suite", "lexmin")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (0, "lex-min-traversal: PASS\nlex-min-breadth-first: PASS\n")


@pytest.fixture(scope="module")
def k8_enumerate_run():
    """One ``enumerate - --kind all`` run on K_8 under tracemalloc: its exit
    code, the sha256 and size of its stdout, and its peak."""
    sink = DigestSink()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(complete_graph_text(8)))
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                code = main(["enumerate", "-", "--kind", "all"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return code, sink.digest.hexdigest(), sink.size, peak


def test_enumerate_streams_its_output(k8_enumerate_run):
    # Every order of K_8 is a traversal, and the walk lists them in lex
    # order, as itertools.permutations does.
    code, digest, size, _ = k8_enumerate_run
    expected = text_digest(" ".join(map(str, p)) + "\n" for p in itertools.permutations(range(8)))
    assert (code, digest, size) == (0, *expected)


def test_enumerate_holds_no_orders(k8_enumerate_run):
    # Each line is made by the walk as it is written: holding the 40,320
    # orders as tuples would take about 5 MB, and joining their lines first
    # about 3 MB.
    code, _, _, peak = k8_enumerate_run
    assert code == 0
    assert peak < 2**20


def star_trace_lines(command, n):
    """The stdout of ``<command> - --trace`` on the star with center 0 and
    n - 1 leaves, in closed form: every leaf joins the frontier and the
    queue at stage 0, and stage a >= 1 picks leaf a."""
    names = list(map(str, range(n)))
    yield " ".join(names) + "\n"
    if command == "search":
        yield "stage 0: pick 0 from {0}\n"
        for a in range(1, n):
            yield f"stage {a}: pick {a} from {{{' '.join(names[a:])}}}\n"
    else:
        yield "stage 0: B=0 Q=(0) q=0\n"
        for a in range(1, n):
            yield f"stage {a}: B={a} Q=({' '.join(names)}) q={a}\n"


@pytest.mark.parametrize("command, bound", [("search", 2**20), ("bfs", 2 * 2**20)])
def test_trace_holds_no_lines(monkeypatch, command, bound):
    # Each stage's line is made as it is written.  Holding the 2,000 lines
    # took 9.3 MB for search and 17.9 MB for bfs.
    n = 2_000
    monkeypatch.setattr("sys.stdin", io.StringIO(f"n {n}\n" + "".join(f"e 0 {i}\n" for i in range(1, n))))
    sink = DigestSink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = main([command, "-", "--trace"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (sink.digest.hexdigest(), sink.size) == text_digest(star_trace_lines(command, n))
    assert peak < bound


class TestErrorsBeforeOutput:
    """A command that writes its output line by line still raises every error
    before the first line.  ``random`` above its envelope is covered by
    ``TestRandom.test_envelope_is_input_error``."""

    @pytest.mark.parametrize(
        "argv",
        [["search", "--trace"], ["bfs", "--trace"], ["tree", "--traversal"], ["tree", "--bfs", "--dot"]],
        ids=["search-trace", "bfs-trace", "tree", "tree-bfs-dot"],
    )
    @pytest.mark.parametrize(
        "text, start, error",
        [
            (SIX, "6", "start vertex 6 out of range"),
            (SIX, "-1", "start vertex -1 out of range"),
            ("n 3\ne 0 1\n", "0", "vertex 2 is unreachable from 0"),
        ],
        ids=["start-6", "start-minus-1", "disconnected"],
    )
    def test_bad_start(self, capsys, tmp_path, argv, text, start, error):
        path = tmp_path / "g"
        path.write_text(text)
        command, *options = argv
        assert run(capsys, command, str(path), "--start", start, *options) == (2, "", f"error: {error}\n")


class TestVerify:
    def test_identities_probes_count_differing_orders(self, capsys, six_file):
        code, out, _ = run(capsys, "verify", six_file, "--suite", "identities",
                           "--probes", "50", "--seed", "0")
        assert code == 0
        assert out.endswith("note: bfs-after-search differed from bfs on 1 of 50 probed orders\n")

    def test_negative_probes_is_usage_error(self, capsys, six_file):
        code, out, err = run(capsys, "verify", six_file, "--suite", "identities", "--probes", "-1")
        assert code == 2
        assert out == ""
        assert "--probes" in err


def test_stability_and_witness_verdicts_search_their_graph_once(capsys, monkeypatch, six_file):
    # Every searched graph stays in the list, so no two share an id.
    searched = []

    def counting(g, start=0):
        searched.append(g)
        return search.deterministic_search(g, start)

    for module in (cli, predicates, witness):
        monkeypatch.setattr(module, "deterministic_search", counting)
    code, out, _ = run(capsys, "verify", six_file, "--suite", "stability")
    assert (code, "[12 closed sets]" in out) == (0, True)
    # The request's first search is of its input.
    assert Counter(map(id, searched))[id(searched[0])] == 1
    build = build_zeta_witness(2, 1, 3)
    assert all(witness.verify_witness(build).values())
    assert Counter(map(id, searched))[id(build.graph)] == 1


def test_stability_verdicts_derive_the_least_neighbor_map_once(capsys, monkeypatch, six_file):
    calls = []
    original = search.least_neighbor_map

    def counting(g, order):
        calls.append(order)
        return original(g, order)

    for module in (search, predicates):
        monkeypatch.setattr(module, "least_neighbor_map", counting)
    code, out, _ = run(capsys, "verify", six_file, "--suite", "stability")
    assert (code, "[12 closed sets]" in out) == (0, True)
    assert calls == [(0, 1, 2, 4, 5, 3)]


# The (1, 1, 2) witness manifest, with a slot for the predicted order.
WITNESS_112 = (
    "witness m=1 n=1 k=2 alpha=w+1 zeta=w*2\n"
    "# truncated construction; the block certificate is evidence, not proof\n"
    "n 6\ne 0 1\ne 0 5\ne 1 3\ne 2 4\ne 2 5\n"
    "predicted: {}\n"
    "block: anchor=0 members=0 1 3\n"
    "block: anchor=5 members=5 2 4\n"
)


class TestWitness:
    def test_manifest(self, capsys):
        code, out, _ = run(capsys, "witness", "--m", "1", "--n", "1", "--k", "2")
        assert code == 0
        assert out == WITNESS_112.format("0 1 3 5 2 4")

    def test_envelope_error(self, capsys):
        code, _, err = run(capsys, "witness", "--m", "9", "--n", "0", "--k", "2")
        assert code == 2
        assert "envelope" in err


SIX_SEARCH, SIX_BFS = (0, 1, 2, 4, 5, 3), (0, 1, 5, 2, 3, 4)
SIX_PATH = deserialize("n 6\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n")
# The identities suite's stdout on the six-vertex example, given each
# verdict's result; 0..5 is no traversal there, so the first is vacuous.
IDENTITY_LINES = (
    "search-fixes-traversals: {}\nidempotent: {}\nbfs-fixed-by-search: {}\n"
    "search-tree-retraversal: {}\nbfs-tree-retraversal: {}\n"
    "note: bfs-after-search equals bfs on this input: no\n"
)
VACUOUS = "PASS [vacuous: input order is not a traversal]"


def _wrong_at(real, order, wrong):
    """A stand-in for ``real(g, order)`` that answers ``wrong(g)`` for this
    one order, and as ``real`` for any other."""
    return lambda g, o: wrong(g) if o == order else real(g, o)


def _reversed_prediction(m, n, k):
    build = witness.build_zeta_witness(m, n, k)
    return replace(build, predicted=build.predicted[::-1])


# Every shape of verdict output: argv after the graph file (None: no graph),
# the module, attribute and stand-in patched, the exit code and the whole
# stdout.  Each stability and identities verdict has a case where the one
# library call it reads is wrong, so a verdict that always passed would
# show.
VERDICT_OUTPUTS = {
    "lexmin": (
        ["verify", "--suite", "lexmin"], None, 0,
        "lex-min-traversal: PASS\nlex-min-breadth-first: PASS\n",
    ),
    "lexmin-fail": (
        ["verify", "--suite", "lexmin"],
        (cli, "verify_lex_min", lambda g: {"lex-min-traversal": False, "lex-min-breadth-first": True}),
        1, "lex-min-traversal: FAIL\nlex-min-breadth-first: PASS\n",
    ),
    "colexmax": (["verify", "--suite", "colexmax"], None, 0, "colex-max-inverse: PASS\n"),
    "colexmax-fail": (
        ["verify", "--suite", "colexmax"],
        (cli, "verify_colex_max", lambda g: {"colex-max-inverse": False}),
        1, "colex-max-inverse: FAIL\n",
    ),
    "stability": (
        ["verify", "--suite", "stability"], None, 0,
        "subset-stability: PASS [12 closed sets]\nquotient-stability-singletons: PASS\n"
        "quotient-stability-whole: PASS\n",
    ),
    "stability-fail": (
        ["verify", "--suite", "stability"],
        (predicates, "verify_subset_stability", lambda run, w: False),
        1,
        "subset-stability: FAIL [12 closed sets]\nquotient-stability-singletons: PASS\n"
        "quotient-stability-whole: PASS\n",
    ),
    "stability-singletons-fail": (
        ["verify", "--suite", "stability"],
        (predicates, "verify_quotient_stability", lambda run, parts: len(parts) == 1),
        1,
        "subset-stability: PASS [12 closed sets]\nquotient-stability-singletons: FAIL\n"
        "quotient-stability-whole: PASS\n",
    ),
    "stability-whole-fail": (
        ["verify", "--suite", "stability"],
        (predicates, "verify_quotient_stability", lambda run, parts: len(parts) > 1),
        1,
        "subset-stability: PASS [12 closed sets]\nquotient-stability-singletons: PASS\n"
        "quotient-stability-whole: FAIL\n",
    ),
    "identities": (
        ["verify", "--suite", "identities"], None, 0,
        IDENTITY_LINES.format(VACUOUS, "PASS", "PASS", "PASS", "PASS"),
    ),
    "identities-probes": (
        ["verify", "--suite", "identities", "--probes", "5", "--seed", "1"], None, 0,
        IDENTITY_LINES.format(VACUOUS, "PASS", "PASS", "PASS", "PASS")
        + "note: bfs-after-search differed from bfs on 0 of 5 probed orders\n",
    ),
    # The input order 0..5 is no traversal; called one, search must fix it.
    "identities-fail": (
        ["verify", "--suite", "identities"],
        (predicates, "is_traversal", lambda g, order: True),
        1, IDENTITY_LINES.format("FAIL", "PASS", "PASS", "PASS", "PASS"),
    ),
    # A relabeling by the search order that keeps the input's numbers: its
    # search is the input's, not the identity.
    "idempotent-fail": (
        ["verify", "--suite", "identities"],
        (predicates, "relabel", _wrong_at(graph.relabel, SIX_SEARCH, lambda g: g)),
        1, IDENTITY_LINES.format(VACUOUS, "FAIL", "PASS", "PASS", "PASS"),
    ),
    "bfs-fixed-by-search-fail": (
        ["verify", "--suite", "identities"],
        (predicates, "relabel", _wrong_at(graph.relabel, SIX_BFS, lambda g: g)),
        1, IDENTITY_LINES.format(VACUOUS, "PASS", "FAIL", "PASS", "PASS"),
    ),
    # The path 0-1-2-3-4-5 as either run's tree: both searches list it as
    # 0..5.
    "search-tree-retraversal-fail": (
        ["verify", "--suite", "identities"],
        (predicates, "traversal_tree", _wrong_at(search.traversal_tree, SIX_SEARCH, lambda g: SIX_PATH)),
        1, IDENTITY_LINES.format(VACUOUS, "PASS", "PASS", "FAIL", "PASS"),
    ),
    "bfs-tree-retraversal-fail": (
        ["verify", "--suite", "identities"],
        (predicates, "traversal_tree", _wrong_at(search.traversal_tree, SIX_BFS, lambda g: SIX_PATH)),
        1, IDENTITY_LINES.format(VACUOUS, "PASS", "PASS", "PASS", "FAIL"),
    ),
    "traversal-pass": (["check", "--order", *"0 1 5 2 3 4".split(), "--kind", "traversal"], None, 0, "traversal: PASS\n"),
    "traversal-fail": (["check", "--order", *"0 2 1 4 5 3".split(), "--kind", "traversal"], None, 1, "traversal: FAIL\n"),
    "bfs-pass": (["check", "--order", *"0 1 5 2 3 4".split(), "--kind", "bfs"], None, 0, "breadth-first: PASS\n"),
    "bfs-wrong-kind": (["check", "--order", *"0 1 2 4 5 3".split(), "--kind", "bfs"], None, 1, "breadth-first: FAIL\n"),
    "bfs-non-traversal": (
        ["check", "--order", *"0 2 1 4 5 3".split(), "--kind", "bfs"], None, 1,
        "breadth-first: FAIL [not a traversal]\n",
    ),
    "dfs-pass": (["check", "--order", *"0 1 2 4 5 3".split(), "--kind", "dfs"], None, 0, "depth-first: PASS\n"),
    "dfs-wrong-kind": (["check", "--order", *"0 1 5 2 3 4".split(), "--kind", "dfs"], None, 1, "depth-first: FAIL\n"),
    "dfs-non-traversal": (
        ["check", "--order", *"0 2 1 4 5 3".split(), "--kind", "dfs"], None, 1,
        "depth-first: FAIL [not a traversal]\n",
    ),
    "witness": (
        None, None, 0,
        WITNESS_112.format("0 1 3 5 2 4")
        + "predicted-traversal: PASS\nblock-intervals: PASS\nquotient-stability: PASS\nzeta-profile: PASS\n",
    ),
    "witness-fail": (
        None, (cli, "build_zeta_witness", _reversed_prediction), 1,
        WITNESS_112.format("4 2 5 3 1 0")
        + "predicted-traversal: FAIL\nblock-intervals: PASS\nquotient-stability: PASS\nzeta-profile: PASS\n",
    ),
}


@pytest.mark.parametrize("case", VERDICT_OUTPUTS)
def test_verdict_output_is_pinned(capsys, monkeypatch, six_file, case):
    argv, patch, code, out = VERDICT_OUTPUTS[case]
    if patch is not None:
        monkeypatch.setattr(*patch)
    if argv is None:
        argv = ["witness", "--m", "1", "--n", "1", "--k", "2", "--verify"]
    else:
        argv = [argv[0], six_file, *argv[1:]]
    assert run(capsys, *argv) == (code, out, "")


class TestZeta:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "zeta", "w+1")
        assert code == 0
        assert out == "w*2\n"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "zeta", "w++")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "text, position", [("w^\u00b2", 2), ("w*" + "9" * 5000, 2)], ids=["superscript", "long"]
    )
    def test_bad_numeral_names_its_position(self, capsys, text, position):
        code, out, err = run(capsys, "zeta", text)
        assert code == 2
        assert out == ""
        assert err.rstrip().endswith(f"(at position {position})")

    def test_deep_tower_is_input_error(self, capsys):
        code, out, err = run(capsys, "zeta", tower(2000))
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_tower_at_nesting_limit(self, capsys):
        # zeta(w^X) = w^(w^X) for infinite X
        code, out, _ = run(capsys, "zeta", tower(MAX_EXPONENT_DEPTH))
        assert code == 0
        assert out == "w^(" * MAX_EXPONENT_DEPTH + "w^w" + ")" * MAX_EXPONENT_DEPTH + "\n"


class TestRandom:
    def test_deterministic(self, capsys):
        code, first, _ = run(capsys, "random", "--n", "9", "--density", "0.3", "--seed", "11")
        assert code == 0
        code, second, _ = run(capsys, "random", "--n", "9", "--density", "0.3", "--seed", "11")
        assert first == second
        g = deserialize(first)
        assert g.vertex_count == 9
        assert "".join(serialize(g)) == first

    @pytest.mark.parametrize(
        "n, density, message",
        [
            (MAX_VERTICES + 1, "1e-9", f"error: vertex count {MAX_VERTICES + 1} exceeds the limit"),
            (300_000_000, "0.5", "error: vertex count 300000000 exceeds the limit"),
            (100_000, "1", f"error: expected edge count 4999950000 exceeds the limit of {MAX_RANDOM_EDGES}"),
            (2001, "1", f"error: expected edge count 2001000 exceeds the limit of {MAX_RANDOM_EDGES}"),
        ],
    )
    def test_envelope_is_input_error(self, capsys, n, density, message):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "random", "--n", str(n), "--density", density)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith(message)
        assert peak < 2**20

    @pytest.mark.parametrize("density", ["1e-300", "2.2250738585072014e-308", "4e-320", "5e-324"])
    def test_vanishing_density_prints_a_tree(self, capsys, density):
        code, out, err = run(capsys, "random", "--n", "300", "--density", density, "--seed", "5")
        assert (code, err) == (0, "")
        g = deserialize(out)
        assert (g.vertex_count, len(g.edges)) == (300, 299)
        assert is_connected(g)


def graph_lines():
    """Lines of graph text: mostly well-formed directives on small numbers,
    some malformed, some arbitrary text."""
    number = st.one_of(
        st.integers(0, 9).map(str),
        st.sampled_from(["-1", "+1", "\u00b2", "1_0", "x", "9" * 5000, "007"]),
    )
    return st.one_of(
        st.tuples(st.just("e"), number, number).map(" ".join),
        st.tuples(st.just("n"), number).map(" ".join),
        st.lists(number, max_size=4).map(lambda rest: " ".join(["e", *rest])),
        st.sampled_from(["", "   ", "# comment", "\t# indented", "n", "x 0 1"]),
        st.text(max_size=12),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(graph_lines(), max_size=14).map("\n".join),
    st.sampled_from([["search", "-"], ["tree", "-", "--bfs"], ["alt", "-"]]),
)
def test_graph_text_fuzz_exits_0_or_2(text, argv):
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 2), message
    assert "Traceback" not in message
    if message.startswith("error: line "):
        lineno = int(message.split()[2].rstrip(":"))
        assert 1 <= lineno <= max(1, len(text.splitlines()))


def ordinal_text():
    """Ordinal text: mostly tokens of the grammar, some arbitrary text."""
    token = st.sampled_from(["w", "^", "*", "+", "(", ")", "0", "1", "2", "9", "07", " ", "\u00b2", "x"])
    return st.one_of(st.lists(token, max_size=16).map("".join), st.text(max_size=12))


@settings(max_examples=300, deadline=None)
@given(ordinal_text())
def test_ordinal_text_fuzz_exits_0_or_2(text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["zeta", text])
        except SystemExit as exc:  # text that argparse reads as an option
            code = exc.code
    message = err.getvalue()
    assert code in (0, 2), message
    assert "Traceback" not in message
    if code == 0:
        assert message == "" and out.getvalue().endswith("\n")
    elif "(at position " in message:
        position = int(message.rsplit("(at position ", 1)[1].split(")")[0])
        assert 0 <= position <= len(text)


# Every subcommand but selftest, with its options: None marks a flag, a list
# the choices an option offers, "n" an option that takes a number, "order"
# one that takes several.  Numbers stay small, so no build or enumeration
# grows exponentially.
FUZZ_OPTIONS = {
    "search": {"--start": "n", "--trace": None},
    "bfs": {"--start": "n", "--trace": None},
    "alt": {"--start": "n", "--stats": None},
    "tree": {"--traversal": None, "--bfs": None, "--start": "n", "--dot": None},
    "check": {"--order": "order", "--kind": ["traversal", "bfs", "dfs"]},
    "enumerate": {"--kind": ["all", "bfs", "dfs"], "--start": "n"},
    "verify": {
        "--suite": ["lexmin", "colexmax", "stability", "identities"],
        "--seed": "n",
        "--probes": "n",
    },
    "witness": {"--m": "n", "--n": "n", "--k": "n", "--verify": None},
    "zeta": {},
    "random": {"--n": "n", "--density": "n", "--seed": "n"},
}
FUZZ_REQUIRED = {"--order", "--kind", "--suite", "--m", "--n", "--k", "--density"}
FUZZ_TOKENS = [str(i) for i in range(10)] + ["-1", "x", "w+1"]


@st.composite
def fuzz_argv(draw):
    """A subcommand, its positional argument (the six-vertex graph file,
    stdin or a missing file), its required options and a random subset of
    the others, with values drawn from the tokens or the option's choices
    (or "x"), and sometimes one stray word."""
    token = st.sampled_from(FUZZ_TOKENS)
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    options = FUZZ_OPTIONS[command]
    argv = [command]
    if command == "zeta":
        argv.append(draw(token))
    elif command not in ("witness", "random"):
        argv.append(draw(st.sampled_from(["{six}", "-", "x"])))
    for name, value in options.items():
        if name not in FUZZ_REQUIRED and not draw(st.booleans()):
            continue
        argv.append(name)
        if value == "n":
            argv.append(draw(token))
        elif value == "order":
            argv.extend(draw(st.lists(token, min_size=1, max_size=7)))
        elif value is not None:
            argv.append(draw(st.sampled_from([*value, "x"])))
    if draw(st.integers(0, 3)) == 0:
        word = draw(st.sampled_from([*options, *FUZZ_TOKENS, "{six}", "-"]))
        argv.insert(draw(st.integers(1, len(argv))), word)
    return argv


@settings(max_examples=400, deadline=None)
@given(fuzz_argv())
def test_argv_fuzz_exits_0_1_or_2(tmp_path_factory, argv):
    six = tmp_path_factory.getbasetemp() / "six.g"
    if not six.exists():
        six.write_text(SIX)
    argv = [word.format(six=six) for word in argv]
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(SIX)), redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, message)
    assert "Traceback" not in message
    new, old = dispatch_corpus.both(argv)
    assert new == old, argv


class TestSelftest:
    def test_only_selftest_loads_the_suite(self):
        # A fresh process: this one imported the suite long ago.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = (
            "import sys, ordsearch.cli\n"
            "print('ordsearch.acceptance' in sys.modules)\n"
            "code = ordsearch.cli.main(['selftest', '--only', '1'])\n"
            "print('ordsearch.acceptance' in sys.modules, code)\n"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        lines = fresh.stdout.splitlines()
        assert (fresh.returncode, fresh.stderr, len(lines)) == (0, "", 3), fresh
        assert lines[0] == "False"
        assert lines[1].startswith("criterion 1 golden-triple: PASS (")
        assert lines[2] == "True 0"

    def test_single_criterion(self, capsys):
        code, out, _ = run(capsys, "selftest", "--only", "1")
        assert code == 0
        assert out.startswith("criterion 1 golden-triple: PASS (")

    def test_unknown_criterion(self, capsys):
        code, _, err = run(capsys, "selftest", "--only", "99")
        assert code == 2

    @pytest.mark.parametrize("argv", [["--only", "1"], []], ids=["only", "all"])
    def test_over_budget_fails(self, capsys, monkeypatch, argv):
        slow = acceptance.Criterion(1, "slow", 0.0, lambda: time.sleep(0.01))
        monkeypatch.setattr(acceptance, "CRITERIA", (slow,))
        code, out, _ = run(capsys, "selftest", *argv)
        assert code == 1
        assert out.startswith("criterion 1 slow: FAIL (")
        assert "[exceeded budget of 0s]" in out


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(ordinal):
        raise RuntimeError("kernel fault\nsecond line")

    monkeypatch.setattr(cli, "zeta", broken)
    code, out, err = run(capsys, "zeta", "w+1")
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: kernel fault second line\n"
    assert "Traceback" not in err


class TestCachedParser:
    """``main`` reuses one parser; it must answer like a fresh process."""

    ARGVS = [
        ["search", "{six}", "--trace"],
        ["bfs", "{six}", "--trace", "--start", "3"],
        ["alt", "{six}", "--stats"],
        ["tree", "{six}", "--traversal"],
        ["tree", "{six}", "--bfs", "--dot"],
        ["check", "{six}", "--order", "0", "1", "5", "2", "3", "4", "--kind", "dfs"],
        ["enumerate", "{six}", "--kind", "bfs"],
        ["enumerate", "{six}", "--kind", "all", "--start", "2"],
        ["verify", "{six}", "--suite", "lexmin"],
        ["verify", "{six}", "--suite", "colexmax"],
        ["verify", "{six}", "--suite", "stability", "--seed", "4"],
        ["verify", "{six}", "--suite", "identities", "--probes", "3"],
        ["witness", "--m", "2", "--n", "1", "--k", "3", "--verify"],
        ["zeta", "w^2*3+w+4"],
        ["random", "--n", "7", "--density", "0.4", "--seed", "2"],
        ["selftest", "--only", "99"],
        ["--help"],
        ["verify", "--help"],
        ["search"],
        ["check", "{six}", "--order", "0", "1"],
        ["enumerate", "{six}", "--kind", "widest"],
        ["search", "{six}", "--start", "x"],
        ["witness", "--m", "1", "--n", "1", "--k", "two"],
        [],
        ["frobnicate"],
        ["search", "{six}", "--start", "9"],
        ["search", "/nonexistent/file.g"],
    ]

    def test_back_to_back_calls_match_fresh_processes(self, capsys, monkeypatch, six_file):
        # Help text is wrapped to the terminal width; fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argvs = [[arg.format(six=six_file) for arg in template] for template in self.ARGVS]

        def fresh(argv):
            done = subprocess.run(
                [sys.executable, "-m", "ordsearch.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            return done.returncode, done.stdout, done.stderr

        # The fresh processes run while main answers in this one: one per
        # argv, at most one per CPU and never more than eight at once.
        with ThreadPoolExecutor(min(os.cpu_count() or 1, 8)) as pool:
            expected = pool.map(fresh, argvs)
            for argv in argvs:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                assert (code, captured.out, captured.err) == next(expected), argv

    def test_kernel_is_looked_up_when_the_command_runs(self, capsys, monkeypatch, six_file):
        assert run(capsys, "bfs", six_file) == (0, "0 1 5 2 3 4\n", "")
        calls = []

        def patched(g, start=0):
            calls.append(start)
            return search.bfs_search(g, start)

        monkeypatch.setattr(cli, "bfs_search", patched)
        assert run(capsys, "bfs", six_file, "--start", "2") == (0, "2 1 4 0 5 3\n", "")
        assert calls == [2]


def pinned_help() -> dict[str, str]:
    """``tests/cli_help.txt``: each parser's help text at 100 columns, after
    a ``### <prog>`` line."""
    path = os.path.join(os.path.dirname(__file__), "cli_help.txt")
    with open(path, encoding="utf-8") as handle:
        sections = handle.read().split("### ")[1:]
    return dict(section.split("\n", 1) for section in sections)


class TestHelpText:
    """The help and usage text of the full parser and of every command's
    parser, against a fixed copy.  At 100 columns nothing wraps differently
    between Python 3.10 and 3.13; at 80, 3.13 wraps two usage lines its own
    way."""

    PINNED = pinned_help()

    def test_every_parser_is_pinned(self):
        parser, commands = cli._build_parsers()
        assert [parser.prog, *(p.prog for p in commands.values())] == list(self.PINNED)

    @pytest.mark.parametrize("prog", list(PINNED))
    def test_help_and_usage(self, monkeypatch, prog):
        monkeypatch.setenv("COLUMNS", "100")
        parser, commands = cli._build_parsers()
        p = parser if prog == parser.prog else commands[prog.split()[1]]
        assert p.format_help() == self.PINNED[prog]
        assert p.format_usage() == self.PINNED[prog].split("\n\n")[0] + "\n"


class TestDispatch:
    """A request naming a command is parsed by that command's parser alone;
    it must answer as the full parser's route does."""

    @pytest.mark.parametrize(
        "template", dispatch_corpus.CORPUS, ids=lambda argv: " ".join(argv) or "(none)"
    )
    def test_matches_the_full_parser(self, six_file, template):
        argv = [word.format(six=six_file) for word in template]
        new, old = dispatch_corpus.both(argv)
        assert new == old

    def test_a_request_is_parsed_once(self, capsys, monkeypatch, six_file):
        parsed = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            parsed.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert run(capsys, "search", six_file, "--start", "3") == (0, "3 5 0 1 2 4\n", "")
        assert parsed == ["ordsearch search"]


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

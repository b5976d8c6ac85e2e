"""Tests of the benchmark itself: generator determinism, oracle agreement
with ordsearch on small seeded inputs, oracle rejection of corrupted
responses, and the tracer's accounting.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import io
import json
import random
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ordsearch.cli import main as cli_main  # noqa: E402
from ordsearch.graph import deserialize  # noqa: E402
from ordsearch.ordinal import Ordinal, zeta  # noqa: E402
from ordsearch.predicates import enumerate_traversals  # noqa: E402
from ordsearch.search import bfs_search, deterministic_search  # noqa: E402


def _inputs(reqs):
    return [(r.argv, r.stdin) for r in reqs]


def _cli(argv, text, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = cli_main(argv)
    return code, capsys.readouterr().out


# -- generator -------------------------------------------------------------------


def test_same_seed_gives_identical_inputs():
    assert _inputs(workloads.verify_small(7)) == _inputs(workloads.verify_small(7))
    assert _inputs(workloads.trace_medium(7)) == _inputs(workloads.trace_medium(7))


def test_different_seed_gives_different_inputs():
    assert _inputs(workloads.verify_small(7)) != _inputs(workloads.verify_small(8))
    a = gen.sparse_connected(500, 6.0, gen.rng_for(1, "x")).text()
    b = gen.sparse_connected(500, 6.0, gen.rng_for(2, "x")).text()
    assert a != b


@pytest.mark.parametrize("seed", range(5))
def test_sparse_graphs_are_connected_and_about_three_n_edges(seed):
    g = gen.sparse_connected(3000, 6.0, gen.rng_for(seed, "sparse"))
    assert len(oracles.least_first_order(g)) == g.n
    assert len({(min(e), max(e)) for e in g.edges}) == len(g.edges)
    assert 2.8 * g.n < len(g.edges) < 3.2 * g.n


def test_geometric_skipping_hits_the_expected_pair_count():
    n, p = 400, 0.05
    counts = [sum(1 for _ in gen.skip_pairs(n, p, random.Random(s))) for s in range(20)]
    expected = p * n * (n - 1) / 2
    assert abs(sum(counts) / len(counts) - expected) < 0.05 * expected
    assert all(0 <= w < v < n for w, v in gen.skip_pairs(n, p, random.Random(0)))


def test_star_centre_is_not_vertex_zero():
    for seed in range(20):
        g = gen.star(50, gen.rng_for(seed, "star"))
        centre = max(range(g.n), key=lambda v: len(oracles.adjacency(g)[v]))
        assert centre != 0 and len(g.edges) == g.n - 1


# -- oracles agree with ordsearch ----------------------------------------------------


def _small_graphs(count=40):
    rng = random.Random(11)
    for i in range(count):
        n = rng.randint(4, 7)
        yield gen.small_connected(n, rng.randint(0, (n - 1) * (n - 2) // 2), rng)


def test_search_oracles_agree_with_ordsearch():
    rng = random.Random(5)
    for g in list(_small_graphs()) + [gen.sparse_connected(300, 6.0, rng) for _ in range(5)]:
        og = deserialize(g.text())
        assert oracles.least_first_order(g) == list(deterministic_search(og).visit_order)
        assert oracles.bfs_queue(g)[0] == list(bfs_search(og).visit_order)


def test_bfs_oracle_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    g = gen.sparse_connected(400, 6.0, random.Random(3))
    nxg = nx.Graph(g.edges)
    order = [0] + [v for _, v in nx.bfs_edges(nxg, 0, sort_neighbors=sorted)]
    assert oracles.bfs_queue(g)[0] == order


def test_enumeration_oracle_agrees_with_ordsearch():
    kinds = {"all": "all", "bfs": "breadth_first", "dfs": "depth_first"}
    for i, g in enumerate(_small_graphs(30)):
        og = deserialize(g.text())
        start = None if i % 2 else i % g.n
        for kind, name in kinds.items():
            expected = enumerate_traversals(og, name, fixed_start=start).sorted_orders()
            assert oracles.traversals(g, kind, start) == expected


def test_trace_oracles_match_the_cli(capsys, monkeypatch):
    g = gen.sparse_connected(60, 6.0, random.Random(9))
    assert _cli(["search", "-", "--trace"], g.text(), capsys, monkeypatch) == (0, oracles.least_first_trace(g))
    assert _cli(["bfs", "-", "--trace"], g.text(), capsys, monkeypatch) == (0, oracles.bfs_trace(g))


def test_zeta_oracle_agrees_with_ordsearch():
    rng = random.Random(4)
    for _ in range(300):
        a = gen.random_ordinal(rng, rng.randint(0, 3))
        text = gen.ordinal_text(a)
        assert str(Ordinal.parse(text)) == text
        assert str(zeta(Ordinal.parse(text))) == gen.ordinal_text(oracles.zeta(a))


# -- checks accept real responses and reject corrupted ones -----------------------------


def _corruptions(out: str):
    lines = out.splitlines(keepends=True)
    yield out.replace("PASS", "FAIL")
    yield "".join(lines[:-1])
    yield "".join(lines[1:])
    yield "".join(reversed(lines))
    if lines:
        first = lines[0].split()
        if len(first) >= 2:
            first[0], first[1] = first[1], first[0]
            yield " ".join(first) + "\n" + "".join(lines[1:])


def _assert_check_is_sharp(req, code, out):
    assert req.check(code, out, "") is None, req.argv
    assert req.check(1 if code == 0 else 0, out, "") is not None
    for bad in _corruptions(out):
        if bad != out:
            assert req.check(code, bad, "") is not None, (req.argv, bad[:80])


def test_checks_accept_and_reject_small_requests(capsys, monkeypatch):
    reqs = workloads.verify_small(5)
    for req in [r for r in reqs if not r.probe][:150]:
        code, out = _cli(req.argv, req.stdin or "", capsys, monkeypatch)
        _assert_check_is_sharp(req, code, out)


def test_checks_accept_and_reject_explaining_requests(capsys, monkeypatch):
    rng = random.Random(2)
    g = gen.sparse_connected(80, 6.0, rng)
    order = oracles.least_first_order(g)
    cases = [
        (["search", "-", "--trace"], oracles.exact(0, lambda: oracles.least_first_trace(g))),
        (["bfs", "-", "--trace"], oracles.exact(0, lambda: oracles.bfs_trace(g))),
        (["tree", "-", "--traversal", "--dot"], lambda c, o, e: oracles.check_tree_dot(g, order, o)),
        (["tree", "-", "--traversal"], lambda c, o, e: oracles.check_tree(g, order, o)),
    ]
    for argv, check in cases:
        code, out = _cli(argv, g.text(), capsys, monkeypatch)
        assert check(code, out, "") is None
        for bad in _corruptions(out):
            if bad != out:
                assert check(code, bad, "") is not None, (argv, bad[:80])
    # A spanning tree that is not the least-neighbour tree is rejected.
    code, out = _cli(["tree", "-", "--bfs"], g.text(), capsys, monkeypatch)
    if out != _cli(["tree", "-", "--traversal"], g.text(), capsys, monkeypatch)[1]:
        assert oracles.check_tree(g, order, out) is not None


def test_random_graph_check(capsys, monkeypatch):
    code, out = _cli(["random", "--n", "300", "--density", "0.01", "--seed", "4"], "", capsys, monkeypatch)
    assert code == 0 and oracles.check_random_graph(300, out) is None
    lines = out.splitlines(keepends=True)
    assert oracles.check_random_graph(301, out) is not None
    isolated = [x for x in lines if not x.rstrip().endswith(" 299")]
    assert oracles.check_random_graph(300, "".join(isolated)) is not None
    u, v = lines[1].split()[1:]
    assert oracles.check_random_graph(300, out.replace(lines[1], f"e {v} {u}\n", 1)) is not None


def test_witness_check_rejects_a_wrong_prediction(capsys, monkeypatch):
    check = oracles.witness_verified(2, 1, 3)
    code, out = _cli(["witness", "--m", "2", "--n", "1", "--k", "3", "--verify"], "", capsys, monkeypatch)
    assert check(code, out, "") is None
    line = next(x for x in out.splitlines() if x.startswith("predicted: "))
    nums = line.split()[1:]
    nums[1], nums[2] = nums[2], nums[1]
    assert check(code, out.replace(line, "predicted: " + " ".join(nums)), "") is not None
    assert check(code, out.replace("zeta=", "zeta=w+"), "") is not None


def test_usage_error_check():
    assert oracles.usage_error(2, "", "error: line 2: self-loop at vertex 1\n") is None
    assert oracles.usage_error(1, "", "error: x\n") is not None
    assert oracles.usage_error(2, "0 1\n", "error: x\n") is not None


# -- tracer --------------------------------------------------------------------------------


def test_traced_self_times_sum_to_the_traced_wall_time():
    reqs = [r for r in workloads.verify_small(2) if not r.probe][:40]
    reqs += workloads.trace_medium(2)[-1:]
    tally = run.Tally()
    info: dict = {}
    values = run.per_layer(reqs, tally, info)
    assert tally.failed == 0
    assert info["self_s_total"] == pytest.approx(info["traced_wall_s"], rel=0.02)
    assert values["trace.overhead_s"] == pytest.approx(info["traced_wall_s"] - info["untraced_wall_s"])
    assert values["cli.main.self_s"] > 0 and values["search.alt.splits"] > 0
    assert not info["absent"]


def test_missing_layers_are_reported_absent():
    package = types.ModuleType("fakeordsearch")
    graph = types.ModuleType("fakeordsearch.graph")
    graph.__dict__["deserialize"] = lambda text: text
    package.graph = graph
    t = tracer.Tracer()
    absent = t.install(package)
    assert "graph.OrderedGraph" in absent and "ordinal.parse" in absent


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

"""ordsearch benchmark: drives the CLI the way its users do and checks every
answer against references that share no code with ordsearch.

Usage (from the repository root)::

    python3 perfbench/run.py --workload traverse-large --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

Each workload run builds its request list from the seed, starts one fresh
child interpreter that imports ``ordsearch`` from ``src/`` (nothing is
installed), and sends it one request at a time: a closed loop with one
client.  Only one child runs at a time.  Responses are checked between
requests, outside every timed interval.

``--trace 0`` repeats the request list while ``--seconds`` allows (at least
three times), takes each request's best latency over the passes, and reports
the end-to-end metrics.  ``--trace 1`` runs the list three
times in one child: untraced, with spans, and with tracemalloc peaks, and
reports the per-layer metrics.  A human-readable table goes to standard
output first; the last line is one JSON object.  See README.md for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import PEAK_NAMES  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15
MIN_PASSES = 3
RUN_LIMIT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "ok_ratio": "ratio",
}
# The request count from which a 99th percentile has ten samples beyond it;
# below it the table prints no tail percentile.
TAIL_SAMPLES = 1000

SELF_TIMED = (
    "cli.main",
    "graph.deserialize",
    "graph.OrderedGraph",
    "graph.adjacency",
    "graph.serialize",
    "graph.relabel",
    "graph.induced_subgraph",
    "graph.random_connected_graph",
    "graph.dot_export",
    "graph.is_connected",
    "search.deterministic_search",
    "search.bfs_search",
    "search.stage_lines",
    "search.alt_search_with_counts",
    "search.traversal_tree",
    "search.least_neighbor_map",
    "predicates.is_traversal",
    "predicates.is_breadth_first",
    "predicates.is_depth_first",
    "predicates.enumerate_traversals",
    "predicates.closure_samples",
    "predicates.verify_subset_stability",
    "predicates.verify_quotient_stability",
    "witness.build_zeta_witness",
    "witness.verify_witness",
    "witness.format_manifest",
    "ordinal.parse",
    "ordinal.zeta",
    "ordinal.format",
)
CALL_COUNTED = (
    "graph.OrderedGraph",
    "graph.induced_subgraph",
    "search.deterministic_search",
    "search.bfs_search",
    "predicates.is_traversal",
    "predicates.is_breadth_first",
    "predicates.is_depth_first",
    "predicates.enumerate_traversals",
    "ordinal.parse",
)
PEAKED = PEAK_NAMES
# Derived per-layer metrics: name -> (unit, layer whose absence makes it absent).
DERIVED = {
    "cli.out_bytes": ("bytes", "cli.main"),
    "graph.edges_normalized": ("count", "graph.OrderedGraph"),
    "graph.normalize_ratio": ("ratio", "graph.OrderedGraph"),
    "search.distinct_ratio": ("ratio", "search.deterministic_search"),
    "search.alt.splits": ("count", "cli.main"),
    "search.alt.scanned": ("count", "cli.main"),
    "predicates.orders_enumerated": ("count", "predicates.enumerate_traversals"),
    "predicates.enumerate_yield": ("ratio", "predicates.enumerate_traversals"),
    "witness.vertices_built": ("count", "witness.build_zeta_witness"),
    "trace.overhead_s": ("s", None),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SELF_TIMED:
        units[f"{name}.self_s"] = "s"
    for name in CALL_COUNTED:
        units[f"{name}.calls"] = "count"
    for name in PEAKED:
        units[f"{name}.peak_mb"] = "MB"
    for name, (unit, _) in DERIVED.items():
        units[name] = unit
    return units


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, dead child)."""


class Child:
    """One fresh interpreter serving requests; see child.py."""

    def __init__(self):
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(SRC)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
        )
        first = self._receive()
        self.setup_s = perf_counter() - start
        if first[0] != "ready":
            self.close()
            raise BenchError(first[1])

    def _receive(self):
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise BenchError(f"child exited with code {self.proc.wait()}") from None

    def ask(self, *command):
        pickle.dump(command, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()
        return self._receive()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                pickle.dump(("quit",), self.proc.stdin)
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Tally:
    """Pass/fail accounting; a response identical to one already verified
    for the same request is not checked again."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures outside the exit-code contract probes
        self.reasons: dict[str, int] = {}
        self.verified: dict[int, tuple] = {}

    def record(self, req, code, out, err, exception) -> None:
        self.attempted += 1
        if exception is not None:
            reason = f"uncaught {exception.split(':')[0]}"
        elif self.verified.get(id(req)) == (code, out):
            return
        else:
            try:
                reason = req.check(code, out, err)
            except Exception as exc:  # a response the check cannot even parse
                reason = f"unreadable response ({type(exc).__name__})"
            if reason is None:
                self.verified[id(req)] = (code, out)
                return
        self.failed += 1
        if not req.probe:
            self.wrong += 1
        key = f"{req.argv[0]}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1


def run_pass(child: Child, requests, tally: Tally, outputs: list | None = None) -> list[float]:
    latencies = []
    for req in requests:
        code, pieces, err, seconds, exception = child.ask("run", req.argv, req.stdin)
        out = "".join(pieces)
        latencies.append(seconds)
        tally.record(req, code, out, err, exception)
        if outputs is not None:
            outputs.append((req, out))
    return latencies


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_time() -> float:
    probe = Child()
    probe.close()
    return probe.setup_s


def end_to_end(requests, seconds: float, tally: Tally, info: dict) -> dict[str, float]:
    # One child at a time: the set-up probes start and end before the
    # workload's own child, whose set-up is the last sample.
    setup = [setup_time() for _ in range(SETUP_SAMPLES - 1)]
    child = Child()
    try:
        setup.append(child.setup_s)
        passes = []
        began = perf_counter()
        while True:
            pass_began = perf_counter()
            passes.append(run_pass(child, requests, tally))
            took = perf_counter() - pass_began
            if len(passes) >= MIN_PASSES and perf_counter() - began + took > seconds:
                break
        rss = child.ask("rusage")
    finally:
        child.close()
    # Each request's latency is its best over the passes: the passes are
    # seconds apart, so this filters the host's slow spells, not the program.
    best = [min(times) for times in zip(*passes)]
    info.update(
        passes=len(passes),
        samples=len(best),
        setup_samples=len(setup),
        req_p99_ms=percentile(best, 0.99) * 1e3,
    )
    return {
        "wall_s": sum(best),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "req_p50_ms": statistics.median(best) * 1e3,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def per_layer(requests, tally: Tally, info: dict) -> dict[str, float]:
    child = Child()
    try:
        untraced = sum(run_pass(child, requests, tally))
        absent = set(child.ask("trace", "spans"))
        outputs: list = []
        traced = sum(run_pass(child, requests, tally, outputs))
        spans = child.ask("report")
        child.ask("trace", "memory")
        run_pass(child, requests, tally)
        peaks = child.ask("report")["peak_mb"]
    finally:
        child.close()
    wrapped = set(spans["names"])
    absent |= {name for name in SELF_TIMED + CALL_COUNTED + PEAKED if name not in wrapped}
    counts = spans["counts"]
    calls = spans["calls"]
    input_edges = sum(req.input_edges for req in requests)
    splits = scanned = 0
    for req, out in outputs:
        if req.argv[0] == "alt":
            for line in out.splitlines():
                if line.startswith("splits: "):
                    splits += int(line.split()[1])
                elif line.startswith("scanned: "):
                    scanned += int(line.split()[1])
    searches = calls.get("search.deterministic_search", 0)
    candidates = counts.get("predicates.enumerate_candidates", 0)
    orders = counts.get("predicates.orders_enumerated", 0)
    values = {}
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = spans["self_s"].get(name, 0.0)
    for name in CALL_COUNTED:
        values[f"{name}.calls"] = calls.get(name, 0)
    for name in PEAKED:
        values[f"{name}.peak_mb"] = peaks.get(name, 0.0)
    values.update({
        "cli.out_bytes": sum(len(out.encode()) for _, out in outputs),
        "graph.edges_normalized": counts.get("graph.edges_normalized", 0),
        "graph.normalize_ratio": counts.get("graph.edges_normalized", 0) / max(1, input_edges),
        "search.distinct_ratio": counts.get("search.distinct_searches", 0) / searches if searches else 0.0,
        "search.alt.splits": splits,
        "search.alt.scanned": scanned,
        "predicates.orders_enumerated": orders,
        "predicates.enumerate_yield": orders / candidates if candidates else 0.0,
        "witness.vertices_built": counts.get("witness.vertices_built", 0),
        "trace.overhead_s": traced - untraced,
    })
    for name, (_, layer) in DERIVED.items():
        if layer in absent:
            absent.add(name)
    info.update(
        untraced_wall_s=untraced,
        traced_wall_s=traced,
        self_s_total=sum(spans["self_s"].values()),
        absent=sorted(absent),
        unreported=sorted(wrapped - set(SELF_TIMED)),
        all_self_s=spans["self_s"],
    )
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "ordsearch" / "cli.py").is_file():
        raise BenchError(f"no ordsearch sources under {SRC}")
    requests = workloads.WORKLOADS[name](seed)
    tally = Tally()
    info: dict = {}
    if trace:
        values = per_layer(requests, tally, info)
        units = per_layer_units()
    else:
        values = end_to_end(requests, seconds, tally, info)
        units = END_TO_END
    _print_table(name, seed, len(requests), values, units, tally, info, trace)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def _print_table(name, seed, count, values, units, tally, info, trace) -> None:
    print(f"workload {name}  seed {seed}  requests per pass {count}")
    absent = set(info.get("absent", ()))
    for key, unit in units.items():
        note = "  (absent)" if key in absent else ""
        print(f"  {key:<42} {values[key]!r:>24} {unit}{note}")
    if trace:
        print(f"  untraced wall {info['untraced_wall_s']:.4f} s, traced wall {info['traced_wall_s']:.4f} s, "
              f"self times sum {info['self_s_total']:.4f} s")
        for layer in info["unreported"]:
            if info["all_self_s"].get(layer):
                print(f"  {layer + '.self_s':<42} {info['all_self_s'][layer]!r:>24} s  (not in BENCHMARK.json)")
    else:
        if info["samples"] >= TAIL_SAMPLES:
            print(f"  {'req_p99_ms':<42} {info['req_p99_ms']!r:>24} ms  (table only)")
        else:
            print(f"  {'req_p99_ms':<42} {'n/a':>24}     (too few requests for a tail percentile)")
        print(f"  passes {info['passes']}, latency samples {info['samples']}, "
              f"set-up samples {info['setup_samples']}")
    print(f"  fail_ratio {tally.failed / tally.attempted!r} ({tally.failed} of {tally.attempted} requests)")
    for reason, times in sorted(tally.reasons.items()):
        print(f"  failed x{times}: {reason}")


def _timeout(signum, frame):
    raise TimeoutError(f"workload run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGALRM, _timeout)
    try:
        for name in names:
            signal.alarm(RUN_LIMIT_S)
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            signal.alarm(0)
            print(json.dumps(result), flush=True)
    except (BenchError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own code: seeded inputs, the correctness gate,
the span summary and the refusal to run without the mkcs sources.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

from gate import check_report  # noqa: E402
from mkcs.graph import Graph, parse_dimacs  # noqa: E402
from tracer import COUNT_NAMES, summarize  # noqa: E402
from workloads import WORKLOADS, Workload, make_instance  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_dimacs(name):
    w = WORKLOADS[name]
    _, first = make_instance(w, 7)
    _, second = make_instance(w, 7)
    _, other = make_instance(w, 8)
    assert first == second
    assert first != other


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_instance_is_the_workload_graph(name):
    g, text = make_instance(WORKLOADS[name], 3)
    parsed = parse_dimacs(text)
    assert parsed.n == g.n
    assert parsed.num_edges == g.num_edges
    assert parsed.edges == g.edges


def _solve_report(coloring, lb, ub=4.5, lb_hint=2, k=2):
    return {"ub": ub, "n": 5, "k": k, "lb_hint": lb_hint, "lb": lb,
            "coloring": {str(v): c for v, c in coloring.items()}}


PATH5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
SOLVE = Workload("path", "solve", 2, "none")
BOUND = Workload("path", "bound", 2, "none")


def test_gate_accepts_a_proper_colouring():
    report = _solve_report({1: 1, 2: 2, 3: 1, 4: 2, 5: 1}, 5, ub=5.0)
    assert check_report(report, SOLVE, PATH5) == []


@pytest.mark.parametrize(
    "report, fragment",
    [
        (_solve_report({1: 1, 2: 1}, 2), "improper"),
        (_solve_report({1: 1, 3: 2, 5: 3}, 3), "more than 2 colours"),
        (_solve_report({1: 1, 3: 1}, 3), "lb is 3"),
        (_solve_report({1: 1, 3: 1, 5: 1}, 3, ub=2.5), "below the lower bound"),
        (_solve_report({1: 1}, 1, ub=math.inf), "non-finite"),
        (_solve_report({1: 1, 9: 2}, 2), "outside the graph"),
    ],
)
def test_gate_rejects(report, fragment):
    errors = check_report(report, SOLVE, PATH5)
    assert any(fragment in e for e in errors), errors


def test_gate_checks_bound_reports_against_the_hint():
    report = {"ub": 2.9, "n": 5, "k": 2, "lb_hint": 3}
    assert any("below the lower bound" in e
               for e in check_report(report, BOUND, PATH5))
    report["ub"] = 3.0
    assert check_report(report, BOUND, PATH5) == []


def test_summary_self_times_and_uncovered_time():
    # cli [0, 10] holds cp_admm [1, 9], which holds dykstra [2, 5] and psd [5, 6]
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["cp_admm", 1.0, 9.0, 0],
        ["dykstra", 2.0, 5.0, 1],
        ["psd", 5.0, 6.0, 1],
    ]
    counts = {"projection.dykstra_cycles": 7, "cuts.candidates": 4,
              "cuts.accepted": 1}
    m = summarize(spans, counts, window_s=10.5)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["cpadmm.self_s"] == pytest.approx(4.0)
    assert m["projection.dykstra_s"] == pytest.approx(3.0)
    assert m["linalg.psd_s"] == pytest.approx(1.0)
    assert m["linalg.psd_calls"] == 1
    assert m["linalg.psd_us_per_call"] == pytest.approx(1e6)
    assert m["other_s"] == pytest.approx(0.5)
    assert m["cuts.accept_ratio"] == pytest.approx(0.25)
    assert m["projection.dykstra_cycles"] == 7


def test_summary_names_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]} - {"trace_overhead_s"}
    assert set(summarize([], dict.fromkeys(COUNT_NAMES, 0), 1.0)) == names


def test_refuses_to_run_without_the_sources():
    # a directory holding only BENCHMARK.json and the benchmark
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "myciel5-k4-solve",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

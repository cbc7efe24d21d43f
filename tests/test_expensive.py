"""Long-running optional reproductions, enabled with MKCS_EXPENSIVE=1.

These are not part of the acceptance gate: the exact queen6_6 optimum
takes a long branch-and-bound run, the chromatic-number improvements
on the DSJC125 graphs need the original DIMACS files, which are not
shipped with the repository (see README for where to fetch them), and
the loop separators that the scale check compares against take about
20 s on a G(125, 0.5) pool."""

import json
import os
from pathlib import Path

import pytest

import separation_reference as ref
from bench_instances import queen6_6
from mkcs.cli import RunConfig, chromatic_search, main
from mkcs.cpadmm import AdmmParams, greedy_lower_bound, initial_state, inner_admm
from mkcs.cuts import separate_clique_external, separate_odd_hole
from mkcs.graph import enumerate_5holes, enumerate_cliques, parse_dimacs, write_dimacs
from mkcs.linalg import FreeIndexMap
from mkcs.oracle import alpha_k_exact
from reference_helpers import random_graph

expensive = pytest.mark.skipif(
    os.environ.get("MKCS_EXPENSIVE") != "1",
    reason="set MKCS_EXPENSIVE=1 to run long reproductions",
)

INSTANCE_DIR = Path(__file__).parent / "instances"


@expensive
def test_queen6_6_exact_optimum():
    g = queen6_6()
    lb, _ = greedy_lower_bound(g, 6, seed=0)
    assert alpha_k_exact(g, 6, max_vertices=36, initial_lb=lb) == 32


@pytest.mark.parametrize("name,target", [("DSJC125.5", 14), ("DSJC125.9", 43)])
@expensive
def test_dsjc125_chromatic_lower_bounds(name, target):
    path = INSTANCE_DIR / f"{name}.col"
    if not path.exists():
        pytest.skip(f"{path} not present; download the DIMACS instance first")
    g = parse_dimacs(path.read_bytes(), name=name)
    cfg = RunConfig(time_limit=3600.0)
    value, _ = chromatic_search(g, cfg)
    assert value >= target


# chromatic_search on G(n, 0.5) seed 1 with the default settings, the k
# values sharing one pool of maximal cliques: the chi bound and the
# (k, ub) of each step
GNP_CHROMATIC = {
    70: (11, [(1, 8.612497337134759), (9, 69.98400682822383),
              (10, 69.70883695454407), (11, 70.0)]),
    125: (13, [(1, 11.666106840124), (12, 124.67785017500331), (13, 125.0)]),
}


@pytest.mark.parametrize("n", sorted(GNP_CHROMATIC))
@expensive
def test_gnp_chromatic_steps_with_shared_pools(n):
    chi, expected = GNP_CHROMATIC[n]
    value, steps = chromatic_search(random_graph(n, 0.5, 1))
    assert value == chi
    assert [step["k"] for step in steps] == [k for k, _ in expected]
    for step, (_, ub) in zip(steps, expected):
        assert step["ub"] == pytest.approx(ub, abs=1e-6)


@expensive
def test_g125_separators_match_reference():
    # the first relaxation iterate of G(125, 0.5) at k = 8, against one
    # enumerated pool: 38,842 maximal cliques, and the first 200,000 holes
    # (of 2.8 million), where the hole pool stops at MAX_POOL
    g = random_graph(125, 0.5, 1)
    k = 8
    fmap = FreeIndexMap(g)
    state = initial_state(g, k)
    inner_admm(state, fmap, AdmmParams(seed=0).resolved(g.n))
    cliques = enumerate_cliques(g)
    holes = enumerate_5holes(g)
    assert len(holes.holes) == 200_000 and not holes.complete
    ref.assert_same_candidates(
        separate_odd_hole(state.X, g, fmap, holes, k),
        ref.separate_odd_hole(state.X, g, fmap, ref.hole_objects(holes.holes), k),
    )
    ref.assert_same_candidates(
        separate_clique_external(state.X, g, fmap, cliques, k),
        ref.separate_clique_external(state.X, g, fmap, ref.clique_objects(cliques), k),
    )


@expensive
def test_g125_bound_keeps_a_one_second_limit(tmp_path):
    # every separator stops between chunks at the deadline, so a round
    # that ends just before it no longer scans a whole pool
    path = tmp_path / "gnp125.col"
    path.write_text(write_dimacs(random_graph(125, 0.5, 1)))
    out = tmp_path / "report.json"
    assert main(["bound", str(path), "--k", "8", "--time-limit", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["termination"] == "time_limit" and report["time_ub"] <= 1.3

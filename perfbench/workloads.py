"""Workload definitions and their seeded inputs.

Every workload runs one mkcs CLI mode on one fixed graph with one k.
The benchmark seed shuffles the order and orientation of the DIMACS edge
lines.  It does not relabel the vertices: the cut selection breaks ties
by vertex order, so a relabelled queen6_6 follows another cutting-plane
trajectory, and over five rounds that changed the bound time between
2.9 s and 10.1 s across five seeds.  Nor does it reach the solver's ``--seed``, which stays
at ``SOLVER_SEED``: that seed only shuffles the greedy colouring's ties,
and it moved queen6_6's lower-bound hint between 25 and 29.  The program
only sees the written DIMACS file and the flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import bench_instances
import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str            # "bound" or "solve"
    k: int
    instance: str        # name of the construction in tests/bench_instances.py
    config: dict = field(default_factory=dict)  # passed through --config


SOLVER_SEED = 0

WORKLOADS = {
    w.name: w
    for w in (
        Workload("queen6_6-k6-bound", "bound", 6, "queen6_6", {"max_outer": 5}),
        Workload("myciel5-k4-solve", "solve", 4, "myciel5", {"beta_incr": 1.0005}),
    )
}


def shuffled_dimacs(g, seed):
    """DIMACS text of ``g`` with the edge lines in a seeded random order,
    each edge in a seeded random orientation."""
    rng = np.random.default_rng(seed)
    edges = sorted(g.edges)
    flip = rng.random(len(edges)) < 0.5
    lines = [f"c {g.name}", f"p edge {g.n} {len(edges)}"]
    for pos in rng.permutation(len(edges)):
        i, j = edges[pos]
        lines.append(f"e {j} {i}" if flip[pos] else f"e {i} {j}")
    return "\n".join(lines) + "\n"


def make_instance(workload, seed):
    """The graph of a workload and its seeded DIMACS text."""
    g = getattr(bench_instances, workload.instance)()
    return g, shuffled_dimacs(g, seed)

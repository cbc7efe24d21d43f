"""Correctness gate and exact-repeat work counters of one benchmark run.

The gate checks a run's report against the graph the benchmark generated,
with its own code: the upper bound is finite and not below any lower
bound reported, and a reported colouring is proper, uses at most k
colours and colours exactly ``lb`` vertices.
"""

import json
import math


def check_report(report, workload, g):
    """Correctness gate of one run; returns the list of failures."""
    errors = []
    ub = report.get("ub")
    if not isinstance(ub, (int, float)) or not math.isfinite(ub):
        return [f"non-finite ub {ub!r}"]
    if report.get("n") != g.n or report.get("k") != workload.k:
        errors.append("report is for another instance or k")
    lb_hint = report.get("lb_hint")
    if not isinstance(lb_hint, int) or not 0 <= lb_hint <= g.n:
        errors.append(f"bad lb_hint {lb_hint!r}")
        lb_hint = 0
    lb = 0
    if workload.mode == "solve":
        lb = report.get("lb")
        errors.extend(check_coloring(report.get("coloring"), lb, workload.k, g))
        if not isinstance(lb, int):
            lb = 0
    if ub < max(lb, lb_hint) - 1e-6:
        errors.append(f"ub {ub} below the lower bound {max(lb, lb_hint)}")
    return errors


def check_coloring(coloring, lb, k, g):
    """The colouring is proper on the generated graph, uses at most k
    colours and colours exactly ``lb`` vertices."""
    if not isinstance(coloring, dict):
        return ["no colouring in the report"]
    try:
        assignment = {int(v): int(c) for v, c in coloring.items()}
    except (TypeError, ValueError):
        return ["malformed colouring"]
    errors = []
    if len(assignment) != lb:
        errors.append(f"colouring has {len(assignment)} vertices, lb is {lb}")
    if any(not 1 <= v <= g.n for v in assignment):
        errors.append("colouring names a vertex outside the graph")
    if len(set(assignment.values())) > k:
        errors.append(f"colouring uses more than {k} colours")
    clashes = [
        (i, j) for i, j in g.edges
        if i in assignment and assignment.get(j) == assignment[i]
    ]
    if clashes:
        errors.append(f"colouring is improper on edge {clashes[0]}")
    return errors


def work_counters(out):
    """Counts of a run that must repeat exactly for one code and seed."""
    report = json.loads(out.read_text())
    rounds = [json.loads(line) for line in
              out.with_suffix(".trace.jsonl").read_text().splitlines()]
    counters = {
        "outer_rounds": report["outer_iters"],
        "sweeps": report["inner_iters"],
        "tightened_sweeps": report["tightened_iters"],
        "cuts": report["cuts"],
        "sweeps_per_round": [r["inner_iters"] for r in rounds],
        "cuts_per_round": [r["n_cuts_added"] for r in rounds],
        "enumeration_complete": report["enumeration_complete"],
    }
    int_trace = out.with_suffix(".int_trace.jsonl")
    if int_trace.exists():
        counters["int_sweeps"] = report["int_iters"]
        counters["int_events"] = len(int_trace.read_text().splitlines())
    return counters

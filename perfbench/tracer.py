"""Span tracer installed around the module-level names that the mkcs
modules call, for the benchmark's traced runs only.

``Tracer.install()`` replaces each traced name in its calling module
with a wrapper that records a span ``[name, start, end, parent]`` (times
from ``time.monotonic``; ``parent`` indexes the enclosing span, -1 at the
root) and adds the work counts read from the return value.  Spans stay
in memory and are written out once, when the traced process ends.
``summarize`` turns the spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import time

# (module, attribute, span name).  A function bound under several
# module names is wrapped in each module that calls it.
TRACED = (
    ("mkcs.cli", "main", "cli"),
    ("mkcs.cli", "run_bound", "cli"),
    ("mkcs.cli", "run_solve", "cli"),
    ("mkcs.cli", "parse_dimacs", "parse"),
    ("mkcs.cli", "greedy_lower_bound", "greedy"),
    ("mkcs.cli", "cp_admm", "cp_admm"),
    ("mkcs.cli", "int_admm", "int_admm"),
    ("mkcs.cli", "scipy_linprog_backend", "lp"),
    ("mkcs.cpadmm", "greedy_lower_bound", "greedy"),
    ("mkcs.cpadmm", "enumerate_cliques", "enum_cliques"),
    ("mkcs.cpadmm", "enumerate_5holes", "enum_holes"),
    ("mkcs.cpadmm", "separate_triangle", "sep_triangle"),
    ("mkcs.cpadmm", "separate_clique_external", "sep_clique_ext"),
    ("mkcs.cpadmm", "separate_clique_union", "sep_clique_union"),
    ("mkcs.cpadmm", "separate_odd_hole", "sep_hole5"),
    ("mkcs.cpadmm", "select_cuts", "select"),
    ("mkcs.cpadmm", "cluster_cuts", "cluster"),
    ("mkcs.cpadmm", "inner_admm", "inner"),
    ("mkcs.cpadmm", "valid_upper_bound", "ub_eval"),
    ("mkcs.cpadmm", "project_affine_set", "affine"),
    ("mkcs.cpadmm", "project_psd", "psd"),
    ("mkcs.linalg", "project_psd", "psd"),
    ("mkcs.projection", "dykstra", "dykstra"),
    ("mkcs.intadmm", "project_affine_set", "affine"),
    ("mkcs.intadmm", "project_psd", "psd"),
    ("mkcs.intadmm", "project_sphere", "sphere"),
    ("mkcs.intadmm", "round_and_verify", "round"),
)


def _count_enum_cliques(c, out, args, kwargs):
    c["graph.cliques"] += len(out.all_cliques())
    c["graph.enum_truncated"] += not out.complete


def _count_enum_holes(c, out, args, kwargs):
    c["graph.holes"] += len(out.holes)
    c["graph.enum_truncated"] += not out.complete


def _count_separation(c, out, args, kwargs):
    c["cuts.candidates"] += len(out.candidates)


def _count_select(c, out, args, kwargs):
    c["cuts.accepted"] += len(out)


def _count_cluster(c, out, args, kwargs):
    # the cluster count of the final cut pool, the one the last rounds use
    c["cuts.clusters"] = len(out)


def _count_dykstra(c, out, args, kwargs):
    c["projection.dykstra_cycles"] += out.cycles
    c["projection.dykstra_cycles_max"] = max(
        c["projection.dykstra_cycles_max"], out.cycles
    )
    c["projection.dykstra_capouts"] += not out.feasible


def _count_inner(c, out, args, kwargs):
    key = "cpadmm.tightened_sweeps" if kwargs.get("tightened") else "cpadmm.sweeps"
    c[key] += out[0]


def _count_cp_admm(c, out, args, kwargs):
    c["cpadmm.outer_rounds"] += out.outer_iterations


def _count_int_admm(c, out, args, kwargs):
    c["intadmm.sweeps"] += out.iterations
    c["intadmm.events"] += out.convergence_events


def _count_round(c, out, args, kwargs):
    c["intadmm.round_feasible"] += out.feasible


COUNTERS = {
    "enum_cliques": _count_enum_cliques,
    "enum_holes": _count_enum_holes,
    "sep_triangle": _count_separation,
    "sep_clique_ext": _count_separation,
    "sep_clique_union": _count_separation,
    "sep_hole5": _count_separation,
    "select": _count_select,
    "cluster": _count_cluster,
    "dykstra": _count_dykstra,
    "inner": _count_inner,
    "cp_admm": _count_cp_admm,
    "int_admm": _count_int_admm,
    "round": _count_round,
}

COUNT_NAMES = (
    "graph.cliques", "graph.holes", "graph.enum_truncated",
    "cuts.candidates", "cuts.accepted", "cuts.clusters",
    "projection.dykstra_cycles", "projection.dykstra_cycles_max",
    "projection.dykstra_capouts",
    "cpadmm.sweeps", "cpadmm.tightened_sweeps", "cpadmm.outer_rounds",
    "intadmm.sweeps", "intadmm.events", "intadmm.round_feasible",
)

# span name -> per-layer metric that receives its self time
SELF_TIME_METRIC = {
    "parse": "graph.parse_s",
    "enum_cliques": "graph.enum_cliques_s",
    "enum_holes": "graph.enum_holes_s",
    "sep_triangle": "cuts.sep_triangle_s",
    "sep_clique_ext": "cuts.sep_clique_ext_s",
    "sep_clique_union": "cuts.sep_clique_union_s",
    "sep_hole5": "cuts.sep_hole5_s",
    "select": "cuts.select_s",
    "cluster": "cuts.cluster_s",
    "affine": "projection.affine_s",
    "dykstra": "projection.dykstra_s",
    "psd": "linalg.psd_s",
    "greedy": "cpadmm.greedy_s",
    "inner": "cpadmm.inner_s",
    "ub_eval": "cpadmm.ub_eval_s",
    "lp": "cpadmm.lp_s",
    "cp_admm": "cpadmm.self_s",
    "int_admm": "intadmm.self_s",
    "sphere": "intadmm.sphere_s",
    "round": "intadmm.round_s",
    "cli": "cli.self_s",
    "import": None,  # interpreter-level set-up, no layer of mkcs
}

# span name -> per-layer metric that receives its call count
CALLS_METRIC = {
    "affine": "projection.affine_calls",
    "dykstra": "projection.dykstra_calls",
    "psd": "linalg.psd_calls",
    "lp": "cpadmm.lp_calls",
    "round": "intadmm.round_calls",
}


class Tracer:
    """Records spans and work counts in memory."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = []

    def add_span(self, name, start, end):
        """Record a span measured by the caller, under the open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.monotonic

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, out, args, kwargs)
            return out

        return traced

    def install(self):
        import importlib

        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name))


def summarize(spans, counts, window_s):
    """Per-layer metrics of one traced run.

    Every ``*_s`` metric is a self time: the span durations of its name
    minus the parts of those intervals covered by child spans, so the
    layer times and ``other_s`` add up to ``window_s``, the time from
    spawning the process to the end of the CLI call.  ``other_s`` is the
    part of it no span covers, mostly interpreter start.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = {}
    calls = {}
    covered = 0.0
    for (name, start, end, parent), inner in zip(spans, child_time):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - inner
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            covered += end - start
    metrics = {m: 0.0 for m in SELF_TIME_METRIC.values() if m}
    for name, seconds in self_time.items():
        metric = SELF_TIME_METRIC[name]
        if metric:
            metrics[metric] += seconds
    for name, metric in CALLS_METRIC.items():
        metrics[metric] = calls.get(name, 0)
    metrics.update(counts)
    psd_calls = metrics["linalg.psd_calls"]
    metrics["linalg.psd_us_per_call"] = (
        1e6 * metrics["linalg.psd_s"] / psd_calls if psd_calls else 0.0
    )
    candidates = metrics["cuts.candidates"]
    metrics["cuts.accept_ratio"] = (
        metrics["cuts.accepted"] / candidates if candidates else 0.0
    )
    rounds = metrics["intadmm.round_calls"]
    feasible = metrics.get("intadmm.round_feasible", 0)
    metrics["intadmm.round_feasible"] = feasible / rounds if rounds else 0.0
    metrics["other_s"] = window_s - covered
    return metrics

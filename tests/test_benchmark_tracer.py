"""The benchmark's span tracer (``perfbench/tracer.py``) wraps mkcs names by
module and attribute and reads work counts from their return values.  A
change that renames one of those names, or changes what it returns,
breaks ``perfbench/run.py --trace 1``; these tests catch that here."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import mkcs

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for module_name, attr, _ in load_tracer().TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr)), (
            module_name, attr)


def test_traced_bound_run_yields_every_per_layer_metric(tmp_path):
    # myciel5 at k = 4 accepts 52 cuts in about half a second
    src = Path(mkcs.__file__).resolve().parents[1]
    code = f"""
import json, sys, time
sys.path[:0] = [{str(src)!r}, {str(ROOT / "tests")!r}]
import importlib.util
spec = importlib.util.spec_from_file_location("benchmark_tracer", {str(TRACER)!r})
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
from bench_instances import myciel5
from mkcs.graph import write_dimacs
instance = {str(tmp_path / "myciel5.col")!r}
with open(instance, "w") as fh:
    fh.write(write_dimacs(myciel5()))
tracer = tracer_module.Tracer()
tracer.install()
import mkcs.cli
t0 = time.monotonic()
code = mkcs.cli.main(["bound", instance, "--k", "4",
                      "--out", {str(tmp_path / "report.json")!r}])
window = time.monotonic() - t0
print(json.dumps([code, tracer_module.summarize(tracer.spans, tracer.counts, window)]))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    code, metrics = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]} - {"trace_overhead_s"}
    assert names <= set(metrics)
    for name in ("cuts.candidates", "cuts.accepted", "cuts.clusters",
                 "cpadmm.sweeps", "projection.dykstra_calls",
                 "graph.cliques", "graph.holes"):
        assert metrics[name] > 0, name
    # the cut multipliers come from the projection, not from an LP
    assert metrics["cpadmm.lp_calls"] == 0

"""Write the ``--stable-timing`` outputs of a fixed set of mkcs runs, so
that two checkouts can be compared file by file.

    python3 tools/stable_outputs.py OUTDIR
    diff -r OUTDIR_A OUTDIR_B

The runs, one subdirectory of OUTDIR each:

- ``g12``: ``solve`` on ``random_graph(12, 0.5, 77)`` with
  ``--k 2 --seed 11 --max-iterations 4000`` (the run that acceptance
  criterion 9 repeats);
- ``g12-oracle``: ``oracle`` on the same graph at ``--k 2,3``, the exact
  ``alpha_k`` values and their CSV table;
- ``queen6_6``: ``bound`` at ``--k 2,3``;
- ``queen6_6-k6``: ``bound`` at ``--k 6`` with the default parameters
  (the run that acceptance criterion 2 repeats);
- ``1-Insertions_4``: ``bound`` at ``--k 3``;
- ``1-Insertions_4-k3-solve``: ``solve`` at ``--k 3``, an integer run on
  a third graph structure, with four convergence events;
- ``g12-case14-solve``: ``solve`` on ``random_graph(12, 0.7, 2014)`` with
  ``--k 3 --seed 14 --max-iterations 12000`` (acceptance criterion 5's
  case 14), an integer run whose one convergence event, late in the
  run, matches the floor of the bound;
- ``queen6_6-chromatic`` and ``myciel5-chromatic``: ``chromatic``, whose
  bound runs use the search's own ``min_ineq`` and ``min_impr`` and stop
  once a bound probe falls below n;
- ``gnp70-k8-bound``: ``bound`` on ``random_graph(70, 0.5, 1)`` at
  ``--k 8`` with the default parameters, the one run whose clique pairs
  stop at ``MAX_POOL`` (its report's ``enumeration_complete`` is false);
- ``gnp125-k8-capped``: ``bound`` on ``random_graph(125, 0.5, 1)`` at
  ``--k 8`` with config ``{"max_outer": 2}``, the one run whose clique
  pool (113,536 cliques) is large enough for its memory to matter;
- one directory per benchmark workload of ``perfbench/workloads.py``: its
  mode, k and config on the seed-1 DIMACS text, with the benchmark's
  solver seed.

Each subdirectory holds the instance, the config (if any), the report and
its side files.  The runs are started from OUTDIR with relative paths, so
no output depends on where OUTDIR is.  The script uses the ``src``,
``tests`` and ``perfbench`` directories of the checkout it lives in.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import bench_instances  # noqa: E402
from mkcs.cli import main as mkcs_main  # noqa: E402
from mkcs.graph import write_dimacs  # noqa: E402
from reference_helpers import random_graph  # noqa: E402
from workloads import SOLVER_SEED, WORKLOADS, make_instance  # noqa: E402

BENCHMARK_SEED = 1


def runs():
    """Yield ``(name, instance file name, DIMACS text, config or None,
    mode, extra CLI arguments)`` for every run."""
    yield ("g12", "g12.col", write_dimacs(random_graph(12, 0.5, 77)), None,
           "solve", ["--k", "2", "--seed", "11", "--max-iterations", "4000"])
    yield ("g12-oracle", "g12.col", write_dimacs(random_graph(12, 0.5, 77)), None,
           "oracle", ["--k", "2,3"])
    yield ("queen6_6", "queen6_6.col", write_dimacs(bench_instances.queen6_6()),
           None, "bound", ["--k", "2,3"])
    yield ("queen6_6-k6", "queen6_6.col", write_dimacs(bench_instances.queen6_6()),
           None, "bound", ["--k", "6"])
    yield ("1-Insertions_4", "1-Insertions_4.col",
           write_dimacs(bench_instances.one_insertions_4()), None, "bound",
           ["--k", "3"])
    yield ("1-Insertions_4-k3-solve", "1-Insertions_4.col",
           write_dimacs(bench_instances.one_insertions_4()), None, "solve",
           ["--k", "3"])
    yield ("g12-case14-solve", "g12-case14.col", write_dimacs(random_graph(12, 0.7, 2014)),
           None, "solve", ["--k", "3", "--seed", "14", "--max-iterations", "12000"])
    for name, graph in (("queen6_6", bench_instances.queen6_6()),
                        ("myciel5", bench_instances.myciel5())):
        yield (f"{name}-chromatic", f"{name}.col", write_dimacs(graph), None,
               "chromatic", [])
    yield ("gnp70-k8-bound", "gnp70.col", write_dimacs(random_graph(70, 0.5, 1)),
           None, "bound", ["--k", "8"])
    yield ("gnp125-k8-capped", "gnp125.col", write_dimacs(random_graph(125, 0.5, 1)),
           {"max_outer": 2}, "bound", ["--k", "8"])
    for w in WORKLOADS.values():
        _, dimacs = make_instance(w, BENCHMARK_SEED)
        yield (w.name, f"{w.instance}.col", dimacs, w.config, w.mode,
               ["--k", str(w.k), "--seed", str(SOLVER_SEED)])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/stable_outputs.py OUTDIR", file=sys.stderr)
        return 3
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    for name, instance, dimacs, config, mode, extra in runs():
        Path(name).mkdir(exist_ok=True)
        Path(name, instance).write_text(dimacs)
        args = [mode, f"{name}/{instance}", *extra,
                "--out", f"{name}/report.json", "--stable-timing"]
        if config is not None:
            Path(name, "config.json").write_text(json.dumps(config, sort_keys=True))
            args += ["--config", f"{name}/config.json"]
        code = mkcs_main(args)
        if code != 0:
            print(f"{name}: mkcs exited with code {code}", file=sys.stderr)
            return code
        print(f"{name}: done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

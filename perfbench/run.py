"""Benchmark of the mkcs CLI: certified bounds and verified colourings.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each repetition is one fresh process (``child.py``) that imports mkcs
from ``src/``, parses the seeded DIMACS instance and runs
``mkcs.cli.main`` on it.  Repetitions run one at a time (a closed loop
with one client) until ``--seconds`` have passed, at least
``MIN_REPS`` times.  BLAS is pinned to one thread.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions.  ``--trace 1`` alternates untraced repetitions with traced
ones, whose wrappers (``tracer.py``) split the time by layer, and reports
the per-layer metrics: medians over the traced repetitions, plus the
tracing overhead.  Every repetition passes through the correctness gate
and its work counters are compared with those of the other repetitions.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# before anything loads numpy, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

from gate import check_report, work_counters  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

MIN_REPS = 3          # timing repetitions per run, even past --seconds
MIN_TRACE_REPS = 2    # of each kind in a traced run
HARD_LIMIT_S = 170.0  # a run never lasts longer than this
IDLE_LOAD = 1.0       # 1-minute load average above which the box was busy


def warn(message):
    print(f"WARNING: {message}", file=sys.stderr, flush=True)


def environment():
    """Versions, CPU count, load and source identity of this run."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mkcs").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "load_1min": os.getloadavg()[0],
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Runner:
    """Runs repetitions of one workload and seed in a scratch directory."""

    def __init__(self, workload, seed, work, deadline_hard):
        from workloads import SOLVER_SEED, make_instance

        self.workload = workload
        self.work = work
        self.hard = deadline_hard
        self.graph, dimacs = make_instance(workload, seed)
        self.instance = work / f"{workload.instance}.col"
        self.instance.write_text(dimacs)
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.config, sort_keys=True))
        self.solver_seed = SOLVER_SEED
        self.reps = 0

    def warm_up(self):
        """Compile bytecode and fill the file cache once, untimed, so the
        first repetition's set-up is not charged for it."""
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import mkcs.cli, scipy.optimize")
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                       timeout=max(1.0, self.hard - time.monotonic()))

    def _spawn(self, kind, result_path, out):
        """Run one child process; returns ``(t_spawn, t_exit, result)``,
        where ``result`` is the child's result dict or a string naming the
        failure, and ``t_exit`` is None when the child had to be killed."""
        cmd = [
            sys.executable, str(HERE / "child.py"), str(SRC), str(result_path), kind,
            self.workload.mode, str(self.instance), "--k", str(self.workload.k),
            "--seed", str(self.solver_seed), "--config", str(self.config),
            "--out", str(out),
        ]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.hard - t_spawn),
            )
        except subprocess.TimeoutExpired:
            return t_spawn, None, "timed out"
        t_exit = time.monotonic()
        if proc.returncode != 0 or not result_path.exists():
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            return t_spawn, t_exit, f"exit code {proc.returncode}: {tail}"
        return t_spawn, t_exit, json.loads(result_path.read_text())

    def setup_probe(self):
        """Set-up time of one process that stops before the solver, or
        None when it failed."""
        path = self.work / "probe.json"
        t_spawn, _, res = self._spawn("setup", path, self.work / "probe-report.json")
        path.unlink(missing_ok=True)
        return res["t_ready"] - t_spawn if isinstance(res, dict) else None

    def run(self, traced):
        """One repetition; returns a dict with the measurements, the
        failures and the work counters."""
        self.reps += 1
        rep_dir = self.work / f"rep{self.reps}"
        rep_dir.mkdir()
        out = rep_dir / "report.json"
        rep = {"traced": traced, "errors": []}
        t_spawn, t_exit, res = self._spawn(
            "trace" if traced else "run", rep_dir / "result.json", out)
        if not isinstance(res, dict):
            rep["errors"].append(res)
            rep["fatal"] = t_exit is None
            return rep
        try:
            report = json.loads(out.read_text())
            rep["errors"] = check_report(report, self.workload, self.graph)
            rep["counters"] = work_counters(out)
            # measured even when the gate failed, so that a wrong program
            # still yields a result, with correct = false
            rep["metrics"] = {
                "setup_s": res["t_ready"] - t_spawn,
                "bound_s": report["time_ub"],
                "total_s": res["t_done"] - res["t_ready"],
                "ub": report["ub"],
                "lb": max(report.get("lb", 0), report["lb_hint"]),
                "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            }
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rep["errors"].append(f"unreadable report or side files: {exc!r}")
            return rep
        rep["wall_s"] = t_exit - t_spawn
        if traced:
            from tracer import summarize

            # up to the end of the CLI call, so the trace's own write-out
            # counts as tracing overhead, not as uncovered time
            rep["layers"] = summarize(res["spans"], res["counts"],
                                      res["t_done"] - t_spawn)
        shutil.rmtree(rep_dir)
        return rep


def run_workload(workload, seed, seconds, trace, t0):
    """Repetitions of one workload until ``seconds`` have passed; returns
    them with the set-up times of the extra set-up-only processes."""
    work = ROOT / ".perfbench_work" / f"{os.getpid()}-{workload.name}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, work, t0 + HARD_LIMIT_S)
        runner.warm_up()
        reps = []
        probes = []
        cycles = []
        deadline = time.monotonic() + seconds
        while True:
            t_cycle = time.monotonic()
            traced = trace and len(reps) % 2 == 1
            rep = runner.run(traced)
            reps.append(rep)
            status = "ok" if not rep["errors"] else "FAIL " + "; ".join(rep["errors"])
            shown = {k: round(v, 4) for k, v in rep.get("metrics", {}).items()}
            print(f"# {workload.name} rep {len(reps)}"
                  f"{' traced' if traced else ''}: {shown} {status}", flush=True)
            if rep.get("fatal"):
                break
            if not trace:
                probe = runner.setup_probe()
                if probe is not None:
                    probes.append(probe)
            now = time.monotonic()
            cycles.append(now - t_cycle)
            expected = median(cycles)
            if trace:
                kinds = [r["traced"] for r in reps]
                enough = min(kinds.count(True), kinds.count(False)) >= MIN_TRACE_REPS
            else:
                enough = len(reps) >= MIN_REPS
            if enough and now + expected > deadline:
                break
            if now + expected > t0 + HARD_LIMIT_S:
                break
        return reps, probes
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def compare_counters(name, reps):
    """Warn about work counts that differ between runs of one seed."""
    base = None
    for rep in reps:
        counters = rep.get("counters")
        if counters is None:
            continue
        if base is None:
            base = counters
        elif counters != base:
            diff = sorted(k for k in base if counters.get(k) != base.get(k))
            warn(f"{name}: work counters differ between runs of one seed: {diff}")
            return
    traced = [r["layers"] for r in reps if "layers" in r]
    exact = ("projection.dykstra_cycles", "projection.dykstra_calls",
             "graph.cliques", "graph.holes", "cuts.candidates", "cuts.accepted")
    for key in exact:
        values = {layers[key] for layers in traced}
        if len(values) > 1:
            warn(f"{name}: {key} differs between traced runs: {sorted(values)}")
    if base is not None and not base["enumeration_complete"]:
        warn(f"{name}: clique/hole enumeration was truncated by its wall-clock "
             "limit, so graph.holes and the cut pool are not exact")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


def summarize_workload(workload, seed, reps, probes, trace, spec, reference):
    """The run's result object, or None when no repetition was measured."""
    measured = [r for r in reps if "metrics" in r]
    failed = sum(1 for r in reps if r["errors"])
    for r in reps:
        for error in r["errors"]:
            warn(f"{workload.name}: {error}")
    compare_counters(workload.name, reps)
    metrics = {}
    if trace:
        traced = [r for r in measured if r["traced"]]
        plain = [r for r in measured if not r["traced"]]
        if not traced or not plain:
            return None
        overhead = (median([r["wall_s"] for r in traced])
                    - median([r["wall_s"] for r in plain]))
        for m in spec["per_layer"]:
            key = m["name"]
            value = overhead if key == "trace_overhead_s" else median(
                [r["layers"][key] for r in traced])
            metrics[key] = {"value": value, "unit": m["unit"]}
            print(f"# {workload.name} {key:32s} {value:14.6f} {m['unit']}")
    else:
        if not measured:
            return None
        print(f"# {workload.name}: {len(measured)} runs and {len(probes)} set-up "
              "probes, median [q1, q3]")
        for m in spec["end_to_end"]:
            key = m["name"]
            values = [r["metrics"][key] for r in measured]
            if key == "setup_s":
                values += probes
            q1, q3 = quartiles(values)
            metrics[key] = {"value": median(values), "unit": m["unit"]}
            print(f"# {workload.name} {key:12s} {median(values):12.6f} "
                  f"[{q1:.6f}, {q3:.6f}] {m['unit']}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for key in ("ub", "lb"):
        value = median([r["metrics"][key] for r in measured])
        ref = reference["workloads"][workload.name][key]
        if abs(value - ref) > bounds[key] * abs(ref):
            warn(f"{workload.name}: {key} {value} leaves the band of "
                 f"{bounds[key]:.0%} around the reference {ref} (seed {seed})")
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t0 = time.monotonic()

    missing = [p for p in (SRC / "mkcs" / "cli.py", TESTS / "bench_instances.py")
               if not p.is_file()]
    if missing:
        print(f"perfbench: mkcs sources not found: {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    seed = reference["default_seed"] if args.seed is None else args.seed
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 3

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    if env["load_1min"] > IDLE_LOAD:
        warn(f"the machine was not idle: 1-minute load {env['load_1min']:.2f}")

    results = {}
    for name in names:
        budget = t0 if len(names) == 1 else time.monotonic()
        reps, probes = run_workload(WORKLOADS[name], seed, args.seconds,
                                    bool(args.trace), budget)
        result = summarize_workload(WORKLOADS[name], seed, reps, probes,
                                    bool(args.trace), spec, reference)
        if result is None:
            print(f"perfbench: {name}: no repetition ran to the end",
                  file=sys.stderr)
            return 1
        results[name] = result
        if len(names) > 1:
            print(f"# result {name} " + json.dumps(result, sort_keys=True))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

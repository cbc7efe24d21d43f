"""Command-line front end: configuration, orchestration of the bound and
solve pipelines, the chromatic-number lower-bound driver, and
machine-readable reporting."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .cpadmm import AdmmParams, cp_admm, greedy_lower_bound, records_to_jsonl
# no solve path calls it: the benchmark's tracer wraps it under this name
from .cpadmm import scipy_linprog_backend  # noqa: F401
from .cuts import CutFamily
from .graph import DimacsError, parse_dimacs
from .intadmm import IntAdmmParams, int_admm, int_trace_to_jsonl
from .oracle import OracleSizeError, alpha_k_exact, chi_exact

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_INVALID_ARGS = 3


class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


# Every field of the two parameter tables is a config key and, but for these,
# a generated flag: the seed has its own flag, and the families go by name.
_NOT_FLAGS = ("seed", "families")
_FLAG_TYPES = {"float": float, "int": int, "float | None": float, "int | None": int}
_TABLE_OF = {f.name: attr
             for attr, table in (("admm", AdmmParams), ("intp", IntAdmmParams))
             for f in dataclasses.fields(table)}
_RUN_KEYS = ("time_limit", "expensive_tests", "stable_timing", "per_k_time_limit",
             "k", "out")


@dataclass
class RunConfig:
    """Resolved run configuration: defaults, then config-file values, then
    command-line flags.  Solver fields default to the production values
    of the two parameter tables."""

    instance: str | None = None
    k: int | None = None
    mode: str = "bound"
    out: str | None = None
    time_limit: float | None = None    # overrides time_limit_global when set
    expensive_tests: bool = False
    stable_timing: bool = False
    per_k_time_limit: float = 600.0    # chromatic mode: budget per k value
    admm: AdmmParams = field(default_factory=AdmmParams)
    intp: IntAdmmParams = field(default_factory=IntAdmmParams)

    @property
    def seed(self):
        return self.admm.seed

    def admm_params(self):
        if self.time_limit is not None:
            return dataclasses.replace(self.admm, time_limit_global=self.time_limit)
        return self.admm


# the type of every numeric or boolean config key but k, which may also
# be a list
_VALUE_TYPES = {**_FLAG_TYPES, "bool": bool}
_KEY_TYPES = {
    f.name: _VALUE_TYPES[f.type]
    for table in (AdmmParams, IntAdmmParams, RunConfig)
    for f in dataclasses.fields(table)
    if f.type in _VALUE_TYPES and f.name != "k"
}
_KINDS = {float: "a number", int: "an integer", bool: "true or false"}


def _check_type(key, value, source):
    """Reject a config value of the wrong type: an int is a valid float,
    and a bool is valid only where a bool is expected."""
    expected = _KEY_TYPES.get(key)
    if expected is None:
        return
    allowed = (int, float) if expected is float else expected
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, allowed):
        raise CliError(f"{source}: {key} must be {_KINDS[expected]}; got {value!r}",
                       EXIT_INVALID_ARGS)


def _apply_overrides(cfg, overrides, source):
    kwargs = {"admm": {}, "intp": {}}
    for key, value in overrides.items():
        if value is None:
            continue
        _check_type(key, value, source)
        if key == "families":
            if isinstance(value, str):
                names = value.split(",")
            elif isinstance(value, (list, tuple)) and all(
                isinstance(v, str) for v in value
            ):
                names = value
            else:
                raise CliError(
                    f"{source}: families must be a string or a list of strings; "
                    f"got {value!r}",
                    EXIT_INVALID_ARGS,
                )
            names = [s.strip().upper() for s in names if s.strip()]
            for name in names:
                if name not in CutFamily.__members__:
                    raise CliError(
                        f"{source}: unknown cut family {name!r}", EXIT_INVALID_ARGS
                    )
            kwargs["admm"][key] = tuple(CutFamily[name] for name in names)
        elif key in _TABLE_OF:
            kwargs[_TABLE_OF[key]][key] = value
        elif key in _RUN_KEYS:
            # a negative budget would reach time_limit_global, which rejects it
            if key in ("time_limit", "per_k_time_limit") and not value >= 0.0:
                raise CliError(f"{source}: {key} must not be negative; got {value!r}",
                               EXIT_INVALID_ARGS)
            setattr(cfg, key, value)
        else:
            raise CliError(f"{source}: unknown configuration key {key!r}",
                           EXIT_INVALID_ARGS)
    for attr, changes in kwargs.items():
        try:
            setattr(cfg, attr, dataclasses.replace(getattr(cfg, attr), **changes))
        except ValueError as exc:
            raise CliError(f"{source}: {exc}", EXIT_INVALID_ARGS) from exc
    return cfg


def load_config_file(path):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}", EXIT_INVALID_ARGS) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed config file: {exc}", EXIT_INVALID_ARGS) from exc
    if not isinstance(data, dict):
        raise CliError("config file must hold a flat JSON object",
                       EXIT_INVALID_ARGS)
    return data


def _load_instance(cfg):
    path = Path(cfg.instance)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read instance: {exc}", EXIT_PARSE_ERROR) from exc
    try:
        return parse_dimacs(data, name=path.stem)
    except DimacsError as exc:
        raise CliError(f"cannot parse instance: {exc}", EXIT_PARSE_ERROR) from exc


def _require_k(cfg, g):
    if cfg.k is None:
        raise CliError("this mode requires --k", EXIT_INVALID_ARGS)
    if not 1 <= cfg.k <= g.n:
        raise CliError(
            f"k must lie in [1, {g.n}] for this instance; got {cfg.k}",
            EXIT_INVALID_ARGS,
        )


def _base_report(cfg, g, mode):
    return {
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "instance": str(cfg.instance),
        "graph": g.name or Path(str(cfg.instance)).stem,
        "n": g.n,
        "density": round(g.density, 6),
        "k": cfg.k,
        "seed": cfg.seed,
    }


def _clock(cfg, seconds):
    return 0.0 if cfg.stable_timing else round(seconds, 3)


def run_bound(cfg, g=None):
    """Greedy lower bound followed by the cutting-plane bound solver.

    Returns ``(report, solver_result)``; the report is the stable
    machine-readable summary, the result carries the iterate and traces.
    """
    if g is None:
        g = _load_instance(cfg)
    _require_k(cfg, g)
    params = cfg.admm_params()
    t0 = time.monotonic()
    lb_hint, _ = greedy_lower_bound(g, cfg.k, params.seed)
    res = cp_admm(g, cfg.k, params, lb_hint=lb_hint)
    report = _base_report(cfg, g, "bound")
    report.update(
        {
            "lb_hint": lb_hint,
            "ub": res.ub,
            "outer_iters": res.outer_iterations,
            "inner_iters": res.inner_iterations,
            "tightened_iters": res.tightened_iterations,
            "cuts": {"total": len(res.cuts), **dict(sorted(res.family_counts.items()))},
            "termination": res.termination,
            "enumeration_complete": res.enumeration_complete,
            "time_ub": _clock(cfg, time.monotonic() - t0),
        }
    )
    return report, res


def run_solve(cfg):
    """Bound phase, then the integer solver warm-started from its iterate
    with the bound as the optimality target."""
    g = _load_instance(cfg)
    t_start = time.monotonic()
    report, bound_res = run_bound(cfg, g)
    remaining = None
    if cfg.time_limit is not None:
        remaining = max(0.0, cfg.time_limit - (time.monotonic() - t_start))
    t0 = time.monotonic()
    int_res = int_admm(
        g,
        cfg.k,
        cfg.intp,
        warm=bound_res.matrix,
        known_ub=bound_res.ub,
        time_limit=remaining,
    )
    report["mode"] = "solve"
    report.update(
        {
            "lb": int_res.value,
            "feasible_found": int_res.feasible_found,
            "coloring": {str(v): c for v, c in sorted(int_res.coloring.assignment.items())},
            "gap": report["ub"] - int_res.value,
            "optimal": math.floor(report["ub"] + 1e-9) == int_res.value,
            "int_iters": int_res.iterations,
            "int_termination": int_res.termination,
            "time_lb": _clock(cfg, time.monotonic() - t0),
        }
    )
    return report, bound_res, int_res


def chromatic_search(g, cfg=None):
    """Lower bound on the chromatic number from bound runs over a jumping
    sequence of k values.

    Starting from k = 1, each round solves the bound problem with relaxed
    stopping rules (no minimum-improvement criterion, a single violated
    inequality suffices to continue, early abort once any valid bound
    drops below n, with bound probes every 100 sweeps of the first outer
    iteration).  While the bound stays below n, k jumps to
    ``ceil(k*n / floor(bound))``, which always advances by at least one;
    the first k whose bound reaches n is returned and is a valid lower
    bound on the chromatic number.

    Returns ``(k, steps)`` where steps records every solved k.
    """
    if cfg is None:
        cfg = RunConfig()
    deadline = (
        None if cfg.time_limit is None else time.monotonic() + cfg.time_limit
    )
    steps = []
    k = 1
    while True:
        if k >= g.n:
            # at k = n the relaxation value is exactly n, no solve needed
            k = g.n
            steps.append({"k": k, "ub": float(g.n), "skipped": True})
            break
        budget = cfg.per_k_time_limit
        if deadline is not None:
            budget = min(budget, max(0.0, deadline - time.monotonic()))
        params = dataclasses.replace(
            cfg.admm_params(),
            min_ineq=1.0,
            min_impr=-math.inf,
            time_limit_global=budget,
        )
        res = cp_admm(g, k, params, ub_stop_below=float(g.n))
        steps.append(
            {
                "k": k,
                "ub": res.ub,
                "outer_iters": res.outer_iterations,
                "inner_iters": res.inner_iterations,
                "termination": res.termination,
            }
        )
        if res.ub < g.n - 1e-9:
            floor_ub = max(1, math.floor(res.ub + 1e-9))
            k_next = -(-k * g.n // floor_ub)  # ceil division
            k = max(k_next, k + 1)
        else:
            break
        if deadline is not None and time.monotonic() > deadline:
            break
    return k, steps


def chromatic_lower_bound(cfg):
    """File-based wrapper around :func:`chromatic_search` producing the
    machine-readable report."""
    g = _load_instance(cfg)
    report = _base_report(cfg, g, "chromatic")
    t0 = time.monotonic()
    k, steps = chromatic_search(g, cfg)
    report.update(
        {
            "k": None,
            "chi_lower_bound": k,
            "steps": steps,
            "time_total": _clock(cfg, time.monotonic() - t0),
        }
    )
    return k, report


def run_oracle(cfg):
    """Exact reference values: alpha_k when --k is given, else the
    chromatic number.  Guarded by instance size unless expensive runs
    are enabled."""
    g = _load_instance(cfg)
    guard = 64 if cfg.expensive_tests else 15
    report = _base_report(cfg, g, "oracle")
    t0 = time.monotonic()
    try:
        if cfg.k is not None:
            _require_k(cfg, g)
            lb_hint, _ = greedy_lower_bound(g, cfg.k, cfg.seed)
            report["alpha_k"] = alpha_k_exact(
                g, cfg.k, max_vertices=guard, initial_lb=lb_hint
            )
        else:
            report["chi"] = chi_exact(g, max_vertices=guard)
    except OracleSizeError as exc:
        raise CliError(str(exc), EXIT_INVALID_ARGS) from exc
    report["time_total"] = _clock(cfg, time.monotonic() - t0)
    return report


REPORT_COLUMNS = (
    "graph", "n", "density", "k", "ub", "lb", "time_ub", "time_lb",
    "inner_iters", "outer_iters", "cuts",
)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def report_rows(reports):
    rows = []
    for rep in reports:
        cuts = rep.get("cuts")
        rows.append(
            {
                "graph": rep.get("graph"),
                "n": rep.get("n"),
                "density": rep.get("density"),
                "k": rep.get("k"),
                "ub": rep.get("ub"),
                "lb": rep.get("lb", rep.get("lb_hint")),
                "time_ub": rep.get("time_ub"),
                "time_lb": rep.get("time_lb"),
                "inner_iters": rep.get("inner_iters"),
                "outer_iters": rep.get("outer_iters"),
                "cuts": cuts.get("total") if isinstance(cuts, dict) else cuts,
            }
        )
    return rows


def run_report(reports):
    """Aggregate per-run reports into byte-stable CSV and JSON tables.

    Returns ``(csv_text, json_text)`` with one row per report in input
    order; fields missing from a report become empty cells / nulls.
    """
    rows = report_rows(reports)
    lines = [",".join(REPORT_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(row[col]) for col in REPORT_COLUMNS))
    csv_text = "\n".join(lines) + "\n"
    json_text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    return csv_text, json_text


class _ArgumentParser(argparse.ArgumentParser):
    # usage errors exit with the invalid-arguments code, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_ARGS, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _ArgumentParser(
        prog="mkcs",
        description=(
            "Bounds and feasible solutions for the maximum k-colorable "
            "subgraph problem on DIMACS instances."
        ),
    )
    parser.add_argument("mode", choices=("bound", "solve", "chromatic", "oracle"))
    parser.add_argument("instance", help="path to a DIMACS edge-format file")
    parser.add_argument("--k", default=None,
                        help="number of colors, or a comma-separated list")
    parser.add_argument("--config", default=None, help="flat JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="overall wall-clock budget in seconds")
    parser.add_argument("--families", default=None,
                        help="comma-separated cut families to separate")
    parser.add_argument("--expensive-tests", action=argparse.BooleanOptionalAction,
                        default=None, help="lift the oracle size guard")
    parser.add_argument("--stable-timing", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="write zeros for wall times so outputs are reproducible")
    parser.add_argument("--per-k-time-limit", type=float, default=None,
                        help="chromatic mode: budget per k value")
    for title, table in (("solver parameters", AdmmParams),
                         ("integer solver parameters", IntAdmmParams)):
        group = parser.add_argument_group(title)
        for f in dataclasses.fields(table):
            if f.name not in _NOT_FLAGS:
                group.add_argument("--" + f.name.replace("_", "-"),
                                   type=_FLAG_TYPES[f.type], default=None)
    return parser


def _parse_k_values(raw):
    """Normalize the k setting: None, an int, or a comma-separated list."""
    if raw is None:
        return None
    if isinstance(raw, int) and not isinstance(raw, bool):
        return [raw]
    if isinstance(raw, (list, tuple)):
        items = list(raw)
    else:
        items = str(raw).split(",")
    if any(isinstance(item, (bool, float)) for item in items):
        raise CliError(f"malformed k value {raw!r}", EXIT_INVALID_ARGS)
    try:
        values = [int(item) for item in items]
    except (TypeError, ValueError):
        raise CliError(f"malformed k value {raw!r}", EXIT_INVALID_ARGS) from None
    if not values:
        raise CliError("empty k list", EXIT_INVALID_ARGS)
    return values


def resolve_config(args):
    """Defaults, then config-file entries, then explicit CLI flags."""
    cfg = RunConfig(instance=args.instance, mode=args.mode)
    if args.config:
        _apply_overrides(cfg, load_config_file(args.config), args.config)
    flag_overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("mode", "instance", "config")
    }
    _apply_overrides(cfg, flag_overrides, "command line")
    return cfg


def _write_side_files(cfg, out, suffix, bound_res, int_res):
    timing = not cfg.stable_timing
    if bound_res is not None:
        trace = out.parent / (out.stem + suffix + ".trace.jsonl")
        trace.write_text(records_to_jsonl(bound_res.records, timing=timing))
        cuts = out.parent / (out.stem + suffix + ".cuts.jsonl")
        cuts.write_text(bound_res.cuts.to_jsonl())
    if int_res is not None:
        trace = out.parent / (out.stem + suffix + ".int_trace.jsonl")
        trace.write_text(int_trace_to_jsonl(int_res.records))


def _write_outputs(cfg, runs):
    """Write the report of each ``(k, report, bound_res, int_res)`` run to
    ``--out`` (or stdout) with its trace and cut side files.  One run
    writes its report as is; a k-list writes a wrapper holding every
    report, an aggregate CSV table, and side files with a ``.k<k>`` suffix.
    """
    single = len(runs) == 1
    if single:
        doc = runs[0][1]
    else:
        doc = {
            "schema": SCHEMA_VERSION,
            "mode": cfg.mode,
            "instance": str(cfg.instance),
            "runs": [report for _, report, _, _ in runs],
        }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if not cfg.out:
        sys.stdout.write(text)
        return
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    if not single:
        csv_text, _ = run_report(doc["runs"])
        (out.parent / (out.stem + ".csv")).write_text(csv_text)
    for k, _, bound_res, int_res in runs:
        _write_side_files(cfg, out, "" if single else f".k{k}", bound_res, int_res)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        # the chromatic search picks its own k values
        ks = [None] if cfg.mode == "chromatic" else _parse_k_values(cfg.k) or [None]
        runs = []
        for k in ks:
            cfg.k = k
            bound_res = int_res = None
            if cfg.mode == "bound":
                report, bound_res = run_bound(cfg)
            elif cfg.mode == "solve":
                report, bound_res, int_res = run_solve(cfg)
            elif cfg.mode == "oracle":
                report = run_oracle(cfg)
            else:
                _, report = chromatic_lower_bound(cfg)
            runs.append((k, report, bound_res, int_res))
        _write_outputs(cfg, runs)
    except CliError as exc:
        print(f"mkcs: error: {exc}", file=sys.stderr)
        return exc.code
    except DimacsError as exc:
        print(f"mkcs: error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

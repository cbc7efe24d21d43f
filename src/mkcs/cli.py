"""Command-line front end: configuration, orchestration of the bound and
solve pipelines, the chromatic-number lower-bound driver, and
machine-readable reporting."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .cpadmm import AdmmParams, cp_admm, greedy_lower_bound
# no solve path calls it: the benchmark's tracer wraps it under this name
from .cpadmm import scipy_linprog_backend  # noqa: F401
from .cuts import CutFamily
from .graph import DimacsError, parse_dimacs
from .intadmm import IntAdmmParams, int_admm
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


@dataclass
class RunConfig:
    """Resolved run configuration: defaults, then config-file values, then
    command-line flags.  Apart from the positional ``instance`` and ``mode``
    and the two parameter tables, each field here and each field of those
    tables is a setting: a config key and a flag of the same name."""

    instance: str | None = None
    mode: str = "bound"
    # an int, or a list or comma-separated string of them: _parse_k_values
    k: int | str | list | None = field(
        default=None, metadata={"help": "number of colors, or a comma-separated list"})
    out: str | None = field(default=None, metadata={"help": "write the JSON report here"})
    time_limit: float = field(default=3600.0, metadata={
        "help": "wall-clock budget of the whole run in seconds (default 3600)"})
    expensive_tests: bool = field(default=False,
                                  metadata={"help": "lift the oracle size guard"})
    stable_timing: bool = field(default=False, metadata={
        "help": "write zeros for wall times so outputs are reproducible"})
    per_k_time_limit: float = field(
        default=600.0, metadata={"help": "chromatic mode: budget per k value"})
    admm: AdmmParams = field(default_factory=AdmmParams)
    intp: IntAdmmParams = field(default_factory=IntAdmmParams)

    def __post_init__(self):
        for name in ("time_limit", "per_k_time_limit"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must not be negative; got {value!r}")


# every setting, in flag order: its field, and the RunConfig attribute of
# the table that holds it (None for RunConfig itself)
_SETTINGS = {
    f.name: (table, f)
    for table, cls in ((None, RunConfig), ("admm", AdmmParams), ("intp", IntAdmmParams))
    for f in dataclasses.fields(cls)
    if f.name not in ("instance", "mode", "admm", "intp")
}
# the value type of each annotation; families and k have converters instead
_TYPES = {"float": float, "float | None": float, "int": int, "int | None": int,
          "bool": bool, "str | None": str}
_KINDS = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def _check_type(key, value, source):
    """Reject a config value of the wrong type: an int is a valid float,
    and a bool is valid only where a bool is expected."""
    expected = _TYPES.get(_SETTINGS[key][1].type)
    if expected is None:
        return
    allowed = (int, float) if expected is float else expected
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, allowed):
        raise CliError(f"{source}: {key} must be {_KINDS[expected]}; got {value!r}",
                       EXIT_INVALID_ARGS)


def _families(value, source):
    """The cut families named by a comma-separated string or a list."""
    names = value.split(",") if isinstance(value, str) else value
    if not isinstance(names, (list, tuple)) or not all(isinstance(v, str) for v in names):
        raise CliError(f"{source}: families must be a string or a list of strings; "
                       f"got {value!r}", EXIT_INVALID_ARGS)
    names = [s.strip().upper() for s in names if s.strip()]
    for name in names:
        if name not in CutFamily.__members__:
            raise CliError(f"{source}: unknown cut family {name!r}", EXIT_INVALID_ARGS)
    return tuple(CutFamily[name] for name in names)


def _apply_overrides(cfg, overrides, source):
    """``cfg`` with every value of ``overrides`` but None set, each checked
    for its field's type and then by the dataclass that holds it."""
    changes = {None: {}, "admm": {}, "intp": {}}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _SETTINGS:
            raise CliError(f"{source}: unknown configuration key {key!r}",
                           EXIT_INVALID_ARGS)
        _check_type(key, value, source)
        if key == "families":
            value = _families(value, source)
        changes[_SETTINGS[key][0]][key] = value
    try:
        for table in ("admm", "intp"):
            changes[None][table] = dataclasses.replace(getattr(cfg, table),
                                                       **changes[table])
        return dataclasses.replace(cfg, **changes[None])
    except ValueError as exc:
        raise CliError(f"{source}: {exc}", EXIT_INVALID_ARGS) from exc


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


def _base_report(cfg, g, k, mode):
    return {
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "instance": str(cfg.instance),
        "graph": g.name or Path(str(cfg.instance)).stem,
        "n": g.n,
        "density": round(g.density, 6),
        "k": k,
        "seed": cfg.admm.seed,
    }


def _clock(cfg, seconds):
    return 0.0 if cfg.stable_timing else round(seconds, 3)


def run_bound(cfg, g, k, deadline):
    """Greedy lower bound followed by the cutting-plane bound solver,
    which stops at ``deadline`` (a ``time.monotonic()`` value).

    Returns ``(report, solver_result)``; the report is the stable
    machine-readable summary, the result carries the iterate and traces.
    """
    t0 = time.monotonic()
    res = cp_admm(g, k, cfg.admm, deadline=deadline)
    report = _base_report(cfg, g, k, "bound")
    report.update(
        {
            "lb_hint": res.lb_hint,
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


def run_solve(cfg, g, k, deadline):
    """Bound phase, then the integer solver warm-started from its iterate
    with the bound as the optimality target, both stopping at ``deadline``
    as in :func:`run_bound`; reports the integer colouring or a larger greedy one."""
    report, bound_res = run_bound(cfg, g, k, deadline)
    t0 = time.monotonic()
    int_res = int_admm(
        g,
        k,
        cfg.intp,
        warm=bound_res.matrix,
        known_ub=bound_res.ub,
        deadline=deadline,
    )
    source, coloring = "int_admm", int_res.coloring
    if bound_res.greedy.value > coloring.value:
        source, coloring = "greedy", bound_res.greedy
    if not coloring.check(g, k):
        raise RuntimeError(f"the {source} colouring is not a proper {k}-colouring")
    report["mode"] = "solve"
    report.update(
        {
            "lb": coloring.value,
            "lb_source": source,
            "feasible_found": int_res.feasible_found,
            "coloring": {str(v): c for v, c in sorted(coloring.assignment.items())},
            "gap": report["ub"] - coloring.value,
            "optimal": math.floor(report["ub"] + 1e-9) == coloring.value,
            "int_iters": int_res.iterations,
            "int_termination": int_res.termination,
            "time_lb": _clock(cfg, time.monotonic() - t0),
        }
    )
    return report, bound_res, int_res


def chromatic_search(g, cfg=None, deadline=None):
    """Lower bound on the chromatic number from bound runs over a jumping
    sequence of k values.

    Starting from k = 1, each round solves the bound problem with relaxed
    stopping rules (no minimum-improvement criterion, a single violated
    inequality suffices to continue, early abort once any valid bound
    drops below n, with bound probes every 100 sweeps of the first outer
    iteration).  While the bound stays below n, k jumps to
    ``ceil(k*n / floor(bound))``, which always advances by at least one;
    the first k whose bound reaches n is returned and is a valid lower
    bound on the chromatic number, as is the k reached at ``deadline``
    (see :func:`run_bound`).  Each k stops after ``cfg.per_k_time_limit``.

    Returns ``(k, steps)`` where steps records every solved k.
    """
    if cfg is None:
        cfg = RunConfig()
    if deadline is None:
        deadline = time.monotonic() + cfg.time_limit
    params = dataclasses.replace(cfg.admm, min_ineq=1.0, min_impr=-math.inf)
    steps = []
    k = 1
    while True:
        if k >= g.n:
            # at k = n the relaxation value is exactly n, no solve needed
            k = g.n
            steps.append({"k": k, "ub": float(g.n), "skipped": True})
            break
        res = cp_admm(g, k, params, ub_stop_below=float(g.n),
                      deadline=min(deadline, time.monotonic() + cfg.per_k_time_limit))
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
        if time.monotonic() > deadline:
            break
    return k, steps


def run_chromatic(cfg, g, deadline):
    """The report of :func:`chromatic_search` on ``g``."""
    report = _base_report(cfg, g, None, "chromatic")
    t0 = time.monotonic()
    k, steps = chromatic_search(g, cfg, deadline)
    report.update(
        {
            "chi_lower_bound": k,
            "steps": steps,
            "time_total": _clock(cfg, time.monotonic() - t0),
        }
    )
    return report


def run_oracle(cfg, g, k):
    """Exact reference values: alpha_k when ``k`` is given, else the
    chromatic number.  Guarded by instance size unless expensive runs
    are enabled."""
    guard = 64 if cfg.expensive_tests else 15
    report = _base_report(cfg, g, k, "oracle")
    t0 = time.monotonic()
    try:
        if k is not None:
            lb_hint, _ = greedy_lower_bound(g, k, cfg.admm.seed)
            report["alpha_k"] = alpha_k_exact(
                g, k, max_vertices=guard, initial_lb=lb_hint
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
        row = {col: rep.get(col) for col in REPORT_COLUMNS}
        row["lb"] = rep.get("lb", rep.get("lb_hint"))
        cuts = row["cuts"]
        row["cuts"] = cuts.get("total") if isinstance(cuts, dict) else cuts
        rows.append(row)
    return rows


def run_report(reports):
    """Aggregate per-run reports into a byte-stable CSV table, one row per
    report in input order; fields missing from a report become empty cells.
    """
    lines = [",".join(REPORT_COLUMNS)]
    for row in report_rows(reports):
        lines.append(",".join(_cell(row[col]) for col in REPORT_COLUMNS))
    return "\n".join(lines) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative float in exponent or inf form (-1e-3, -inf) is a flag's
        # value, not an unknown option
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.IGNORECASE)

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
    parser.add_argument("--config", default=None, help="flat JSON config file")
    groups = {table: parser.add_argument_group(title) for table, title in (
        (None, "run settings"), ("admm", "solver parameters"),
        ("intp", "integer solver parameters"))}
    for key, (table, f) in _SETTINGS.items():
        kind = _TYPES.get(f.type)  # None: a string for _families or _parse_k_values
        options = ({"action": argparse.BooleanOptionalAction} if kind is bool
                   else {"type": kind})
        groups[table].add_argument("--" + key.replace("_", "-"), default=None,
                                   help=f.metadata.get("help"), **options)
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
    for i, value in enumerate(values):
        if value in values[:i]:
            # a second run would write the same row and overwrite the
            # first run's side files
            raise CliError(f"k value {value} repeated in {raw!r}", EXIT_INVALID_ARGS)
    return values


def resolve_config(args):
    """Defaults, then config-file entries, then explicit CLI flags."""
    cfg = RunConfig(instance=args.instance, mode=args.mode)
    if args.config:
        cfg = _apply_overrides(cfg, load_config_file(args.config), args.config)
    flags = {key: value for key, value in vars(args).items() if key in _SETTINGS}
    return _apply_overrides(cfg, flags, "command line")


def _jsonl(rows):
    """One compact JSON object per line."""
    return "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)


def _cut_rows(pool):
    """The side-file line of each cut: id, family name, right-hand side and
    its ``[coordinate, coefficient]`` pairs."""
    for cid, fam, rhs, (idx, coeffs) in zip(pool.id.tolist(), pool.family.tolist(),
                                            pool.rhs.tolist(), pool.rows()):
        yield {"id": cid, "family": CutFamily(fam).name, "rhs": rhs,
               "coeffs": [list(pair) for pair in zip(idx, coeffs)]}


def _write_side_files(cfg, out, suffix, bound_res, int_res):
    """The JSONL side files of one run: the outer trace and the cut pool of
    the bound phase, and the integer stage's trace."""
    files = {}
    if bound_res is not None:
        files["trace"] = ({**dataclasses.asdict(r), "elapsed_s": _clock(cfg, r.elapsed_s)}
                          for r in bound_res.records)
        files["cuts"] = _cut_rows(bound_res.cuts)
    if int_res is not None:
        files["int_trace"] = (
            {**dataclasses.asdict(r), "beta": round(r.beta, 9),
             "primal_res_Y": round(r.primal_res_Y, 9),
             "primal_res_Z": round(r.primal_res_Z, 9)}
            for r in int_res.records)
    for name, rows in files.items():
        (out.parent / f"{out.stem}{suffix}.{name}.jsonl").write_text(_jsonl(rows))


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
        (out.parent / (out.stem + ".csv")).write_text(run_report(doc["runs"]))
    for k, _, bound_res, int_res in runs:
        _write_side_files(cfg, out, "" if single else f".k{k}", bound_res, int_res)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        # the chromatic search picks its own k values
        ks = [None] if cfg.mode == "chromatic" else _parse_k_values(cfg.k) or [None]
        deadline = time.monotonic() + cfg.time_limit  # one for every k of the run
        g = _load_instance(cfg)
        # every k is checked before the first run, so none is solved in vain
        for k in ks:
            if k is None and cfg.mode in ("bound", "solve"):
                raise CliError("this mode requires --k", EXIT_INVALID_ARGS)
            if k is not None and not 1 <= k <= g.n:
                raise CliError(f"k must lie in [1, {g.n}] for this instance; got {k}",
                               EXIT_INVALID_ARGS)
        runs = []
        for k in ks:
            bound_res = int_res = None
            if cfg.mode == "bound":
                report, bound_res = run_bound(cfg, g, k, deadline)
            elif cfg.mode == "solve":
                report, bound_res, int_res = run_solve(cfg, g, k, deadline)
            elif cfg.mode == "oracle":
                report = run_oracle(cfg, g, k)
            else:
                report = run_chromatic(cfg, g, deadline)
            runs.append((k, report, bound_res, int_res))
        _write_outputs(cfg, runs)
    except CliError as exc:
        print(f"mkcs: error: {exc}", file=sys.stderr)
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

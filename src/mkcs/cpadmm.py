"""First-order solver for the bound-constrained SDP relaxation of the
maximum k-colorable subgraph problem: the inner ADMM, dual-based valid
upper bounds, a greedy feasibility heuristic, and the cutting-plane
outer loop that stitches them together."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cuts import (
    CutFamily,
    CutPool,
    SeparationReport,
    cluster_cuts,
    select_cuts,
    separate_clique_external,
    separate_clique_union,
    separate_odd_hole,
    separate_triangle,
)
from .graph import CliqueEnumeration, HoleEnumeration, enumerate_5holes, enumerate_cliques
from .intadmm import Coloring
from .linalg import (
    FreeIndexMap,
    augmented_identity,
    initial_iterate,
    project_nsd,
    project_psd,
)
from .projection import ClusteredCuts, project_affine_set

logger = logging.getLogger(__name__)

ALL_FAMILIES = (
    CutFamily.T1,
    CutFamily.CLIQUE_EXT,
    CutFamily.CLIQUE_UNION,
    CutFamily.HOLE5,
    CutFamily.T2,
)

_GAMMA_SUP = (1.0 + math.sqrt(5.0)) / 2.0

# sweeps between the bound probes of the first outer iteration of a run
# with a ub_stop_below target
UB_PROBE_INTERVAL = 100


def scipy_linprog_backend(c, cuts, m):
    """Multipliers ``y >= 0`` of the halfspaces of the :class:`CutPool`
    ``cuts``: the duals of the LP maximization of ``c . x`` over the box
    and those halfspaces, via scipy's HiGHS solver."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    a_ub = csr_array((cuts.data, cuts.indices, cuts.indptr), shape=(len(cuts), m))
    res = linprog(-c, A_ub=a_ub, b_ub=cuts.rhs, bounds=(0.0, 1.0), method="highs")
    if not res.success:
        raise RuntimeError(f"LP backend failed: {res.message}")
    return np.maximum(-res.ineqlin.marginals, 0.0)


@dataclass
class AdmmParams:
    """Solver parameters; the defaults are the tuned production values."""

    beta: float = 1.2
    gamma: float = 1.617
    eps_admm: float = 1e-4
    eps_admm_final: float = 1e-5
    max_inner_iter: int = 2000
    max_inner_iter_final: int = 10000
    min_viol: float = 1e-2
    min_ineq: float | None = None          # defaults to n/4 at solve time
    min_ineq_phase1: float | None = None   # defaults to n
    max_ineq: int | None = None            # defaults to 5n
    max_cuts_per_var: int = 5
    min_impr: float = 0.025
    min_impr_phase1: float = 0.25
    time_limit_global: float = 3600.0
    time_limit_cliques: float = 10.0
    time_limit_holes: float = 10.0
    max_cliques: int = 100000
    max_clique_pairs: int = 100000
    max_holes: int = 100000
    eps_dyk: float = 1e-2
    dyk_max_cycles: int = 100
    seed: int = 0
    families: tuple = ALL_FAMILIES
    max_outer: int | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < _GAMMA_SUP:
            raise ValueError(
                f"gamma must lie in (0, (1+sqrt(5))/2); got {self.gamma}"
            )
        # out of range, each of these runs a degenerate solve (no sweeps,
        # no cut projection, or none that converges) that looks like a result
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive; got {self.beta}")
        for name in ("eps_dyk", "eps_admm", "eps_admm_final"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive; got {getattr(self, name)}")
        for name in ("max_inner_iter", "max_inner_iter_final", "dyk_max_cycles",
                     "max_cuts_per_var"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1; got {getattr(self, name)}")
        if not self.time_limit_global >= 0.0:
            raise ValueError(
                f"time_limit_global must not be negative; got {self.time_limit_global}"
            )
        if self.max_outer is not None and self.max_outer < 1:
            raise ValueError(f"max_outer must be at least 1; got {self.max_outer}")

    def resolved(self, n):
        """Fill the n-dependent knobs for an n-vertex instance."""
        return replace(
            self,
            min_ineq=self.min_ineq if self.min_ineq is not None else n / 4.0,
            min_ineq_phase1=(
                self.min_ineq_phase1 if self.min_ineq_phase1 is not None else float(n)
            ),
            max_ineq=self.max_ineq if self.max_ineq is not None else 5 * n,
        )


@dataclass
class AdmmState:
    """Iterates of the inner solver, warm-started across outer iterations."""

    X: np.ndarray
    Y: np.ndarray
    L: np.ndarray
    k: int
    iterations: int = 0
    # the last affine projection's Dykstra corrections, valid for the
    # clustering it ran on (see projection.dykstra)
    corrections: tuple = None


def initial_state(g, k):
    x0 = initial_iterate(g.n, k)
    return AdmmState(x0, x0.copy(), np.zeros_like(x0), k)


def inner_admm(state, fmap, params, clustered=None, tightened=False,
               ub_probe=None, ub_interval=None):
    """Run the alternating projections until the residual criterion or the
    iteration cap is met.

    Each sweep projects onto the affine set, then onto the PSD cone, then
    takes the scaled dual step; it stops when
    ``max(|X - Y| / (1 + |X|), beta |X - X_prev| / (1 + |X|)) <= eps``
    in Frobenius norms on the full bordered matrices.  ``tightened``
    switches to the final-pass tolerance and cap.  ``ub_probe`` is called
    every ``ub_interval`` sweeps and may stop the loop early by returning
    True.  Each Dykstra projection starts from the corrections of the
    previous one, kept on ``state`` from call to call; they belong to
    ``clustered``, and whoever replaces it clears them.

    Returns ``(iterations_run, stopped_by_probe)``.  Affine projections
    whose Dykstra loop hit ``dyk_max_cycles`` are counted, and a call
    that had any logs one warning with the count.
    """
    eps = params.eps_admm_final if tightened else params.eps_admm
    cap = params.max_inner_iter_final if tightened else params.max_inner_iter
    beta = params.beta
    gamma = params.gamma
    ibar = augmented_identity(fmap.n)
    it = 0
    stopped = False
    capouts = 0
    for it in range(1, cap + 1):
        target = state.Y + (ibar - state.L) / beta
        affine = project_affine_set(
            target, fmap, state.k, clustered, params.eps_dyk, params.dyk_max_cycles,
            corrections=state.corrections,
        )
        state.corrections = affine.corrections
        capouts += not affine.feasible
        x_new = affine.matrix
        y_new = project_psd(x_new + state.L / beta)
        if not np.isfinite(x_new).all() or not np.isfinite(y_new).all():
            raise ArithmeticError(
                f"non-finite ADMM iterate at inner iteration {state.iterations + 1}"
            )
        scale = 1.0 + float(np.linalg.norm(x_new))
        primal = float(np.linalg.norm(x_new - y_new)) / scale
        dual = beta * float(np.linalg.norm(x_new - state.X)) / scale
        state.L = state.L + gamma * beta * (x_new - y_new)
        state.X = x_new
        state.Y = y_new
        state.iterations += 1
        if max(primal, dual) <= eps:
            break
        if ub_probe is not None and ub_interval and it % ub_interval == 0:
            if ub_probe(state):
                stopped = True
                break
    if capouts:
        logger.warning(
            "%d of %d affine projections stopped at the Dykstra cycle cap "
            "(dyk_max_cycles=%d) before reaching eps_dyk=%g",
            capouts, it, params.dyk_max_cycles, params.eps_dyk,
        )
    return it, stopped


def valid_upper_bound(lam, fmap, k, cuts=None, y=None):
    """Weak-duality upper bound from any dual iterate and any cut
    multipliers ``y >= 0``:

        k C[0,0] + sum((c - A'y)_+) + b'y + (k + n) max(lambda_max(Z), 0)

    ``Z`` is the NSD projection of ``lam``, ``C`` the bordered identity
    minus ``Z``, ``c`` the LP objective over the free entries (a diagonal
    entry's diagonal-plus-border gain, twice an off-diagonal non-edge's
    entry of ``C``) and ``A x <= b`` the cuts.  The middle terms bound the
    LP over the box and the cuts by weak duality (the safe LP bound of
    Neumaier & Shcherbina); the last charges a ``Z`` that rounding left
    not quite NSD (Jansson, Chaykin & Keil), as a feasible ``Xbar`` has
    trace at most ``k + n``.  ``y`` is clipped at zero; None is zero, the
    closed form over the cut-free set.
    """
    cuts = CutPool() if cuts is None else cuts
    z = project_nsd(lam)
    c_mat = augmented_identity(fmap.n) - z
    c = np.concatenate([np.diagonal(c_mat)[1:] + 2.0 * c_mat[0, 1:],
                        2.0 * c_mat[fmap.pair_rows, fmap.pair_cols]])
    y = np.zeros(len(cuts)) if y is None else np.maximum(y, 0.0)
    a_t_y = np.bincount(cuts.indices, cuts.data * np.repeat(y, np.diff(cuts.indptr)),
                        minlength=fmap.m)
    return (k * float(c_mat[0, 0]) + float(np.maximum(c - a_t_y, 0.0).sum())
            + float(cuts.rhs @ y)
            + (k + fmap.n) * max(float(np.linalg.eigvalsh(z)[-1]), 0.0))


def greedy_lower_bound(g, k, seed=0):
    """Feasible partial coloring from k rounds of greedy maximal stable
    sets (highest residual degree last, seeded tie shuffling).  Returns
    ``(number_of_colored_vertices, coloring)``; the value is always a
    valid lower bound."""
    rng = np.random.default_rng(seed)
    remaining = list(g.vertices)
    assignment = {}
    for color in range(1, k + 1):
        if not remaining:
            break
        remaining_set = set(remaining)
        shuffled = [remaining[i] for i in rng.permutation(len(remaining))]
        shuffled.sort(key=lambda v: len(g.adj[v] & remaining_set))
        chosen = set()
        for v in shuffled:
            if not (g.adj[v] & chosen):
                chosen.add(v)
        for v in sorted(chosen):
            assignment[v] = color
        remaining = [v for v in remaining if v not in chosen]
    return len(assignment), Coloring(dict(sorted(assignment.items())))


@dataclass
class OuterRecord:
    """Per-outer-iteration trace entry; the tightened final pass appears
    as a second entry with the same outer index."""

    outer: int
    inner_iters: int
    ub: float
    n_cuts_added: int
    n_cuts_total: int
    phase: int
    elapsed_s: float

    def to_json(self, timing=True):
        import json

        return json.dumps(
            {
                "outer": self.outer,
                "inner_iters": self.inner_iters,
                "ub": self.ub,
                "n_cuts_added": self.n_cuts_added,
                "n_cuts_total": self.n_cuts_total,
                "phase": self.phase,
                "elapsed_s": round(self.elapsed_s, 3) if timing else 0.0,
            },
            separators=(",", ":"),
        )


def records_to_jsonl(records, timing=True):
    return "".join(r.to_json(timing) + "\n" for r in records)


@dataclass
class CpAdmmResult:
    ub: float
    matrix: np.ndarray
    lb_hint: int
    termination: str
    outer_iterations: int
    inner_iterations: int
    tightened_iterations: int
    cuts: CutPool
    records: list = field(default_factory=list)
    family_counts: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    enumeration_complete: bool = True


def _separate_families(families, state, g, fmap, k, params, clique_enum,
                       hole_enum, rng, id_base):
    """Run the separators of the requested families against the current
    primal iterate and merge their reports; returns the report and the
    next free cut id."""
    report = SeparationReport()
    next_id = id_base
    if CutFamily.T1 in families or CutFamily.T2 in families:
        tri = separate_triangle(state.X, g, fmap, k, params.min_viol, next_id)
        next_id += len(tri.candidates)
        report.merge(tri.take(np.isin(tri.candidates.family, families)))
    for family, separate, pool, limit in (
        (CutFamily.CLIQUE_EXT, separate_clique_external, clique_enum, params.max_cliques),
        (CutFamily.CLIQUE_UNION, separate_clique_union, clique_enum,
         params.max_clique_pairs),
        (CutFamily.HOLE5, separate_odd_hole, hole_enum, params.max_holes),
    ):
        if family in families:
            rep = separate(state.X, g, fmap, pool, k, params.min_viol, limit, rng,
                           next_id)
            next_id += len(rep.candidates)
            report.merge(rep)
    return report, next_id


def cp_admm(g, k, params=None, lb_hint=None, ub_stop_below=None):
    """Cutting-plane outer loop around the inner ADMM.

    Each round solves the current relaxation, extracts a valid upper
    bound from the dual iterate, separates violated inequalities (phase 1
    considers external-clique cuts only; phase 2 all configured
    families), and adds a capped selection of them.  Termination: the
    bound rounded down reaches the known lower bound, the bound stops
    improving, too few violated inequalities remain, or the time limit
    runs out; on the two plateau criteria one tightened inner pass runs
    first so the final bound is accurate.

    ``ub_stop_below`` aborts the solve as soon as any valid bound drops
    below the given target, which the chromatic-number driver uses to stop
    early; bound probes run every ``UB_PROBE_INTERVAL`` sweeps of the first
    outer iteration.  ``enumeration_complete`` is False when an
    enumeration stopped early or a separator sampled its pool.
    """
    if params is None:
        params = AdmmParams()
    if not 1 <= k <= g.n:
        raise ValueError(f"k must lie in [1, {g.n}]; got {k}")
    params = params.resolved(g.n)
    t0 = time.monotonic()
    if lb_hint is None:
        lb_hint, _ = greedy_lower_bound(g, k, params.seed)
    fmap = FreeIndexMap(g)
    families = tuple(params.families)
    need_cliques = CutFamily.CLIQUE_EXT in families or CutFamily.CLIQUE_UNION in families
    clique_enum = (
        enumerate_cliques(g, params.time_limit_cliques)
        if need_cliques
        else CliqueEnumeration([], [])
    )
    hole_enum = (
        enumerate_5holes(g, params.time_limit_holes)
        if CutFamily.HOLE5 in families
        else HoleEnumeration([])
    )
    enum_complete = clique_enum.complete and hole_enum.complete

    state = initial_state(g, k)
    cut_list = CutPool()
    clustered = None
    phase = 1 if CutFamily.CLIQUE_EXT in families else 2
    best_ub = math.inf
    prev_best = None
    records = []
    outer = 0
    inner_total = 0
    tightened_total = 0
    id_counter = 0
    termination = "max_outer"

    def bound(st):
        # beta W (u - x) -> c as X -> Y, and its cut part is A' (beta t)
        y = params.beta * clustered.multipliers(st.corrections) if clustered else None
        return valid_upper_bound(st.L, fmap, k, cut_list, y)

    def probe(st):
        nonlocal best_ub
        ub_now = bound(st)
        best_ub = min(best_ub, ub_now)
        return ub_stop_below is not None and ub_now < ub_stop_below - 1e-9

    def run_tightened():
        nonlocal tightened_total, best_ub
        iters, _ = inner_admm(state, fmap, params, clustered, tightened=True)
        tightened_total += iters
        ub_t = bound(state)
        best_ub = min(best_ub, ub_t)
        records.append(
            OuterRecord(outer, iters, ub_t, 0, len(cut_list), phase,
                        time.monotonic() - t0)
        )

    while True:
        outer += 1
        iters, probed = inner_admm(
            state, fmap, params, clustered, ub_interval=UB_PROBE_INTERVAL,
            ub_probe=probe if outer == 1 and ub_stop_below is not None else None,
        )
        inner_total += iters
        ub = bound(state)
        best_ub = min(best_ub, ub)
        improvement = math.inf if prev_best is None else prev_best - best_ub
        prev_best = best_ub
        elapsed = time.monotonic() - t0

        def record(n_added):
            records.append(
                OuterRecord(outer, iters, ub, n_added, len(cut_list), phase,
                            time.monotonic() - t0)
            )

        if probed or (
            ub_stop_below is not None and best_ub < ub_stop_below - 1e-9
        ):
            termination = "ub_below_target"
            record(0)
            break
        if math.floor(best_ub + 1e-9) <= lb_hint:
            termination = "lb_match"
            record(0)
            break
        if elapsed > params.time_limit_global:
            termination = "time_limit"
            record(0)
            break
        if params.max_outer is not None and outer >= params.max_outer:
            termination = "max_outer"
            record(0)
            break

        # a round that the min_impr rule ends adds no cut, so it separates
        # only what decides the phase it records
        ending = outer > 1 and improvement < params.min_impr
        rng = np.random.default_rng([params.seed, outer])

        def separate(fams):
            nonlocal id_counter
            rep, id_counter = _separate_families(
                fams, state, g, fmap, k, params, clique_enum, hole_enum, rng,
                id_counter,
            )
            return rep

        report = SeparationReport()
        if phase == 2 and not ending:
            report = separate(families)
        elif phase == 1 and not (ending and improvement < params.min_impr_phase1):
            report = separate([CutFamily.CLIQUE_EXT])
        fresh = cut_list.novel(report.candidates)
        if phase == 1 and (improvement < params.min_impr_phase1
                           or fresh.sum() < params.min_ineq_phase1):
            phase = 2
            if not ending:
                report.merge(separate(
                    [f for f in families if f != CutFamily.CLIQUE_EXT]))
                fresh = cut_list.novel(report.candidates)
        enum_complete = enum_complete and not report.truncated

        accepted = CutPool()
        if not ending and fresh.sum() >= params.min_ineq:
            accepted = select_cuts(
                report.take(fresh), phase, params.max_ineq, params.max_cuts_per_var
            )
        if not len(accepted):
            record(0)
            run_tightened()
            termination = "min_impr" if ending else "min_ineq"
            break
        cut_list.append(accepted)
        clustered = ClusteredCuts(cut_list, cluster_cuts(cut_list), fmap.weights)
        state.corrections = None  # they index the clusters just replaced
        record(len(accepted))

    return CpAdmmResult(
        ub=best_ub,
        matrix=state.X,
        lb_hint=lb_hint,
        termination=termination,
        outer_iterations=outer,
        inner_iterations=inner_total,
        tightened_iterations=tightened_total,
        cuts=cut_list,
        records=records,
        family_counts={CutFamily(f).name: int(n) for f, n in
                       zip(*np.unique(cut_list.family, return_counts=True))},
        elapsed_s=time.monotonic() - t0,
        enumeration_complete=enum_complete,
    )

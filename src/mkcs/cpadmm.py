"""First-order solver for the bound-constrained SDP relaxation of the
maximum k-colorable subgraph problem: the inner ADMM, dual-based valid
upper bounds, a greedy feasibility heuristic, and the cutting-plane
outer loop that stitches them together."""

from __future__ import annotations

import logging
import math
import operator
import random
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
from .graph import enumerate_5holes, enumerate_cliques
from .intadmm import Coloring
from .linalg import (
    FreeIndexMap,
    _frobenius_norm,
    augmented_identity,
    initial_iterate,
    project_nsd,
    project_psd,
)
from .projection import DYK_MAX_CYCLES, EPS_DYK, ClusteredCuts, project_affine_set

logger = logging.getLogger(__name__)

ALL_FAMILIES = (
    CutFamily.T1,
    CutFamily.CLIQUE_EXT,
    CutFamily.CLIQUE_UNION,
    CutFamily.HOLE5,
    CutFamily.T2,
)

# the paper's tuning constants of the inner ADMM and the cutting-plane loop
BETA = 1.2                    # penalty
GAMMA = 1.617                 # dual step, inside the convergent (0, (1+sqrt(5))/2)
EPS_ADMM_FINAL = 1e-5         # tolerance of the tightened final pass
MAX_INNER_ITER_FINAL = 10000  # sweep cap of the tightened final pass
MAX_CUTS_PER_VAR = 5          # cuts a round may add on one coordinate
MIN_IMPR_PHASE1 = 0.25        # phase 1 ends on a smaller improvement

# sweeps between the bound probes of the first outer iteration of a run
# with a ub_stop_below target
UB_PROBE_INTERVAL = 100
# seconds that each pool enumeration may take within the run's deadline
ENUMERATION_BUDGET_S = 10.0


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
    """Settings of the cutting-plane solver; the defaults are the tuned
    production values; ``seed`` seeds the greedy colouring.  The paper's
    other tuning constants are the module constants above and those of
    :mod:`mkcs.graph` and :mod:`mkcs.projection`.

    A round's relaxation only has to pick its cuts, and every bound comes
    from a dual iterate, so ``eps_admm`` is 2e-4: the loosest tolerance
    measured at which no default bound run that ends on a plateau rule
    got a looser bound than at 1e-4 (see README)."""

    eps_admm: float = 2e-4
    max_inner_iter: int = 2000
    min_viol: float = 1e-2
    min_ineq: float | None = None          # defaults to n/4 at solve time
    min_impr: float = 0.025
    seed: int = field(default=0, metadata={"help": "seed of the greedy colouring"})
    families: tuple = field(default=ALL_FAMILIES, metadata={
        "help": "comma-separated cut families to separate"})
    max_outer: int | None = None

    def __post_init__(self):
        # out of range, each of these ends in a traceback or runs a degenerate
        # solve (no sweeps, no cut or every cut, a stopping rule that never
        # fires) that looks like a result
        finite = math.isfinite
        min_ineq = 0.0 if self.min_ineq is None else self.min_ineq
        max_outer = 1 if self.max_outer is None else self.max_outer
        for name, valid, rule in (
            ("eps_admm", finite(self.eps_admm) and self.eps_admm > 0, "finite and > 0"),
            ("max_inner_iter", self.max_inner_iter >= 1, "at least 1"),
            ("min_viol", finite(self.min_viol) and self.min_viol >= 0, "finite and >= 0"),
            ("min_ineq", finite(min_ineq) and min_ineq >= 0, "None or finite and >= 0"),
            ("min_impr", not math.isnan(self.min_impr), "a number"),
            ("seed", self.seed >= 0, "at least 0"),
            ("max_outer", max_outer >= 1, "None or at least 1"),
            ("families", set(self.families) <= set(CutFamily), "CutFamily values"),
        ):
            if not valid:
                raise ValueError(f"{name} must be {rule}; got {getattr(self, name)}")
        self.families = tuple(map(CutFamily, self.families))

    def resolved(self, n):
        """Fill the n-dependent ``min_ineq`` for an n-vertex instance."""
        min_ineq = self.min_ineq if self.min_ineq is not None else n / 4.0
        return replace(self, min_ineq=min_ineq)


@dataclass
class AdmmState:
    """Iterates of the inner solver, warm-started across outer iterations."""

    X: np.ndarray
    Y: np.ndarray
    L: np.ndarray
    k: int
    iterations: int = 0


def initial_state(g, k):
    x0 = initial_iterate(g.n, k)
    return AdmmState(x0, x0.copy(), np.zeros_like(x0), k)


def inner_admm(state, fmap, params, clustered=None, tightened=False,
               ub_probe=None, deadline=None):
    """Run the alternating projections until the residual criterion or the
    iteration cap is met.

    Each sweep projects onto the affine set, then onto the PSD cone, then
    takes the scaled dual step; it stops when
    ``max(|X - Y| / (1 + |X|), beta |X - X_prev| / (1 + |X|)) <= eps``
    in Frobenius norms on the full bordered matrices.  ``tightened``
    switches to the final-pass tolerance and cap.  ``ub_probe`` is called
    every ``UB_PROBE_INTERVAL`` sweeps and may stop the loop early by
    returning True; so does the first sweep that ends past ``deadline``, a
    ``time.monotonic()`` value.  Each Dykstra projection starts from the
    corrections that the previous one left on ``clustered``.

    Returns ``(iterations_run, stopped_by_probe)``.  Affine projections
    whose Dykstra loop hit ``DYK_MAX_CYCLES`` are counted, and a call
    that had any logs one warning with the count.
    """
    eps = EPS_ADMM_FINAL if tightened else params.eps_admm
    cap = MAX_INNER_ITER_FINAL if tightened else params.max_inner_iter
    ibar = augmented_identity(fmap.n)
    it = 0
    stopped = False
    capouts = 0
    for it in range(1, cap + 1):
        target = state.Y + (ibar - state.L) / BETA
        affine = project_affine_set(
            target, fmap, state.k, clustered, EPS_DYK, DYK_MAX_CYCLES)
        capouts += not affine.feasible
        x_new = affine.matrix
        y_new = project_psd(x_new + state.L / BETA)
        if not np.isfinite(x_new).all() or not np.isfinite(y_new).all():
            raise ArithmeticError(
                f"non-finite ADMM iterate at inner iteration {state.iterations + 1}"
            )
        gap = x_new - y_new
        scale = 1.0 + _frobenius_norm(x_new)
        primal = _frobenius_norm(gap) / scale
        dual = BETA * _frobenius_norm(x_new - state.X) / scale
        state.L = state.L + GAMMA * BETA * gap
        state.X = x_new
        state.Y = y_new
        state.iterations += 1
        if max(primal, dual) <= eps:
            break
        if ub_probe is not None and it % UB_PROBE_INTERVAL == 0:
            if ub_probe(state):
                stopped = True
                break
        if deadline is not None and time.monotonic() > deadline:
            break
    if capouts:
        logger.warning(
            "%d of %d affine projections stopped at the Dykstra cycle cap "
            "(dyk_max_cycles=%d) before reaching eps_dyk=%g",
            capouts, it, DYK_MAX_CYCLES, EPS_DYK,
        )
    return it, stopped


# the last (lam, fmap) that _lp_objective saw, and its result
_objective_memo = (None, None, None)


def _lp_objective(lam, fmap):
    """``(Z, C, c)`` of the bound from the dual iterate ``lam`` (see
    :func:`valid_upper_bound`).  The last result is kept: a bound that
    polishes its cut multipliers on ``c`` asks for it again, with the
    same ``lam``, inside :func:`valid_upper_bound`, and then ``lam`` is
    eigendecomposed once.  Callers must not write into the result."""
    global _objective_memo
    memo_lam, memo_fmap, memo = _objective_memo
    if memo_fmap is fmap and np.array_equal(memo_lam, lam):
        return memo
    z = project_nsd(lam)
    c_mat = augmented_identity(fmap.n) - z
    c = np.concatenate([np.diagonal(c_mat)[1:] + 2.0 * c_mat[0, 1:],
                        2.0 * c_mat[fmap.pair_rows, fmap.pair_cols]])
    _objective_memo = (np.array(lam), fmap, (z, c_mat, c))
    return z, c_mat, c


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
    z, c_mat, c = _lp_objective(lam, fmap)
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
    rng = random.Random(operator.index(seed))
    remaining = list(g.vertices)
    assignment = {}
    for color in range(1, k + 1):
        if not remaining:
            break
        remaining_set = set(remaining)
        shuffled = remaining[:]
        rng.shuffle(shuffled)
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
    enumeration_complete: bool = True
    greedy: Coloring | None = None  # the colouring behind lb_hint, if computed here


class SeparationContext:
    """The graph ``g``, its :class:`FreeIndexMap` and its clique and 5-hole
    ``pools``, for separation at any k.  A pool is enumerated when a
    separation first asks for it, within ``ENUMERATION_BUDGET_S`` seconds
    and that separation's deadline, and kept, complete or not."""

    def __init__(self, g):
        self.g = g
        self.fmap = FreeIndexMap(g)
        self.pools = {}

    def separate(self, X, k, families, min_viol, id_base, deadline):
        """Run the separators of ``families`` against the primal iterate
        ``X`` and merge their reports; returns the report and the next free
        cut id.  No separator starts and no pool is enumerated past
        ``deadline``, and a separator's scan stops between chunks once it
        has passed it; the report is truncated when a pool it asked for
        is, or when a scan stopped."""
        report, next_id = SeparationReport(), id_base
        if ((CutFamily.T1 in families or CutFamily.T2 in families)
                and time.monotonic() <= deadline):
            tri = separate_triangle(X, self.g, self.fmap, k, min_viol, next_id, deadline)
            next_id += len(tri.candidates)
            report.merge(tri.take(np.isin(tri.candidates.family, families)))
        for family, separate, name, enumerate_pool in (
            (CutFamily.CLIQUE_EXT, separate_clique_external, "cliques", enumerate_cliques),
            (CutFamily.CLIQUE_UNION, separate_clique_union, "cliques", enumerate_cliques),
            (CutFamily.HOLE5, separate_odd_hole, "holes", enumerate_5holes),
        ):
            if family in families and time.monotonic() <= deadline:
                if name not in self.pools:
                    self.pools[name] = enumerate_pool(
                        self.g, min(deadline, time.monotonic() + ENUMERATION_BUDGET_S))
                pool = self.pools[name]
                report.truncated = report.truncated or not pool.complete
                if time.monotonic() <= deadline:
                    rep = separate(X, self.g, self.fmap, pool, k, min_viol, next_id, deadline)
                    next_id += len(rep.candidates)
                    report.merge(rep)
        return report, next_id


def cp_admm(g, k, params=None, lb_hint=None, ub_stop_below=None, deadline=None,
            ctx=None):
    """Cutting-plane outer loop around the inner ADMM.

    Each round solves the current relaxation, extracts a valid upper
    bound from the dual iterate, separates violated inequalities (phase 1
    considers external-clique cuts only; phase 2 all configured
    families), and adds a capped selection of them.  Termination: the
    bound rounded down reaches the known lower bound, the bound stops
    improving, too few violated inequalities remain, or a sweep ends past
    ``deadline`` (``time_limit``); on the two plateau criteria one
    tightened inner pass runs first so the final bound is accurate.  The
    returned ``ub`` never exceeds the trivial bound n; the records and
    every stopping decision use the uncapped bound.

    ``ub_stop_below`` aborts the solve as soon as any valid bound drops
    below the given target, which the chromatic-number driver uses to stop
    early; bound probes run every ``UB_PROBE_INTERVAL`` sweeps of the first
    outer iteration.  ``ctx`` is the :class:`SeparationContext` of ``g``,
    built when None, so runs at several k can share its pools.
    ``enumeration_complete`` is False when a pool this run separated from,
    or the clique pairs of a separation round, stopped with rows left
    out: at ``MAX_POOL`` rows, the deadline or the enumeration budget; or
    when a separator's scan stopped at the deadline.
    """
    if params is None:
        params = AdmmParams()
    if not 1 <= k <= g.n:
        raise ValueError(f"k must lie in [1, {g.n}]; got {k}")
    params = params.resolved(g.n)
    min_ineq_phase1, max_ineq = float(g.n), 5 * g.n
    t0 = time.monotonic()
    deadline = math.inf if deadline is None else deadline
    lb_hint, greedy = ((lb_hint, None) if lb_hint is not None
                       else greedy_lower_bound(g, k, params.seed))
    ctx = SeparationContext(g) if ctx is None else ctx
    if ctx.g is not g:
        raise ValueError("ctx is the separation context of another graph")
    enum_complete = True

    state = initial_state(g, k)
    cut_list = CutPool()
    clustered = None
    phase = 1 if CutFamily.CLIQUE_EXT in params.families else 2
    best_ub = math.inf
    records = []
    outer = 0
    tightened_total = 0
    id_counter = 0

    def bound(st):
        # beta W (u - x) -> c as X -> Y, and its cut part is A' (beta t),
        # which one pass over the clusters improves on
        y = None
        if clustered:
            y = clustered.polish(_lp_objective(st.L, ctx.fmap)[2],
                                 BETA * clustered.multipliers())
        return valid_upper_bound(st.L, ctx.fmap, k, cut_list, y)

    def probe(st):
        nonlocal best_ub
        ub_now = bound(st)
        best_ub = min(best_ub, ub_now)
        return ub_now < ub_stop_below - 1e-9

    termination = None
    while termination is None:
        outer += 1
        iters, _ = inner_admm(
            state, ctx.fmap, params, clustered,
            ub_probe=probe if outer == 1 and ub_stop_below is not None else None,
            deadline=deadline,
        )
        ub = bound(state)
        # round 1 improves on nothing, although its probes may have set best_ub
        improvement = best_ub - min(best_ub, ub) if outer > 1 else math.inf
        best_ub = min(best_ub, ub)

        if ub_stop_below is not None and best_ub < ub_stop_below - 1e-9:
            termination = "ub_below_target"
        elif math.floor(best_ub + 1e-9) <= lb_hint:
            termination = "lb_match"
        elif time.monotonic() > deadline:
            termination = "time_limit"
        elif params.max_outer is not None and outer >= params.max_outer:
            termination = "max_outer"

        # a round that the min_impr rule ends adds no cut, so it separates
        # only what decides the phase it records
        ending = improvement < params.min_impr
        accepted = CutPool()
        if termination is None:
            report = SeparationReport()
            if phase == 2 and not ending:
                report, id_counter = ctx.separate(
                    state.X, k, params.families, params.min_viol, id_counter, deadline)
            elif phase == 1 and not (ending and improvement < MIN_IMPR_PHASE1):
                report, id_counter = ctx.separate(state.X, k, [CutFamily.CLIQUE_EXT],
                                                  params.min_viol, id_counter, deadline)
            fresh = cut_list.novel(report.candidates)
            if phase == 1 and (improvement < MIN_IMPR_PHASE1
                               or fresh.sum() < min_ineq_phase1):
                phase = 2
                if not ending:
                    rest, id_counter = ctx.separate(
                        state.X, k, [f for f in params.families if f != CutFamily.CLIQUE_EXT],
                        params.min_viol, id_counter, deadline)
                    fresh = cut_list.novel(report.merge(rest).candidates)
            enum_complete = enum_complete and not report.truncated
            if not ending and fresh.sum() >= params.min_ineq:
                accepted = select_cuts(report.take(fresh), max_ineq, MAX_CUTS_PER_VAR)
            if len(accepted):
                cut_list.append(accepted)
                clustered = ClusteredCuts(cut_list, cluster_cuts(cut_list), ctx.fmap.weights)
        records.append(OuterRecord(outer, iters, ub, len(accepted), len(cut_list),
                                   phase, time.monotonic() - t0))
        if termination is None and not len(accepted):
            # the plateau rules end the run after one tightened pass
            tightened_total, _ = inner_admm(state, ctx.fmap, params, clustered,
                                            tightened=True, deadline=deadline)
            ub = bound(state)
            best_ub = min(best_ub, ub)
            records.append(OuterRecord(outer, tightened_total, ub, 0, len(cut_list),
                                       phase, time.monotonic() - t0))
            termination = ("time_limit" if time.monotonic() > deadline
                           else "min_impr" if ending else "min_ineq")

    return CpAdmmResult(
        ub=min(best_ub, float(g.n)),
        matrix=state.X,
        lb_hint=lb_hint,
        termination=termination,
        outer_iterations=outer,
        inner_iterations=state.iterations - tightened_total,
        tightened_iterations=tightened_total,
        cuts=cut_list,
        records=records,
        family_counts={CutFamily(f).name: int(n) for f, n in
                       zip(*np.unique(cut_list.family, return_counts=True))},
        enumeration_complete=enum_complete,
        greedy=greedy,
    )

"""Three-block ADMM that drives iterates toward integer feasible points
of the exact formulation by adding a sphere constraint, with a penalty
schedule and an escape mechanism, plus rounding to verified colorings."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    FreeIndexMap,
    _frobenius_norm,
    augmented_identity,
    initial_iterate,
    project_psd,
)
from .projection import project_affine_set

# the paper's tuning constants of the integer stage
BETA_MIN = 0.001            # floor of the penalty after a convergence event
EPS_INT = 1e-3              # residual tolerance of a convergence event
MAX_TRIES_WITHOUT_IMPR = 3  # events in a row that raise no value end the run
MIN_ITERS_AFTER_RESET = 10  # sweeps without the convergence test after an event

# mkcs's penalty growth while the sphere residual stalls (not the paper's)
STALL_WINDOW = 50           # sweeps between two stall tests
STALL_FALL = 0.9            # a window stalls unless res_z falls below this share
MAX_GROWTH_EXPONENT = 32    # cap of the exponent e in beta_incr ** e per sweep


@dataclass
class IntAdmmParams:
    """Penalty schedule and sweep cap; defaults are the tuned production
    values.  The paper's other tuning constants are fixed: ``BETA_MIN``,
    ``EPS_INT``, ``MAX_TRIES_WITHOUT_IMPR`` and ``MIN_ITERS_AFTER_RESET``.

    ``beta_decr`` departs from the paper's table, which halves the
    penalty after a convergence event.  Every sweep up to and including
    the first event is the same either way, and on every instance
    measured (README, "Integer stage") halving found its best value at
    that first event.  Backing off to 0.85 beta instead shortens each
    later escape's climb back, which roughly halves a run's sweeps.

    The growth departs from the paper too, which multiplies the penalty
    by ``beta_incr`` every sweep.  mkcs multiplies it by ``beta_incr **
    e``, where ``e`` doubles while the sphere residual stalls and returns
    to 1 once it falls and at every convergence event (see
    :class:`PenaltyGrowth` and its fixed constants ``STALL_WINDOW``,
    ``STALL_FALL`` and ``MAX_GROWTH_EXPONENT``).  While the residual
    falls the schedule is the paper's; the runs in README's "Integer
    stage" take 3.5 to 9 times fewer sweeps.
    """

    beta0: float = 0.05
    beta_incr: float = 1.0001
    beta_decr: float = 0.85
    max_iterations: int = 60000

    def __post_init__(self):
        # out of range, each of these runs a degenerate solve (a zero or
        # negative penalty, a NaN schedule, or no sweep at all) that looks
        # like a result
        if not (math.isfinite(self.beta0) and self.beta0 > 0.0):
            raise ValueError(f"beta0 must be positive and finite; got {self.beta0}")
        if not (math.isfinite(self.beta_incr) and self.beta_incr > 1.0):
            raise ValueError(
                f"beta_incr must be finite and exceed 1; got {self.beta_incr}"
            )
        if not 0.0 < self.beta_decr < 1.0:
            raise ValueError(f"beta_decr must lie in (0, 1); got {self.beta_decr}")
        if self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must not be negative; got {self.max_iterations}"
            )


class PenaltyGrowth:
    """Per-sweep growth factor ``beta_incr ** exponent`` of the integer
    stage's penalty, with ``exponent`` driven by the sphere residual.

    :meth:`step` takes each sweep's sphere residual.  The first residual
    after a reset opens a window; the ``STALL_WINDOW``-th after it closes
    the window and opens the next.  A window closes stalled unless its
    last residual fell below ``STALL_FALL`` times its first: the exponent
    then doubles, up to ``MAX_GROWTH_EXPONENT``; otherwise it returns to
    1.  :meth:`reset` (at a convergence event) returns the exponent to 1
    and drops the open window.
    """

    def __init__(self, beta_incr):
        self.beta_incr = beta_incr
        self.reset()

    def reset(self):
        self.exponent = 1
        self.factor = self.beta_incr
        self._start = None  # the open window's first residual
        self._sweeps = 0    # sweeps since the window opened

    def step(self, res_z):
        """Take a sweep's sphere residual; return that sweep's factor."""
        if self._start is None:
            self._start = res_z
            return self.factor
        self._sweeps += 1
        if self._sweeps == STALL_WINDOW:
            if res_z < STALL_FALL * self._start:
                self.exponent = 1
            else:
                self.exponent = min(2 * self.exponent, MAX_GROWTH_EXPONENT)
            self.factor = self.beta_incr ** self.exponent
            self._start = res_z
            self._sweeps = 0
        return self.factor


@dataclass
class Coloring:
    """Partial assignment of vertices to colors 1..k; the feasible
    artifact whose size lower-bounds the optimum."""

    assignment: dict

    @property
    def value(self):
        return len(self.assignment)

    def color_classes(self):
        classes = {}
        for v, c in self.assignment.items():
            classes.setdefault(c, set()).add(v)
        return classes

    def check(self, g, k):
        """Validate against a host graph: proper, and at most k colors."""
        classes = self.color_classes()
        if len(classes) > k:
            return False
        for members in classes.values():
            for i in members:
                if g.adj[i] & members:
                    return False
        return True


def project_sphere(a, k, out=None):
    """Project a bordered symmetric matrix onto the integrality sphere with
    its corner entry pinned to k.

    The sphere's intersection with the unit box is the set of 0/1 bordered
    matrices with corner k: its center is 0.5 off the corner (the corner
    is overwritten with k), its radius sqrt((n+1)^2 - 1)/2.  The
    projection rescales the offset from the center, corner zeroed, to
    that radius.  A matrix sitting exactly at the center is nudged along
    the bordered-identity direction so the result is deterministic.  The
    result is written into ``out`` when given, which may be ``a`` itself.
    """
    n = a.shape[0] - 1
    radius = math.sqrt((n + 1) ** 2 - 1) / 2.0
    offset = np.subtract(a, 0.5, out=out)
    offset[0, 0] = 0.0  # corner replaced by the pinned value
    norm = _frobenius_norm(offset)
    if norm < 1e-12:
        offset[...] = augmented_identity(n)
        norm = math.sqrt(n)
    np.multiply(offset, radius / norm, out=offset)
    offset += 0.5
    offset[0, 0] = float(k)
    return offset


@dataclass
class RoundingResult:
    coloring: object  # Coloring or None
    reason: str | None = None

    @property
    def feasible(self):
        return self.reason is None


def round_and_verify(xbar, g, k):
    """Round a near-integer iterate to 0/1 and verify it encodes a
    feasible partial coloring.

    A symmetric 0/1 matrix encodes a partial coloring exactly when its
    1s lie in the block of its colored vertices (those with a diagonal 1)
    and that block is the "same row" relation of its own rows: then the
    distinct rows are the color classes.  Checks, in order: (a) zero
    entries on edges, (b) symmetry, (c) no 1 outside the colored block,
    (d) the block equals its same-row relation, (e) at most k classes.
    Colors number the classes by their least vertex, so the returned
    value equals the rounded trace.
    """
    # x > 0.5 is exactly where np.rint rounds to 1 or more
    r = np.asarray(xbar, dtype=np.float64)[1:, 1:] > 0.5
    edges = np.array(sorted(g.edges), dtype=np.intp).reshape(-1, 2) - 1
    if (r[edges[:, 0], edges[:, 1]] | r[edges[:, 1], edges[:, 0]]).any():
        return RoundingResult(None, "a: nonzero entry on an edge")
    if not np.array_equal(r, r.T):
        return RoundingResult(None, "b: asymmetric rounding")
    colored = np.diagonal(r)
    if r[~colored].any():
        return RoundingResult(None, "c: pairing involves an uncolored vertex")
    block = r[np.ix_(colored, colored)]
    _, first, label = np.unique(block, axis=0, return_index=True, return_inverse=True)
    label = label.reshape(-1)  # numpy 2.0.0 keeps an axis on the inverse
    if not np.array_equal(block, label[:, None] == label[None, :]):
        return RoundingResult(None, "d: same-color relation not transitive")
    if len(first) > k:
        return RoundingResult(None, "e: more than k color classes")
    color = np.empty(len(first), dtype=np.intp)
    color[np.argsort(first)] = np.arange(1, len(first) + 1)
    vertices = np.flatnonzero(colored) + 1
    return RoundingResult(Coloring(dict(zip(vertices.tolist(), color[label].tolist()))))


@dataclass
class IntTraceRecord:
    t: int
    beta: float
    primal_res_Y: float
    primal_res_Z: float
    converged_event: bool
    feasible_value: int | None


@dataclass
class IntAdmmResult:
    coloring: Coloring
    value: int
    feasible_found: bool
    iterations: int
    convergence_events: int
    termination: str
    records: list = field(default_factory=list)


def int_admm(g, k, params=None, warm=None, known_ub=None, deadline=None):
    """Search for large feasible partial k-colorings.

    Alternates projections of three coupled blocks (affine/box, PSD cone,
    integrality sphere with pinned corner) with dual updates, increasing
    the penalty every sweep by a factor that grows while the sphere
    residual stalls (:class:`PenaltyGrowth`).  The PSD step gets the
    rank of the previous sweep's result as a hint, so that low-rank
    sweeps, the common case near a coloring, compute only the positive
    eigenpairs.  Whenever the two primal residuals drop below tolerance
    the iterate is rounded and verified; improvements are kept, the
    penalty is multiplied by ``beta_decr`` (never below the floor
    ``BETA_MIN``) to escape the local optimum, its growth starts over,
    and the convergence check is suppressed for the next
    ``MIN_ITERS_AFTER_RESET`` sweeps.  Stops after
    ``MAX_TRIES_WITHOUT_IMPR`` consecutive non-improving convergence
    events, when the best value matches the floor of ``known_ub``, when
    the PSD step's input is not finite (``non_finite``), at the iteration
    cap, or past ``deadline`` (a ``time.monotonic()`` value); the best
    verified coloring found is always returned (possibly the empty one,
    flagged by ``feasible_found``).
    """
    if params is None:
        params = IntAdmmParams()
    if not 1 <= k <= g.n:
        raise ValueError(f"k must lie in [1, {g.n}]; got {k}")
    fmap = FreeIndexMap(g)
    ibar = augmented_identity(g.n)
    if warm is None:
        warm = initial_iterate(g.n, k)
    beta = params.beta0
    x = project_affine_set(warm, fmap, k).matrix
    y = project_psd(warm)
    z = project_sphere(warm, k)
    lam = beta * (x - y)
    mu = beta * (x - z)
    # sweep buffers: work holds the affine target, then the PSD input,
    # then x - z; diff holds beta z, then x - y
    work = np.empty_like(x)
    diff = np.empty_like(x)
    rank = x.shape[0]  # no rank observed yet: the first sweep solves in full
    growth = PenaltyGrowth(params.beta_incr)
    best = None
    tries = 0
    suppress = 0
    events = 0
    records = []
    termination = "iteration_cap"
    target = math.floor(known_ub + 1e-9) if known_ub is not None else None
    t = 0
    # a sweep that turns non-finite ends the run as ``non_finite``; numpy's
    # warnings about it on the way would only be noise
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for t in range(1, params.max_iterations + 1):
            # x = affine((beta y + beta z + ibar - lam - mu) / (2 beta))
            np.multiply(y, beta, out=work)
            np.multiply(z, beta, out=diff)
            work += diff
            work += ibar
            work -= lam
            work -= mu
            work /= 2.0 * beta
            project_affine_set(work, fmap, k, out=x)
            # y = psd(x + lam / beta), once its input is known to be finite
            np.divide(lam, beta, out=work)
            np.add(x, work, out=work)
            if not np.isfinite(work).all():
                termination = "non_finite"
                break
            y, rank = project_psd(work, rank_hint=rank)
            # z = sphere(x + mu / beta), in place
            np.divide(mu, beta, out=z)
            np.add(x, z, out=z)
            project_sphere(z, k, out=z)
            np.subtract(x, y, out=diff)
            dist_y = _frobenius_norm(diff)
            diff *= beta
            lam += diff
            np.subtract(x, z, out=work)
            dist_z = _frobenius_norm(work)
            work *= beta
            mu += work
            scale = 1.0 + _frobenius_norm(x)
            res_y = dist_y / scale
            res_z = dist_z / scale
            beta *= growth.step(res_z)
            if suppress > 0:
                suppress -= 1
            elif max(res_y, res_z) <= EPS_INT:
                events += 1
                rounded = round_and_verify(x, g, k)
                value = rounded.coloring.value if rounded.feasible else None
                records.append(IntTraceRecord(t, beta, res_y, res_z, True, value))
                if rounded.feasible and (best is None or value > best.value):
                    best = rounded.coloring
                    tries = 0
                else:
                    tries += 1
                if best is not None and target is not None and best.value >= target:
                    termination = "ub_match"
                    break
                if best is not None and best.value == g.n:
                    termination = "complete"
                    break
                if tries >= MAX_TRIES_WITHOUT_IMPR:
                    termination = "no_improvement"
                    break
                beta = max(beta * params.beta_decr, BETA_MIN)
                growth.reset()
                suppress = MIN_ITERS_AFTER_RESET
            if deadline is not None and time.monotonic() > deadline:
                termination = "time_limit"
                break
    coloring = best if best is not None else Coloring({})
    return IntAdmmResult(
        coloring=coloring,
        value=coloring.value,
        feasible_found=best is not None,
        iterations=t,
        convergence_events=events,
        termination=termination,
        records=records,
    )

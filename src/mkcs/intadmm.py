"""Three-block ADMM that drives iterates toward integer feasible points
of the exact formulation by adding a sphere constraint, with a penalty
schedule and an escape mechanism, plus rounding to verified colorings."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import FreeIndexMap, augmented_identity, initial_iterate, project_psd
from .projection import project_affine_set


@dataclass
class IntAdmmParams:
    """Penalty schedule and termination knobs; defaults are the tuned
    production values."""

    beta0: float = 0.05
    beta_incr: float = 1.0001
    beta_decr: float = 0.5
    beta_min: float = 0.001
    eps_int: float = 1e-3
    max_tries_without_impr: int = 3
    min_iters_after_reset: int = 10
    max_iterations: int = 60000
    seed: int = 0

    def __post_init__(self):
        if self.beta_incr <= 1.0:
            raise ValueError("beta_incr must exceed 1")
        if not 0.0 < self.beta_decr < 1.0:
            raise ValueError("beta_decr must lie in (0, 1)")
        if self.beta_min <= 0.0:
            raise ValueError("beta_min must be positive")


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

    def to_json(self):
        return json.dumps(
            {
                "value": self.value,
                "assignment": {str(v): c for v, c in sorted(self.assignment.items())},
            },
            separators=(",", ":"),
        )


def sphere_center(n, k):
    """Center of the sphere whose intersection with the unit box is the
    set of 0/1 bordered matrices with corner k."""
    c = np.full((n + 1, n + 1), 0.5)
    c[0, 0] += k
    return c


class Sphere(NamedTuple):
    center: np.ndarray
    radius: float


def integrality_sphere(n, k, fix_corner=False):
    """Center and radius of the sphere that ``project_sphere`` targets."""
    radius = math.sqrt((n + 1) ** 2 - 1) / 2.0 if fix_corner else (n + 1) / 2.0
    return Sphere(sphere_center(n, k), radius)


def _norm(a):
    """Frobenius norm, bitwise ``np.linalg.norm(a)`` for a float64 array."""
    r = a.ravel()
    return math.sqrt(r.dot(r))


def project_sphere(a, k, fix_corner=False, sphere=None, out=None):
    """Project a bordered symmetric matrix onto the integrality sphere.

    Without ``fix_corner`` the target is the sphere of radius (n+1)/2
    around the center; with it, the subset with corner entry pinned to k,
    whose projection rescales the corner-corrected offset to radius
    sqrt((n+1)^2 - 1)/2.  A matrix sitting exactly at the center is
    nudged along the bordered-identity direction so the result is
    deterministic.  ``sphere`` is ``integrality_sphere(n, k, fix_corner)``,
    passed by callers that project repeatedly; the result is written into
    ``out`` when given, which may be ``a`` itself.
    """
    n = a.shape[0] - 1
    if sphere is None:
        sphere = integrality_sphere(n, k, fix_corner)
    center, radius = sphere
    offset = np.subtract(a, center, out=out)
    if fix_corner:
        offset[0, 0] = 0.0  # corner replaced by the pinned value
    norm = _norm(offset)
    if norm < 1e-12:
        offset[...] = augmented_identity(n)
        norm = math.sqrt(n)
    np.multiply(offset, radius / norm, out=offset)
    offset += center
    if fix_corner:
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

    Checks, in order: (a) zero entries on edges, (b) symmetry, (c) an
    off-diagonal 1 requires both diagonal entries to be 1, (d) the
    same-color relation is transitive, (e) at most k color classes,
    (f) no class contains an edge.  On success the equivalence classes
    become the colors, so the returned value equals the rounded trace.
    """
    inner = np.asarray(xbar, dtype=np.float64)[1:, 1:]
    r = np.clip(np.rint(inner), 0.0, 1.0).astype(np.int8)
    n = g.n
    for i, j in sorted(g.edges):
        if r[i - 1, j - 1] or r[j - 1, i - 1]:
            return RoundingResult(None, "a: nonzero entry on an edge")
    if not np.array_equal(r, r.T):
        return RoundingResult(None, "b: asymmetric rounding")
    colored = [v for v in range(n) if r[v, v] == 1]
    colored_set = set(colored)
    for i in range(n):
        for j in range(i + 1, n):
            if r[i, j] and (i not in colored_set or j not in colored_set):
                return RoundingResult(None, "c: pairing involves an uncolored vertex")
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in range(n):
        for j in range(i + 1, n):
            if r[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    for i in colored:
        for j in colored:
            if j <= i:
                continue
            if find(i) == find(j) and not r[i, j]:
                return RoundingResult(None, "d: same-color relation not transitive")
    roots = sorted({find(v) for v in colored})
    if len(roots) > k:
        return RoundingResult(None, "e: more than k color classes")
    color_of_root = {root: c for c, root in enumerate(roots, start=1)}
    assignment = {v + 1: color_of_root[find(v)] for v in colored}
    for i, j in g.edges:
        if i in assignment and assignment.get(i) == assignment.get(j):
            return RoundingResult(None, "f: a color class contains an edge")
    return RoundingResult(Coloring(dict(sorted(assignment.items()))))


@dataclass
class IntTraceRecord:
    t: int
    beta: float
    primal_res_Y: float
    primal_res_Z: float
    converged_event: bool
    feasible_value: int | None

    def to_json(self):
        return json.dumps(
            {
                "t": self.t,
                "beta": round(self.beta, 9),
                "primal_res_Y": round(self.primal_res_Y, 9),
                "primal_res_Z": round(self.primal_res_Z, 9),
                "converged_event": self.converged_event,
                "feasible_value": self.feasible_value,
            },
            separators=(",", ":"),
        )


def int_trace_to_jsonl(records):
    return "".join(r.to_json() + "\n" for r in records)


@dataclass
class IntAdmmResult:
    coloring: Coloring
    value: int
    feasible_found: bool
    iterations: int
    convergence_events: int
    termination: str
    records: list = field(default_factory=list)
    elapsed_s: float = 0.0


def int_admm(g, k, params=None, warm=None, known_ub=None, time_limit=None):
    """Search for large feasible partial k-colorings.

    Alternates projections of three coupled blocks (affine/box, PSD cone,
    integrality sphere with pinned corner) with dual updates, increasing
    the penalty every sweep.  The PSD step gets the rank of the previous
    sweep's result as a hint, so that low-rank sweeps, the common case
    near a coloring, compute only the positive eigenpairs.  Whenever the
    two primal residuals drop below tolerance the iterate is rounded and
    verified; improvements are kept, the penalty is halved (never below
    the floor) to escape the local optimum, and the convergence check is
    suppressed for the next few sweeps.  Stops after three consecutive
    non-improving convergence events, when the best value matches the
    floor of ``known_ub``, when the PSD step's input is not finite
    (``non_finite``), or at the iteration/time caps; the best verified
    coloring found is always returned (possibly the empty one, flagged
    by ``feasible_found``).
    """
    if params is None:
        params = IntAdmmParams()
    if not 1 <= k <= g.n:
        raise ValueError(f"k must lie in [1, {g.n}]; got {k}")
    t0 = time.monotonic()
    fmap = FreeIndexMap(g)
    ibar = augmented_identity(g.n)
    sphere = integrality_sphere(g.n, k, fix_corner=True)
    if warm is None:
        warm = initial_iterate(g.n, k)
    beta = params.beta0
    x = project_affine_set(warm, fmap, k).matrix
    y = project_psd(warm)
    z = project_sphere(warm, k, fix_corner=True, sphere=sphere)
    lam = beta * (x - y)
    mu = beta * (x - z)
    # sweep buffers: work holds the affine target, then the PSD input,
    # then x - z; diff holds beta z, then x - y
    work = np.empty_like(x)
    diff = np.empty_like(x)
    rank = x.shape[0]  # no rank observed yet: the first sweep solves in full
    best = None
    tries = 0
    suppress = 0
    events = 0
    records = []
    termination = "iteration_cap"
    target = math.floor(known_ub + 1e-9) if known_ub is not None else None
    t = 0
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
        project_sphere(z, k, fix_corner=True, sphere=sphere, out=z)
        np.subtract(x, y, out=diff)
        dist_y = _norm(diff)
        diff *= beta
        lam += diff
        np.subtract(x, z, out=work)
        dist_z = _norm(work)
        work *= beta
        mu += work
        beta *= params.beta_incr
        scale = 1.0 + _norm(x)
        res_y = dist_y / scale
        res_z = dist_z / scale
        if suppress > 0:
            suppress -= 1
        elif max(res_y, res_z) <= params.eps_int:
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
            if tries >= params.max_tries_without_impr:
                termination = "no_improvement"
                break
            beta = max(beta * params.beta_decr, params.beta_min)
            suppress = params.min_iters_after_reset
        if time_limit is not None and time.monotonic() - t0 > time_limit:
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
        elapsed_s=time.monotonic() - t0,
    )

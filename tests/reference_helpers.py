"""Reference code that only the tests use: the seeded random graphs of
the suite and of ``tools/stable_outputs.py``, the exhaustive enumeration
of the integer feasible matrices, the ``Clique`` object that once held
each enumerated clique and the enumeration that built them, the
``Hole5`` object that once held each enumerated 5-hole, the ``Cut``
object that once held each cut (with its list of candidates and
conversions to and from a ``CutPool``), the LP bound over a dense
constraint matrix, the rank of a clique or odd hole under a colour
budget, the weighted projection onto one cut's halfspace, the objective
of a bordered iterate, the cut-free affine projection and sphere
projection as they were written before their buffered rewrites, and the
rounding verifier as it was written before it became one equivalence
test.  The solver never calls these; the tests check the production
code against them."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from mkcs.cuts import CutFamily, CutPool
import mkcs.graph
from mkcs.graph import Graph
from mkcs.intadmm import Coloring, RoundingResult
from mkcs.linalg import augmented_identity
from mkcs.oracle import OracleSizeError


def random_graph(n, edge_prob, seed):
    """Seeded Erdos-Renyi graph, used throughout the test-suite."""
    rng = np.random.default_rng(seed)
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < edge_prob
    ]
    return Graph(n, edges, name=f"gnp_{n}_{edge_prob}_{seed}")


def enumerate_Dnk(n, k, g=None, limit=2**20):
    """All distinct 0/1 matrices X = P P' with binary row-sum-at-most-one
    assignment matrices P; when a graph is given only edge-compatible
    matrices (X[i,j] = 0 on edges) are kept.

    Matrices are n x n uint8 arrays indexed 0..n-1 for vertices 1..n,
    returned in a deterministic order.
    """
    total = (k + 1) ** n
    if total > limit:
        raise OracleSizeError(
            f"(k+1)^n = {total} assignment matrices exceed the guard {limit}"
        )
    edge_idx = []
    if g is not None:
        if g.n != n:
            raise ValueError("graph order does not match n")
        edge_idx = [(i - 1, j - 1) for i, j in sorted(g.edges)]
    seen = {}
    chunk = 1 << 14
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        assign = np.empty((len(codes), n), dtype=np.int8)
        for col in range(n):
            assign[:, col] = codes % (k + 1)
            codes //= k + 1
        x = (assign[:, :, None] == assign[:, None, :]) & (assign[:, :, None] != 0)
        x = x.astype(np.uint8)
        if edge_idx:
            ok = np.ones(len(x), dtype=bool)
            for i, j in edge_idx:
                ok &= x[:, i, j] == 0
            x = x[ok]
        for mat in x:
            seen.setdefault(mat.tobytes(), mat)
    return [seen[key] for key in sorted(seen)]


@dataclass(frozen=True)
class Clique:
    """A set of pairwise-adjacent vertices; ``maximal`` marks that no
    vertex of the host graph is adjacent to all members.  The enumeration
    now returns cliques as the rows of one padded array."""

    vertices: frozenset
    maximal: bool = False

    def __len__(self):
        return len(self.vertices)


@dataclass
class CliqueLists:
    """The enumerated ``Clique``s as the enumeration once returned them:
    the maximal ones of size 2..5, then every 6-clique."""

    maximal: list
    size6: list
    complete: bool = True

    def all_cliques(self):
        return self.maximal + self.size6


def enumerate_cliques(g, deadline=None):
    """``mkcs.graph.enumerate_cliques`` as it was written, one ``Clique``
    object per clique: the same Bron-Kerbosch search without pivoting,
    stopping at ``mkcs.graph.MAX_POOL`` cliques or at ``deadline``."""
    maximal = []
    size6 = []
    complete = True
    adj = g.adj

    def visit(r, p, x):
        nonlocal complete
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            return
        if len(r) == 6 or not p and not x:
            if len(r) >= 2:
                if len(maximal) + len(size6) == mkcs.graph.MAX_POOL:
                    complete = False
                    return
                clique = Clique(frozenset(r), maximal=not p and not x)
                (size6 if len(r) == 6 else maximal).append(clique)
            return
        for v in sorted(p):
            if not complete:
                return
            nv = adj[v]
            visit(r + [v], p & nv, x & nv)
            p.remove(v)
            x.add(v)

    visit([], set(g.vertices), set())
    return CliqueLists(maximal, size6, complete)


@dataclass(frozen=True)
class Hole5:
    """A chordless 5-cycle, stored in canonical cyclic order: the least
    vertex first, then the smaller of the two traversal directions.  The
    enumeration now returns these as the rows of an ``(H, 5)`` array."""

    vertices: tuple

    def __len__(self):
        return 5


@dataclass
class Cut:
    """One linear inequality ``sum_p a_p x_p <= rhs`` over free entries,
    as a coefficient dict; a ``CutPool`` now holds cuts as CSR rows."""

    id: int
    family: CutFamily
    coeffs: dict          # free-entry coordinate -> coefficient
    rhs: float

    @property
    def support(self):
        return frozenset(self.coeffs)

    def violation(self, x):
        return sum(a * x[p] for p, a in self.coeffs.items()) - self.rhs

    def key(self):
        """Canonical identity of the inequality, independent of family/id."""
        items = tuple(sorted((p, round(a, 9)) for p, a in self.coeffs.items()))
        return (round(self.rhs, 9), items)

    def to_json(self):
        coeffs = sorted((int(p), float(a)) for p, a in self.coeffs.items())
        return json.dumps(
            {"id": self.id, "family": self.family.name, "rhs": self.rhs,
             "coeffs": coeffs},
            separators=(",", ":"),
        )


@dataclass
class CutList:
    """Violated-cut candidates as ``(Cut, violation)`` pairs, the form the
    separators once returned."""

    candidates: list = field(default_factory=list)
    truncated: bool = False

    def add(self, cut, violation):
        self.candidates.append((cut, violation))

    def merge(self, other):
        self.candidates.extend(other.candidates)
        self.truncated = self.truncated or other.truncated
        return self


def pool_of(cuts):
    """The ``CutPool`` of a list of ``Cut``s, in list order."""
    rows = [sorted(c.coeffs.items()) for c in cuts]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return CutPool(indptr, [p for r in rows for p, _ in r],
                   [a for r in rows for _, a in r], [c.rhs for c in cuts],
                   [c.family for c in cuts], [c.id for c in cuts])


def cuts_of(pool):
    """The rows of a ``CutPool`` as ``Cut``s, coefficients by coordinate."""
    return [Cut(cid, CutFamily(fam), dict(zip(idx, coeffs)), rhs)
            for cid, fam, rhs, (idx, coeffs) in zip(
                pool.id.tolist(), pool.family.tolist(), pool.rhs.tolist(),
                pool.rows())]


def candidate_pairs(report):
    """The ``(Cut, violation)`` pairs of a separation report."""
    return list(zip(cuts_of(report.candidates), report.violation))


def dense_linprog_reference(c, cuts, m):
    """The LP bound as first written: a dense constraint matrix filled one
    coefficient of a ``Cut`` at a time."""
    from scipy.optimize import linprog

    a_ub = np.zeros((len(cuts), m))
    b_ub = np.empty(len(cuts))
    for row, cut in enumerate(cuts):
        for p, a in cut.coeffs.items():
            a_ub[row, p] = a
        b_ub[row] = cut.rhs
    res = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")
    assert res.success, res.message
    return float(-res.fun)


def kappa_rank(structure, kappa):
    """Largest number of vertices of the structure colorable with ``kappa``
    colors: min(kappa, |Q|) for a clique, min(kappa*(|C|-1)/2, |C|) for an
    odd hole, and 0 when kappa is 0."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    size = len(structure)
    if isinstance(structure, Hole5) or (
        not isinstance(structure, Clique) and isinstance(structure, tuple)
    ):
        return min(kappa * (size - 1) // 2, size)
    return min(kappa, size)


def project_halfspace_weighted(x, cut, w):
    """Weighted projection onto the halfspace ``a.x <= b`` of one cut:
    ``x - (a.x - b)_+ / (a' W^-1 a) * W^-1 a``.  Coordinates outside the
    cut's support are untouched; feasible inputs are returned unchanged.
    """
    if not cut.coeffs:
        raise ValueError("cannot project onto a cut with empty support")
    idx = np.fromiter(cut.coeffs.keys(), dtype=np.intp, count=len(cut.coeffs))
    a = np.fromiter(cut.coeffs.values(), dtype=np.float64, count=len(cut.coeffs))
    viol = float(a @ x[idx]) - cut.rhs
    if viol <= 0.0:
        return x
    winv_a = a / w[idx]
    out = x.copy()
    out[idx] -= (viol / float(a @ winv_a)) * winv_a
    return out


def admm_objective(x):
    """Objective value of a bordered iterate: the trace of the inner block."""
    return float(np.trace(x[1:, 1:]))


def affine_box_reference(u, fmap, k):
    """The cut-free ``project_affine_set``: the free-entry vector of ``u``,
    clamped to the unit box, rebuilt as a bordered matrix with corner k."""
    n = fmap.n
    v = np.empty(fmap.m)
    v[:n] = np.diagonal(u)[1:] / 3.0 + u[0, 1:] * (2.0 / 3.0)
    v[n:] = u[fmap.pair_rows, fmap.pair_cols]
    v = np.minimum(np.maximum(0.0, v), 1.0)
    a = np.zeros((n + 1, n + 1))
    a[0, 0] = float(k)
    d = v[:n]
    idx = np.arange(1, n + 1)
    a[idx, idx] = d
    a[0, 1:] = d
    a[1:, 0] = d
    a[fmap.pair_rows, fmap.pair_cols] = v[n:]
    a[fmap.pair_cols, fmap.pair_rows] = v[n:]
    return a


def sphere_center(n, k):
    """Center of the sphere whose intersection with the unit box is the
    set of 0/1 bordered matrices with corner k."""
    c = np.full((n + 1, n + 1), 0.5)
    c[0, 0] += k
    return c


def project_sphere_reference(a, k, fix_corner=False):
    """``project_sphere`` rebuilding the center and radius on every call."""
    n = a.shape[0] - 1
    center = sphere_center(n, k)
    if fix_corner:
        offset = a - center
        offset[0, 0] = 0.0  # corner replaced by the pinned value
        radius = math.sqrt((n + 1) ** 2 - 1) / 2.0
        norm = float(np.linalg.norm(offset))
        if norm < 1e-12:
            offset = augmented_identity(n)
            norm = math.sqrt(n)
        out = (radius / norm) * offset + center
        out[0, 0] = float(k)
        return out
    offset = a - center
    norm = float(np.linalg.norm(offset))
    if norm < 1e-12:
        offset = augmented_identity(n)
        norm = math.sqrt(n)
    return ((n + 1) / 2.0 / norm) * offset + center


def round_and_verify_reference(xbar, g, k):
    """``round_and_verify`` as it was written with a union-find and six
    checks: round a near-integer iterate to 0/1 and verify it encodes a
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

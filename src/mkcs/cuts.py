"""Valid inequalities for the k-colorable-subgraph relaxation:
representation, separation, selection, and clustering."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .graph import HoleEnumeration, extend_clique_greedy


class CutFamily(enum.IntEnum):
    """Cut families; the numeric order is the selection tie-break order."""

    T1 = 0
    CLIQUE_EXT = 1
    CLIQUE_UNION = 2
    HOLE5 = 3
    T2 = 4


@dataclass
class Cut:
    """One linear inequality ``sum_p a_p x_p <= rhs`` over free entries."""

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


def cuts_to_jsonl(cuts):
    """JSON-lines dump of a cut list, for reproducibility audits."""
    return "".join(c.to_json() + "\n" for c in cuts)


@dataclass
class SeparationReport:
    """Violated-cut candidates found by one or more separators."""

    candidates: list = field(default_factory=list)  # (Cut, violation) pairs
    truncated: bool = False

    def add(self, cut, violation):
        self.candidates.append((cut, violation))

    def merge(self, other):
        self.candidates.extend(other.candidates)
        self.truncated = self.truncated or other.truncated
        return self


def _sanitize(X, fmap, k):
    """Force the bordered structure (zero edges, border = diagonal) so that
    matrix arithmetic on entries equals coefficient arithmetic on the
    free-entry vector."""
    return fmap.vec_to_mat(fmap.mat_to_vec(X), k)


def _coeffs(coords, value):
    """Coefficient dict giving ``value`` to each coordinate in order,
    skipping the -1 of edge-pinned entries."""
    return {p: value for p in coords if p >= 0}


def separate_triangle(X, g, fmap, k, min_viol=1e-2, id_base=0):
    """Separate the three-vertex inequalities.

    For every unordered vertex triple, the three role assignments of the
    apex give cuts ``X[i,l] + X[j,l] <= X[l,l] + X[i,j]``; the second
    family ``sum X[ii] <= sum X[ij] + k`` over the triple is emitted only
    for k <= 2 (it is implied by the bound constraints otherwise) and
    never for triangles, where it is implied by the relaxation itself.
    Cuts come apex by apex, each apex's pairs (i, j) in lexicographic
    order, then the second family by lexicographic triple.
    """
    Xs = _sanitize(X, fmap, k)
    n = g.n
    report = SeparationReport()
    next_id = id_base
    diag = np.diagonal(Xs)
    coord = fmap.coord
    pairs = np.triu(np.ones((n + 1, n + 1), dtype=bool), 1)
    pairs[0] = False  # the pairs 1 <= i < j <= n
    for ell in range(1, n + 1):
        col = Xs[:, ell]
        # violation of the apex-ell cut for every pair (i, j)
        viol = col[:, None] + col[None, :] - diag[ell] - Xs
        hit = viol >= min_viol
        hit &= pairs
        hit[ell] = False
        hit[:, ell] = False
        ii, jj = np.nonzero(hit)
        rows = np.stack(
            [coord[ii, ell], coord[jj, ell], coord[ii, jj]], axis=1
        ).tolist()
        d = fmap.diag_coord(ell)
        for (il, jl, ij), v in zip(rows, viol[ii, jj]):
            coeffs = _coeffs((il, jl), 1.0)
            coeffs[d] = -1.0
            if ij >= 0:
                coeffs[ij] = -1.0
            report.add(Cut(next_id, CutFamily.T1, coeffs, 0.0), v)
            next_id += 1
    if k <= 2:
        adj = coord < 0  # edges, and the border, which no triple uses
        for i in range(1, n - 1):
            # v[j, l] for the triple (i, j, l), summed left to right
            row = Xs[i]
            v = (diag[i] + diag[:, None]) + diag[None, :]
            v -= row[:, None]
            v -= row[None, :]
            v -= Xs
            v -= k
            hit = v >= min_viol
            hit &= pairs
            hit[: i + 1] = False  # i < j < l
            hit &= ~(adj[i][:, None] & adj[i][None, :] & adj)  # triangles
            jj, ll = np.nonzero(hit)
            rows = np.stack(
                [fmap.diag_coord(jj), fmap.diag_coord(ll),
                 coord[i, jj], coord[i, ll], coord[jj, ll]], axis=1
            ).tolist()
            for (dj, dl, ij, il, jl), val in zip(rows, v[jj, ll]):
                coeffs = {fmap.diag_coord(i): 1.0, dj: 1.0, dl: 1.0}
                coeffs.update(_coeffs((ij, il, jl), -1.0))
                report.add(Cut(next_id, CutFamily.T2, coeffs, float(k)), val)
                next_id += 1
    return report


def _subset(items, limit, rng):
    """Seeded uniform subset of at most ``limit`` items (a list, or the
    rows of an array), order preserved."""
    if len(items) <= limit:
        return items, False
    chosen = rng.choice(len(items), size=limit, replace=False)
    chosen.sort()
    if isinstance(items, np.ndarray):
        return items[chosen], True
    return [items[i] for i in chosen], True


# Each float64 temporary of one chunk of an array separator stays near
# this many bytes.
_CHUNK_BYTES = 1 << 19


def _chunk_rows(width, per_row=1):
    """Rows per chunk for temporaries of ``width * per_row`` floats a row."""
    return max(1, _CHUNK_BYTES // (8 * width * per_row))


def _padded(Xs):
    """``Xs`` bordered by one more row and column of -0.0: index n + 1
    pads a vertex list, and adding -0.0 leaves every float sum bit for
    bit as it is."""
    order = Xs.shape[0]
    out = np.full((order + 1, order + 1), -0.0)
    out[:order, :order] = Xs
    return out


def _member_array(structures, pad):
    """The sorted vertices of each clique (or vertex collection) as the
    rows of one array, padded with ``pad`` to the largest size, and the
    sizes."""
    sizes = np.fromiter((len(s) for s in structures), dtype=np.intp,
                        count=len(structures))
    width = int(sizes.max(initial=1))
    out = np.full((len(structures), width), pad, dtype=np.intp)
    flat = [v for s in structures for v in sorted(s.vertices)]
    mask = np.arange(width) < sizes[:, None]
    out[mask] = flat
    return out, sizes


def _apex_hits(Xp, members, subtract, min_viol):
    """The pool rows and apexes whose violation
    ``Xp[members[r]].sum(axis=0)[l] - subtract[l]`` is not below
    ``min_viol``, for each apex l in 1..n outside the row, in row-major
    order, with those violations.

    The member rows are added left to right, which is what numpy's
    axis-0 sum does, so each violation is bit for bit that expression.
    As in a loop that skips ``v < min_viol``, a NaN is a hit.
    """
    width = Xp.shape[1]
    step = _chunk_rows(width)
    acc = np.empty((min(step, len(members)), width))
    buf = np.empty_like(acc)
    rows, apexes, viols = [], [], []
    for start in range(0, len(members), step):
        block = members[start:start + step]
        s = acc[: len(block)]
        t = buf[: len(block)]
        np.take(Xp, block[:, 0], axis=0, out=s)
        for col in range(1, block.shape[1]):
            np.take(Xp, block[:, col], axis=0, out=t)
            s += t
        s -= subtract
        hit = ~(s < min_viol)
        hit[:, 0] = False
        hit[:, -1] = False
        np.put_along_axis(hit, block, False, axis=1)
        r, c = np.nonzero(hit)
        rows.append(r + start)
        apexes.append(c)
        viols.append(s[r, c])
    if not rows:
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
    return np.concatenate(rows), np.concatenate(apexes), np.concatenate(viols)


def _clique_external_cut(fmap, clique_vertices, ell, cut_id):
    coeffs = _coeffs(fmap.coord[list(clique_vertices), ell].tolist(), 1.0)
    if not coeffs:
        return None
    coeffs[fmap.diag_coord(ell)] = -1.0
    return Cut(cut_id, CutFamily.CLIQUE_EXT, coeffs, 0.0)


def separate_clique_external(X, g, fmap, cliques, k, min_viol=1e-2,
                             max_cliques=100000, rng=None, id_base=0):
    """Separate ``sum_{i in Q} X[i,l] <= X[l,l]`` over the enumerated
    cliques and every external vertex.

    When the clique pool exceeds ``max_cliques`` a seeded uniform subset
    is drawn.  A violated cut on a non-maximal size-6 clique is first
    strengthened by greedy extension before being reported.  The
    violations of a chunk of cliques are computed at once; cuts are built
    clique by clique, apex by apex.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    Xs = _sanitize(X, fmap, k)
    xvec = fmap.mat_to_vec(Xs)
    report = SeparationReport()
    pool = cliques.all_cliques() if hasattr(cliques, "all_cliques") else list(cliques)
    pool, report.truncated = _subset(pool, max_cliques, rng)
    Xp = _padded(Xs)
    members, _ = _member_array(pool, g.n + 1)
    rows, apexes, _ = _apex_hits(Xp, members, np.diagonal(Xp), min_viol)
    next_id = id_base
    for r, ell in zip(rows.tolist(), apexes.tolist()):
        target = clique = pool[r]
        if len(clique) == 6 and not clique.maximal:
            target = extend_clique_greedy(g, clique, ell, Xs)
        cut = _clique_external_cut(fmap, target.vertices, ell, next_id)
        if cut is None:
            continue
        v = cut.violation(xvec)
        if v >= min_viol:
            report.add(cut, v)
            next_id += 1
    return report


def _distinct_pairs(rng, npool, count):
    """The first ``count`` distinct unordered pairs (a < b) in a seeded
    stream of ``4 * count`` draws, in order of first appearance."""
    draws = rng.integers(0, npool, size=(4 * count, 2))
    lo = draws.min(axis=1)
    hi = draws.max(axis=1)
    proper = np.flatnonzero(lo != hi)
    _, first = np.unique(lo[proper] * npool + hi[proper], return_index=True)
    keep = np.sort(proper[first])[:count]
    return lo[keep], hi[keep]


def separate_clique_union(X, g, fmap, cliques, k, min_viol=1e-2,
                          max_pairs=100000, rng=None, id_base=0):
    """Separate the pairwise clique inequality
    ``sum_Q X[ii] + sum_Q' X[jj] <= sum cross X[ij] + k`` over disjoint
    pairs of maximal cliques whose sizes sum to more than k.

    A chunk of pairs is screened at once with sums that may round
    differently from the per-pair expression.  The screen keeps every
    pair within a margin far wider than that rounding, and the per-pair
    expression then decides and gives the violation.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    Xs = _sanitize(X, fmap, k)
    report = SeparationReport()
    pool = cliques.all_cliques() if hasattr(cliques, "all_cliques") else list(cliques)
    pool = [c for c in pool if c.maximal]
    next_id = id_base
    diag = np.diagonal(Xs)
    npool = len(pool)
    total_pairs = npool * (npool - 1) // 2
    if total_pairs > max_pairs:
        report.truncated = True
        # rejection-sample distinct unordered pairs; generous retry budget
        first, second = _distinct_pairs(rng, npool, max_pairs)
    else:
        first, second = np.triu_indices(npool, 1)
    n = g.n
    members, sizes = _member_array(pool, n + 1)
    large = sizes[first] + sizes[second] > k
    first, second = first[large], second[large]
    Xp = _padded(Xs)
    diag_sums = np.diagonal(Xp)[members].sum(axis=1)
    # screen margin: the two sums differ by far less than 1e-9 * max|term|
    margin = 1e-9 * max(1.0, float(k), float(np.abs(Xs).max()))
    width = members.shape[1]
    step = _chunk_rows(width, width)
    for start in range(0, len(first), step):
        ca = first[start:start + step]
        cb = second[start:start + step]
        ma = members[ca][:, :, None]
        mb = members[cb][:, None, :]
        shared = ((ma == mb) & (ma <= n)).any(axis=(1, 2))
        cross = Xp[ma, mb].sum(axis=(1, 2))
        approx = diag_sums[ca] + diag_sums[cb] - cross - k
        keep = ~shared & ~(approx < min_viol - margin)
        for a, b in zip(ca[keep].tolist(), cb[keep].tolist()):
            va = sorted(pool[a].vertices)
            vb = sorted(pool[b].vertices)
            cross = Xs[np.ix_(va, vb)].sum()
            v = diag[va].sum() + diag[vb].sum() - cross - k
            if v < min_viol:
                continue
            coeffs = {fmap.diag_coord(u): 1.0 for u in va + vb}
            coeffs.update(_coeffs(fmap.coord[va][:, vb].ravel().tolist(), -1.0))
            report.add(Cut(next_id, CutFamily.CLIQUE_UNION, coeffs, float(k)), v)
            next_id += 1
    return report


def separate_odd_hole(X, g, fmap, holes, k, min_viol=1e-2,
                      max_holes=100000, rng=None, id_base=0):
    """Separate ``sum_{i in C} X[i,l] <= 2 X[l,l]`` over 5-holes and
    external vertices.

    ``holes`` is a :class:`HoleEnumeration` or the rows it accepts.  The
    violations of a chunk of holes are computed at once; cuts are built
    hole by hole, apex by apex.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    Xs = _sanitize(X, fmap, k)
    report = SeparationReport()
    if not isinstance(holes, HoleEnumeration):
        holes = HoleEnumeration(holes)
    pool, report.truncated = _subset(holes.holes, max_holes, rng)
    Xp = _padded(Xs)
    rows, apexes, viols = _apex_hits(Xp, pool, 2.0 * np.diagonal(Xp), min_viol)
    coords = fmap.coord[pool[rows], apexes[:, None]].tolist()
    next_id = id_base
    for member_coords, ell, v in zip(coords, apexes.tolist(), viols):
        coeffs = _coeffs(member_coords, 1.0)
        if not coeffs:
            continue
        coeffs[fmap.diag_coord(ell)] = -2.0
        report.add(Cut(next_id, CutFamily.HOLE5, coeffs, 0.0), v)
        next_id += 1
    return report


def select_cuts(report, phase, max_ineq, max_cuts_per_var, existing_keys=()):
    """Pick the cuts to add this round.

    Candidates are sorted by violation descending (ties by family order,
    then id); one is accepted only if every coordinate of its support
    appears in fewer than ``max_cuts_per_var`` cuts already accepted this
    round, up to ``max_ineq`` in total.  Duplicates of existing cuts are
    rejected, and in phase 1 only external-clique cuts are considered.
    """
    existing = set(existing_keys)
    candidates = report.candidates if isinstance(report, SeparationReport) else report
    if phase == 1:
        candidates = [
            (c, v) for c, v in candidates if c.family == CutFamily.CLIQUE_EXT
        ]
    order = sorted(candidates, key=lambda cv: (-cv[1], cv[0].family, cv[0].id))
    accepted = []
    var_load = {}
    seen = set(existing)
    for cut, _viol in order:
        if len(accepted) >= max_ineq:
            break
        key = cut.key()
        if key in seen:
            continue
        if any(var_load.get(p, 0) >= max_cuts_per_var for p in cut.coeffs):
            continue
        accepted.append(cut)
        seen.add(key)
        for p in cut.coeffs:
            var_load[p] = var_load.get(p, 0) + 1
    return accepted


def cluster_cuts(cuts):
    """Partition cuts into clusters of pairwise-disjoint supports.

    Greedy first-fit coloring of the conflict graph, processing cuts in
    descending support size (ties by list position); returns a list of
    index lists into ``cuts``.
    """
    order = sorted(range(len(cuts)), key=lambda i: (-len(cuts[i].coeffs), i))
    clusters = []
    occupied = []  # union of supports per cluster
    for idx in order:
        support = cuts[idx].support
        for cid, taken in enumerate(occupied):
            if not (taken & support):
                clusters[cid].append(idx)
                occupied[cid] = taken | support
                break
        else:
            clusters.append([idx])
            occupied.append(set(support))
    for members in clusters:
        members.sort()
    return clusters

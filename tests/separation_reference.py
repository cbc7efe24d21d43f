"""Reference separators: the four cut separators as they were written
before their array rewrite, one Python loop per pool entry and apex
vertex.  They are kept as the yardstick for ``mkcs.cuts``, whose
separators must return the same candidates: the same order, ids,
families, coefficients and right-hand sides, and the same violation
values bit for bit.  They scan the pools they are given whole, but for
the clique pairs, which stop at ``mkcs.graph.MAX_POOL`` on both sides.  ``Cut`` and the list of candidates they fill
are the reference-side forms kept in ``reference_helpers``.

``assert_same_candidates`` is the comparison.  The reference clique
separators iterate ``Clique`` objects and the reference hole separator
``Hole5`` objects; ``clique_objects`` turns a padded clique pool and
``hole_objects`` an ``(H, 5)`` hole pool into them.
``best_clique_external`` is the yardstick of exactness: the most
violated clique-external cut at each apex over every clique, found by
listing them all.
"""

from __future__ import annotations

import math

import numpy as np

import mkcs.graph
from mkcs.cuts import CutFamily
from reference_helpers import Clique, Cut, CutList as SeparationReport, Hole5


def assert_same_candidates(new, old):
    """The same candidates in the same order: ids, families, coefficients
    (a pool row holds them by coordinate, a reference dict in insertion
    order), right-hand sides, and violations of the same bits; and the
    same truncation flag."""
    assert new.truncated == old.truncated
    pool = new.candidates
    assert len(pool) == len(new.violation) == len(old.candidates)
    assert new.violation.dtype == np.float64
    for r, (row, (ref_cut, ref_viol)) in enumerate(zip(pool.rows(), old.candidates)):
        assert (int(pool.id[r]), CutFamily(pool.family[r]), float(pool.rhs[r])) == (
            ref_cut.id, ref_cut.family, ref_cut.rhs)
        assert list(zip(*row)) == sorted(ref_cut.coeffs.items())
        assert new.violation[r].tobytes() == np.float64(ref_viol).tobytes()


def clique_objects(cliques):
    """``Clique`` objects of the rows of a :class:`CliqueEnumeration`."""
    return [Clique(frozenset(v for v in row if v >= 0)) for row in cliques.members.tolist()]


def hole_objects(holes):
    """``Hole5`` objects of the rows of an ``(H, 5)`` hole pool, with
    plain Python ints as the old enumeration produced them."""
    return [Hole5(tuple(row)) for row in np.asarray(holes).tolist()]


def best_clique_external(X, g, fmap, k):
    """For each apex l, the largest ``sum_{i in Q} X[i,l] - X[l,l]`` over
    the nonempty cliques Q of G - N[l], -inf when there is none: every
    clique, grown one larger vertex at a time, summed in full."""
    Xs = _sanitize(X, fmap, k)

    def cliques(clique, candidates):
        for pos, v in enumerate(candidates):
            yield clique + [v]
            yield from cliques(clique + [v],
                               [u for u in candidates[pos + 1:] if g.has_edge(u, v)])

    best = {}
    for ell in g.vertices:
        outside = [v for v in g.vertices if v != ell and not g.has_edge(v, ell)]
        best[ell] = max((sum(Xs[i, ell] for i in q) - Xs[ell, ell]
                         for q in cliques([], outside)), default=-math.inf)
    return best


def _sanitize(X, fmap, k):
    """Force the bordered structure (zero edges, border = diagonal) so that
    matrix arithmetic on entries equals coefficient arithmetic on the
    free-entry vector."""
    return fmap.vec_to_mat(fmap.mat_to_vec(X), k)


def _pair_coeff(fmap, coeffs, i, j, value):
    """Accumulate a coefficient on the (i, j) entry, dropping edge-pinned
    positions (their entries are identically zero)."""
    if i == j:
        p = fmap.diag_coord(i)
    else:
        p = int(fmap.coord[i, j])
        if p < 0:
            return
    coeffs[p] = coeffs.get(p, 0.0) + value


def separate_triangle(X, g, fmap, k, min_viol=1e-2, id_base=0):
    """Separate the three-vertex inequalities.

    For every unordered vertex triple, the three role assignments of the
    apex give cuts ``X[i,l] + X[j,l] <= X[l,l] + X[i,j]``; the second
    family ``sum X[ii] <= sum X[ij] + k`` over the triple is emitted only
    for k <= 2 (it is implied by the bound constraints otherwise) and
    never for triangles, where it is implied by the relaxation itself.
    """
    Xs = _sanitize(X, fmap, k)
    n = g.n
    report = SeparationReport()
    next_id = id_base
    diag = np.diagonal(Xs)
    emit_t2 = k <= 2
    for ell in range(1, n + 1):
        col = Xs[:, ell]
        # violation of the apex-ell cut for every pair (i, j)
        viol = col[:, None] + col[None, :] - diag[ell] - Xs
        for i in range(1, n):
            row = viol[i]
            for j in range(i + 1, n + 1):
                if i == ell or j == ell:
                    continue
                if row[j] >= min_viol:
                    coeffs = {}
                    _pair_coeff(fmap, coeffs, i, ell, 1.0)
                    _pair_coeff(fmap, coeffs, j, ell, 1.0)
                    _pair_coeff(fmap, coeffs, ell, ell, -1.0)
                    _pair_coeff(fmap, coeffs, i, j, -1.0)
                    coeffs = {p: a for p, a in coeffs.items() if a != 0.0}
                    if coeffs:
                        report.add(Cut(next_id, CutFamily.T1, coeffs, 0.0), row[j])
                        next_id += 1
    if emit_t2:
        for i in range(1, n - 1):
            for j in range(i + 1, n + 1):
                for ell in range(j + 1, n + 1):
                    if g.has_edge(i, j) and g.has_edge(i, ell) and g.has_edge(j, ell):
                        continue
                    v = (
                        diag[i] + diag[j] + diag[ell]
                        - Xs[i, j] - Xs[i, ell] - Xs[j, ell] - k
                    )
                    if v >= min_viol:
                        coeffs = {}
                        for u in (i, j, ell):
                            _pair_coeff(fmap, coeffs, u, u, 1.0)
                        _pair_coeff(fmap, coeffs, i, j, -1.0)
                        _pair_coeff(fmap, coeffs, i, ell, -1.0)
                        _pair_coeff(fmap, coeffs, j, ell, -1.0)
                        report.add(
                            Cut(next_id, CutFamily.T2, coeffs, float(k)), v
                        )
                        next_id += 1
    return report


def _clique_external_cut(fmap, g, clique_vertices, ell, cut_id):
    coeffs = {}
    for i in clique_vertices:
        _pair_coeff(fmap, coeffs, i, ell, 1.0)
    if not coeffs:
        return None
    _pair_coeff(fmap, coeffs, ell, ell, -1.0)
    return Cut(cut_id, CutFamily.CLIQUE_EXT, coeffs, 0.0)


def separate_clique_external(X, g, fmap, cliques, k, min_viol=1e-2, id_base=0):
    """Separate ``sum_{i in Q} X[i,l] <= X[l,l]`` over the enumerated
    cliques and every external vertex, each cut summed over its clique's
    ascending vertices."""
    Xs = _sanitize(X, fmap, k)
    report = SeparationReport()
    next_id = id_base
    diag = np.diagonal(Xs)
    for clique in cliques:
        members = sorted(clique.vertices)
        colsum = Xs[members, :].sum(axis=0)
        viol = colsum - diag
        for ell in range(1, g.n + 1):
            if ell in clique.vertices or viol[ell] < min_viol:
                continue
            cut = _clique_external_cut(fmap, g, members, ell, next_id)
            if cut is not None:
                report.add(cut, viol[ell])
                next_id += 1
    return report


def separate_clique_union(X, g, fmap, cliques, k, min_viol=1e-2, id_base=0):
    """Separate the pairwise clique inequality
    ``sum_Q X[ii] + sum_Q' X[jj] <= sum cross X[ij] + k`` over disjoint
    pairs of the enumerated (maximal) cliques whose sizes sum to more
    than k: the pairs among the leading cliques, as many as have at most
    ``MAX_POOL`` pairs."""
    Xs = _sanitize(X, fmap, k)
    report = SeparationReport()
    pool = list(cliques)
    next_id = id_base
    diag = np.diagonal(Xs)
    npool = 0
    while npool < len(pool) and (npool + 1) * npool // 2 <= mkcs.graph.MAX_POOL:
        npool += 1
    report.truncated = npool < len(pool)
    pairs = [(a, b) for a in range(npool) for b in range(a + 1, npool)]
    for a, b in pairs:
        qa, qb = pool[a], pool[b]
        if qa.vertices & qb.vertices:
            continue
        if len(qa) + len(qb) <= k:
            continue
        va = sorted(qa.vertices)
        vb = sorted(qb.vertices)
        cross = Xs[np.ix_(va, vb)].sum()
        v = diag[va].sum() + diag[vb].sum() - cross - k
        if v < min_viol:
            continue
        coeffs = {}
        for u in va + vb:
            _pair_coeff(fmap, coeffs, u, u, 1.0)
        for i in va:
            for j in vb:
                _pair_coeff(fmap, coeffs, i, j, -1.0)
        report.add(Cut(next_id, CutFamily.CLIQUE_UNION, coeffs, float(k)), v)
        next_id += 1
    return report


def separate_odd_hole(X, g, fmap, holes, k, min_viol=1e-2, id_base=0):
    """Separate ``sum_{i in C} X[i,l] <= 2 X[l,l]`` over 5-holes and
    external vertices."""
    Xs = _sanitize(X, fmap, k)
    report = SeparationReport()
    pool = holes.holes if hasattr(holes, "holes") else list(holes)
    next_id = id_base
    diag = np.diagonal(Xs)
    for hole in pool:
        members = list(hole.vertices)
        colsum = Xs[members, :].sum(axis=0)
        viol = colsum - 2.0 * diag
        for ell in range(1, g.n + 1):
            if ell in hole.vertices or viol[ell] < min_viol:
                continue
            coeffs = {}
            for i in members:
                _pair_coeff(fmap, coeffs, i, ell, 1.0)
            if not coeffs:
                continue
            _pair_coeff(fmap, coeffs, ell, ell, -2.0)
            report.add(Cut(next_id, CutFamily.HOLE5, coeffs, 0.0), viol[ell])
            next_id += 1
    return report

import json

import numpy as np
import pytest

from bench_instances import complete_graph, cycle_graph
import separation_reference as ref
from reference_helpers import (
    Clique,
    Cut,
    Hole5,
    candidate_pairs,
    enumerate_Dnk,
    kappa_rank,
    pool_of,
    random_graph,
)
from reference_helpers import enumerate_cliques as reference_cliques
from mkcs.cli import _cut_rows, _jsonl
from mkcs.cuts import (
    CutFamily,
    CutPool,
    cluster_cuts,
    select_cuts,
    separate_clique_external,
    separate_clique_union,
    separate_odd_hole,
    separate_triangle,
    SeparationReport,
)
from mkcs.graph import (
    CliqueEnumeration,
    Graph,
    HoleEnumeration,
    enumerate_5holes,
    enumerate_cliques,
    extend_clique_greedy,
)
import mkcs.graph
from mkcs.linalg import FreeIndexMap
from mkcs.projection import ClusteredCuts, dykstra


def family_count(rep, family):
    return int((rep.candidates.family == family).sum())


def integer_vec(fmap, mat):
    """Free-entry vector of an exact 0/1 matrix (0-indexed)."""
    x = np.zeros(fmap.m)
    for i in range(1, fmap.n + 1):
        x[fmap.diag_coord(i)] = mat[i - 1, i - 1]
    for pos, (r, c) in enumerate(zip(fmap.pair_rows, fmap.pair_cols)):
        x[fmap.n + pos] = mat[r - 1, c - 1]
    return x


def coloring_matrix(g, assignment):
    """Bordered matrix of a (valid) partial coloring."""
    n = g.n
    x = np.zeros((n + 1, n + 1))
    for v, c in assignment.items():
        x[v, v] = 1.0
        x[0, v] = x[v, 0] = 1.0
        for u, cu in assignment.items():
            if u != v and cu == c:
                x[u, v] = x[v, u] = 1.0
    return x


def all_candidates(g, fmap, k, X, min_viol=1e-9):
    ce = enumerate_cliques(g)
    he = enumerate_5holes(g)
    cands = []
    cands += candidate_pairs(separate_triangle(X, g, fmap, k, min_viol))
    cands += candidate_pairs(separate_clique_external(X, g, fmap, ce, k, min_viol))
    cands += candidate_pairs(separate_clique_union(X, g, fmap, ce, k, min_viol))
    cands += candidate_pairs(separate_odd_hole(X, g, fmap, he, k, min_viol))
    return cands


class TestKappaRank:
    def test_clique_formula(self):
        assert kappa_rank(Clique(frozenset(range(4))), 2) == 2
        assert kappa_rank(Clique(frozenset(range(4))), 7) == 4

    def test_hole_formula(self):
        hole = Hole5((1, 2, 3, 4, 5))
        assert kappa_rank(hole, 1) == 2
        assert kappa_rank(hole, 2) == 4
        assert kappa_rank(hole, 3) == 5

    def test_zero_colors(self):
        assert kappa_rank(Clique(frozenset({1, 2})), 0) == 0
        assert kappa_rank(Hole5((1, 2, 3, 4, 5)), 0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kappa_rank(Clique(frozenset({1})), -1)


class TestSeparateTriangle:
    def test_identity_pattern_clean(self):
        g = Graph(4, [])
        fmap = FreeIndexMap(g)
        x = np.zeros(fmap.m)
        x[: g.n] = 1.0
        X = fmap.vec_to_mat(x, 2)
        rep = separate_triangle(X, g, fmap, 2)
        assert family_count(rep, CutFamily.T1) == 0

    def test_pair_apex_violation(self):
        g = Graph(3, [])
        fmap = FreeIndexMap(g)
        X = np.zeros((4, 4))
        X[1, 3] = X[3, 1] = 0.8
        X[2, 3] = X[3, 2] = 0.8
        X[3, 3] = X[0, 3] = X[3, 0] = 1.0
        X[1, 2] = X[2, 1] = 0.2
        rep = separate_triangle(X, g, fmap, 3)
        viols = rep.violation[rep.candidates.family == CutFamily.T1]
        assert max(viols) == pytest.approx(0.4)

    def test_three_set_cut_for_one_color(self):
        g = Graph(3, [])
        fmap = FreeIndexMap(g)
        x = np.zeros(fmap.m)
        x[: g.n] = 0.7
        X = fmap.vec_to_mat(x, 1)
        rep = separate_triangle(X, g, fmap, 1)
        t2 = rep.violation[rep.candidates.family == CutFamily.T2]
        assert len(t2) and max(t2) == pytest.approx(1.1)

    def test_three_set_family_suppressed_above_two_colors(self):
        g = Graph(3, [])
        fmap = FreeIndexMap(g)
        x = np.ones(FreeIndexMap(g).m)
        X = fmap.vec_to_mat(x, 3)
        rep = separate_triangle(X, g, fmap, 3, min_viol=1e-9)
        assert family_count(rep, CutFamily.T2) == 0

    def test_triangle_three_sets_skipped(self):
        g = complete_graph(3)
        fmap = FreeIndexMap(g)
        x = np.ones(fmap.m)
        X = fmap.vec_to_mat(x, 1)
        rep = separate_triangle(X, g, fmap, 1, min_viol=1e-9)
        assert family_count(rep, CutFamily.T2) == 0

    def test_edge_terms_dropped_from_support(self):
        g = Graph(3, [(1, 2)])
        fmap = FreeIndexMap(g)
        x = np.ones(fmap.m)
        X = fmap.vec_to_mat(x, 3)
        for cut, _ in candidate_pairs(separate_triangle(X, g, fmap, 3, 1e-9)):
            assert all(p < fmap.m for p in cut.coeffs)
            # no coefficient may reference the edge {1,2}
            assert all(
                (r, c) != (1, 2)
                for r, c in [
                    (fmap.pair_rows[p - g.n], fmap.pair_cols[p - g.n])
                    for p in cut.coeffs
                    if p >= g.n
                ]
            )


class TestSeparateCliqueExternal:
    def test_edge_clique_violation(self):
        g = Graph(3, [(1, 2)])
        fmap = FreeIndexMap(g)
        X = np.zeros((4, 4))
        X[1, 3] = X[3, 1] = 0.6
        X[2, 3] = X[3, 2] = 0.6
        X[3, 3] = X[0, 3] = X[3, 0] = 1.0
        rep = separate_clique_external(
            X, g, fmap, enumerate_cliques(g), 2, min_viol=1e-3
        )
        assert len(rep.candidates)
        assert rep.violation.max() == pytest.approx(0.2)

    def test_feasible_coloring_produces_nothing(self):
        g = cycle_graph(5)
        fmap = FreeIndexMap(g)
        X = coloring_matrix(g, {1: 1, 3: 1, 2: 2, 4: 2})
        rep = separate_clique_external(X, g, fmap, enumerate_cliques(g), 2)
        assert not len(rep.candidates)

    def test_six_clique_extension_strengthens(self):
        # K7: the non-maximal 6-cliques extend to the full K7 minus the
        # external vertex, so every reported cut has 6 support pairs
        g = complete_graph(7)
        # add an external vertex 8 joined to nothing
        g = Graph(8, list(g.edges))
        fmap = FreeIndexMap(g)
        x = np.ones(fmap.m)
        X = fmap.vec_to_mat(x, 2)
        rep = separate_clique_external(X, g, fmap, enumerate_cliques(g), 2, 1e-9)
        assert len(rep.candidates)
        # 7 clique pairs + the apex diagonal
        assert (np.diff(rep.candidates.indptr) == 8).all()


class TestSeparateCliqueUnion:
    def test_two_disjoint_edges(self):
        g = Graph(4, [(1, 2), (3, 4)])
        fmap = FreeIndexMap(g)
        X = np.zeros((5, 5))
        for v in range(1, 5):
            X[v, v] = X[0, v] = X[v, 0] = 0.75
        rep = separate_clique_union(X, g, fmap, enumerate_cliques(g), 1)
        assert rep.violation.max() == pytest.approx(2.0)

    def test_small_pairs_skipped(self):
        g = Graph(4, [(1, 2), (3, 4)])
        fmap = FreeIndexMap(g)
        x = np.ones(fmap.m)
        X = fmap.vec_to_mat(x, 4)
        rep = separate_clique_union(X, g, fmap, enumerate_cliques(g), 4, 1e-9)
        assert not len(rep.candidates)  # |Q| + |Q'| = 4 <= k

    def test_feasible_coloring_produces_nothing(self):
        g = Graph(4, [(1, 2), (3, 4)])
        fmap = FreeIndexMap(g)
        X = coloring_matrix(g, {1: 1, 3: 1, 2: 2, 4: 2})
        rep = separate_clique_union(X, g, fmap, enumerate_cliques(g), 2)
        assert not len(rep.candidates)


def planted_cliques(seed):
    """Disjoint cliques of 2 to 6 vertices joined by a few random edges:
    maximal cliques of every size from 2 to 6."""
    rng = np.random.default_rng([21, seed])
    edges, blocks, first = [], [], 1
    for size in range(2, 7):
        blocks.append(list(range(first, first + size)))
        edges += [(u, v) for u in blocks[-1] for v in blocks[-1] if u < v]
        first += size
    for _ in range(6):
        a, b = rng.choice(len(blocks), 2, replace=False)
        edges.append((int(rng.choice(blocks[a])), int(rng.choice(blocks[b]))))
    return Graph(first - 1, edges), blocks


class TestCliquePairPass:
    """Every group of clique sizes of the pair pass against the per-pair
    loop of ``tests/separation_reference.py``: the same candidates and
    violation bytes."""

    @staticmethod
    def compare(X, g, fmap, ce, k, min_viol):
        got = separate_clique_union(X, g, fmap, ce, k, min_viol, 5)
        ref.assert_same_candidates(got, ref.separate_clique_union(
            X, g, fmap, ref.clique_objects(ce), k, min_viol, 5))
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_every_size_pair(self, seed):
        g, _ = planted_cliques(seed)
        fmap = FreeIndexMap(g)
        ce = enumerate_cliques(g)
        sizes = (ce.members[ce.maximal] >= 0).sum(axis=1)
        assert set(sizes.tolist()) == {2, 3, 4, 5, 6}
        rng = np.random.default_rng([22, seed])
        for k in range(1, 6):
            for X in reference_iterates(g, fmap, k, rng):
                for min_viol in (1e-2, 0.0):
                    self.compare(X, g, fmap, ce, k, min_viol)
            # above k = 1 the size filter drops some pairs, never all
            X = fmap.vec_to_mat(np.ones(fmap.m), k)
            assert 0 < len(self.compare(X, g, fmap, ce, k, -np.inf).candidates)

    @pytest.mark.parametrize("seed", range(2))
    def test_violation_equal_to_min_viol(self, seed):
        g, _ = planted_cliques(seed)
        fmap = FreeIndexMap(g)
        ce = enumerate_cliques(g)
        rng = np.random.default_rng([23, seed])
        X = fmap.vec_to_mat(rng.uniform(0, 1, fmap.m), 2)
        values = sorted(set(self.compare(X, g, fmap, ce, 2, -np.inf).violation.tolist()))
        assert len(values) > 10
        for min_viol in values[:: len(values) // 10]:
            assert min_viol in self.compare(X, g, fmap, ce, 2, min_viol).violation

    def test_nan_entry_stays_a_hit(self):
        g, blocks = planted_cliques(0)
        fmap = FreeIndexMap(g)
        ce = enumerate_cliques(g)
        X = fmap.vec_to_mat(np.full(fmap.m, 0.5), 3)
        u, v = blocks[3][0], blocks[4][0]  # a non-edge between the 5- and 6-cliques
        assert v not in g.adj[u]
        X[u, v] = X[v, u] = np.nan
        got = self.compare(X, g, fmap, ce, 3, 1e-2)
        assert np.isnan(got.violation).any()


class TestSeparateOddHole:
    def test_hole_with_external_apex(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        fmap = FreeIndexMap(g)
        X = np.zeros((7, 7))
        for v in range(1, 6):
            X[v, 6] = X[6, v] = 0.5
        X[6, 6] = X[0, 6] = X[6, 0] = 1.0
        rep = separate_odd_hole(X, g, fmap, enumerate_5holes(g), 2)
        assert rep.violation.max() == pytest.approx(0.5)

    def test_zero_apex_no_violation(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        fmap = FreeIndexMap(g)
        X = np.zeros((7, 7))
        rep = separate_odd_hole(X, g, fmap, enumerate_5holes(g), 2)
        assert not len(rep.candidates)

    def test_feasible_coloring_produces_nothing(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        fmap = FreeIndexMap(g)
        X = coloring_matrix(g, {1: 1, 3: 1, 2: 2, 4: 2, 6: 1})
        rep = separate_odd_hole(X, g, fmap, enumerate_5holes(g), 2)
        assert not len(rep.candidates)


def reference_iterates(g, fmap, k, rng):
    """Iterates for the reference comparison: inside the box, an
    adversarial unstructured matrix, all ones, a near-colouring with
    signed zeros, and one with a NaN entry."""
    n = g.n
    colours = {}
    for v in rng.permutation(np.arange(1, n + 1)).tolist():
        used = {colours[u] for u in g.neighbors(v) if u in colours}
        free = [c for c in range(k) if c not in used]
        if free:
            colours[v] = free[0]
    near = coloring_matrix(g, colours)
    near += rng.uniform(-0.05, 0.05, near.shape)
    near[np.abs(near) < 0.01] = -0.0
    nan = fmap.vec_to_mat(rng.uniform(0, 1, fmap.m), k)
    nan[1, 2] = nan[2, 1] = np.nan
    return [
        fmap.vec_to_mat(rng.uniform(0, 1, fmap.m), k),
        rng.normal(0.3, 1.0, (n + 1, n + 1)),
        fmap.vec_to_mat(np.ones(fmap.m), k),
        near,
        nan,
    ]


class TestSeparatorsMatchReference:
    """The array separators return exactly the candidates of the loop
    separators kept in ``tests/separation_reference.py``."""

    @staticmethod
    def compare(X, g, fmap, ce, he, k, min_viol):
        ref.assert_same_candidates(
            separate_triangle(X, g, fmap, k, min_viol, 7),
            ref.separate_triangle(X, g, fmap, k, min_viol, 7),
        )
        truncated = False
        for new, old, pool in (
            (separate_clique_external, ref.separate_clique_external, ce),
            (separate_clique_union, ref.separate_clique_union, ce),
            (separate_odd_hole, ref.separate_odd_hole, he),
        ):
            ref_pool = (ref.hole_objects(pool.holes) if pool is he
                        else ref.clique_objects(pool))
            got = new(X, g, fmap, pool, k, min_viol, 11)
            ref.assert_same_candidates(got, old(X, g, fmap, ref_pool, k, min_viol, 11))
            truncated |= got.truncated
        return truncated

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng([7, seed])
        n = int(rng.integers(6, 15))
        g = random_graph(n, [0.3, 0.5, 0.7][seed % 3], 500 + seed)
        fmap = FreeIndexMap(g)
        ce = enumerate_cliques(g)
        he = enumerate_5holes(g)
        for k in (1, 2, 3, 5):
            for X in reference_iterates(g, fmap, k, rng):
                for min_viol in (1e-2, 1e-9, 0.0):
                    self.compare(X, g, fmap, ce, he, k, min_viol)

    @pytest.mark.parametrize("seed", range(4))
    def test_truncated_pools(self, seed, monkeypatch):
        # each pool stops at MAX_POOL rows in the order found, and the
        # clique pairs are those of the first four maximal cliques (six
        # pairs), the reference's own count
        g = random_graph(14, 0.5, 900 + seed)
        fmap = FreeIndexMap(g)
        full_ce = reference_cliques(g)
        full_he = enumerate_5holes(g)
        monkeypatch.setattr(mkcs.graph, "MAX_POOL", 6)
        ce = enumerate_cliques(g)
        he = enumerate_5holes(g)
        assert not ce.complete and not he.complete
        assert len(ce.members) == len(ce.maximal) == len(he.holes) == 6
        capped = reference_cliques(g)
        assert ref.clique_objects(ce) == capped.all_cliques()
        assert capped.maximal == full_ce.maximal[: len(capped.maximal)]
        assert capped.size6 == full_ce.size6[: len(capped.size6)]
        assert he.holes.tolist() == full_he.holes[:6].tolist()
        rng = np.random.default_rng([8, seed])
        for k in (2, 3):
            for X in reference_iterates(g, fmap, k, rng):
                for min_viol in (1e-2, 0.0):
                    assert self.compare(X, g, fmap, ce, he, k, min_viol)

    @pytest.mark.parametrize("seed", range(4))
    def test_threshold_at_a_candidate_violation(self, seed):
        # min_viol equal to a reference violation keeps that candidate,
        # however the array code's own sums round around it
        rng = np.random.default_rng([9, seed])
        g = random_graph(12, 0.4, 700 + seed)
        fmap = FreeIndexMap(g)
        ce = enumerate_cliques(g)
        he = enumerate_5holes(g)
        k = 2
        for X in reference_iterates(g, fmap, k, rng)[:2]:
            found = ref.separate_triangle(X, g, fmap, k, 0.0).candidates
            for old, pool in ((ref.separate_clique_external, ref.clique_objects(ce)),
                              (ref.separate_clique_union, ref.clique_objects(ce)),
                              (ref.separate_odd_hole, ref.hole_objects(he.holes))):
                found += old(X, g, fmap, pool, k, 0.0).candidates
            values = sorted({float(v) for _, v in found})
            assert len(values) > 20
            for min_viol in values[:: len(values) // 20]:
                self.compare(X, g, fmap, ce, he, k, min_viol)

    @pytest.mark.parametrize("cap, cliques", [(2, 2), (3, 3), (5, 3), (6, 4), (15, 6)])
    def test_clique_pairs_of_a_prefix(self, monkeypatch, cap, cliques):
        # six disjoint edges, every pair violated by 3: the pairs are those
        # of the most leading cliques whose pairs fit in MAX_POOL
        g = Graph(12, [(2 * i + 1, 2 * i + 2) for i in range(6)])
        fmap = FreeIndexMap(g)
        ce = enumerate_cliques(g)
        x = np.zeros(fmap.m)
        x[: g.n] = 1.0
        X = fmap.vec_to_mat(x, 1)
        monkeypatch.setattr(mkcs.graph, "MAX_POOL", cap)
        got = separate_clique_union(X, g, fmap, ce, 1, 0.0)
        assert got.truncated == (cliques < 6)
        assert len(got.candidates) == cliques * (cliques - 1) // 2
        ref.assert_same_candidates(
            got, ref.separate_clique_union(X, g, fmap, ref.clique_objects(ce), 1, 0.0))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_empty_pools(self, k):
        g = cycle_graph(6)
        fmap = FreeIndexMap(g)
        X = fmap.vec_to_mat(np.ones(fmap.m), k)
        cliques = CliqueEnumeration()
        for new, old in ((separate_clique_external, ref.separate_clique_external),
                         (separate_clique_union, ref.separate_clique_union)):
            got = new(X, g, fmap, cliques, k, 0.0)
            assert not len(got.candidates) and not got.truncated
            ref.assert_same_candidates(
                got, old(X, g, fmap, ref.clique_objects(cliques), k, 0.0))
        for holes in (HoleEnumeration(), enumerate_5holes(g)):
            got = separate_odd_hole(X, g, fmap, holes, k, 0.0)
            assert not len(got.candidates) and not got.truncated

    def test_hole_rows_as_a_list(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        fmap = FreeIndexMap(g)
        X = fmap.vec_to_mat(np.full(fmap.m, 0.5), 2)
        ref.assert_same_candidates(
            separate_odd_hole(X, g, fmap, HoleEnumeration([(1, 2, 3, 4, 5)]), 2, 0.0),
            ref.separate_odd_hole(X, g, fmap, [Hole5((1, 2, 3, 4, 5))], 2, 0.0),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_extension(self, seed):
        g = random_graph(12, 0.6, 300 + seed)
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, (13, 13))
        for clique in ref.clique_objects(enumerate_cliques(g)):
            for ell in g.vertices:
                if ell not in clique.vertices:
                    assert extend_clique_greedy(g, clique.vertices, ell, X) == \
                        ref.extend_clique_greedy(g, clique, ell, X).vertices


class TestCutValidity:
    """Every producible cut must hold on every integer feasible matrix."""

    @pytest.mark.parametrize("seed", range(10))
    def test_adversarial_iterates(self, seed):
        rng = np.random.default_rng([99, seed])
        n = int(rng.integers(4, 8))
        k = int(rng.integers(1, 4))
        g = random_graph(n, float(rng.choice([0.3, 0.5, 0.7])), seed)
        fmap = FreeIndexMap(g)
        mats = enumerate_Dnk(n, k, g)
        vecs = np.array([integer_vec(fmap, m) for m in mats])
        for X in (
            fmap.vec_to_mat(np.ones(fmap.m), k),
            fmap.vec_to_mat(rng.uniform(0, 1, fmap.m), k),
        ):
            for cut, viol in all_candidates(g, fmap, k, X):
                assert viol >= 1e-9
                idx = np.array(sorted(cut.coeffs))
                a = np.array([cut.coeffs[p] for p in idx])
                lhs = vecs[:, idx] @ a
                assert lhs.max() <= cut.rhs + 1e-9, (cut.family, cut.coeffs)

    def test_integer_points_never_separated(self):
        g = cycle_graph(5)
        fmap = FreeIndexMap(g)
        for m in enumerate_Dnk(5, 2, g):
            X = fmap.vec_to_mat(integer_vec(fmap, m), 2)
            assert not all_candidates(g, fmap, 2, X, min_viol=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_reported_violation_consistent_with_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(7, 0.4, seed)
        fmap = FreeIndexMap(g)
        k = 2
        X = fmap.vec_to_mat(rng.uniform(0, 1, fmap.m), k)
        xvec = fmap.mat_to_vec(X)
        min_viol = 0.05
        for cut, viol in all_candidates(g, fmap, k, X, min_viol=min_viol):
            assert viol >= min_viol
            assert viol == pytest.approx(cut.violation(xvec), abs=1e-9)


class TestPropositions:
    def test_subclique_cut_implied(self, rng):
        # a point satisfying the clique cut satisfies it for any subclique
        g = complete_graph(4)
        g = Graph(6, list(g.edges) + [(5, 6)])
        fmap = FreeIndexMap(g)
        mats = enumerate_Dnk(6, 2, g)
        vecs = [integer_vec(fmap, m) for m in mats]
        for _ in range(30):
            weights = rng.random(len(vecs))
            weights /= weights.sum()
            x = np.einsum("i,ij->j", weights, np.array(vecs))
            q = [1, 2, 3, 4]
            ell = 5
            full = sum(x[fmap.coord[i, ell]] for i in q) - x[fmap.diag_coord(ell)]
            assert full <= 1e-9
            for drop in q:
                sub = [i for i in q if i != drop]
                val = sum(x[fmap.coord[i, ell]] for i in sub) - x[fmap.diag_coord(ell)]
                assert val <= full + 1e-9

    @pytest.mark.parametrize("length", [4, 6])
    def test_even_hole_analogue_implied_by_triangle_cuts(self, length, rng):
        # project random points onto the triangle halfspaces used in the
        # proof; the resulting points satisfy the even-hole inequality
        n = length + 1
        ell = n
        edges = [(i, i % length + 1) for i in range(1, length + 1)]
        g = Graph(n, edges)
        fmap = FreeIndexMap(g)
        cuts = []
        for cid, i in enumerate(range(1, length + 1)):
            j = i % length + 1
            coeffs = {
                fmap.coord[i, ell]: 1.0,
                fmap.coord[j, ell]: 1.0,
                fmap.diag_coord(ell): -1.0,
            }
            cuts.append(Cut(cid, CutFamily.T1, coeffs, 0.0))
        pool = pool_of(cuts)
        clustered = ClusteredCuts(pool, cluster_cuts(pool), fmap.weights)
        for _ in range(20):
            x0 = rng.uniform(0, 1, fmap.m)
            res = dykstra(x0, fmap.weights, clustered, eps=1e-8, max_cycles=5000)
            lhs = sum(res.x[fmap.coord[i, ell]] for i in range(1, length + 1))
            rhs = (length / 2) * res.x[fmap.diag_coord(ell)]
            assert lhs <= rhs + 1e-6


def make_cut(cid, support, viol_rank=0, family=CutFamily.T1, rhs=0.0):
    return Cut(cid, family, {p: 1.0 for p in support}, rhs)


def key_semantics_mask(existing, candidates):
    """Which candidates a ``Cut.key()`` dedup keeps: no repeat of an
    existing cut or of an earlier candidate."""
    seen = {c.key() for c in existing}
    keep = []
    for cut in candidates:
        keep.append(cut.key() not in seen)
        seen.add(cut.key())
    return keep


class TestCutPool:
    def test_novel_rows_follow_key_semantics(self):
        existing = [
            Cut(0, CutFamily.CLIQUE_EXT, {4: 1.0, 9: 1.0, 2: -1.0}, 0.0),
            Cut(1, CutFamily.CLIQUE_UNION, {0: 1.0, 1: 1.0, 7: -1.0}, 2.0),
        ]
        candidates = [
            # an existing row with its coefficients in another order, and
            # from another family
            Cut(5, CutFamily.T1, {2: -1.0, 9: 1.0, 4: 1.0}, 0.0),
            # differs from an existing row only in its right-hand side
            Cut(6, CutFamily.CLIQUE_UNION, {7: -1.0, 1: 1.0, 0: 1.0}, 3.0),
            # new, then repeated within the round
            Cut(7, CutFamily.HOLE5, {3: 1.0, 5: -2.0}, 0.0),
            Cut(8, CutFamily.CLIQUE_EXT, {5: -2.0, 3: 1.0}, 0.0),
            # a different coefficient on the same support
            Cut(9, CutFamily.HOLE5, {3: 1.0, 5: -1.0}, 0.0),
        ]
        mask = pool_of(existing).novel(pool_of(candidates))
        assert mask.tolist() == key_semantics_mask(existing, candidates)
        assert mask.tolist() == [False, True, True, False, True]
        assert CutPool().novel(pool_of(candidates)).tolist() == [
            True, True, True, False, True]

    def test_appended_rows_count_as_existing(self):
        pool = pool_of([Cut(0, CutFamily.T1, {1: 1.0}, 0.0)])
        later = pool_of([Cut(1, CutFamily.T1, {2: 1.0}, 0.0)])
        assert pool.novel(later).tolist() == [True]
        pool.append(later)
        assert pool.novel(later).tolist() == [False]
        assert pool.id.tolist() == [0, 1] and pool.indices.tolist() == [1, 2]

    def test_rows_built_from_padded_columns_are_sorted(self):
        # the same inequality with its columns in two orders and a masked
        # entry, as the separators emit them
        pool = CutPool.from_padded([[7, -1, 2, 4], [4, 2, 7, -1]],
                                   [[1.0, 1.0, -1.0, 1.0], [1.0, -1.0, 1.0, 5.0]],
                                   0.0, CutFamily.T1, [0, 1])
        assert pool.rows() == [([2, 4, 7], [-1.0, 1.0, 1.0])] * 2
        assert CutPool().novel(pool).tolist() == [True, False]

    @pytest.mark.parametrize("seed", range(6))
    def test_separator_rows_follow_key_semantics(self, seed):
        # the rows the separators emit, the first half taken as existing,
        # the whole list as one round's candidates
        rng = np.random.default_rng([21, seed])
        g = random_graph(int(rng.integers(6, 12)), 0.4, 40 + seed)
        fmap = FreeIndexMap(g)
        k = 2
        X = fmap.vec_to_mat(rng.uniform(0, 1, fmap.m), k)
        cuts = [cut for cut, _ in all_candidates(g, fmap, k, X, min_viol=0.0)]
        assert len(cuts) > 10
        existing = cuts[: len(cuts) // 2]
        keep = key_semantics_mask(existing, cuts)
        assert pool_of(existing).novel(pool_of(cuts)).tolist() == keep


class TestSelectCuts:
    def _report(self, entries):
        cuts = [cut for cut, _ in entries]
        return SeparationReport(pool_of(cuts), np.array([v for _, v in entries]))

    def test_single_candidate_accepted(self):
        rep = self._report([(make_cut(0, [1, 2], family=CutFamily.CLIQUE_EXT), 0.5)])
        assert len(select_cuts(rep, 10, 5)) == 1

    def test_per_variable_cap(self):
        entries = [
            (make_cut(i, [0, 10 + i], family=CutFamily.CLIQUE_EXT), 1.0 - i * 0.01)
            for i in range(6)
        ]
        out = select_cuts(self._report(entries), 100, 5)
        assert len(out) == 5

    def test_max_ineq_cap(self):
        entries = [
            (make_cut(i, [i], family=CutFamily.CLIQUE_EXT), 1.0) for i in range(10)
        ]
        assert len(select_cuts(self._report(entries), 4, 5)) == 4

    def test_violation_then_family_then_id_order(self):
        a = make_cut(7, [0], family=CutFamily.HOLE5)
        b = make_cut(3, [1], family=CutFamily.T1)
        c = make_cut(1, [2], family=CutFamily.T1)
        out = select_cuts(self._report([(a, 1.0), (b, 1.0), (c, 1.0)]), 2, 5)
        assert out.id.tolist() == [1, 3]

    def test_deterministic(self):
        entries = [
            (make_cut(i, [i % 4, 4 + i % 3], family=CutFamily.CLIQUE_EXT), 1.0)
            for i in range(12)
        ]
        first = select_cuts(self._report(entries), 6, 2).id.tolist()
        second = select_cuts(self._report(entries), 6, 2).id.tolist()
        assert first == second


class TestClusterCuts:
    def test_disjoint_one_cluster(self):
        cuts = [make_cut(0, [0, 1]), make_cut(1, [2, 3])]
        assert cluster_cuts(pool_of(cuts)) == [[0, 1]]

    def test_overlap_two_clusters(self):
        cuts = [make_cut(0, [0, 1]), make_cut(1, [1, 2])]
        assert len(cluster_cuts(pool_of(cuts))) == 2

    def test_star_pattern(self):
        # the center cut overlaps each leaf; leaves are pairwise disjoint
        center = make_cut(0, [0, 1, 2, 3])
        leaves = [make_cut(i, [i - 1, 10 + i]) for i in range(1, 5)]
        clusters = cluster_cuts(pool_of([center] + leaves))
        assert len(clusters) == 2
        assert [0] in clusters and [1, 2, 3, 4] in clusters

    @pytest.mark.parametrize("seed", range(5))
    def test_clusters_have_disjoint_supports(self, seed):
        rng = np.random.default_rng(seed)
        cuts = []
        for cid in range(40):
            sup = rng.choice(30, size=int(rng.integers(1, 6)), replace=False)
            cuts.append(make_cut(cid, [int(s) for s in sup]))
        clusters = cluster_cuts(pool_of(cuts))
        assert sorted(i for cl in clusters for i in cl) == list(range(40))
        for cl in clusters:
            seen = set()
            for i in cl:
                assert not (cuts[i].support & seen)
                seen |= cuts[i].support


def test_jsonl_serialization():
    cuts = [
        Cut(3, CutFamily.CLIQUE_EXT, {5: -1.0, 2: 1.0}, 0.0),
        Cut(4, CutFamily.T2, {0: 1.0}, 2.0),
    ]
    # the cut-pool side file as the CLI writes it
    lines = _jsonl(_cut_rows(pool_of(cuts))).strip().split("\n")
    first = json.loads(lines[0])
    assert first == {
        "id": 3,
        "family": "CLIQUE_EXT",
        "rhs": 0.0,
        "coeffs": [[2, 1.0], [5, -1.0]],
    }
    assert json.loads(lines[1])["family"] == "T2"
    assert [ln + "\n" for ln in lines] == [c.to_json() + "\n" for c in cuts]

import numpy as np
import pytest

from dykstra_reference import ReferenceClusteredCuts, reference_dykstra
from qp_oracle import weighted_projection_oracle
from reference_helpers import (
    Cut,
    affine_box_reference,
    candidate_pairs,
    pool_of,
    project_halfspace_weighted,
    random_graph,
)
from mkcs.cuts import (
    CutFamily,
    CutPool,
    cluster_cuts,
    separate_clique_external,
    separate_clique_union,
    separate_triangle,
)
from mkcs.graph import Graph, enumerate_cliques
from mkcs.linalg import FreeIndexMap
import mkcs.projection
from mkcs.projection import (
    ClusteredCuts,
    _project_cluster,
    dykstra,
    project_affine_set,
    project_box,
)


def make_cut(cid, coeffs, rhs=0.0):
    return Cut(cid, CutFamily.T1, dict(coeffs), rhs)


def project_cluster(clustered, x, gid):
    """In-place simultaneous weighted projection of ``x`` onto every
    halfspace of one cluster, by the kernel of the Dykstra cycle."""
    grp = clustered.groups[gid]
    x[grp.idx] = _project_cluster(grp, x[grp.idx])


def clustered_of(cuts, w, clusters=None):
    """``ClusteredCuts`` of a list of ``Cut``s, clustered by ``cluster_cuts``
    unless ``clusters`` is given."""
    pool = pool_of(cuts)
    return ClusteredCuts(pool, cluster_cuts(pool) if clusters is None else clusters, w)


def _instance_cuts(g, fmap, k, rng):
    x_adv = fmap.vec_to_mat(np.ones(fmap.m), k)
    cands = candidate_pairs(separate_triangle(x_adv, g, fmap, k, 1e-6))
    cands += candidate_pairs(separate_clique_external(
        x_adv, g, fmap, enumerate_cliques(g), k, 1e-6))
    rng.shuffle(cands)
    return [c for c, _ in cands[:3]]


def oracle_instance(seed):
    """``(fmap, k, cuts, rng)`` of a small instance with at most three cuts
    that the QP oracle can check.  Redraws until the instance yields cuts,
    as criterion 7 does, so that every seed checks a cut-constrained
    projection."""
    for attempt in range(50):
        rng = np.random.default_rng([5, seed, attempt] if attempt else [5, seed])
        n = int(rng.integers(3, 7))
        g = random_graph(n, 0.35, seed + 1000 * attempt)
        fmap = FreeIndexMap(g)
        k = int(rng.integers(1, 4))
        cuts = _instance_cuts(g, fmap, k, rng)
        if cuts:
            return fmap, k, cuts, rng
    raise AssertionError("no instance yielded cuts")


def w_dist(w, a, b):
    return float(np.sqrt(np.sum(w * (a - b) ** 2)))


class TestProjectBox:
    def test_interior_untouched(self):
        x = np.array([0.5, 0.2])
        assert np.array_equal(project_box(x), x)

    def test_clamp(self):
        assert np.array_equal(project_box(np.array([-1.0, 2.0])), [0.0, 1.0])

    def test_idempotent(self, rng):
        x = rng.uniform(-2, 3, size=40)
        once = project_box(x)
        assert np.array_equal(project_box(once), once)

    @pytest.mark.parametrize("size", [1, 7, 64, 1001])
    def test_bitwise_equal_to_np_clip(self, rng, size):
        # signed zeros, NaNs and infinities included: the box step of the
        # Dykstra cycle must keep every bit of the np.clip it replaces
        special = [-0.0, 0.0, 1.0, -1e-300, 1.0 + 2e-16, np.inf, -np.inf,
                   np.nan, -np.nan]
        x = rng.uniform(-1.5, 2.5, size=size)
        x[rng.integers(0, size, size=size // 2 + 1)] = rng.choice(
            special, size=size // 2 + 1)
        ref = np.clip(x, 0.0, 1.0)
        assert project_box(x).tobytes() == ref.tobytes()
        out = x.copy()
        assert project_box(out, out=out) is out
        assert out.tobytes() == ref.tobytes()


class TestProjectHalfspaceWeighted:
    def test_feasible_unchanged(self):
        cut = make_cut(0, {0: 1.0, 1: 1.0}, 1.0)
        x = np.array([0.2, 0.3])
        out = project_halfspace_weighted(x, cut, np.array([2.0, 3.0]))
        assert np.array_equal(out, x)

    def test_weighted_kkt_example(self):
        # minimize 2(x1-1)^2 + 3(x2-1)^2 subject to x1 + x2 <= 1
        cut = make_cut(0, {0: 1.0, 1: 1.0}, 1.0)
        out = project_halfspace_weighted(
            np.array([1.0, 1.0]), cut, np.array([2.0, 3.0])
        )
        assert np.allclose(out, [0.4, 0.6])
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_one_dimensional(self):
        cut = make_cut(0, {0: 1.0}, 0.0)
        out = project_halfspace_weighted(np.array([2.0]), cut, np.ones(1))
        assert out[0] == pytest.approx(0.0, abs=1e-12)

    def test_exact_boundary_landing(self, rng):
        w = rng.choice([2.0, 3.0], size=10)
        for _ in range(50):
            sup = rng.choice(10, size=4, replace=False)
            cut = make_cut(
                0,
                {int(p): float(rng.choice([-2.0, -1.0, 1.0])) for p in sup},
                float(rng.normal()),
            )
            x = rng.uniform(-1, 2, size=10)
            out = project_halfspace_weighted(x, cut, w)
            if cut.violation(x) > 0:
                assert abs(cut.violation(out)) < 1e-12
                untouched = [i for i in range(10) if i not in cut.coeffs]
                assert np.array_equal(out[untouched], x[untouched])

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            project_halfspace_weighted(np.zeros(3), make_cut(0, {}), np.ones(3))


class TestDykstra:
    def test_point_in_intersection_unchanged(self):
        cuts = [make_cut(0, {0: 1.0, 1: 1.0}, 1.5)]
        clustered = clustered_of(cuts, np.ones(2), [[0]])
        x0 = np.array([0.25, 0.5])
        res = dykstra(x0, np.ones(2), clustered, eps=1e-10)
        assert np.allclose(res.x, x0, atol=1e-12)
        assert res.feasible

    def test_box_and_halfspace_hand_case(self):
        cuts = [make_cut(0, {0: 1.0, 1: 1.0}, 1.0)]
        clustered = clustered_of(cuts, np.ones(2), [[0]])
        res = dykstra(np.array([1.0, 1.0]), np.ones(2), clustered, eps=1e-10,
                      max_cycles=10000)
        assert np.allclose(res.x, [0.5, 0.5], atol=1e-8)

    def test_cluster_projection_equals_independent_projections(self, rng):
        # disjoint supports inside one cluster: the simultaneous pass must
        # equal projecting onto each halfspace in sequence, bitwise
        w = rng.choice([2.0, 3.0], size=8)
        c1 = make_cut(0, {0: 1.0, 1: 2.0}, 0.4)
        c2 = make_cut(1, {4: 1.0, 5: 1.0}, 0.3)
        joint = clustered_of([c1, c2], w, [[0, 1]])
        for _ in range(20):
            x = rng.uniform(-0.5, 1.5, size=8)
            expected = project_halfspace_weighted(
                project_halfspace_weighted(x.copy(), c1, w), c2, w
            )
            got = x.copy()
            project_cluster(joint, got, 0)
            assert np.array_equal(got, expected)

    def test_joint_and_singleton_clusters_converge_to_same_point(self, rng):
        w = rng.choice([2.0, 3.0], size=8)
        c1 = make_cut(0, {0: 1.0, 1: 2.0}, 0.4)
        c2 = make_cut(1, {4: 1.0, 5: 1.0}, 0.3)
        x0 = rng.uniform(0, 1.5, size=8)
        joint = clustered_of([c1, c2], w, [[0, 1]])
        split = clustered_of([c1, c2], w, [[0], [1]])
        a = dykstra(x0.copy(), w, joint, eps=1e-11, max_cycles=100000)
        b = dykstra(x0.copy(), w, split, eps=1e-11, max_cycles=100000)
        assert a.feasible and b.feasible
        assert np.allclose(a.x, b.x, atol=1e-8)

    def test_singleton_clusters_match_textbook_sequence(self, rng):
        # a cluster per cut must reproduce the same per-set Dykstra path
        w = rng.choice([2.0, 3.0], size=6)
        cuts = [
            make_cut(0, {0: 1.0, 2: 1.0}, 0.6),
            make_cut(1, {2: -1.0, 4: 2.0}, 0.2),
        ]
        x0 = rng.uniform(-0.5, 1.5, size=6)
        grouped = clustered_of(cuts, w, [[0], [1]])
        res = dykstra(x0.copy(), w, grouped, eps=1e-12, max_cycles=100000)
        assert res.feasible

        # textbook reference: box, then each halfspace, with corrections
        x = x0.copy()
        corr = [np.zeros(6) for _ in range(3)]
        for _ in range(res.cycles):
            for i, proj in enumerate(
                [lambda v: project_box(v)]
                + [lambda v, c=c: project_halfspace_weighted(v, c, w) for c in cuts]
            ):
                y = x - corr[i]
                x = proj(y)
                corr[i] = x - y
        assert np.array_equal(res.x, x)

    def test_monotone_weighted_distance_from_start(self, rng):
        # the very first cycle may overshoot before corrections accumulate;
        # from the second cycle on the distance to the start is non-decreasing
        w = rng.choice([2.0, 3.0], size=6)
        cuts = [
            make_cut(0, {0: 1.0, 1: 1.0, 2: 1.0}, 0.8),
            make_cut(1, {3: 1.0, 4: 1.0}, 0.5),
        ]
        clustered = clustered_of(cuts, w)
        x0 = rng.uniform(0.4, 1.4, size=6)
        dists = []
        for cycles in range(2, 14):
            res = dykstra(x0.copy(), w, clustered, eps=0.0, max_cycles=cycles)
            dists.append(np.sum(w * (res.raw - x0) ** 2))
        assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))


class TestClusteredCutsRejectsEmpty:
    """A cut or cluster with no coordinates is refused up front: the
    per-cut sums cannot read an empty row."""

    @pytest.mark.parametrize("indptr", [[0, 1, 1], [0, 0, 1]])
    def test_row_without_coordinates(self, indptr):
        pool = CutPool(indptr=indptr, indices=[0], data=[1.0], rhs=[0.2, 1.0],
                       family=[0, 0], id=[0, 1])
        with pytest.raises(ValueError, match="no coordinates"):
            ClusteredCuts(pool, [[0], [1]], np.ones(2))

    def test_empty_cluster(self):
        pool = CutPool(indptr=[0, 1], indices=[0], data=[1.0], rhs=[0.2],
                       family=[0], id=[0])
        with pytest.raises(ValueError, match="no coordinates"):
            ClusteredCuts(pool, [[0], []], np.ones(2))


class TestProjectAffineSet:
    def test_fixed_point(self):
        g = Graph(3, [(1, 2)])
        fmap = FreeIndexMap(g)
        u = fmap.vec_to_mat(np.array([0.3, 0.7, 0.2, 0.1, 0.6]), 2)
        out = project_affine_set(u, fmap, 2)
        assert np.allclose(out.matrix, u, atol=1e-12)

    def test_clamp_case(self):
        g = Graph(2, [])
        fmap = FreeIndexMap(g)
        out = project_affine_set(np.full((3, 3), 5.0), fmap, 2).matrix
        assert out[0, 0] == 2
        assert np.allclose(out[1:, 1:], 1.0)
        assert np.allclose(out[0, 1:], 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_structure_invariants(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(7, 0.4, seed)
        fmap = FreeIndexMap(g)
        u = rng.normal(size=(8, 8))
        u = (u + u.T) / 2
        out = project_affine_set(u, fmap, 3).matrix
        assert out[0, 0] == 3
        for i, j in g.edges:
            assert out[i, j] == 0.0
        for i in g.vertices:
            assert out[0, i] == out[i, i]
        assert out.min() >= 0.0 and out[1:, 1:].max() <= 1.0

    def test_weighted_optimality_against_box_vertices(self, rng):
        # variational inequality at the projection: <x* - u, v - x*>_w >= 0
        g = random_graph(4, 0.5, 7)
        fmap = FreeIndexMap(g)
        u_vec = rng.uniform(-1, 2, fmap.m)
        out = project_affine_set(fmap.vec_to_mat(u_vec, 2), fmap, 2).matrix
        x = fmap.mat_to_vec(out)
        w = fmap.weights
        for mask in range(1 << fmap.m):
            v = np.array([(mask >> i) & 1 for i in range(fmap.m)], dtype=float)
            assert np.sum(w * (x - u_vec) * (v - x)) >= -1e-9

    def test_cap_out_keeps_box_feasible_and_flags(self):
        g = Graph(4, [])
        fmap = FreeIndexMap(g)
        cuts = [
            make_cut(0, {0: 1.0, 1: 1.0}, 0.3),
            make_cut(1, {1: 1.0, 2: 1.0}, 0.2),
        ]
        clustered = clustered_of(cuts, fmap.weights)
        u = fmap.vec_to_mat(np.ones(fmap.m), 1)
        out = project_affine_set(u, fmap, 1, clustered, eps_dyk=1e-12, max_cycles=1)
        assert not out.feasible
        assert out.matrix[1:, 1:].min() >= 0.0
        assert out.matrix[1:, 1:].max() <= 1.0

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_qp_oracle(self, seed):
        fmap, k, cuts, rng = oracle_instance(seed)
        clustered = clustered_of(cuts, fmap.weights)
        u_vec = rng.uniform(-0.5, 1.5, fmap.m)
        out = project_affine_set(
            fmap.vec_to_mat(u_vec, k), fmap, k, clustered,
            eps_dyk=1e-9, max_cycles=200000,
        )
        ref = weighted_projection_oracle(u_vec, fmap.weights, cuts)
        dist = w_dist(fmap.weights, fmap.mat_to_vec(out.matrix), ref)
        assert dist < 1e-3, dist


def cluster_corrections(clustered, corrections):
    """Dykstra's cut corrections on ``clustered`` as one array per
    cluster."""
    _, cut = corrections
    assert len(cut) == sum(len(grp.idx) for grp in clustered.groups)
    return [cut[span] for span in clustered.spans]


def summed_corrections(box, cluster_idx, per_cluster):
    """The box correction plus each cluster's correction on its
    coordinates ``cluster_idx``, cluster after cluster."""
    total = box.copy()
    for idx, c in zip(cluster_idx, per_cluster, strict=True):
        total[idx] += c
    return total


def correction_sum(clustered, corrections):
    """The sum of Dykstra's ``(box, cut)`` corrections as one vector over
    the free entries."""
    return summed_corrections(corrections[0], [grp.idx for grp in clustered.groups],
                              cluster_corrections(clustered, corrections))


class TestWarmStart:
    """Dykstra started from the corrections of an earlier call on the same
    clustering still computes the projection of its own target."""

    @pytest.mark.parametrize("seed", range(25))
    def test_drifting_targets_match_qp_oracle(self, seed):
        # each affine projection warm-started from the corrections that the
        # last one left on the clustering, as the ADMM sweeps run them
        fmap, k, cuts, rng = oracle_instance(seed)
        clustered = clustered_of(cuts, fmap.weights)
        u_vec = rng.uniform(-0.5, 1.5, fmap.m)
        assert clustered.corrections is None
        for _ in range(8):
            out = project_affine_set(
                fmap.vec_to_mat(u_vec, k), fmap, k, clustered,
                eps_dyk=1e-9, max_cycles=200000,
            )
            assert out.feasible
            ref = weighted_projection_oracle(u_vec, fmap.weights, cuts)
            dist = w_dist(fmap.weights, fmap.mat_to_vec(out.matrix), ref)
            assert dist < 1e-3, dist
            assert clustered.corrections is not None
            u_vec = u_vec + rng.normal(scale=0.05, size=fmap.m)

    @pytest.mark.parametrize("seed", range(25))
    def test_converged_corrections_take_one_cycle(self, seed):
        fmap, _, cuts, rng = oracle_instance(seed)
        w = fmap.weights
        clustered = clustered_of(cuts, w)
        u = rng.uniform(-0.5, 1.5, fmap.m)
        cold = dykstra(u, w, clustered, eps=1e-9, max_cycles=200000)
        again = dykstra(u, w, clustered, eps=1e-9, max_cycles=200000,
                        corrections=cold.corrections)
        assert cold.feasible and again.feasible
        assert again.cycles == 1
        assert w_dist(w, again.x, cold.x) <= 1e-8

    @pytest.mark.parametrize("seed", range(25))
    def test_capped_out_corrections_stay_consistent(self, seed):
        # raw - sum(corrections) = x0 after a cap-out, so the next call
        # may start from them; also when the capped call was warm itself
        fmap, _, cuts, rng = oracle_instance(seed)
        w = fmap.weights
        clustered = clustered_of(cuts, w)
        corrections = None
        for _ in range(3):
            u = rng.uniform(-0.5, 1.5, fmap.m)
            res = dykstra(u, w, clustered, eps=1e-12, max_cycles=1,
                          corrections=corrections)
            assert res.cycles == 1
            np.testing.assert_allclose(
                res.raw - correction_sum(clustered, res.corrections), u,
                rtol=0.0, atol=1e-12)
            assert np.array_equal(res.x, project_box(res.raw))
            corrections = res.corrections

    def test_corrections_of_another_clustering_rejected(self, rng):
        fmap, _, cuts, _ = oracle_instance(0)
        w = fmap.weights
        assert len(cuts) > 1
        pool = pool_of(cuts)
        split = ClusteredCuts(pool, [[i] for i in range(len(cuts))], w)
        u = rng.uniform(-0.5, 1.5, fmap.m)
        res = dykstra(u, w, split, eps=1e-9, max_cycles=200000)
        with pytest.raises(ValueError, match="another clustering"):
            dykstra(u, w, ClusteredCuts(pool, [[0]], w), corrections=res.corrections)

    def test_caller_corrections_left_unchanged(self, rng):
        fmap, _, cuts, _ = oracle_instance(0)
        w = fmap.weights
        clustered = clustered_of(cuts, w)
        first = dykstra(rng.uniform(-0.5, 1.5, fmap.m), w, clustered, eps=1e-9,
                        max_cycles=200000)
        box, cut = (c.copy() for c in first.corrections)
        dykstra(rng.uniform(-0.5, 1.5, fmap.m), w, clustered, eps=1e-9,
                max_cycles=200000, corrections=first.corrections)
        assert np.array_equal(first.corrections[0], box)
        assert np.array_equal(first.corrections[1], cut)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


class TestFusedKernelMatchesReference:
    """The fused cycle against the per-cluster loop it replaced
    (``tests/dykstra_reference.py``): every output bit, cycle count and
    feasibility flag must agree."""

    SETTINGS = [(1e-2, 100), (1e-9, 3000), (0.0, 1), (0.0, 2), (0.0, 3),
                (0.0, 40)]

    @staticmethod
    def _separated_cuts(seed):
        rng = np.random.default_rng([11, seed])
        n = int(rng.integers(5, 10))
        g = random_graph(n, [0.3, 0.5][seed % 2], 700 + seed)
        fmap = FreeIndexMap(g)
        k = int(rng.integers(1, 4))
        x_sep = fmap.vec_to_mat(rng.uniform(0.2, 1.2, fmap.m), k)
        cands = candidate_pairs(separate_triangle(x_sep, g, fmap, k, 1e-6))
        cands += candidate_pairs(separate_clique_external(
            x_sep, g, fmap, enumerate_cliques(g), k, 1e-6, id_base=len(cands)))
        return fmap, [c for c, _ in cands], rng

    @staticmethod
    def _start(fmap, rng):
        x0 = rng.uniform(-0.5, 1.5, fmap.m)
        x0[rng.integers(0, fmap.m, size=3)] = rng.choice([-0.0, 0.0, 1.0], 3)
        return x0

    def _assert_match(self, x0, w, cuts, clusters):
        new = clustered_of(cuts, w, clusters)
        ref = ReferenceClusteredCuts(cuts, clusters, w)
        assert new.max_violation(x0) == ref.max_violation(x0)
        for gid in range(len(clusters)):
            got, want = x0.copy(), x0.copy()
            project_cluster(new, got, gid)
            ref.project_cluster(want, gid)
            assert_same_bits(got, want)
        for eps, cap in self.SETTINGS:
            got = dykstra(x0, w, new, eps=eps, max_cycles=cap)
            want = reference_dykstra(x0, w, ref, eps=eps, max_cycles=cap)
            assert_same_bits(got.x, want.x)
            assert_same_bits(got.raw, want.raw)
            assert (got.cycles, got.feasible) == (want.cycles, want.feasible)

    def _assert_warm_chain_match(self, x0, w, cuts, clusters, rng):
        # a cold call on one clustering, then three, each warm-started
        # from the corrections of the one before, on drifting targets; the
        # reference starts from the same corrections, per cluster
        new = clustered_of(cuts, w, clusters)
        ref = ReferenceClusteredCuts(cuts, clusters, w)
        ref_idx = [grp["idx"] for grp in ref.groups]
        for eps, cap in self.SETTINGS:
            target, corrections = x0, None
            for _ in range(4):
                got = dykstra(target, w, new, eps=eps, max_cycles=cap,
                              corrections=corrections)
                want = reference_dykstra(
                    target, w, ref, eps=eps, max_cycles=cap,
                    corrections=None if corrections is None else
                    (corrections[0], cluster_corrections(new, corrections)))
                assert_same_bits(got.x, want.x)
                assert_same_bits(got.raw, want.raw)
                assert (got.cycles, got.feasible) == (want.cycles, want.feasible)
                assert_same_bits(correction_sum(new, got.corrections),
                                 summed_corrections(want.corrections[0], ref_idx,
                                                    want.corrections[1]))
                corrections = got.corrections
                target = target + rng.normal(scale=0.05, size=len(target))

    @pytest.mark.parametrize("seed", range(12))
    def test_separator_pools(self, seed):
        fmap, cuts, rng = self._separated_cuts(seed)
        assert cuts
        self._assert_match(self._start(fmap, rng), fmap.weights, cuts,
                           cluster_cuts(pool_of(cuts)))

    @pytest.mark.parametrize("seed", range(8))
    def test_warm_started_chains(self, seed):
        fmap, cuts, rng = self._separated_cuts(seed)
        self._assert_warm_chain_match(self._start(fmap, rng), fmap.weights, cuts,
                                      cluster_cuts(pool_of(cuts)), rng)

    @pytest.mark.parametrize("seed", range(6))
    def test_all_inactive_clusters(self, seed):
        # slack copies of real cuts, clustered on their own, are never
        # violated inside the box; mixed in with the active clusters
        fmap, cuts, rng = self._separated_cuts(seed)
        slack = [Cut(len(cuts) + i, c.family, dict(c.coeffs), c.rhs + 50.0)
                 for i, c in enumerate(cuts[:6])]
        pool = cuts + slack
        clusters = cluster_cuts(pool_of(cuts))
        inactive = [[len(cuts) + i] for i in range(len(slack))]
        clusters = inactive[:3] + clusters + inactive[3:]
        x0 = self._start(fmap, rng)
        self._assert_match(x0, fmap.weights, pool, clusters)
        self._assert_warm_chain_match(x0, fmap.weights, pool, clusters, rng)
        self._assert_match(np.clip(x0, 0.0, 1.0), fmap.weights, slack,
                           cluster_cuts(pool_of(slack)))

    @pytest.mark.parametrize("seed", [1, 3])
    def test_long_clique_union_rows(self, seed):
        # rows of 16 and more coefficients, whose dot products may take
        # another summation path than the short rows above
        rng = np.random.default_rng([12, seed])
        g = random_graph(16, 0.6, 800 + seed)
        fmap = FreeIndexMap(g)
        x_sep = fmap.vec_to_mat(rng.uniform(0.2, 1.2, fmap.m), 1)
        cuts = [c for c, _ in candidate_pairs(separate_clique_union(
            x_sep, g, fmap, enumerate_cliques(g), 1, 1e-6))][:60]
        assert sum(len(c.coeffs) >= 16 for c in cuts) >= 5
        self._assert_match(self._start(fmap, rng), fmap.weights, cuts,
                           cluster_cuts(pool_of(cuts)))

    def test_cluster_turning_inactive_drops_its_correction(self):
        # the first cut is violated in cycle 1 only: the second one pulls
        # x1 down, so in cycle 2 the first cluster has a correction but no
        # violation, and the correction must be written back and zeroed
        cuts = [make_cut(0, {0: 1.0, 1: 1.0}, 0.8),
                make_cut(1, {1: 1.0, 2: 1.0}, 0.5)]
        self._assert_match(np.array([-0.2, 0.9, 0.1]), np.full(3, 3.0), cuts,
                           [[0], [1]])


def bordered_with_signed_zeros(rng, order):
    """A random non-symmetric matrix mixing ±0.0, exact box ends and values
    inside and outside [0, 1]."""
    pool = np.array([0.0, -0.0, 1.0, -1e-300, 1.0 + 1e-15, 0.5])
    a = rng.uniform(-0.7, 1.7, size=(order, order))
    mask = rng.random((order, order)) < 0.4
    a[mask] = rng.choice(pool, size=int(mask.sum()))
    return a


class TestCutFreeAffineMatchesReference:
    """The cut-free affine projection through the flat index sets against
    the matrix -> vector -> box -> matrix round trip it replaced
    (``tests/reference_helpers.py``): every output bit must agree."""

    @pytest.mark.parametrize("seed", range(12))
    def test_bitwise(self, seed):
        rng = np.random.default_rng([13, seed])
        n = int(rng.integers(1, 12))
        g = random_graph(n, [0.0, 0.3, 0.6, 1.0][seed % 4], 900 + seed)
        fmap = FreeIndexMap(g)
        k = int(rng.integers(1, n + 1))
        out = np.full((n + 1, n + 1), np.nan)  # a dirty buffer is overwritten whole
        for _ in range(5):
            u = bordered_with_signed_zeros(rng, n + 1)
            ref = affine_box_reference(u, fmap, k)
            assert_same_bits(project_affine_set(u, fmap, k).matrix, ref)
            got = project_affine_set(u, fmap, k, out=out).matrix
            assert got is out
            assert_same_bits(got, ref)

    def test_empty_clustering_takes_the_box_path(self, rng, monkeypatch):
        g = random_graph(6, 0.4, 3)
        fmap = FreeIndexMap(g)
        u = bordered_with_signed_zeros(rng, 7)
        clustered = ClusteredCuts(CutPool(), [], fmap.weights)
        # the box path never calls Dykstra
        monkeypatch.setattr(mkcs.projection, "dykstra", None)
        out = project_affine_set(u, fmap, 2, clustered)
        assert_same_bits(out.matrix, affine_box_reference(u, fmap, 2))
        assert out.feasible

import numpy as np
import pytest
import scipy.linalg

import mkcs.linalg
from mkcs.graph import Graph, random_graph
from mkcs.linalg import (
    FreeIndexMap,
    augmented_identity,
    initial_iterate,
    project_nsd,
    project_psd,
    symmetrize,
)


def random_symmetric(rng, order, scale=1.0):
    a = rng.normal(size=(order, order)) * scale
    return symmetrize(a)


def eigh_reference(a):
    """Independent recomposition through scipy's eigensolver."""
    vals, vecs = scipy.linalg.eigh(a)
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.T


class TestProjectPsd:
    def test_diagonal(self):
        out = project_psd(np.diag([2.0, -3.0]))
        assert np.allclose(out, np.diag([2.0, 0.0]))

    def test_rank_one_split(self):
        out = project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(out, np.full((2, 2), 0.5))

    def test_matches_independent_eigensolver(self, rng):
        for _ in range(20):
            a = random_symmetric(rng, 5, scale=3.0)
            assert np.max(np.abs(project_psd(a) - eigh_reference(a))) < 1e-6

    def test_idempotent(self, rng):
        for _ in range(10):
            a = random_symmetric(rng, 6)
            p = project_psd(a)
            assert np.max(np.abs(project_psd(p) - p)) < 1e-6

    def test_orthogonality(self, rng):
        for _ in range(10):
            a = random_symmetric(rng, 6)
            p = project_psd(a)
            assert abs(np.sum((a - p) * p)) < 1e-6

    def test_eigenvalue_floor(self, rng):
        a = random_symmetric(rng, 8, scale=5.0)
        vals = np.linalg.eigvalsh(project_psd(a))
        assert vals.min() >= -1e-8

    def test_nonfinite_rejected(self):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(ValueError):
            project_psd(a)


def with_positive_eigenvalues(rng, order, count):
    """A random symmetric matrix with ``count`` eigenvalues in [0.5, 3] and
    the others in [-3, -0.5]."""
    q, _ = np.linalg.qr(rng.normal(size=(order, order)))
    vals = np.concatenate([
        rng.uniform(0.5, 3.0, count), -rng.uniform(0.5, 3.0, order - count)
    ])
    return symmetrize((q * vals) @ q.T)


class TestRankHint:
    """``project_psd(a, rank_hint)``: the partial eigensolve below the
    threshold (5 * hint < order), the full one above it."""

    N, K = 47, 4  # a bordered matrix of order N + 1 = 48, k colours
    ORDER = N + 1

    @pytest.fixture
    def paths(self, monkeypatch):
        """Counts the calls of the partial solve."""
        calls = []
        partial = mkcs.linalg._project_psd_positive_part

        def spy(a):
            calls.append(a.shape[0])
            return partial(a)

        monkeypatch.setattr(mkcs.linalg, "_project_psd_positive_part", spy)
        return calls

    @pytest.mark.parametrize("count", [0, 1, K, N, N + 1])
    @pytest.mark.parametrize("hint", [0, 2, 9, 10, ORDER])
    def test_matches_full_projection(self, rng, paths, count, hint):
        for _ in range(3):
            a = with_positive_eigenvalues(rng, self.ORDER, count)
            full = project_psd(a)
            got, rank = project_psd(a, rank_hint=hint)
            assert rank == count
            assert np.max(np.abs(got - full)) < 1e-10
            assert np.array_equal(got, got.T)
        assert len(paths) == (3 if 5 * hint < self.ORDER else 0)

    def test_above_threshold_is_the_full_projection_bit_for_bit(self, rng, paths):
        for count in (3, 20, 48):
            a = with_positive_eigenvalues(rng, self.ORDER, count)
            got, _ = project_psd(a, rank_hint=10)
            assert got.tobytes() == project_psd(a).tobytes()
        assert not paths

    def test_stale_hint(self, rng, paths):
        # the previous rank was 2, the actual one is 40
        a = with_positive_eigenvalues(rng, self.ORDER, 40)
        got, rank = project_psd(a, rank_hint=2)
        assert paths == [self.ORDER] and rank == 40
        assert np.max(np.abs(got - project_psd(a))) < 1e-10

    @pytest.mark.parametrize("hint", [0, ORDER])
    def test_zero_matrix(self, hint):
        got, rank = project_psd(np.zeros((self.ORDER, self.ORDER)), rank_hint=hint)
        assert rank == 0
        assert np.array_equal(got, np.zeros((self.ORDER, self.ORDER)))

    def test_rank_near_a_colouring_matrix(self, paths):
        # a colouring matrix with k classes has rank k; shifted by -0.01 I
        # its other eigenvalues are -0.01, not rounding noise around 0
        x = -0.01 * np.eye(self.ORDER)
        for colour in range(self.K):
            members = np.arange(1 + colour, self.ORDER, self.K)
            x[np.ix_(members, members)] += 1.0
        got, rank = project_psd(x, rank_hint=self.K)
        assert rank == self.K and paths
        assert np.max(np.abs(got - project_psd(x))) < 1e-10

    @pytest.mark.parametrize("hint", [None, 0, ORDER])
    def test_nonfinite_rejected(self, hint):
        a = np.eye(self.ORDER)
        a[0, 1] = a[1, 0] = np.inf
        with pytest.raises(ValueError):
            project_psd(a, rank_hint=hint)

    def test_solver_failure_raises(self, monkeypatch):
        from scipy.linalg import lapack

        def failing(a, **kwargs):
            n = a.shape[0]
            return np.zeros(n), np.zeros((n, n)), 0, None, 3

        monkeypatch.setattr(lapack, "dsyevr", failing)
        with pytest.raises(np.linalg.LinAlgError):
            project_psd(np.eye(self.ORDER), rank_hint=0)


class TestProjectNsd:
    def test_diagonal(self):
        assert np.allclose(project_nsd(np.diag([2.0, -3.0])), np.diag([0.0, -3.0]))

    def test_zero(self):
        assert np.allclose(project_nsd(np.zeros((4, 4))), 0.0)

    def test_moreau_decomposition(self, rng):
        for _ in range(10):
            a = random_symmetric(rng, 6, scale=2.0)
            assert np.max(np.abs(project_psd(a) + project_nsd(a) - a)) < 1e-6

    def test_eigenvalue_ceiling(self, rng):
        a = random_symmetric(rng, 7, scale=4.0)
        assert np.linalg.eigvalsh(project_nsd(a)).max() <= 1e-8


class TestFreeIndexMap:
    @pytest.mark.parametrize("seed", range(5))
    def test_size_formula(self, seed):
        g = random_graph(9, 0.4, seed)
        fmap = FreeIndexMap(g)
        assert fmap.m == g.n + g.n * (g.n - 1) // 2 - g.num_edges

    def test_weights(self):
        g = Graph(3, [(2, 3)])
        fmap = FreeIndexMap(g)
        assert list(fmap.weights) == [3.0, 3.0, 3.0, 2.0, 2.0]
        assert fmap.pair_coord(1, 2) == 3
        assert fmap.pair_coord(3, 1) == 4  # order-insensitive lookup
        with pytest.raises(KeyError):
            fmap.pair_coord(2, 3)  # an edge has no free coordinate

    def test_mat_to_vec_blend(self):
        g = Graph(2, [])
        fmap = FreeIndexMap(g)
        a = np.zeros((3, 3))
        a[1, 1] = 3.0
        assert fmap.mat_to_vec(a)[fmap.diag_coord(1)] == pytest.approx(1.0)
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 3.0
        assert fmap.mat_to_vec(a)[fmap.diag_coord(1)] == pytest.approx(2.0)

    def test_mat_to_vec_constant_diagonal(self, rng):
        g = random_graph(6, 0.5, 0)
        fmap = FreeIndexMap(g)
        a = np.zeros((7, 7))
        c = 0.37
        for i in g.vertices:
            a[i, i] = c
            a[0, i] = a[i, 0] = c
        v = fmap.mat_to_vec(a)
        assert np.allclose(v[: g.n], c)

    def test_vec_to_mat_all_ones_empty_graph(self):
        g = Graph(3, [])
        fmap = FreeIndexMap(g)
        a = fmap.vec_to_mat(np.ones(fmap.m), 2)
        assert a[0, 0] == 2
        assert np.allclose(a[1:, 1:], 1.0)
        assert np.allclose(a[0, 1:], 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed, rng):
        g = random_graph(8, 0.45, seed)
        fmap = FreeIndexMap(g)
        v = rng.uniform(-1, 2, size=fmap.m)
        assert np.allclose(fmap.mat_to_vec(fmap.vec_to_mat(v, 3)), v)

    @pytest.mark.parametrize("seed", range(5))
    def test_structure_invariants(self, seed, rng):
        g = random_graph(8, 0.45, seed)
        fmap = FreeIndexMap(g)
        a = fmap.vec_to_mat(rng.uniform(-1, 2, size=fmap.m), 4)
        assert np.array_equal(a, a.T)
        assert a[0, 0] == 4
        for i, j in g.edges:
            assert a[i, j] == 0.0
        for i in g.vertices:
            assert a[0, i] == a[i, i]


def test_initial_iterate_shape():
    a = initial_iterate(4, 3)
    assert a[0, 0] == 3
    assert np.allclose(a[0, 1:], 1.0)
    assert np.allclose(a[1:, 1:], np.eye(4))
    ibar = augmented_identity(4)
    assert ibar[0, 0] == 0 and np.allclose(ibar[1:, 1:], np.eye(4))

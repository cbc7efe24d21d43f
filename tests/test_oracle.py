import numpy as np
import pytest

from bench_instances import complete_graph, cycle_graph, petersen
from mkcs.graph import Graph
from mkcs.oracle import OracleSizeError, alpha_k_exact, chi_exact
from reference_helpers import enumerate_Dnk, random_graph


class TestAlphaKExact:
    def test_complete_graph(self):
        assert alpha_k_exact(complete_graph(5), 2) == 2

    def test_odd_cycle_two_colors(self):
        assert alpha_k_exact(cycle_graph(5), 2) == 4

    def test_stable_set_case(self):
        # alpha_1 of the Petersen graph is 4
        assert alpha_k_exact(petersen(), 1) == 4

    def test_empty_graph(self):
        assert alpha_k_exact(Graph(6), 1) == 6

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_in_k(self, seed):
        g = random_graph(9, 0.5, seed)
        values = [alpha_k_exact(g, k) for k in range(1, 6)]
        assert values == sorted(values)
        assert values[-1] <= g.n

    def test_initial_lb_does_not_change_result(self):
        g = random_graph(10, 0.5, 3)
        plain = alpha_k_exact(g, 2)
        primed = alpha_k_exact(g, 2, initial_lb=plain - 1)
        assert plain == primed

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            alpha_k_exact(random_graph(16, 0.5, 0), 2)
        assert alpha_k_exact(random_graph(16, 0.5, 0), 2, max_vertices=16) >= 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            alpha_k_exact(complete_graph(3), 0)


class TestChiExact:
    def test_complete(self):
        assert chi_exact(complete_graph(5)) == 5

    def test_odd_cycle(self):
        assert chi_exact(cycle_graph(5)) == 3

    def test_petersen(self):
        assert chi_exact(petersen()) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_alpha_saturates_at_chi(self, seed):
        g = random_graph(8, 0.5, seed)
        chi = chi_exact(g)
        assert alpha_k_exact(g, chi) == g.n
        if chi > 1:
            assert alpha_k_exact(g, chi - 1) < g.n


class TestEnumerateDnk:
    def test_single_vertex(self):
        mats = enumerate_Dnk(1, 1)
        assert sorted(m[0, 0] for m in mats) == [0, 1]

    def test_two_vertices_one_color(self):
        mats = enumerate_Dnk(2, 1)
        assert len(mats) == 4  # empty, e1, e2, both-same-color

    def test_fractional_point_excluded_but_sdp_feasible(self):
        g = Graph(3, [(2, 3)])
        mats = enumerate_Dnk(3, 2, g)
        frac = np.array([[1, 0.5, 0], [0.5, 1, 0], [0, 0, 0]])
        assert not any(np.allclose(m, frac) for m in mats)
        # yet the fractional matrix satisfies every relaxation constraint
        aug = np.zeros((4, 4))
        aug[0, 0] = 2
        aug[1:, 1:] = frac
        aug[0, 1:] = aug[1:, 0] = np.diag(frac)
        assert np.linalg.eigvalsh(aug).min() >= -1e-12
        assert frac.min() >= 0 and np.diag(frac).max() <= 1

    def test_edge_filter(self):
        g = Graph(2, [(1, 2)])
        for m in enumerate_Dnk(2, 2, g):
            assert m[0, 1] == 0

    def test_guard(self):
        with pytest.raises(OracleSizeError):
            enumerate_Dnk(15, 3, limit=2**20)

    @pytest.mark.parametrize("seed", range(4))
    def test_alpha_matches_max_trace(self, seed):
        g = random_graph(6, 0.5, seed)
        k = 2
        mats = enumerate_Dnk(g.n, k, g)
        assert alpha_k_exact(g, k) == max(int(np.trace(m)) for m in mats)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_members_are_low_rank_psd_with_augmented_form(self, k):
        g = random_graph(5, 0.4, 11)
        for m in enumerate_Dnk(g.n, k, g):
            md = m.astype(float)
            vals = np.linalg.eigvalsh(md)
            assert vals.min() >= -1e-9
            assert np.linalg.matrix_rank(md, tol=1e-9) <= k
            aug = np.zeros((g.n + 1, g.n + 1))
            aug[0, 0] = k
            aug[1:, 1:] = md
            aug[0, 1:] = aug[1:, 0] = np.diag(md)
            assert np.linalg.eigvalsh(aug).min() >= -1e-9

    def test_deterministic_order(self):
        a = enumerate_Dnk(4, 2)
        b = enumerate_Dnk(4, 2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

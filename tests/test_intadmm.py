import math

import numpy as np
import pytest

from bench_instances import complete_graph, cycle_graph, myciel_graph
from reference_helpers import project_sphere_reference
from mkcs.cpadmm import AdmmParams, cp_admm
from mkcs.graph import Graph, random_graph
from mkcs.intadmm import (
    Coloring,
    IntAdmmParams,
    int_admm,
    int_trace_to_jsonl,
    integrality_sphere,
    project_sphere,
    round_and_verify,
    sphere_center,
)
from mkcs.linalg import symmetrize
from mkcs.oracle import alpha_k_exact


def coloring_to_matrix(g, assignment, k):
    n = g.n
    x = np.zeros((n + 1, n + 1))
    x[0, 0] = k
    for v, c in assignment.items():
        x[v, v] = x[0, v] = x[v, 0] = 1.0
        for u, cu in assignment.items():
            if u != v and cu == c:
                x[u, v] = 1.0
    return x


class TestProjectSphere:
    def test_idempotent_on_sphere(self, rng):
        n, k = 6, 2
        u = rng.normal(size=(n + 1, n + 1))
        u = symmetrize(u)
        u /= np.linalg.norm(u)
        a = sphere_center(n, k) + ((n + 1) / 2.0) * u
        assert np.allclose(project_sphere(a, k), a, atol=1e-10)

    def test_radius_one_case(self):
        # two vertices... order 2 matrices: radius (n+1)/2 = 1 for n = 1
        c = sphere_center(1, 1)
        a = c.copy()
        a[0, 0] += 2.0
        out = project_sphere(a, 1)
        assert np.linalg.norm(out - c) == pytest.approx(1.0)
        assert out[0, 0] == pytest.approx(c[0, 0] + 1.0)

    def test_radius_condition_bulk(self):
        rng = np.random.default_rng(12345)
        n, k = 5, 3
        for _ in range(1000):
            a = symmetrize(rng.normal(size=(n + 1, n + 1)) * 3)
            out = project_sphere(a, k)
            r = np.linalg.norm(out - sphere_center(n, k))
            assert abs(r - (n + 1) / 2.0) < 1e-9
            assert np.array_equal(out, out.T)

    @pytest.mark.parametrize("seed", range(20))
    def test_fixed_corner_conditions(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 5, 3
        a = symmetrize(rng.normal(size=(n + 1, n + 1)) * 3)
        out = project_sphere(a, k, fix_corner=True)
        assert out[0, 0] == float(k)
        shifted = out - sphere_center(n, k)
        shifted[0, 0] += 0.5
        assert np.linalg.norm(shifted) == pytest.approx(
            math.sqrt((n + 1) ** 2 - 1) / 2.0, abs=1e-9
        )

    def test_center_input_is_deterministic(self):
        n, k = 4, 2
        c = sphere_center(n, k)
        a = project_sphere(c.copy(), k)
        b = project_sphere(c.copy(), k)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a - c) == pytest.approx((n + 1) / 2.0)


class TestProjectSphereMatchesReference:
    """``project_sphere`` with a precomputed sphere and an output buffer
    against the version that rebuilt the center on every call
    (``tests/reference_helpers.py``): every output bit must agree."""

    @staticmethod
    def _same_bits(a, b):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("fix_corner", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise(self, seed, fix_corner):
        rng = np.random.default_rng([17, seed])
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, n + 1))
        sphere = integrality_sphere(n, k, fix_corner)
        for _ in range(5):
            a = symmetrize(rng.normal(size=(n + 1, n + 1)) * 2.0)
            mask = rng.random(a.shape) < 0.3
            a[mask] = rng.choice([0.0, -0.0, 0.5, 1.0], size=int(mask.sum()))
            ref = project_sphere_reference(a, k, fix_corner)
            self._same_bits(project_sphere(a, k, fix_corner), ref)
            self._same_bits(project_sphere(a, k, fix_corner, sphere=sphere), ref)
            buf = np.full_like(a, np.nan)
            got = project_sphere(a, k, fix_corner, sphere=sphere, out=buf)
            assert got is buf
            self._same_bits(got, ref)
            inplace = a.copy()
            project_sphere(inplace, k, fix_corner, sphere=sphere, out=inplace)
            self._same_bits(inplace, ref)

    @pytest.mark.parametrize("fix_corner", [False, True])
    def test_center_input(self, fix_corner):
        n, k = 4, 2
        a = sphere_center(n, k)
        if fix_corner:
            a[0, 0] = -0.0
        ref = project_sphere_reference(a, k, fix_corner)
        sphere = integrality_sphere(n, k, fix_corner)
        self._same_bits(project_sphere(a.copy(), k, fix_corner, sphere, a.copy()), ref)
        inplace = a.copy()
        project_sphere(inplace, k, fix_corner, sphere, out=inplace)
        self._same_bits(inplace, ref)


class TestRoundAndVerify:
    def test_valid_coloring_is_identity(self):
        g = cycle_graph(5)
        assignment = {1: 1, 3: 1, 2: 2, 4: 2}
        x = coloring_to_matrix(g, assignment, 2)
        out = round_and_verify(x, g, 2)
        assert out.feasible
        assert out.coloring.value == 4
        classes = {frozenset(m) for m in out.coloring.color_classes().values()}
        assert classes == {frozenset({1, 3}), frozenset({2, 4})}

    def test_noise_tolerated(self, rng):
        g = cycle_graph(5)
        x = coloring_to_matrix(g, {1: 1, 3: 1, 2: 2, 4: 2}, 2)
        x += rng.uniform(-0.2, 0.2, size=x.shape)
        x = symmetrize(x)
        out = round_and_verify(x, g, 2)
        assert out.feasible and out.coloring.value == 4

    def test_edge_entry_rejected(self):
        g = cycle_graph(5)
        x = coloring_to_matrix(g, {1: 1, 2: 1}, 2)  # adjacent, same color
        out = round_and_verify(x, g, 2)
        assert not out.feasible and out.reason.startswith("a")

    def test_uncolored_support_rejected(self):
        g = Graph(3)
        x = np.zeros((4, 4))
        x[1, 2] = x[2, 1] = 1.0
        x[1, 1] = 1.0  # vertex 2 participates but is uncolored
        out = round_and_verify(x, g, 2)
        assert not out.feasible and out.reason.startswith("c")

    def test_transitivity_rejected(self):
        g = Graph(3)
        x = np.zeros((4, 4))
        for v in (1, 2, 3):
            x[v, v] = 1.0
        x[1, 2] = x[2, 1] = 1.0
        x[2, 3] = x[3, 2] = 1.0  # 1~2, 2~3 but not 1~3
        out = round_and_verify(x, g, 2)
        assert not out.feasible and out.reason.startswith("d")

    def test_class_count_cap(self):
        g = Graph(3)
        x = np.zeros((4, 4))
        for v in (1, 2, 3):
            x[v, v] = 1.0  # three singletons need three colors
        out = round_and_verify(x, g, 2)
        assert not out.feasible and out.reason.startswith("e")

    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_on_random_colorings(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(8, 0.4, seed)
        k = 3
        assignment = {}
        for v in g.vertices:
            options = [
                c
                for c in range(1, k + 1)
                if all(assignment.get(u) != c for u in g.adj[v])
            ]
            if options and rng.random() < 0.8:
                assignment[v] = int(rng.choice(options))
        out = round_and_verify(coloring_to_matrix(g, assignment, k), g, k)
        assert out.feasible
        assert out.coloring.value == len(assignment)


class TestIntAdmm:
    def test_known_ub_early_exit(self):
        g = complete_graph(5)
        res = int_admm(g, 2, known_ub=2.0)
        assert res.value == 2
        assert res.termination == "ub_match"
        assert res.coloring.check(g, 2)

    def test_cycle_reaches_optimum(self):
        g = cycle_graph(5)
        warm = cp_admm(g, 2, AdmmParams()).matrix
        res = int_admm(g, 2, warm=warm, known_ub=4.6)
        assert res.value == 4
        assert res.coloring.check(g, 2)

    def test_runs_without_warm_start(self):
        g = cycle_graph(6)
        res = int_admm(g, 2, known_ub=6.0)
        assert res.value == 6
        assert res.termination in ("ub_match", "complete")

    def test_iteration_cap_respected(self):
        g = random_graph(10, 0.5, 1)
        res = int_admm(g, 2, IntAdmmParams(max_iterations=25))
        assert res.iterations <= 25

    @pytest.mark.parametrize("seed", range(5))
    def test_value_is_sound(self, seed):
        g = random_graph(9, 0.5, seed)
        k = 2
        res = int_admm(g, k, IntAdmmParams(max_iterations=20000))
        assert res.value <= alpha_k_exact(g, k)
        if res.feasible_found:
            assert res.coloring.check(g, k)

    @pytest.mark.parametrize("seed", range(5))
    def test_accepted_matrices_are_low_rank_psd(self, seed):
        # the inner block of any accepted coloring is PSD of rank <= k
        g = random_graph(10, 0.4, seed)
        k = 3
        res = int_admm(g, k, IntAdmmParams(max_iterations=20000))
        if not res.feasible_found:
            pytest.skip("no feasible rounding within the cap")
        x = coloring_to_matrix(g, res.coloring.assignment, k)[1:, 1:]
        vals = np.linalg.eigvalsh(x)
        assert vals.min() >= -1e-9
        assert np.linalg.matrix_rank(x, tol=1e-9) <= k

    def test_beta_floor_respected(self):
        g = cycle_graph(6)
        params = IntAdmmParams(beta0=0.002, beta_decr=0.1, beta_min=0.001,
                               max_iterations=5000)
        res = int_admm(g, 2, params=params)
        assert all(r.beta >= params.beta_min for r in res.records)

    def test_deterministic(self):
        g = random_graph(8, 0.4, 7)
        a = int_admm(g, 2, IntAdmmParams(max_iterations=4000))
        b = int_admm(g, 2, IntAdmmParams(max_iterations=4000))
        assert a.value == b.value and a.iterations == b.iterations
        assert a.coloring.assignment == b.coloring.assignment

    def test_empty_result_reported_distinctly(self):
        g = complete_graph(4)
        res = int_admm(g, 1, IntAdmmParams(max_iterations=3))
        assert not res.feasible_found
        assert res.value == 0
        assert res.coloring.assignment == {}

    def test_trace_jsonl(self):
        import json

        g = cycle_graph(5)
        res = int_admm(g, 2, known_ub=4.9)
        lines = int_trace_to_jsonl(res.records).strip().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert set(rec) == {
            "t", "beta", "primal_res_Y", "primal_res_Z", "converged_event",
            "feasible_value",
        }

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_iterate_ends_the_run(self):
        # beta overflows to inf after a few dozen sweeps, and the iterate
        # turns NaN before any convergence event
        g = myciel_graph(3)
        params = IntAdmmParams(beta_incr=1e10, eps_int=1e-300)
        res = int_admm(g, 2, params)
        assert res.termination == "non_finite"
        assert res.iterations < 100
        assert not res.feasible_found and res.value == 0
        assert res.coloring.check(g, 2)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            IntAdmmParams(beta_incr=1.0)
        with pytest.raises(ValueError):
            IntAdmmParams(beta_decr=1.5)
        with pytest.raises(ValueError):
            IntAdmmParams(beta_min=0.0)


def test_coloring_check_catches_conflicts():
    g = cycle_graph(4)
    good = Coloring({1: 1, 2: 2, 3: 1, 4: 2})
    bad = Coloring({1: 1, 2: 1})
    assert good.check(g, 2)
    assert not bad.check(g, 2)
    assert not good.check(g, 1)  # more classes than colors

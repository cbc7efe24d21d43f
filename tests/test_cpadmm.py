import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from bench_instances import complete_graph, cycle_graph, myciel5, petersen, queen6_6
from reference_helpers import (
    Cut,
    admm_objective,
    candidate_pairs,
    cuts_of,
    dense_linprog_reference,
    pool_of,
    random_graph,
)
from mkcs.cpadmm import (
    AdmmParams,
    SeparationContext,
    cp_admm,
    greedy_lower_bound,
    initial_state,
    inner_admm,
    scipy_linprog_backend,
    valid_upper_bound,
)
import mkcs.cpadmm
import mkcs.graph
from mkcs.cuts import (
    CutFamily,
    CutPool,
    SeparationReport,
    cluster_cuts,
    select_cuts,
    separate_clique_external,
    separate_triangle,
)
from mkcs.cli import chromatic_search, main
from mkcs.graph import Graph, enumerate_5holes, enumerate_cliques, write_dimacs
from mkcs.linalg import FreeIndexMap
from mkcs.oracle import alpha_k_exact
from mkcs.projection import ClusteredCuts, dykstra


def pool_identity(pool):
    """A cut pool's rows with the id and family of each."""
    return pool.row_keys(), pool.id.tolist(), pool.family.tolist()


class TestInnerAdmm:
    def test_complete_graph_analytic_value(self):
        g = complete_graph(5)
        st = initial_state(g, 2)
        inner_admm(st, FreeIndexMap(g), AdmmParams())
        assert admm_objective(st.X) == pytest.approx(2.0, abs=0.01)

    def test_empty_graph_saturates(self):
        g = Graph(5)
        st = initial_state(g, 1)
        inner_admm(st, FreeIndexMap(g), AdmmParams())
        assert admm_objective(st.X) == pytest.approx(5.0, abs=0.01)

    def test_iterate_structure(self):
        g = cycle_graph(5)
        fmap = FreeIndexMap(g)
        st = initial_state(g, 2)
        inner_admm(st, fmap, AdmmParams())
        x = st.X
        assert x[0, 0] == 2
        for i, j in g.edges:
            assert x[i, j] == 0.0
        assert np.linalg.eigvalsh(st.Y).min() >= -1e-8

    def test_tightened_runs_longer_tolerance(self):
        g = cycle_graph(7)
        fmap = FreeIndexMap(g)
        st = initial_state(g, 2)
        inner_admm(st, fmap, AdmmParams())
        loose = admm_objective(st.X)
        inner_admm(st, fmap, AdmmParams(), tightened=True)
        tight = admm_objective(st.X)
        # tightening from a converged state must not move the value much
        assert abs(tight - loose) < 0.05

    @pytest.mark.parametrize("tightened", [False, True])
    def test_past_deadline_stops_after_one_sweep(self, tightened):
        g = random_graph(9, 0.4, 5)
        fmap = FreeIndexMap(g)
        st = initial_state(g, 2)
        iters, stopped = inner_admm(st, fmap, AdmmParams(), tightened=tightened,
                                    deadline=time.monotonic())
        assert (iters, stopped, st.iterations) == (1, False, 1)
        # any dual iterate gives a valid bound
        assert math.floor(valid_upper_bound(st.L, fmap, 2) + 1e-6) >= alpha_k_exact(g, 2)

    def test_probe_can_stop_early(self, monkeypatch):
        monkeypatch.setattr(mkcs.cpadmm, "UB_PROBE_INTERVAL", 1)
        g = Graph(8)
        fmap = FreeIndexMap(g)
        st = initial_state(g, 1)
        calls = []

        def probe(state):
            calls.append(state.iterations)
            return True

        iters, stopped = inner_admm(st, fmap, AdmmParams(), ub_probe=probe)
        assert stopped and iters == 1 and calls == [1]

    def test_dykstra_capouts_logged_once_per_call(self, caplog, monkeypatch):
        import logging

        from mkcs.cuts import cluster_cuts
        from mkcs.projection import ClusteredCuts

        g = Graph(4)
        fmap = FreeIndexMap(g)
        cuts = [
            Cut(0, CutFamily.CLIQUE_EXT,
                {fmap.diag_coord(1): 1.0, fmap.diag_coord(2): 1.0}, 1.0),
            Cut(1, CutFamily.CLIQUE_EXT,
                {fmap.diag_coord(2): 1.0, fmap.diag_coord(3): 1.0}, 1.0),
        ]
        pool = pool_of(cuts)
        clustered = ClusteredCuts(pool, cluster_cuts(pool), fmap.weights)
        monkeypatch.setattr(mkcs.cpadmm, "DYK_MAX_CYCLES", 1)
        monkeypatch.setattr(mkcs.cpadmm, "EPS_DYK", 1e-12)
        params = AdmmParams(max_inner_iter=5)
        with caplog.at_level(logging.WARNING, logger="mkcs.cpadmm"):
            iters, _ = inner_admm(initial_state(g, 1), fmap, params, clustered)
        records = [r for r in caplog.records if "Dykstra cycle cap" in r.message]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert records[0].args[:2] == (iters, iters)
        assert "dyk_max_cycles=1" in records[0].getMessage()

    def test_no_capout_warning_without_capouts(self, caplog):
        import logging

        g = cycle_graph(5)
        with caplog.at_level(logging.WARNING, logger="mkcs.cpadmm"):
            inner_admm(initial_state(g, 2), FreeIndexMap(g), AdmmParams())
        assert not [r for r in caplog.records if "Dykstra" in r.message]

    def test_gamma_validated(self):
        # the dual step converges for step lengths in (0, (1+sqrt(5))/2)
        assert 0.0 < mkcs.cpadmm.GAMMA < (1.0 + math.sqrt(5.0)) / 2.0

    @pytest.mark.parametrize("setting", [
        {"max_inner_iter": 0}, {"max_outer": 0}, {"eps_admm": 0.0},
        {"eps_admm": -1.0}, {"eps_admm": math.inf}, {"eps_admm": math.nan},
        {"min_viol": -1.0}, {"min_viol": math.nan}, {"min_viol": math.inf},
        {"min_ineq": -1.0}, {"min_ineq": math.nan}, {"min_ineq": math.inf},
        {"min_impr": math.nan}, {"max_inner_iter": -1}, {"max_outer": -1},
        {"seed": -1}, {"families": ("CLIQUE_EXT", "HOLE5")}, {"families": (5,)},
    ])
    def test_out_of_range_settings_rejected(self, setting):
        with pytest.raises(ValueError, match=f"{next(iter(setting))} must"):
            AdmmParams(**setting)

    def test_families_become_cut_families(self):
        # a family given by its name used to pass and select no cut: on
        # myciel5 at k = 4 the run ended on min_ineq with none
        params = AdmmParams(families=[1, 3])
        assert params.families == (CutFamily.CLIQUE_EXT, CutFamily.HOLE5)
        assert cp_admm(myciel5(), 4, params).family_counts["HOLE5"] > 0

    def test_smallest_valid_settings_accepted(self):
        params = AdmmParams(max_inner_iter=1, max_outer=1, eps_admm=1e-300, min_viol=0.0,
                            min_ineq=0.0, min_impr=-math.inf, seed=0)
        res = cp_admm(cycle_graph(5), 2, params, lb_hint=-1)
        assert (res.outer_iterations, res.inner_iterations) == (1, 1)


class TestValidUpperBound:
    def test_zero_dual_gives_n(self):
        g = Graph(4, [(1, 2)])
        fmap = FreeIndexMap(g)
        assert valid_upper_bound(np.zeros((5, 5)), fmap, 2) == pytest.approx(4.0)

    def test_negative_identity(self):
        g = Graph(4, [(1, 2)])
        fmap = FreeIndexMap(g)
        got = valid_upper_bound(-np.eye(5), fmap, 3)
        assert got == pytest.approx(3 + 2 * 4)

    @pytest.mark.parametrize("seed", range(8))
    def test_box_mode_matches_vertex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(4, 0.4, seed)
        fmap = FreeIndexMap(g)
        lam = rng.normal(size=(5, 5))
        lam = (lam + lam.T) / 2
        got = valid_upper_bound(lam, fmap, 2)
        from mkcs.linalg import augmented_identity, project_nsd

        c = augmented_identity(4) - project_nsd(lam)
        best = -np.inf
        for bits in itertools.product([0.0, 1.0], repeat=fmap.m):
            xb = fmap.vec_to_mat(np.array(bits), 2)
            best = max(best, float(np.sum(c * xb)))
        assert got == pytest.approx(best, abs=1e-9)

    def test_lp_mode_never_looser_than_box(self, rng):
        g = random_graph(5, 0.3, 2)
        fmap = FreeIndexMap(g)
        lam = rng.normal(size=(6, 6))
        lam = (lam + lam.T) / 2
        cut = Cut(0, CutFamily.CLIQUE_EXT,
                  {fmap.diag_coord(1): 1.0, fmap.diag_coord(2): 1.0}, 1.0)
        pool = pool_of([cut])
        box = valid_upper_bound(lam, fmap, 2, pool)
        _, c = lp_objective(lam, fmap)
        lp = valid_upper_bound(lam, fmap, 2, pool,
                               y=scipy_linprog_backend(c, pool, fmap.m))
        assert lp <= box + 1e-9

    def test_lp_mode_without_backend_falls_back(self):
        g = Graph(3)
        fmap = FreeIndexMap(g)
        cut = Cut(0, CutFamily.T1, {0: 1.0}, 0.5)
        got = valid_upper_bound(np.zeros((4, 4)), fmap, 1, pool_of([cut]))
        assert got == pytest.approx(3.0)

    def test_a_dual_written_in_place_is_projected_again(self, rng):
        # the bound keeps its last projection of lam, which must not
        # outlive a write into lam
        g = random_graph(5, 0.3, 2)
        fmap = FreeIndexMap(g)
        lam = rng.normal(size=(6, 6))
        lam = (lam + lam.T) / 2
        valid_upper_bound(lam, fmap, 2)
        lam *= 3.0
        assert valid_upper_bound(lam, fmap, 2) == valid_upper_bound(lam, FreeIndexMap(g), 2)

    def test_one_eigensolve_per_bound(self, monkeypatch):
        # a bound with cuts polishes its multipliers on the LP objective,
        # then valid_upper_bound reads the same NSD projection
        from bench_instances import myciel5

        counts = {"nsd": 0, "bound": 0}
        nsd, bound = mkcs.cpadmm.project_nsd, mkcs.cpadmm.valid_upper_bound

        def counted_nsd(lam):
            counts["nsd"] += 1
            return nsd(lam)

        def counted_bound(*args):
            counts["bound"] += 1
            return bound(*args)

        monkeypatch.setattr(mkcs.cpadmm, "project_nsd", counted_nsd)
        monkeypatch.setattr(mkcs.cpadmm, "valid_upper_bound", counted_bound)
        res = cp_admm(myciel5(), 4)
        assert len(res.cuts) and counts["bound"] >= 2
        assert counts["nsd"] <= counts["bound"]


def lp_objective(lam, fmap):
    """``(C[0,0], c)`` for ``C`` the bordered identity minus the NSD
    projection of ``lam`` (by the name mkcs.cpadmm calls), and ``c`` the
    LP objective that valid_upper_bound builds from ``C``."""
    from mkcs.linalg import augmented_identity

    c_mat = augmented_identity(fmap.n) - mkcs.cpadmm.project_nsd(lam)
    diag_gain = np.diagonal(c_mat)[1:] + 2.0 * c_mat[0, 1:]
    return c_mat[0, 0], np.concatenate(
        [diag_gain, 2.0 * c_mat[fmap.pair_rows, fmap.pair_cols]])


def dense_cut_system(pool, m):
    a = np.zeros((len(pool), m))
    for row, (idx, coeffs) in enumerate(pool.rows()):
        a[row, idx] = coeffs
    return a, pool.rhs


def dual_lp_bound(c, pool, y, m):
    """``sum((c - A'y)_+) + b'y``, from a dense ``A``."""
    a, b = dense_cut_system(pool, m)
    return float(np.maximum(c - a.T @ y, 0.0).sum() + b @ y)


def vertex_lp_optimum(c, pool, m):
    """``max c.x`` over the box and the cuts, as the best feasible vertex
    among every choice of m active constraints (for tiny m only)."""
    a, b = dense_cut_system(pool, m)
    rows = np.vstack([a, np.eye(m), -np.eye(m)])
    rhs = np.concatenate([b, np.ones(m), np.zeros(m)])
    basis = np.array(list(itertools.combinations(range(len(rows)), m)))
    mats = rows[basis]
    regular = np.abs(np.linalg.det(mats)) > 1e-9
    xs = np.linalg.solve(mats[regular], rhs[basis[regular]][..., None])[..., 0]
    feasible = (xs @ rows.T <= rhs + 1e-9).all(axis=1)
    return float((xs[feasible] @ c).max())


def random_pool(rng, m, count):
    """``count`` random cuts over ``m`` coordinates with the coefficients
    and right-hand sides that the separators emit."""
    cuts = []
    for cid in range(count):
        support = rng.choice(m, size=int(rng.integers(1, min(m, 9) + 1)),
                             replace=False)
        coeffs = rng.choice([1.0, -1.0, -2.0], size=len(support))
        cuts.append(Cut(cid, CutFamily(int(rng.integers(0, 5))),
                        dict(zip(support.tolist(), coeffs.tolist())),
                        float(rng.integers(0, 4))))
    return pool_of(cuts)


def fake_backends(rng):
    """Multiplier sources ``(c, cuts, m) -> y`` that are not LP optima:
    zero, negative, large, and the LP duals plus noise of either sign."""
    return {
        "zero": lambda c, cuts, m: np.zeros(len(cuts)),
        "negative": lambda c, cuts, m: -rng.random(len(cuts)),
        "10x random": lambda c, cuts, m: 10.0 * rng.random(len(cuts)),
        "noisy duals": lambda c, cuts, m: (scipy_linprog_backend(c, cuts, m)
                                          + rng.normal(0.0, 0.1, len(cuts))),
    }


class TestAnyMultipliers:
    """The bound holds for any multipliers."""

    def test_criterion_5_graphs(self, monkeypatch):
        # the dual iterate and cuts of the second round of a short solve
        # on each graph of acceptance criterion 5
        rng = np.random.default_rng(3)
        backends = fake_backends(rng)
        bound = mkcs.cpadmm.valid_upper_bound
        checked = 0
        for case in range(200):
            case_rng = np.random.default_rng([6, case])
            n = int(case_rng.integers(5, 13))
            k = int(case_rng.integers(1, 4))
            g = random_graph(n, [0.3, 0.5, 0.7][case % 3], 2000 + case)
            alpha = alpha_k_exact(g, k)

            def spy(lam, fmap, k, cuts=None, y=None):
                nonlocal checked
                if cuts is not None and len(cuts):
                    _, c = lp_objective(lam, fmap)
                    for name, fake in backends.items():
                        ub = bound(lam, fmap, k, cuts, y=fake(c, cuts, fmap.m))
                        assert ub >= alpha, (case, name, ub, alpha)
                    checked += 1
                return bound(lam, fmap, k, cuts, y)

            monkeypatch.setattr(mkcs.cpadmm, "valid_upper_bound", spy)
            cp_admm(g, k, AdmmParams(seed=case, max_outer=2, min_ineq=1.0,
                                     max_inner_iter=300), lb_hint=-1)
        assert checked >= 40

    @pytest.mark.parametrize("seed", range(12))
    def test_tiny_lp_against_vertex_enumeration(self, seed):
        rng = np.random.default_rng([23, seed])
        # at most 6 free entries keep the vertex enumeration small
        g = next(h for h in (random_graph(4, 0.7, s)
                             for s in itertools.count(100 * seed))
                 if FreeIndexMap(h).m <= 6)
        fmap = FreeIndexMap(g)
        k = int(rng.integers(1, 3))
        pool = random_pool(rng, fmap.m, int(rng.integers(1, 5)))
        lam = rng.normal(size=(fmap.n + 1, fmap.n + 1))
        lam = (lam + lam.T) / 2
        c00, c = lp_objective(lam, fmap)
        exact = k * c00 + vertex_lp_optimum(c, pool, fmap.m)
        alpha = alpha_k_exact(g, k)
        for name, fake in {**fake_backends(rng),
                           "duals": scipy_linprog_backend}.items():
            ub = valid_upper_bound(lam, fmap, k, pool, y=fake(c, pool, fmap.m))
            assert ub >= exact - 1e-9, (name, ub, exact)
            assert ub >= alpha, (name, ub, alpha)
        duals = scipy_linprog_backend(c, pool, fmap.m)
        assert valid_upper_bound(lam, fmap, k, pool, y=duals) \
            == pytest.approx(exact, abs=1e-9)

    def test_positive_eigenvalue_of_z_is_charged(self, monkeypatch):
        # a Z that rounding left with a +1e-10 eigenvalue: the bound is the
        # closed form over that Z plus (k + n) * 1e-10
        g = cycle_graph(5)
        fmap = FreeIndexMap(g)
        k = 2
        z = -np.diag(np.arange(6.0))
        z[0, 0] = 1e-10
        monkeypatch.setattr(mkcs.cpadmm, "project_nsd", lambda lam: z)
        c00, c = lp_objective(np.zeros((6, 6)), fmap)  # reads the patched Z
        got = valid_upper_bound(np.zeros((6, 6)), fmap, k)
        closed = k * c00 + np.maximum(c, 0.0).sum()
        # the rounding of sums near 40 is below 1e-13
        assert got - closed == pytest.approx((k + 5) * 1e-10, abs=1e-13)


class TestCertifiedBound:
    def test_myciel5_bound_is_at_least_the_tight_lp_optimum(self, monkeypatch):
        # at each round with cuts, the bound from the dual iterate and
        # multipliers that valid_upper_bound received against the LP solved at 1e-10
        # tolerances; HiGHS's objective at its default tolerances was
        # 4.6e-7 below that optimum in one round
        from scipy.optimize import linprog
        from scipy.sparse import csr_array

        from bench_instances import myciel5

        seen = []
        bound = mkcs.cpadmm.valid_upper_bound

        def spy(lam, fmap, k, cuts=None, y=None):
            ub = bound(lam, fmap, k, cuts, y)
            if cuts is not None and len(cuts):
                seen.append((lam.copy(), fmap, len(cuts), ub))
            return ub

        monkeypatch.setattr(mkcs.cpadmm, "valid_upper_bound", spy)
        res = cp_admm(myciel5(), 4)
        assert len(seen) >= 2
        for lam, fmap, n_cuts, ub in seen:
            pool = res.cuts.take(np.arange(n_cuts))
            c00, c = lp_objective(lam, fmap)
            a_ub = csr_array((pool.data, pool.indices, pool.indptr),
                             shape=(len(pool), fmap.m))
            lp = linprog(-c, A_ub=a_ub, b_ub=pool.rhs, bounds=(0.0, 1.0),
                         method="highs",
                         options={"primal_feasibility_tolerance": 1e-10,
                                  "dual_feasibility_tolerance": 1e-10})
            assert lp.success
            assert ub >= 4 * c00 - lp.fun - 1e-9, (ub, 4 * c00 - lp.fun)


def criterion_7_instances(count):
    """``(fmap, k, pool, u)`` of the first ``count`` affine projections
    that acceptance criterion 7 checks against the QP oracle."""
    case = 0
    while count:
        rng_case = np.random.default_rng([9, case])
        case += 1
        n = int(rng_case.integers(3, 7))
        g = random_graph(n, 0.35, 5000 + case)
        fmap = FreeIndexMap(g)
        k = int(rng_case.integers(1, 4))
        x_adv = fmap.vec_to_mat(np.ones(fmap.m), k)
        cands = candidate_pairs(separate_triangle(x_adv, g, fmap, k, 1e-6))
        cands += candidate_pairs(separate_clique_external(
            x_adv, g, fmap, enumerate_cliques(g), k, 1e-6))
        if not cands:
            continue
        pick = rng_case.permutation(len(cands))[:3]
        yield fmap, k, pool_of([cands[i][0] for i in pick]), \
            rng_case.uniform(-0.5, 1.5, fmap.m)
        count -= 1


class TestProjectionMultipliers:
    """The cut multipliers ``t`` that ``ClusteredCuts.multipliers`` reads
    from Dykstra's corrections, and the bound from ``beta t``."""

    @staticmethod
    def _check_corrections(fmap, pool, u, eps, max_cycles):
        clustered = ClusteredCuts(pool, cluster_cuts(pool), fmap.weights)
        res = dykstra(u, fmap.weights, clustered, eps=eps, max_cycles=max_cycles)
        clustered.corrections = res.corrections
        t = clustered.multipliers()
        assert t.shape == (len(pool),) and (t >= 0).all()
        a, _ = dense_cut_system(pool, fmap.m)
        cut_part = res.raw - u - res.corrections[0]
        assert np.abs(cut_part + (a.T @ t) / fmap.weights).max() <= 1e-12
        return t

    def test_criterion_7_instances(self):
        active = 0
        for fmap, _, pool, u in criterion_7_instances(500):
            t = self._check_corrections(fmap, pool, u, 1e-9, 200000)
            active += np.count_nonzero(t)
        assert active >= 100

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pools_in_pool_row_order(self, seed):
        # many cuts over few coordinates: several clusters, which take
        # their rows out of pool order
        rng = np.random.default_rng([31, seed])
        fmap = FreeIndexMap(random_graph(8, 0.3, seed))
        pool = random_pool(rng, fmap.m, 40)
        assert len(cluster_cuts(pool)) > 1
        t = self._check_corrections(fmap, pool, rng.uniform(-0.5, 1.5, fmap.m),
                                    1e-2, 5)
        assert np.count_nonzero(t)

    def test_none_is_zero_and_another_clustering_rejected(self):
        fmap = FreeIndexMap(cycle_graph(5))
        pool = random_pool(np.random.default_rng(0), fmap.m, 4)
        clustered = ClusteredCuts(pool, cluster_cuts(pool), fmap.weights)
        assert np.array_equal(clustered.multipliers(), np.zeros(4))
        extra = np.zeros(len(pool.indices) + 1)
        clustered.corrections = (np.zeros(fmap.m), extra)
        with pytest.raises(ValueError):
            clustered.multipliers()

    def test_queen6_6_bound_close_to_the_lp_duals(self, monkeypatch):
        # every round with cuts of the benchmark's queen6_6 k = 6 run: the
        # bound from beta t against the bound from HiGHS's duals
        from bench_instances import queen6_6

        bound = mkcs.cpadmm.valid_upper_bound
        gaps = []

        def spy(lam, fmap, k, cuts=None, y=None):
            ub = bound(lam, fmap, k, cuts, y)
            if cuts is not None and len(cuts):
                assert y is not None and len(y) == len(cuts)
                _, c = lp_objective(lam, fmap)
                lp = bound(lam, fmap, k, cuts, y=scipy_linprog_backend(c, cuts, fmap.m))
                gaps.append(ub - lp)
            return ub

        monkeypatch.setattr(mkcs.cpadmm, "valid_upper_bound", spy)
        cp_admm(queen6_6(), 6, AdmmParams(max_outer=5))
        assert len(gaps) == 4
        assert all(-1e-12 <= gap <= 2e-2 for gap in gaps), gaps


def polished(pool, c, y, clusters=None):
    """``ClusteredCuts.polish`` on ``pool``, clustered by ``cluster_cuts``
    unless ``clusters`` is given."""
    clusters = cluster_cuts(pool) if clusters is None else clusters
    return ClusteredCuts(pool, clusters, np.ones(len(c))).polish(c, y)


class TestPolish:
    """One Gauss-Seidel pass over the clusters on the cut multipliers of
    ``phi(y) = b'y + sum((c - A'y)_+)``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_never_raises_phi(self, seed):
        rng = np.random.default_rng([41, seed])
        m = int(rng.integers(5, 40))
        pool = random_pool(rng, m, int(rng.integers(1, 30)))
        for scale in (0.0, 0.3, 3.0):
            c = rng.normal(size=m)
            y = scale * rng.random(len(pool))
            got = polished(pool, c, y)
            assert got.shape == y.shape and (got >= 0).all()
            before = dual_lp_bound(c, pool, y, m)
            assert dual_lp_bound(c, pool, got, m) <= before + 1e-12 * (1 + abs(before))

    def test_one_cluster_by_hand(self):
        # cut 0, x0 + x1 - 2 x2 <= 1:
        #   s + max(3 - s, 0) + max(1 - s, 0) + max(2 s - 1, 0), least at s = 0.5
        # cut 1, x3 - x4 <= 0:  max(1 - s, 0) + max(s - 1, 0), least at s = 1
        pool = pool_of([Cut(0, CutFamily.HOLE5, {0: 1.0, 1: 1.0, 2: -2.0}, 1.0),
                        Cut(1, CutFamily.T1, {3: 1.0, 4: -1.0}, 0.0)])
        c = np.array([3.0, 1.0, -1.0, 1.0, -1.0])
        for y in ([0.0, 0.0], [2.0, 3.0], [0.25, 0.9]):
            got = polished(pool, c, np.array(y), clusters=[[0, 1]])
            assert got.tolist() == [0.5, 1.0]
            assert dual_lp_bound(c, pool, got, 5) == 3.5

    def test_keeps_a_multiplier_on_a_tie(self):
        # s + max(2 - s, 0) is 2 on all of [0, 2]
        pool = pool_of([Cut(0, CutFamily.T1, {0: 1.0}, 1.0)])
        for y in (0.0, 0.7, 2.0):
            assert polished(pool, np.array([2.0]), np.array([y])).tolist() == [y]

    @pytest.mark.parametrize("seed", range(6))
    def test_lp_duals_stay_optimal(self, seed):
        rng = np.random.default_rng([17, seed])
        m = int(rng.integers(5, 60))
        pool = random_pool(rng, m, int(rng.integers(1, 40)))
        c = rng.normal(size=m)
        got = polished(pool, c, scipy_linprog_backend(c, pool, m))
        optimum = dense_linprog_reference(c, cuts_of(pool), m)
        assert optimum - 1e-12 <= dual_lp_bound(c, pool, got, m) <= optimum + 1e-9

    def test_cut_free_bound_unchanged(self, monkeypatch):
        # the cut-free run's bound at the earlier default eps_admm, as
        # measured before the pass existed
        def fail(*args):
            raise AssertionError("no clustering, no pass")

        monkeypatch.setattr(ClusteredCuts, "polish", fail)
        res = cp_admm(queen6_6(), 3, AdmmParams(families=(), eps_admm=1e-4))
        assert res.ub == 18.000703342615232


class TestLpBackend:
    """The bound from the multipliers of the LP over the pool's CSR
    matrix against the LP objective over the dense matrix it replaced."""

    @staticmethod
    def _check(c, pool, m):
        y = scipy_linprog_backend(c, pool, m)
        assert (y >= 0).all()
        reference = dense_linprog_reference(c, cuts_of(pool), m)
        got = dual_lp_bound(c, pool, y, m)
        # the two values are sums of hundreds of terms of order one, each
        # rounded; 1e-12 is their rounding, far below HiGHS's tolerances
        assert reference - 1e-12 <= got <= reference + 1e-9, (got, reference)

    def test_queen6_6_pool(self, rng):
        from bench_instances import queen6_6

        g = queen6_6()
        res = cp_admm(g, 6, AdmmParams(max_outer=3), lb_hint=0)
        assert len(res.cuts) > 100
        fmap = FreeIndexMap(g)
        for _ in range(3):
            lam = rng.normal(size=(fmap.n + 1, fmap.n + 1))
            self._check(lp_objective((lam + lam.T) / 2, fmap)[1], res.cuts, fmap.m)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_cut_system(self, seed):
        rng = np.random.default_rng([17, seed])
        m = int(rng.integers(5, 60))
        pool = random_pool(rng, m, int(rng.integers(1, 40)))
        self._check(rng.normal(size=m), pool, m)


class TestEndingRound:
    """A round that the min_impr rule ends adds no cut, so it runs no
    separator, and it records the same phase and termination as when it
    separated every family (the values below)."""

    SEPARATORS = ("separate_triangle", "separate_clique_external",
                  "separate_clique_union", "separate_odd_hole")

    @pytest.mark.parametrize("instance,k,records", [
        ("myciel5", 4, [(1, 2, 53, 53), (2, 2, 0, 53), (2, 2, 0, 53)]),
        ("one_insertions_4", 3, [(1, 1, 320, 320), (2, 2, 0, 320), (2, 2, 0, 320)]),
    ])
    def test_no_separation_in_the_ending_round(self, monkeypatch, instance, k, records):
        import bench_instances

        rounds = []  # outer round of each separator call
        inner = mkcs.cpadmm.inner_admm

        def counting_inner(*args, **kwargs):
            if not kwargs.get("tightened"):
                rounds.append(None)
            return inner(*args, **kwargs)

        monkeypatch.setattr(mkcs.cpadmm, "inner_admm", counting_inner)
        calls = []
        for name in self.SEPARATORS:
            def spy(*args, _sep=getattr(mkcs.cpadmm, name), **kwargs):
                calls.append(len(rounds))
                return _sep(*args, **kwargs)

            monkeypatch.setattr(mkcs.cpadmm, name, spy)
        res = cp_admm(getattr(bench_instances, instance)(), k, AdmmParams())
        assert res.termination == "min_impr"
        assert [(r.outer, r.phase, r.n_cuts_added, r.n_cuts_total)
                for r in res.records] == records
        assert calls and max(calls) < res.outer_iterations


def test_dykstra_corrections_lifetime(monkeypatch):
    """Each Dykstra projection starts from the corrections that the one
    before it returned, except the first on a rebuilt clustering, which
    starts cold; the tightened pass starts from the round's last ones."""
    import bench_instances
    import mkcs.projection

    events = []  # ("inner", tightened) or ("dykstra", clustered, given, returned)
    dykstra = mkcs.projection.dykstra
    inner = mkcs.cpadmm.inner_admm

    def spy_dykstra(x0, w, clustered, *args, corrections=None, **kwargs):
        res = dykstra(x0, w, clustered, *args, corrections=corrections, **kwargs)
        events.append(("dykstra", clustered, corrections, res.corrections))
        return res

    def spy_inner(*args, **kwargs):
        events.append(("inner", kwargs.get("tightened", False)))
        return inner(*args, **kwargs)

    monkeypatch.setattr(mkcs.projection, "dykstra", spy_dykstra)
    monkeypatch.setattr(mkcs.cpadmm, "inner_admm", spy_inner)
    res = cp_admm(bench_instances.queen6_6(), 6, AdmmParams())
    assert res.termination == "min_impr" and res.tightened_iterations > 0

    prev = None  # the previous Dykstra call
    clusterings = 0
    tightened_start = tightened_checked = False
    for event in events:
        if event[0] == "inner":
            tightened_start = event[1]
            continue
        _, clustered, given, _ = event
        if prev is None or clustered is not prev[1]:
            clusterings += 1
            assert given is None
            assert not tightened_start
        else:
            assert given is not None and given is prev[3]
            tightened_checked |= tightened_start
        tightened_start = False
        prev = event
    # every round but the last added cuts and rebuilt the clustering
    assert clusterings == res.outer_iterations - 1 >= 2
    assert tightened_checked


class TestGreedyLowerBound:
    def test_empty_graph_single_color(self):
        value, coloring = greedy_lower_bound(Graph(7), 1)
        assert value == 7 and coloring.value == 7

    def test_complete_graph(self):
        value, coloring = greedy_lower_bound(complete_graph(5), 2)
        assert value == 2

    def test_odd_cycle(self):
        value, _ = greedy_lower_bound(cycle_graph(5), 2, seed=0)
        assert value == 4

    @pytest.mark.parametrize("seed", range(10))
    def test_always_feasible_and_bounded(self, seed):
        g = random_graph(10, 0.5, seed)
        k = 2
        value, coloring = greedy_lower_bound(g, k, seed)
        assert coloring.check(g, k)
        assert value == coloring.value <= alpha_k_exact(g, k)

    def test_deterministic(self):
        g = random_graph(12, 0.5, 4)
        a = greedy_lower_bound(g, 3, seed=9)
        b = greedy_lower_bound(g, 3, seed=9)
        assert a[0] == b[0] and a[1].assignment == b[1].assignment

    def test_numpy_integer_seed(self):
        g = random_graph(12, 0.5, 4)
        res = cp_admm(g, 2, AdmmParams(seed=np.int64(3)))
        assert res.ub == cp_admm(g, 2, AdmmParams(seed=3)).ub
        assert greedy_lower_bound(g, 3, np.int64(3)) == greedy_lower_bound(g, 3, 3)

    def test_leaves_the_module_random_state_alone(self):
        saved = random.getstate()
        try:
            random.seed(21)
            expected = random.random()
            random.seed(21)
            greedy_lower_bound(queen6_6(), 6, seed=4)
            assert random.random() == expected
        finally:
            random.setstate(saved)

    def test_seed_reaches_the_tie_order(self):
        g = queen6_6()
        assert len({greedy_lower_bound(g, 6, seed)[0] for seed in range(10)}) > 1


class TestCpAdmm:
    def test_lb_match_termination(self):
        g = complete_graph(5)
        res = cp_admm(g, 2, AdmmParams(), lb_hint=2)
        assert res.termination == "lb_match"
        assert math.floor(res.ub + 1e-9) == 2

    def test_reported_bound_is_min_over_rounds(self):
        g = random_graph(12, 0.5, 1)
        res = cp_admm(g, 2, AdmmParams())
        assert res.ub <= min(r.ub for r in res.records) + 1e-12

    def test_determinism(self):
        g = random_graph(12, 0.5, 3)
        a = cp_admm(g, 2, AdmmParams(seed=5))
        b = cp_admm(g, 2, AdmmParams(seed=5))
        assert a.ub == b.ub
        assert [(r.outer, r.inner_iters, r.ub, r.n_cuts_added) for r in a.records] == [
            (r.outer, r.inner_iters, r.ub, r.n_cuts_added) for r in b.records
        ]
        assert pool_identity(a.cuts) == pool_identity(b.cuts)

    def test_soundness_against_oracle(self):
        for seed in range(6):
            g = random_graph(9, 0.5, seed)
            for k in (1, 2):
                res = cp_admm(g, k, AdmmParams())
                assert math.floor(res.ub + 1e-6) >= alpha_k_exact(g, k)

    def test_benchmark_run_sweeps_and_bound(self):
        # the benchmark's queen6_6 k = 6 run took 1,112 sweeps to 34.31122
        # with eps_admm = 1e-4 and the multipliers beta t alone
        res = cp_admm(queen6_6(), 6, AdmmParams(max_outer=5))
        assert res.termination == "max_outer"
        assert res.inner_iterations <= 700 and res.ub <= 34.3112

    def test_std_mode_runs_without_separators(self):
        g = cycle_graph(7)
        # lb_hint of -1 keeps the optimality stop out of the way
        res = cp_admm(g, 2, AdmmParams(families=()), lb_hint=-1)
        assert res.outer_iterations == 1
        assert not res.cuts
        assert res.termination == "min_ineq"
        assert res.tightened_iterations > 0

    def test_ub_stop_below_target(self):
        g = complete_graph(6)
        res = cp_admm(g, 1, AdmmParams(), lb_hint=0, ub_stop_below=6.0)
        assert res.termination == "ub_below_target"
        assert res.ub < 6.0

    @pytest.mark.parametrize("fresh, phase", [(36, 1), (35, 2)])
    def test_phase1_threshold_and_round_cap(self, monkeypatch, fresh, phase):
        # phase 1 goes on while a round finds at least n = 36 fresh
        # clique-external cuts, and a round adds at most 5n cuts
        from bench_instances import queen6_6

        separate = mkcs.cpadmm.separate_clique_external
        caps = []

        def first_fresh(*args):
            rep = separate(*args)
            return rep.take(np.flatnonzero(CutPool().novel(rep.candidates))[:fresh])

        def spy_select(report, max_ineq, max_cuts_per_var):
            caps.append((max_ineq, max_cuts_per_var))
            return select_cuts(report, max_ineq, max_cuts_per_var)

        monkeypatch.setattr(mkcs.cpadmm, "separate_clique_external", first_fresh)
        monkeypatch.setattr(mkcs.cpadmm, "select_cuts", spy_select)
        res = cp_admm(queen6_6(), 6, AdmmParams(max_outer=2))
        assert res.records[0].phase == phase
        assert caps == [(5 * 36, 5)]

    def test_phase1_rounds_add_only_clique_external_cuts(self):
        # queen6_6 at k = 6 adds cuts in three phase-1 rounds, then
        # clique-union cuts among others in phase 2
        from bench_instances import queen6_6

        res = cp_admm(queen6_6(), 6, AdmmParams(max_outer=5))
        families = [CutFamily(f).name for f in res.cuts.family.tolist()]
        phase1 = [r for r in res.records if r.phase == 1 and r.n_cuts_added]
        assert phase1
        for r in phase1:
            added = families[r.n_cuts_total - r.n_cuts_added:r.n_cuts_total]
            assert set(added) == {"CLIQUE_EXT"}
        assert set(families) != {"CLIQUE_EXT"}  # phase 2 adds other families

    def test_capped_pools_are_not_a_complete_enumeration(self, monkeypatch):
        # each separator scans the first MAX_POOL rows found
        full_cliques = enumerate_cliques(petersen())
        full_holes = enumerate_5holes(petersen()).holes
        monkeypatch.setattr(mkcs.graph, "MAX_POOL", 3)
        pools = {}
        for name in ("separate_clique_external", "separate_odd_hole"):
            def spy(X, g, fmap, pool, *args, _sep=getattr(mkcs.cpadmm, name), _name=name):
                pools[_name] = pool
                return _sep(X, g, fmap, pool, *args)

            monkeypatch.setattr(mkcs.cpadmm, name, spy)
        res = cp_admm(petersen(), 2, AdmmParams(max_outer=2), lb_hint=-1)
        assert not res.enumeration_complete
        capped = pools["separate_clique_external"]
        assert capped.members.tolist() == full_cliques.members[:3].tolist()
        assert pools["separate_odd_hole"].holes.tolist() == full_holes[:3].tolist()
        monkeypatch.setattr(mkcs.graph, "MAX_POOL", 105)  # pools and pairs whole
        assert cp_admm(petersen(), 2, AdmmParams(max_outer=2)).enumeration_complete

    def test_cuts_do_not_depend_on_the_seed(self, monkeypatch):
        # the seed reaches only the greedy colouring, which lb_hint
        # replaces; capped pools are prefixes, not seeded samples
        monkeypatch.setattr(mkcs.graph, "MAX_POOL", 30)
        g = random_graph(20, 0.5, 1)
        runs = [cp_admm(g, 3, AdmmParams(seed=seed, max_outer=4, min_impr=-math.inf),
                        lb_hint=-1)
                for seed in (0, 7)]
        assert not runs[0].enumeration_complete
        assert {"CLIQUE_EXT", "HOLE5"} <= set(runs[0].family_counts)
        assert pool_identity(runs[0].cuts) == pool_identity(runs[1].cuts)

    def test_time_limit_termination(self):
        g = random_graph(14, 0.5, 2)
        res = cp_admm(g, 2, AdmmParams(), deadline=time.monotonic())
        assert res.termination == "time_limit"
        assert res.inner_iterations == 1

    def test_bound_cut_by_a_passed_deadline_is_capped_at_n(self):
        # one sweep from the initial iterate bounds this 125-vertex graph
        # by about 612; the result reports the trivial bound n instead
        g = random_graph(125, 0.5, 1)
        res = cp_admm(g, 8, AdmmParams(), deadline=time.monotonic() - 1.0)
        assert (res.termination, res.inner_iterations) == ("time_limit", 1)
        assert res.ub == float(g.n)
        assert [r.ub > g.n for r in res.records] == [True]  # the trace keeps it

    def test_deadline_bounds_enumeration_and_sweeps(self):
        # five sweeps end the first round at once, and its separation asks
        # for the clique pool, which takes about 1 s to reach MAX_POOL
        # rows (2 vCPUs)
        g = random_graph(125, 0.7, 1)
        ctx = SeparationContext(g)
        t0 = time.monotonic()
        res = cp_admm(g, 8, AdmmParams(max_inner_iter=5), deadline=t0 + 0.25, ctx=ctx)
        assert time.monotonic() - t0 < 1.5
        assert res.termination == "time_limit"
        assert not ctx.pools["cliques"].complete and not res.enumeration_complete

    def test_passed_deadline_enumerates_no_clique(self, monkeypatch):
        # the member array is built once, as the enumeration ends, and a
        # run whose deadline has passed ends before its first separation,
        # so it reads no pool and enumerates none
        g = random_graph(30, 0.5, 1)
        pool = len(enumerate_cliques(g).members)
        pad = mkcs.graph.pad_rows
        calls = []

        def spy(rows):
            calls.append(len(rows))
            return pad(rows)

        monkeypatch.setattr(mkcs.graph, "pad_rows", spy)
        res = cp_admm(g, 3, AdmmParams(), deadline=time.monotonic() - 1.0)
        assert (res.termination, res.inner_iterations) == ("time_limit", 1)
        assert calls == [] and res.enumeration_complete
        res = cp_admm(g, 3, AdmmParams(max_outer=3))
        assert res.outer_iterations == 3 and len(res.cuts) > 0
        assert calls == [pool] and pool > 0

    def test_tightened_pass_cut_by_the_deadline(self, monkeypatch):
        # petersen at k = 2 ends on min_ineq within milliseconds; the spy
        # lets the deadline pass just as the tightened pass starts
        inner = mkcs.cpadmm.inner_admm

        def late(*args, **kwargs):
            while kwargs.get("tightened") and time.monotonic() <= kwargs["deadline"]:
                time.sleep(0.01)
            return inner(*args, **kwargs)

        monkeypatch.setattr(mkcs.cpadmm, "inner_admm", late)
        g = petersen()
        res = cp_admm(g, 2, AdmmParams(), deadline=time.monotonic() + 0.5)
        assert res.termination == "time_limit"
        assert res.tightened_iterations == 1 == res.records[-1].inner_iters
        assert math.floor(res.ub + 1e-6) >= alpha_k_exact(g, 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            cp_admm(cycle_graph(5), 0, AdmmParams())

    @pytest.mark.parametrize("termination, graph, k, params, kwargs", [
        ("lb_match", complete_graph(5), 2, AdmmParams(), {"lb_hint": 2}),
        ("max_outer", random_graph(12, 0.5, 1), 2, AdmmParams(max_outer=3),
         {"lb_hint": -1}),
        ("min_impr", random_graph(12, 0.5, 1), 2, AdmmParams(), {"lb_hint": -1}),
        ("min_ineq", petersen(), 2, AdmmParams(), {}),
        ("ub_below_target", complete_graph(6), 1, AdmmParams(),
         {"lb_hint": 0, "ub_stop_below": 6.0}),
    ])
    def test_one_record_per_round(self, termination, graph, k, params, kwargs):
        # one record per round, plus one for the tightened pass that only
        # the two plateau rules run
        res = cp_admm(graph, k, params, **kwargs)
        assert res.termination == termination
        plateau = termination in ("min_impr", "min_ineq")
        rounds = list(range(1, res.outer_iterations + 1))
        assert [r.outer for r in res.records] == rounds + [res.outer_iterations] * plateau
        if plateau:
            extra = res.records[-1]
            assert extra.n_cuts_added == 0
            assert extra.inner_iters == res.tightened_iterations > 0
        else:
            assert res.tightened_iterations == 0
        assert sum(r.inner_iters for r in res.records) == (
            res.inner_iterations + res.tightened_iterations)

    def test_saturated_instance_stops_in_one_round(self):
        # at five colors the myciel5 optimum violates no inequality, so the
        # first outer iteration is also the last and no cuts are added
        from bench_instances import myciel5

        res = cp_admm(myciel5(), 5, AdmmParams())
        assert res.outer_iterations == 1
        assert not res.cuts
        assert res.termination == "min_ineq"
        assert res.ub == pytest.approx(47.0, abs=0.05)

    def test_trace_jsonl_shape(self, tmp_path):
        # the outer trace as the CLI writes it, wall times zeroed
        path = tmp_path / "c6.col"
        path.write_text(write_dimacs(cycle_graph(6)))
        assert main(["bound", str(path), "--k", "2", "--stable-timing",
                     "--out", str(tmp_path / "c6.json")]) == 0
        lines = (tmp_path / "c6.trace.jsonl").read_text().strip().split("\n")
        for rec in map(json.loads, lines):
            assert set(rec) == {
                "outer", "inner_iters", "ub", "n_cuts_added", "n_cuts_total",
                "phase", "elapsed_s",
            }
            assert rec["elapsed_s"] == 0.0


def spy_on_enumerations(monkeypatch):
    """The vertex counts of the graphs that ``mkcs.cpadmm``'s two pool
    enumerations are called on, by function name, in call order."""
    calls = {"enumerate_cliques": [], "enumerate_5holes": []}
    for name, seen in calls.items():
        def spy(g, *args, _enumerate=getattr(mkcs.cpadmm, name), _seen=seen):
            _seen.append(g.n)
            return _enumerate(g, *args)

        monkeypatch.setattr(mkcs.cpadmm, name, spy)
    return calls


class TestSeparationContext:
    @pytest.mark.parametrize("flags, holes", [
        (["--k", "2,3"], []),
        (["--k", "5,6", "--max-outer", "5"], [36]),
    ], ids=["cliques-only", "both-pools"])
    def test_a_k_list_enumerates_each_pool_once(self, tmp_path, monkeypatch, flags,
                                                 holes):
        # both k of a list separate from the clique pool.  Neither k = 2 nor
        # k = 3 reaches a phase-2 separation, so neither asks for the hole
        # pool; k = 5 and k = 6 both do, and add clique-union cuts there
        path = tmp_path / "queen6_6.col"
        path.write_text(write_dimacs(queen6_6()))
        out = tmp_path / "report.json"
        calls = spy_on_enumerations(monkeypatch)
        assert main(["bound", str(path), *flags, "--out", str(out)]) == 0
        assert calls == {"enumerate_cliques": [36], "enumerate_5holes": holes}
        runs = json.loads(out.read_text())["runs"]
        assert [("CLIQUE_UNION" in run["cuts"]) for run in runs] == [bool(holes)] * 2

    def test_chromatic_search_enumerates_each_pool_once(self, monkeypatch):
        # k = 3 and k = 4 separate from the clique pool, k = 4 from both
        calls = spy_on_enumerations(monkeypatch)
        value, steps = chromatic_search(myciel5())
        assert value == 4 and [step["k"] for step in steps] == [1, 3, 4]
        assert calls == {"enumerate_cliques": [47], "enumerate_5holes": [47]}

    def test_a_run_that_ends_in_phase_1_enumerates_no_hole(self, monkeypatch):
        calls = spy_on_enumerations(monkeypatch)
        res = cp_admm(queen6_6(), 6, AdmmParams(max_outer=2))
        assert [r.phase for r in res.records] == [1, 1] and len(res.cuts) > 0
        assert calls == {"enumerate_cliques": [36], "enumerate_5holes": []}

    def test_each_run_that_reads_a_truncated_pool_reports_it(self, monkeypatch):
        # the second run reads the pool that the first one enumerated, and
        # clique-external cuts have no other source of truncation
        monkeypatch.setattr(mkcs.graph, "MAX_POOL", 3)
        calls = spy_on_enumerations(monkeypatch)
        g = petersen()
        ctx = SeparationContext(g)
        params = AdmmParams(families=(CutFamily.CLIQUE_EXT,), max_outer=2)
        for k in (2, 3):
            assert not cp_admm(g, k, params, lb_hint=-1, ctx=ctx).enumeration_complete
        assert calls == {"enumerate_cliques": [10], "enumerate_5holes": []}

    def test_no_pool_is_enumerated_or_scanned_past_the_deadline(self, monkeypatch):
        # the clique enumeration ends past the deadline with a whole pool
        enumerate_cliques = mkcs.cpadmm.enumerate_cliques

        def slow(g, deadline):
            while time.monotonic() <= deadline:
                time.sleep(0.01)
            return enumerate_cliques(g)

        scans = []
        monkeypatch.setattr(mkcs.cpadmm, "enumerate_cliques", slow)
        monkeypatch.setattr(mkcs.cpadmm, "separate_clique_external",
                            lambda *args: scans.append(args))
        g = petersen()
        ctx = SeparationContext(g)
        report, next_id = ctx.separate(
            initial_state(g, 2).X, 2, [CutFamily.CLIQUE_EXT, CutFamily.HOLE5], 0.0, 0,
            time.monotonic() + 0.05)
        assert scans == [] and next_id == 0 and not report.truncated
        assert list(ctx.pools) == ["cliques"]

    def test_no_separator_starts_past_the_deadline(self, monkeypatch):
        # round 1's clique-external scan passes the deadline and finds
        # nothing, so the round moves to phase 2 and asks for the other
        # families, whose triangle scan must not start
        scans, triangles = [], []

        def slow_scan(*args):
            while time.monotonic() <= deadline:
                time.sleep(0.01)
            scans.append(args)
            return SeparationReport()

        monkeypatch.setattr(mkcs.cpadmm, "separate_clique_external", slow_scan)
        monkeypatch.setattr(mkcs.cpadmm, "separate_triangle",
                            lambda *args: triangles.append(args) or SeparationReport())
        deadline = time.monotonic() + 0.3
        res = cp_admm(petersen(), 2, AdmmParams(), deadline=deadline)
        assert len(scans) == 1 and triangles == []
        assert res.termination == "time_limit"

    def test_a_context_serves_its_own_graph_only(self):
        with pytest.raises(ValueError, match="another graph"):
            cp_admm(petersen(), 2, ctx=SeparationContext(cycle_graph(5)))


class TestRelaxationProperties:
    """Bound-level behavior of the relaxation on small graphs."""

    def _objective(self, g, k):
        st = initial_state(g, k)
        inner_admm(st, FreeIndexMap(g), AdmmParams(), tightened=True)
        return admm_objective(st.X)

    @pytest.mark.parametrize("seed", range(3))
    def test_monotone_in_k(self, seed):
        g = random_graph(10, 0.5, seed)
        objs = [self._objective(g, k) for k in (1, 2, 3)]
        assert objs[0] <= objs[1] + 0.02
        assert objs[1] <= objs[2] + 0.02

    @pytest.mark.parametrize("seed", range(3))
    def test_scaling_bound(self, seed):
        g = random_graph(10, 0.5, seed)
        one = self._objective(g, 1)
        for k in (2, 3):
            assert self._objective(g, k) <= k * one + 0.05 * k

    def test_saturation_above_chromatic_number(self):
        g = cycle_graph(5)  # chromatic number 3
        for k in (3, 4):
            assert self._objective(g, k) == pytest.approx(5.0, abs=0.02)

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 5)])
    def test_complete_graph_value(self, n, k):
        assert self._objective(complete_graph(n), k) == pytest.approx(
            min(k, n), abs=0.02
        )

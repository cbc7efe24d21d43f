import json
import math
import warnings

import numpy as np
import pytest

from bench_instances import complete_graph, cycle_graph, myciel_graph
from reference_helpers import (
    project_sphere_reference,
    random_graph,
    round_and_verify_reference,
    sphere_center,
)
import mkcs.intadmm
from mkcs.cpadmm import AdmmParams, cp_admm
from mkcs.graph import Graph, write_dimacs
from mkcs.intadmm import (
    BETA_MIN,
    MAX_GROWTH_EXPONENT,
    STALL_FALL,
    STALL_WINDOW,
    Coloring,
    IntAdmmParams,
    PenaltyGrowth,
    int_admm,
    project_sphere,
    round_and_verify,
)
from mkcs.cli import main
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


def random_partial_coloring(g, k, rng, proper=True):
    """Color about 80% of the vertices with colors 1..k, avoiding the
    neighbors' colors unless ``proper`` is false."""
    assignment = {}
    for v in g.vertices:
        options = [
            c
            for c in range(1, k + 1)
            if not proper or all(assignment.get(u) != c for u in g.adj[v])
        ]
        if options and rng.random() < 0.8:
            assignment[v] = int(rng.choice(options))
    return assignment


def near_coloring_matrix(rng):
    """A graph, a k and a noisy, partly corrupted matrix of a coloring
    with up to 4 colors: up to 10% of the inner entries flipped, about 2%
    of all entries set to a rounding tie, symmetrized half of the time."""
    n = int(rng.integers(1, 12))
    k = int(rng.integers(1, 5))
    g = random_graph(n, float(rng.uniform(0.0, 0.6)), int(rng.integers(1 << 30)))
    colors = int(rng.integers(1, 5))
    assignment = random_partial_coloring(g, colors, rng, proper=rng.random() < 0.7)
    x = coloring_to_matrix(g, assignment, colors)
    inner = x[1:, 1:]
    flips = rng.random(inner.shape) < rng.uniform(0.0, 0.1)
    inner[flips] = 1.0 - inner[flips]
    x += rng.uniform(-0.45, 0.45, size=x.shape)
    ties = rng.random(x.shape) < 0.02  # where rounding to nearest is a tie or near one
    x[ties] = rng.choice([-0.5, 0.5, 1.5], size=int(ties.sum()))
    if rng.random() < 0.5:
        x = symmetrize(x)
    return g, k, x


def pinned_radius(n):
    """Radius of the sphere around the center with the corner pinned to k."""
    return math.sqrt((n + 1) ** 2 - 1) / 2.0


def off_corner(out, n, k):
    """``out`` minus the center, corner excluded."""
    shifted = out - sphere_center(n, k)
    shifted[0, 0] = 0.0
    return shifted


class TestProjectSphere:
    def test_idempotent_on_sphere(self, rng):
        n, k = 6, 2
        u = symmetrize(rng.normal(size=(n + 1, n + 1)))
        u[0, 0] = 0.0
        u /= np.linalg.norm(u)
        a = sphere_center(n, k) + pinned_radius(n) * u
        a[0, 0] = float(k)
        assert np.allclose(project_sphere(a, k), a, atol=1e-10)

    def test_radius_one_case(self):
        # order-2 matrices: n = 1, radius sqrt(3)/2
        c = sphere_center(1, 1)
        a = c.copy()
        a[1, 1] += 2.0
        a[0, 0] = 5.0  # ignored: the corner is pinned
        out = project_sphere(a, 1)
        assert np.linalg.norm(off_corner(out, 1, 1)) == pytest.approx(math.sqrt(3) / 2)
        assert out[1, 1] == pytest.approx(c[1, 1] + math.sqrt(3) / 2)
        assert out[0, 0] == 1.0

    def test_radius_condition_bulk(self):
        rng = np.random.default_rng(12345)
        n, k = 5, 3
        for _ in range(1000):
            a = symmetrize(rng.normal(size=(n + 1, n + 1)) * 3)
            out = project_sphere(a, k)
            assert abs(np.linalg.norm(off_corner(out, n, k)) - pinned_radius(n)) < 1e-9
            assert np.array_equal(out, out.T)

    @pytest.mark.parametrize("seed", range(20))
    def test_fixed_corner_conditions(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 5, 3
        a = symmetrize(rng.normal(size=(n + 1, n + 1)) * 3)
        out = project_sphere(a, k)
        assert out[0, 0] == float(k)
        shifted = out - sphere_center(n, k)
        shifted[0, 0] += 0.5
        assert np.linalg.norm(shifted) == pytest.approx(pinned_radius(n), abs=1e-9)

    def test_center_input_is_deterministic(self):
        n, k = 4, 2
        c = sphere_center(n, k)
        a = project_sphere(c.copy(), k)
        b = project_sphere(c.copy(), k)
        assert np.array_equal(a, b)
        assert a[0, 0] == float(k)
        assert np.linalg.norm(off_corner(a, n, k)) == pytest.approx(pinned_radius(n))


class TestProjectSphereMatchesReference:
    """``project_sphere``, also into an output buffer and in place, against
    the version that builds the full center matrix on every call
    (``tests/reference_helpers.py``): every output bit must agree."""

    @staticmethod
    def _same_bits(a, b):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    # the reference's pinned case, the only sphere that project_sphere targets
    @pytest.mark.parametrize("fix_corner", [True])
    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise(self, seed, fix_corner):
        rng = np.random.default_rng([17, seed])
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, n + 1))
        for _ in range(5):
            a = symmetrize(rng.normal(size=(n + 1, n + 1)) * 2.0)
            mask = rng.random(a.shape) < 0.3
            a[mask] = rng.choice([0.0, -0.0, 0.5, 1.0], size=int(mask.sum()))
            ref = project_sphere_reference(a, k, fix_corner)
            self._same_bits(project_sphere(a, k), ref)
            buf = np.full_like(a, np.nan)
            got = project_sphere(a, k, out=buf)
            assert got is buf
            self._same_bits(got, ref)
            inplace = a.copy()
            project_sphere(inplace, k, out=inplace)
            self._same_bits(inplace, ref)

    @pytest.mark.parametrize("fix_corner", [True])
    def test_center_input(self, fix_corner):
        n, k = 4, 2
        a = sphere_center(n, k)
        a[0, 0] = -0.0
        ref = project_sphere_reference(a, k, fix_corner)
        self._same_bits(project_sphere(a.copy(), k, out=a.copy()), ref)
        inplace = a.copy()
        project_sphere(inplace, k, out=inplace)
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

    def test_asymmetric_rounding_rejected(self):
        g = Graph(3)
        x = np.zeros((4, 4))
        for v in (1, 2):
            x[v, v] = 1.0
        x[1, 2] = 1.0  # 1~2 one way only
        out = round_and_verify(x, g, 2)
        assert not out.feasible and out.reason.startswith("b")

    def test_class_count_cap(self):
        g = Graph(3)
        x = np.zeros((4, 4))
        for v in (1, 2, 3):
            x[v, v] = 1.0  # three singletons need three colors
        out = round_and_verify(x, g, 2)
        assert not out.feasible and out.reason.startswith("e")

    def test_colors_numbered_by_least_vertex(self):
        g = Graph(5)
        x = coloring_to_matrix(g, {1: 3, 2: 1, 4: 3, 5: 2}, 3)
        out = round_and_verify(x, g, 3)
        assert list(out.coloring.assignment.items()) == [(1, 1), (2, 2), (4, 1), (5, 3)]

    def test_nothing_colored_is_the_empty_coloring(self):
        out = round_and_verify(np.zeros((4, 4)), cycle_graph(3), 1)
        assert out.feasible and out.coloring.assignment == {}

    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_on_random_colorings(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(8, 0.4, seed)
        k = 3
        assignment = random_partial_coloring(g, k, rng)
        x = coloring_to_matrix(g, assignment, k)
        out = round_and_verify(x, g, k)
        assert out.feasible
        assert out.coloring.value == len(assignment)
        ref = round_and_verify_reference(x, g, k)
        assert list(out.coloring.assignment.items()) == list(ref.coloring.assignment.items())

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_on_near_colorings(self, seed):
        rng = np.random.default_rng([seed, 9])
        reasons = set()
        for _ in range(300):
            g, k, x = near_coloring_matrix(rng)
            out = round_and_verify(x, g, k)
            ref = round_and_verify_reference(x, g, k)
            assert out.reason == ref.reason
            if ref.feasible:
                assert (list(out.coloring.assignment.items())
                        == list(ref.coloring.assignment.items()))
            reasons.add(None if ref.reason is None else ref.reason[0])
        # every outcome of the verifier occurs among the cases
        assert reasons == {None, "a", "b", "c", "d", "e"}


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
        params = IntAdmmParams(beta0=0.002, beta_decr=0.1, max_iterations=5000)
        res = int_admm(g, 2, params=params)
        assert all(r.beta >= BETA_MIN for r in res.records)

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

    def test_trace_jsonl(self, tmp_path):
        # the integer trace as the CLI writes it, one record per convergence event
        path = tmp_path / "c5.col"
        path.write_text(write_dimacs(cycle_graph(5)))
        assert main(["solve", str(path), "--k", "2", "--stable-timing",
                     "--out", str(tmp_path / "c5.json")]) == 0
        lines = (tmp_path / "c5.int_trace.jsonl").read_text().strip().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert set(rec) == {
            "t", "beta", "primal_res_Y", "primal_res_Z", "converged_event",
            "feasible_value",
        }

    def test_non_finite_iterate_ends_the_run(self, monkeypatch):
        # beta overflows to inf after a few dozen sweeps, and the iterate
        # turns NaN before any convergence event; no numpy warning escapes
        g = myciel_graph(3)
        monkeypatch.setattr(mkcs.intadmm, "EPS_INT", 1e-300)
        params = IntAdmmParams(beta_incr=1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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

    @pytest.mark.parametrize("name, value", [
        ("beta0", 0.0), ("beta0", -1.0), ("beta0", math.nan), ("beta0", math.inf),
        ("beta_incr", math.nan), ("beta_incr", math.inf), ("max_iterations", -1),
    ])
    def test_degenerate_settings_rejected(self, name, value):
        # each of these ran a degenerate schedule: a zero or negative
        # penalty, a NaN iterate, or the whole sweep cap without an event
        with pytest.raises(ValueError, match=f"{name} must"):
            IntAdmmParams(**{name: value})

    def test_smallest_valid_settings_accepted(self):
        params = IntAdmmParams(beta0=1e-300, max_iterations=0)
        res = int_admm(cycle_graph(5), 2, params)
        assert (res.iterations, res.convergence_events) == (0, 0)


class TestPenaltyBackoff:
    """After a convergence event the penalty is multiplied by
    ``beta_decr`` (default 0.85), which the schedule reads nowhere else."""

    @pytest.fixture(scope="class")
    def myciel5_runs(self):
        # the benchmark's integer workload: myciel5, k = 4, warm-started
        # from the default bound, at beta_incr = 1.0005 (about a second);
        # factors[t - 1] is the growth factor of the default run's sweep t
        g = myciel_graph(5)
        cp = cp_admm(g, 4, AdmmParams())
        factors = []
        step = PenaltyGrowth.step

        def recorded(self, res_z):
            factors.append(step(self, res_z))
            return factors[-1]

        runs = {0.5: int_admm(g, 4, IntAdmmParams(beta_incr=1.0005, beta_decr=0.5),
                              warm=cp.matrix, known_ub=cp.ub)}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PenaltyGrowth, "step", recorded)
            runs[0.85] = int_admm(g, 4, IntAdmmParams(beta_incr=1.0005),
                                  warm=cp.matrix, known_ub=cp.ub)
        return g, runs, factors

    def test_first_event_and_value_do_not_depend_on_the_backoff(self, myciel5_runs):
        g, runs, _ = myciel5_runs
        half, backoff = runs[0.5], runs[0.85]
        assert half.records[0] == backoff.records[0]  # every field exactly equal
        assert backoff.records[0].feasible_value == 44
        assert backoff.value >= half.value == 44
        assert backoff.iterations < half.iterations
        assert backoff.coloring.check(g, 4)

    def test_penalty_after_an_event(self, myciel5_runs):
        # an event at sweep t records beta_t; sweep t + 1 starts from
        # 0.85 beta_t, and each sweep multiplies it by its growth factor,
        # beta_incr ** e with e a power of two up to the cap
        _, runs, factors = myciel5_runs
        records = runs[0.85].records
        assert len(records) >= 2
        assert len(factors) == runs[0.85].iterations
        allowed = {1.0005 ** (1 << i) for i in range(MAX_GROWTH_EXPONENT.bit_length())}
        assert set(factors) <= allowed
        for event, after in zip(records, records[1:]):
            expected = event.beta * 0.85
            for factor in factors[event.t:after.t]:
                expected *= factor
            assert after.beta == pytest.approx(expected, rel=1e-12)

    def test_benchmark_run_takes_at_most_1500_sweeps(self, myciel5_runs):
        # growing the penalty by beta_incr alone, the run took 3,803
        # sweeps, its first event at sweep 3,083
        g, runs, factors = myciel5_runs
        res = runs[0.85]
        assert res.value == 44 and res.coloring.check(g, 4)
        assert res.iterations <= 1500, res.iterations
        assert max(factors) > 1.0005  # the residual stalled on the way


class TestPenaltyGrowth:
    """The growth exponent doubles after each window in which the sphere
    residual stalls, up to its cap, and starts over at an event."""

    def feed(self, growth, residuals):
        return [growth.step(r) for r in residuals]

    def test_stalled_windows_double_the_exponent_up_to_the_cap(self):
        growth = PenaltyGrowth(1.001)
        exponents = []
        for _ in range(10):
            self.feed(growth, [0.3] * STALL_WINDOW)
            exponents.append(growth.exponent)
        # the first residual opens the first window, so the first window
        # closes at the (STALL_WINDOW + 1)-th sweep
        assert exponents == [1, 2, 4, 8, 16, 32, 32, 32, 32, 32]
        assert MAX_GROWTH_EXPONENT == 32
        assert growth.step(0.3) == 1.001 ** 32

    def test_factor_of_each_sweep(self):
        growth = PenaltyGrowth(1.5)
        factors = self.feed(growth, [1.0] * (2 * STALL_WINDOW + 1))
        # the closing sweep of a window already grows by the new factor
        assert factors == [1.5] * STALL_WINDOW + [1.5 ** 2] * STALL_WINDOW + [1.5 ** 4]

    def test_falling_window_returns_to_one(self):
        growth = PenaltyGrowth(1.001)
        self.feed(growth, [0.3] * (3 * STALL_WINDOW + 1))
        assert growth.exponent == 8
        # the window's last residual below STALL_FALL times its first
        self.feed(growth, [0.3] * (STALL_WINDOW - 1) + [0.3 * STALL_FALL * 0.999])
        assert growth.exponent == 1
        # exactly STALL_FALL times the first is a stall
        start = 0.3 * STALL_FALL * 0.999
        self.feed(growth, [0.3] * (STALL_WINDOW - 1) + [start * STALL_FALL])
        assert growth.exponent == 2

    def test_a_fall_inside_the_window_alone_is_a_stall(self):
        # only the window's first and last residuals are compared
        growth = PenaltyGrowth(1.001)
        self.feed(growth, [0.3] + [0.01] * (STALL_WINDOW - 1) + [0.3])
        assert growth.exponent == 2

    def test_reset_returns_to_one_and_drops_the_window(self):
        growth = PenaltyGrowth(1.001)
        self.feed(growth, [0.3] * (2 * STALL_WINDOW + 1 + STALL_WINDOW // 2))
        assert growth.exponent == 4
        growth.reset()
        assert (growth.exponent, growth.factor) == (1, 1.001)
        # half a window had passed; a new full window follows the reset
        self.feed(growth, [0.3] * STALL_WINDOW)
        assert growth.exponent == 1
        growth.step(0.3)
        assert growth.exponent == 2

    def test_an_event_resets_the_growth(self, monkeypatch):
        # int_admm resets the growth at each convergence event, and at no
        # other sweep
        resets = []
        reset = PenaltyGrowth.reset

        def recorded(self):
            resets.append(self)
            reset(self)

        monkeypatch.setattr(PenaltyGrowth, "reset", recorded)
        g = cycle_graph(5)
        res = int_admm(g, 2, warm=cp_admm(g, 2, AdmmParams()).matrix)
        assert res.termination == "no_improvement"
        assert res.convergence_events >= 2
        # one reset at construction, then one at each event but the last,
        # which ended the run
        assert len(resets) == res.convergence_events


def test_coloring_check_catches_conflicts():
    g = cycle_graph(4)
    good = Coloring({1: 1, 2: 2, 3: 1, 4: 2})
    bad = Coloring({1: 1, 2: 1})
    assert good.check(g, 2)
    assert not bad.check(g, 2)
    assert not good.check(g, 1)  # more classes than colors

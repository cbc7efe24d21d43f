import hashlib
import itertools
import logging
import time

import pytest

from bench_instances import complete_graph, cycle_graph, petersen, queen6_6
from mkcs.graph import (
    DimacsError,
    Graph,
    HoleEnumeration,
    enumerate_5holes,
    enumerate_cliques,
    extend_clique_greedy,
    pair_pool_size,
    parse_dimacs,
    write_dimacs,
)

import mkcs.graph
import numpy as np
from reference_helpers import enumerate_cliques as reference_cliques
from reference_helpers import random_graph


def vertex_rows(cliques):
    """The vertices of each row of a clique pool, padding dropped."""
    return [[v for v in row if v >= 0] for row in cliques.members.tolist()]


class TestParseDimacs:
    def test_minimal_file(self):
        g = parse_dimacs("p edge 3 1\ne 2 3")
        assert g.n == 3
        assert g.edges == frozenset({(2, 3)})

    def test_duplicate_and_reversed_edges_collapse(self):
        g = parse_dimacs("p edge 2 2\ne 1 2\ne 2 1")
        assert g.n == 2
        assert g.edges == frozenset({(1, 2)})

    def test_comments_and_col_variant(self):
        g = parse_dimacs(b"c a comment\np col 4 2\ne 1 2\ne 3 4\n")
        assert g.n == 4 and g.num_edges == 2

    def test_queen6_6_shape(self):
        text = write_dimacs(queen6_6())
        g = parse_dimacs(text)
        assert g.n == 36
        assert abs(g.density - 0.46) < 0.005

    def test_malformed_problem_line(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge x 1\ne 1 2")

    def test_vertex_out_of_range(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 3 1\ne 1 4")

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 3 1\ne 2 2")

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError):
            parse_dimacs("e 1 2")

    def test_edge_count_mismatch_warns_but_parses(self, caplog):
        with caplog.at_level(logging.WARNING, logger="mkcs.graph"):
            g = parse_dimacs("p edge 3 2\ne 1 2")
        assert g.num_edges == 1
        assert any("declares" in r.message for r in caplog.records)

    def test_roundtrip(self):
        g = random_graph(9, 0.4, 3)
        assert parse_dimacs(write_dimacs(g)).edges == g.edges


@pytest.mark.parametrize("args, prefix", [
    ((12, 0.5, 77), "7c6794f0c75fa958"),     # g12.col of tools/stable_outputs.py
    ((12, 0.7, 2014), "beea8e159fd04c0a"),
    ((70, 0.5, 1), "8cabbecc4f95fb35"),
    ((125, 0.5, 1), "06f8162731d24983"),     # its gnp125.col
])
def test_seeded_graphs_are_pinned(args, prefix):
    # the stable outputs and acceptance numbers are measured on these graphs
    text = write_dimacs(random_graph(*args))
    assert hashlib.sha256(text.encode()).hexdigest().startswith(prefix)


class TestEnumerateCliques:
    def test_k4(self):
        enum = enumerate_cliques(complete_graph(4))
        assert enum.members.tolist() == [[1, 2, 3, 4]]
        assert enum.maximal.tolist() == [True]
        assert enum.complete

    def test_c5_edges_are_the_maximal_cliques(self):
        enum = enumerate_cliques(cycle_graph(5))
        got = sorted(map(tuple, enum.members.tolist()))
        assert got == [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]
        assert enum.maximal.all()

    def test_k7_has_all_six_subsets(self):
        enum = enumerate_cliques(complete_graph(7))
        assert enum.members.shape == (7, 6)
        assert not enum.maximal.any()
        subsets = set(map(tuple, enum.members.tolist()))
        assert subsets == {
            tuple(sorted(set(range(1, 8)) - {v})) for v in range(1, 8)
        }

    def test_k6_six_clique_is_maximal(self):
        enum = enumerate_cliques(complete_graph(6))
        assert enum.members.tolist() == [[1, 2, 3, 4, 5, 6]]
        assert enum.maximal.tolist() == [True]

    @pytest.mark.parametrize("seed", range(6))
    def test_members_pairwise_adjacent(self, seed):
        g = random_graph(11, 0.5, seed)
        enum = enumerate_cliques(g)
        for row in vertex_rows(enum):
            assert len(row) >= 2 and row == sorted(row)
            for u, v in itertools.combinations(row, 2):
                assert g.has_edge(u, v)

    @pytest.mark.parametrize("seed", range(6))
    def test_reported_maximal_cliques_have_no_common_neighbor(self, seed):
        g = random_graph(11, 0.5, seed)
        enum = enumerate_cliques(g)
        for row, maximal in zip(vertex_rows(enum), enum.maximal.tolist()):
            common = set(g.vertices) - set(row)
            for v in row:
                common &= g.adj[v]
            assert maximal == (not common), (row, sorted(common))

    def test_time_limit_sets_flag(self):
        g = random_graph(60, 0.9, 1)
        enum = enumerate_cliques(g, time.monotonic() + 1e-4)
        assert not enum.complete

    @pytest.mark.parametrize("seed", range(9))
    def test_rows_are_the_reference_cliques(self, monkeypatch, seed):
        # row for row the sorted vertices, padded with -1, and the flags of
        # the object-based enumeration, whole and at caps that cut each list
        g = random_graph(13, [0.5, 0.7, 0.8][seed % 3], 40 + seed)
        full = reference_cliques(g)
        total = len(full.all_cliques())
        for cap in (total, total - 1, total // 2, len(full.maximal), 1):
            monkeypatch.setattr(mkcs.graph, "MAX_POOL", cap)
            got = enumerate_cliques(g)
            want = reference_cliques(g).all_cliques()
            width = max(map(len, want), default=1)
            assert got.members.dtype == np.intp and got.maximal.dtype == bool
            assert got.members.tolist() == [
                sorted(c.vertices) + [-1] * (width - len(c)) for c in want]
            assert got.maximal.tolist() == [c.maximal for c in want]
            assert got.complete == (cap == total)

    def test_empty_pool(self):
        for enum in (enumerate_cliques(Graph(3)), mkcs.graph.CliqueEnumeration()):
            assert enum.members.shape == (0, 1) and enum.maximal.shape == (0,)
            assert enum.members.dtype == np.intp and enum.maximal.dtype == bool


class TestExtendCliqueGreedy:
    def setup_method(self):
        # triangle 1-2-3 plus isolated vertex 4
        self.g = Graph(4, [(1, 2), (2, 3), (1, 3)])
        self.X = np.zeros((5, 5))

    def test_already_maximal(self):
        out = extend_clique_greedy(self.g, frozenset({1, 2, 3}), 4, self.X)
        assert out == {1, 2, 3}

    def test_unique_extension(self):
        out = extend_clique_greedy(self.g, frozenset({1, 2}), 4, self.X)
        assert isinstance(out, frozenset) and out == {1, 2, 3}

    def test_tie_broken_by_smaller_id(self):
        # two disjoint candidate extensions 3 and 4 of the edge {1, 2}
        g = Graph(4, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
        X = np.zeros((5, 5))
        out = extend_clique_greedy(g, frozenset({1, 2}), 5 - 1, X)
        assert 3 in out and 4 not in out

    def test_never_adds_external_vertex(self):
        g = complete_graph(5)
        X = np.ones((6, 6))
        out = extend_clique_greedy(g, frozenset({1, 2}), 5, X)
        assert 5 not in out
        assert out == {1, 2, 3, 4}


def naive_5holes(g):
    holes = set()
    for combo in itertools.combinations(g.vertices, 5):
        sub = [(u, v) for u, v in itertools.combinations(combo, 2) if g.has_edge(u, v)]
        if len(sub) != 5:
            continue
        deg = {v: 0 for v in combo}
        for u, v in sub:
            deg[u] += 1
            deg[v] += 1
        if all(d == 2 for d in deg.values()):
            # 5 vertices, 5 edges, all degree 2: a single 5-cycle, chordless
            holes.add(frozenset(combo))
    return holes


class TestEnumerate5Holes:
    def test_c5(self):
        holes = enumerate_5holes(cycle_graph(5)).holes
        assert len(holes) == 1
        assert holes[0].tolist() == [1, 2, 3, 4, 5]

    def test_c6_has_none(self):
        assert enumerate_5holes(cycle_graph(6)).holes.shape == (0, 5)

    def test_petersen_has_twelve(self):
        assert len(enumerate_5holes(petersen()).holes) == 12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_scan(self, seed):
        g = random_graph(10, 0.45, seed)
        got = enumerate_5holes(g).holes.tolist()
        assert len({frozenset(h) for h in got}) == len(got)
        assert {frozenset(h) for h in got} == naive_5holes(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_hole_structure(self, seed):
        g = random_graph(10, 0.45, seed)
        for vs in enumerate_5holes(g).holes.tolist():
            for i in range(5):
                assert g.has_edge(vs[i], vs[(i + 1) % 5])
                assert not g.has_edge(vs[i], vs[(i + 2) % 5])

    def test_canonical_form(self):
        for vs in enumerate_5holes(petersen()).holes.tolist():
            assert vs[0] == min(vs)
            assert vs[1] < vs[4]

    def test_pool_is_one_intp_array(self):
        holes = enumerate_5holes(petersen()).holes
        assert holes.dtype == np.intp and holes.shape == (12, 5)
        assert HoleEnumeration().holes.shape == (0, 5)
        rows = HoleEnumeration([(1, 2, 3, 4, 5)]).holes
        assert rows.dtype == np.intp and rows.tolist() == [[1, 2, 3, 4, 5]]

    def test_truncated_pool_is_an_array(self):
        # the deadline is checked every 512 path steps, so a graph this
        # size stops at the first check
        he = enumerate_5holes(random_graph(60, 0.5, 0), time.monotonic())
        assert not he.complete
        assert he.holes.dtype == np.intp and he.holes.shape[1] == 5


class TestMaxPool:
    """Each enumeration stops at ``MAX_POOL`` rows, and reports itself
    incomplete only when a row was left out."""

    @pytest.mark.parametrize("seed", range(3))
    def test_cap_at_the_pool_size(self, monkeypatch, seed):
        g = random_graph(14, 0.5, seed)
        cliques = enumerate_cliques(g)
        holes = enumerate_5holes(g)
        for enumerate_pool, size in ((enumerate_cliques, len(cliques.members)),
                                     (enumerate_5holes, len(holes.holes))):
            monkeypatch.setattr(mkcs.graph, "MAX_POOL", size)
            assert enumerate_pool(g).complete
            monkeypatch.setattr(mkcs.graph, "MAX_POOL", size - 1)
            assert not enumerate_pool(g).complete

    def test_capped_cliques_are_the_first_found(self, monkeypatch):
        # each cap takes one more clique, in the order the search finds them
        g = random_graph(12, 0.8, 0)
        full = reference_cliques(g)
        assert len(full.size6) == 10 and len(full.maximal) == 9
        last = (0, 0)
        for cap in range(1, len(full.all_cliques()) + 1):
            monkeypatch.setattr(mkcs.graph, "MAX_POOL", cap)
            ce = enumerate_cliques(g)
            six = (ce.members >= 0).sum(axis=1) == 6
            sizes = (int((~six).sum()), int(six.sum()))
            assert sum(sizes) == cap and min(np.subtract(sizes, last)) == 0
            want = full.maximal[:sizes[0]] + full.size6[:sizes[1]]
            assert vertex_rows(ce) == [sorted(c.vertices) for c in want]
            assert ce.maximal.tolist() == [c.maximal for c in want]
            last = sizes

    @pytest.mark.parametrize("pool, pairs", [(0, 1), (1, 2), (2, 2), (3, 3), (5, 3),
                                             (6, 4), (200_000, 632)])
    def test_pair_pool_size(self, monkeypatch, pool, pairs):
        monkeypatch.setattr(mkcs.graph, "MAX_POOL", pool)
        assert pair_pool_size(10_000) == pairs
        assert pair_pool_size(2) == min(2, pairs)


class TestGraphBasics:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 4)])

    def test_density_bounds(self):
        for seed in range(4):
            g = random_graph(7, 0.5, seed)
            assert 0.0 <= g.density <= 1.0

    def test_adjacency_symmetric(self):
        g = random_graph(9, 0.4, 2)
        for v in g.vertices:
            for u in g.adj[v]:
                assert v in g.adj[u]

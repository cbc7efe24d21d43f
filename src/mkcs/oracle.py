"""Exact brute-force references for desk-scale verification: the optimal
k-colorable-subgraph size and the chromatic number.  The enumeration of
the integer feasible matrices is in ``tests/reference_helpers.py``."""

from __future__ import annotations


class OracleSizeError(ValueError):
    """Raised when an instance exceeds the configured brute-force guard."""


def alpha_k_exact(g, k, max_vertices=15, initial_lb=0):
    """Exact maximum number of vertices colorable with k colors.

    Branch and bound over vertex-by-vertex assignment to {uncolored,
    1..k}.  Color symmetry is broken by allowing a vertex to open color c
    only when colors 1..c-1 are already in use, and a branch is pruned
    when colored-so-far plus remaining vertices cannot beat the
    incumbent.  ``initial_lb`` may prime the incumbent with a known valid
    lower bound (it only prunes; the returned value is unaffected).
    """
    if g.n > max_vertices:
        raise OracleSizeError(
            f"{g.n} vertices exceed the brute-force guard ({max_vertices}); "
            "raise max_vertices explicitly to override"
        )
    if k < 1:
        raise ValueError("k must be at least 1")
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    n = g.n
    pos_of = {v: i for i, v in enumerate(order)}
    earlier_neighbors = [
        [pos_of[u] for u in g.neighbors(v) if pos_of[u] < i]
        for i, v in enumerate(order)
    ]
    colors = [0] * n
    best = max(0, int(initial_lb))

    def descend(i, colored, used):
        nonlocal best
        if colored + (n - i) <= best:
            return
        if i == n:
            best = colored
            return
        limit = min(used + 1, k)
        for c in range(1, limit + 1):
            if all(colors[j] != c for j in earlier_neighbors[i]):
                colors[i] = c
                descend(i + 1, colored + 1, max(used, c))
                colors[i] = 0
                if best == n:
                    return
        descend(i + 1, colored, used)  # leave vertex i uncolored

    descend(0, 0, 0)
    return best


def chi_exact(g, max_vertices=15):
    """Exact chromatic number by iterative deepening: the smallest k for
    which all n vertices are k-colorable."""
    for k in range(1, g.n + 1):
        if alpha_k_exact(g, k, max_vertices=max_vertices) == g.n:
            return k
    raise AssertionError("unreachable: every graph is n-colorable")


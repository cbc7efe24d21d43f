"""Simple undirected graphs, DIMACS ingestion, and enumeration of the
cliques and 5-holes that parameterize cutting planes."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

# every pool a separator scans stops at this many rows, in the order
# found: cliques, 5-holes, and pairs of maximal cliques
MAX_POOL = 200_000


class DimacsError(ValueError):
    """Raised when a DIMACS edge-format stream cannot be parsed."""


class Graph:
    """Simple undirected graph on vertices 1..n.

    Self-loops are rejected; duplicate edges (in either orientation)
    collapse to a single edge.  Instances are treated as immutable.
    """

    __slots__ = ("n", "edges", "adj", "name")

    def __init__(self, n, edges=(), name=""):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        self.n = int(n)
        self.name = name
        adj = [set() for _ in range(self.n + 1)]
        dedup = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"vertex out of range in edge ({i}, {j})")
            if i > j:
                i, j = j, i
            dedup.add((i, j))
        for i, j in dedup:
            adj[i].add(j)
            adj[j].add(i)
        self.edges = frozenset(dedup)
        self.adj = tuple(frozenset(s) for s in adj)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def density(self):
        if self.n < 2:
            return 0.0
        return len(self.edges) / (self.n * (self.n - 1) / 2)

    def has_edge(self, i, j):
        return j in self.adj[i]

    def neighbors(self, i):
        return self.adj[i]

    def degree(self, i):
        return len(self.adj[i])

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Graph(n={self.n}, m={len(self.edges)}{tag})"


@dataclass
class CliqueEnumeration:
    """The enumerated cliques, the maximal ones of size 2..5 and then
    every 6-clique, each in the order found: ``members`` holds the
    ascending vertices of each as the rows of one intp array, padded with
    -1 to the largest size, and ``maximal`` marks the rows of maximal
    cliques, 6-cliques included."""

    members: np.ndarray = field(default_factory=lambda: np.empty((0, 1), np.intp))
    maximal: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    complete: bool = True  # False when the search stopped with cliques left

    def all_cliques(self):
        return self.members


def pad_rows(rows):
    """The integer lists ``rows`` as the rows of one intp array, padded
    with -1 to the longest (at least one column)."""
    sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    width = int(sizes.max(initial=1))
    out = np.full((len(rows), width), -1, dtype=np.intp)
    out[np.arange(width) < sizes[:, None]] = [v for row in rows for v in row]
    return out


@dataclass
class HoleEnumeration:
    """The chordless 5-cycles of a graph as the rows of an ``(H, 5)`` intp
    array, each in canonical cyclic order: the least vertex first, then
    the smaller of the two traversal directions.  Any sequence of
    5-vertex rows is accepted and stored in that array form."""

    holes: np.ndarray = field(default_factory=lambda: np.empty((0, 5), np.intp))
    complete: bool = True  # False when the search stopped with holes left

    def __post_init__(self):
        self.holes = np.asarray(self.holes, dtype=np.intp).reshape(-1, 5)


def parse_dimacs(data, name=""):
    """Parse a DIMACS edge-format document into a :class:`Graph`.

    Accepts ``str`` or ``bytes``.  Lines starting with ``c`` are comments,
    one ``p edge n m`` (or ``p col n m``) problem line is required, and
    every ``e i j`` line adds an edge.  Duplicate edges and both
    orientations collapse silently; a mismatch between the declared and
    the actual edge count is logged as a warning because many benchmark
    files are inconsistent.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")
    n = None
    declared_m = None
    edges = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: repeated problem line")
            if len(fields) != 4 or fields[1] not in ("edge", "edges", "col"):
                raise DimacsError(f"line {lineno}: malformed problem line {line!r}")
            try:
                n = int(fields[2])
                declared_m = int(fields[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed problem line {line!r}") from None
            if n < 1:
                raise DimacsError(f"line {lineno}: vertex count must be positive")
        elif fields[0] == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise DimacsError(f"line {lineno}: malformed edge line {line!r}")
            try:
                i, j = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed edge line {line!r}") from None
            if i == j:
                raise DimacsError(f"line {lineno}: self-loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise DimacsError(f"line {lineno}: vertex index out of range in {line!r}")
            edges.append((i, j))
        # any other line type is ignored, as DIMACS tools conventionally do
    if n is None:
        raise DimacsError("missing problem line")
    g = Graph(n, edges, name=name)
    if declared_m is not None and declared_m != g.num_edges:
        logger.warning(
            "DIMACS problem line declares %d edges but %d distinct edges found",
            declared_m, g.num_edges,
        )
    return g


def write_dimacs(g, name=None):
    """Serialize a graph to DIMACS edge format (inverse of parse_dimacs)."""
    lines = []
    if name or g.name:
        lines.append(f"c {name or g.name}")
    lines.append(f"p edge {g.n} {g.num_edges}")
    for i, j in sorted(g.edges):
        lines.append(f"e {i} {j}")
    return "\n".join(lines) + "\n"


def enumerate_cliques(g, deadline=None):
    """Enumerate maximal cliques of size 2..5 and every clique of size 6.

    Runs a Bron-Kerbosch recursion without pivoting so that each clique
    of size at most 6 is visited exactly once: branches that reach six
    vertices record the clique (with its maximality status) and do not
    recurse further.  Pivoting is deliberately not used because it skips
    the non-maximal six-vertex cliques that the caller needs.

    Returns a :class:`CliqueEnumeration` of the first ``MAX_POOL``
    cliques found; ``complete`` is False when a clique was left out,
    at that cap or at ``deadline``, a ``time.monotonic()`` value.  Each
    row is the branch's vertex list, ascending as ``visit`` takes the
    vertices of ``p`` in order.
    """
    small = []    # maximal cliques of 2..5 vertices
    six = []      # every 6-clique
    six_maximal = []
    complete = True
    adj = g.adj

    def visit(r, p, x):
        nonlocal complete
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            return
        if len(r) == 6 or not p and not x:
            if len(r) >= 2:
                if len(small) + len(six) == MAX_POOL:
                    complete = False
                    return
                if len(r) == 6:
                    six.append(r)
                    six_maximal.append(not p and not x)
                else:
                    small.append(r)
            return
        for v in sorted(p):
            if not complete:
                return
            nv = adj[v]
            visit(r + [v], p & nv, x & nv)
            p.remove(v)
            x.add(v)

    visit([], set(g.vertices), set())
    maximal = np.array([True] * len(small) + six_maximal, dtype=bool)
    return CliqueEnumeration(pad_rows(small + six), maximal, complete)


def extend_clique_greedy(g, clique, ell, X):
    """Greedily grow the vertex set ``clique`` (which must exclude
    ``ell``) to a larger clique, returned as a frozenset.

    At each step the vertex with the highest value of ``X[i, ell]`` among
    the common neighbors of the current clique is added, ties broken by
    the smallest vertex id, until no common neighbor other than ``ell``
    remains.  ``X`` is the bordered matrix, so vertex ids index it
    directly.
    """
    members = set(clique)
    if ell in members:
        raise ValueError("external vertex must not belong to the clique")
    common = None
    for v in members:
        common = set(g.adj[v]) if common is None else common & g.adj[v]
    common = common if common is not None else set()
    common.discard(ell)
    while common:
        best = min(common, key=lambda i: (-X[i, ell], i))
        members.add(best)
        common &= g.adj[best]
        common.discard(ell)
    return frozenset(members)


def enumerate_5holes(g, deadline=None):
    """Enumerate chordless 5-cycles, each reported exactly once.

    DFS over paths of length four anchored at the least vertex of the
    cycle, with chordlessness checked incrementally.  The canonical form
    anchors at the least id and takes the direction whose second vertex
    is smaller than its last.  The pool is one ``(H, 5)`` array of the
    first ``MAX_POOL`` holes, rows in the order found; ``complete`` is
    False if a hole was left out, at that cap or at ``deadline``.
    """
    flat = []  # five vertex ids per hole
    complete = _walk_5holes(g, deadline, flat)
    return HoleEnumeration(np.array(flat, dtype=np.intp), complete)


def _walk_5holes(g, deadline, flat):
    """Append the vertices of each canonical 5-hole of ``g`` to ``flat``
    until ``MAX_POOL`` holes or ``deadline``; False if either cut the
    search short."""
    adj = g.adj
    cap = 5 * MAX_POOL
    counter = 0
    for a in g.vertices:
        na = adj[a]
        for v1 in sorted(na):
            if v1 < a:
                continue
            for v2 in sorted(adj[v1]):
                counter += 1
                if counter % 512 == 0 and deadline is not None and time.monotonic() > deadline:
                    return False
                if v2 <= a or v2 in na:
                    continue
                for v3 in sorted(adj[v2]):
                    if v3 <= a or v3 == v1 or v3 in na or v3 in adj[v1]:
                        continue
                    # close the cycle: v4 adjacent to both v3 and a,
                    # non-adjacent to v1 and v2, and v1 < v4 fixes direction
                    for v4 in sorted(adj[v3] & na):
                        if v4 <= v1 or v4 == v2 or v4 in adj[v1] or v4 in adj[v2]:
                            continue
                        if len(flat) == cap:
                            return False
                        flat.extend((a, v1, v2, v3, v4))
    return True


def pair_pool_size(count):
    """How many of ``count`` items have all their pairs in one pool: the
    most m, at most ``count``, with m(m - 1)/2 <= ``MAX_POOL``."""
    return min(count, (1 + math.isqrt(1 + 8 * MAX_POOL)) // 2)


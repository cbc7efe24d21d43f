"""Valid inequalities for the k-colorable-subgraph relaxation: the
array-backed cut pool, separation, selection, and clustering."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .graph import extend_clique_greedy, pad_rows, pair_pool_size


class CutFamily(enum.IntEnum):
    """Cut families; the numeric order is the selection tie-break order."""

    T1 = 0
    CLIQUE_EXT = 1
    CLIQUE_UNION = 2
    HOLE5 = 3
    T2 = 4


class CutPool:
    """Cut rows ``sum_p data[p] x[indices[p]] <= rhs[r]`` over free-entry
    coordinates, in CSR form: row r holds the positions
    ``indptr[r]:indptr[r + 1]`` of ``indices``/``data``, its coordinates
    ascending, and ``family[r]``/``id[r]`` name it.

    Two rows are the same inequality when their coordinates, coefficients
    and right-hand sides are equal, whatever their family or id; the pool
    compares rows by those bytes, and holds the set of its own once
    ``novel`` has been asked.  Every coefficient (+-1, -2) and right-hand
    side (0, k) a separator emits is a small integer, so equal bytes mean
    equal inequalities.
    """

    def __init__(self, indptr=(0,), indices=(), data=(), rhs=(), family=(), id=()):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = np.asarray(data, dtype=np.float64)
        self.rhs = np.asarray(rhs, dtype=np.float64)
        self.family = np.asarray(family, dtype=np.int8)
        self.id = np.asarray(id, dtype=np.intp)
        self._keys = None

    @classmethod
    def from_padded(cls, coords, coeffs, rhs, family, ids):
        """Rows from the columns of ``coords`` (negative where a row has no
        entry) and the coefficients ``coeffs`` broadcast against them; one
        ``rhs`` and ``family`` for every row."""
        order = np.argsort(coords, axis=1)  # the missing entries first
        coords = np.take_along_axis(np.asarray(coords, dtype=np.intp), order, axis=1)
        coeffs = np.take_along_axis(
            np.broadcast_to(np.asarray(coeffs, dtype=np.float64), coords.shape),
            order, axis=1)
        keep = coords >= 0
        indptr = np.zeros(len(coords) + 1, dtype=np.intp)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return cls(indptr, coords[keep], coeffs[keep], np.full(len(coords), rhs),
                   np.full(len(coords), family), ids)

    def __len__(self):
        return len(self.rhs)

    def append(self, rows):
        """Add the rows of the pool ``rows`` after this pool's own."""
        self.indptr = np.r_[self.indptr, rows.indptr[1:] + len(self.indices)]
        for name in ("indices", "data", "rhs", "family", "id"):
            setattr(self, name, np.r_[getattr(self, name), getattr(rows, name)])
        if self._keys is not None:
            self._keys.update(rows.row_keys())

    def take(self, rows):
        """The pool of the rows ``rows`` (indices or a boolean mask), in
        that order."""
        rows = np.arange(len(self))[rows]
        lengths = np.diff(self.indptr)[rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(lengths, out=indptr[1:])
        pos = np.repeat(self.indptr[rows] - indptr[:-1], lengths)
        pos += np.arange(indptr[-1])
        return CutPool(indptr, self.indices[pos], self.data[pos], self.rhs[rows],
                       self.family[rows], self.id[rows])

    def rows(self):
        """``(coordinates, coefficients)`` of each row, as Python lists."""
        ptr = self.indptr.tolist()
        indices = self.indices.tolist()
        data = self.data.tolist()
        return [(indices[lo:hi], data[lo:hi]) for lo, hi in zip(ptr, ptr[1:])]

    def row_keys(self):
        """The canonical bytes of each row: right-hand side, coordinates
        and coefficients."""
        ptr = self.indptr.tolist()
        return [rhs.tobytes() + self.indices[lo:hi].tobytes()
                + self.data[lo:hi].tobytes()
                for rhs, lo, hi in zip(self.rhs, ptr, ptr[1:])]

    def novel(self, rows):
        """Boolean mask of the rows of the pool ``rows`` that repeat no row
        of this pool and no earlier row of ``rows``."""
        if self._keys is None:
            self._keys = set(self.row_keys())
        seen = set(self._keys)
        mask = np.zeros(len(rows), dtype=bool)
        for r, key in enumerate(rows.row_keys()):
            mask[r] = key not in seen
            seen.add(key)
        return mask


@dataclass
class SeparationReport:
    """Violated-cut candidates found by one or more separators: a pool
    and the violation of each of its rows."""

    candidates: CutPool = field(default_factory=CutPool)
    violation: np.ndarray = field(default_factory=lambda: np.empty(0))
    truncated: bool = False

    def merge(self, other):
        self.candidates.append(other.candidates)
        self.violation = np.concatenate([self.violation, other.violation])
        self.truncated = self.truncated or other.truncated
        return self

    def take(self, rows):
        return SeparationReport(self.candidates.take(rows), self.violation[rows],
                                self.truncated)


def _sanitize(X, fmap, k):
    """Force the bordered structure (zero edges, border = diagonal) so that
    matrix arithmetic on entries equals coefficient arithmetic on the
    free-entry vector."""
    return fmap.vec_to_mat(fmap.mat_to_vec(X), k)


def _report(coords, coeffs, rhs, family, violation, id_base, truncated=False):
    """The candidates with the coordinates in the rows of ``coords``
    (negative where a row has no entry) and ``coeffs`` in its columns,
    their violations, and ids from ``id_base`` on."""
    ids = np.arange(id_base, id_base + len(coords))
    return SeparationReport(
        CutPool.from_padded(coords, coeffs, rhs, family, ids),
        np.asarray(violation, dtype=np.float64), truncated,
    )


def separate_triangle(X, g, fmap, k, min_viol=1e-2, id_base=0):
    """Separate the three-vertex inequalities.

    For every unordered vertex triple, the three role assignments of the
    apex give cuts ``X[i,l] + X[j,l] <= X[l,l] + X[i,j]``; the second
    family ``sum X[ii] <= sum X[ij] + k`` over the triple is emitted only
    for k <= 2 (it is implied by the bound constraints otherwise) and
    never for triangles, where it is implied by the relaxation itself.
    Cuts come apex by apex, each apex's pairs (i, j) in lexicographic
    order, then the second family by lexicographic triple.
    """
    Xs = _sanitize(X, fmap, k)
    n = g.n
    diag = np.diagonal(Xs)
    coord = fmap.coord
    pairs = np.triu(np.ones((n + 1, n + 1), dtype=bool), 1)
    pairs[0] = False  # the pairs 1 <= i < j <= n
    t1 = [np.empty((0, 4), dtype=np.intp)]
    t1_viol = [np.empty(0)]
    for ell in range(1, n + 1):
        col = Xs[:, ell]
        # violation of the apex-ell cut for every pair (i, j)
        viol = col[:, None] + col[None, :] - diag[ell] - Xs
        hit = viol >= min_viol
        hit &= pairs
        hit[ell] = False
        hit[:, ell] = False
        ii, jj = np.nonzero(hit)
        t1.append(np.stack([coord[ii, ell], coord[jj, ell], coord[ii, jj],
                            np.full(len(ii), fmap.diag_coord(ell))], axis=1))
        t1_viol.append(viol[ii, jj])
    report = _report(np.concatenate(t1), (1.0, 1.0, -1.0, -1.0), 0.0,
                     CutFamily.T1, np.concatenate(t1_viol), id_base)
    if k > 2:
        return report
    t2 = [np.empty((0, 6), dtype=np.intp)]
    t2_viol = [np.empty(0)]
    adj = coord < 0  # edges, and the border, which no triple uses
    for i in range(1, n - 1):
        # v[j, l] for the triple (i, j, l), summed left to right
        row = Xs[i]
        v = (diag[i] + diag[:, None]) + diag[None, :]
        v -= row[:, None]
        v -= row[None, :]
        v -= Xs
        v -= k
        hit = v >= min_viol
        hit &= pairs
        hit[: i + 1] = False  # i < j < l
        hit &= ~(adj[i][:, None] & adj[i][None, :] & adj)  # triangles
        jj, ll = np.nonzero(hit)
        t2.append(np.stack([np.full(len(jj), fmap.diag_coord(i)),
                            fmap.diag_coord(jj), fmap.diag_coord(ll),
                            coord[i, jj], coord[i, ll], coord[jj, ll]], axis=1))
        t2_viol.append(v[jj, ll])
    return report.merge(_report(
        np.concatenate(t2), (1.0, 1.0, 1.0, -1.0, -1.0, -1.0), float(k),
        CutFamily.T2, np.concatenate(t2_viol), id_base + len(report.candidates),
    ))


# Each float64 temporary of one chunk of an array separator stays near
# this many bytes.
_CHUNK_BYTES = 1 << 19


def _chunk_rows(width):
    """Rows per chunk for temporaries of ``width`` floats a row."""
    return max(1, _CHUNK_BYTES // (8 * width))


def _padded(a, pad):
    """``a`` bordered by one more row and column of ``pad``, so that index
    -1 pads a vertex list: with -0.0, which leaves every float sum bit for
    bit as it is, or with the -1 of a missing coordinate."""
    return np.pad(a, (0, 1), constant_values=pad)


def _apex_hits(Xp, members, subtract, min_viol):
    """The pool rows and apexes whose violation
    ``Xp[members[r]].sum(axis=0)[l] - subtract[l]`` is not below
    ``min_viol``, for each apex l in 1..n outside the row, in row-major
    order, with those violations.

    The member rows are added left to right, which is what numpy's
    axis-0 sum does, so each violation is bit for bit that expression.
    As in a loop that skips ``v < min_viol``, a NaN is a hit.
    """
    width = Xp.shape[1]
    step = _chunk_rows(width)
    acc = np.empty((min(step, len(members)), width))
    buf = np.empty_like(acc)
    rows, apexes, viols = [], [], []
    for start in range(0, len(members), step):
        block = members[start:start + step]
        s = acc[: len(block)]
        t = buf[: len(block)]
        np.take(Xp, block[:, 0], axis=0, out=s)
        for col in range(1, block.shape[1]):
            np.take(Xp, block[:, col], axis=0, out=t)
            s += t
        s -= subtract
        hit = ~(s < min_viol)
        hit[:, 0] = False
        hit[:, -1] = False
        np.put_along_axis(hit, block, False, axis=1)
        r, c = np.nonzero(hit)
        rows.append(r + start)
        apexes.append(c)
        viols.append(s[r, c])
    if not rows:
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
    return np.concatenate(rows), np.concatenate(apexes), np.concatenate(viols)


def separate_clique_external(X, g, fmap, cliques, k, min_viol=1e-2, id_base=0):
    """Separate ``sum_{i in Q} X[i,l] <= X[l,l]`` over the cliques of the
    :class:`CliqueEnumeration` ``cliques`` and every external vertex.

    A violated cut on a non-maximal size-6 clique is first strengthened
    by greedy extension before being reported.  The violations of a
    chunk of cliques are computed at once; cuts come clique by clique,
    apex by apex.
    """
    Xs = _sanitize(X, fmap, k)
    xvec = fmap.mat_to_vec(Xs)
    Xp = _padded(Xs, -0.0)
    rows, apexes, _ = _apex_hits(Xp, cliques.members, np.diagonal(Xp), min_viol)
    hits = cliques.members[rows]
    sizes = (hits >= 0).sum(axis=1)
    targets = []
    for row, size, maximal, ell in zip(hits.tolist(), sizes.tolist(),
                                       cliques.maximal[rows].tolist(), apexes.tolist()):
        clique = frozenset(row[:size])
        if size == 6 and not maximal:
            clique = extend_clique_greedy(g, clique, ell, Xs)
        targets.append(list(clique))
    coords = _padded(fmap.coord, -1)[pad_rows(targets), apexes[:, None]]
    # the violation summed term by term in each clique's own (frozenset)
    # vertex order, bit for bit the per-cut sum the selection order was
    # first ranked by; -0.0 leaves a sum as it is
    viol = np.zeros(len(coords))
    for col in coords.T:
        viol += np.where(col >= 0, xvec[col], -0.0)
    diag = fmap.diag_coord(apexes)
    viol -= xvec[diag]
    viol -= 0.0  # the right-hand side
    keep = (coords >= 0).any(axis=1) & (viol >= min_viol)
    return _report(np.column_stack([coords, diag])[keep],
                   np.r_[np.ones(coords.shape[1]), -1.0], 0.0,
                   CutFamily.CLIQUE_EXT, viol[keep], id_base)


def separate_clique_union(X, g, fmap, cliques, k, min_viol=1e-2, id_base=0):
    """Separate the pairwise clique inequality
    ``sum_Q X[ii] + sum_Q' X[jj] <= sum cross X[ij] + k`` over disjoint
    pairs of maximal cliques of ``cliques`` whose sizes sum to more
    than k.  The pairs are those among the first maximal cliques, as
    many as have at most ``graph.MAX_POOL`` pairs; the report is
    truncated when that leaves a maximal clique out.

    The pairs are taken a chunk of equal clique sizes at a time, each
    pair's cross block and diagonals summed as one contiguous row: bit
    for bit the per-pair ``Xs[np.ix_(va, vb)].sum()`` and
    ``diag[va].sum()``.  As in a loop that skips ``v < min_viol``, a NaN
    is a hit.
    """
    Xs = _sanitize(X, fmap, k)
    members = cliques.members[cliques.maximal]
    npool = pair_pool_size(len(members))
    truncated = npool < len(members)
    members = members[:npool]
    sizes = (members >= 0).sum(axis=1)
    diag = np.diagonal(Xs)
    first, second = np.triu_indices(npool, 1)
    large = sizes[first] + sizes[second] > k
    first, second = first[large], second[large]
    # the pairs grouped by their two sizes
    width = members.shape[1]
    group = sizes[first] * (width + 1) + sizes[second]
    order = np.argsort(group)
    starts = np.flatnonzero(np.diff(group[order], prepend=-1)).tolist()
    hit = np.zeros(len(order), dtype=bool)
    viol = np.empty(len(order))
    for lo, hi in zip(starts, starts[1:] + [len(order)]):
        sa, sb = divmod(int(group[order[lo]]), width + 1)
        step = _chunk_rows(sa * sb)
        for start in range(lo, hi, step):
            pairs = order[start:min(hi, start + step)]
            va = members[first[pairs], :sa]
            vb = members[second[pairs], :sb]
            shared = (va[:, :, None] == vb[:, None, :]).reshape(len(pairs), -1).any(axis=1)
            cross = Xs[va[:, :, None], vb[:, None, :]].reshape(len(pairs), -1).sum(axis=1)
            v = diag[va].sum(axis=1) + diag[vb].sum(axis=1) - cross - k
            viol[pairs] = v
            hit[pairs] = ~shared & ~(v < min_viol)
    hits = np.flatnonzero(hit)
    qa = members[first[hits]]
    qb = members[second[hits]]
    coord = _padded(fmap.coord, -1)
    between = coord[qa[:, :, None], qb[:, None, :]].reshape(len(qa), width * width)
    return _report(
        np.concatenate([coord[qa, qa], coord[qb, qb], between], axis=1),
        np.r_[np.ones(2 * width), -np.ones(width * width)], float(k),
        CutFamily.CLIQUE_UNION, viol[hits], id_base, truncated,
    )


def separate_odd_hole(X, g, fmap, holes, k, min_viol=1e-2, id_base=0):
    """Separate ``sum_{i in C} X[i,l] <= 2 X[l,l]`` over the 5-holes of the
    :class:`HoleEnumeration` ``holes`` and external vertices.

    The violations of a chunk of holes are computed at once; cuts come
    hole by hole, apex by apex.
    """
    Xs = _sanitize(X, fmap, k)
    pool = holes.holes
    Xp = _padded(Xs, -0.0)
    rows, apexes, viols = _apex_hits(Xp, pool, 2.0 * np.diagonal(Xp), min_viol)
    coords = fmap.coord[pool[rows], apexes[:, None]]
    keep = (coords >= 0).any(axis=1)
    return _report(np.column_stack([coords, fmap.diag_coord(apexes)])[keep],
                   (1.0, 1.0, 1.0, 1.0, 1.0, -2.0), 0.0, CutFamily.HOLE5,
                   viols[keep], id_base)


def select_cuts(report, max_ineq, max_cuts_per_var):
    """Pick the rows of ``report.candidates`` to add this round, as a pool
    in the order picked.

    Candidates are sorted by violation descending (ties by family order,
    then id); one is accepted only if every coordinate of its support
    appears in fewer than ``max_cuts_per_var`` cuts already accepted this
    round, up to ``max_ineq`` in total.  Duplicates are the caller's to
    drop (``CutPool.novel``).
    """
    pool = report.candidates
    order = np.lexsort((pool.id, pool.family, -report.violation))
    rows = pool.rows()
    load = [0] * (int(pool.indices.max(initial=-1)) + 1)
    accepted = []
    for r in order.tolist():
        if len(accepted) >= max_ineq:
            break
        support = rows[r][0]
        if any(load[p] >= max_cuts_per_var for p in support):
            continue
        accepted.append(r)
        for p in support:
            load[p] += 1
    return pool.take(np.array(accepted, dtype=np.intp))


def cluster_cuts(cuts):
    """Partition the rows of the pool ``cuts`` into clusters of
    pairwise-disjoint supports.

    Greedy first-fit coloring of the conflict graph, processing rows in
    descending support size (ties by position); returns a list of
    ascending row index lists.
    """
    rows = cuts.rows()
    clusters = []
    occupied = []  # union of supports per cluster
    for idx in np.argsort(-np.diff(cuts.indptr), kind="stable").tolist():
        support = set(rows[idx][0])
        cid = next((c for c, taken in enumerate(occupied) if not taken & support),
                   len(clusters))
        if cid == len(clusters):
            clusters.append([])
            occupied.append(set())
        clusters[cid].append(idx)
        occupied[cid] |= support
    return [sorted(members) for members in clusters]

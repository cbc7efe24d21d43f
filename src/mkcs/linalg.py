"""Symmetric-matrix kernel: bordered matrices, spectral cone projections,
and the free-entry vectorization that bridges matrices and cut vectors.

All matrices are dense ``(n+1) x (n+1)`` numpy arrays whose row and
column 0 border the actual n-vertex block; vertex ids 1..n therefore
index the matrices directly.
"""

from __future__ import annotations

import math

import numpy as np


def augmented_identity(n):
    """The bordered identity: zeros except for an identity inner block."""
    a = np.zeros((n + 1, n + 1))
    a[1:, 1:] = np.eye(n)
    return a


def initial_iterate(n, k):
    """The standard starting matrix: corner k, border of ones, identity block."""
    a = augmented_identity(n)
    a[0, 0] = k
    a[0, 1:] = 1.0
    a[1:, 0] = 1.0
    return a


def symmetrize(a):
    return (a + a.T) / 2.0


def project_psd(a, rank_hint=None):
    """Project a symmetric matrix onto the positive-semidefinite cone.

    Spectral decomposition with negative eigenvalues clipped to zero.

    ``rank_hint`` is for callers that project a slowly moving iterate:
    the rank of the previous projection.  With it the call returns
    ``(projection, rank)``, the rank being the number of eigenvalues
    above zero.  While the hint is below a fifth of the order only those
    eigenpairs are computed, which is cheaper at low rank and dearer at
    high rank; otherwise the full solve runs, bit for bit the one
    without a hint.
    """
    if not np.isfinite(a).all():
        raise ValueError("cannot eigendecompose a matrix with non-finite entries")
    if rank_hint is not None and 5 * rank_hint < a.shape[0]:
        return _project_psd_positive_part(a)
    vals, vecs = np.linalg.eigh(a)
    np.clip(vals, 0.0, None, out=vals)
    out = symmetrize((vecs * vals) @ vecs.T)
    if rank_hint is None:
        return out
    return out, int(np.count_nonzero(vals))


def _project_psd_positive_part(a):
    """``project_psd`` from the eigenpairs in (0, vu] alone (LAPACK
    ``dsyevr``), with vu above every eigenvalue; returns the projection
    and its rank."""
    from scipy.linalg import lapack  # loaded here: 0.3 s off every start-up

    flat = a.ravel()
    vu = 2.0 * math.sqrt(flat.dot(flat)) + 1.0  # the Frobenius norm bounds them
    vals, vecs, rank, _, info = lapack.dsyevr(
        a, compute_v=1, range="V", lower=1, vl=0.0, vu=vu
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed (info {info})")
    half = vecs[:, :rank] * np.sqrt(vals[:rank])
    # a product with its own transpose is computed as an exactly symmetric one
    return half @ half.T, rank


def project_nsd(a):
    """Project onto the negative-semidefinite cone: -PSD projection of -A."""
    return -project_psd(-a)


class FreeIndexMap:
    """Bijection between free matrix positions and coordinates of R^m.

    The free positions of a graph on n vertices are the diagonal entries
    (i, i) and the non-edge pairs (i, j) with i < j; edges are pinned to
    zero and the border row/column is slaved to the diagonal.  Coordinates
    0..n-1 are the diagonal entries of vertices 1..n, followed by the
    non-edge pairs in lexicographic order.  ``weights`` carries 3 for
    diagonal coordinates (entry plus its two border copies) and 2 for
    off-diagonal ones (upper plus lower triangle).
    """

    def __init__(self, g):
        self.graph = g
        n = g.n
        self.n = n
        pairs = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if not g.has_edge(i, j)
        ]
        self.m = n + len(pairs)
        self.pair_rows = np.array([p[0] for p in pairs], dtype=np.intp)
        self.pair_cols = np.array([p[1] for p in pairs], dtype=np.intp)
        self.pair_index = {pair: n + idx for idx, pair in enumerate(pairs)}
        self.weights = np.concatenate(
            [np.full(n, 3.0), np.full(len(pairs), 2.0)]
        )
        # Flat positions in the bordered matrix: ``free_flat[i]`` is the
        # entry that coordinate i reads (diagonal or upper triangle), and
        # ``vec_to_mat`` writes coordinate ``fill_src[j]`` to ``fill_dst[j]``
        # (each diagonal coordinate to its diagonal entry and both border
        # copies, each pair coordinate to both triangles).
        order = n + 1
        verts = np.arange(1, n + 1)
        diag = verts * (order + 1)
        upper = self.pair_rows * order + self.pair_cols
        lower = self.pair_cols * order + self.pair_rows
        self.free_flat = np.concatenate([diag, upper])
        self.fill_dst = np.concatenate([diag, verts, verts * order, upper, lower])
        diag_src = np.arange(n)
        pair_src = np.arange(n, self.m)
        self.fill_src = np.concatenate(
            [diag_src, diag_src, diag_src, pair_src, pair_src]
        )

    def diag_coord(self, i):
        """Coordinate of the diagonal entry of vertex i."""
        return i - 1

    def pair_coord(self, i, j):
        """Coordinate of the off-diagonal non-edge {i, j}; KeyError on edges."""
        if i > j:
            i, j = j, i
        return self.pair_index[(i, j)]

    def mat_to_vec(self, a):
        """Free-entry vector of a bordered matrix.

        Diagonal coordinates blend the diagonal with the border,
        1/3 * A[i,i] + 2/3 * A[0,i], so that the weighted projection of
        the vector reproduces the Frobenius projection of the matrix.
        """
        a = np.asarray(a, dtype=np.float64)
        v = a.take(self.free_flat)
        d = v[: self.n]
        d /= 3.0
        d += a[0, 1:] * (2.0 / 3.0)
        return v

    def vec_to_mat(self, v, k, out=None):
        """Bordered matrix of a free-entry vector: corner k, border equal to
        the diagonal, edges exactly zero.  Written into ``out`` when given,
        a C-contiguous ``(n+1) x (n+1)`` array that is overwritten whole."""
        if out is None:
            out = np.zeros((self.n + 1, self.n + 1))
        else:
            out.fill(0.0)
        out[0, 0] = float(k)
        out.put(self.fill_dst, np.take(v, self.fill_src))
        return out

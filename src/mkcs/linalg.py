"""Symmetric-matrix kernel: bordered matrices, spectral cone projections,
and the free-entry vectorization that bridges matrices and cut vectors.

All matrices are dense ``(n+1) x (n+1)`` numpy arrays whose row and
column 0 border the actual n-vertex block; vertex ids 1..n therefore
index the matrices directly.
"""

from __future__ import annotations

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


def project_psd(a):
    """Project a symmetric matrix onto the positive-semidefinite cone.

    Spectral decomposition with negative eigenvalues clipped to zero.
    """
    if not np.isfinite(a).all():
        raise ValueError("cannot eigendecompose a matrix with non-finite entries")
    vals, vecs = np.linalg.eigh(a)
    np.clip(vals, 0.0, None, out=vals)
    return symmetrize((vecs * vals) @ vecs.T)


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
        n = self.n
        v = np.empty(self.m)
        v[:n] = np.diagonal(a)[1:] / 3.0 + a[0, 1:] * (2.0 / 3.0)
        v[n:] = a[self.pair_rows, self.pair_cols]
        return v

    def vec_to_mat(self, v, k):
        """Bordered matrix of a free-entry vector: corner k, border equal to
        the diagonal, edges exactly zero."""
        n = self.n
        a = np.zeros((n + 1, n + 1))
        a[0, 0] = float(k)
        d = v[:n]
        idx = np.arange(1, n + 1)
        a[idx, idx] = d
        a[0, 1:] = d
        a[1:, 0] = d
        a[self.pair_rows, self.pair_cols] = v[n:]
        a[self.pair_cols, self.pair_rows] = v[n:]
        return a

"""Symmetric-matrix kernel: bordered matrices, spectral cone projections,
and the free-entry vectorization that bridges matrices and cut vectors.

All matrices are dense ``(n+1) x (n+1)`` numpy arrays whose row and
column 0 border the actual n-vertex block; vertex ids 1..n therefore
index the matrices directly.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

FLAPACK = "scipy.linalg._flapack"


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


def symmetrize(a, out=None):
    """``(a + a.T) / 2``, into ``out`` when given; ``out`` may be ``a``."""
    out = np.add(a, a.T, out=out)
    out /= 2.0
    return out


def project_psd(a, rank_hint=None):
    """Project a symmetric matrix onto the positive-semidefinite cone.

    Spectral decomposition with negative eigenvalues clipped to zero.

    ``rank_hint`` is for callers that project a slowly moving iterate:
    the rank of the previous projection.  With it the call returns
    ``(projection, rank)``, the rank being the number of eigenvalues
    above the rounding noise ``order * eps * ||a||_F``.  While the hint is
    below a fifth of the order only the eigenpairs above zero are
    computed, which is cheaper at low rank and dearer at high rank;
    otherwise the full solve runs, bit for bit the one without a hint.
    """
    if not np.isfinite(a).all():
        raise ValueError("cannot eigendecompose a matrix with non-finite entries")
    if rank_hint is not None and 5 * rank_hint < a.shape[0]:
        return _project_psd_positive_part(a)
    vals, vecs = np.linalg.eigh(a)
    np.maximum(vals, 0.0, out=vals)  # np.clip's signed zeros, without its wrapper
    out = (vecs * vals) @ vecs.T
    symmetrize(out, out=out)
    if rank_hint is None:
        return out
    return out, _rank(vals, a.shape[0], _frobenius_norm(a))


def _frobenius_norm(a):
    flat = a.ravel()
    return math.sqrt(flat.dot(flat))


def _rank(vals, order, norm):
    """The number of eigenvalues in ``vals`` above the rounding noise of
    an eigensolve of an order-``order`` matrix of Frobenius norm ``norm``."""
    return int(np.count_nonzero(vals > order * np.finfo(np.float64).eps * norm))


def _project_psd_positive_part(a):
    """``project_psd`` from the eigenpairs in (0, vu] alone (LAPACK
    ``dsyevr``), with vu above every eigenvalue; returns the projection
    and its rank."""
    norm = _frobenius_norm(a)
    vu = 2.0 * norm + 1.0  # the Frobenius norm bounds them
    vals, vecs, count, _, info = flapack().dsyevr(
        a, compute_v=1, range="V", lower=1, vl=0.0, vu=vu
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed (info {info})")
    half = vecs[:, :count] * np.sqrt(vals[:count])
    # a product with its own transpose is computed as an exactly symmetric one
    return half @ half.T, _rank(vals[:count], a.shape[0], norm)


@functools.cache
def flapack():
    """scipy's compiled LAPACK wrapper, the extension module
    ``scipy.linalg._flapack``, loaded from its file.

    Importing ``scipy.linalg`` for it would cost about 0.3 s (2 vCPUs)
    and 17 MB of peak memory, most of it in array-API support that this
    package never uses.  The module is registered under its own name, so a later
    ``import scipy.linalg`` reuses it, and one imported before is reused
    here: either way there is one module object.
    """
    module = sys.modules.get(FLAPACK)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError(f"{FLAPACK} is needed, but scipy is not installed",
                          name=FLAPACK)
    linalg_dir = Path(spec.submodule_search_locations[0], "linalg")
    paths = [linalg_dir / f"_flapack{suffix}"
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(
            f"{FLAPACK} not found: none of {', '.join(map(str, paths))} exists",
            name=FLAPACK, path=str(paths[0]),
        )
    loader = importlib.machinery.ExtensionFileLoader(FLAPACK, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(FLAPACK, path, loader=loader))
    loader.exec_module(module)
    sys.modules[FLAPACK] = module
    return module


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
        # ``coord[i, j]`` is the coordinate of entry (i, j) of the inner
        # block, in either triangle, and -1 where an edge pins it to zero
        # (and on the border)
        self.coord = np.full((order, order), -1, dtype=np.intp)
        self.coord[verts, verts] = diag_src
        self.coord[self.pair_rows, self.pair_cols] = pair_src
        self.coord[self.pair_cols, self.pair_rows] = pair_src

    def diag_coord(self, i):
        """Coordinate of the diagonal entry of vertex i."""
        return i - 1

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

"""Reference code that only the tests use: the ``Hole5`` object that once
held each enumerated 5-hole, the rank of a clique or odd hole under a
colour budget, the weighted projection onto one cut's
halfspace, the objective of a bordered iterate, and the cut-free affine
projection and sphere projection as they were written before their
buffered rewrites.  The solver never calls these; the tests check the
production code against them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mkcs.graph import Clique
from mkcs.intadmm import sphere_center
from mkcs.linalg import augmented_identity


@dataclass(frozen=True)
class Hole5:
    """A chordless 5-cycle, stored in canonical cyclic order: the least
    vertex first, then the smaller of the two traversal directions.  The
    enumeration now returns these as the rows of an ``(H, 5)`` array."""

    vertices: tuple

    def __len__(self):
        return 5


def kappa_rank(structure, kappa):
    """Largest number of vertices of the structure colorable with ``kappa``
    colors: min(kappa, |Q|) for a clique, min(kappa*(|C|-1)/2, |C|) for an
    odd hole, and 0 when kappa is 0."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    size = len(structure)
    if isinstance(structure, Hole5) or (
        not isinstance(structure, Clique) and isinstance(structure, tuple)
    ):
        return min(kappa * (size - 1) // 2, size)
    return min(kappa, size)


def project_halfspace_weighted(x, cut, w):
    """Weighted projection onto the halfspace ``a.x <= b`` of one cut:
    ``x - (a.x - b)_+ / (a' W^-1 a) * W^-1 a``.  Coordinates outside the
    cut's support are untouched; feasible inputs are returned unchanged.
    """
    if not cut.coeffs:
        raise ValueError("cannot project onto a cut with empty support")
    idx = np.fromiter(cut.coeffs.keys(), dtype=np.intp, count=len(cut.coeffs))
    a = np.fromiter(cut.coeffs.values(), dtype=np.float64, count=len(cut.coeffs))
    viol = float(a @ x[idx]) - cut.rhs
    if viol <= 0.0:
        return x
    winv_a = a / w[idx]
    out = x.copy()
    out[idx] -= (viol / float(a @ winv_a)) * winv_a
    return out


def admm_objective(x):
    """Objective value of a bordered iterate: the trace of the inner block."""
    return float(np.trace(x[1:, 1:]))


def affine_box_reference(u, fmap, k):
    """The cut-free ``project_affine_set``: the free-entry vector of ``u``,
    clamped to the unit box, rebuilt as a bordered matrix with corner k."""
    n = fmap.n
    v = np.empty(fmap.m)
    v[:n] = np.diagonal(u)[1:] / 3.0 + u[0, 1:] * (2.0 / 3.0)
    v[n:] = u[fmap.pair_rows, fmap.pair_cols]
    v = np.minimum(np.maximum(0.0, v), 1.0)
    a = np.zeros((n + 1, n + 1))
    a[0, 0] = float(k)
    d = v[:n]
    idx = np.arange(1, n + 1)
    a[idx, idx] = d
    a[0, 1:] = d
    a[1:, 0] = d
    a[fmap.pair_rows, fmap.pair_cols] = v[n:]
    a[fmap.pair_cols, fmap.pair_rows] = v[n:]
    return a


def project_sphere_reference(a, k, fix_corner=False):
    """``project_sphere`` rebuilding the center and radius on every call."""
    n = a.shape[0] - 1
    center = sphere_center(n, k)
    if fix_corner:
        offset = a - center
        offset[0, 0] = 0.0  # corner replaced by the pinned value
        radius = math.sqrt((n + 1) ** 2 - 1) / 2.0
        norm = float(np.linalg.norm(offset))
        if norm < 1e-12:
            offset = augmented_identity(n)
            norm = math.sqrt(n)
        out = (radius / norm) * offset + center
        out[0, 0] = float(k)
        return out
    offset = a - center
    norm = float(np.linalg.norm(offset))
    if norm < 1e-12:
        offset = augmented_identity(n)
        norm = math.sqrt(n)
    return ((n + 1) / 2.0 / norm) * offset + center

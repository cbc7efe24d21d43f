"""Reference code that only the tests use: the rank of a clique or odd
hole under a colour budget, the weighted projection onto one cut's
halfspace, and the objective of a bordered iterate.  The solver never
calls these; the tests check the production code against them."""

from __future__ import annotations

import numpy as np

from mkcs.graph import Clique, Hole5


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

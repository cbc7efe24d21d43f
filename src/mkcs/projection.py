"""Projections onto the affine feasible set of the relaxation: the unit
box, weighted halfspaces, Dykstra's cyclic scheme over clustered cuts,
and the three-step matrix<->vector procedure tying them together."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# a Dykstra call stops within EPS_DYK or after DYK_MAX_CYCLES cycles (a cap-out)
EPS_DYK = 1e-2
DYK_MAX_CYCLES = 100


def project_box(x, out=None):
    """Componentwise clamp to [0, 1]; the weighted and unweighted
    projections coincide because the box is separable.  Bitwise equal to
    ``np.clip(x, 0.0, 1.0)``, signed zeros included, without its Python
    wrapper; ``out`` may be ``x`` itself."""
    out = np.maximum(0.0, x, out=out)
    return np.minimum(out, 1.0, out=out)


class CutArrays(NamedTuple):
    """Flat arrays of a run of cuts, each cut's coordinates sorted."""

    idx: np.ndarray      # coordinates, cut after cut
    a: np.ndarray        # coefficients at idx
    winv_a: np.ndarray   # W^-1 a at idx
    starts: np.ndarray   # first position of each cut in idx
    lengths: np.ndarray  # support size of each cut
    rhs: np.ndarray
    denom: np.ndarray    # a' W^-1 a of each cut


def _excess(cuts, z):
    """``a.z - rhs`` of every cut of the ``CutArrays`` ``cuts``, given the
    values ``z`` at its coordinates ``idx``."""
    _, a, _, starts, _, rhs, _ = cuts
    viol = np.add.reduceat(a * z, starts)
    viol -= rhs
    return viol


def _project_cluster(grp, z):
    """Simultaneous weighted projection of ``z``, the values at a cluster's
    coordinates, onto each of its halfspaces (their supports are
    disjoint).  Returns the projected values as a new array, or None when
    no cut is violated and ``z`` is its own projection."""
    _, _, winv_a, _, lengths, _, denom = grp
    viol = _excess(grp, z)
    np.maximum(viol, 0.0, out=viol)
    if not np.count_nonzero(viol):
        return None
    viol /= denom
    return z - viol.repeat(lengths) * winv_a


class ClusteredCuts:
    """Flat array view of a :class:`CutPool`'s rows grouped into
    disjoint-support clusters.

    Within a cluster all member halfspace projections act on disjoint
    coordinates, so one Dykstra pass applies them simultaneously.  The
    rows are taken once, cluster after cluster, from the pool rows
    ``order``; ``groups[gid]`` holds the ``CutArrays`` of cluster ``gid``,
    views into the arrays of every cut that the two methods read.
    ``corrections`` holds Dykstra's corrections from the last projection
    onto it (None before the first; see :func:`dykstra`).
    """

    def __init__(self, cuts, clusters, w):
        self.corrections = None
        self.order = np.array([ci for members in clusters for ci in members],
                              dtype=np.intp)
        rows = cuts.take(self.order)
        idx, a, ptr = rows.indices, rows.data, rows.indptr
        winv_a = a / w[idx]
        # one dot product per cut, as the projection onto that cut alone
        # computes its denominator
        denom = np.array([a[lo:hi] @ winv_a[lo:hi]
                          for lo, hi in zip(ptr[:-1].tolist(), ptr[1:].tolist())])
        starts, lengths = ptr[:-1], np.diff(ptr)
        self._all = CutArrays(idx, a, winv_a, starts, lengths, rows.rhs, denom)
        self.groups = []
        first = lo = 0
        for members in clusters:
            last = first + len(members)
            hi = ptr[last]
            self.groups.append(CutArrays(
                idx[lo:hi], a[lo:hi], winv_a[lo:hi], starts[first:last] - lo,
                lengths[first:last], rows.rhs[first:last], denom[first:last],
            ))
            first, lo = last, hi

    def __len__(self):
        return len(self._all.rhs)

    def max_violation(self, x):
        if len(self._all.rhs) == 0:
            return 0.0
        return float(_excess(self._all, x[self._all.idx]).max())

    def multipliers(self):
        """The scalar ``t_i``, clipped at 0, of each pool row ``i`` in the
        Dykstra ``corrections`` on this clustering (zeros for None): a
        cluster's correction is ``-t_i W^-1 a_i`` on row ``i``'s coordinates."""
        t = np.zeros(len(self))
        if self.corrections is not None and len(self):
            # the clusters that dykstra visits, with their corrections
            pairs = zip([grp for grp in self.groups if len(grp.idx)],
                        self.corrections[1], strict=True)
            flat = np.concatenate([np.zeros(len(grp.idx)) if c is None else c
                                   for grp, c in pairs])
            # a . correction = -t a' W^-1 a = -t denom
            _, a, _, starts, _, _, denom = self._all
            t[self.order] = np.maximum(-np.add.reduceat(a * flat, starts) / denom, 0.0)
        return t


@dataclass
class DykstraResult:
    x: np.ndarray          # returned iterate (box-clamped when capped out)
    feasible: bool
    cycles: int
    raw: np.ndarray = None  # final iterate before any cap-out clamp
    # (box, per-cluster) corrections at ``raw``: raw - their sum = x0
    corrections: tuple = None


def dykstra(x0, w, clustered, eps=EPS_DYK, max_cycles=DYK_MAX_CYCLES, corrections=None):
    """Cyclic projection with correction terms onto box /\\ halfspaces.

    Cycle order is the box first, then cut clusters in index order.  For
    each set: subtract its stored correction, project (weighted), store
    the new correction as projected minus input-with-correction-removed.
    Terminates when, at the end of a cycle, the largest cut and box
    violations are at most ``eps`` and the iterate moved by at most
    ``eps`` over the cycle (feasibility alone can hold many cycles before
    the iterate settles near the projection); hitting ``max_cycles``
    returns the box-projected iterate flagged infeasible so downstream
    bounds stay meaningful.

    ``corrections`` warm-starts the method from the ``(box, per-cluster)``
    corrections that an earlier call on the same ``clustered`` returned
    (a per-cluster entry is None for a zero correction, and empty
    clusters have none).  The iterate then starts at ``x0`` plus their
    sum, so ``x - sum(corrections) = x0`` holds as in a cold start and
    the limit is still the projection of ``x0``: Dykstra's method is
    block-coordinate ascent on the dual of the projection, and only the
    dual start moves.  Without them the corrections start at zero.

    Every iterate is bitwise the one of the textbook sequence that
    projects onto the box and then onto each halfspace in turn, each with
    its own correction.  The cycle only skips work that cannot change a
    bit: a cluster's values are gathered once and scattered at most once,
    and a zero correction is not stored, so a cluster that had none and
    is not violated is not written at all.
    """
    x = np.array(x0, dtype=np.float64)
    y = np.empty_like(x)
    step = np.empty_like(x)
    groups = [grp for grp in clustered.groups if len(grp.idx)]
    if corrections is None:
        corr_box = np.zeros_like(x)
        corr = [None] * len(groups)  # None: a zero correction
    else:
        corr_box = np.array(corrections[0], dtype=np.float64)
        corr = list(corrections[1])
        if len(corr) != len(groups):
            raise ValueError(f"{len(corr)} cluster corrections for {len(groups)} "
                             "clusters: they belong to another clustering")
        x += corr_box
        for grp, c in zip(groups, corr):
            if c is not None:
                x[grp.idx] += c  # a cluster's coordinates are distinct
    for cycle in range(1, max_cycles + 1):
        np.subtract(x, corr_box, out=y)
        np.copyto(step, x)
        project_box(y, out=x)
        np.subtract(x, y, out=corr_box)
        for gid, grp in enumerate(groups):
            idx = grp.idx
            z = x[idx]
            c = corr[gid]
            if c is not None:
                z -= c
            z2 = _project_cluster(grp, z)
            if z2 is not None:
                x[idx] = z2
                corr[gid] = z2 - z
            elif c is not None:
                x[idx] = z
                corr[gid] = None
        np.subtract(x, step, out=step)
        if float(np.abs(step, out=step).max()) <= eps:
            box_viol = max(float(x.max()) - 1.0, -float(x.min()), 0.0)
            if max(clustered.max_violation(x), box_viol) <= eps:
                return DykstraResult(x, True, cycle, x, (corr_box, corr))
    return DykstraResult(project_box(x), False, max_cycles, x, (corr_box, corr))


@dataclass
class AffineProjection:
    matrix: np.ndarray
    feasible: bool
    cycles: int


def project_affine_set(u, fmap, k, clustered=None, eps_dyk=EPS_DYK,
                       max_cycles=DYK_MAX_CYCLES, out=None):
    """Frobenius projection of a bordered symmetric matrix onto the affine
    set (zero edges, border = diagonal, corner = k, unit box, cuts).

    Three steps: extract the weighted free-entry vector, project it onto
    the box (exactly, when there are no cuts) or the box-and-halfspace
    intersection via Dykstra, warm-started from ``clustered.corrections``
    and leaving its final ones there (see :func:`dykstra`), and rebuild the
    bordered matrix, into ``out`` when given (see ``FreeIndexMap.vec_to_mat``).
    """
    v = fmap.mat_to_vec(u)
    if clustered is None or len(clustered) == 0:
        return AffineProjection(fmap.vec_to_mat(project_box(v, out=v), k, out), True, 0)
    res = dykstra(v, fmap.weights, clustered, eps=eps_dyk, max_cycles=max_cycles,
                  corrections=clustered.corrections)
    clustered.corrections = res.corrections
    return AffineProjection(fmap.vec_to_mat(res.x, k, out), res.feasible, res.cycles)

"""Reference Dykstra implementation: one correction array per cut cluster,
a full gather, copy and scatter per cluster visit, and ``np.clip`` for
every clamp.  It is kept as the bitwise yardstick for the fused kernel
in ``mkcs.projection``, which must reproduce its every iterate, cold or
warm-started from earlier corrections.
"""

from __future__ import annotations

import numpy as np

from mkcs.projection import DykstraResult


def project_box(x):
    return np.clip(x, 0.0, 1.0)


class ReferenceClusteredCuts:
    """Per-cluster dict view of cuts grouped into disjoint-support clusters."""

    def __init__(self, cuts, clusters, w):
        self.cuts = cuts
        self.clusters = clusters
        self.groups = []
        all_idx = []
        all_a = []
        for members in clusters:
            idx_parts = []
            a_parts = []
            starts = [0]
            rhs = np.empty(len(members))
            denom = np.empty(len(members))
            for pos, ci in enumerate(members):
                cut = cuts[ci]
                items = sorted(cut.coeffs.items())
                idx = np.array([p for p, _ in items], dtype=np.intp)
                a = np.array([v for _, v in items])
                idx_parts.append(idx)
                a_parts.append(a)
                starts.append(starts[-1] + len(idx))
                rhs[pos] = cut.rhs
                denom[pos] = float(a @ (a / w[idx]))
            idx = np.concatenate(idx_parts) if idx_parts else np.empty(0, dtype=np.intp)
            a = np.concatenate(a_parts) if a_parts else np.empty(0)
            lengths = np.diff(starts)
            self.groups.append(
                {
                    "idx": idx,
                    "a": a,
                    "winv_a": a / w[idx] if len(idx) else a,
                    "starts": np.array(starts[:-1], dtype=np.intp),
                    "lengths": lengths,
                    "rhs": rhs,
                    "denom": denom,
                }
            )
            all_idx.append(idx)
            all_a.append(a)
        # flattened view over every cut, for the end-of-cycle violation check
        self._chk_idx = np.concatenate(all_idx) if all_idx else np.empty(0, dtype=np.intp)
        self._chk_a = np.concatenate(all_a) if all_a else np.empty(0)
        starts = []
        rhs = []
        offset = 0
        for grp in self.groups:
            starts.extend(offset + int(s) for s in grp["starts"])
            rhs.extend(grp["rhs"])
            offset += len(grp["idx"])
        self._chk_starts = np.array(starts, dtype=np.intp)
        self._chk_rhs = np.array(rhs)

    def __len__(self):
        return len(self.cuts)

    def max_violation(self, x):
        if len(self._chk_rhs) == 0:
            return 0.0
        sums = np.add.reduceat(self._chk_a * x[self._chk_idx], self._chk_starts)
        return float(np.max(sums - self._chk_rhs))

    def project_cluster(self, x, gid):
        grp = self.groups[gid]
        idx = grp["idx"]
        if len(idx) == 0:
            return
        vals = grp["a"] * x[idx]
        viol = np.add.reduceat(vals, grp["starts"]) - grp["rhs"]
        np.clip(viol, 0.0, None, out=viol)
        if not viol.any():
            return
        scale = np.repeat(viol / grp["denom"], grp["lengths"])
        x[idx] -= scale * grp["winv_a"]


def reference_dykstra(x0, w, clustered, eps=1e-2, max_cycles=100, corrections=None):
    """``dykstra`` over a ``ReferenceClusteredCuts``, as first written.

    ``corrections``, ``(box, per-cluster arrays)``, warm-starts it as the
    textbook sequence does: the iterate starts at ``x0`` plus the box
    correction and then each cluster's, in cluster order.  The result
    carries the final corrections in that form."""
    x = np.asarray(x0, dtype=np.float64).copy()
    corr_box = np.zeros_like(x)
    ngroups = len(clustered.groups)
    corr = [np.zeros(len(g["idx"])) for g in clustered.groups]
    if corrections is not None:
        corr_box = np.array(corrections[0], dtype=np.float64)
        corr = [np.array(c, dtype=np.float64) for c in corrections[1]]
        x += corr_box
        for grp, c in zip(clustered.groups, corr, strict=True):
            x[grp["idx"]] += c
    for cycle in range(1, max_cycles + 1):
        prev = x.copy()
        y = x - corr_box
        x = project_box(y)
        corr_box = x - y
        for gid in range(ngroups):
            grp = clustered.groups[gid]
            idx = grp["idx"]
            if len(idx) == 0:
                continue
            x[idx] -= corr[gid]
            before = x[idx].copy()
            clustered.project_cluster(x, gid)
            corr[gid] = x[idx] - before
        box_viol = max(float(x.max()) - 1.0, -float(x.min()), 0.0)
        drift = float(np.max(np.abs(x - prev)))
        if max(clustered.max_violation(x), box_viol) <= eps and drift <= eps:
            return DykstraResult(x, True, cycle, x, (corr_box, corr))
    return DykstraResult(project_box(x), False, max_cycles, x, (corr_box, corr))

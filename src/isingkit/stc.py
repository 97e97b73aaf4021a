"""Online space-time cluster tracking over flip trajectories.

A space-time point (x, t) with a plus spin connects to simultaneous plus
points at nearest-neighbor sites and to plus points at the same site over a
plus-persistent time interval.  The tracker keeps, per live cluster, the
maximal per-site plus intervals, an exact bounding box for the sup-norm
diameter, and the times at which the diameter grew; merges only ever combine
clusters.  Coordinates are global (box origin included), so ledgers from
shared-stream runs on different boxes or boundaries are directly comparable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .kmc import Trajectory
from .lattice import Configuration
from .unionfind import UnionFind


@dataclass
class ClusterView:
    """Immutable summary of one finished or live cluster."""

    cid: int
    segments: frozenset        # (coord, t_on, t_off or None while open)
    lo: tuple
    hi: tuple
    birth: float
    death: float               # None while alive at the horizon
    diameter: int


class StcLedger:
    def __init__(self, ctx, trajectory):
        self.ctx = ctx
        self.trajectory = trajectory
        self.t_end = trajectory.t_end
        self.uf = UnionFind()
        self._records = {}         # root -> record dict
        self.diameter_events = []  # (time, root, new diameter)
        self._max_diameter = 0     # the largest diameter in diameter_events
        self.crossing_times = {}   # axis -> first time a cluster spans the box

    # -- bookkeeping -----------------------------------------------------

    def _record(self, coord, t):
        """A new cluster of the one site coord, plus from time t, born with
        diameter 0."""
        root = self.uf.add()
        self._records[root] = {
            "segments": [], "open": {coord: t}, "lo": list(coord),
            "hi": list(coord), "birth": t, "death": None,
        }
        self._grew(t, root, 0)
        return root

    def _grew(self, t, root, diam):
        """Cluster root's diameter grew to diam at time t.  A bounding box
        only grows and every growth past the old diameter is recorded here,
        so the largest recorded diameter is the largest of all clusters."""
        self.diameter_events.append((t, root, diam))
        if diam > self._max_diameter:
            self._max_diameter = diam

    def _diam(self, rec):
        return max(h - l for l, h in zip(rec["lo"], rec["hi"]))

    def _check_crossing(self, root, t):
        rec = self._records[root]
        geom = self.ctx.geometry
        origin = self.ctx.origin
        for axis in range(geom.dimension):
            if axis in self.crossing_times:
                continue
            if rec["lo"][axis] <= origin[axis] and \
                    rec["hi"][axis] >= origin[axis] + geom.dims[axis] - 1:
                self.crossing_times[axis] = t

    def _merge(self, roots):
        main = roots[0]
        rec = self._records[main]
        lo, hi = rec["lo"], rec["hi"]
        for other in roots[1:]:
            self.uf.union(main, other)
            orec = self._records.pop(other)
            # the larger containers absorb the smaller ones
            for key in ("segments", "open"):
                if len(orec[key]) > len(rec[key]):
                    rec[key], orec[key] = orec[key], rec[key]
            rec["segments"].extend(orec["segments"])
            rec["open"].update(orec["open"])
            rec["birth"] = min(rec["birth"], orec["birth"])
            for a, (olo, ohi) in enumerate(zip(orec["lo"], orec["hi"])):
                lo[a] = min(lo[a], olo)
                hi[a] = max(hi[a], ohi)
        return main

    def _open_site(self, coord, t, cluster_roots):
        """Open coord at t, merging the live clusters at distinct roots."""
        # diameter growth is judged against the parts before any merge, so a
        # merge-driven jump is always recorded
        before = max(self._diam(self._records[r]) for r in cluster_roots)
        root = self._merge(cluster_roots)
        rec = self._records[root]
        rec["open"][coord] = t
        for a, c in enumerate(coord):
            rec["lo"][a] = min(rec["lo"][a], c)
            rec["hi"][a] = max(rec["hi"][a], c)
        after = self._diam(rec)
        if after > before:
            self._grew(t, root, after)
        self._check_crossing(root, t)
        return root

    def _close_site(self, root, coord, t):
        rec = self._records[root]
        t_on = rec["open"].pop(coord)
        rec["segments"].append((coord, t_on, t))
        if not rec["open"]:
            rec["death"] = t

    # -- queries -----------------------------------------------------------

    def clusters(self):
        out = []
        for root, rec in sorted(self._records.items()):
            segs = [(c, a, b) for c, a, b in rec["segments"]]
            segs += [(c, a, None) for c, a in rec["open"].items()]
            out.append(ClusterView(
                cid=root, segments=frozenset(segs),
                lo=tuple(rec["lo"]), hi=tuple(rec["hi"]),
                birth=rec["birth"], death=rec["death"],
                diameter=self._diam(rec)))
        return out

    def all_segments(self):
        """Every maximal per-site plus interval, open ones clipped at t_end."""
        segs = []
        for rec in self._records.values():
            for c, a, b in rec["segments"]:
                segs.append((c, a, b))
            for c, a in rec["open"].items():
                segs.append((c, a, self.t_end))
        return segs

    def max_diameter(self):
        return self._max_diameter


def track(ctx, trajectory):
    """Build the space-time cluster ledger of a trajectory.

    A plus flip opens the site's interval and joins the live clusters at its
    plus neighbors; a minus flip closes the interval, and a cluster dies once
    no member site remains plus.  The ledger starts from all minus: the
    initial pluses enter as plus flips at time 0, in ascending site order,
    ahead of the trajectory's events, so an initial plus component may open
    several clusters that merge at time 0.  ``live`` maps each plus site to
    the cluster id it joined; readers resolve it to the current root with
    ``find``.

    The two common plus flips are handled in place: a site with no plus
    neighbor opens a new cluster, and a site that joins exactly one cluster
    extends it.  A joined cluster's diameter changes only when its bounding
    box grows, and the cluster can span the box along an axis only once its
    diameter reaches the shortest side minus 1, so the diameter is
    recomputed only in the first case and the crossings are checked only in
    the second.  Merges go through ``_open_site``.
    """
    ledger = StcLedger(ctx, trajectory)
    spins = [-1] * ctx.n_sites
    coords = ctx.global_coords
    neighbors = ctx.neighbors
    live = {}
    opens = [(0.0, site, 1) for site in
             np.flatnonzero(trajectory.initial.spins == 1).tolist()]
    records = ledger._records
    find = ledger.uf.find
    record = ledger._record
    get = live.get
    spans_floor = min(ctx.geometry.dims) - 1
    for t, site, new_spin in chain(opens, trajectory.events):
        if spins[site] == new_spin:
            raise ValueError("inconsistent trajectory: flip to current value")
        spins[site] = new_spin
        coord = coords[site]
        if new_spin != 1:
            ledger._close_site(find(live.pop(site)), coord, t)
            continue
        roots = set()
        for nb in neighbors[site]:
            r = get(nb)
            if r is not None:
                roots.add(find(r))
        if not roots:
            root = record(coord, t)
            if spans_floor <= 0:
                ledger._check_crossing(root, t)
        elif len(roots) == 1:
            root = roots.pop()
            rec = records[root]
            rec["open"][coord] = t
            lo, hi = rec["lo"], rec["hi"]
            for a, c in enumerate(coord):
                if not lo[a] <= c <= hi[a]:
                    before = ledger._diam(rec)
                    for axis, x in enumerate(coord):
                        if x < lo[axis]:
                            lo[axis] = x
                        elif x > hi[axis]:
                            hi[axis] = x
                    after = ledger._diam(rec)
                    if after > before:
                        ledger._grew(t, root, after)
                    if after >= spans_floor:
                        ledger._check_crossing(root, t)
                    break
        else:
            root = ledger._open_site(coord, t, sorted(roots))
        live[site] = root
    return ledger


# -- windowed diameter ---------------------------------------------------------


def diam_infty_window(ledger, s, t):
    """Windowed cluster diameter: the clusters of ``track`` run on the window
    itself, from the configuration at s (the initial spins and every flip at
    or before s), whose pluses the window ledger opens at its time 0, over
    the flips in (s, t].  A cluster meets the s face when it holds a site
    that was plus at s, and the t face when it is still alive at t, the
    tracked horizon included.  Clusters meeting a face contribute their
    diameters as a sum, the others only through their maximum.  Satisfies
    the triangle inequality over interior cut points."""
    traj = ledger.trajectory
    if not 0.0 <= s < t <= traj.t_end:
        raise ValueError("window outside the tracked horizon")
    events = traj.events
    first = bisect_right(events.times, s)
    last = bisect_right(events.times, t, lo=first)
    spins = traj.initial.spins.tolist()
    for site, spin in zip(events.sites[:first], events.spins[:first]):
        spins[site] = spin
    # ``track`` opens the pluses at s at time 0, ahead of every window flip,
    # so a cluster born at 0.0 holds a site plus at s
    window = track(ledger.ctx, Trajectory(
        Configuration(traj.initial.geometry, spins), events[first:last], t,
        traj.stop_reason, traj.beta, traj.h_token, traj.bc_label))
    meeting = other = 0
    for rec in window._records.values():
        diam = window._diam(rec)
        if rec["birth"] == 0.0 or rec["death"] is None:
            meeting += diam
        else:
            other = max(other, diam)
    return max(meeting, other)


# -- crossings and doubling -----------------------------------------------------


def crossing_time(ledger, axis):
    """First time some cluster's spatial projection spans the two opposite
    faces of the tracked box along the axis, or None."""
    return ledger.crossing_times.get(axis)


def crossing_detected(ledger, axis):
    return axis in ledger.crossing_times


def doubling_extraction(ledger, threshold):
    """Earliest moment a cluster's diameter reaches the threshold.

    Requires the threshold to be at least the largest initial-cluster
    diameter; a merge at most doubles the running maximum (plus the merging
    site), so the witness diameter lands in [threshold, 2*threshold].
    Returns (time, cluster id, diameter) or None if never reached.
    """
    initial_max = max((diam for t, _, diam in ledger.diameter_events
                       if t == 0.0), default=0)
    if threshold < initial_max:
        raise ValueError("threshold below the largest initial cluster diameter")
    for t, root, diam in ledger.diameter_events:
        if diam >= threshold:
            if diam > 2 * threshold:
                raise AssertionError("merge growth bound violated")
            return (t, root, diam)
    return None


# -- discrete-path clusters ---------------------------------------------------


def discrete_path_clusters(ctx, configs):
    """Space-time clusters of a discrete path of configurations.

    Points (x, i) with plus spin connect to plus neighbors at the same index
    and to the same site at adjacent indices.  Returns a label per point.
    """
    uf = UnionFind()
    labels = {}
    for i, cfg in enumerate(configs):
        for site in cfg.plus_sites():
            labels[(site, i)] = uf.add()
        for site in cfg.plus_sites():
            for nb in ctx.neighbors[site]:
                if (nb, i) in labels and nb < site:
                    uf.union(labels[(site, i)], labels[(nb, i)])
            if i > 0 and (site, i - 1) in labels:
                uf.union(labels[(site, i)], labels[(site, i - 1)])
    return {point: uf.find(lbl) for point, lbl in labels.items()}

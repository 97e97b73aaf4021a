"""Reference space-time cluster tracker, kept as a test oracle.

This is ``isingkit.stc.track`` as it was before find-on-demand: after each
plus flip it relabels every live site to its current root, and its ledger
appends each merged cluster's segments into the first root's lists,
whatever their sizes.  It keeps the older start too: each initial plus
component is opened at time 0 as one cluster, site by site through
``_open_site``, where the library feeds the initial pluses through its
event loop one at a time, so a component may open several clusters that
merge at time 0.  The differential tests require the library to produce
the same ledger exactly from an all-minus start, and the same ledger up to
cluster ids (and the time-0 diameter events) from a start with pluses.

``diam_infty_window`` is the windowed diameter as it was before windows
were re-tracked: a union-find over the ledger's segments clipped to the
window, with open segments ending at the horizon.  It agrees with
``isingkit.stc.diam_infty_window`` on every window that ends before the
horizon.
"""

from __future__ import annotations

from isingkit.lattice import connected_components
from isingkit.stc import StcLedger
from isingkit.unionfind import UnionFind


class OracleLedger(StcLedger):
    def _merge(self, roots):
        roots = list(dict.fromkeys(self.uf.find(r) for r in roots))
        main = roots[0]
        rec = self._records[main]
        for other in roots[1:]:
            self.uf.union(main, other)
            orec = self._records.pop(other)
            rec["segments"].extend(orec["segments"])
            rec["open"].update(orec["open"])
            rec["birth"] = min(rec["birth"], orec["birth"])
            for a in range(len(rec["lo"])):
                if orec["lo"][a] is not None:
                    if rec["lo"][a] is None or orec["lo"][a] < rec["lo"][a]:
                        rec["lo"][a] = orec["lo"][a]
                    if rec["hi"][a] is None or orec["hi"][a] > rec["hi"][a]:
                        rec["hi"][a] = orec["hi"][a]
        root = self.uf.find(main)
        if root != main:
            self._records[root] = self._records.pop(main)
        return root

    def _open_site(self, coord, t, cluster_roots):
        if not cluster_roots:
            root = self._record(coord, t)
            self._check_crossing(root, t)
            return root
        return super()._open_site(coord, t, cluster_roots)


def track(ctx, trajectory):
    """Build the space-time cluster ledger of a trajectory.

    A plus flip opens the site's interval and joins the live clusters at its
    plus neighbors; a minus flip closes the interval, and a cluster dies once
    no member site remains plus.  Each initial plus component enters at
    time 0 as one cluster.
    """
    ledger = OracleLedger(ctx, trajectory)
    spins = trajectory.initial.spins.copy()
    live = {}

    for group in _initial_groups(ctx, trajectory.initial):
        root = None
        for site in group:
            roots = [live[nb] for nb in ctx.neighbors[site] if nb in live]
            if root is not None:
                roots.append(root)
            root = ledger._open_site(ctx.global_coord(site), 0.0,
                                     [ledger.uf.find(r) for r in roots])
            live[site] = root
            for s in list(live):
                live[s] = ledger.uf.find(live[s])

    for t, site, new_spin in trajectory.events:
        if spins[site] == new_spin:
            raise ValueError("inconsistent trajectory: flip to current value")
        spins[site] = new_spin
        if new_spin == 1:
            roots = {ledger.uf.find(live[nb])
                     for nb in ctx.neighbors[site] if nb in live}
            root = ledger._open_site(ctx.global_coord(site), t, sorted(roots))
            live[site] = root
            for s in list(live):
                live[s] = ledger.uf.find(live[s])
        else:
            root = ledger.uf.find(live.pop(site))
            ledger._close_site(root, ctx.global_coord(site), t)
    return ledger


def _initial_groups(ctx, config):
    return [sorted(comp) for comp, _ in connected_components(ctx, config)]


# -- windowed diameter over clipped segments ---------------------------------


def _clip_segments(segments, s, t):
    out = []
    for coord, a, b in segments:
        if a > t or b <= s:
            continue
        lo = max(a, s)
        hi = min(b, t)
        closed = b > t
        out.append((coord, lo, hi, closed))
    return out


def _contains(seg, x):
    _, lo, hi, closed = seg
    return lo <= x < hi or (x == hi and closed and x >= lo)


def _overlap(s1, s2):
    m = max(s1[1], s2[1])
    mm = min(s1[2], s2[2])
    if mm > m:
        return True
    if mm < m:
        return False
    return _contains(s1, m) and _contains(s2, m)


def diam_infty_window(ledger, s, t):
    """Windowed cluster diameter: clusters of the trajectory re-cut at s and
    t; clusters touching either window face contribute their diameters as a
    sum, the others only through their maximum.  Satisfies the triangle
    inequality over interior cut points."""
    if not 0.0 <= s < t <= ledger.t_end:
        raise ValueError("window outside the tracked horizon")
    segs = _clip_segments(ledger.all_segments(), s, t)
    if not segs:
        return 0
    by_coord = {}
    for k, seg in enumerate(segs):
        by_coord.setdefault(seg[0], []).append(k)
    uf = UnionFind(len(segs))
    d = len(segs[0][0])
    for k, seg in enumerate(segs):
        coord = seg[0]
        for axis in range(d):
            for step in (-1, 1):
                nb = list(coord)
                nb[axis] += step
                for j in by_coord.get(tuple(nb), ()):
                    if j < k and _overlap(seg, segs[j]):
                        uf.union(k, j)
    comps = {}
    for k, seg in enumerate(segs):
        comps.setdefault(uf.find(k), []).append(seg)
    total_meeting = 0
    max_other = 0
    for members in comps.values():
        lo = list(members[0][0])
        hi = list(members[0][0])
        meets = False
        for coord, a, b, closed in members:
            for axis in range(d):
                lo[axis] = min(lo[axis], coord[axis])
                hi[axis] = max(hi[axis], coord[axis])
            if _contains((coord, a, b, closed), s) or \
                    _contains((coord, a, b, closed), t):
                meets = True
        diam = max(h - l for l, h in zip(lo, hi))
        if meets:
            total_meeting += diam
        else:
            max_other = max(max_other, diam)
    return max(total_meeting, max_other)

"""Reference space-time cluster tracker, kept as a test oracle.

This is ``isingkit.stc.track`` as it was before find-on-demand: after each
plus flip it relabels every live site to its current root, and its ledger
appends each merged cluster's segments into the first root's lists,
whatever their sizes.  The differential tests require the library to
produce the same ledger exactly.
"""

from __future__ import annotations

from isingkit.stc import StcLedger, _initial_groups


class OracleLedger(StcLedger):
    def _merge(self, roots, t):
        roots = list(dict.fromkeys(self.uf.find(r) for r in roots))
        main = roots[0]
        rec = self._records[main]
        for other in roots[1:]:
            self.uf.union(main, other)
            orec = self._records.pop(other)
            rec["segments"].extend(orec["segments"])
            rec["open"].update(orec["open"])
            rec["live"] += orec["live"]
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


def track(ctx, trajectory, initial_stc=None):
    """Build the space-time cluster ledger of a trajectory.

    A plus flip opens the site's interval and joins the live clusters at its
    plus neighbors; a minus flip closes the interval, and a cluster dies once
    no member site remains plus.  ``initial_stc`` optionally groups the
    initial plus components into pre-existing clusters (a group may span
    several components, mirroring clusters inherited from an earlier run).
    """
    ledger = OracleLedger(ctx, trajectory.t_end)
    geom = ctx.geometry
    spins = trajectory.initial.spins.copy()
    live = {}

    groups = _initial_groups(ctx, trajectory.initial, initial_stc)
    for group in groups:
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

"""Reference samplers and event stream, kept as test oracles.

``EventStream`` is the stream from before the counter-based one: one
``SeedSequence`` and one Philox generator per (site, family), grown in
blocks of 64 arrivals and cached.  Its arrivals differ from the library's
seed for seed, so the tests compare the two in law.  ``site_events`` reads
one clock of the library's stream, for tests that look at a single site.

The graphical path is the one ``isingkit.kmc`` used before
``evolve_graphical`` streamed its own doubling windows: one
``evolve_graphical`` call reads a single window (t_start, horizon], and
``hitting_time`` restarts it for every doubled window from the final
configuration of the last one.  The differential tests require the library
to reproduce it exactly, seed for seed.

``coupled_evolve`` is the coupled run from before it went through
``evolve_graphical``: one window (0, horizon] and its own per-arrival loop
that steps every scenario at each arrival, calling ``check_order`` after any
arrival that flipped a spin.  The differential tests require the library to
reproduce its trajectories and its ``check_order`` calls exactly.

``evolve_graphical_scalar`` is the streaming graphical loop from before it
ran over list copies: it converts each arrival's numpy scalars, sums the
neighbour spins with ``neighbor_spin_sum`` and applies each flip with
``apply_flip`` on the numpy state.  It reads the library's counter-based
stream, so the differential tests require equal trajectories, tick counts
and stop reasons, seed for seed.

``evolve_rejection_free`` is the rejection-free sampler from before the
n-fold way: it recomputes a cumulative sum over all sites on every event.
The library consumes the same draws in a different site order, so the
differential tests compare the two in law.

``evolve_nfold`` is the n-fold way from before the block draws: a ``move``
call per class change, ``bonds``, ``pluses`` and ``time`` written to the
state at every event, and one ``exponential()`` and one ``random()`` drawn
from the generator per event.  The library reads its uniforms in blocks
instead, event i taking the pair (u[2i], u[2i+1]) of the concatenated
blocks; driven by a generator stub whose ``exponential()`` returns
-log1p(-u[2i]) and whose ``random()`` returns u[2i+1], this loop must give
the library's trajectories exactly, seed for seed.
"""

from __future__ import annotations

import numpy as np

from isingkit import kmc
from isingkit.kmc import HittingResult, Trajectory, _rate_tables

_COORD_OFFSET = 1 << 20
_BLOCK = 64


class _SimState(kmc._SimState):
    """The library's predicate state plus the per-flip update the reference
    loops apply: the neighbour sum is read from the numpy spins."""

    __slots__ = ()

    def apply_flip(self, site):
        sigma = int(self.spins[site])
        s = self.ctx.neighbor_spin_sum(self, site)
        self.bonds += sigma * s
        self.pluses += -sigma
        self.spins[site] = -sigma


class EventStream:
    """Per-site Poisson arrivals and uniforms, reproducible from one seed.

    Each (site coordinate, spin family) pair owns an independent counter-based
    generator, so boxes of different shapes or positions sharing coordinates
    consume identical randomness.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._sites = {}

    def _entry(self, coord, family):
        key = (tuple(coord), family)
        entry = self._sites.get(key)
        if entry is None:
            spawn = (0 if family == -1 else 1,) + tuple(
                c + _COORD_OFFSET for c in coord)
            gen = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(self.seed, spawn_key=spawn)))
            entry = {"gen": gen, "times": np.empty(0), "unis": np.empty(0),
                     "last": 0.0}
            self._sites[key] = entry
        return entry

    def site_events(self, coord, family, t_max):
        """Arrival times and uniforms of one site/family up to t_max."""
        entry = self._entry(coord, family)
        while entry["last"] <= t_max:
            gaps = entry["gen"].exponential(size=_BLOCK)
            unis = entry["gen"].random(size=_BLOCK)
            new_times = entry["last"] + np.cumsum(gaps)
            entry["times"] = np.concatenate([entry["times"], new_times])
            entry["unis"] = np.concatenate([entry["unis"], unis])
            entry["last"] = float(new_times[-1])
        k = int(np.searchsorted(entry["times"], t_max, side="right"))
        return entry["times"][:k], entry["unis"][:k]

    def window(self, ctx, t0, t1):
        """Time-ordered events of a box in [t0, t1): (times, sites, families,
        uniforms); exact ties fall back to (site, family, index) order."""
        times, sites, fams, unis, idxs = [], [], [], [], []
        for i in range(ctx.n_sites):
            coord = ctx.global_coord(i)
            for family in (-1, 1):
                t, u = self.site_events(coord, family, t1)
                lo = int(np.searchsorted(t, t0, side="right")) if t0 > 0 else 0
                t, u = t[lo:], u[lo:]
                times.append(t)
                unis.append(u)
                sites.append(np.full(t.shape, i, dtype=np.int64))
                fams.append(np.full(t.shape, family, dtype=np.int64))
                idxs.append(np.arange(lo, lo + t.size, dtype=np.int64))
        times = np.concatenate(times)
        order = np.lexsort((np.concatenate(idxs), np.concatenate(fams),
                            np.concatenate(sites), times))
        return (times[order], np.concatenate(sites)[order],
                np.concatenate(fams)[order], np.concatenate(unis)[order])


def site_events(stream, coord, family, t_max):
    """Arrival times and uniforms of one site/family of the library's
    counter-based ``stream`` up to t_max."""
    words = kmc._counter_words([coord], [0 if family == -1 else 1])
    times, _, _, marks = map(np.concatenate,
                             stream._arrivals(words, 0.0, t_max))
    return times, marks


def _final_config(traj):
    cfg = traj.initial.copy()
    for _, site, spin in traj.events:
        cfg.spins[site] = spin
    return cfg


def evolve_graphical(stream, ctx, alpha, beta, stop=None, horizon=10.0,
                     restrict=None, seed_label=None, t_start=0.0):
    """Run the updating rule over the stream's arrivals in (t_start, horizon].

    At each arrival of family eps at site x: if the spin is -eps and the
    attached uniform lies below the exact Metropolis rate, the spin reverses.
    With ``restrict``, flips that would leave the ensemble are suppressed.
    Returns the trajectory up to the stop predicate or the horizon.
    """
    state = _SimState(ctx, alpha)
    events = []
    reason = "time_cap"
    hit = None
    if stop is not None and stop(state):
        reason = "stopped"
        hit = t_start
    else:
        up, down = _rate_tables(ctx, beta)
        d2 = 2 * ctx.geometry.dimension
        times, sites, fams, unis = stream.window(ctx, t_start, horizon)
        spins = state.spins
        for k in range(times.size):
            site = int(sites[k])
            eps = int(fams[k])
            if spins[site] != -eps:
                continue
            s = ctx.neighbor_spin_sum(state, site)
            rate = up[s + d2] if eps == 1 else down[s + d2]
            if unis[k] >= rate:
                continue
            if restrict is not None:
                sigma = int(spins[site])
                if not restrict.contains_pair(state.bonds + sigma * s,
                                              state.pluses - sigma):
                    continue
            state.apply_flip(site)
            t = float(times[k])
            state.time = t
            events.append((t, site, eps))
            if stop is not None and stop(state):
                reason = "stopped"
                hit = t
                break
    traj = Trajectory(initial=alpha.copy(), events=events,
                      t_end=hit if hit is not None else horizon,
                      stop_reason=reason, beta=beta, h_token=ctx.field.token,
                      bc_label=ctx.bc.label(), seed=seed_label or stream.seed,
                      hitting_time=hit)
    return traj


def evolve_graphical_scalar(stream, ctx, alpha, beta, stop=None,
                            horizon=10.0, max_events=None, restrict=None,
                            max_ticks=None):
    """Run the updating rule over the stream's arrivals in (0, horizon].

    At each arrival of family eps at site x: if the spin is -eps and the
    attached uniform lies below the exact Metropolis rate, the spin reverses.
    With ``restrict``, flips that would leave the ensemble are suppressed.
    Arrivals are read in the doubling windows (0, 8], (8, 16], (16, 32], ...,
    the last one clipped at ``horizon``; ``horizon=None`` sets no time bound
    and then needs ``max_events`` or ``max_ticks``.  The run stops when the
    predicate holds, at the horizon, or at the end of the first window whose
    applied flips reach ``max_events`` ("event_cap") or whose arrivals read
    reach ``max_ticks`` ("tick_cap").  The trajectory counts the arrivals
    read and those that flipped nothing.
    """
    if horizon is None and max_events is None and max_ticks is None:
        raise ValueError("graphical run needs a horizon, max_events or "
                         "max_ticks")
    state = _SimState(ctx, alpha)
    events = []
    ticks = 0
    reason = None
    hit = None
    if stop is not None and stop(state):
        reason = "stopped"
        hit = 0.0
    up, down = _rate_tables(ctx, beta)
    d2 = 2 * ctx.geometry.dimension
    spins = state.spins
    t0, t1 = 0.0, kmc._FIRST_WINDOW
    while reason is None:
        if horizon is not None and t1 >= horizon:
            t1 = horizon
        times, sites, fams, unis = stream.window(ctx, t0, t1)
        for k in range(times.size):
            site = int(sites[k])
            eps = int(fams[k])
            if spins[site] != -eps:
                continue
            s = ctx.neighbor_spin_sum(state, site)
            rate = up[s + d2] if eps == 1 else down[s + d2]
            if unis[k] >= rate:
                continue
            if restrict is not None:
                sigma = int(spins[site])
                if not restrict.contains_pair(state.bonds + sigma * s,
                                              state.pluses - sigma):
                    continue
            state.apply_flip(site)
            t = float(times[k])
            state.time = t
            events.append((t, site, eps))
            if stop is not None and stop(state):
                reason = "stopped"
                hit = t
                ticks += k + 1
                break
        else:
            ticks += times.size
            if t1 == horizon:
                reason = "time_cap"
            elif max_events is not None and len(events) >= max_events:
                reason = "event_cap"
            elif max_ticks is not None and ticks >= max_ticks:
                reason = "tick_cap"
            else:
                t0, t1 = t1, 2.0 * t1
    return Trajectory(initial=alpha.copy(), events=events,
                      t_end=hit if hit is not None else t1,
                      stop_reason=reason, beta=beta, h_token=ctx.field.token,
                      bc_label=ctx.bc.label(), seed=stream.seed,
                      hitting_time=hit, ticks_read=ticks,
                      ticks_rejected=ticks - len(events))


def hitting_time_graphical(ctx, alpha, beta, predicate, seed, time_cap=None,
                           max_events=10_000_000):
    """Graphical hitting time by restarting ``evolve_graphical`` for each
    doubled window; censored observations report the cap as a lower bound."""
    stream = kmc.EventStream(seed)
    state_cfg = alpha
    t0 = 0.0
    horizon = 8.0 if time_cap is None else min(8.0, time_cap)
    all_events = []
    while True:
        traj = evolve_graphical(stream, ctx, state_cfg, beta,
                                stop=predicate, horizon=horizon,
                                t_start=t0)
        if traj.stop_reason == "stopped":
            full = Trajectory(initial=alpha.copy(),
                              events=all_events + traj.events,
                              t_end=traj.hitting_time, stop_reason="stopped",
                              beta=beta, h_token=ctx.field.token,
                              bc_label=ctx.bc.label(), seed=seed,
                              hitting_time=traj.hitting_time)
            return HittingResult(time=traj.hitting_time, censored=False,
                                 trajectory=full)
        all_events.extend(traj.events)
        if time_cap is not None and horizon >= time_cap:
            # the last window may overshoot the cap; report the cap as
            # the censored lower bound
            full = Trajectory(initial=alpha.copy(), events=all_events,
                              t_end=time_cap, stop_reason="time_cap",
                              beta=beta, h_token=ctx.field.token,
                              bc_label=ctx.bc.label(), seed=seed)
            return HittingResult(time=time_cap, censored=True,
                                 trajectory=full)
        if max_events is not None and len(all_events) >= max_events:
            full = Trajectory(initial=alpha.copy(), events=all_events,
                              t_end=horizon, stop_reason="event_cap",
                              beta=beta, h_token=ctx.field.token,
                              bc_label=ctx.bc.label(), seed=seed)
            return HittingResult(time=horizon, censored=True, trajectory=full)
        state_cfg = _final_config(traj)
        t0 = horizon
        horizon *= 2.0
        if time_cap is not None:
            horizon = min(horizon, time_cap)


def coupled_evolve(stream, contexts, alphas, beta, horizon, check_order=None):
    """Evolve several scenarios on the identical event stream.

    All contexts must share the box geometry (they may differ in boundary
    condition and field).  ``check_order`` receives the spin arrays after
    every applied event, for domination tests.
    """
    geom = contexts[0].geometry
    if any(ctx.geometry.dims != geom.dims for ctx in contexts):
        raise ValueError("coupled scenarios must share the box geometry")
    states = [_SimState(ctx, a) for ctx, a in zip(contexts, alphas)]
    tables = [_rate_tables(ctx, beta) for ctx in contexts]
    d2 = 2 * geom.dimension
    times, sites, fams, unis = stream.window(contexts[0], 0.0, horizon)
    all_events = [[] for _ in contexts]
    for k in range(times.size):
        site = int(sites[k])
        eps = int(fams[k])
        u = unis[k]
        changed = False
        for state, (up, down), evs in zip(states, tables, all_events):
            if state.spins[site] != -eps:
                continue
            s = state.ctx.neighbor_spin_sum(state, site)
            rate = up[s + d2] if eps == 1 else down[s + d2]
            if u < rate:
                state.apply_flip(site)
                evs.append((float(times[k]), site, eps))
                changed = True
        if changed and check_order is not None:
            check_order(float(times[k]), [st.spins for st in states])
    return [Trajectory(initial=a.copy(), events=evs, t_end=horizon,
                       stop_reason="time_cap", beta=beta,
                       h_token=ctx.field.token, bc_label=ctx.bc.label(),
                       seed=stream.seed, ticks_read=times.size,
                       ticks_rejected=times.size - len(evs))
            for ctx, a, evs in zip(contexts, alphas, all_events)]


def evolve_rejection_free(seed, ctx, alpha, beta, stop=None, time_cap=None,
                          max_events=10_000_000, restrict=None):
    """Sample the embedded jump chain and exponential holding times directly.

    Statistically equivalent to the graphical mode; every jump is an applied
    flip, so deep metastable waits cost nothing.  Rates are recomputed from
    the exact local field at every update.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        int(seed), spawn_key=(2,))))
    state = _SimState(ctx, alpha)
    n = ctx.n_sites
    up, down = _rate_tables(ctx, beta)
    d2 = 2 * ctx.geometry.dimension
    events = []
    reason = None
    hit = None
    t = 0.0

    def site_rate(i):
        s = ctx.neighbor_spin_sum(state, i)
        r = up[s + d2] if state.spins[i] == -1 else down[s + d2]
        if restrict is not None:
            sigma = int(state.spins[i])
            if not restrict.contains_pair(state.bonds + sigma * s,
                                          state.pluses - sigma):
                return 0.0
        return r

    rates = np.array([site_rate(i) for i in range(n)])
    if stop is not None and stop(state):
        reason = "stopped"
        hit = 0.0
    while reason is None:
        total = float(rates.sum())
        if total <= 0.0:
            reason = "frozen"
            break
        t += rng.exponential() / total
        if time_cap is not None and t > time_cap:
            t = time_cap
            reason = "time_cap"
            break
        r = rng.random() * total
        # side="right" skips zero-rate sites at r == 0.0 and at any r that
        # lands on a cumulative sum; r can pass the last sum by rounding
        site = int(np.searchsorted(np.cumsum(rates), r, side="right"))
        if site >= n:
            site = int(np.flatnonzero(rates > 0.0)[-1])
        state.apply_flip(site)
        state.time = t
        events.append((t, site, int(state.spins[site])))
        if restrict is None:
            rates[site] = site_rate(site)
            for nb in ctx.neighbors[site]:
                rates[nb] = site_rate(nb)
        else:
            # membership depends on the global energy, refresh everything
            rates = np.array([site_rate(i) for i in range(n)])
        if stop is not None and stop(state):
            reason = "stopped"
            hit = t
            break
        if len(events) >= max_events:
            reason = "event_cap"
            break
    traj = Trajectory(initial=alpha.copy(), events=events, t_end=t,
                      stop_reason=reason or "frozen", beta=beta,
                      h_token=ctx.field.token, bc_label=ctx.bc.label(),
                      seed=int(seed), hitting_time=hit)
    return traj


def evolve_nfold(seed, ctx, alpha, beta, stop=None, time_cap=None,
                 max_events=10_000_000):
    """Sample the embedded jump chain and exponential holding times directly.

    Statistically equivalent to the graphical mode; every jump is an applied
    flip, so deep metastable waits cost nothing.  This is the n-fold way
    (Bortz, Kalos & Lebowitz 1975): a site's rate depends only on its class
    (spin, neighbour sum), so each class keeps a member list; an event picks
    a class by its share of the total rate, then a member uniformly, and
    moves only the flipped site and its neighbours between classes.  The
    run stops with "underflow" when every rate of a non-empty class has
    underflowed to 0.0.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        int(seed), spawn_key=(2,))))
    state = _SimState(ctx, alpha)
    spins = state.spins
    neighbors = ctx.neighbors
    d2 = 2 * ctx.geometry.dimension
    width = d2 + 1
    up, down = _rate_tables(ctx, beta)
    # class c = width * (spin is plus) + (neighbour sum + 2d) / 2
    rates = [float(up[2 * k]) for k in range(width)] + \
        [float(down[2 * k]) for k in range(width)]
    signs = [-1] * width + [1] * width
    sums = [2 * k - d2 for k in range(width)] * 2
    cls = width * (spins == 1) + (ctx.neighbor_spin_sums(spins) + d2) // 2
    pos = np.empty_like(cls)
    members = []
    for c in range(2 * width):
        sites = np.flatnonzero(cls == c)
        pos[sites] = np.arange(sites.size)
        members.append(sites.tolist())
    cls = cls.tolist()
    pos = pos.tolist()

    def move(i, c):
        old = members[cls[i]]
        last = old.pop()
        if last != i:
            old[pos[i]] = last
            pos[last] = pos[i]
        pos[i] = len(members[c])
        members[c].append(i)
        cls[i] = c

    events = []
    reason = None
    hit = None
    t = 0.0
    if stop is not None and stop(state):
        reason = "stopped"
        hit = 0.0
    while reason is None:
        w = [len(m) * rate for m, rate in zip(members, rates)]
        total = sum(w)
        if total <= 0.0:
            reason = "underflow"
            break
        t += rng.exponential() / total
        if time_cap is not None and t > time_cap:
            t = time_cap
            reason = "time_cap"
            break
        r = rng.random() * total
        # zero-rate classes are skipped; r can pass the total by rounding,
        # which picks the last member of the last positive class
        for c, wc in enumerate(w):
            if wc > 0.0:
                pick = c
                if r < wc:
                    k = int(r / rates[c])
                    break
                r -= wc
        else:
            k = len(members[pick]) - 1
        site = members[pick][min(k, len(members[pick]) - 1)]
        sigma = signs[pick]
        state.bonds += sigma * sums[pick]
        state.pluses -= sigma
        spins[site] = -sigma
        state.time = t
        events.append((t, site, -sigma))
        move(site, pick - sigma * width)
        for nb in neighbors[site]:
            move(nb, cls[nb] - sigma)
        if stop is not None and stop(state):
            reason = "stopped"
            hit = t
            break
        if len(events) >= max_events:
            reason = "event_cap"
            break
    return Trajectory(initial=alpha.copy(), events=events, t_end=t,
                      stop_reason=reason, beta=beta,
                      h_token=ctx.field.token, bc_label=ctx.bc.label(),
                      seed=int(seed), hitting_time=hit)

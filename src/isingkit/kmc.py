"""Continuous-time simulation of the Metropolis single-spin-flip dynamics.

Two samplers over the same law: the graphical construction drives every
scenario from one universal source of randomness (two unit-rate Poisson
arrival streams with attached uniforms per lattice site, keyed by global
coordinates), which yields monotone couplings across initial conditions,
boundary conditions and fields; the rejection-free sampler draws the
embedded jump chain directly and is the workhorse for slow hitting times.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .lattice import Configuration

_COORD_OFFSET = 1 << 20
_BLOCK = 64


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


@dataclass
class Trajectory:
    """Initial configuration plus the ordered flip events that replay it."""

    initial: Configuration
    events: list                      # (time, site, new_spin)
    t_end: float
    stop_reason: str
    beta: float
    h_token: str
    bc_label: str
    seed: int = None
    hitting_time: float = None

    def replay(self):
        cfg = self.initial.copy()
        for t, site, spin in self.events:
            if cfg.spins[site] == spin:
                raise ValueError("inconsistent trajectory: flip to current value")
            cfg.spins[site] = spin
            yield t, site, spin, cfg

    def final_config(self):
        cfg = self.initial.copy()
        for _, site, spin in self.events:
            cfg.spins[site] = spin
        return cfg

    def to_csv(self, fh):
        fh.write("time,site,new_spin\n")
        for t, site, spin in self.events:
            fh.write(f"{t!r},{site},{spin}\n")

    def summary_json(self, **extra):
        payload = {"seed": self.seed, "beta": self.beta, "h": self.h_token,
                   "box": list(self.initial.geometry.dims),
                   "bc": self.bc_label, "stop_reason": self.stop_reason,
                   "hitting_time": self.hitting_time, "t_end": self.t_end,
                   "n_events": len(self.events)}
        payload.update(extra)
        return json.dumps(payload, sort_keys=True)


@dataclass
class Scenario:
    """One dynamics instance (initial condition, boundary, field) to run on a
    shared event stream."""

    alpha: Configuration
    bc: object
    h: object

    def dominates(self, other):
        return bool(np.all(self.alpha.spins >= other.alpha.spins)) and \
            _bc_geq(self.bc, other.bc, self.alpha.geometry) and \
            self.h.approx >= other.h.approx


def _bc_geq(bc_hi, bc_lo, geometry):
    for i in range(geometry.n_sites):
        coord = geometry.coord(i)
        for axis in range(geometry.dimension):
            for step in (-1, 1):
                nb = list(coord)
                nb[axis] += step
                nb = tuple(nb)
                if not geometry.contains(nb):
                    if bc_hi.exterior_spin(nb, geometry) < \
                            bc_lo.exterior_spin(nb, geometry):
                        return False
    return True


class _SimState:
    """Mutable view handed to stop predicates: spins plus exact energy."""

    __slots__ = ("ctx", "spins", "bonds", "pluses", "time")

    def __init__(self, ctx, config):
        from .lattice import hamiltonian
        self.ctx = ctx
        self.spins = config.spins.copy()
        e = hamiltonian(ctx, config)
        self.bonds = e.bonds
        self.pluses = e.pluses
        self.time = 0.0

    def neighbor_sum(self, site):
        s = int(self.ctx.boundary_plus[site] - self.ctx.boundary_minus[site])
        for nb in self.ctx.neighbors[site]:
            s += int(self.spins[nb])
        return s

    def apply_flip(self, site):
        sigma = int(self.spins[site])
        s = self.neighbor_sum(site)
        self.bonds += sigma * s
        self.pluses += -sigma
        self.spins[site] = -sigma

    def config(self):
        return Configuration(self.ctx.geometry, self.spins)


def _rate_tables(ctx, beta):
    """Flip rates indexed by the neighbor spin sum, one table per direction."""
    d2 = 2 * ctx.geometry.dimension
    h = ctx.field.approx
    up = np.ones(2 * d2 + 1)
    down = np.ones(2 * d2 + 1)
    for s in range(-d2, d2 + 1):
        if s <= -1:
            up[s + d2] = math.exp(-beta * (-s - h))
        if s >= 0:
            down[s + d2] = math.exp(-beta * (s + h))
    return up, down


# -- predicates ---------------------------------------------------------------


def pred_all_plus():
    def check(state):
        return state.pluses == state.ctx.n_sites
    return check


def pred_spin_up_at(site):
    def check(state):
        return state.spins[site] == 1
    return check


def pred_volume_exceeds(m):
    def check(state):
        return state.pluses > m
    return check


def pred_energy_exceeds(energy):
    def check(state):
        return state.ctx.field.compare_pair(state.bonds - energy.bonds,
                                            state.pluses - energy.pluses) > 0
    return check


def pred_exits_set(ensemble):
    """Local nucleation: first time the configuration leaves the ensemble."""
    def check(state):
        return not ensemble.contains_pair(state.bonds, state.pluses)
    return check


# -- graphical mode -----------------------------------------------------------


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
    reason = "horizon"
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
            s = state.neighbor_sum(site)
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
            s = state.neighbor_sum(site)
            rate = up[s + d2] if eps == 1 else down[s + d2]
            if u < rate:
                state.apply_flip(site)
                evs.append((float(times[k]), site, eps))
                changed = True
        if changed and check_order is not None:
            check_order(float(times[k]), [st.spins for st in states])
    return [Trajectory(initial=a.copy(), events=evs, t_end=horizon,
                       stop_reason="horizon", beta=beta,
                       h_token=ctx.field.token, bc_label=ctx.bc.label(),
                       seed=stream.seed)
            for ctx, a, evs in zip(contexts, alphas, all_events)]


def evolve_restricted(stream, ctx, alpha, beta, ensemble, stop=None,
                      horizon=10.0):
    """Dynamics conditioned to stay in the restricted ensemble: rates of
    moves leaving the ensemble are zero.  On a shared stream the trajectory
    coincides with the unrestricted one until its first exit attempt."""
    if not ensemble.contains(alpha):
        raise ValueError("initial configuration outside the restricted ensemble")
    return evolve_graphical(stream, ctx, alpha, beta, stop=stop,
                            horizon=horizon, restrict=ensemble)


# -- rejection-free mode -------------------------------------------------------


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
        s = state.neighbor_sum(i)
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


# -- hitting times -------------------------------------------------------------


@dataclass
class HittingResult:
    time: float
    censored: bool
    trajectory: Trajectory


def hitting_time(mode, ctx, alpha, beta, predicate, seed, time_cap=None,
                 max_events=10_000_000, keep_trajectory=False):
    """First time the predicate holds, by either sampler.

    Graphical mode extends its horizon geometrically until the predicate
    fires or the cap censors the run; censored observations are flagged, and
    report the cap as a lower bound.
    """
    if mode == "rejection_free":
        traj = evolve_rejection_free(seed, ctx, alpha, beta, stop=predicate,
                                     time_cap=time_cap, max_events=max_events)
        censored = traj.stop_reason != "stopped"
        time = traj.hitting_time if not censored else traj.t_end
        if not keep_trajectory:
            traj.events = []
        return HittingResult(time=time, censored=censored, trajectory=traj)
    if mode == "graphical":
        stream = EventStream(seed)
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
                if not keep_trajectory:
                    full.events = []
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
                if not keep_trajectory:
                    full.events = []
                return HittingResult(time=time_cap, censored=True,
                                     trajectory=full)
            if max_events is not None and len(all_events) >= max_events:
                full = Trajectory(initial=alpha.copy(), events=all_events,
                                  t_end=horizon, stop_reason="event_cap",
                                  beta=beta, h_token=ctx.field.token,
                                  bc_label=ctx.bc.label(), seed=seed)
                if not keep_trajectory:
                    full.events = []
                return HittingResult(time=horizon, censored=True, trajectory=full)
            state_cfg = traj.final_config()
            t0 = horizon
            horizon *= 2.0
            if time_cap is not None:
                horizon = min(horizon, time_cap)
    raise ValueError(f"unknown mode {mode!r}")
"""Continuous-time simulation of the Metropolis single-spin-flip dynamics.

Two samplers over the same law: the graphical construction drives every
scenario from one universal source of randomness (two unit-rate Poisson
arrival streams with attached uniforms per lattice site, keyed by global
coordinates), which yields monotone couplings across initial conditions,
boundary conditions and fields; the rejection-free sampler draws the
embedded jump chain directly and is the workhorse for slow hitting times.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import Configuration, hamiltonian

_FIRST_WINDOW = 8.0
_COORD_OFFSET = 1 << 20
_COORD_BITS = 21
_MAX_DIMENSION = 4
# clocks x arrivals drawn in one round, on every box: the clocks are drawn
# _CHUNK_CELLS // 4 at a time, so a round's scratch arrays stay small next
# to the window they build
_CHUNK_CELLS = 1 << 15
# window rows that evolve_graphical turns into Python lists at a time
_WALK_ROWS = 4096
# rejection-free events per refill of uniforms (two per event)
_DRAW_BLOCK = 256

_M32 = np.uint64(0xFFFFFFFF)
_PHILOX_MUL = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_WEYL = (np.uint64(0x9E3779B9), np.uint64(0xBB67AE85))


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Philox4x32-10 (Salmon, Moraes, Dror & Shaw, SC'11) on arrays of 32-bit
    words held in uint64.

    The four counter words broadcast against each other; the key is two
    32-bit ints.  Returns the four output words.
    """
    mul0, mul1 = _PHILOX_MUL
    k0, k1 = np.uint64(k0), np.uint64(k1)
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_WEYL[0]) & _M32
            k1 = (k1 + _PHILOX_WEYL[1]) & _M32
        p0 = c0 * mul0
        p1 = c2 * mul1
        c0, c1, c2, c3 = ((p1 >> 32) ^ c1 ^ k0, p1 & _M32,
                          (p0 >> 32) ^ c3 ^ k1, p0 & _M32)
    return c0, c1, c2, c3


def _unit(hi, lo):
    """The 53-bit double in [0, 1) whose bits are the top of (hi, lo)."""
    return ((hi << 21) | (lo >> 11)).astype(np.float64) * 2.0 ** -53


def _counter_words(coords, fbits):
    """Counter words 1-3 of each clock: the family bit, then every global
    coordinate plus 2^20 in 21 bits, low bits first."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.shape[1] > _MAX_DIMENSION:
        raise ValueError(f"event streams cover d <= {_MAX_DIMENSION}, "
                         f"got d = {coords.shape[1]}")
    shifted = coords + _COORD_OFFSET
    if shifted.size and (shifted.min() < 0 or
                         shifted.max() >= 1 << _COORD_BITS):
        raise ValueError(f"global coordinates must lie in "
                         f"[-2^20, 2^20), got {coords.min()}..{coords.max()}")
    packed = [np.asarray(fbits, dtype=np.uint64), np.zeros(len(coords),
                                                          dtype=np.uint64)]
    for axis, col in enumerate(shifted.T.astype(np.uint64)):
        # axes 0-2 sit at bits 1, 22, 43 of the low 64; axis 3 at bit 64
        offset = 1 + _COORD_BITS * axis
        packed[offset // 64] |= col << np.uint64(offset % 64)
    return packed[0] & _M32, packed[0] >> 32, packed[1]


def _chunk_width(left, clocks):
    """Arrivals drawn per clock in one round: those expected at rate 1 in the
    time ``left`` plus about one standard deviation, within the scratch
    bound.  Clocks that run past the round are read on in further rounds, so
    the width changes no value, only how many rounds a window takes."""
    return min(max(1, math.ceil(left + math.sqrt(left))),
               _CHUNK_CELLS // clocks)


class EventStream:
    """Per-site Poisson arrivals and uniforms, reproducible from one seed.

    Arrival j of the clock of family eps at a global coordinate is a pure
    function of (seed, eps, coordinate, j): one Philox4x32-10 block, keyed by
    the two halves of the seed, with counter (j, family bit and coordinates).
    Its words 0-1 give the gap -log1p(-u), its words 2-3 the mark.  The time
    of arrival j is the left-to-right sum of gaps 0..j, so boxes of different
    shapes or positions that share coordinates see identical clocks, and a
    window is computed afresh from arrival 0 without state between calls.
    Any block of clocks draws the same values on its own, so a window is
    drawn in blocks of bounded rounds.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")

    def _arrivals(self, words, t0, t1):
        """Arrivals of each clock in (t0, t1] (from time 0 on if t0 <= 0):
        (times, clock rows, arrival indices, marks), unsorted, each a tuple
        of pieces.  The clocks are drawn ``_CHUNK_CELLS // 4`` rows at a
        time, so no round holds more than ``_CHUNK_CELLS`` cells."""
        c1, c2, c3 = words
        k0, k1 = self.seed & 0xFFFFFFFF, self.seed >> 32
        block = _CHUNK_CELLS // 4
        parts = []
        for first in range(0, c1.size, block):
            rows = np.arange(first, min(first + block, c1.size))
            carry = np.zeros(rows.size)
            start = 0
            while rows.size:
                width = _chunk_width(max(t1 - float(carry.min()), 0.0),
                                     rows.size)
                if start + width > 1 << 32:
                    raise ValueError("a clock cannot read past 2^32 arrivals")
                j = np.arange(start, start + width, dtype=np.uint64)
                w0, w1, w2, w3 = philox4x32(j, c1[rows, None], c2[rows, None],
                                            c3[rows, None], k0, k1)
                gaps = -np.log1p(-_unit(w0, w1))
                gaps[:, 0] += carry
                times = np.cumsum(gaps, axis=1)
                keep = times <= t1
                if t0 > 0:
                    keep &= times > t0
                r, k = np.nonzero(keep)
                parts.append((times[r, k], rows[r], k + start,
                              _unit(w2[r, k], w3[r, k])))
                more = times[:, -1] <= t1
                rows, carry = rows[more], times[more, -1]
                start += width
        return tuple(zip(*parts))

    def window(self, ctx, t0, t1):
        """Time-ordered events of a box in (t0, t1]: (times, sites, families,
        uniforms); exact ties fall back to (site, family, index) order.
        Each column is joined from its pieces and put in time order on its
        own, dropping what it replaces."""
        # clock 2 i + b is site i's family 2 b - 1
        words = _counter_words(np.repeat(ctx.global_coord_array, 2, axis=0),
                               np.tile([0, 1], ctx.n_sites))
        times, rows, idxs, marks = self._arrivals(words, t0, t1)
        times = np.concatenate(times)
        rows = np.concatenate(rows)
        idxs = np.concatenate(idxs)
        order = np.lexsort((idxs, rows, times))
        del idxs
        times = times[order]
        rows = rows[order]
        fams = 2 * (rows & 1) - 1
        rows >>= 1
        marks = np.concatenate(marks)
        return times, rows, fams, marks[order]


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
    ticks_read: int = None            # graphical: clock arrivals examined
    ticks_rejected: int = None        # ... of which flipped nothing

    def replay(self):
        cfg = self.initial.copy()
        for t, site, spin in self.events:
            if cfg.spins[site] == spin:
                raise ValueError("inconsistent trajectory: flip to current value")
            cfg.spins[site] = spin
            yield t, site, spin, cfg

    def to_csv(self, fh):
        fh.write("time,site,new_spin\n")
        for t, site, spin in self.events:
            fh.write(f"{t!r},{site},{spin}\n")

    def summary(self):
        return {"seed": self.seed, "beta": self.beta, "h": self.h_token,
                "box": list(self.initial.geometry.dims),
                "bc": self.bc_label, "stop_reason": self.stop_reason,
                "hitting_time": self.hitting_time, "t_end": self.t_end,
                "n_events": len(self.events), "ticks_read": self.ticks_read,
                "ticks_rejected": self.ticks_rejected}


class _SimState:
    """Mutable view handed to stop predicates: spins plus exact energy."""

    __slots__ = ("ctx", "spins", "bonds", "pluses", "time")

    def __init__(self, ctx, config):
        self.ctx = ctx
        self.spins = config.spins.copy()
        e = hamiltonian(ctx, config)
        self.bonds = e.bonds
        self.pluses = e.pluses
        self.time = 0.0


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
    """Local nucleation: first time the configuration leaves the ensemble.
    Membership depends on (bonds, pluses) alone, so answers are memoised per
    pair."""
    memo = {}

    def check(state):
        key = (state.bonds, state.pluses)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = not ensemble.contains_pair(*key)
        return hit
    return check


# -- graphical mode -----------------------------------------------------------


def evolve_graphical(stream, ctx, alpha, beta, stop=None, horizon=10.0,
                     max_events=None, restrict=None, max_ticks=None):
    """Run the updating rule over the stream's arrivals in (0, horizon].

    At each arrival of family eps at site x: if the spin is -eps and the
    attached uniform lies below the exact Metropolis rate, the spin reverses.
    With ``restrict``, flips that would leave the ensemble are suppressed.
    Arrivals are read in the doubling windows (0, 8], (8, 16], (16, 32], ...,
    the last one clipped at ``horizon``; ``horizon=None``, or a non-finite
    horizon, sets no time bound and then needs ``max_events`` or
    ``max_ticks``.  The run stops when the predicate holds ("stopped"), at
    the horizon ("time_cap"), or at the end of the first window whose
    applied flips reach ``max_events`` ("event_cap") or whose arrivals read
    reach ``max_ticks`` ("tick_cap").  The trajectory counts the arrivals
    read and those that flipped nothing.

    Each window is walked ``_WALK_ROWS`` arrivals at a time as Python
    lists, with the spins, the rate tables and the boundary part of each
    neighbour sum held as list copies; the state handed to ``stop`` is
    brought up to date on each applied flip.
    """
    if horizon is not None and not math.isfinite(horizon):
        horizon = None
    if horizon is None and max_events is None and max_ticks is None:
        raise ValueError("graphical run needs a horizon, max_events or "
                         "max_ticks")
    state = _SimState(ctx, alpha)
    events = []
    append = events.append
    ticks = 0
    reason = None
    hit = None
    if stop is not None and stop(state):
        reason = "stopped"
        hit = 0.0
    up, down = _rate_tables(ctx, beta)
    up, down = up.tolist(), down.tolist()
    d2 = 2 * ctx.geometry.dimension
    spins = state.spins.tolist()
    boundary = (ctx.boundary_plus - ctx.boundary_minus).tolist()
    neighbors = ctx.neighbors
    bonds, pluses = state.bonds, state.pluses
    t0, t1 = 0.0, _FIRST_WINDOW
    while reason is None:
        if horizon is not None and t1 >= horizon:
            t1 = horizon
        times, sites, fams, unis = stream.window(ctx, t0, t1)
        for first in range(0, times.size, _WALK_ROWS):
            chunk = slice(first, first + _WALK_ROWS)
            eps_at, u_at = fams[chunk].tolist(), unis[chunk].tolist()
            for k, site in enumerate(sites[chunk].tolist()):
                eps = eps_at[k]
                if spins[site] == eps:
                    continue
                s = boundary[site]
                for nb in neighbors[site]:
                    s += spins[nb]
                if u_at[k] >= (up if eps == 1 else down)[s + d2]:
                    continue
                # the spin goes from -eps to eps
                if restrict is not None and not restrict.contains_pair(
                        bonds - eps * s, pluses + eps):
                    continue
                bonds -= eps * s
                pluses += eps
                spins[site] = eps
                t = float(times[first + k])
                state.spins[site] = eps
                state.bonds, state.pluses, state.time = bonds, pluses, t
                append((t, site, eps))
                if stop is not None and stop(state):
                    reason = "stopped"
                    hit = t
                    ticks += first + k + 1
                    break
            if reason is not None:
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
                # the next window is built with this one released
                del times, sites, fams, unis
    return Trajectory(initial=alpha.copy(), events=events,
                      t_end=hit if hit is not None else t1,
                      stop_reason=reason, beta=beta, h_token=ctx.field.token,
                      bc_label=ctx.bc.label(), seed=stream.seed,
                      hitting_time=hit, ticks_read=ticks,
                      ticks_rejected=ticks - len(events))


def coupled_evolve(stream, contexts, alphas, beta, horizon, check_order=None):
    """Evolve several scenarios on the identical event stream.

    Each scenario is one ``evolve_graphical`` run over (0, horizon]; the
    stream is stateless, so every run reads the same arrivals.  All contexts
    must share the box geometry and origin (they may differ in boundary
    condition and field).  ``check_order`` receives the time and the spin
    arrays after the flips at each flip time, for domination tests.
    """
    first = contexts[0]
    if any(ctx.geometry.dims != first.geometry.dims or
           ctx.origin != first.origin for ctx in contexts):
        raise ValueError("coupled scenarios must share the box geometry "
                         "and origin")
    trajs = [evolve_graphical(stream, ctx, a, beta, horizon=horizon)
             for ctx, a in zip(contexts, alphas)]
    if check_order is not None:
        spins = [a.spins.copy() for a in alphas]
        flips = sorted((t, k, site, spin) for k, traj in enumerate(trajs)
                       for t, site, spin in traj.events)
        for t, group in itertools.groupby(flips, key=lambda f: f[0]):
            for _, k, site, spin in group:
                spins[k][site] = spin
            check_order(t, spins)
    return trajs


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

    Uniforms come from the seed's Philox generator in blocks of
    2 ``_DRAW_BLOCK``; event i reads the pair (u[2i], u[2i+1]) of the
    concatenated blocks, holding time -log1p(-u[2i]) / total and class draw
    u[2i+1] * total, so the trajectory does not depend on the block size.
    The state handed to ``stop`` is brought up to date just before each
    call.
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
    # class weights in class order, each recomputed as count * rate when
    # its count changes
    w = [len(m) * rate for m, rate in zip(members, rates)]
    log1p = math.log1p

    events = []
    append = events.append
    reason = None
    hit = None
    t = 0.0
    bonds, pluses = state.bonds, state.pluses
    n_draws = 2 * _DRAW_BLOCK
    draws, j = None, n_draws
    if stop is not None and stop(state):
        reason = "stopped"
        hit = 0.0
    while reason is None:
        total = sum(w)
        if total <= 0.0:
            reason = "underflow"
            break
        if j == n_draws:
            draws, j = rng.random(n_draws).tolist(), 0
        t += -log1p(-draws[j]) / total
        if time_cap is not None and t > time_cap:
            t = time_cap
            reason = "time_cap"
            break
        r = draws[j + 1] * total
        j += 2
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
        old = members[pick]
        if k >= len(old):
            k = len(old) - 1
        site = old[k]
        sigma = signs[pick]
        bonds += sigma * sums[pick]
        pluses -= sigma
        spins[site] = -sigma
        append((t, site, -sigma))
        # swap-remove each moved site from its class list, append it to its
        # new one and refresh both weights: the site changes spin, each
        # neighbour's sum moves by 2
        last = old.pop()
        if last != site:
            p = pos[site]
            old[p] = last
            pos[last] = p
        w[pick] = len(old) * rates[pick]
        c = pick - sigma * width
        new = members[c]
        pos[site] = len(new)
        new.append(site)
        w[c] = len(new) * rates[c]
        cls[site] = c
        for nb in neighbors[site]:
            c = cls[nb]
            old = members[c]
            last = old.pop()
            if last != nb:
                p = pos[nb]
                old[p] = last
                pos[last] = p
            w[c] = len(old) * rates[c]
            c -= sigma
            new = members[c]
            pos[nb] = len(new)
            new.append(nb)
            w[c] = len(new) * rates[c]
            cls[nb] = c
        if stop is not None:
            state.bonds, state.pluses, state.time = bonds, pluses, t
            if stop(state):
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


# -- hitting times -------------------------------------------------------------


@dataclass
class HittingResult:
    time: float
    censored: bool
    trajectory: Trajectory


def hitting_time(mode, ctx, alpha, beta, predicate, seed, time_cap=None,
                 max_events=10_000_000, max_ticks=None):
    """First time the predicate holds, by the sampler ``mode`` names (the
    one place that picks one), with the run's trajectory and stop reason.

    Censored observations are flagged, and report the cap that stopped the
    run (the time cap, or the end of the graphical window that reached the
    event or tick cap) as a lower bound; a rejection-free run stopped by
    "underflow" is censored at the time it stopped.  ``max_ticks`` caps
    the clock arrivals a graphical run reads.
    """
    if mode == "rejection_free":
        if max_ticks is not None:
            raise ValueError("max_ticks applies to the graphical mode only")
        traj = evolve_rejection_free(seed, ctx, alpha, beta, stop=predicate,
                                     time_cap=time_cap, max_events=max_events)
    elif mode == "graphical":
        traj = evolve_graphical(EventStream(seed), ctx, alpha, beta,
                                stop=predicate, horizon=time_cap,
                                max_events=max_events, max_ticks=max_ticks)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # a stopped run ends at its hitting time
    return HittingResult(time=traj.t_end,
                         censored=traj.stop_reason != "stopped",
                         trajectory=traj)

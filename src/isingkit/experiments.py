"""Desk-scale experiment harnesses.

Arrhenius nucleation runs (hitting-time slopes against the exact barrier),
the microscopic infection process on a renormalized block lattice, an
abstract nucleation-and-growth model checking the relaxation-exponent
recursion, and the growth-threshold optimization identity.  Every
replicated run (nucleation, infection, growth model, stc audit) is described
by one ``RunConfig`` and goes through ``_replicate``, which owns the
beta-major replica order, the seeds (seed base + replica index), the row
prefix and the fork pool, and the fitted ones through ``_fit``.
``EXPERIMENTS`` names the fields each one reads and its two files, and
``report_files`` writes its report into them: the rows as one CSV whose
columns are the row keys, and every other key as one JSON file.  Outputs
are deterministic given the seeds and independent of the CPU count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import sys
import tempfile
from dataclasses import MISSING, dataclass, field as dc_field, fields
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np

from .energy import MagneticField
from .kmc import hitting_time, pred_all_plus, pred_exits_set
from .landscape import critical_constants, restricted_ensemble
from .lattice import (BoundaryCondition, BoxGeometry, Configuration,
                      build_context)
from .stc import track

# read once at import, since reading the umask means setting it
_UMASK = os.umask(0o022)
os.umask(_UMASK)

# side of a clipped growth window, in relaxation-cone lengths
WINDOW_CONES = 3.0
# the most sites a growth window may hold: a replica keeps about 80 bytes
# per site (two padded clock arrays, their sort order and a list of growth
# clocks), and every worker of the pool runs one at a time
MAX_WINDOW_SITES = 2 ** 20
# the largest x for which math.exp(x) does not overflow
_EXP_MAX = math.log(sys.float_info.max)
# the fields only the growth model reads
GROWTH_KEYS = ("d", "gamma", "kappa_prev", "L")
# the fields every replicated run reads, and those every run on a box reads
_RUN_KEYS = ("beta", "replicas", "seed", "caps_events")
_BOX_KEYS = _RUN_KEYS + ("dims", "bc", "h", "caps_time")
# each replicated experiment: the fields it reads besides ``experiment`` and
# ``out_dir``, its CSV file and its JSON file
EXPERIMENTS = {
    "nucleation": (_BOX_KEYS + ("mode",), "results.csv", "fit.json"),
    "infection": (_BOX_KEYS + ("block_side", "eligibility_defect"),
                  "results.csv", "summary.json"),
    "growth_model": (_RUN_KEYS + GROWTH_KEYS, "results.csv", "fit.json"),
    "stc_audit": (_BOX_KEYS + ("stc_threshold_D",), "distribution.csv",
                  "summary.json"),
}


@dataclass
class RunConfig:
    """One experiment run: box, field, temperatures, replication and caps.

    ``experiment`` is a key of ``EXPERIMENTS``, and every field it does not
    read keeps its default.  The growth model (``experiment="growth_model"``)
    is the renormalized nucleation-and-growth model on Z^d, and only it takes
    ``d``, ``gamma``, ``kappa_prev`` and ``L``.  Sites nucleate independently
    at rate exp(-beta*gamma); uninfected sites adjacent to the infected set
    catch at rate exp(-beta*kappa_prev) each.  ``kappa_prev = inf`` freezes
    growth entirely.  The simulated window is exp(beta*L) per side, clipped
    to ``WINDOW_CONES`` relaxation cones for tractability (clipping is
    flagged in the report).  ``gamma`` and ``L`` must be finite, every rate
    and window exponential a finite float at every beta, and no window
    larger than ``MAX_WINDOW_SITES`` sites.  Of the other fields it reads
    ``beta``, ``replicas``, ``seed`` and ``caps_events``.
    """

    experiment: str
    dims: list = dc_field(default_factory=lambda: [3])
    bc: str = "all_minus"
    h: str = "0.5"
    beta: list = dc_field(default_factory=lambda: [3.0, 4.0, 5.0, 6.0])
    replicas: int = 200
    seed: int = 1
    caps_events: int = 10_000_000
    caps_time: float = None
    block_side: int = 4
    eligibility_defect: int = 2
    stc_threshold_D: int = 6
    out_dir: str = None
    mode: str = "rejection_free"
    d: int = None
    gamma: float = None
    kappa_prev: float = None
    L: float = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}, not one "
                             f"of {sorted(EXPERIMENTS)}")
        reads = EXPERIMENTS[self.experiment][0] + ("experiment", "out_dir")
        unread = [f.name for f in fields(self) if f.name not in reads and
                  getattr(self, f.name) != (f.default if f.default_factory
                                            is MISSING else f.default_factory())]
        if unread:
            raise ValueError(f"{self.experiment} does not read {unread}: each "
                             f"must keep its default")
        if not (isinstance(self.dims, (list, tuple)) and self.dims
                and all(_is_number(s, numbers.Integral) and s >= 1
                        for s in self.dims)):
            raise ValueError(f"dims must be a non-empty list of positive "
                             f"integers, got {self.dims!r}")
        check_int("replicas", self.replicas, 1)
        check_int("seed", self.seed, 0)
        check_betas(self.beta)
        if self.mode not in ("rejection_free", "graphical"):
            raise ValueError(f"unknown mode {self.mode!r}")
        # replica r reads the event stream of seed + r, whose key is 64 bits
        if self.mode == "graphical" and self.seed + self.replicas > 1 << 64:
            raise ValueError(f"graphical replicas need --seed + --replicas "
                             f"- 1 below 2^64, got {self.seed} + "
                             f"{self.replicas} - 1")
        check_int("caps events", self.caps_events, 1)
        check_int("block side", self.block_side, 1)
        check_int("eligibility defect", self.eligibility_defect, 0)
        check_int("stc threshold D", self.stc_threshold_D, 0)
        check_caps_time(self.caps_time)
        BoundaryCondition.from_label(self.bc)
        if self.experiment == "growth_model":
            self._check_growth_model()

    def _check_growth_model(self):
        check_int("d", self.d, 1)
        for name in ("gamma", "L"):
            value = getattr(self, name)
            if not (_is_number(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, "
                                 f"got {value!r}")
        if not (_is_number(self.kappa_prev, numbers.Real)
                and -math.inf < self.kappa_prev <= math.inf):
            raise ValueError(f"kappa_prev must be a finite number or inf "
                             f"(frozen growth), got {self.kappa_prev!r}")
        kappa = self.kappa_predicted()
        for beta in self.beta:
            # the exponents _growth_single and run_growth_model exponentiate
            exponents = [("gamma", "-beta * gamma", -beta * self.gamma),
                         ("L", "beta * L", beta * self.L)]
            if kappa is not None:
                exponents += [
                    ("kappa_prev", "-beta * kappa_prev",
                     -beta * self.kappa_prev),
                    ("gamma - kappa_prev", "beta * (kappa - kappa_prev)",
                     beta * (kappa - self.kappa_prev))]
            for name, term, x in exponents:
                if not x <= _EXP_MAX:
                    raise ValueError(f"{name} out of range: exp({term}) "
                                     f"overflows at beta {beta!r}")
            side = self.window(beta)[0]
            if side ** self.d > MAX_WINDOW_SITES:
                raise ValueError(
                    f"L out of range: at beta {beta!r} the growth window "
                    f"holds {side}^{self.d} sites, over the bound of "
                    f"{MAX_WINDOW_SITES}")

    # ``beta`` under the name the benchmark's growth-model probe reads
    betas = property(lambda self: self.beta)

    @classmethod
    def from_dict(cls, data, **overrides):
        """A config from a file's key-value object, whose ``caps`` object
        stands for ``caps_events`` and ``caps_time``; the flat keyword
        overrides (command-line flags) win over the file, which may not
        spell them ``caps_events`` or ``caps_time``."""
        data = dict(data)
        flat = sorted({"caps_events", "caps_time"} & set(data))
        if flat:
            raise ValueError(f"config keys {flat}: write caps.events and "
                             f"caps.time in a caps object")
        caps = data.pop("caps", {})
        if not isinstance(caps, dict):
            raise ValueError(f"caps must be an object, got {caps!r}")
        unknown = set(caps) - {"events", "time"}
        if unknown:
            raise ValueError(f"unknown caps keys: {sorted(unknown)}")
        data.update({"caps_" + k: v for k, v in caps.items()})
        data.update(overrides)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if data.get("experiment") != "growth_model":
            unknown |= set(GROWTH_KEYS) & set(data)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def context(self):
        return build_context(BoxGeometry(tuple(self.dims)),
                             BoundaryCondition.from_label(self.bc),
                             MagneticField(self.h))

    def kappa_predicted(self):
        """(gamma + d*kappa_prev)/(d+1), or None when growth is frozen."""
        return (self.gamma + self.d * self.kappa_prev) / (self.d + 1) \
            if math.isfinite(self.kappa_prev) else None

    def window(self, beta):
        """(side, clipped): the odd side of the growth model's simulated
        window at beta, and whether the relaxation cone clipped it."""
        nominal = math.exp(beta * self.L)
        kappa = self.kappa_predicted()
        clipped = False
        if kappa is not None and math.exp(-beta * self.kappa_prev) > 0:
            cone = WINDOW_CONES * math.exp(beta * (kappa - self.kappa_prev))
            clipped = cone + 1 < nominal
            side_f = cone if clipped else nominal
        else:
            side_f = min(nominal, 3.0)
        return 2 * max(1, int(math.ceil(side_f / 2))) + 1, clipped


def _is_number(value, kind):
    return isinstance(value, kind) and not isinstance(value, bool)


def check_int(name, value, low):
    if not (_is_number(value, numbers.Integral) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_betas(betas):
    if not (isinstance(betas, (list, tuple)) and betas
            and all(_is_number(b, numbers.Real) and 0 < b < math.inf
                    for b in betas)):
        raise ValueError(f"beta values must be a non-empty list of finite "
                         f"positive numbers, got {betas!r}")
    # runs and fits are keyed by beta, so a repeat would drop replicas
    if len(set(betas)) != len(betas):
        raise ValueError(f"beta values must be distinct, got {betas!r}")


def check_caps_time(value):
    if value is not None and not (_is_number(value, numbers.Real)
                                  and 0 < value < math.inf):
        raise ValueError(f"caps time must be a finite positive number or "
                         f"null, got {value!r}")


# -- Arrhenius fitting ---------------------------------------------------------


def arrhenius_fit(times_by_beta, target=None, n_boot=1000, seed=0):
    """Least-squares slope of ln(mean hitting time) against beta.

    Bootstrap resampling of the replicas gives the confidence interval:
    resample k draws each temperature's replicas in turn, the indices of a
    block of resamples come from one bounded draw in that order, and the
    slopes of all resamples come from one least-squares fit with a column
    per resample.  Needs at least two temperatures: a slope from one point
    is undefined.  The bounded draw costs more per index than a draw per
    resample and temperature, so from about a thousand replicas per
    temperature it is the slower one (about 1.5x at two thousand).
    """
    betas = sorted(times_by_beta)
    if len(betas) < 2:
        raise ValueError("slope undefined: need at least two beta values")
    x = np.array(betas, dtype=float)
    y = np.array([math.log(np.mean(times_by_beta[b])) for b in betas])
    slope, intercept = np.polyfit(x, y, 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    samples = {b: np.asarray(times_by_beta[b], dtype=float) for b in betas}
    sizes = [samples[b].size for b in betas]
    bounds = np.cumsum([0] + sizes).tolist()
    # each beta's indices are bounded by its replica count
    highs = np.repeat(sizes, sizes)
    ys = np.empty((len(betas), n_boot))
    # resamples drawn in blocks of about 2^16 indices, so memory stays
    # bounded; row k of a block holds one resample's indices
    step = max(1, (1 << 16) // bounds[-1])
    for k in range(0, n_boot, step):
        idx = rng.integers(0, highs, size=(min(step, n_boot - k), bounds[-1]))
        for i, (b, lo, hi) in enumerate(zip(betas, bounds, bounds[1:])):
            ys[i, k:k + len(idx)] = [
                math.log(m)
                for m in samples[b][idx[:, lo:hi]].mean(axis=1).tolist()]
    boot = np.polyfit(x, ys, 1)[0]
    ci_low, ci_high = np.percentile(boot, [2.5, 97.5])
    out = {"slope": float(slope), "intercept": float(intercept),
           "ci_low": float(ci_low), "ci_high": float(ci_high),
           "n_boot": n_boot, "betas": betas,
           "replicas": {b: int(samples[b].size) for b in betas}}
    if target is not None:
        out["target"] = float(target)
        # undefined against a zero target
        out["relative_error"] = float(abs(slope - target) / abs(target)) \
            if target else None
    return out


def _fit(rows, betas, time, censored, target, seed):
    """The Arrhenius fit of column ``time`` over the betas with no row
    flagged in column ``censored`` (dropping censored replicas would bias
    the mean time low), given two such betas with two or more replicas each
    (one replica gives a bootstrap interval of zero width); else an error."""
    dropped = {r["beta"] for r in rows if r[censored]}
    usable = {b: [r[time] for r in rows if r["beta"] == b]
              for b in betas if b not in dropped}
    if len(usable) < 2 or min(map(len, usable.values())) < 2:
        return {"error": "fewer than two uncensored betas with two or more "
                         "replicas"}
    return arrhenius_fit(usable, target=target, seed=seed)


# -- replicated runs -----------------------------------------------------------


def _cpu_count():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the task of the running ``_replicate`` call, inherited by its workers
_TASK = None


def _run_task(i):
    return _TASK(i)


def _replicate(betas, replicas, seed, run):
    """One row per replica of every beta, beta-major: replica ``rep`` of
    ``beta`` is ``run(beta, seed + rep)``, a dict of its own columns, after
    the prefix ``replica``, ``seed``, ``beta``.

    The replicas run in a pool of forked workers, one per CPU up to one per
    replica, which is closed and joined before this returns or raises; in
    this process with one worker or without fork.  Rows are read in order,
    and the first replica whose run raises ends the pool with that error,
    without waiting for the replicas after it.  ``run`` may close over
    unpicklable state: the replica task sits in ``_TASK`` (one slot, so one
    call at a time per process) when the pool forks, so the workers inherit
    it and only indices and rows cross the pipe.  Fork, not spawn, also
    spares each worker a fresh import of numpy and isingkit.  Never call
    this at import time: workers forked while the parent holds an import
    lock block on it.
    """
    global _TASK

    def task(i):
        beta, rep = betas[i // replicas], i % replicas
        return {"replica": rep, "seed": seed + rep, "beta": beta,
                **run(beta, seed + rep)}

    count = len(betas) * replicas
    workers = min(_cpu_count(), count)
    if workers > 1:
        # imported here: at the top it would add 12-24 ms to every
        # ``import isingkit``
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            _TASK = task
            try:
                pool = multiprocessing.get_context("fork").Pool(workers)
                try:
                    results = list(pool.imap(_run_task, range(count)))
                    pool.close()
                except BaseException:
                    pool.terminate()
                    raise
                finally:
                    pool.join()
            finally:
                _TASK = None
            return results
    return [task(i) for i in range(count)]


# -- nucleation runs -----------------------------------------------------------

# clock arrivals a graphical replica may read: a run whose every tick is
# rejected (rates underflow at large beta) ends here.  Its last window holds
# about half of them, and the run peaks at about 48 bytes per arrival of
# that window (tracemalloc: 96 MiB for the 2.1M arrivals of a 4x4 box's
# window (65536, 131072])
GRAPHICAL_TICK_CAP = 4_000_000


def run_nucleation(config):
    """Replicated hitting times of local nucleation and of all-plus.

    Local nucleation is the first exit from the restricted ensemble of the
    box dimension (volume above the critical volume or energy above the
    barrier).  Each replica runs once with both observables recorded; each
    Arrhenius fit is ``_fit``'s, over the temperatures with no censored
    replica of that observable.  A graphical replica reads at most
    ``GRAPHICAL_TICK_CAP`` clock arrivals; the report's flags record the
    tick cap that applied, and each row the stop reason of its run
    ("stopped" once all-plus is reached, else the cap or "underflow" that
    ended it) and its applied flips.
    """
    tick_cap = GRAPHICAL_TICK_CAP if config.mode == "graphical" else None
    ctx = config.context()
    d = ctx.geometry.dimension
    h = ctx.field
    const = critical_constants(d, h)
    ens = restricted_ensemble(ctx, d, const)
    exit_pred = pred_exits_set(ens)
    plus_pred = pred_all_plus()

    def replica(beta, seed):
        nucleation_time = None

        def stop(state):
            nonlocal nucleation_time
            if nucleation_time is None and exit_pred(state):
                nucleation_time = state.time
            return plus_pred(state)

        res = hitting_time(config.mode, ctx,
                           Configuration.all_minus(ctx.geometry), beta, stop,
                           seed=seed, time_cap=config.caps_time,
                           max_events=config.caps_events, max_ticks=tick_cap)
        nuc_censored = nucleation_time is None
        return {"nucleation_time": res.time if nuc_censored
                else nucleation_time,
                "nucleation_censored": nuc_censored,
                "all_plus_time": res.time, "all_plus_censored": res.censored,
                "stop_reason": res.trajectory.stop_reason,
                "events": len(res.trajectory.events)}

    rows = _replicate(config.beta, config.replicas, config.seed, replica)
    target = float(const.gammas[d].value)
    report = {"constants": {"gamma": const.gammas[d].pair(),
                            "gamma_value": target, "m": const.m[d],
                            "l_c": const.l_c[d]},
              "rows": rows, "fits": {}, "flags": {"tick_cap": tick_cap}}
    for name in ("nucleation", "all_plus"):
        report["flags"][name + "_censored_betas"] = sorted(
            {r["beta"] for r in rows if r[name + "_censored"]})
        report["fits"][name] = _fit(rows, config.beta, name + "_time",
                                    name + "_censored", target, config.seed)
    return report


# -- microscopic infection -----------------------------------------------------

# a replica holds its whole trajectory in memory while it replays the
# flips block by block, so its run stops at this many events
INFECTION_EVENT_CAP = 200_000


def run_infection_microscopic(config):
    """Microscopic dynamics with renormalized block infections.

    The box is tiled by blocks of the configured side.  A block becomes
    infected the first time it is entirely plus and stops being infected the
    first later time its minus count exceeds the eligibility defect.  The
    block side and the defect stand in for the slowly growing scales of the
    asymptotic theory and are explicit parameters here.  Each replica runs
    at most ``INFECTION_EVENT_CAP`` events whatever ``caps_events`` says;
    the report records the cap that applied and the shape of the block
    lattice, and each row its first infection time (the run's end when
    no block was infected), its count of de-infected blocks, its stop
    reason and its applied flips.
    """
    ctx = config.context()
    dims = ctx.geometry.dims
    side = config.block_side
    if any(s % side for s in dims):
        raise ValueError("block side must divide every box side")
    block_dims = tuple(s // side for s in dims)
    site_block = {}
    block_size = side ** len(dims)
    for i in range(ctx.n_sites):
        coord = ctx.geometry.coord(i)
        site_block[i] = tuple(c // side for c in coord)
    blocks = sorted(set(site_block.values()))
    event_cap = min(config.caps_events, INFECTION_EVENT_CAP)

    def replica(beta, seed):
        traj = hitting_time("rejection_free", ctx,
                            Configuration.all_minus(ctx.geometry), beta,
                            pred_all_plus(), seed=seed,
                            time_cap=config.caps_time,
                            max_events=event_cap).trajectory
        minus_count = {b: block_size for b in blocks}
        t_first = {b: None for b in blocks}
        deinfected = set()
        for t, site, spin in traj.events:
            b = site_block[site]
            minus_count[b] += -1 if spin == 1 else 1
            if t_first[b] is None and minus_count[b] == 0:
                t_first[b] = t
            elif t_first[b] is not None and b not in deinfected \
                    and minus_count[b] > config.eligibility_defect:
                # one-shot: a de-infected block is never infected again
                deinfected.add(b)
        observed = [t for t in t_first.values() if t is not None]
        first = min(observed) if observed else None
        return {"first_infection_time": first if first is not None
                else traj.t_end,
                "censored": first is None,
                "deinfections": len(deinfected),
                "stop_reason": traj.stop_reason,
                "events": len(traj.events)}

    rows = _replicate(config.beta, config.replicas, config.seed, replica)
    report = {"rows": rows, "block_dims": block_dims,
              "event_cap": {"requested": config.caps_events,
                            "effective": event_cap},
              "persistence": {}}
    for beta in config.beta:
        brows = [r for r in rows if r["beta"] == beta]
        report["persistence"][beta] = {
            "deinfection_fraction": sum(r["deinfections"] > 0 for r in brows)
            / len(brows),
            "censored_fraction": sum(r["censored"] for r in brows) / len(brows),
        }
    report["fit"] = _fit(rows, config.beta, "first_infection_time",
                         "censored", None, config.seed)
    return report


# -- abstract growth model -----------------------------------------------------


def _growth_single(config, beta, seed):
    """Origin-coverage time of one replica, as site first-passage
    percolation (Richardson 1973).

    Every window site x gets a nucleation clock N(x) ~ Exp(rho) and a growth
    clock E(x) ~ Exp(v), drawn in two blocks from the replica's stream
    (E = inf when v = 0).  Its infection time is
    T(x) = min(N(x), E(x) + min over neighbours y of T(y)), computed by one
    Dijkstra sweep that settles sites in time order and stops when the
    origin is settled.  This is the law of the continuous-time chain in
    which each uninfected site catches at rate rho + v * 1[frontier]: by
    memorylessness a site's growth clock may be drawn in advance and started
    when the site joins the frontier (its first infected neighbour), and its
    nucleation clock, running from time 0, still has rate rho then.  Every
    settled site is one infection event of that chain.

    Returns (t, stop_reason, events): t is None unless
    stop_reason is "origin"; "event_cap" when the settled count reaches
    ``config.caps_events`` (the origin's own event included), "frozen" when
    no clock can ring any more.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        int(seed), spawn_key=(5,))))
    d = config.d
    side = config.window(beta)[0]
    shape = (side,) * d
    nuc = _padded(_clocks(rng, math.exp(-beta * config.gamma), shape))
    v = 0.0 if not math.isfinite(config.kappa_prev) else \
        math.exp(-beta * config.kappa_prev)
    gro = _padded(_clocks(rng, v, shape))
    origin = sum((side // 2 + 1) * (side + 2) ** k for k in range(d))
    return _first_passage(nuc, gro, origin, config.caps_events)


def _clocks(rng, rate, shape):
    if rate <= 0:
        return np.full(shape, math.inf)
    return rng.standard_exponential(shape) / rate


def _padded(clocks):
    """The clocks on a grid one site wider on every side, with inf on the
    border ring."""
    return np.pad(clocks, 1, constant_values=math.inf)


def _first_passage(nuc, gro, target, max_events):
    """Dijkstra sweep for T(x) = min(N(x), E(x) + min over neighbours T(y))
    on a padded grid (``nuc`` and ``gro`` as returned by ``_padded``), until
    the flat site ``target`` is settled.

    Nucleation times are read in sorted order and merged with a heap of
    growth times; the border ring is marked settled, so no neighbour index
    leaves the grid.  Returns (T(target) or None, stop_reason, events),
    events being the number of sites settled.
    """
    shape = nuc.shape
    strides = [int(np.prod(shape[k + 1:])) for k in range(len(shape))]
    offsets = [o for s in strides for o in (-s, s)]
    # 0: untouched; 1: growth clock running; 2: settled or border
    state = np.full(shape, 2, dtype=np.uint8)
    state[(slice(1, -1),) * len(shape)] = 0
    state = bytearray(state.tobytes())
    nuc = nuc.ravel()
    order = np.argsort(nuc)
    gro = gro.ravel().tolist()
    inf = math.inf
    heap = []
    k = 0
    t_nuc = float(nuc[order[0]])
    events = 0
    while True:
        if heap and heap[0][0] < t_nuc:
            t, x = heappop(heap)
        elif t_nuc < inf:
            t, x = t_nuc, int(order[k])
            k += 1
            t_nuc = float(nuc[order[k]])
        else:
            return None, "frozen", events
        if state[x] == 2:
            continue
        state[x] = 2
        events += 1
        if events >= max_events:
            return None, "event_cap", events
        if x == target:
            return t, "origin", events
        for off in offsets:
            y = x + off
            if state[y] == 0:
                state[y] = 1
                ty = t + gro[y]
                if ty < inf:
                    heappush(heap, (ty, y))


def run_growth_model(config):
    """Origin-coverage times of the renormalized model and the fitted
    relaxation exponent, compared with (gamma + d*kappa_prev)/(d+1).

    Each row records why its replica stopped and how many infections it
    took; ``flags["censored"]`` counts the censored replicas by reason.
    The fit is ``_fit``'s, over the temperatures with no censored replica.
    """
    def replica(beta, seed):
        t, stop_reason, events = _growth_single(config, beta, seed)
        return {"coverage_time": t, "censored": t is None,
                "side": config.window(beta)[0], "stop_reason": stop_reason,
                "events": events}

    rows = _replicate(config.beta, config.replicas, config.seed, replica)
    kappa = config.kappa_predicted()
    censored = [r for r in rows if r["censored"]]
    flags = {"clipped_windows": [b for b in config.beta
                                 if config.window(b)[1]],
             "too_small": [b for b in config.beta if kappa is not None and
                           config.window(b)[0]
                           < math.exp(b * (kappa - config.kappa_prev))],
             "censored_betas": [b for b in config.beta
                                if any(r["beta"] == b for r in censored)],
             "censored": {reason: sum(r["stop_reason"] == reason
                                      for r in censored)
                          for reason in ("event_cap", "frozen")}}
    return {"rows": rows, "flags": flags, "kappa_target": kappa,
            "fit": _fit(rows, config.beta, "coverage_time", "censored",
                        kappa, config.seed)}


# -- growth threshold identity ---------------------------------------------------


def solve_growth_threshold(gamma_d, gamma_prev, kappa_prev, kappa_d, d, L):
    """Both sides of the relaxation-threshold identity.

    The left side minimizes max(gamma_d - d K, gamma_prev, K + kappa_prev)
    over 0 <= K <= L at the piecewise-linear breakpoints; the right side is
    max(gamma_d - d L, kappa_d).  Exact Fractions in, exact equality out.
    """
    gd, gp, kp, kd = gamma_d, gamma_prev, kappa_prev, kappa_d
    zero = gd * 0

    def objective(K):
        return max(gd - d * K, gp, K + kp)

    candidates = [zero, L]
    k_star = (gd - kp) / (d + 1)
    candidates.append(k_star)
    candidates.append((gd - gp) / d)
    candidates.append(gp - kp)
    candidates = [min(max(K, zero), L) for K in candidates]
    best_k = min(candidates, key=objective)
    inf_max = objective(best_k)
    closed = max(gd - d * L, kd)
    return {"inf_max": inf_max, "closed_form": closed,
            "argmin_K": best_k, "equal": inf_max == closed}


def growth_threshold_from_constants(const, d, L):
    g = [const.gamma_value(n) for n in range(d + 1)]
    return solve_growth_threshold(g[d], g[d - 1], const.kappas[d - 1],
                                  const.kappas[d], d, L)


# -- stc audit -------------------------------------------------------------------


def run_stc_audit(config):
    """Replicated pre-nucleation cluster-diameter audit.

    Each replica runs the unrestricted dynamics from all-minus until it first
    leaves the restricted ensemble, tracks the space-time clusters over that
    window (exit flip included), and records the maximal cluster diameter
    with the run's stop reason and applied flips.  The audit runs at one
    beta, which its rows and its summary carry.
    """
    if len(config.beta) != 1:
        raise ValueError(f"stc-audit runs at one beta, got {config.beta!r}")
    ctx = config.context()
    d = ctx.geometry.dimension
    const = critical_constants(d, ctx.field)
    ens = restricted_ensemble(ctx, d, const)
    exit_pred = pred_exits_set(ens)

    def replica(beta, seed):
        res = hitting_time("rejection_free", ctx,
                           Configuration.all_minus(ctx.geometry), beta,
                           exit_pred, seed=seed, time_cap=config.caps_time,
                           max_events=config.caps_events)
        return {"max_diam": track(ctx, res.trajectory).max_diameter(),
                "exit_time": res.time, "censored": res.censored,
                "stop_reason": res.trajectory.stop_reason,
                "events": len(res.trajectory.events)}

    rows = _replicate(config.beta, config.replicas, config.seed, replica)
    max_diam = max(r["max_diam"] for r in rows)
    return {"rows": rows, "max_diam": max_diam,
            "threshold_D": config.stc_threshold_D,
            "passed": max_diam <= config.stc_threshold_D and
            not any(r["censored"] for r in rows),
            "beta": config.beta[0]}


# -- helpers --------------------------------------------------------------------


def report_files(experiment, report):
    """The files of a replicated run, name -> text: its report's rows as the
    experiment's CSV file and every other key of the report as its JSON
    file."""
    _, csv_name, json_name = EXPERIMENTS[experiment]
    rest = {k: v for k, v in report.items() if k != "rows"}
    return {csv_name: rows_to_csv(report["rows"]), json_name: json_text(rest)}


def rows_to_csv(rows):
    """CSV text of a list of dicts whose keys, in the first row's order,
    are the columns."""
    columns = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows([r[c] for c in columns] for r in rows)
    return buf.getvalue()


def json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True, default=str)


def write_files(out_dir, files):
    """Write each name -> text of ``files`` into ``out_dir`` (made if
    missing), one file at a time and each atomically."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        _write_atomic(os.path.join(out_dir, name), text)


def _write_atomic(path, text):
    """Write text to path through a temp file of its own in the same
    directory, fsynced and then renamed over path, so that concurrent
    writers never share a temp file and readers see old or new content.
    The temp file is removed if any step fails."""
    fh = tempfile.NamedTemporaryFile(
        "w", dir=os.path.dirname(path) or ".",
        prefix=os.path.basename(path) + ".", suffix=".tmp", delete=False)
    try:
        with fh:
            # the permissions open() would give, not the temp file's 0600
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(fh.name, path)
    except BaseException:
        os.unlink(fh.name)
        raise

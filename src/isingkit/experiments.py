"""Desk-scale experiment harnesses.

Arrhenius nucleation runs (hitting-time slopes against the exact barrier),
the microscopic infection process on a renormalized block lattice, an
abstract nucleation-and-growth model checking the relaxation-exponent
recursion, and the growth-threshold optimization identity.  All runs are
replica-parallelizable but executed sequentially with seeds derived as
seed base + replica index, so outputs are deterministic.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .energy import MagneticField
from .kmc import (hitting_time, pred_all_plus, pred_exits_set,
                  evolve_rejection_free)
from .landscape import critical_constants, restricted_ensemble
from .lattice import (BoundaryCondition, BoxGeometry, Configuration,
                      build_context)

# read once at import, since reading the umask means setting it
_UMASK = os.umask(0o022)
os.umask(_UMASK)


@dataclass
class RunConfig:
    """One experiment run: box, field, temperatures, replication and caps."""

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

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not self.beta or any(b <= 0 for b in self.beta):
            raise ValueError("beta values must be positive")
        if self.mode not in ("rejection_free", "graphical"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        caps = data.pop("caps", {})
        if "events" in caps:
            data["caps_events"] = caps["events"]
        if "time" in caps:
            data["caps_time"] = caps["time"]
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def boundary(self):
        if self.bc == "all_minus":
            return BoundaryCondition.all_minus()
        if self.bc == "all_plus":
            return BoundaryCondition.all_plus()
        if self.bc.startswith("n_pm_"):
            return BoundaryCondition.n_pm(int(self.bc.rsplit("_", 1)[1]))
        raise ValueError(f"unknown boundary kind {self.bc!r}")

    def context(self):
        return build_context(BoxGeometry(tuple(self.dims)), self.boundary(),
                             MagneticField(self.h))


# -- Arrhenius fitting ---------------------------------------------------------


def arrhenius_fit(times_by_beta, target=None, n_boot=1000, seed=0):
    """Least-squares slope of ln(mean hitting time) against beta.

    Bootstrap resampling of the replicas gives the confidence interval.
    Needs at least two temperatures: a slope from one point is undefined.
    """
    betas = sorted(times_by_beta)
    if len(betas) < 2:
        raise ValueError("slope undefined: need at least two beta values")
    x = np.array(betas, dtype=float)
    y = np.array([math.log(np.mean(times_by_beta[b])) for b in betas])
    slope, intercept = np.polyfit(x, y, 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    boot = np.empty(n_boot)
    samples = {b: np.asarray(times_by_beta[b], dtype=float) for b in betas}
    for k in range(n_boot):
        yk = []
        for b in betas:
            arr = samples[b]
            idx = rng.integers(0, arr.size, size=arr.size)
            yk.append(math.log(arr[idx].mean()))
        boot[k] = np.polyfit(x, np.array(yk), 1)[0]
    ci_low, ci_high = np.percentile(boot, [2.5, 97.5])
    out = {"slope": float(slope), "intercept": float(intercept),
           "ci_low": float(ci_low), "ci_high": float(ci_high),
           "n_boot": n_boot, "betas": betas,
           "replicas": {b: int(samples[b].size) for b in betas}}
    if target is not None:
        out["target"] = float(target)
        out["relative_error"] = float(abs(slope - target) / abs(target))
    return out


# -- nucleation runs -----------------------------------------------------------


def run_nucleation(config):
    """Replicated hitting times of local nucleation and of all-plus.

    Local nucleation is the first exit from the restricted ensemble of the
    box dimension (volume above the critical volume or energy above the
    barrier).  Each replica runs once with both observables recorded; the
    Arrhenius fits use only temperatures with no censored replicas.
    """
    ctx = config.context()
    d = ctx.geometry.dimension
    h = ctx.field
    const = critical_constants(d, h, verify_oracle=False)
    ens = restricted_ensemble(ctx, d, const)
    exit_pred = pred_exits_set(ens)
    plus_pred = pred_all_plus()
    rows = []
    nuc_by_beta = {}
    plus_by_beta = {}
    censored_betas = {"nucleation": set(), "all_plus": set()}
    for beta in config.beta:
        nuc_times, plus_times = [], []
        for rep in range(config.replicas):
            seed = config.seed + rep
            nucleation_time = [None]

            def stop(state):
                if nucleation_time[0] is None and exit_pred(state):
                    nucleation_time[0] = state.time
                return plus_pred(state)

            res = hitting_time(config.mode, ctx,
                               Configuration.all_minus(ctx.geometry), beta,
                               stop, seed=seed, time_cap=config.caps_time,
                               max_events=config.caps_events)
            nuc_t = nucleation_time[0]
            nuc_censored = nuc_t is None
            if nuc_censored:
                nuc_t = res.time
                censored_betas["nucleation"].add(beta)
            if res.censored:
                censored_betas["all_plus"].add(beta)
            rows.append({"replica": rep, "seed": seed, "beta": beta,
                         "nucleation_time": nuc_t,
                         "nucleation_censored": nuc_censored,
                         "all_plus_time": res.time,
                         "all_plus_censored": res.censored})
            nuc_times.append(nuc_t)
            plus_times.append(res.time)
        nuc_by_beta[beta] = nuc_times
        plus_by_beta[beta] = plus_times
    target = float(const.gammas[d].value)
    report = {"constants": {"gamma": const.gammas[d].pair(),
                            "gamma_value": target, "m": const.m[d],
                            "l_c": const.l_c[d]},
              "rows": rows, "fits": {}, "flags": {}}
    for name, data in (("nucleation", nuc_by_beta), ("all_plus", plus_by_beta)):
        usable = {b: v for b, v in data.items()
                  if b not in censored_betas[name]}
        report["flags"][name + "_censored_betas"] = sorted(censored_betas[name])
        if len(usable) >= 2:
            report["fits"][name] = arrhenius_fit(usable, target=target,
                                                 seed=config.seed)
        else:
            report["fits"][name] = {"error": "fewer than two uncensored betas"}
    return report


def write_nucleation_outputs(report, out_dir):
    import os
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "results.csv"),
                  _rows_to_csv(report["rows"],
                               ["replica", "seed", "beta", "nucleation_time",
                                "nucleation_censored", "all_plus_time",
                                "all_plus_censored"]))
    _write_atomic(os.path.join(out_dir, "fit.json"),
                  json.dumps({"fits": report["fits"],
                              "constants": report["constants"],
                              "flags": report["flags"]},
                             sort_keys=True, indent=2, default=str))


# -- microscopic infection -----------------------------------------------------


def run_infection_microscopic(config):
    """Microscopic dynamics with a renormalized infection indicator.

    The box is tiled by blocks of the configured side.  A block becomes
    infected the first time it is entirely plus and stops being infected the
    first later time its minus count exceeds the eligibility defect.  The
    block side and the defect stand in for the slowly growing scales of the
    asymptotic theory and are explicit parameters here.
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
    rows = []
    first_by_beta = {}
    for beta in config.beta:
        firsts = []
        for rep in range(config.replicas):
            seed = config.seed + rep
            traj = evolve_rejection_free(
                seed, ctx, Configuration.all_minus(ctx.geometry), beta,
                stop=pred_all_plus(), time_cap=config.caps_time,
                max_events=min(config.caps_events, 200_000))
            minus_count = {b: block_size for b in blocks}
            t_first = {b: None for b in blocks}
            t_deinf = {b: None for b in blocks}
            events = []
            for t, site, spin in traj.events:
                b = site_block[site]
                minus_count[b] += -1 if spin == 1 else 1
                if t_first[b] is None and minus_count[b] == 0:
                    t_first[b] = t
                    events.append((t, b, 1))
                elif t_first[b] is not None and t_deinf[b] is None \
                        and minus_count[b] > config.eligibility_defect:
                    # the indicator is one-shot: once de-infected it stays 0
                    t_deinf[b] = t
                    events.append((t, b, 0))
            observed = [t for t in t_first.values() if t is not None]
            first = min(observed) if observed else None
            censored = first is None
            deinfections = sum(1 for t in t_deinf.values() if t is not None)
            rows.append({"replica": rep, "seed": seed, "beta": beta,
                         "first_infection_time": first if first is not None
                         else traj.t_end,
                         "censored": censored,
                         "deinfections": deinfections,
                         "events": events})
            if not censored:
                firsts.append(first)
        first_by_beta[beta] = firsts
    report = {"rows": rows, "block_dims": block_dims,
              "persistence": {}}
    for beta in config.beta:
        brows = [r for r in rows if r["beta"] == beta]
        report["persistence"][beta] = {
            "deinfection_fraction": sum(r["deinfections"] > 0 for r in brows)
            / len(brows),
            "censored_fraction": sum(r["censored"] for r in brows) / len(brows),
        }
    usable = {b: v for b, v in first_by_beta.items() if len(v) >= 2
              and not any(r["censored"] for r in rows if r["beta"] == b)}
    if len(usable) >= 2:
        report["fit"] = arrhenius_fit(usable, seed=config.seed)
    return report


def recompute_infection_indicator(events, block, t):
    """Indicator state of one block at time t from its recorded events."""
    state = 0
    for et, b, val in events:
        if b != block or et > t:
            continue
        state = val
    return state


# -- abstract growth model -----------------------------------------------------


@dataclass
class GrowthModelParams:
    """Renormalized nucleation-and-growth model on Z^d.

    Sites nucleate independently at rate exp(-beta*gamma); uninfected sites
    adjacent to the infected set catch at rate exp(-beta*kappa_prev) each.
    ``kappa_prev = inf`` freezes growth entirely.  The simulated window is
    exp(beta*L) per side, clipped to a few relaxation cones for tractability
    (clipping is flagged in the report).
    """

    d: int
    gamma: float
    kappa_prev: float
    L: float
    betas: list
    replicas: int = 200
    seed: int = 1
    window_cones: float = 3.0
    max_events: int = 2_000_000

    def kappa_predicted(self):
        return (self.gamma + self.d * self.kappa_prev) / (self.d + 1) \
            if math.isfinite(self.kappa_prev) else None


def _growth_single(params, beta, seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        int(seed), spawn_key=(5,))))
    d = params.d
    rho = math.exp(-beta * params.gamma)
    v = 0.0 if not math.isfinite(params.kappa_prev) else \
        math.exp(-beta * params.kappa_prev)
    nominal = math.exp(beta * params.L)
    kappa = params.kappa_predicted()
    clipped = False
    if kappa is not None and v > 0:
        cone = params.window_cones * math.exp(beta * (kappa - params.kappa_prev))
        if cone + 1 < nominal:
            side_f = cone
            clipped = True
        else:
            side_f = nominal
    else:
        side_f = min(nominal, 3.0)
    half = max(1, int(math.ceil(side_f / 2)))
    side = 2 * half + 1
    n_sites = side ** d
    origin = (0,) * d
    infected = set()
    frontier_list = []
    frontier_pos = {}

    def add_frontier(c):
        if c in frontier_pos or c in infected:
            return
        frontier_pos[c] = len(frontier_list)
        frontier_list.append(c)

    def pop_frontier(c):
        k = frontier_pos.pop(c)
        last = frontier_list.pop()
        if k < len(frontier_list):
            frontier_list[k] = last
            frontier_pos[last] = k

    def infect(c):
        infected.add(c)
        if c in frontier_pos:
            pop_frontier(c)
        for axis in range(d):
            for step in (-1, 1):
                nb = list(c)
                nb[axis] += step
                nb = tuple(nb)
                if all(-half <= x <= half for x in nb) and nb not in infected:
                    add_frontier(nb)

    t = 0.0
    events = 0
    while origin not in infected:
        n_uninf = n_sites - len(infected)
        rate_nuc = rho * n_uninf
        rate_gro = v * len(frontier_list)
        total = rate_nuc + rate_gro
        if total <= 0:
            return None, clipped, side
        t += rng.exponential() / total
        if rng.random() * total < rate_nuc:
            while True:
                c = tuple(int(rng.integers(-half, half + 1)) for _ in range(d))
                if c not in infected:
                    break
            infect(c)
        else:
            c = frontier_list[int(rng.integers(0, len(frontier_list)))]
            infect(c)
        events += 1
        if events >= params.max_events:
            return None, clipped, side
    return t, clipped, side


def run_growth_model(params):
    """Origin-coverage times of the renormalized model and the fitted
    relaxation exponent, compared with (gamma + d*kappa_prev)/(d+1)."""
    rows = []
    times_by_beta = {}
    flags = {"clipped_windows": [], "too_small": []}
    for beta in params.betas:
        times = []
        for rep in range(params.replicas):
            t, clipped, side = _growth_single(params, beta,
                                              params.seed + rep)
            rows.append({"replica": rep, "seed": params.seed + rep,
                         "beta": beta, "coverage_time": t,
                         "censored": t is None, "side": side})
            if clipped and beta not in flags["clipped_windows"]:
                flags["clipped_windows"].append(beta)
            if t is not None:
                times.append(t)
        kappa = params.kappa_predicted()
        if kappa is not None and side < math.exp(beta * (kappa - params.kappa_prev)):
            flags["too_small"].append(beta)
        times_by_beta[beta] = times
    report = {"rows": rows, "flags": flags,
              "kappa_target": params.kappa_predicted()}
    usable = {b: v for b, v in times_by_beta.items() if len(v) >= 2}
    if len(usable) >= 2:
        report["fit"] = arrhenius_fit(usable, target=params.kappa_predicted(),
                                      seed=params.seed)
    return report


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
    window (exit flip included), and records the maximal cluster diameter.
    """
    from .stc import track

    ctx = config.context()
    d = ctx.geometry.dimension
    const = critical_constants(d, ctx.field, verify_oracle=False)
    ens = restricted_ensemble(ctx, d, const)
    beta = config.beta[0]
    rows = []
    for rep in range(config.replicas):
        seed = config.seed + rep
        res = hitting_time("rejection_free", ctx,
                           Configuration.all_minus(ctx.geometry), beta,
                           pred_exits_set(ens), seed=seed,
                           time_cap=config.caps_time,
                           max_events=config.caps_events,
                           keep_trajectory=True)
        ledger = track(ctx, res.trajectory)
        rows.append({"replica": rep, "seed": seed,
                     "max_diam": ledger.max_diameter(),
                     "exit_time": res.time, "censored": res.censored})
    max_diam = max(r["max_diam"] for r in rows)
    return {"rows": rows, "max_diam": max_diam,
            "threshold_D": config.stc_threshold_D,
            "passed": max_diam <= config.stc_threshold_D and
            not any(r["censored"] for r in rows),
            "beta": beta}


def write_stc_audit_outputs(report, out_dir):
    import os
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "distribution.csv"),
                  _rows_to_csv(report["rows"],
                               ["replica", "seed", "max_diam", "exit_time",
                                "censored"]))
    summary = {k: report[k] for k in ("max_diam", "threshold_D", "passed",
                                      "beta")}
    _write_atomic(os.path.join(out_dir, "summary.json"),
                  json.dumps(summary, sort_keys=True, indent=2))


# -- helpers --------------------------------------------------------------------


def _rows_to_csv(rows, columns):
    import io
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for r in rows:
        writer.writerow([r[c] for c in columns])
    return buf.getvalue()


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

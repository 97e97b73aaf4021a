"""The four benchmark workloads.

Each workload builds its inputs from the seed (``setup``), runs one pass of
fixed work through isingkit's public functions (``run_pass``) and checks the
outputs of a pass (``check``).  ``run_pass`` calls ``tick`` between calls
into the package, where the clock may calibrate (see ``clock.py``);
``per_call_ticks`` names functions reached once per replica, after which
the untraced run ticks as well.  A workload whose amount of work is random
(``nucleation_2d``) also counts it there (``work_of``) and has its time
scaled to ``reference_work``.

The layer probes in ``layers.py`` find their way into these calls through
the isingkit module attributes used here, so every call below goes through
``module.function`` and never through a name imported into this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import shutil

from isingkit import cli, energy, experiments, kmc, landscape, lattice, stc

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


def derived_seed(workload, seed, label=""):
    """A 31-bit seed for one input of one workload, fixed by the run seed."""
    return random.Random(f"{workload}:{seed}:{label}").randrange(1, 2 ** 31)


def boundary(label):
    if label == "all_minus":
        return lattice.BoundaryCondition.all_minus()
    return lattice.BoundaryCondition.n_pm(int(label.rsplit("_", 1)[1]))


def check(label, ok, detail=""):
    return {"check": label, "ok": bool(ok), "detail": str(detail)}


# -- landscape_exact ------------------------------------------------------------

GRID_FIELD = "sqrt2/2"
GRID_BCS = ("all_minus", "n_pm_1", "n_pm_2")
Y_SETS = ("all", "all_minus_bottom", "all_minus_0_full")


def landscape_cases(smoke=False):
    """(kind, dims, boundary, field) of every landscape task, in run order.

    ``grid`` runs the three criterion-03 Y sets through maximal_compounds,
    ``rational`` the last of them under h = 0.5, ``cycles`` runs
    maximal_cycles on Y = all - {full}, ``sweep`` only enumerates and
    computes the barrier.
    """
    grid_dims = ((2, 2), (2, 3)) if smoke else ((2, 2), (2, 3), (3, 3))
    cases = [("grid", dims, bc, GRID_FIELD)
             for dims in grid_dims for bc in GRID_BCS]
    if smoke:
        return cases + [("rational", (2, 3), "all_minus", "0.5"),
                        ("cycles", (3, 3), "all_minus", GRID_FIELD),
                        ("sweep", (3, 3), "all_minus", GRID_FIELD)]
    return cases + [("rational", (3, 3), "all_minus", "0.5"),
                    ("cycles", (4, 4), "all_minus", GRID_FIELD),
                    ("sweep", (4, 5), "all_minus", GRID_FIELD)]


def case_key(kind, dims, bc, h):
    return f"{kind}:{'x'.join(map(str, dims))}:{bc}:{h}"


def partition_digest(partition):
    text = "\n".join(sorted(",".join(map(str, sorted(b.states)))
                            for b in partition.blocks))
    return hashlib.sha256(text.encode()).hexdigest()


class LandscapeExact:
    name = "landscape_exact"
    why = ("exact, no random numbers: many small compound partitions beside "
           "one 2^20-state sweep; runs no kmc code")
    per_call_ticks = ()

    def setup(self, seed, smoke, work_dir):
        cases = []
        for kind, dims, bc, h in landscape_cases(smoke):
            ctx = lattice.build_context(lattice.BoxGeometry(dims),
                                        boundary(bc),
                                        energy.MagneticField(h))
            cases.append({"key": case_key(kind, dims, bc, h), "kind": kind,
                          "ctx": ctx})
        return {"cases": cases}

    def run_pass(self, inputs, tick):
        out = []
        for case in inputs["cases"]:
            ctx, kind = case["ctx"], case["kind"]
            g = landscape.enumerate_landscape(ctx)
            tick()
            full = (1 << ctx.n_sites) - 1
            barrier = landscape.communication_energy(g, [0], [full])
            tick()
            res = {"key": case["key"], "kind": kind,
                   "barrier": list(barrier.pair()), "partitions": {}}
            if kind != "sweep":
                everything = frozenset(g.states())
            if kind == "grid":
                bottom = min(landscape.bottom_of(g, g.states()))
                ys = {"all": everything,
                      "all_minus_bottom": everything - {bottom},
                      "all_minus_0_full": everything - {0, full}}
                for label in Y_SETS:
                    res["partitions"][label] = landscape.maximal_compounds(
                        g, ys[label])
                    tick()
            elif kind == "rational":
                res["partitions"]["all_minus_0_full"] = \
                    landscape.maximal_compounds(g, everything - {0, full})
            elif kind == "cycles":
                res["partitions"]["all_minus_full"] = \
                    landscape.maximal_cycles(g, everything - {full})
            tick()
            if kind in ("grid", "rational"):
                res["graph"] = g
            out.append(res)
        return out

    def check(self, inputs, outputs):
        with open(PINS_PATH) as fh:
            pins = json.load(fh)
        checks = []
        for res in outputs:
            key = res["key"]
            pin = pins.get(key)
            if pin is None:
                checks.append(check(f"{key}: pinned", False, "no pin"))
                continue
            checks.append(check(f"{key}: barrier", res["barrier"] ==
                                pin["barrier"], res["barrier"]))
            if res["kind"] in ("cycles", "sweep") and \
                    key.endswith(GRID_FIELD):
                checks.append(check(f"{key}: barrier is (12, 7)",
                                    res["barrier"] == [12, 7],
                                    res["barrier"]))
            for label, part in res["partitions"].items():
                want = pin["partitions"][label]
                got = summarize_partition(part)
                for field in ("blocks", "digest", "tie_events"):
                    checks.append(check(f"{key} {label}: {field}",
                                        got[field] == want[field],
                                        got[field]))
                if part.kind == "compounds":
                    g = res["graph"]
                    bad = sum(len(landscape.bottom_of(g, b.states)) != 1
                              for b in part.blocks)
                    checks.append(check(f"{key} {label}: singleton bottoms",
                                        bad == 0, f"{bad} blocks"))
        return checks


def summarize_partition(part):
    return {"blocks": len(part.blocks), "digest": partition_digest(part),
            # as JSON reads them back: tuples become lists
            "tie_events": json.loads(json.dumps(part.tie_events))}


def record_pins():
    """Pinned landscape outputs (barriers, partitions, tie events)."""
    bench = LandscapeExact()
    pins = {}
    for smoke in (False, True):
        for res in bench.run_pass(bench.setup(0, smoke, None), lambda: None):
            pins[res["key"]] = {
                "barrier": res["barrier"],
                "partitions": {label: summarize_partition(part)
                               for label, part in res["partitions"].items()}}
    return pins


# -- kinetic_scaling ----------------------------------------------------------------

SIDES = (8, 32, 64, 128)
KINETIC_BETA = 1.5
KINETIC_FIELD = "sqrt2/2"


class KineticScaling:
    name = "kinetic_scaling"
    why = ("per-event costs that grow with box size: sampler, cluster "
           "tracking and graphical clock from 8^2 to 128^2; L=8 is the "
           "control")
    per_call_ticks = ()

    def setup(self, seed, smoke, work_dir):
        budget = 100 if smoke else 10_000
        # expected graphical arrivals per side: 2 L^2 per unit time
        arrivals = 512 if smoke else 32_768
        legs = []
        for side in SIDES:
            ctx = lattice.build_context(
                lattice.BoxGeometry((side, side)),
                lattice.BoundaryCondition.all_minus(),
                energy.MagneticField(KINETIC_FIELD))
            legs.append({
                "side": side, "ctx": ctx,
                "alpha": lattice.Configuration.all_minus(ctx.geometry),
                "budget": budget,
                "time_cap": arrivals / (2.0 * side * side),
                "seed_rf": derived_seed(self.name, seed, f"rf{side}"),
                "seed_graphical": derived_seed(self.name, seed, f"g{side}")})
        return {"legs": legs}

    def run_pass(self, inputs, tick):
        out = []
        for leg in inputs["legs"]:
            ctx, alpha = leg["ctx"], leg["alpha"]
            traj = kmc.evolve_rejection_free(leg["seed_rf"], ctx, alpha,
                                             KINETIC_BETA,
                                             max_events=leg["budget"])
            tick()
            ledger = stc.track(ctx, traj)
            tick()
            hit = kmc.hitting_time("graphical", ctx, alpha, KINETIC_BETA,
                                   kmc.pred_all_plus(),
                                   seed=leg["seed_graphical"],
                                   time_cap=leg["time_cap"])
            tick()
            out.append({"side": leg["side"], "trajectory": traj,
                        "ledger": ledger, "hit": hit})
        return out

    def check(self, inputs, outputs):
        checks = []
        for leg, res in zip(inputs["legs"], outputs):
            side, traj, hit = leg["side"], res["trajectory"], res["hit"]
            checks.append(check(f"L{side}: events equal the budget",
                                len(traj.events) == leg["budget"] and
                                traj.stop_reason == "event_cap",
                                f"{len(traj.events)} {traj.stop_reason}"))
            try:
                replayed = sum(1 for _ in traj.replay())
                ok, detail = replayed == leg["budget"], replayed
            except ValueError as exc:
                ok, detail = False, exc
            checks.append(check(f"L{side}: trajectory replays", ok, detail))
            diam = res["ledger"].max_diameter()
            checks.append(check(f"L{side}: track diameter <= L-1",
                                0 <= diam <= side - 1, diam))
            cap = leg["time_cap"]
            ok = hit.time == cap if hit.censored else 0 <= hit.time <= cap
            checks.append(check(f"L{side}: graphical hitting time within cap",
                                ok, f"{hit.time} censored={hit.censored}"))
        return checks


# -- CLI workloads -------------------------------------------------------------------


def run_cli(argv):
    """cli.main in-process with stdout captured; returns (code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def output_bytes(outputs):
    """Bytes a pass printed and wrote through the CLI (0 without it)."""
    items = outputs if isinstance(outputs, list) else [outputs]
    return sum(o.get("output_bytes", 0) for o in items)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Nucleation2d:
    name = "nucleation_2d"
    why = ("the headline Arrhenius experiment through the CLI: mid-size box, "
           "exit predicate on every event, bootstrap fit, output writing; "
           "no stc")
    # hitting_time reaches the sampler through the kmc module; the events
    # are still on the trajectory when it returns
    per_call_ticks = ((kmc, "evolve_rejection_free"),)
    # applied flips a pass is scaled to: about the mean of 100 replicas
    reference_work = 850_000

    @staticmethod
    def work_of(trajectory):
        return len(trajectory.events)

    def setup(self, seed, smoke, work_dir):
        replicas = 4 if smoke else 100
        out_dir = os.path.join(work_dir, self.name)
        argv = ["nucleation", "--dims", "12,12", "--h", "sqrt2/2",
                "--beta", "1.6,2.0,2.4", "--mode", "rejection_free",
                "--seed", str(derived_seed(self.name, seed)),
                "--replicas", str(replicas), "--out-dir", out_dir]
        return {"argv": argv, "out_dir": out_dir, "replicas": replicas}

    def run_pass(self, inputs, tick):
        fresh_dir(inputs["out_dir"])
        code, stdout = run_cli(inputs["argv"])
        tick()
        return {"code": code, "stdout": stdout,
                "output_bytes": len(stdout.encode())
                + tree_bytes(inputs["out_dir"])}

    def check(self, inputs, outputs):
        checks = [check("exit code 0", outputs["code"] == 0,
                        outputs["code"])]
        try:
            fit = read_json(os.path.join(inputs["out_dir"], "fit.json"))
            rows = read_csv(os.path.join(inputs["out_dir"], "results.csv"))
            json.loads(outputs["stdout"])
        except (OSError, ValueError) as exc:
            return checks + [check("fit.json and results.csv parse", False,
                                   exc)]
        checks.append(check("fit.json and results.csv parse",
                            len(rows) == 3 * inputs["replicas"], len(rows)))
        checks.append(check("Gamma_2 = (12, 7)",
                            fit["constants"]["gamma"] == [12, 7],
                            fit["constants"]["gamma"]))
        censored = (fit["flags"]["all_plus_censored_betas"]
                    + fit["flags"]["nucleation_censored_betas"])
        checks.append(check("no censored beta", not censored, censored))
        rel = fit["fits"]["all_plus"].get("relative_error")
        checks.append(check("slope within 20% of Gamma_2",
                            rel is not None and rel < 0.20, rel))
        return checks


GROWTH_SETS = (
    {"d": "1", "gamma": "1.5", "kappa_prev": "0", "L": "1", "target": 0.75},
    {"d": "2", "gamma": "2", "kappa_prev": "0.5", "L": "0.7", "target": 1.0},
)


class GrowthModel:
    name = "growth_model"
    why = ("the harness layer's own growth simulator through the CLI; "
           "touches neither kmc nor landscape, so it is the control for both")
    # the simulator of one replica; only ticked, so the hook is skipped if
    # the package renames it
    per_call_ticks = ((experiments, "_growth_single"),)

    def setup(self, seed, smoke, work_dir):
        replicas = 4 if smoke else 130
        runs = []
        for params in GROWTH_SETS:
            out_dir = os.path.join(work_dir, f"{self.name}_d{params['d']}")
            argv = ["growth-model", "--d", params["d"],
                    "--gamma", params["gamma"],
                    "--kappa-prev", params["kappa_prev"], "--L", params["L"],
                    "--beta", "4,6,8", "--replicas", str(replicas),
                    "--seed", str(derived_seed(self.name, seed, params["d"])),
                    "--out-dir", out_dir]
            runs.append({"argv": argv, "out_dir": out_dir,
                         "target": params["target"]})
        return {"runs": runs, "replicas": replicas}

    def run_pass(self, inputs, tick):
        out = []
        for run in inputs["runs"]:
            fresh_dir(run["out_dir"])
            code, stdout = run_cli(run["argv"])
            tick()
            out.append({"code": code, "stdout": stdout,
                        "output_bytes": len(stdout.encode())
                        + tree_bytes(run["out_dir"])})
        return out

    def check(self, inputs, outputs):
        checks = []
        for run, res in zip(inputs["runs"], outputs):
            d = run["argv"][2]
            checks.append(check(f"d={d}: exit code 0", res["code"] == 0,
                                res["code"]))
            try:
                printed = json.loads(res["stdout"])
                fit = read_json(os.path.join(run["out_dir"], "fit.json"))
                rows = read_csv(os.path.join(run["out_dir"], "results.csv"))
            except (OSError, ValueError) as exc:
                checks.append(check(f"d={d}: outputs parse", False, exc))
                continue
            checks.append(check(f"d={d}: target is {run['target']}",
                                printed["kappa_target"] == run["target"]
                                and fit["kappa_target"] == run["target"],
                                printed["kappa_target"]))
            rel = fit["fit"].get("relative_error")
            checks.append(check(f"d={d}: relative error < 0.15",
                                rel is not None and rel < 0.15, rel))
            censored = sum(r["censored"] != "False" for r in rows)
            checks.append(check(f"d={d}: no replica censored",
                                len(rows) == 3 * inputs["replicas"]
                                and censored == 0,
                                f"{censored} of {len(rows)}"))
        return checks


WORKLOADS = {w.name: w for w in (LandscapeExact(), KineticScaling(),
                                 Nucleation2d(), GrowthModel())}

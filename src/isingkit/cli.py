"""Command-line surface.

The replicated experiments (nucleation, infection, stc-audit) take
``--config`` (a JSON key-value file) plus flags named after the
``RunConfig`` fields they override; every subcommand takes only the flags it
reads.  They and growth-model run their replicas through
``experiments._replicate``, across the CPUs the process may use, and every
run of the dynamics, simulate's too, is one ``kmc.hitting_time`` call.
Every subcommand hands its files to ``_emit``, which prints one JSON object
(the run's JSON file's, if it writes one) through ``json_text``.  Outputs are
deterministic given the seeds and independent of the CPU count, and written
atomically, so partial results never land on disk when a run fails.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .energy import MagneticField
from .experiments import (GrowthModelParams, RunConfig, check_betas,
                          check_caps_time, check_int, growth_model_files,
                          growth_threshold_from_constants, infection_files,
                          json_text, nucleation_files, rows_to_csv,
                          run_growth_model, run_infection_microscopic,
                          run_nucleation, run_stc_audit, stc_audit_files,
                          write_files)
from .landscape import (critical_constants, enumerate_landscape,
                        landscape_to_csv, maximal_compounds, maximal_cycles,
                        partition_to_csv)
from .lattice import BoundaryCondition, BoxGeometry, Configuration, build_context
from .isoperimetry import oracle_table
from .kmc import hitting_time, pred_all_plus
from .wgraph import (exit_oracle_linear, exit_point_law, expected_exit_time,
                     random_rate_matrix)


def _emit(out_dir, files, printed=None):
    """The one output step of every subcommand: write ``files`` (name ->
    text) into ``out_dir`` when one is given, then print one JSON object,
    ``printed`` or, when that is omitted, the object of the one ``.json``
    file among ``files``."""
    if out_dir:
        write_files(out_dir, files)
    if printed is None:
        [name] = [name for name in files if name.endswith(".json")]
        printed = json.loads(files[name])
    print(json_text(printed))


def _load_config(args, experiment, required=()):
    """The run config from ``--config`` and the flags, the flags winning;
    each key in ``required`` must come from one of them, not a default, and
    a file's ``experiment`` key must name this one."""
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} must hold a JSON "
                             f"object, got {type(data).__name__}")
        if data.get("experiment", experiment) != experiment:
            raise ValueError(f"config file {args.config} is for experiment "
                             f"{data['experiment']!r}, not {experiment!r}")
    # every flag is named after the RunConfig field it sets
    flags = {key: getattr(args, key) for key in RunConfig.__dataclass_fields__
             if getattr(args, key, None) is not None}
    for key in required:
        if key not in data and key not in flags:
            raise ValueError(f"{args.command} needs --{key} or a {key} key "
                             f"in the --config file")
    return RunConfig.from_dict(data, experiment=experiment, **flags)


def _box_context(args):
    """The context of the box read from --dims, --bc and --h."""
    return build_context(BoxGeometry(tuple(args.dims)),
                         BoundaryCondition.from_label(args.bc or "all_minus"),
                         MagneticField(args.h))


def _text(write, *args):
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def _parse_dims(text):
    return [int(x) for x in text.replace("x", ",").split(",") if x]


def _parse_betas(text):
    return [float(x) for x in text.split(",") if x]


def _add_box(p, required=False):
    """Box flags: shape, boundary condition and field, and where the
    subcommand writes its files."""
    p.add_argument("--dims", type=_parse_dims, required=required)
    p.add_argument("--bc", help="all_minus | all_plus | n_pm_<n>")
    p.add_argument("--h", required=required,
                   help="field token, e.g. sqrt2/2 or 0.5")
    p.add_argument("--out-dir", dest="out_dir")


def _add_run(p, replicated=True):
    """Run flags: seed and caps, and for the replicated experiments a config
    file, the beta list and the replica count."""
    if replicated:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--beta", type=_parse_betas)
        p.add_argument("--replicas", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--caps-events", type=int, dest="caps_events")
    p.add_argument("--caps-time", type=float, dest="caps_time")


def _constants(args):
    """The field and the critical constants of ``--h`` for 1..``--d``."""
    if args.d < 1:
        raise ValueError(f"--d must be at least 1, got {args.d}")
    h = MagneticField(args.h)
    return h, critical_constants(args.d, h)


def _cmd_constants(args):
    h, const = _constants(args)
    rows = []
    for n in range(1, args.d + 1):
        rows.append({"n": n, "l_c": const.l_c[n], "m": const.m[n],
                     "gamma_bonds": const.gammas[n].bonds,
                     "gamma_pluses": const.gammas[n].pluses,
                     "gamma": float(const.gammas[n].value),
                     "kappa": float(const.kappas[n]),
                     "L": float(const.Ls[n]),
                     "argmax_ties": const.argmax_ties[n]})
    _emit(None, {}, {"d": args.d, "h": h.token, "table": rows})
    return 0


def _cmd_landscape(args):
    ctx = _box_context(args)
    graph = enumerate_landscape(ctx)
    # Y: every state but all-plus, the last one
    y = np.arange((1 << ctx.n_sites) - 1)
    part = maximal_compounds(graph, y) if args.partition == "compounds" \
        else maximal_cycles(graph, y)
    out_dir = args.out_dir or "."
    assign, summary = io.StringIO(), io.StringIO()
    partition_to_csv(graph, part, assign, summary)
    files = {"states.csv": _text(landscape_to_csv, graph),
             "partition.csv": assign.getvalue(),
             "blocks.csv": summary.getvalue()}
    _emit(out_dir, files, {"out_dir": out_dir, "files": list(files),
                           "states": graph.n_states,
                           "blocks": len(part.blocks)})
    return 0


def _cmd_wgraph_check(args):
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.max_states < 2:
        raise ValueError(
            f"--max-states must be at least 2, got {args.max_states}")
    rng = random.Random(args.seed or 0)
    worst_tv, worst_rel = 0.0, 0.0
    for _ in range(args.count):
        n = rng.randrange(2, args.max_states + 1)
        rm = random_rate_matrix(rng, n, dense=(n <= 5 and rng.random() < 0.5))
        k = rng.randrange(1, n)
        w = rng.sample(range(n), k)
        x = rng.choice([s for s in range(n) if s not in w])
        dist = exit_point_law(rm, w, x)
        t = expected_exit_time(rm, w, x)
        dist_o, t_o = exit_oracle_linear(rm, w, x)
        tv = 0.5 * sum(abs(dist[s] - dist_o[s]) for s in w)
        rel = abs(t - t_o) / t_o if t_o else 0.0
        worst_tv, worst_rel = max(worst_tv, tv), max(worst_rel, rel)
    passed = worst_tv <= 1e-9 and worst_rel <= 1e-9
    _emit(None, {}, {"instances": args.count, "max_tv": worst_tv,
                     "max_rel_time_err": worst_rel, "pass": passed})
    return 0 if passed else 1


def _cmd_simulate(args):
    ctx = _box_context(args)
    alpha = Configuration.all_minus(ctx.geometry)
    check_betas([args.beta])
    if args.caps_events is not None:
        check_int("caps events", args.caps_events, 1)
    check_caps_time(args.caps_time)
    # a graphical run is bounded in time, a rejection-free one in events
    time_cap, max_events = args.caps_time, args.caps_events
    if args.mode == "graphical":
        time_cap = 100.0 if time_cap is None else time_cap
    elif max_events is None:
        max_events = 1_000_000
    stop = pred_all_plus() if args.stop == "all_plus" else None
    traj = hitting_time(args.mode, ctx, alpha, args.beta, stop,
                        seed=1 if args.seed is None else args.seed,
                        time_cap=time_cap, max_events=max_events).trajectory
    _emit(args.out_dir or ".", {"trajectory.csv": _text(traj.to_csv),
                                "summary.json": json_text(traj.summary())})
    return 0


def _cmd_nucleation(args):
    config = _load_config(args, "nucleation")
    _emit(config.out_dir, nucleation_files(run_nucleation(config)))
    return 0


def _cmd_infection(args):
    config = _load_config(args, "infection")
    _emit(config.out_dir, infection_files(run_infection_microscopic(config)))
    return 0


def _cmd_growth_model(args):
    optional = {k: getattr(args, k) for k in ("replicas", "seed")
                if getattr(args, k) is not None}
    params = GrowthModelParams(d=args.d, gamma=args.gamma,
                               kappa_prev=args.kappa_prev, L=args.L,
                               betas=args.beta, **optional)
    _emit(args.out_dir, growth_model_files(run_growth_model(params)))
    return 0


def _cmd_isoperimetry(args):
    rows = oracle_table(args.d, args.vmax)
    _emit(args.out_dir, {"isoperimetry.csv": rows_to_csv(rows)},
          {"d": args.d, "vmax": args.vmax, "rows": rows})
    return 0


def _cmd_stc_audit(args):
    config = _load_config(args, "stc_audit", required=("beta",))
    report = run_stc_audit(config)
    _emit(config.out_dir, stc_audit_files(report))
    return 0 if report["passed"] else 1


def _cmd_growth_threshold(args):
    h, const = _constants(args)
    L = Fraction(args.L).limit_denominator(10**6) if h.rational is not None \
        else float(args.L)
    result = growth_threshold_from_constants(const, args.d, L)
    _emit(None, {}, {k: str(v) for k, v in result.items()})
    return 0 if result["equal"] else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="isingkit")
    parser.add_argument("--version", action="version",
                        version=f"isingkit {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("constants", help="critical droplet constants table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--h", required=True)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("landscape", help="enumerate, partition and export")
    _add_box(p, required=True)
    p.add_argument("--partition", choices=["cycles", "compounds"],
                   default="compounds")
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("wgraph-check", help="graph sums vs linear oracle")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--max-states", type=int, default=8, dest="max_states")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_wgraph_check)

    p = sub.add_parser("simulate", help="single trajectory export")
    _add_box(p, required=True)
    _add_run(p, replicated=False)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--mode", choices=["graphical", "rejection_free"],
                   default="rejection_free")
    p.add_argument("--stop", choices=["all_plus", "none"], default="none")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("nucleation", help="Arrhenius nucleation experiment")
    _add_box(p)
    _add_run(p)
    p.add_argument("--mode", choices=["graphical", "rejection_free"])
    p.set_defaults(func=_cmd_nucleation)

    p = sub.add_parser("infection", help="microscopic infection process")
    _add_box(p)
    _add_run(p)
    p.add_argument("--block-side", type=int, dest="block_side")
    p.add_argument("--eligibility-defect", type=int, dest="eligibility_defect")
    p.set_defaults(func=_cmd_infection)

    p = sub.add_parser("growth-model", help="abstract renormalized growth")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--kappa-prev", type=float, required=True, dest="kappa_prev")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--beta", type=_parse_betas, required=True)
    p.add_argument("--replicas", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=_cmd_growth_model)

    p = sub.add_parser("isoperimetry", help="minimal-perimeter oracle table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--vmax", type=int, required=True)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=_cmd_isoperimetry)

    p = sub.add_parser("stc-audit", help="pre-nucleation cluster diameters")
    _add_box(p)
    _add_run(p)
    p.add_argument("--stc-threshold-D", type=int, dest="stc_threshold_D")
    p.set_defaults(func=_cmd_stc_audit)

    p = sub.add_parser("growth-threshold", help="relaxation threshold identity")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--L", type=float, required=True)
    p.set_defaults(func=_cmd_growth_threshold)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage()
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

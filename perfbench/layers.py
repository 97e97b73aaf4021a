"""Layer probes and the per-layer metrics derived from their spans.

The probes wrap isingkit's public functions at the module attributes
through which the workloads reach them: ``hitting_time`` calls
``kmc.evolve_rejection_free`` through the kmc module, ``run_nucleation``
calls ``experiments.hitting_time``, and so on.  ``evolve_rejection_free``
is read on return, before ``hitting_time`` clears the events.
"""

from __future__ import annotations

import numpy as np

from isingkit import cli, energy, experiments, kmc, landscape, lattice, stc

from tracing import median, tail_value

SIDES = (8, 32, 64, 128)     # kinetic_scaling
NUCLEATION_SIDE = 12         # nucleation_2d

# (name, unit, better); every name is reported by every traced run, as 0
# where the workload does not reach the layer.
LAYER_METRICS = (
    [("energy.compare_pair.calls", "count", "lower"),
     ("landscape.maximal_compounds.self_s", "s", "lower"),
     ("landscape.maximal_compounds.ms.p50", "ms", "lower"),
     ("landscape.maximal_compounds.ms.tail", "ms", "lower"),
     ("landscape.maximal_compounds.calls", "count", "higher"),
     ("landscape.maximal_compounds.blocks", "count", "higher"),
     ("landscape.maximal_cycles.states_per_s", "1/s", "higher"),
     ("landscape.communication_energy.states_per_s", "1/s", "higher"),
     ("landscape.enumerate_landscape.states_per_s", "1/s", "higher")]
    + [(f"kmc.evolve_rejection_free.events_per_s.L{L}", "1/s", "higher")
       for L in SIDES + (NUCLEATION_SIDE,)]
    + [("kmc.hitting_time.ms.p50", "ms", "lower"),
       ("kmc.hitting_time.ms.tail", "ms", "lower"),
       ("kmc.hitting_time.calls", "count", "higher"),
       ("kmc.hitting_time.censored", "count", "lower")]
    + [(f"stc.track.events_per_s.L{L}", "1/s", "higher") for L in SIDES]
    + [(f"kmc.hitting_time.graphical.ticks_per_s.L{L}", "1/s", "higher")
       for L in SIDES]
    + [(f"kmc.hitting_time.graphical.accept_ratio.L{L}", "ratio", "higher")
       for L in SIDES]
    + [("lattice.build_context.s", "s", "lower"),
       ("landscape.critical_constants.s", "s", "lower"),
       ("experiments.arrhenius_fit.s", "s", "lower"),
       ("experiments.run_nucleation.self_s", "s", "lower"),
       ("experiments.run_growth_model.self_s", "s", "lower"),
       ("experiments.run_growth_model.replicas_per_s.d1", "1/s", "higher"),
       ("experiments.run_growth_model.replicas_per_s.d2", "1/s", "higher"),
       ("cli.main.self_s", "s", "lower"),
       ("cli.output_bytes", "bytes", "lower"),
       ("kmc.events", "count", "higher"),
       ("trace.overhead_frac", "ratio", "lower")])


def _side(ctx):
    return ctx.geometry.dims[0]


def install(tracer, windows):
    """Register every probe on ``tracer``.

    ``windows`` collects the arrival times of each graphical window, keyed
    by the enclosing ``hitting_time`` span, so that arrivals are counted
    after the run, outside any timed span.
    """
    def states_arg(span, args, kwargs, result):
        span.attrs["states"] = args[0].n_states

    def states_result(span, args, kwargs, result):
        span.attrs["states"] = result.n_states

    def blocks(span, args, kwargs, result):
        span.attrs["states"] = args[0].n_states
        span.attrs["blocks"] = len(result.blocks)

    def rejection_free(span, args, kwargs, result):
        span.attrs["side"] = _side(args[1])
        span.attrs["events"] = len(result.events)

    def hitting(span, args, kwargs, result):
        span.attrs["mode"] = args[0]
        span.attrs["side"] = _side(args[1])
        span.attrs["censored"] = bool(result.censored)
        span.attrs["time"] = float(result.time)

    def graphical(span, args, kwargs, result):
        span.attrs["events"] = len(result.events)

    def tracked(span, args, kwargs, result):
        span.attrs["side"] = _side(args[0])
        span.attrs["events"] = len(args[1].events)

    def growth(span, args, kwargs, result):
        params = args[0]
        span.attrs["d"] = params.d
        span.attrs["replicas"] = params.replicas * len(params.betas)

    def window(result):
        owner = next((s for s in reversed(tracer._stack)
                      if s.name == "kmc.hitting_time"), None)
        windows.setdefault(id(owner), []).append(result[0])

    tracer.count(energy.MagneticField, "compare_pair",
                 "energy.compare_pair.calls")
    tracer.span(landscape, "enumerate_landscape",
                "landscape.enumerate_landscape", states_result)
    tracer.span(landscape, "communication_energy",
                "landscape.communication_energy", states_arg)
    tracer.span(landscape, "maximal_cycles", "landscape.maximal_cycles",
                blocks)
    tracer.span(landscape, "maximal_compounds", "landscape.maximal_compounds",
                blocks)
    tracer.span(lattice, "build_context", "lattice.build_context")
    tracer.span(experiments, "build_context", "lattice.build_context")
    tracer.span(kmc, "evolve_rejection_free", "kmc.evolve_rejection_free",
                rejection_free)
    tracer.span(kmc, "evolve_graphical", "kmc.evolve_graphical", graphical)
    tracer.tap(kmc.EventStream, "window", window)
    tracer.span(kmc, "hitting_time", "kmc.hitting_time", hitting)
    tracer.span(experiments, "hitting_time", "kmc.hitting_time", hitting)
    tracer.span(stc, "track", "stc.track", tracked)
    tracer.span(experiments, "critical_constants",
                "landscape.critical_constants")
    tracer.span(experiments, "arrhenius_fit", "experiments.arrhenius_fit")
    tracer.span(cli, "run_nucleation", "experiments.run_nucleation")
    tracer.span(cli, "run_growth_model", "experiments.run_growth_model",
                growth)
    tracer.span(cli, "main", "cli.main")


def count_arrivals(tracer, windows):
    """Attach the processed clock ticks to each graphical hitting_time span.

    A window's arrivals up to the reported time were all examined: the
    stopping arrival itself, or every arrival up to the cap.
    """
    for span in tracer.spans:
        arrays = windows.get(id(span))
        if span.name == "kmc.hitting_time" and arrays is not None:
            t = span.attrs["time"]
            span.attrs["ticks"] = int(sum(
                np.searchsorted(a, t, side="right") for a in arrays))
    windows.clear()


def _largest(spans):
    """Spans on the largest state graph, where the rate is measured."""
    if not spans:
        return []
    top = max(s.attrs["states"] for s in spans)
    return [s for s in spans if s.attrs["states"] == top]


def layer_metrics(tracer, speed, output_bytes, overhead_frac):
    """Every per-layer metric of one traced pass, by name.

    Span times are converted to reference seconds with ``speed``, the
    pass's reference seconds per wall second (see ``clock.py``).
    """
    selfs = tracer.self_times()
    by = {}
    for s in tracer.spans:
        by.setdefault(s.name, []).append(s)

    def named(name):
        return by.get(name, [])

    def self_sum(name):
        return sum(selfs[id(s)] for s in named(name)) * speed

    def dur_sum(name):
        return sum(s.duration for s in named(name)) * speed

    def rate(spans, numer):
        total = sum(s.duration for s in spans) * speed
        return sum(s.attrs[numer] for s in spans) / total if total else 0.0

    def ms(spans, stat):
        value = stat([s.duration * speed * 1e3 for s in spans])
        return 0.0 if value is None else value

    m = {"energy.compare_pair.calls":
         tracer.counts.get("energy.compare_pair.calls", 0)}
    comp = named("landscape.maximal_compounds")
    m["landscape.maximal_compounds.self_s"] = \
        self_sum("landscape.maximal_compounds")
    m["landscape.maximal_compounds.ms.p50"] = ms(comp, median)
    m["landscape.maximal_compounds.ms.tail"] = ms(comp, tail_value)
    m["landscape.maximal_compounds.calls"] = len(comp)
    m["landscape.maximal_compounds.blocks"] = sum(s.attrs["blocks"]
                                                  for s in comp)
    # direct calls only: maximal_compounds calls maximal_cycles as well
    cycles = [s for s in named("landscape.maximal_cycles") if s.parent is None]
    m["landscape.maximal_cycles.states_per_s"] = rate(cycles, "states")
    for name in ("communication_energy", "enumerate_landscape"):
        m[f"landscape.{name}.states_per_s"] = rate(
            _largest(named(f"landscape.{name}")), "states")

    rf = named("kmc.evolve_rejection_free")
    for L in SIDES + (NUCLEATION_SIDE,):
        m[f"kmc.evolve_rejection_free.events_per_s.L{L}"] = rate(
            [s for s in rf if s.attrs["side"] == L], "events")
    hits = named("kmc.hitting_time")
    m["kmc.hitting_time.ms.p50"] = ms(hits, median)
    m["kmc.hitting_time.ms.tail"] = ms(hits, tail_value)
    m["kmc.hitting_time.calls"] = len(hits)
    m["kmc.hitting_time.censored"] = sum(s.attrs["censored"] for s in hits)
    tracks = named("stc.track")
    for L in SIDES:
        m[f"stc.track.events_per_s.L{L}"] = rate(
            [s for s in tracks if s.attrs["side"] == L], "events")

    applied = {}
    for s in named("kmc.evolve_graphical"):
        applied[id(s.parent)] = applied.get(id(s.parent), 0) \
            + s.attrs["events"]
    for L in SIDES:
        graph = [s for s in hits if s.attrs["mode"] == "graphical"
                 and s.attrs["side"] == L]
        ticks = sum(s.attrs["ticks"] for s in graph)
        m[f"kmc.hitting_time.graphical.ticks_per_s.L{L}"] = \
            rate(graph, "ticks")
        m[f"kmc.hitting_time.graphical.accept_ratio.L{L}"] = (
            sum(applied.get(id(s), 0) for s in graph) / ticks
            if ticks else 0.0)

    m["lattice.build_context.s"] = max(
        (s.duration for s in named("lattice.build_context")),
        default=0.0) * speed
    m["landscape.critical_constants.s"] = \
        dur_sum("landscape.critical_constants")
    m["experiments.arrhenius_fit.s"] = dur_sum("experiments.arrhenius_fit")
    m["experiments.run_nucleation.self_s"] = \
        self_sum("experiments.run_nucleation")
    growth = named("experiments.run_growth_model")
    m["experiments.run_growth_model.self_s"] = \
        self_sum("experiments.run_growth_model")
    for d in (1, 2):
        m[f"experiments.run_growth_model.replicas_per_s.d{d}"] = rate(
            [s for s in growth if s.attrs["d"] == d], "replicas")
    m["cli.main.self_s"] = self_sum("cli.main")
    m["cli.output_bytes"] = output_bytes
    m["kmc.events"] = (sum(s.attrs["events"] for s in rf)
                       + sum(applied.values()))
    m["trace.overhead_frac"] = overhead_frac
    return m

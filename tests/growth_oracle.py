"""Reference growth simulator, kept as a test oracle.

``_growth_single`` is the per-event simulator of the renormalized
nucleation-and-growth model that ``isingkit.experiments`` used before the
first-passage sweep: one exponential holding time and one uniform per
infection, a nucleation site found by rejection among uniform window
sites, and a growth site picked uniformly from the frontier.  The library
draws its clocks in blocks instead, so the tests compare the two in law.
"""

from __future__ import annotations

import math

import numpy as np

from isingkit.experiments import WINDOW_CONES


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
        cone = WINDOW_CONES * math.exp(beta * (kappa - params.kappa_prev))
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
        if events >= params.caps_events:
            return None, clipped, side
    return t, clipped, side

"""Reference Arrhenius fit, kept as a test oracle.

``arrhenius_fit`` is ``isingkit.experiments.arrhenius_fit`` as it was
before the bootstrap slopes came from one least-squares fit with a column
per resample: it calls ``np.polyfit`` once per resample.  Both draw the
same resamples in the same order, so the tests require equal output.
"""

from __future__ import annotations

import math

import numpy as np


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
        out["relative_error"] = float(abs(slope - target) / abs(target)) \
            if target else None
    return out

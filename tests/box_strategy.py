"""Hypothesis strategy for small Ising boxes shared by the property tests."""

from hypothesis import strategies as st

from isingkit.energy import MagneticField
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context)


FIELDS = ("sqrt2/2", "sqrt3/3", "0.5", "1/20")


@st.composite
def boxes(draw, fields=FIELDS):
    """A 1-d to 3-d context under any boundary label and one of ``fields``,
    with a random starting configuration."""
    d = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(1, {1: 9, 2: 4, 3: 3}[d]),
                               min_size=d, max_size=d)))
    bc = draw(st.sampled_from(["all_minus", "all_plus"]
                              + [f"n_pm_{n}" for n in range(d + 1)]))
    h = draw(st.sampled_from(fields))
    ctx = build_context(BoxGeometry(dims), BoundaryCondition.from_label(bc),
                        MagneticField(h))
    n = ctx.n_sites
    spins = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return ctx, Configuration(ctx.geometry, spins)

"""Hypothesis strategies over the admitted input domain, shared by the
property tests."""

import random

from hypothesis import strategies as st

from twistedperiods.matrices import HgParams
from twistedperiods.series import IM_TAU_CEILING, IM_TAU_FLOOR, TauPoint


def uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    """Floats spread evenly over [lo, hi).  Hypothesis's own floats favour
    integral, tiny and boundary values, so a p built from them alone is
    nearly always inadmissible; mix the two to draw both kinds."""
    return st.integers(0, 2**32 - 1).map(
        lambda seed: random.Random(seed).uniform(lo, hi))


# a coordinate of p in (-3, 3), or an exact integer or half-integer, where
# the admissibility conditions bite
coordinates = st.one_of(
    uniform(-3.0, 3.0),
    st.integers(-2, 2),
    st.integers(-5, 5).map(lambda k: k / 2.0),
    st.floats(-3.0, 3.0, exclude_min=True, exclude_max=True))

params = st.one_of(
    st.builds(HgParams, *[uniform(-3.0, 3.0)] * 3),
    st.builds(HgParams, coordinates, coordinates, coordinates))

# tau over the whole admitted Im range with |Re tau| <= 1.5, so both the
# discs |tau -+ 1/2| < 1/2 and the strips |Re tau| > 1 are drawn
taus = st.builds(
    complex,
    st.one_of(uniform(-1.5, 1.5), st.floats(-1.5, 1.5),
              st.sampled_from([-0.0, 0.5, -0.5, 1.0, -1.0])),
    st.one_of(uniform(IM_TAU_FLOOR, IM_TAU_CEILING),
              uniform(IM_TAU_FLOOR, 1.0),
              st.floats(IM_TAU_FLOOR, IM_TAU_CEILING))).map(TauPoint)

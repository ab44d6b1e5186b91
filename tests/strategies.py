"""Hypothesis strategies over the admitted input domain, shared by the
property tests."""

import cmath
import math
import random

from hypothesis import strategies as st

from twistedperiods.hypergeom import RADIUS_GUARD
from twistedperiods.matrices import HgParams
from twistedperiods.series import IM_TAU_CEILING, IM_TAU_FLOOR, TauPoint


def uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    """Floats spread evenly over [lo, hi).  Hypothesis's own floats favour
    integral, tiny and boundary values, so a p built from them alone is
    nearly always inadmissible; mix the two to draw both kinds."""
    return st.integers(0, 2**32 - 1).map(
        lambda seed: random.Random(seed).uniform(lo, hi))


def coordinates(bound: int) -> st.SearchStrategy[float]:
    """A coordinate in (-bound, bound), or an exact integer or
    half-integer inside it, where the admissibility conditions and the
    2F1 poles and terminating series lie."""
    return st.one_of(
        uniform(-bound, bound),
        st.integers(1 - bound, bound - 1),
        st.integers(1 - 2 * bound, 2 * bound - 1).map(lambda k: k / 2.0),
        st.floats(-bound, bound, exclude_min=True, exclude_max=True))


params = st.one_of(
    st.builds(HgParams, *[uniform(-3.0, 3.0)] * 3),
    st.builds(HgParams, *[coordinates(3)] * 3))

# tau over the whole admitted Im range with |Re tau| <= 1.5, so both the
# discs |tau -+ 1/2| < 1/2 and the strips |Re tau| > 1 are drawn
taus = st.builds(
    complex,
    st.one_of(uniform(-1.5, 1.5), st.floats(-1.5, 1.5),
              st.sampled_from([-0.0, 0.5, -0.5, 1.0, -1.0])),
    st.one_of(uniform(IM_TAU_FLOOR, IM_TAU_CEILING),
              uniform(IM_TAU_FLOOR, 1.0),
              st.floats(IM_TAU_FLOOR, IM_TAU_CEILING))).map(TauPoint)

# (a, b, c) of a 2F1, mixed as in ``params``
f21_parameters = st.one_of(
    st.tuples(*[uniform(-2.0, 2.0)] * 3),
    st.tuples(*[coordinates(2)] * 3))

# z in the disc |z| <= RADIUS_GUARD that the 2F1 series serves, its rim and
# both ends of the real diameter included
f21_arguments = st.builds(
    cmath.rect,
    st.one_of(uniform(0.0, RADIUS_GUARD),
              st.sampled_from([0.0, RADIUS_GUARD])),
    st.one_of(uniform(-math.pi, math.pi), st.sampled_from([0.0, math.pi])))

# u for a theta function: real, exact integers and half-integers (zeros of
# theta1 and theta2) or complex, with |Im u| up to where the terms'
# cosh(2 pi mu Im u) growth needs more terms than the cap allows
theta_arguments = st.one_of(
    uniform(-3.0, 3.0), coordinates(3),
    st.builds(complex, uniform(-3.0, 3.0),
              st.one_of(uniform(-2.0, 2.0), st.floats(-60.0, 60.0))))

# (-1, 2]-exponents of an endpoint power, many in (-1, -0.94], where
# tanh_sinh subtracts the power, some within a few ulps of -1
endpoint_exponents = st.one_of(
    uniform(-1.0, 2.0), uniform(-1.0, -0.94),
    st.floats(-1.0, 2.0, exclude_min=True)).filter(lambda e: e > -1.0)

# exponents tanh_sinh refuses: -1 itself, anything below it (-inf too), NaN
refused_exponents = st.one_of(
    st.just(-1.0), uniform(-3.0, -1.0), st.floats(max_value=-1.0),
    st.just(math.nan))

# p with alpha > 0 and gamma - alpha > 0, where the Wirtinger integral
# converges, both as small as the floats reach
_positive = st.one_of(uniform(0.0, 2.0), st.floats(0.0, 2.0, exclude_min=True))
wirtinger_params = st.builds(
    lambda a, b, d: HgParams(a, b, a + d), _positive,
    st.one_of(uniform(-2.0, 2.0), coordinates(2)), _positive).filter(
        lambda p: p.alpha > 0.0 and p.gamma - p.alpha > 0.0)

# tau on the imaginary axis over the whole admitted Im range
imaginary_taus = st.one_of(
    uniform(IM_TAU_FLOOR, IM_TAU_CEILING), uniform(IM_TAU_FLOOR, 3.0),
    st.floats(IM_TAU_FLOOR, IM_TAU_CEILING)).map(
        lambda im: TauPoint(complex(0.0, im)))

"""Tanh-sinh (double-exponential) quadrature on an open interval.

The variable change x = a + (b-a) * sigma(t), sigma(t) = (1 + tanh((pi/2)
sinh t)) / 2 maps the real line onto (a, b) and turns endpoint algebraic
singularities with exponents > -1 into integrands that decay doubly
exponentially in t.  Levels halve the step size, reusing previous nodes;
node order is fixed so results are bit-reproducible.

Integrands receive (x, dl, dr) where dl = x - a and dr = b - x are computed
directly from the transform, so endpoint distances keep full relative
accuracy even when they underflow the spacing of x itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_T_MAX = 6.0
_REL_STOP = 1e-11
_FAIL_DIFF = 1e-9
# Maximum doubling levels, and the absolute floor below which a
# successive-level difference counts as converged.
_LEVELS = 10
_ABS_FLOOR = 1e-15


class QuadratureError(Exception):
    """Raised when level doubling fails to converge."""


@functools.cache
def _level_nodes(level: int):
    """Abscissa fractions sigma, complements 1 - sigma, and weights of the
    nodes a level adds, as read-only arrays.

    Level 0 has the integer nodes of step h = 1 on [-T_MAX, T_MAX]; level l
    adds the odd multiples of h = 2^-l.  Nodes whose endpoint distance
    underflows to zero are dropped.  Each level is built once, on first
    use.

    The nodes are mirror-symmetric, bit for bit: the complements are sigma
    reversed and the weights read the same reversed, so an integrand may
    take its values at ``dr`` as its values at ``dl`` reversed.
    """
    h = 0.5**level
    m = np.arange(-int(_T_MAX / h), int(_T_MAX / h) + 1)
    ts = (m if level == 0 else m[m % 2 != 0]) * h
    sinh_t = np.sinh(ts)
    # sigma without cancellation, and 1 - sigma(t) = sigma(-t) on the
    # symmetric grid of t
    sigma = 1.0 / (1.0 + np.exp(-math.pi * sinh_t))
    comp = sigma[::-1].copy()
    half_pi_sinh = (math.pi / 2.0) * sinh_t
    sech = 1.0 / np.cosh(half_pi_sinh)
    weights = (math.pi / 4.0) * np.cosh(ts) * sech * sech * h
    keep = (sigma > 0.0) & (comp > 0.0)
    nodes = (sigma[keep], comp[keep], weights[keep])
    for a in nodes:
        a.setflags(write=False)
    return nodes


def tanh_sinh(f, a: float, b: float) -> complex:
    """Integrate ``f`` over the open interval (a, b).

    ``f(x, dl, dr)`` must accept ndarrays and return the integrand values;
    dl and dr are the exact distances to the endpoints.  Convergence is
    declared when two successive levels differ by less than 1e-11 relative
    (or 1e-15 absolute); failure to get below 1e-9 within _LEVELS levels
    raises.

    The nodes stop delta = 3e-276 from each end, dropping a fraction of
    about delta^(e+1) of an endpoint power d^e.  So each end reads e off
    its two outermost level-0 values (3e-276 and 4e-102 from it, where the
    other factors of f are constant) and, after the convergence test, adds
    ``f(delta) delta / (e+1)`` less the half of the extreme node's weight
    that the sum spent beyond it; an end with a zero value adds nothing.
    """
    scale = b - a
    if scale <= 0:
        raise ValueError("need a < b")

    def level_sum(level: int) -> tuple[complex, np.ndarray]:
        sigma, comp, w = _level_nodes(level)
        dl = scale * sigma
        dr = scale * comp
        x = a + dl
        vals = np.asarray(f(x, dl, dr))
        return complex(np.sum(vals * w) * scale), vals

    prev, vals = level_sum(0)
    total = prev
    diff = math.inf
    for level in range(1, _LEVELS + 1):
        total = prev / 2.0 + level_sum(level)[0]
        diff = abs(total - prev)
        if diff <= max(_REL_STOP * abs(total), _ABS_FLOOR):
            break
        prev = total
    else:
        if diff > max(_FAIL_DIFF * abs(total), _ABS_FLOOR):
            raise QuadratureError(
                f"tanh-sinh failed to converge in {_LEVELS} levels "
                f"(last successive difference {diff:.3e})"
            )
    sigma, _, w = _level_nodes(0)  # mirror-symmetric: d0, d1 from each end
    d0, d1 = scale * float(sigma[0]), scale * float(sigma[1])
    half_weight = scale * float(w[0]) * 0.5 ** (level + 1)
    ends = vals.tolist()
    for f0, f1 in ((ends[0], ends[1]), (ends[-1], ends[-2])):
        if f0 != 0 and f1 != 0:
            e = (math.log(abs(f1)) - math.log(abs(f0))) / math.log(d1 / d0)
            if e > -1.0:
                total += f0 * (d0 / (e + 1.0) - half_weight)
    return total

"""Tanh-sinh (double-exponential) quadrature on an open interval.

The variable change x = a + (b-a) * sigma(t), sigma(t) = (1 + tanh((pi/2)
sinh t)) / 2 maps the real line onto (a, b) and turns endpoint algebraic
singularities with exponents > -1 into integrands that decay doubly
exponentially in t (Takahasi & Mori, Publ. RIMS 9, 1974).  Levels halve
the step size, reusing previous nodes; node order is fixed so results are
bit-reproducible, and every stopping rule is relative to the result.  An
endpoint power too close to -1 for the nodes is subtracted and integrated
in closed form (Davis & Rabinowitz, 1984).

Integrands receive (x, dl, dr) where dl = x - a and dr = b - x are computed
directly from the transform, so endpoint distances keep full relative
accuracy even when they underflow the spacing of x itself.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

_T_MAX = 6.0
_REL_STOP = 1e-11
# An end whose part below the last node exceeds this share of the integral
# is subtracted; at any other end that part may not exceed it.
_ROUNDING = 2.0**-53
_LEVELS = 10  # maximum doubling levels


class QuadratureError(Exception):
    """Raised for a >= b or an exponent <= -1, no convergence, a non-finite
    integrand, or an end losing more than rounding below its last node."""


@functools.cache
def _level_nodes(level: int):
    """Abscissa fractions sigma, complements 1 - sigma, and weights of the
    nodes a level adds, as read-only arrays.

    Level 0 has the integer nodes of step h = 1 on [-T_MAX, T_MAX]; level l
    adds the odd multiples of h = 2^-l.  Every node is kept: the smallest
    sigma is 6.1e-276 at level 0 and at least 1.1e-275 at the others, so no
    endpoint distance underflows.  Each level is built once, on first use.

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
    nodes = (sigma, comp, weights)
    for a in nodes:
        a.setflags(write=False)
    return nodes


# Levels 0.._BLOCK take one integrand call, on their 193 nodes together.
# On the quadrature workload that call is the only one for 91% of the
# Wirtinger integrals (78% stop at level 4, 13% at level 3; 9% go on to
# level 5) and 99.6% of the Euler pairings.  The 80% of pairings that stop
# at level 3 never sum the call's 96 level-4 nodes; with levels 0-3 in the
# call, 87% of the Wirtinger integrals needed a second one.
_BLOCK = 4


def _block_slice(level: int) -> slice:
    """Where ``level``'s nodes lie, in their own order, among the nodes of
    levels 0.._BLOCK in order of t: level 0 at every 2^_BLOCK-th node from
    the first, level l >= 1 at every 2^(_BLOCK-l+1)-th from the
    2^(_BLOCK-l)-th."""
    if level == 0:
        return slice(0, None, 2**_BLOCK)
    return slice(2 ** (_BLOCK - level), None, 2 ** (_BLOCK - level + 1))


def _block_sigma() -> np.ndarray:
    """The abscissa fractions of levels 0.._BLOCK in order of t, so mirror-
    symmetric as each level is, as a read-only array."""
    sigma = np.empty(sum(_level_nodes(l)[0].size for l in range(_BLOCK + 1)))
    for level in range(_BLOCK + 1):
        sigma[_block_slice(level)] = _level_nodes(level)[0]
    sigma.setflags(write=False)
    return sigma


_BLOCK_SIGMA = _block_sigma()  # built once, on import


def tanh_sinh(f, a: float, b: float,
              exponents: tuple[float, float] = (0.0, 0.0)) -> complex:
    """Integrate ``f`` over the open interval (a, b).

    ``f(x, dl, dr)`` must accept ndarrays and return the integrand values,
    pointwise: a value may depend on its own point alone, not on the other
    points or on how many calls came before.  One call covers levels 0-4,
    on their 193 nodes in order of t, mirror-symmetric as each level is (dr
    is dl reversed); each later level takes one call on its own nodes.
    dl and dr are the exact distances to the endpoints, near which f
    behaves like c d^e with the ``exponents`` e (at a, at b).  a < b with a
    finite b - a, and each e > -1 (not NaN), are checked here alone, for
    every caller, before f is called; two successive levels must agree
    within 1e-11 of the result, with no absolute floor, or QuadratureError
    is raised, so an integral that cancels to rounding level raises, as
    does a non-finite value.

    The nodes stop d0 = 6e-276 (b - a) from each end, below which lies a
    fraction of about d0^(e+1) of the power's part.  Where that exceeds
    2^-53 (e below about -0.942), c = f(d0) / d0^e is read off the
    outermost level-0 value, c d^e is subtracted at every level and
    c (b-a)^(e+1) / (e+1) added back.  Elsewhere the part below the last
    node, about |f(d0)| d0, must stay within 2^-53 of the result, or the
    call raises.
    """
    scale = b - a
    if not (0.0 < scale < math.inf and exponents[0] > -1.0
            and exponents[1] > -1.0):
        raise QuadratureError(f"need a < b and endpoint exponents > -1, "
                              f"not ({a}, {b}) and {exponents}")
    d0 = scale * float(_level_nodes(0)[0][0])
    powers = []  # (c, e, end) of each subtracted c d^e; end 0 is a, 1 is b
    closed = below = 0.0

    def values(sigma: np.ndarray) -> np.ndarray:
        dl = scale * sigma
        return np.asarray(f(a + dl, dl, scale * sigma[::-1]))

    def level_sum(level: int, vals: np.ndarray) -> complex:
        sigma, comp, w = _level_nodes(level)
        rest = vals
        for c, e, end in powers:
            rest = rest - c * (scale * (comp if end else sigma)) ** e
        total = complex(np.add.reduce(rest * w) * scale)
        if not cmath.isfinite(total):  # the weights are all positive
            bad = vals[~np.isfinite(vals)].tolist() or [total]
            raise QuadratureError(
                f"non-finite value {bad[0]} at level {level}")
        return total

    with np.errstate(all="ignore"):
        block = values(_BLOCK_SIGMA)
        for end, e in enumerate(exponents):  # level 0's outermost nodes
            value = block[-end].item()  # block[0] at a, block[-1] at b
            if d0 ** (e + 1.0) > _ROUNDING:
                c = value / d0**e
                powers.append((c, e, end))
                closed += c * scale ** (e + 1.0) / (e + 1.0)
            else:
                below += abs(value) * d0
        prev = level_sum(0, block[_block_slice(0)])
        for level in range(1, _LEVELS + 1):
            vals = (block[_block_slice(level)] if level <= _BLOCK
                    else values(_level_nodes(level)[0]))
            total = prev / 2.0 + level_sum(level, vals)
            diff = abs(total - prev)
            if diff <= _REL_STOP * abs(total + closed):
                break
            prev = total
        else:
            raise QuadratureError(
                f"tanh-sinh failed to converge in {_LEVELS} levels "
                f"(last successive difference {diff:.3e})"
            )
    total += closed
    if below > _ROUNDING * abs(total):
        raise QuadratureError(
            f"about {below:.1e} of the integral lies below the last nodes: "
            "pass the endpoint exponents")
    return total

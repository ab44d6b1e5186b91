"""``tanh_sinh`` as it was before its first levels shared one integrand
call: one call and one weighted sum per level, level by level, on the same
cached nodes.  The reference the blocked ``quadrature.tanh_sinh`` is
checked against bit for bit."""

import cmath

import numpy as np

from twistedperiods import quadrature
from twistedperiods.quadrature import QuadratureError, _level_nodes


def tanh_sinh(f, a: float, b: float,
              exponents: tuple[float, float] = (0.0, 0.0)) -> complex:
    scale = b - a
    if scale <= 0 or not (exponents[0] > -1.0 and exponents[1] > -1.0):
        raise QuadratureError(f"need a < b and endpoint exponents > -1, "
                              f"not ({a}, {b}) and {exponents}")
    d0 = scale * float(_level_nodes(0)[0][0])
    powers = []  # (c, e, end) of each subtracted c d^e; end 0 is a, 1 is b
    closed = below = 0.0

    def level_sum(level: int) -> complex:
        nonlocal closed, below
        sigma, comp, w = _level_nodes(level)
        dl = scale * sigma
        dr = scale * comp
        vals = np.asarray(f(a + dl, dl, dr))
        if level == 0:
            for end, e in enumerate(exponents):
                value = vals[-end].item()  # vals[0] at a, vals[-1] at b
                if d0 ** (e + 1.0) > quadrature._ROUNDING:
                    c = value / d0**e
                    powers.append((c, e, end))
                    closed += c * scale ** (e + 1.0) / (e + 1.0)
                else:
                    below += abs(value) * d0
        rest = vals
        for c, e, end in powers:
            rest = rest - c * (dr if end else dl) ** e
        total = complex(np.sum(rest * w) * scale)
        if not cmath.isfinite(total):  # the weights are all positive
            bad = vals[~np.isfinite(vals)].tolist() or [total]
            raise QuadratureError(
                f"non-finite value {bad[0]} at level {level}")
        return total

    with np.errstate(all="ignore"):
        prev = level_sum(0)
        for level in range(1, quadrature._LEVELS + 1):
            total = prev / 2.0 + level_sum(level)
            diff = abs(total - prev)
            if diff <= quadrature._REL_STOP * abs(total + closed):
                break
            prev = total
        else:
            raise QuadratureError(
                f"tanh-sinh failed to converge in {quadrature._LEVELS} "
                f"levels (last successive difference {diff:.3e})"
            )
    total += closed
    if below > quadrature._ROUNDING * abs(total):
        raise QuadratureError(
            f"about {below:.1e} of the integral lies below the last nodes: "
            "pass the endpoint exponents")
    return total

"""30-digit mpmath reference values for the benchmark's correctness checks.

mpmath is a test-only oracle: only the benchmark imports it, and only after
every timed region and after peak memory has been read.
"""

import mpmath

mpmath.mp.dps = 30


def _theta23(tau: complex):
    """theta2(0) and theta3(0) at tau, with the nome exp(i pi tau) that the
    library's half-nome convention uses."""
    nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))
    return mpmath.jtheta(2, 0, nome), mpmath.jtheta(3, 0, nome)


def lambda_theta3(tau: complex) -> tuple[complex, complex]:
    """lambda(tau) = (theta2(0)/theta3(0))^4 and theta3(0)."""
    t2, t3 = _theta23(tau)
    return complex((t2 / t3) ** 4), complex(t3)


def _beta_2f1(a: float, b: float, c: float, z):
    """Gamma(a) Gamma(c-a) / Gamma(c) * 2F1(a, b; c; z)."""
    return (mpmath.gamma(a) * mpmath.gamma(c - a) / mpmath.gamma(c)
            * mpmath.hyp2f1(a, b, c, z))


def wirtinger_integral(alpha: float, beta: float, gamma: float,
                       tau_im: float) -> float:
    """The theta-power integral over (0, 1/2) at tau = i tau_im, from the
    Gauss closed form divided by the coordinate-change factor
    2 pi theta3(0)^2 lambda^((1-gamma)/2) (1-lambda)^((gamma-alpha-beta)/2)."""
    t2, t3 = (mpmath.re(v) for v in _theta23(complex(0.0, tau_im)))
    lam = (t2 / t3) ** 4
    chain = (2 * mpmath.pi * t3**2 * lam ** ((1 - gamma) / 2)
             * (1 - lam) ** ((gamma - alpha - beta) / 2))
    return float(_beta_2f1(alpha, beta, gamma, lam) / chain)


def euler_plus(a: float, b: float, c: float, z: float) -> float:
    """The '1+' Euler pairing: Gamma(a) Gamma(c-a)/Gamma(c) 2F1(a,b;c;z)."""
    return float(mpmath.re(_beta_2f1(a, b, c, z)))

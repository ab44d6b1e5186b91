"""Gauss 2F1, terminating 4F3, and the product-coefficient cancellation.

Run with:  python3 demos/02_hypergeometric.py
"""

import math

import numpy as np

from twistedperiods import gauss_2f1, hyper_4f3_terminating, product_coeffs

print("Gauss 2F1 spot values")
print(f"  2F1(1, 1, 2; 1/2)       = {gauss_2f1(1.0, 1.0, 2.0, 0.5).real:.15f}")
print(f"  2 ln 2                  = {2.0 * math.log(2.0):.15f}")
print(f"  2F1(0.3, 0.21, 0.77; .5) = "
      f"{gauss_2f1(0.3, 0.21, 0.77, 0.5).real:.15f}")

print("\nSaalschuetz's balanced 3F2 as a terminating 4F3 (n = 5)")
n, a, b, d = 5, 0.4, 0.7, 1.9
e = a + b - n + 1.0 - d
c = 1.3  # an upper parameter equal to a lower one drops out


def rising(x, k):
    return math.prod(x + j for j in range(k))


lhs = hyper_4f3_terminating(n, (a, b, c), (d, e, c))
rhs = (rising(d - a, n) * rising(d - b, n)
       / (rising(d, n) * rising(d - a - b, n)))
print(f"  4F3 value     = {lhs:.15f}")
print(f"  closed form   = {rhs:.15f}")

print("\nProduct-coefficient cancellation: the two series contributions to")
print("the quadratic 2F1-product identity cancel degree by degree (n >= 2)")
a, b, c = 0.2, 0.3, 0.6
coeffs = product_coeffs(7, a, b, c)
print(f"  degree 0 coefficient = {coeffs[0][0]:+.12f}   (c = {c})")
print(f"  degree 1 coefficient = {coeffs[1][0]:+.12f}"
      f"   (a - b + 1 = {a - b + 1.0})")
for n, (c1, c2) in enumerate(coeffs[2:], start=2):
    print(f"  n = {n}: term1 = {c1:+.6e}, term1 + term2 = {c1 + c2:+.2e}")

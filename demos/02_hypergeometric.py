"""Gauss 2F1 and the product-coefficient cancellation.

Run with:  python3 demos/02_hypergeometric.py
"""

import math

from twistedperiods import gauss_2f1, product_coeffs

print("Gauss 2F1 spot values")
print(f"  2F1(1, 1, 2; 1/2)       = {gauss_2f1(1.0, 1.0, 2.0, 0.5).real:.15f}")
print(f"  2 ln 2                  = {2.0 * math.log(2.0):.15f}")
print(f"  2F1(0.3, 0.21, 0.77; .5) = "
      f"{gauss_2f1(0.3, 0.21, 0.77, 0.5).real:.15f}")

print("\nProduct-coefficient cancellation: the two series contributions to")
print("the quadratic 2F1-product identity cancel degree by degree (n >= 2)")
a, b, c = 0.2, 0.3, 0.6
coeffs = product_coeffs(7, a, b, c)
print(f"  degree 0 coefficient = {coeffs[0][0]:+.12f}   (c = {c})")
print(f"  degree 1 coefficient = {coeffs[1][0]:+.12f}"
      f"   (a - b + 1 = {a - b + 1.0})")
for n, (c1, c2) in enumerate(coeffs[2:], start=2):
    print(f"  n = {n}: term1 = {c1:+.6e}, term1 + term2 = {c1 + c2:+.2e}")

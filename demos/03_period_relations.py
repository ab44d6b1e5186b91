"""The twisted period relation: C = P+ . H^(-T) . P-^T, full and in
eigenspace blocks.

Run with:  python3 demos/03_period_relations.py
"""

import numpy as np

from twistedperiods import (HgParams, TauPoint, block_C, block_H_prime,
                            block_periods, cohomology_C, guarded_solve,
                            homology_H, period_matrix, theta_constants,
                            verify_tpr)

p = HgParams(0.30, 0.21, 0.77)
tau = TauPoint(1j)

print(f"Parameters alpha = {p.alpha}, beta = {p.beta}, gamma = {p.gamma}; "
      "tau = i")

pp = period_matrix(p, tau)
pm = period_matrix(p.negated(), tau)
h = homology_H(p)
c = cohomology_C(p, theta_constants(tau))
# P+ . H^-T . P-^T without an explicit inverse: solve H^T X = P-^T
assembled = pp @ guarded_solve(h.T, pm.T)

print("\nCohomology intersection matrix C (imaginary parts / 2 pi):")
with np.printoptions(precision=6, suppress=True):
    print(np.imag(c) / (2.0 * np.pi))

residual = np.linalg.norm(assembled - c) / np.linalg.norm(c)
print(f"\n|P+ H^-T P-^T - C|_F / |C|_F = {residual:.3e}")

# The eigenspace blocks are slices of the same C, P+ and P-.  H' is
# diagonal there, so each block relation takes the simple form
# C(+-1) = P'+ . diag(1/d) . P'-^T with d the diagonal of H'(+-1).
blocks = (block_C(c), block_periods(pp), block_periods(pm), block_H_prime(p))
for sign in (-1, 1):
    c_blk, pp_blk, pm_blk, h_blk = (pair[sign] for pair in blocks)
    d = np.diag(h_blk)
    resid = (np.linalg.norm(pp_blk @ (pm_blk.T / d[:, None]) - c_blk)
             / np.linalg.norm(c_blk))
    print(f"eigenvalue {sign:+d} block:  relative residual {resid:.3e}")

print("\nVerifier checks at the same point:")
for r in verify_tpr(p, tau):
    print(f"  {r.name:18s} residual {r.residual:.3e}  "
          f"(tolerance {r.tolerance:.0e})")

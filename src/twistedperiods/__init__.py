"""Twisted period relations for the theta-integral form of Gauss 2F1.

Numerical library built around four layers: theta q-series kernels
(``series``), real-parameter hypergeometric series (``hypergeom``),
closed-form intersection matrices (``matrices``), and period matrices
with their quadrature cross-checks (``periods``).  The ``verify`` module
ties the layers together into named identity checks and seeded sweeps;
``cli`` exposes them on the command line.
"""

__version__ = "0.1.0"

from .hypergeom import HypergeomError, gamma_real, gauss_2f1, product_coeffs
from .matrices import (AdmissibilityError, ConditioningError, HgParams,
                       admissible, basis_change, block_C, block_H_prime,
                       cohomology_C, guarded_solve, homology_H,
                       require_admissible, unit_phase)
from .periods import (PeriodError, block_periods, euler_pairing,
                      euler_pairing_closed, period_matrix,
                      wirtinger_quadrature)
from .quadrature import QuadratureError, tanh_sinh
from .series import (SeriesError, TauPoint, ThetaConstants, eisenstein_g2,
                     lambda_tau, theta, theta_constants, theta_taylor)
from .verify import (CHECK_REGISTRY, CheckResult, PROFILES, VerificationReport,
                     resolve_tolerances, run_sweep, sample_admissible,
                     verify_entry22, verify_series_identities, verify_tpr,
                     verify_whipple)

__all__ = [
    "__version__",
    "AdmissibilityError", "CheckResult", "CHECK_REGISTRY", "ConditioningError",
    "HgParams", "HypergeomError", "PeriodError", "PROFILES", "QuadratureError",
    "SeriesError", "TauPoint", "ThetaConstants", "VerificationReport",
    "admissible", "basis_change", "block_C", "block_H_prime", "block_periods",
    "cohomology_C", "eisenstein_g2", "euler_pairing", "euler_pairing_closed",
    "gamma_real", "gauss_2f1", "guarded_solve", "homology_H",
    "lambda_tau", "period_matrix", "product_coeffs", "require_admissible",
    "resolve_tolerances", "run_sweep", "sample_admissible", "tanh_sinh",
    "theta", "theta_constants", "theta_taylor", "unit_phase",
    "verify_entry22", "verify_series_identities", "verify_tpr",
    "verify_whipple",
    "wirtinger_quadrature",
]

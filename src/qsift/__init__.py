"""qsift: exact q-series arithmetic and congruence scanning.

The package computes coefficients of mock theta functions and eta-quotients
in exact arithmetic, implements the transformation/multiplier bookkeeping of
the attached congruence subgroups as decidable scalar algebra, and scans
arithmetic progressions of coefficients for linear congruences modulo small
primes.
"""

from .arith import ExactScalar, crt, dedekind_sum, epsilon_d, jacobi
from .generators import (
    THETA_SERIES,
    EtaQuotientSpec,
    SeriesCatalogEntry,
    build_series,
    catalog,
    eta_quotient,
    eta_series,
    mock_f,
    mock_omega,
)
from .qseries import (
    INTEGER,
    CoefficientRing,
    QSeries,
    integer_mod,
    monomial,
)
from .scanner import (
    Applicability,
    ScanReport,
    ScanVerdict,
    scan,
    sturm_bound,
    theorem_applies,
    verify_known,
    witness,
)
from .transform import (
    Progression,
    UnimodularMatrix,
    constancy_check,
    cusp_half_leading,
    cusp_one_leading,
    decompose_upper,
    eta_multiplier,
    identity_suites,
    is_good,
    level_constant,
    level_constant_eta,
    mock_multiplier,
    orbit,
    q_divisor,
    refine_to_good,
    t_image,
)

__version__ = "0.1.0"

"""Exact closed forms and certified numerics for logarithmic and
polylogarithmic integrals and Euler sums.

The exact side lives in ClosedForm values (rational combinations of
constant monomials); the numeric side is an independent oracle built from
tanh-sinh quadrature, series acceleration, and the digamma function.
Every closed form the package produces is certified against that oracle
by the verification suites (``polylog verify``); tests/test_reach.py checks
that the suites, the CLI and the scripts run every line but an allow-list.

``__all__`` holds the paper's quantities, their oracles and types, the
errors and run_suite; quadrature, summation and other internals are read from
their modules.  psi, i_pde_residual and h_pde_residual stay importable here,
outside ``__all__``, because the benchmark reads them by name.
"""

from .approx import s_minus_truncated, stirling1
from .closedform import Atom, ClosedForm, eta_factor_closed, zeta_closed
from .digamma import psi
from .errors import (CapacityError, ConvergenceError, DomainError,
                     EvaluationError, ShapeError)
from .eulersums import (c_sum, jordan_even, jordan_nielsen, milgram, s_minus,
                        s_plus, sum_oracle)
from .ipq import Family, ipq_final, ipq_numeric, ipq_series, r_value
from .lognm import (h_closed, h_pde_residual, i_closed, i_pde_residual,
                    lognm_numeric)
from .seriesring import kolbig_snp
from .sigma import cf_num, sigma_tilde
from .special import mpl2, nielsen_num, polylog
from .verify import VerificationReport, run_suite

__all__ = [
    "Atom", "CapacityError", "ClosedForm", "ConvergenceError", "DomainError",
    "EvaluationError", "Family", "ShapeError", "VerificationReport", "c_sum",
    "cf_num", "eta_factor_closed", "h_closed", "i_closed", "ipq_final",
    "ipq_numeric", "ipq_series", "jordan_even", "jordan_nielsen",
    "kolbig_snp", "lognm_numeric", "milgram", "mpl2", "nielsen_num",
    "polylog", "r_value", "run_suite", "s_minus", "s_minus_truncated",
    "s_plus", "sigma_tilde", "stirling1", "sum_oracle", "zeta_closed",
]

"""Exact computation and verification of Carlitz q-Bernoulli polynomials.

Everything is computed in exact arithmetic: rational functions in q with
arbitrary-precision rational coefficients.  The package evaluates the
higher-order and weighted q-Bernoulli families in closed form, verifies their
symmetry identities as exact rational-function equalities, and certifies the
p-adic integral representations by finite-stage Riemann sums.
"""

from .qbernoulli import (
    BetaQuery,
    DegenerateWeightError,
    WeightedBetaQuery,
    beta_higher,
    beta_number,
    beta_weighted,
    classical_bernoulli,
    classical_bernoulli_higher,
    t_sum,
    t_sum_h,
)
from .qcore import q_bracket, q_binomial, q_factorial
from .identities import CheckReport, GuardLimits, SweepConfig, sweep
from .ratfun import (
    LaurentPoly,
    PoleError,
    QsymDomainError,
    RatFun,
    ResourceLimitError,
    eval_rational,
    limit_at_one,
    ratfun_eq,
)
from .volkenborn import (
    ConvergenceReport,
    PadicContext,
    convergence_report,
    p_valuation,
    riemann_sum_multi,
    riemann_sum_weighted,
)

__version__ = "0.1.0"

__all__ = [
    "BetaQuery",
    "CheckReport",
    "ConvergenceReport",
    "DegenerateWeightError",
    "GuardLimits",
    "LaurentPoly",
    "PadicContext",
    "PoleError",
    "QsymDomainError",
    "RatFun",
    "ResourceLimitError",
    "SweepConfig",
    "WeightedBetaQuery",
    "beta_higher",
    "beta_number",
    "beta_weighted",
    "classical_bernoulli",
    "classical_bernoulli_higher",
    "convergence_report",
    "eval_rational",
    "limit_at_one",
    "p_valuation",
    "q_bracket",
    "q_binomial",
    "q_factorial",
    "ratfun_eq",
    "riemann_sum_multi",
    "riemann_sum_weighted",
    "sweep",
    "t_sum",
    "t_sum_h",
]

"""Equilibrium measures for logarithmic-potential energy minimization."""

from .asymptotics import AsymptoticPrediction, ScalingStudy, predict, scaling_study
from .density import Band, DensityTable
from .epd import EpdSpec, epd_residual, phi_eval, phi_eval_grad
from .errors import (
    DomainError,
    EqmError,
    InvalidInterval,
    NegativeDensity,
    NegativeRadicand,
    NoConvergence,
    NotEven,
    ParseError,
    PrecisionLoss,
    SingularPoint,
    SingularSystem,
    UnsupportedRegime,
)
from .field import (
    FieldSpec,
    PowerTerm,
    field_from_json,
    field_to_json,
    polynomial_field,
    validate_growth,
)
from .onecut import OneCutSolution, density, solve_endpoints
from .oracle import (
    DiscreteProblem,
    OracleResult,
    compare,
    direct_minimize,
    discretize,
)
from .rhp import EndpointVector, QPolynomial, q_polynomial
from .twocut import TwoCutSolution, density_symmetric, solve_endpoints_symmetric
from .verify import VariationalReport, check_sign_and_gaps, check_variational

__version__ = "0.1.0"

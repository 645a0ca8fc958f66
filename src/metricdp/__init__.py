"""Distance-scaled private mechanisms on finite metric spaces.

The library builds exponential mechanisms whose noise scales with an
input metric, calibrates their noise parameter to a (gamma, delta)
utility target via the ball-mass floor of the base measure, constructs
hierarchical base measures that make every space calibratable, and
audits finished mechanism tables exactly: the smallest privacy level
they satisfy, their worst-case utility, and the privacy floor any
comparably useful mechanism must pay.
"""

from .errors import (
    DegenerateMeasureError,
    DomainError,
    InvalidMetricError,
    NotLipschitzError,
    NotUniformlyPositiveError,
    SchemaError,
    StructuralError,
    UnknownLabelError,
)
from .spaces import (
    METRIC_TOL,
    AxiomViolation,
    FiniteMetricSpace,
    LipschitzMap,
    MetricValidationReport,
    discrete_space,
    grid_space,
    identity_map,
    lipschitz_constant,
    validate_metric,
)
from .measures import DiscreteMeasure, uniform_measure
from .covering import (
    CoverHierarchy,
    CoverLevel,
    PositivityBound,
    covering_measure,
    default_depth,
    greedy_net,
    level_for_radius,
    max_packing,
    positivity_lower_bound,
)
from .mechanisms import (
    ExpMechParams,
    MechanismTable,
    TradeoffBound,
    calibrate_beta,
    distribution,
    min_database_size,
    privacy_bound,
    sample,
    sample_many,
    tabulate,
    tradeoff_upper_bound,
)
from .audit import (
    EMInequalityReport,
    ImpossibilityReport,
    PrivacyAuditReport,
    UtilityAuditReport,
    audit_privacy,
    audit_utility,
    check_em_inequalities,
    impossibility_lower_bound,
    propose_centers,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DomainError",
    "StructuralError",
    "InvalidMetricError",
    "UnknownLabelError",
    "NotLipschitzError",
    "DegenerateMeasureError",
    "NotUniformlyPositiveError",
    "SchemaError",
    # spaces
    "METRIC_TOL",
    "AxiomViolation",
    "MetricValidationReport",
    "validate_metric",
    "FiniteMetricSpace",
    "LipschitzMap",
    "lipschitz_constant",
    "identity_map",
    "grid_space",
    "discrete_space",
    # measures
    "DiscreteMeasure",
    "uniform_measure",
    # covering
    "max_packing",
    "greedy_net",
    "CoverLevel",
    "CoverHierarchy",
    "PositivityBound",
    "level_for_radius",
    "positivity_lower_bound",
    "default_depth",
    "covering_measure",
    # mechanisms
    "ExpMechParams",
    "MechanismTable",
    "distribution",
    "tabulate",
    "sample",
    "sample_many",
    "calibrate_beta",
    "privacy_bound",
    "TradeoffBound",
    "tradeoff_upper_bound",
    "min_database_size",
    # audit
    "PrivacyAuditReport",
    "UtilityAuditReport",
    "ImpossibilityReport",
    "EMInequalityReport",
    "audit_privacy",
    "audit_utility",
    "impossibility_lower_bound",
    "check_em_inequalities",
    "propose_centers",
]

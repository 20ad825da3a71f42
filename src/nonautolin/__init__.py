"""Conjugacies between coupled and partially linearized nonautonomous
difference systems: construction, hypothesis certification, and smoothness
validation via analytic-vs-finite-difference Jacobian checks."""

from .catalog import (
    BUILDERS,
    ExampleParams,
    make_emo,
    make_end,
    make_ex1,
    make_ex2,
    make_remm,
    make_system,
    system_by_name,
)
from .conjugacy import ConjugacyEngine
from .derivatives import (
    JacobianReport,
    barh_jacobian,
    h_jacobian,
    solution_jacobian,
    validate_jacobians,
)
from .errors import (
    ConfigError,
    ContractionViolation,
    NoConvergence,
    NonautolinError,
    SingularOperatorError,
    WindowExhausted,
)
from .evolution import SolveOptions, coupled_trajectory
from .hypotheses import (
    CONVERGED,
    DIVERGENT,
    INCONCLUSIVE,
    HypothesisReport,
    SeriesEstimate,
    certify,
)
from .system import (
    CouplingSpec,
    DriverSpec,
    GeometricTail,
    OperatorSeq,
    SpaceSpec,
    SystemSpec,
    TailEnvelopes,
    WeightSeq,
    green_span,
    operator_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BUILDERS",
    "CONVERGED",
    "ConfigError",
    "ConjugacyEngine",
    "ContractionViolation",
    "CouplingSpec",
    "DIVERGENT",
    "DriverSpec",
    "ExampleParams",
    "GeometricTail",
    "HypothesisReport",
    "INCONCLUSIVE",
    "JacobianReport",
    "NoConvergence",
    "NonautolinError",
    "OperatorSeq",
    "SeriesEstimate",
    "SingularOperatorError",
    "SolveOptions",
    "SpaceSpec",
    "SystemSpec",
    "TailEnvelopes",
    "WeightSeq",
    "WindowExhausted",
    "barh_jacobian",
    "certify",
    "coupled_trajectory",
    "green_span",
    "h_jacobian",
    "make_emo",
    "make_end",
    "make_ex1",
    "make_ex2",
    "make_remm",
    "make_system",
    "operator_norm",
    "solution_jacobian",
    "system_by_name",
    "validate_jacobians",
]

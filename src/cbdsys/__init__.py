"""cbdsys: contextuality analysis for context-content systems of binary variables.

Represent systems of +1/-1 random variables labeled by what they measure
(content) and the conditions they are measured under (context), then decide
whether a coupling with the requested within-connection property exists:
one closed-form criterion for cyclic systems of every rank, and a linear
feasibility search with an explicit witness for everything else.
"""

from .cyclic import (
    CriterionResult,
    cbd_cyclic2,
    cbd_cyclic4,
    chsh_fine,
    cyclic_criterion,
    detect_cyclic,
    qq_statistic,
)
from .errors import (
    CbdError,
    ConnectionSizeError,
    ContentNotInContextError,
    InconsistentSystemError,
    MomentError,
    ParameterError,
    ParseError,
    RankError,
    SolverError,
    SystemSizeError,
    ValidationError,
)
from .fileio import parse_system, parse_system_text, serialize_system, system_to_dict
from .system import (
    EPS_FEAS,
    EPS_PROB,
    NO,
    YES,
    Bunch,
    Connection,
    ConsistencyReport,
    Content,
    Context,
    CouplingConstraint,
    CyclicLayout,
    System,
    build_system,
    connections,
    consistency,
    expectation,
    marginal,
    max_equality_probability,
    product_expectation,
    validate_system,
)

__version__ = "0.1.0"

__all__ = [
    "Bunch",
    "CbdError",
    "Connection",
    "ConnectionSizeError",
    "ConsistencyReport",
    "Content",
    "ContentNotInContextError",
    "Context",
    "CouplingConstraint",
    "CouplingWitness",
    "CriterionResult",
    "CyclicLayout",
    "DoubleSlitParams",
    "EPS_FEAS",
    "EPS_PROB",
    "FeasibilityProblem",
    "FeasibilityVerdict",
    "InconsistentSystemError",
    "M_MAX",
    "MomentError",
    "NO",
    "ParameterError",
    "ParseError",
    "QuestionOrderParams",
    "RankError",
    "SolverError",
    "System",
    "SystemSizeError",
    "ValidationError",
    "YES",
    "build_bell",
    "build_double_slit",
    "build_feasibility_problem",
    "build_question_order",
    "build_system",
    "check_double_slit",
    "chsh_fine",
    "cbd_cyclic2",
    "cbd_cyclic4",
    "connections",
    "consistency",
    "coupling_variables",
    "cyclic_criterion",
    "decide",
    "detect_cyclic",
    "expectation",
    "marginal",
    "max_equality_probability",
    "parse_system",
    "parse_system_text",
    "product_expectation",
    "qq_statistic",
    "sample_double_slit_params",
    "serialize_system",
    "system_to_dict",
    "validate_system",
    "witness_violation",
]

#: Names served from their module on first access (PEP 562), so that
#: ``import cbdsys`` loads neither numpy, the LP code nor the scenarios.
_LAZY = {
    **dict.fromkeys((
        "M_MAX",
        "CouplingWitness",
        "FeasibilityProblem",
        "FeasibilityVerdict",
        "build_feasibility_problem",
        "coupling_variables",
        "decide",
        "witness_violation",
    ), "coupling"),
    **dict.fromkeys((
        "DoubleSlitParams",
        "QuestionOrderParams",
        "build_bell",
        "build_double_slit",
        "build_question_order",
        "check_double_slit",
        "sample_double_slit_params",
    ), "scenarios"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())

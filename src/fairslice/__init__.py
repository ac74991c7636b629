"""fairslice: exact-arithmetic cake-cutting procedures and their audits.

The cake is the unit interval, value measures are piecewise-constant
rational densities, and every computation stays in ``fractions.Fraction``,
so fairness, envy, Pareto optimality, and manipulation claims are all
decided by exact equality.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AllocationError,
    EPUndefinedError,
    FairsliceError,
    InfeasibleSeedError,
    InsufficientMassError,
    InvalidDensityError,
    InvalidPlayersError,
    MismatchError,
    NoFeasibleOrderingError,
    NonUniqueMedianError,
    OutputTooLargeError,
    ParseError,
    ProcedureUndefinedError,
    UnboundedError,
)
from .measures import (
    Allocation,
    DensityReport,
    DensityViolation,
    GAP_OR_OVERLAP,
    Interval,
    IntervalSet,
    NEGATIVE_DENSITY,
    Piece,
    Scenario,
    StepDensity,
    TOTAL_MASS_NOT_ONE,
    as_rational,
    declared_values,
)
from .procedures import (
    EQUITABLE,
    PROPORTIONAL,
    PROCEDURE_NAMES,
    ProcedureOutcome,
    TieEvent,
    TieRule,
    contiguous_allocation,
    cut_and_choose,
    equitability,
    moving_knife,
    run_procedure,
    surplus_divide,
    tie_outcomes,
)
from .solve import (
    CellDecomposition,
    DominationWitness,
    EqualValueSolution,
    LinearConstraint,
    LinearProgram,
    SimplexResult,
    build_improvement_lp,
    decompose,
    equal_value_solve,
    greedy_cuts,
    pareto_improve,
    pareto_weights,
    simplex_max,
    utilitarian_bound,
)
from .verify import (
    ManipulationWitness,
    PropertyReport,
    envy_free_check,
    pareto_optimal_check,
    proportional_check,
    theorem_a_check,
    weak_manipulation_search,
)
from .harness import (
    CASES,
    ComparisonReport,
    CounterexampleCase,
    ProcedureSpec,
    ScenarioDocument,
    emit_report,
    load_allocation,
    load_densities,
    load_document,
    load_scenario,
    run_counterexample,
    save_scenario,
)

__version__ = "0.1.0"

# Every public name bound here is exported; a helper imported into this
# module must take a leading underscore to stay out.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

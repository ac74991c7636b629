"""Exception hierarchy shared across the engine.

Every error carries a stable ``code`` string and the exit status the CLI
maps it to: 2 for validation problems and for an exact result too large to
print (``OUTPUT_TOO_LARGE``), 3 for procedures that refuse to run in strict
mode, 4 for counterexample replay mismatches.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNDEFINED = 3
EXIT_MISMATCH = 4


class FairsliceError(Exception):
    """Base class for all engine errors."""

    code = "ERROR"
    exit_status = EXIT_VALIDATION


class ParseError(FairsliceError):
    """A document or literal could not be parsed exactly."""

    code = "PARSE_ERROR"


class OutputTooLargeError(FairsliceError):
    """An exact result has an integer with more digits than the interpreter
    converts to text (4300 by default), so it cannot be printed."""

    code = "OUTPUT_TOO_LARGE"


class InvalidDensityError(FairsliceError):
    """A declared density violates tiling, nonnegativity, or unit mass."""

    code = "INVALID_DENSITY"

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class InvalidPlayersError(FairsliceError, ValueError):
    """A procedure or check cannot run on these players: the wrong number
    of them, an option that names no player, or an allocation whose owners
    are not the scenario's players."""

    code = "INVALID_PLAYERS"


class InsufficientMassError(FairsliceError):
    """A quantile was requested beyond the mass remaining in the suffix."""

    code = "INSUFFICIENT_MASS"


class AllocationError(FairsliceError):
    """Portions overlap on a set of positive measure or fail to cover."""

    code = "INVALID_ALLOCATION"


class InfeasibleSeedError(FairsliceError):
    """The seed point handed to the simplex violates a constraint."""

    code = "INFEASIBLE_SEED"


class UnboundedError(FairsliceError):
    """The linear objective is unbounded above on the feasible region."""

    code = "UNBOUNDED"


class ProcedureUndefinedError(FairsliceError):
    """A strict-mode procedure refused to run on this scenario."""

    code = "PROCEDURE_UNDEFINED"
    exit_status = EXIT_UNDEFINED


class NonUniqueMedianError(ProcedureUndefinedError):
    """A player's median interval is nondegenerate in strict mode."""

    code = "NON_UNIQUE_MEDIAN"

    def __init__(self, player, interval):
        super().__init__(
            f"player {player!r} has no unique median: every point of "
            f"[{interval.lo}, {interval.hi}] splits the declared value in half"
        )
        self.player = player
        self.interval = interval


class EPUndefinedError(ProcedureUndefinedError):
    """Some left-to-right assignment admits no equalizing cutpoints."""

    code = "EP_UNDEFINED"

    def __init__(self, infeasible_orderings):
        orderings = tuple(tuple(o) for o in infeasible_orderings)
        listing = "; ".join("-".join(o) for o in orderings)
        super().__init__(f"no equalizing cutpoints for ordering(s): {listing}")
        self.infeasible_orderings = orderings


class NoFeasibleOrderingError(ProcedureUndefinedError):
    """No left-to-right assignment admits equalizing cutpoints."""

    code = "NO_FEASIBLE_ORDERING"


class MismatchError(FairsliceError):
    """A replayed counterexample diverged from its registered values."""

    code = "MISMATCH"
    exit_status = EXIT_MISMATCH

    def __init__(self, report):
        bad = [e.field for e in report.entries if not e.ok]
        super().__init__(
            f"case {report.case_id} diverged on: {', '.join(bad)}"
        )
        self.report = report

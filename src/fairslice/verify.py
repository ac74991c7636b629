"""Property checkers for allocations and procedures.

Every checker separates the densities that drove a procedure (declared)
from the densities an outcome is scored with (truth); every manipulation
argument rests on that split. A truth profile is an ordinary ``Scenario``
naming the same players, in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import InvalidPlayersError
from .measures import (
    ONE,
    ZERO,
    Allocation,
    Scenario,
    StepDensity,
    _require_owners,
    declared_values,
)
from .procedures import TIE_LOWEST, ProcedureOutcome, TieRule, run_procedure, tie_outcomes
from .solve import DominationWitness, _pareto_scored


@dataclass(frozen=True)
class PropertyReport:
    """Per-player values plus the verdicts recomputable from them."""

    check: str
    values: dict
    verdicts: dict
    passed: bool
    witness: Optional[DominationWitness] = None
    matrix: Optional[dict] = None
    details: Optional[dict] = None


def _scored(scenario: Scenario, truth: Optional[Scenario]) -> Scenario:
    """The densities to score with, in the scenario's player order.

    The order matters: it fixes the Pareto LP's columns, hence its pivots
    and witnesses.
    """
    if truth is None:
        return scenario
    if truth.names == scenario.names:
        return truth
    if set(truth.names) != set(scenario.names):
        raise InvalidPlayersError(
            f"truth names {truth.names} do not match scenario {scenario.names}"
        )
    return Scenario(tuple((name, truth.density(name)) for name in scenario.names))


def proportional_check(
    scenario: Scenario, allocation: Allocation, truth: Optional[Scenario] = None
) -> PropertyReport:
    """Does every player get at least 1/n of the cake by their true measure?"""
    share = Fraction(1, scenario.n)
    values = declared_values(_scored(scenario, truth), allocation)
    verdicts = {name: values[name] >= share for name in scenario.names}
    return PropertyReport(
        check="proportional",
        values=values,
        verdicts=verdicts,
        passed=all(verdicts.values()),
        details={"fair_share": share},
    )


def envy_free_check(
    scenario: Scenario, allocation: Allocation, truth: Optional[Scenario] = None
) -> PropertyReport:
    """Does anyone value another player's portion above their own?

    Each viewer scores every portion in one sweep over the allocation's
    spans sorted by left end, on integers, with one ``_mass_left`` per span
    end. The spans tile [0, 1] in that order (``Allocation`` checks it), so
    each span starts where the previous one ends, at 0 for the first, and
    its value is the mass left of its end minus the mass left of the
    previous end, an integer pair. A contiguous outcome of n portions costs
    n ``_mass_left`` calls per viewer, not the 2n of ``mass``. A portion of
    several spans sums its pairs, reduced by one gcd per added span. Each
    verdict compares the pairs by cross-multiplying, and each matrix entry
    is the one ``Fraction`` built from its pair.
    """
    _require_owners(scenario, allocation)
    names = scenario.names
    ends = [(hi.as_integer_ratio(), owner) for _, hi, owner in allocation._layout]
    matrix = {}
    verdicts = {}
    for viewer, density in _scored(scenario, truth).players:
        scores: dict = {}
        bn, bd = 0, 1
        for (xn, xd), owner in ends:
            _, an, ad = density._mass_left(xn, xd)
            gn, gd = an * bd - bn * ad, ad * bd
            if owner in scores:
                sn, sd = scores[owner]
                gn, gd = sn * gd + gn * sd, sd * gd
                g = gcd(gn, gd)
                gn, gd = gn // g, gd // g
            scores[owner] = gn, gd
            bn, bd = an, ad
        on, od = scores.get(viewer, (0, 1))
        verdicts[viewer] = all(n * od <= on * d for n, d in scores.values())
        matrix[viewer] = {
            owner: Fraction(*scores[owner]) if owner in scores else ZERO for owner in names
        }
    values = {name: matrix[name][name] for name in names}
    return PropertyReport(
        check="envy-free",
        values=values,
        verdicts=verdicts,
        passed=all(verdicts.values()),
        matrix=matrix,
    )


def pareto_optimal_check(
    scenario: Scenario, allocation: Allocation, truth: Optional[Scenario] = None
) -> PropertyReport:
    """Is there no allocation better for someone and worse for no one?

    The verdict and each player's value come from one cell table
    (``solve._pareto_scored``): the values are the owners' weights summed
    on integers, with no scan of a density.
    """
    profile = _scored(scenario, truth)
    witness, base = _pareto_scored(profile, allocation)
    values = {name: Fraction(*value) for name, value in zip(profile.names, base)}
    optimal = witness is None
    return PropertyReport(
        check="pareto",
        values=values,
        verdicts={"pareto_optimal": optimal},
        passed=optimal,
        witness=witness,
    )


def _piece_mass(density: StepDensity, outcome: ProcedureOutcome, name: str) -> tuple[int, int]:
    """The density's mass on ``name``'s piece of a contiguous outcome, as
    a reduced integer pair n/d with d > 0.

    The piece runs between the bounds on either side of ``name``'s place
    in the ordering (0, the cuts, 1), so its mass is the span kernel's
    ``_mass_between`` pair, with no ``Allocation`` built. Equal cuts give
    0, as an empty portion does.
    """
    i = outcome.ordering.index(name)
    cuts = outcome.cuts
    lo = cuts[i - 1] if i else ZERO
    hi = cuts[i] if i < len(cuts) else ONE
    return density._mass_between(lo, hi)


def _piece_value(density: StepDensity, outcome: ProcedureOutcome, name: str) -> Fraction:
    """``_piece_mass`` as one Fraction."""
    return Fraction(*_piece_mass(density, outcome, name))


def theorem_a_check(
    procedure: str,
    truth: StepDensity,
    misreport: StepDensity,
    n: int,
    tie: TieRule = TIE_LOWEST,
    strict: bool = False,
) -> PropertyReport:
    """The identical-misreport harness.

    All n players declare the same ``misreport``; portions are then scored
    under the single ``truth`` measure. Because the portions partition the
    cake, the minimum true value is at most 1/n in every run, so no player
    can be assured of beating the fair share this way. Under a seeded tie
    rule the check also draws every other tie resolution and confirms that
    some outcome leaves the first player at or below 1/n, the randomized
    form of the same argument. The outcomes come from one ``tie_outcomes``
    walk, whose first is the rule's own run, the one scored; the others
    are drawn one at a time and none is kept.
    """
    if type(n) is not int or n < 2:
        raise InvalidPlayersError(f"need at least 2 players, as an int; got {n!r}")
    truth.require_valid("truth")
    misreport.require_valid("misreport")
    scenario = Scenario(tuple((f"p{i + 1}", misreport) for i in range(n)))
    outcomes = tie_outcomes(procedure, scenario, strict=strict, tie=tie)
    outcome = next(outcomes)
    values = {name: _piece_value(truth, outcome, name) for name in scenario.names}
    share = Fraction(1, n)
    verdicts = {"min_value_le_fair_share": min(values.values()) <= share}
    details: dict = {"fair_share": share, "procedure": procedure}
    if tie.mode == "seeded":
        distinguished = scenario.names[0]
        # The scored run's value is already in values; each other outcome
        # is scored only until the verdict is known, and counted, as drawn.
        can_end_le = values[distinguished] <= share
        drawn = 1
        for drawn, other in enumerate(outcomes, 2):
            if not can_end_le:
                m, d = _piece_mass(truth, other, distinguished)
                can_end_le = m * n <= d  # m/d <= 1/n, with no Fraction
        verdicts["distinguished_player_can_end_le_fair_share"] = can_end_le
        details["enumerated_outcomes"] = drawn
    return PropertyReport(
        check="theorem-a",
        values=values,
        verdicts=verdicts,
        passed=all(verdicts.values()),
        details=details,
    )


@dataclass(frozen=True)
class ManipulationWitness:
    """A misreport at least as good against every opponent strategy and
    strictly better against at least one, relative to the given sets."""

    candidate_index: int
    misreport: StepDensity
    truthful_values: tuple[Fraction, ...]
    misreport_values: tuple[Fraction, ...]
    strict_opponents: tuple[int, ...]


def weak_manipulation_search(
    procedure: str,
    truth: StepDensity,
    candidates: Sequence[StepDensity],
    opponents: Sequence[StepDensity],
    *,
    manipulator: str = "A",
    opponent: str = "B",
    tie: TieRule = TIE_LOWEST,
    strict: bool = False,
    cutter: Optional[str] = None,
) -> Optional[ManipulationWitness]:
    """Search finite candidate misreports for a weakly dominant one.

    For each candidate, the manipulator's true value of their portion is
    compared against truthful declaration across every opponent density.
    The verdict is relative to the supplied finite sets only.
    """
    if manipulator == opponent:
        raise InvalidPlayersError(f"manipulator and opponent share the name {manipulator!r}")
    truth.require_valid("truth")
    cutter = manipulator if cutter is None else cutter

    def run(declared: StepDensity, against: StepDensity) -> Fraction:
        scenario = Scenario(((manipulator, declared), (opponent, against)))
        outcome = run_procedure(procedure, scenario, strict=strict, tie=tie, cutter=cutter)
        return _piece_value(truth, outcome, manipulator)

    baseline = tuple(run(truth, against) for against in opponents)
    for index, candidate in enumerate(candidates):
        candidate.require_valid(f"candidate {index}")
        values = tuple(run(candidate, against) for against in opponents)
        strict_wins = tuple(
            k for k, (new, old) in enumerate(zip(values, baseline)) if new > old
        )
        if all(new >= old for new, old in zip(values, baseline)) and strict_wins:
            return ManipulationWitness(
                candidate_index=index,
                misreport=candidate,
                truthful_values=baseline,
                misreport_values=values,
                strict_opponents=strict_wins,
            )
    return None

"""The four allocation procedures.

Each procedure reads only the players' declared densities and returns a
contiguous allocation together with the cuts, the left-to-right assignment,
and any tie events it resolved. Scoring outcomes against true preferences
belongs to the verify module.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import (
    EPUndefinedError,
    InvalidPlayersError,
    NoFeasibleOrderingError,
    NonUniqueMedianError,
)
from .measures import (
    ONE,
    ZERO,
    Allocation,
    Interval,
    IntervalSet,
    Piece,
    Scenario,
    StepDensity,
)
from . import solve

EQUITABLE = "equitable"
PROPORTIONAL = "proportional"

PROCEDURE_NAMES = ("cut-choose", "moving-knife", "sp-e", "sp-p", "ep")

TieResolver = Callable[[tuple[str, ...]], str]


@dataclass(frozen=True)
class TieRule:
    """Deterministic tie-breaking policy.

    ``lowest`` picks the first of the tied candidates in the order the
    procedure lists them (scenario order for the moving knife, chooser
    first for cut and choose). ``seeded`` draws from a PRNG seeded once per
    procedure run, so a given rule replays identically on the same
    scenario regardless of where or when it executes.
    """

    mode: str = "lowest"
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("lowest", "seeded"):
            raise ValueError(f"unknown tie mode {self.mode!r}")
        if self.mode == "seeded":
            if type(self.seed) is not int or not 0 <= self.seed < 2**64:
                raise ValueError(f"tie seed must be an int in [0, 2**64), got {self.seed!r}")
        elif self.seed is not None:
            raise ValueError(f"a {self.mode} tie rule takes no seed, got {self.seed!r}")

    @classmethod
    def seeded(cls, seed: int) -> "TieRule":
        return cls(mode="seeded", seed=seed)

    def resolver(self) -> TieResolver:
        if self.mode == "lowest":
            return lambda tied: tied[0]
        rng = random.Random(self.seed)
        return rng.choice


TIE_LOWEST = TieRule()


@dataclass(frozen=True)
class _ScriptRule:
    """Replays a fixed list of tie winners, then falls back to first-listed.

    Used by the verify module to enumerate every way the ties in a run
    could have been resolved. The procedures only call ``resolver()``, so
    this stands in for a TieRule without being one.
    """

    script: tuple[str, ...] = ()

    def resolver(self) -> TieResolver:
        cursor = itertools.count()

        def pick(tied):
            i = next(cursor)
            if i < len(self.script) and self.script[i] in tied:
                return self.script[i]
            return tied[0]

        return pick


@dataclass(frozen=True)
class TieEvent:
    location: Fraction
    tied: tuple[str, ...]
    winner: str


@dataclass(frozen=True)
class ProcedureOutcome:
    """An allocation plus the diagnostics that produced it.

    ``cuts`` are sorted and, for the contiguous procedures, the portions
    are exactly the consecutive intervals they induce, assigned left to
    right per ``ordering``.
    """

    allocation: Allocation
    cuts: tuple[Fraction, ...]
    ordering: tuple[str, ...]
    common_value: Optional[Fraction] = None
    tie_events: tuple[TieEvent, ...] = ()


def contiguous_allocation(ordering: Sequence[str], cuts: Sequence[Fraction]) -> Allocation:
    """Assign the consecutive intervals induced by the cuts, left to right."""
    bounds = [ZERO, *cuts, ONE]
    portions = []
    for name, lo, hi in zip(ordering, bounds, bounds[1:]):
        # hi > lo on integers, denominators being positive.
        if hi.numerator * lo.denominator > lo.numerator * hi.denominator:
            portion = IntervalSet((Interval(lo, hi),))
        else:
            portion = IntervalSet()
        portions.append((name, portion))
    return Allocation(tuple(portions))


def _outcome(
    ordering: Sequence[str], cuts: Sequence[Fraction], common_value=None, events=()
) -> ProcedureOutcome:
    """The outcome whose portions are the intervals the cuts induce."""
    ordering, cuts = tuple(ordering), tuple(cuts)
    return ProcedureOutcome(
        allocation=contiguous_allocation(ordering, cuts),
        cuts=cuts,
        ordering=ordering,
        common_value=common_value,
        tie_events=tuple(events),
    )


def _pick(resolver: TieResolver, location: Fraction, tied: tuple, events: list) -> str:
    """The single candidate, or the resolver's pick among the tied ones,
    recorded in ``events``."""
    if len(tied) == 1:
        return tied[0]
    winner = resolver(tied)
    events.append(TieEvent(location, tied, winner))
    return winner


def _median_point(scenario: Scenario, name: str, strict: bool) -> Fraction:
    """The midpoint of the player's median interval; strict mode refuses a
    nondegenerate interval, whose points are then equally good cuts.

    The interval is kept in the scenario's memo under the player's density
    key, so players declaring one density object, and every tie branch
    replayed on the scenario, look it up once. The interval, not its
    midpoint, is kept, so strict mode refuses on every call.
    """
    i = scenario.index(name)
    key = ("median", scenario._density_keys[i])
    median = scenario._memo.get(key)
    if median is None:
        median = scenario._memo[key] = scenario.players[i][1].median_interval()
    if strict and median.lo != median.hi:
        raise NonUniqueMedianError(name, median)
    return median.midpoint


def _require_players(scenario: Scenario, exactly: bool = False) -> None:
    if scenario.n < 2 or (exactly and scenario.n != 2):
        bound = "exactly" if exactly else "at least"
        raise InvalidPlayersError(f"this procedure needs {bound} 2 players, got {scenario.n}")


def cut_and_choose(
    scenario: Scenario,
    cutter: str,
    strict: bool = False,
    tie: TieRule = TIE_LOWEST,
) -> ProcedureOutcome:
    """Two players: the cutter halves the cake by declared value, the other
    player takes the piece they declare more valuable.

    The risk-averse cut is the midpoint of the cutter's median interval;
    in strict mode a nondegenerate interval is refused instead, since no
    single cut point is then uniquely optimal. On indifference the chooser
    takes the left piece (the tie rule can override, and the tie is
    recorded either way).
    """
    _require_players(scenario, exactly=True)
    if cutter not in scenario.names:
        raise InvalidPlayersError(f"unknown cutter {cutter!r}")
    chooser = next(name for name in scenario.names if name != cutter)
    cut = _median_point(scenario, cutter, strict)
    chooser_density = scenario.density(chooser)
    left_value = chooser_density.mass(Interval(ZERO, cut))
    right_value = chooser_density.mass(Interval(cut, ONE))
    tied = (chooser, cutter)
    if left_value != right_value:
        tied = (chooser,) if left_value > right_value else (cutter,)
    events = []
    left_owner = _pick(tie.resolver(), cut, tied, events)
    right_owner = chooser if left_owner == cutter else cutter
    return _outcome((left_owner, right_owner), (cut,), events=events)


def moving_knife(scenario: Scenario, tie: TieRule = TIE_LOWEST) -> ProcedureOutcome:
    """Sweep a knife from 0; whoever calls first takes the slice and exits.

    Each remaining player calls where the slice reaches their share of what
    the remainder is still worth to them (remaining mass over remaining
    player count). That adaptive threshold gives every winner at least 1/n
    of the whole by their own declaration and splits identical declarations
    into exact 1/n pieces. The tie rule settles simultaneous calls; the
    last player takes the remainder.

    A call depends only on the density, the knife position and the count
    of players left, so it is kept in the scenario's memo under those
    three, the density named by its first player index. Players declaring
    one density object share their calls, and so do all the tie branches
    replayed on the scenario: n identical players make n - 1 calls in all,
    not one per player per branch. The memo holds only states the runs
    visit.
    """
    _require_players(scenario)
    resolver = tie.resolver()
    memo = scenario._memo
    remaining = [
        (key, name, density)
        for key, (name, density) in zip(scenario._density_keys, scenario.players)
    ]
    position = ZERO
    cuts: list[Fraction] = []
    order: list[str] = []
    events: list[TieEvent] = []
    while len(remaining) > 1:
        count = len(remaining)
        calls = []
        for key, name, density in remaining:
            state = ("knife", key, position, count)
            point = memo.get(state)
            if point is None:
                threshold = (ONE - density.cdf(position)) / count
                point = memo[state] = density.quantile_left(threshold, start=position)
            calls.append((point, name))
        earliest = min(point for point, _ in calls)
        tied = tuple(name for point, name in calls if point == earliest)
        winner = _pick(resolver, earliest, tied, events)
        cuts.append(earliest)
        order.append(winner)
        remaining = [entry for entry in remaining if entry[1] != winner]
        position = earliest
    order.append(remaining[0][1])
    return _outcome(order, cuts, events=events)


def _surplus_cut(
    left_density: StepDensity,
    right_density: StepDensity,
    a: Fraction,
    b: Fraction,
    variant: str,
    mass_left: Fraction,
    mass_right: Fraction,
) -> Fraction:
    """Cut point inside the surplus [a, b], both surplus masses positive.

    With L and R the players' measures and (wL, wR) = (1, 1) for equal
    shares or (mass_right, mass_left) for equal proportions, the cut c
    solves wL * L[a, c] = wR * R[c, b]: the mixture M = (wL * L + wR * R) /
    (wL + wR) gives [a, c] the mass tau = wR * mass_right / (wL + wR), and
    0 < tau < M[a, b]. The roots form the closed interval between M's left
    and right quantiles at tau from a. Its midpoint is taken for symmetry;
    no share depends on the choice, as both densities vanish there.
    """
    w_left, w_right = (ONE, ONE) if variant == EQUITABLE else (mass_right, mass_left)
    total = w_left + w_right

    def mix(x: Fraction, y: Fraction) -> Fraction:
        return (w_left * x + w_right * y) / total

    # M on [a, b], flattened to one piece of M's mass on each side (a > 0 and
    # b < 1 as median points): still a density, built from [a, b]'s pieces.
    pieces = [Piece(ZERO, a, mix(left_density.cdf(a), right_density.cdf(a)) / a)]
    i = j = 0
    lo = a
    while lo < b:  # two-cursor merge of the piece lists
        p, q = left_density.pieces[i], right_density.pieces[j]
        hi = min(p.hi, q.hi, b)
        if hi > lo:
            pieces.append(Piece(lo, hi, mix(p.density, q.density)))
            lo = hi
        i += p.hi <= lo
        j += q.hi <= lo
    rest = mix(ONE - left_density.cdf(b), ONE - right_density.cdf(b))
    mixture = StepDensity((*pieces, Piece(b, ONE, rest / (ONE - b))))
    tau = w_right * mass_right / total
    return (mixture.quantile(tau, a) + mixture.quantile(tau, a, "right")) / 2


def surplus_divide(
    scenario: Scenario,
    variant: str = EQUITABLE,
    strict: bool = False,
    tie: TieRule = TIE_LOWEST,
) -> ProcedureOutcome:
    """Two players: cut inside the interval between their median points.

    Each player's median point is the midpoint of their median interval
    (strict mode refuses nondegenerate intervals). The player with the
    smaller median takes the left side; coinciding medians are a tie for
    the left piece. On the surplus between the medians, the equitable
    variant equalizes the two surplus shares outright, the proportional
    variant equalizes them relative to each player's value of the whole
    surplus. The cut is a quantile of the players' weighted mixture density
    (``_surplus_cut``); when a whole interval balances, neither player
    values any of it, so its midpoint is taken for symmetry at no cost to
    either share. When only one player values the surplus it all goes to
    that player; when neither does the cut lands mid-surplus.
    """
    _require_players(scenario, exactly=True)
    if variant not in (EQUITABLE, PROPORTIONAL):
        raise ValueError(f"unknown variant {variant!r}")
    names = scenario.names
    medians = {name: _median_point(scenario, name, strict) for name in names}
    a = min(medians.values())
    tied = tuple(name for name in names if medians[name] == a)
    events = []
    left = _pick(tie.resolver(), a, tied, events)
    right = names[1] if left == names[0] else names[0]
    b = medians[right]
    left_density = scenario.density(left)
    right_density = scenario.density(right)
    if a == b:
        cut = a
    else:
        mass_left = left_density.mass(Interval(a, b))
        mass_right = right_density.mass(Interval(a, b))
        if mass_left == 0 and mass_right == 0:
            cut = (a + b) / 2
        elif mass_left == 0:
            cut = a
        elif mass_right == 0:
            cut = b
        else:
            cut = _surplus_cut(
                left_density, right_density, a, b, variant, mass_left, mass_right
            )
    value_left = left_density.mass(Interval(ZERO, cut))
    value_right = right_density.mass(Interval(cut, ONE))
    common = value_left if value_left == value_right else None
    return _outcome((left, right), (cut,), common, events)


def _ep_search(scenario: Scenario, strict: bool = False, walk_all: bool = False):
    """The assignments of pieces tied at the largest common value.

    Returns the (ordering names, solution) pairs tied at the best common
    value t*, in permutation order (the first is the lenient answer), and
    the infeasible orderings that were walked. The search keeps t* and
    decides a later ordering by one greedy chain at t*, read as the last
    piece's value L(t*). L is non-increasing, and a chain that fails at t*
    fails at every larger target, so a failed chain or L(t*) < t* leaves no
    root at or above t* and the ordering is skipped. L(t*) == t* makes t*
    the root and the chained cuts its solution, exactly as the walk would
    return them. Only L(t*) > t* needs the walk, whose root then beats t*,
    so the walk starts at t* and skips every segment below it.

    The chain at t* only has to tell the sign of L(t*) - t*, so it runs on
    integers (``solve._chain``), and its cuts become ``Fraction``s only for
    a tie. The chains and the walks read each density's cached integer
    index (``StepDensity._rows``), so players who share a density object
    share its index, and the search itself keeps nothing.

    Strict mode must name every infeasible ordering, and the CE3 replay
    reports them too, so those callers set ``walk_all`` (strict mode
    implies it) and every ordering is walked; a pruned search lists only
    the infeasible orderings it happened to walk. The tied list is the same
    either way. Strict mode raises when any assignment is infeasible;
    either mode raises when none is feasible.
    """
    _require_players(scenario)
    walk_all = walk_all or strict
    names = scenario.names
    densities = [density for _, density in scenario.players]
    best = None
    tied = []
    infeasible = []
    for perm in itertools.permutations(range(scenario.n)):
        ordered_names = tuple(names[i] for i in perm)
        if best is not None and not walk_all:
            ordered = [densities[i] for i in perm]
            settled = solve._chain(ordered, best.numerator, best.denominator)
            if settled is None or settled[0] < 0:
                continue
            if settled[0] == 0:
                cuts = tuple([Fraction(xn, xd) for xn, xd in settled[1]])
                solution = solve.EqualValueSolution(cuts, best)
            else:  # L(t*) > t*, so the root lies above t*: walk from there.
                solution = solve.equal_value_solve(scenario, perm, start=best)
        else:
            solution = solve.equal_value_solve(scenario, perm)
        if solution is None:
            infeasible.append(ordered_names)
        elif best is None or solution.common_value > best:
            best = solution.common_value
            tied = [(ordered_names, solution)]
        elif solution.common_value == best:
            tied.append((ordered_names, solution))
    if strict and infeasible:
        raise EPUndefinedError(infeasible)
    if not tied:
        raise NoFeasibleOrderingError(
            "no assignment of pieces admits equalizing cutpoints"
        )
    return tied, infeasible


def equitability(scenario: Scenario, strict: bool = False) -> ProcedureOutcome:
    """Solve the equal-value system for the assignments of pieces.

    Strict mode walks all n! assignments and raises if any is infeasible,
    naming all of them. Lenient mode returns the feasible assignment with
    the largest common value, breaking ties toward the lexicographically
    smallest permutation in scenario order; it walks only the assignments
    whose greedy chain at the best value so far cannot settle them
    (``_ep_search``).
    """
    names, solution = _ep_search(scenario, strict)[0][0]
    return _outcome(names, solution.cuts, solution.common_value)


def run_procedure(
    name: str,
    scenario: Scenario,
    *,
    strict: bool = False,
    tie: TieRule = TIE_LOWEST,
    cutter: Optional[str] = None,
) -> ProcedureOutcome:
    """Dispatch on the wire-format procedure names used by documents and
    the command line."""
    if name == "cut-choose":
        cutter = scenario.names[0] if cutter is None else cutter
        return cut_and_choose(scenario, cutter, strict=strict, tie=tie)
    if name == "moving-knife":
        return moving_knife(scenario, tie=tie)
    if name == "sp-e":
        return surplus_divide(scenario, EQUITABLE, strict=strict, tie=tie)
    if name == "sp-p":
        return surplus_divide(scenario, PROPORTIONAL, strict=strict, tie=tie)
    if name == "ep":
        return equitability(scenario, strict=strict)
    raise ValueError(f"unknown procedure {name!r}; expected one of {PROCEDURE_NAMES}")

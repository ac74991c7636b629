"""The four allocation procedures.

Each procedure reads only the players' declared densities and returns a
contiguous outcome: its cuts, the left-to-right assignment of the pieces
they induce, and any tie events it resolved. The outcome is those cuts and
that ordering; its ``Allocation`` is built only when read. Scoring outcomes
against true preferences belongs to the verify module.

Each procedure's body is a generator of its outcomes across tie
resolutions (``tie_outcomes``), and the procedure returns the first.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd
from typing import Callable, Iterator, Optional, Sequence

from .errors import (
    AllocationError,
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
            return _first_listed
        rng = random.Random(self.seed)
        return rng.choice


def _first_listed(tied: tuple[str, ...]) -> str:
    return tied[0]


TIE_LOWEST = TieRule()


@dataclass(frozen=True)
class TieEvent:
    location: Fraction
    tied: tuple[str, ...]
    winner: str


@dataclass(frozen=True)
class ProcedureOutcome:
    """A contiguous outcome plus the diagnostics that produced it.

    The outcome is its ``cuts`` and ``ordering``: ``ordering[i]`` owns the
    i-th interval between consecutive bounds 0, ``cuts``, 1. The
    constructor checks on integers that the owners are distinct, that there
    are ``len(cuts) + 1`` of them, and that 0 <= c1 <= ... <= 1, and raises
    ``AllocationError`` otherwise, so every outcome's allocation builds.
    ``allocation`` is built on first read and cached; like
    ``Allocation._layout`` it is not a field, so equality, hashing and repr
    ignore it, and it is a function of the fields.
    """

    cuts: tuple[Fraction, ...]
    ordering: tuple[str, ...]
    common_value: Optional[Fraction] = None
    tie_events: tuple[TieEvent, ...] = ()

    def __post_init__(self):
        owners, portions = self.ordering, len(self.cuts) + 1
        if len(set(owners)) != len(owners) or len(owners) != portions:
            raise AllocationError(f"{portions} portions need distinct owners, got {list(owners)}")
        below_n, below_d = 0, 1
        for cut in (*self.cuts, ONE):
            n, d = cut.numerator, cut.denominator
            if n * below_d < below_n * d:  # cut < the bound below, d > 0
                raise AllocationError(
                    f"cuts are not sorted in [0, 1]: {', '.join(map(str, self.cuts))}"
                )
            below_n, below_d = n, d

    @cached_property
    def allocation(self) -> Allocation:
        return contiguous_allocation(self.ordering, self.cuts)


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
    return ProcedureOutcome(tuple(cuts), tuple(ordering), common_value, tuple(events))


def _settle(
    tie: TieRule,
    location: Fraction,
    tied: tuple[str, ...],
    finish: Callable[[str, tuple[TieEvent, ...]], ProcedureOutcome],
) -> Iterator[ProcedureOutcome]:
    """``finish(winner, events)`` for the single candidate; for tied ones,
    the rule's pick, then the other candidate, each with its tie event.

    A two-player procedure has at most this one tie, so those are all its
    outcomes.
    """
    if len(tied) == 1:
        yield finish(tied[0], ())
        return
    winner = tie.resolver()(tied)
    for name in (winner, *(other for other in tied if other != winner)):
        yield finish(name, (TieEvent(location, tied, name),))


def _median_point(density: StepDensity, name: str, strict: bool) -> Fraction:
    """The midpoint of the player's median interval; strict mode refuses a
    nondegenerate interval, whose points are then equally good cuts."""
    median = density.median_interval()
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
    return next(_cut_and_choose(scenario, cutter, strict, tie))


def _cut_and_choose(
    scenario: Scenario, cutter: str, strict: bool, tie: TieRule
) -> Iterator[ProcedureOutcome]:
    """``cut_and_choose``'s outcomes across its tie (``_settle``)."""
    _require_players(scenario, exactly=True)
    if cutter not in scenario.names:
        raise InvalidPlayersError(f"unknown cutter {cutter!r}")
    chooser = next(name for name in scenario.names if name != cutter)
    cut = _median_point(scenario.density(cutter), cutter, strict)
    # The left piece is worth n/d to the chooser and the right one 1 - n/d.
    _, n, d = scenario.density(chooser)._mass_left(*cut.as_integer_ratio())
    tied = (chooser, cutter)
    if 2 * n != d:
        tied = (chooser,) if 2 * n > d else (cutter,)

    def finish(left_owner, events):
        right_owner = chooser if left_owner == cutter else cutter
        return _outcome((left_owner, right_owner), (cut,), events=events)

    yield from _settle(tie, cut, tied, finish)


def moving_knife(scenario: Scenario, tie: TieRule = TIE_LOWEST) -> ProcedureOutcome:
    """Sweep a knife from 0; whoever calls first takes the slice and exits.

    Each remaining player calls where the slice reaches their share of what
    the remainder is still worth to them (remaining mass over remaining
    player count). That adaptive threshold gives every winner at least 1/n
    of the whole by their own declaration and splits identical declarations
    into exact 1/n pieces. The tie rule settles simultaneous calls; the
    last player takes the remainder.
    """
    return next(_moving_knife(scenario, tie))


def _knife_calls(memo: dict, remaining: list, pn: int, pd: int):
    """The earliest call from the knife at pn/pd, as a reduced integer
    pair, and the players making it, in scenario order.

    A call runs on the density's integer index: the mass n/d left of the
    knife (``_mass_left``), then the leftmost cut from the knife worth
    (d - n) / (d * count), a validated density's total mass being exactly
    1 (``_cut``). Calls are reduced integer pairs, compared by
    cross-multiplying.

    A call depends only on the density, the knife position and the count
    of players left, so it is kept in the run's memo under those three,
    the density named by its key and the position by its reduced integer
    pair. Players declaring one density object share their calls, and so
    do the tie branches walked from the run: n identical players make
    n - 1 calls in all, however many branches are drawn. The memo holds
    only states the walk visits, and it dies with the walk.
    """
    count = len(remaining)
    calls = []
    for key, name, density in remaining:
        state = (key, pn, pd, count)
        point = memo.get(state)
        if point is None:
            _, n, d = density._mass_left(pn, pd)
            point = memo[state] = density._cut(d - n, d * count, pn, pd, True)
        calls.append((point, name))
    en, ed = earliest = calls[0][0]
    for (xn, xd), _ in calls:
        if xn * ed < en * xd:
            en, ed = earliest = xn, xd
    return earliest, tuple(name for point, name in calls if point == earliest)


def _moving_knife(scenario: Scenario, tie: TieRule) -> Iterator[ProcedureOutcome]:
    """``moving_knife``'s outcomes, walked with one memo of calls and one
    pending stack of step states.

    A step state is the players left, as (density key, name, density),
    each keyed by the first player index holding its density object, the
    knife position as a reduced integer pair, and the cuts, order and tie
    events so far. Each step makes its calls (``_knife_calls``), and the
    earliest caller, or the rule's pick among tied ones, takes the slice.
    No step changes a state in place, so a tie pushes the step's state,
    earliest call and tied players once per other caller, who takes the
    tie there and first-listed picks later. Entries are popped only after
    the current run has yielded: only the rule's own run draws from the
    rule, and no branch makes its step's calls again.
    """
    _require_players(scenario)
    first: dict[int, int] = {}
    remaining = [
        (first.setdefault(id(density), i), name, density)
        for i, (name, density) in enumerate(scenario.players)
    ]
    memo: dict = {}
    pick = tie.resolver()
    pending = [(remaining, (0, 1), (), (), (), None)]
    while pending:
        remaining, (pn, pd), cuts, order, events, settled = pending.pop()
        while len(remaining) > 1:
            if settled is None:
                earliest, tied = _knife_calls(memo, remaining, pn, pd)
                winner = tied[0]
                if len(tied) > 1:
                    winner = pick(tied)
                    state = (remaining, (pn, pd), cuts, order, events)
                    pending += [(*state, (earliest, tied, o)) for o in tied if o != winner]
            else:  # a branch's own tie, whose other callers are pushed already
                earliest, tied, winner = settled
                settled = None
            cut = Fraction(*earliest)
            if len(tied) > 1:
                events += (TieEvent(cut, tied, winner),)
            cuts += (cut,)
            order += (winner,)
            remaining = [entry for entry in remaining if entry[1] != winner]
            pn, pd = earliest
        yield _outcome(order + (remaining[0][1],), cuts, events=events)
        pick = _first_listed


def _surplus_cut(
    left_density: StepDensity,
    right_density: StepDensity,
    a: Fraction,
    variant: str,
    mass_left: tuple[int, int],
    mass_right: tuple[int, int],
) -> Fraction:
    """Cut point inside the surplus [a, b], both surplus masses positive.

    With L and R the players' measures and (wL, wR) = (1, 1) for equal
    shares or (mass_right, mass_left) for equal proportions, the cut c
    solves wL * L[a, c] = wR * R[c, b], that is W(c) = wR * mass_right for
    W(c) = wL * L[a, c] + wR * R[a, c]. W grows at the rate
    wL * dL + wR * dR and exceeds the target at b. The roots form a closed
    interval, from the first point where W reaches the target to the far
    end of the zero-rate plateau there, if any; its midpoint is taken for
    symmetry, and no share depends on the choice, as both densities vanish
    on the plateau.

    One two-cursor scan over the two densities' integer indexes finds both
    roots, starting at the pieces that hold a (``_piece_at``): each step
    adds the rate times the width up to the nearer piece end, on integer
    pairs, and the scan stops at the far root, before b. The masses come
    as integer pairs lmn/lmd and rmn/rmd; for equal proportions both sides
    are multiplied by lmd * rmd, so the weights are (rmn * lmd, lmn * rmd)
    and the target is lmn * rmn. Only the midpoint is built as a
    ``Fraction``.
    """
    lmn, lmd = mass_left
    rmn, rmd = mass_right
    if variant == EQUITABLE:
        w_left = w_right = 1
        remn, remd = rmn, rmd
    else:
        w_left, w_right = rmn * lmd, lmn * rmd
        remn, remd = lmn * rmn, 1
    lbn, lbd, lrn, lrd, _, _ = left_density._rows
    rbn, rbd, rrn, rrd, _, _ = right_density._rows
    xn, xd = a.as_integer_ratio()
    i = left_density._piece_at(xn, xd)
    j = right_density._piece_at(xn, xd)
    while True:  # W lacks remn/remd > 0 of the target at x = xn/xd
        hn, hd = lbn[i + 1], lbd[i + 1]
        on, od = rbn[j + 1], rbd[j + 1]
        order = on * hd - hn * od  # < 0: the right piece ends first
        if order < 0:
            hn, hd = on, od
        qn = w_left * lrn[i] * rrd[j] + w_right * rrn[j] * lrd[i]
        qd = lrd[i] * rrd[j]
        gn, gd = qn * (hn * xd - xn * hd), qd * hd * xd  # W's gain on [x, h]
        over = gn * remd - remn * gd  # the gain past the lack, times remd * gd
        if over >= 0:
            break
        g = gcd(over, remd * gd)
        remn, remd = -over // g, remd * gd // g
        xn, xd = hn, hd
        i += order >= 0
        j += order <= 0
    if over:  # a single root, inside [x, h]
        return Fraction(xn * remd * qn + remn * qd * xd, xd * remd * qn)
    # W reaches the target at h; the roots run on across zero-rate pieces.
    while True:
        i += order >= 0
        j += order <= 0
        if lrn[i] or rrn[j]:
            break
        order = rbn[j + 1] * lbd[i + 1] - lbn[i + 1] * rbd[j + 1]
    en, ed = (lbn[i], lbd[i]) if order > 0 else (rbn[j], rbd[j])
    return Fraction(hn * ed + en * hd, 2 * hd * ed)


def surplus_divide(
    scenario: Scenario,
    variant: str = EQUITABLE,
    strict: bool = False,
    tie: TieRule = TIE_LOWEST,
) -> ProcedureOutcome:
    """Two players: cut inside the interval between their median points.

    Each player's median point is the midpoint of their median interval
    (strict mode refuses nondegenerate intervals); players declaring one
    density object take one median. The player with the smaller median
    takes the left side; coinciding medians are a tie for the left piece.
    On the surplus between the medians, the equitable variant equalizes
    the two surplus shares outright, the proportional variant equalizes
    them relative to each player's value of the whole surplus. The cut
    comes from one scan over both players' pieces from the left median
    (``_surplus_cut``); when a whole interval balances, neither player
    values any of it, so its midpoint is taken for symmetry at no cost to
    either share. When only one player values the surplus it all goes to
    that player; when neither does the cut lands mid-surplus. The surplus
    masses come from the span kernel ``_mass_between`` and the piece values
    from ``_mass_left``, as integer pairs, so no interval is built.
    """
    return next(_surplus_divide(scenario, variant, strict, tie))


def _surplus_divide(
    scenario: Scenario, variant: str, strict: bool, tie: TieRule
) -> Iterator[ProcedureOutcome]:
    """``surplus_divide``'s outcomes across its tie (``_settle``)."""
    _require_players(scenario, exactly=True)
    if variant not in (EQUITABLE, PROPORTIONAL):
        raise ValueError(f"unknown variant {variant!r}")
    (first, d1), (second, d2) = scenario.players
    m1 = _median_point(d1, first, strict)
    m2 = m1 if d2 is d1 else _median_point(d2, second, strict)
    medians = {first: m1, second: m2}
    a = min(m1, m2)
    tied = tuple(name for name in (first, second) if medians[name] == a)
    finish = partial(_surplus_split, scenario, variant, medians)
    yield from _settle(tie, a, tied, finish)


def _surplus_split(
    scenario: Scenario, variant: str, medians: dict, left: str, events: tuple
) -> ProcedureOutcome:
    """``surplus_divide`` once ``left`` holds the side left of its median
    ``a``: the cut inside [a, b], b being the other player's median."""
    names = scenario.names
    right = names[1] if left == names[0] else names[0]
    a, b = medians[left], medians[right]
    left_density = scenario.density(left)
    right_density = scenario.density(right)
    if a == b:
        cut = a
    else:
        mass_left = left_density._mass_between(a, b)
        mass_right = right_density._mass_between(a, b)
        if not mass_left[0] and not mass_right[0]:
            cut = (a + b) / 2
        elif not mass_left[0]:
            cut = a
        elif not mass_right[0]:
            cut = b
        else:
            cut = _surplus_cut(left_density, right_density, a, variant, mass_left, mass_right)
    # The left piece is worth ln/ld to its owner, the right one 1 - rn/rd.
    cn, cd = cut.as_integer_ratio()
    _, ln, ld = left_density._mass_left(cn, cd)
    _, rn, rd = right_density._mass_left(cn, cd)
    common = Fraction(ln, ld) if ln * rd == (rd - rn) * ld else None
    return _outcome((left, right), (cut,), common, events)


def _ep_search(scenario: Scenario, strict: bool = False, walk_all: bool = False):
    """The assignments of pieces tied at the largest common value.

    Returns the (ordering names, solution) pairs tied at the best common
    value t*, in permutation order (the first is the lenient answer), and
    the infeasible orderings that were walked. The search keeps t* and
    decides each ordering by one greedy chain at t*, read as the last
    piece's value L(t*). L is non-increasing, and a chain that fails at t*
    fails at every larger target, so a failed chain or L(t*) < t* leaves no
    root at or above t* and the ordering is skipped. L(t*) == t* makes t*
    the root and the chained cuts its solution, exactly as the walk would
    return them. Only L(t*) > t* needs the walk, whose root then beats t*,
    so the walk starts at t* and skips every segment below it.

    Before any root is found, t* is the floor 1/n, the fair share at which
    identical players meet, so no walk starts from 0 when some ordering
    reaches 1/n. An ordering whose chain at 1/n fails or gives L < 1/n has
    no root at or above 1/n; it is deferred, and once a root is found it
    can neither beat nor tie it. A walk from 1/n that finds no root proves
    the ordering infeasible, since L(t) - t is strictly decreasing and so
    L(t) >= L(1/n) > 1/n > t below 1/n. Only when no ordering reaches 1/n
    does the same scan run once more, with no floor, over the deferred
    orderings: the first is walked from 0, as the search did before the
    floor. The tied list, its order and every cut are the same either way.

    The chain at t* only has to tell the sign of L(t*) - t*, so it runs on
    integers (``solve._chain``), and its cuts become ``Fraction``s only for
    a tie. The chains and the walks read each density's cached integer
    index (``StepDensity._rows``), so players who share a density object
    share its index, and the search itself keeps nothing.

    Strict mode must name every infeasible ordering, and the CE3 replay
    reports them too (it sets ``walk_all``), so both walk every ordering
    from 0 when one can be infeasible. A pruned search lists only the
    orderings its walks found infeasible: one walked from 1/n or t* with
    no root above its start, or, in the pass with no floor, one walked
    from 0. It names no ordering that a chain skipped or deferred, so on
    CE3 it names none. Strict mode raises when any assignment is
    infeasible; either mode raises when none is feasible.

    Strict mode walks every ordering only when some density has a
    zero-density piece, by this lemma: if no density has one, every
    ordering's equal-value system has a root. Each cdf F_i is then
    continuous and strictly increasing, so each chained cut is continuous
    and increasing in t wherever the chain is defined, and so is the last
    piece's value L(t). L(0) = 1 > 0. As t rises to where the chain first
    fails, some cut reaches 1, every later cut follows it, and L falls to
    0 < t. By the intermediate value theorem L(t) = t somewhere between,
    so no ordering is infeasible and the pruned search loses nothing.
    """
    _require_players(scenario)
    names = scenario.names
    densities = [density for _, density in scenario.players]
    walk_all = walk_all or (strict and any(0 in density._rows[2] for density in densities))
    tied = []
    infeasible = []
    pending = itertools.permutations(range(scenario.n))
    # The first pass starts t* at the floor 1/n; the second, over the
    # orderings the first deferred, has no floor.
    for best in (None,) if walk_all else (Fraction(1, scenario.n), None):
        deferred = []
        for perm in pending:
            if best is not None and not walk_all:
                ordered = [densities[i] for i in perm]
                settled = solve._chain(ordered, *best.as_integer_ratio())
                if settled is None or settled[0] < 0:
                    if not tied:
                        deferred.append(perm)
                    continue
                if settled[0] == 0:
                    cuts = tuple([Fraction(xn, xd) for xn, xd in settled[1]])
                    solution = solve.EqualValueSolution(cuts, best)
                else:  # L(t*) > t*, so the root lies above t*: walk from there.
                    solution = solve.equal_value_solve(scenario, perm, start=best)
            else:
                solution = solve.equal_value_solve(scenario, perm)
            # Named only here: a skipped or deferred ordering needs no name.
            ordered_names = tuple([names[i] for i in perm])
            if solution is None:
                infeasible.append(ordered_names)
            elif best is None or solution.common_value > best:
                best = solution.common_value
                tied = [(ordered_names, solution)]
            elif solution.common_value == best:
                tied.append((ordered_names, solution))
        if tied:
            break
        pending = deferred
    if strict and infeasible:
        raise EPUndefinedError(infeasible)
    if not tied:
        raise NoFeasibleOrderingError(
            "no assignment of pieces admits equalizing cutpoints"
        )
    return tied, infeasible


def equitability(scenario: Scenario, strict: bool = False) -> ProcedureOutcome:
    """Solve the equal-value system for the assignments of pieces.

    Strict mode raises if any assignment is infeasible, naming all of them;
    it walks all n! assignments when some density has a zero-density
    piece, the only case in which one can be. Lenient mode returns the
    feasible assignment with the largest common value, breaking ties
    toward the lexicographically smallest permutation in scenario order;
    it walks only the assignments whose greedy chain at the best value so
    far cannot settle them (``_ep_search``). That best value starts at the
    fair share 1/n: an assignment whose chain there fails or leaves the
    last piece less than 1/n has no root at or above 1/n, and is deferred.
    A walk from 1/n that finds no root proves its assignment infeasible,
    as the last piece's value minus t strictly decreases in t. Only when
    no assignment reaches 1/n are the deferred ones searched from 0. The
    lenient search's infeasible list names only the assignments whose walk
    found no root, and this function does not return it.
    """
    return next(_equitability(scenario, strict))


def _equitability(scenario: Scenario, strict: bool) -> Iterator[ProcedureOutcome]:
    """``equitability``'s outcomes: it has no runtime ties, so they are the
    assignments tied at the best common value, the lenient answer first."""
    tied, _ = _ep_search(scenario, strict)
    for names, solution in tied:
        yield _outcome(names, solution.cuts, solution.common_value)


def tie_outcomes(
    name: str,
    scenario: Scenario,
    *,
    strict: bool = False,
    tie: TieRule = TIE_LOWEST,
    cutter: Optional[str] = None,
) -> Iterator[ProcedureOutcome]:
    """Every outcome the named procedure can reach across tie resolutions,
    each once, drawn lazily; names are the wire-format ones.

    The first is the one ``tie`` itself gives. The rest walk the tie tree
    depth first, each tie event's other winners last-listed first, with
    first-listed picks at later ties, and no branch redoes the work before
    its tie.
    """
    if name == "cut-choose":
        cutter = scenario.names[0] if cutter is None else cutter
        return _cut_and_choose(scenario, cutter, strict, tie)
    if name == "moving-knife":
        return _moving_knife(scenario, tie)
    if name == "sp-e":
        return _surplus_divide(scenario, EQUITABLE, strict, tie)
    if name == "sp-p":
        return _surplus_divide(scenario, PROPORTIONAL, strict, tie)
    if name == "ep":
        return _equitability(scenario, strict)
    raise ValueError(f"unknown procedure {name!r}; expected one of {PROCEDURE_NAMES}")


def run_procedure(
    name: str,
    scenario: Scenario,
    *,
    strict: bool = False,
    tie: TieRule = TIE_LOWEST,
    cutter: Optional[str] = None,
) -> ProcedureOutcome:
    """The named procedure's outcome: the first of ``tie_outcomes``."""
    return next(tie_outcomes(name, scenario, strict=strict, tie=tie, cutter=cutter))

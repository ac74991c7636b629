"""Exact solvers behind the procedures and the optimality checks.

Three engines live here: a parametric solver for the equal-value cut
systems; a trade-rate closure on cell decompositions that decides Pareto
optimality and certifies it with weights; and a dense two-phase exact
simplex with Bland's rule, on integer tableau rows, which builds the
dominating allocation once the closure has found one to exist.

The equal-value solver walks the target value t upward over the affine
segments of the greedy leftmost cuts. Cuts only move right as t grows, so
each cut carries forward-only cursors into the pieces and cumulative-mass
index of the densities, and a segment costs one pass over the cuts with no
bisection. Every segment end advances some cursor, so an ordering takes at
most about twice the total piece count of its densities in segments. Like
the simplex tableau, the segment loop is fraction-free: it runs on integer
numerator/denominator pairs, and only the root is built as a ``Fraction``.
The procedure search settles most orderings without a walk, by the sign of
L(t*) - t* at its best value t* so far; ``_settle_chain`` computes that
greedy chain on the same integer rows, which the search reads once per
distinct density and hands to each walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import eq, ge, le
from typing import Optional, Sequence

from .errors import (
    InfeasibleSeedError,
    InsufficientMassError,
    InvalidPlayersError,
    UnboundedError,
)
from .measures import (
    ONE,
    ZERO,
    Allocation,
    Interval,
    IntervalSet,
    Scenario,
    StepDensity,
    _require_owners,
    as_rational,
    declared_values,
)


def as_permutation(scenario: Scenario, ordering: Sequence) -> tuple[int, ...]:
    """Normalize an ordering of player indices or names to index form.

    Entries are player names or ``int`` indices; a bool, a float or any
    other type raises ValueError rather than being truncated to an index.
    """
    idx = []
    for entry in ordering:
        if isinstance(entry, str):
            idx.append(scenario.index(entry))
        elif isinstance(entry, int) and not isinstance(entry, bool):
            idx.append(entry)
        else:
            raise ValueError(f"ordering entry {entry!r} is neither a player name nor an index")
    if sorted(idx) != list(range(scenario.n)):
        raise ValueError(f"{ordering!r} is not a permutation of the players")
    return tuple(idx)


def _chain(ordered: Sequence[StepDensity], target: Fraction) -> Optional[list[Fraction]]:
    """Leftmost cuts worth ``target`` to each of ordered[:-1] in turn, or
    None when one of them runs out of mass."""
    position = ZERO
    cuts = []
    for density in ordered[:-1]:
        try:
            position = density.quantile_left(target, position)
        except InsufficientMassError:
            return None
        cuts.append(position)
    return cuts


def greedy_cuts(
    scenario: Scenario, ordering: Sequence, target: Fraction
) -> Optional[tuple[Fraction, ...]]:
    """Chain leftmost quantiles so each of the first n-1 pieces is worth
    exactly ``target`` to its assigned player.

    Returns None when some chained quantile runs out of mass. The last
    piece (the remainder) is not checked here.
    """
    idx = as_permutation(scenario, ordering)
    cuts = _chain([scenario.players[i][1] for i in idx], as_rational(target))
    return None if cuts is None else tuple(cuts)


def _integer_rows(density: StepDensity) -> tuple[list[int], ...]:
    """The numerators and denominators, as plain integer lists, of a
    density's k + 1 piece bounds (the pieces tile [0, 1]), its k piece
    densities and its k + 1 cumulative masses."""
    pieces = density.pieces
    bounds = [piece.lo.as_integer_ratio() for piece in pieces]
    bounds.append(pieces[-1].hi.as_integer_ratio())
    rates = [piece.density.as_integer_ratio() for piece in pieces]
    cum = [c.as_integer_ratio() for c in density._cum]
    return (
        [n for n, _ in bounds], [d for _, d in bounds],
        [n for n, _ in rates], [d for _, d in rates],
        [n for n, _ in cum], [d for _, d in cum],
    )


def _settle_chain(
    rows: Sequence[tuple[list[int], ...]], tn: int, td: int
) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """``_chain`` at the target t = tn/td (td > 0) and the sign of L(t) - t,
    on the ``_integer_rows`` of the ordered densities.

    Each of the first n - 1 players takes the leftmost cut worth t after
    the previous cut x, by the steps of ``quantile_left``: the piece j with
    the last lo <= x, the level cum_j + density_j·(x - lo_j) + t, a refusal
    when the level exceeds the total, and the cut lo_k + (level - cum_k) /
    density_k on the last piece k with cum_k < level (a target of 0 leaves
    the cut at x). Returns None on a refusal, else the sign of the last
    piece's value 1 - F(x) minus t and the cuts as reduced (numerator,
    denominator) pairs.
    """
    xn, xd = 0, 1
    cuts = []
    last = len(rows) - 1
    for i, (bn, bd, rn, rd, cn, cd) in enumerate(rows):
        # j: the last piece whose lower bound is at or left of x.
        j, top = 0, len(rn) - 1
        while j < top:
            mid = (j + top + 1) // 2
            if bn[mid] * xd <= xn * bd[mid]:
                j = mid
            else:
                top = mid - 1
        # base: the mass left of x, cum_j + density_j·(x - lo_j).
        hn, hd = rn[j], rd[j]
        if hn:
            ln, ld = bn[j], bd[j]
            scale = hd * ld * xd
            basen = cn[j] * scale + hn * (xn * ld - ln * xd) * cd[j]
            based = cd[j] * scale
        else:
            basen, based = cn[j], cd[j]
        if i == last:
            value = (based - basen) * td - tn * based
            return (value > 0) - (value < 0), cuts
        if tn:
            lvn = basen * td + tn * based
            lvd = based * td
            g = gcd(lvn, lvd)
            lvn, lvd = lvn // g, lvd // g
            if lvn * cd[-1] > cn[-1] * lvd:
                return None
            # k: the last piece whose cumulative mass lies below the level;
            # cum_j <= base < level, and the total is at least the level.
            k, top = j, len(rn) - 1
            while k < top:
                mid = (k + top + 1) // 2
                if cn[mid] * lvd < lvn * cd[mid]:
                    k = mid
                else:
                    top = mid - 1
            pn, pd, scale = rn[k], rd[k], lvd * cd[k]
            xn = bn[k] * scale * pn + (lvn * cd[k] - cn[k] * lvd) * pd * bd[k]
            xd = bd[k] * scale * pn
            g = gcd(xn, xd)
            xn, xd = xn // g, xd // g
        cuts.append((xn, xd))


@dataclass(frozen=True)
class EqualValueSolution:
    cuts: tuple[Fraction, ...]
    common_value: Fraction


def equal_value_solve(
    scenario: Scenario,
    ordering: Sequence,
    *,
    start: Fraction = ZERO,
    _rows: Optional[Sequence[tuple[list[int], ...]]] = None,
) -> Optional[EqualValueSolution]:
    """Find a target t > ``start`` whose greedy cuts give the last piece
    value t too.

    With greedy leftmost cuts the last-piece value L(t) is non-increasing,
    left-continuous, and piecewise affine, while the target itself grows, so
    L(t) = t has at most one solution. The walk visits the affine segments
    of L in order. Every cut, and every point a cut is anchored at, only
    moves right as t grows, so each cut keeps two piece cursors that only
    step forward: the piece of its own density holding its right-hand limit,
    and the piece of its own density holding the previous cut. At a segment
    start one pass over the cuts reads the right-hand limits and slopes off
    the cursors and the cumulative-mass index, solves the affine equation on
    the segment, and otherwise advances to the first target at which some
    cut leaves its own piece or the next density's piece holding it. L can
    jump downward when a cut clears a zero-density span; if the jump steps
    over the diagonal the system has no greedy solution and None is
    returned.

    The walk begins at t = ``start``, in [0, 1], and returns the solution
    exactly when its common value lies strictly above ``start``; otherwise
    None. The pruned procedure search starts at the best value t* so far,
    after a chain showed L(t*) > t*: the root, if any, lies above t*, and
    no segment below t* is walked. The cursors still start at index 0 and
    reach their pieces in the same forward loops.

    The segment loop does no ``Fraction`` arithmetic. It runs on the
    ``_integer_rows`` of the ordered densities, read at the start of the
    walk or handed over in ``_rows`` by a caller that read them once for
    many walks, keeps every rational as a (numerator, denominator) pair
    reduced by one gcd, and compares by cross-multiplying. Only a root that
    lies inside its segment is built as a ``Fraction``, and the greedy
    chain at that root must give the last piece exactly the root's value.
    That check is the walk's independent one: ``_chain`` and ``cdf`` run
    on the density queries of ``measures``, whose integer kernel reads
    each density's own ``Fraction``s and shares no code with the segment
    loop.

    A right-hand limit L(start+) <= start leaves no root above ``start``
    and returns None at once. Otherwise L starts above the diagonal, and a
    segment that holds no root ends with L still above it, so the walk
    chains quantiles only once, to check the root. Each segment end moves
    some cursor forward, and a cursor over a density of k pieces moves at
    most k - 1 times, so the walk ends within 2·Σk + 2 segments for Σk
    pieces in all; its last AssertionError marks a broken invariant, not a
    long input.
    """
    idx = as_permutation(scenario, ordering)
    if len(idx) < 2:
        raise InvalidPlayersError("equal-value systems need at least two players")
    start = as_rational(start)
    if not (ZERO <= start <= ONE):
        raise ValueError(f"equal-value walk start {start} outside [0, 1]")
    ordered = [scenario.players[i][1] for i in idx]
    rows = [_integer_rows(density) for density in ordered] if _rows is None else _rows
    last = len(ordered) - 1
    own = [0] * last
    anchor = [0] * len(ordered)
    # Each rational below is a pair of integers, numerator then
    # denominator, with the denominator positive: t is (tn, td).
    tn, td = start.numerator, start.denominator
    # Every segment but the last ends where some cursor steps forward, and
    # a cursor takes fewer steps than its density has pieces.
    for _ in range(2 * sum(len(d.pieces) for d in ordered) + 2):
        xn, xd = 0, 1
        sn, sd = 0, 1
        for i, (bn, bd, rn, rd, cn, cd) in enumerate(rows):
            # x = xn/xd is cut i - 1 (0 for the first player) and sn/sd its
            # slope in t. Piece j of density i starts at bound bn[j]/bd[j],
            # with cumulative mass cn[j]/cd[j], and has density rn[j]/rd[j];
            # hn/hd is the density of the piece that holds x.
            j = anchor[i]
            top = len(rn) - 1
            while j < top and bn[j + 1] * xd <= xn * bd[j + 1]:
                j += 1
            anchor[i] = j
            hn, hd = rn[j], rd[j]
            if i:
                # Cut i - 1 stays affine until it leaves its own piece,
                # which ends at (en, ed), or the piece of density i that
                # holds it; dt is the target step to the nearer end.
                mn, md = bn[j + 1], bd[j + 1]
                if en * md < mn * ed:
                    mn, md = en, ed
                dtn = (mn * xd - xn * md) * sd
                dtd = md * xd * sn
                if i == 1 or dtn * std < stn * dtd:
                    stn, std = dtn, dtd
            # base: the mass of density i left of x.
            if hn:
                ln, ld = bn[j], bd[j]
                scale = hd * ld * xd
                basen = cn[j] * scale + hn * (xn * ld - ln * xd) * cd[j]
                based = cd[j] * scale
                g = gcd(basen, based)
                basen, based = basen // g, based // g
            else:
                basen, based = cn[j], cd[j]
            if i == last:
                break
            # level: the mass of density i left of its own cut, base + t.
            lvn = basen * td + tn * based
            lvd = based * td
            g = gcd(lvn, lvd)
            lvn, lvd = lvn // g, lvd // g
            if lvn * cd[-1] >= cn[-1] * lvd:
                return None
            k = own[i]
            while cn[k + 1] * lvd <= lvn * cd[k + 1]:
                k += 1
            own[i] = k
            # The cut lo + (level - cum) / density on piece k, and its
            # slope (1 + held density * slope) / density.
            pn, pd, scale = rn[k], rd[k], lvd * cd[k]
            xn = bn[k] * scale * pn + (lvn * cd[k] - cn[k] * lvd) * pd * bd[k]
            xd = bd[k] * scale * pn
            g = gcd(xn, xd)
            xn, xd = xn // g, xd // g
            sn, sd = (hd * sd + hn * sn) * pd, hd * sd * pn
            g = gcd(sn, sd)
            sn, sd = sn // g, sd // g
            en, ed = bn[k + 1], bd[k + 1]
        g = gcd(stn, std)
        stn, std = stn // g, std // g
        # L(t+) = 1 - base; if it is already at or below t, no root lies
        # above t. L falls along the segment with slope held density *
        # slope, which gives the root of L(t) = t on the segment's line.
        vn = based - basen
        if vn * td <= tn * based:
            return None
        an, ad = hn * sn, hd * sd
        root_n = vn * ad * td + an * tn * based
        root_d = based * td * (ad + an)
        next_n, next_d = tn * std + stn * td, td * std
        if tn * root_d < root_n * td and root_n * next_d <= next_n * root_d:
            root = Fraction(root_n, root_d)
            cuts_root = _chain(ordered, root)
            if cuts_root is not None and ONE - ordered[-1].cdf(cuts_root[-1]) == root:
                return EqualValueSolution(tuple(cuts_root), root)
            raise AssertionError("equal-value walk lost its root")
        g = gcd(next_n, next_d)
        tn, td = next_n // g, next_d // g
    raise AssertionError("equal-value walk failed to terminate")


# ---------------------------------------------------------------------------
# Exact linear programming
# ---------------------------------------------------------------------------

# Each constraint sense: its comparison, and the sense it takes when both
# sides are negated.
SENSES = {"<=": (le, ">="), ">=": (ge, "<="), "==": (eq, "==")}


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple[Fraction, ...]
    sense: str
    rhs: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(as_rational(a) for a in self.coeffs))
        object.__setattr__(self, "rhs", as_rational(self.rhs))
        if self.sense not in SENSES:
            raise ValueError(f"unknown constraint sense {self.sense!r}")


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to the constraints and x >= 0."""

    n_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(as_rational(c) for c in self.objective))
        if len(self.objective) != self.n_vars:
            raise ValueError("objective length does not match variable count")
        for c in self.constraints:
            if len(c.coeffs) != self.n_vars:
                raise ValueError("constraint width does not match variable count")


@dataclass(frozen=True)
class SimplexResult:
    value: Fraction
    point: tuple[Fraction, ...]


def check_point(lp: LinearProgram, point: Sequence[Fraction]) -> Optional[str]:
    """Describe the first constraint the point violates, or None."""
    if len(point) != lp.n_vars:
        return f"point has {len(point)} coordinates, expected {lp.n_vars}"
    for j, v in enumerate(point):
        if v < 0:
            return f"x[{j}] = {v} violates nonnegativity"
    for k, c in enumerate(lp.constraints):
        lhs = sum((a * v for a, v in zip(c.coeffs, point) if a and v), ZERO)
        if not SENSES[c.sense][0](lhs, c.rhs):
            return f"constraint {k}: {lhs} !{c.sense} {c.rhs}"
    return None


def simplex_max(lp: LinearProgram, seed: Sequence) -> SimplexResult:
    """Exact two-phase simplex with Bland's rule on both pivot choices.

    The seed is only used to certify feasibility up front; the optimum is
    found from scratch. Bland's rule rules out cycling, so termination is
    unconditional. The tableau is fraction-free: each row is a list of int
    numerators over one positive row denominator, divided by their gcd
    after every update. Every entry is the exact rational a ``Fraction``
    tableau would hold, so every pivot choice is the same; only the final
    basic values become fractions.
    """
    point = tuple(as_rational(v) for v in seed)
    violation = check_point(lp, point)
    if violation is not None:
        raise InfeasibleSeedError(violation)

    senses = [SENSES[c.sense][1] if c.rhs < 0 else c.sense for c in lp.constraints]

    n = lp.n_vars
    next_col = n
    slack_col: dict[int, int] = {}
    art_col: dict[int, int] = {}
    for i, sense in enumerate(senses):
        if sense != "==":
            slack_col[i] = next_col
            next_col += 1
    first_art = next_col
    for i, sense in enumerate(senses):
        if sense != "<=":
            art_col[i] = next_col
            next_col += 1
    width = next_col

    rows: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    for i, c in enumerate(lp.constraints):
        terms = [(j, a) for j, a in enumerate(c.coeffs) if a]
        den = lcm(c.rhs.denominator, *[a.denominator for _, a in terms])
        sign = -1 if c.rhs < 0 else 1
        row = [0] * (width + 1)
        for j, a in terms:
            row[j] = sign * a.numerator * (den // a.denominator)
        if i in slack_col:
            row[slack_col[i]] = den if senses[i] == "<=" else -den
        if i in art_col:
            row[art_col[i]] = den
        row[width] = sign * c.rhs.numerator * (den // c.rhs.denominator)
        rows.append(row)
        dens.append(den)
        basis.append(art_col[i] if i in art_col else slack_col[i])

    if art_col:
        den = lcm(*[dens[i] for i in art_col])
        obj = [0] * (width + 1)
        for i in art_col:
            scale = den // dens[i]
            obj = [x + scale * y for x, y in zip(obj, rows[i])]
        for col in art_col.values():
            obj[col] -= den
        _optimize(rows, dens, basis, [obj, den])
        for i, b in enumerate(basis):
            if b >= first_art and rows[i][width] != 0:
                raise InfeasibleSeedError(
                    "constraints proved infeasible despite the seed; seed check is broken"
                )
        for i in reversed(range(len(basis))):
            if basis[i] < first_art:
                continue
            pivot_col = next((j for j in range(first_art) if rows[i][j] != 0), None)
            if pivot_col is None:
                del rows[i], dens[i], basis[i]
            else:
                _pivot(rows, dens, basis, None, i, pivot_col)
        # No artificial column is basic now, and none may enter again.
        for row in rows:
            del row[first_art:width]
        width = first_art

    den = lcm(*[cj.denominator for cj in lp.objective])
    obj = [0] * (width + 1)
    for j, cj in enumerate(lp.objective):
        obj[j] = cj.numerator * (den // cj.denominator)
    objective = [obj, den]
    for i, b in enumerate(basis):
        if objective[0][b] != 0:
            objective[:] = _eliminate(objective[0], objective[1], rows[i], b)
    _optimize(rows, dens, basis, objective)

    solution = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            solution[b] = Fraction(rows[i][width], dens[i])
    value = sum((cj * xj for cj, xj in zip(lp.objective, solution)), ZERO)
    return SimplexResult(value=value, point=tuple(solution))


def _optimize(rows, dens, basis, objective):
    """Pivot by Bland's rule until no objective entry is positive.

    ``objective`` is a mutable [numerators, denominator] pair. A row's
    ratio rhs/a is a quotient of its own numerators, so two ratios compare
    by cross-multiplying.
    """
    width = len(objective[0]) - 1
    while True:
        obj = objective[0]
        enter = next((j for j in range(width) if obj[j] > 0), None)
        if enter is None:
            return
        leave = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave is not None:
                    lhs, rhs = row[width] * best_a, best_rhs * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, best_rhs, best_a = i, row[width], a
        if leave is None:
            raise UnboundedError("objective is unbounded above")
        _pivot(rows, dens, basis, objective, leave, enter)


def _pivot(rows, dens, basis, objective, leave, enter):
    """Make ``enter`` basic in row ``leave``: that row's value is its
    numerators over its own entry at ``enter`` (negated if that entry is
    negative), and the column is then eliminated from every other row."""
    row = rows[leave]
    if row[enter] < 0:
        row = [-a for a in row]
    g = gcd(*row)
    if g > 1:
        row = [a // g for a in row]
    rows[leave] = row
    dens[leave] = row[enter]
    for i, other in enumerate(rows):
        if i != leave and other[enter] != 0:
            rows[i], dens[i] = _eliminate(other, dens[i], row, enter)
    if objective is not None and objective[0][enter] != 0:
        objective[:] = _eliminate(objective[0], objective[1], row, enter)
    basis[leave] = enter


def _eliminate(row, den, pivot_row, col):
    """Subtract the multiple of a basic row that zeroes ``row[col]``.

    ``row`` holds numerators over ``den``. ``pivot_row`` is basic in
    ``col``, so its entry there equals its own (positive) denominator p,
    and row - (f/den)·pivot_row/p = (row·p - f·pivot_row) / (den·p).
    Returns the new numerators and denominator, reduced by their gcd.
    """
    p, f = pivot_row[col], row[col]
    new = [a * p - f * b for a, b in zip(row, pivot_row)]
    den *= p
    g = gcd(den, *new)
    if g > 1:
        new = [a // g for a in new]
        den //= g
    return new, den


# ---------------------------------------------------------------------------
# Pareto domination via cell decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellDecomposition:
    """Refinement of [0, 1] on which every player's density is constant."""

    cells: tuple[Interval, ...]
    densities: tuple[tuple[Fraction, ...], ...]


def decompose(
    scenario: Scenario, allocation: Optional[Allocation] = None
) -> CellDecomposition:
    """Cut [0, 1] at every declared density breakpoint and portion endpoint.

    Each density is then constant on each cell, and each portion is a union
    of whole cells. Cutting finer cannot change a Pareto verdict, since
    only the per-cell fractions matter, so a density that declares
    redundant breakpoints only adds cells. A density's column is read with
    one forward cursor over its pieces, which tile [0, 1].
    """
    points = {ZERO, ONE}
    for _, density in scenario.players:
        for piece in density.pieces:
            points.add(piece.lo)
    if allocation is not None:
        # The spans tile [0, 1], so their left ends and 1 are every endpoint.
        points.update([lo for lo, _, _ in allocation._layout])
    bounds = sorted(points)
    # Tuples built from lists, not generators: tuple(generator) allocates
    # ten slots and shrinks, and CPython parks each shrunk tuple on its
    # size's free list when it dies, so resident memory would grow with
    # every call until those free lists fill.
    cells = tuple([Interval(a, b) for a, b in zip(bounds, bounds[1:])])
    densities = []
    for _, density in scenario.players:
        pieces = density.pieces
        column = []
        j = 0
        for lo in bounds[:-1]:
            while pieces[j].hi <= lo:
                j += 1
            column.append(pieces[j].density)
        densities.append(tuple(column))
    return CellDecomposition(cells, tuple(densities))


def _cells_and_owners(
    scenario: Scenario, allocation: Allocation
) -> tuple[CellDecomposition, tuple[int, ...]]:
    """The allocation's cell decomposition and the player index owning
    each cell.

    Every portion is a union of whole cells, so one merge of the cells
    with the allocation's spans, both sorted by left end, finds each owner.
    """
    _require_owners(scenario, allocation)
    dec = decompose(scenario, allocation)
    index = {name: i for i, (name, _) in enumerate(scenario.players)}
    spans = allocation._layout
    owners = []
    k = 0
    for cell in dec.cells:
        while spans[k][1] <= cell.lo:
            k += 1
        owners.append(index[spans[k][2]])
    return dec, tuple(owners)


def _rate_weights(
    dec: CellDecomposition, owners: Sequence[int]
) -> Optional[tuple[Fraction, ...]]:
    """Weights a > 0 under which each cell's owner values it most, or None
    when no such weights exist, that is, when the allocation is dominated.

    Player i can pass cake to player j at the trade rate r_ij, the least
    d_ic / d_jc over the cells c that i owns and j values. The weights
    must satisfy a_j <= a_i·r_ij on every rate, so they exist iff no rate
    is 0 (an owner holding a cell it does not value that another player
    does) and no cycle of rates has a product below 1. A min-product
    Floyd–Warshall closure D decides that exactly, stopping at the first
    D_ii < 1, and a_j = min(1, min_i D_ij) satisfies every rate.
    """
    n = len(dec.densities)
    closure: list[list[Optional[Fraction]]] = [[None] * n for _ in range(n)]
    for c, owner in enumerate(owners):
        own = dec.densities[owner][c]
        row = closure[owner]
        for j in range(n):
            other = dec.densities[j][c]
            if j != owner and other:
                if not own:
                    return None
                rate = own / other
                if row[j] is None or rate < row[j]:
                    row[j] = rate
    for k in range(n):
        through = closure[k]
        for row in closure:
            first = row[k]
            if first is None:
                continue
            for j, second in enumerate(through):
                if second is not None:
                    product = first * second
                    if row[j] is None or product < row[j]:
                        row[j] = product
        if any(closure[i][i] is not None and closure[i][i] < ONE for i in range(n)):
            return None
    return tuple(
        [
            min([ONE, *(row[j] for row in closure if row[j] is not None)])
            for j in range(n)
        ]
    )


@dataclass(frozen=True)
class DominationWitness:
    """An explicit allocation that weakly improves on a given one.

    Every gain is nonnegative and at least one is strictly positive; the
    constructor enforces that, so a witness verifies itself.
    """

    allocation: Allocation
    value_vector: dict
    gains: dict

    def __post_init__(self):
        gains = dict(self.gains)
        if any(g < 0 for g in gains.values()) or not any(g > 0 for g in gains.values()):
            raise ValueError(f"not a domination witness: gains {gains}")


def _improvement_lp(scenario: Scenario, dec: CellDecomposition, owners: Sequence[int]):
    """The LP, seed and current values of ``build_improvement_lp`` for a
    decomposition and its owner table."""
    n = scenario.n
    m = len(dec.cells)
    weight = [
        [dec.densities[i][c] * dec.cells[c].length for c in range(m)]
        for i in range(n)
    ]
    base = [ZERO] * n
    for c, owner in enumerate(owners):
        base[owner] += weight[owner][c]
    base = tuple(base)

    # Variable i * m + c is player i's share of cell c.
    n_vars = n * m
    constraints = []
    for c in range(m):
        coeffs = [ZERO] * n_vars
        coeffs[c::m] = [ONE] * n
        constraints.append(LinearConstraint(tuple(coeffs), "==", ONE))
    for i in range(n):
        coeffs = [ZERO] * n_vars
        coeffs[i * m : (i + 1) * m] = weight[i]
        constraints.append(LinearConstraint(tuple(coeffs), ">=", base[i]))
    objective = tuple(w for row in weight for w in row)
    lp = LinearProgram(n_vars, objective, tuple(constraints))

    seed = [ZERO] * n_vars
    for c, owner in enumerate(owners):
        seed[owner * m + c] = ONE
    return lp, tuple(seed), base


def build_improvement_lp(scenario: Scenario, allocation: Allocation):
    """LP whose optimum exceeds the current total value iff the allocation
    is Pareto dominated.

    One variable per (player, cell) pair holds the fraction of the cell
    given to the player; because densities are constant on cells, those
    fractions range over all measurable allocations. Constraints keep every
    player at least at the current value, and the objective is the total
    value, so optimum minus the current total is the achievable sum of
    gains. The cells are those of ``decompose``, so one (scenario,
    allocation) pair has one LP, and the seed gives each cell to its owner.
    Returns (lp, seed point, decomposition, current values).
    """
    dec, owners = _cells_and_owners(scenario, allocation)
    lp, seed, base = _improvement_lp(scenario, dec, owners)
    return lp, seed, dec, base


def pareto_weights(
    scenario: Scenario, allocation: Allocation
) -> Optional[tuple[Fraction, ...]]:
    """The certificate that an allocation is Pareto optimal, or None if it
    is dominated.

    Returns one λ_i >= 0 per player, in scenario order and with least entry
    0, such that each cell's owner maximizes (1 + λ_i)·d_ic on it. With
    y_c = max_i (1 + λ_i)·w_ic for the cell weights w_ic = d_ic·|c|,
    (y, λ) is feasible for the dual of ``build_improvement_lp``, and its
    value Σ_c y_c − Σ_i λ_i·base_i equals the current total Σ_i base_i,
    which bounds every allocation's total from above.
    """
    weights = _rate_weights(*_cells_and_owners(scenario, allocation))
    if weights is None:
        return None
    least = min(weights)
    return tuple([a / least - ONE for a in weights])


def pareto_improve(
    scenario: Scenario, allocation: Allocation
) -> Optional[DominationWitness]:
    """Return a dominating allocation, or None if this one is Pareto optimal.

    Optimality here is against all measurable allocations, not just
    contiguous ones: with step densities only the per-cell fractions
    matter. The verdict comes from the trade-rate closure on the cells'
    owners (see ``pareto_weights``), with no LP. Only a dominated
    allocation solves ``build_improvement_lp``, from the same cells and
    owners, and its Bland-rule optimum is the witness.
    """
    dec, owners = _cells_and_owners(scenario, allocation)
    if _rate_weights(dec, owners) is not None:
        return None
    lp, seed, base = _improvement_lp(scenario, dec, owners)
    result = simplex_max(lp, seed)

    m = len(dec.cells)
    pieces: dict[str, list[Interval]] = {name: [] for name, _ in scenario.players}
    for c, cell in enumerate(dec.cells):
        position = cell.lo
        for i, (name, _) in enumerate(scenario.players):
            share = result.point[i * m + c]
            if share > 0:
                end = position + share * cell.length
                pieces[name].append(Interval(position, end))
                position = end
    witness_alloc = Allocation(
        tuple((name, IntervalSet(tuple(ivs))) for name, ivs in pieces.items())
    )
    values = declared_values(scenario, witness_alloc)
    gains = {
        name: values[name] - base[i] for i, (name, _) in enumerate(scenario.players)
    }
    return DominationWitness(witness_alloc, values, gains)


def utilitarian_bound(scenario: Scenario) -> Fraction:
    """Upper bound on total value: integrate the pointwise maximum density."""
    dec = decompose(scenario)
    total = ZERO
    for c, cell in enumerate(dec.cells):
        total += max(dec.densities[i][c] for i in range(scenario.n)) * cell.length
    return total

"""Exact solvers behind the procedures and the optimality checks.

Three engines live here: a parametric solver for the equal-value cut
systems; a trade-rate closure on cell decompositions that decides Pareto
optimality and certifies it with weights; and a two-phase exact revised
simplex with Bland's rule, which builds the dominating allocation once
the closure has found one to exist. The simplex keeps the constraint
matrix as sparse integer columns and each tableau row as its integer
multipliers of the constraint rows over one denominator, so a pivot
updates r + 1 integers in each row it touches, for r constraints, not one
per tableau column.

The Pareto path builds its cells once, as one integer table
(``decompose``): the cell bounds over one common denominator, each
player's weight on each cell as an integer pair, and each cell's owner.
The closure compares cross-multiplied rates from it, the improvement LP's
sparse integer rows go from it straight into the simplex core, with the
allocation's own basis as a start that skips Phase 1 when it proves the
optimum unique, and the witness is laid out from the core's integer basic
values. ``simplex_max``
is the core's front end for a public ``LinearProgram``: it scales the
``Fraction`` rows to the same integers and also reports the LP's dual.

The equal-value solver walks the target value t upward over the affine
segments of the greedy leftmost cuts. Cuts only move right as t grows, so
each cut carries forward-only cursors into the pieces and cumulative-mass
index of the densities, and a segment costs one pass over the cuts with no
bisection. Every segment end advances some cursor, so an ordering takes at
most about twice the total piece count of its densities in segments. Like
the simplex tableau, the segment loop is fraction-free: it runs on integer
numerator/denominator pairs, read from each density's cached integer index
(``StepDensity._rows``), and only the root is built as a ``Fraction``.
The greedy chain, ``_chain``, is written once, on the integer cut kernel
of ``measures``: ``greedy_cuts``, the walk's root check and the procedure
search, which settles most orderings by the sign of L(t*) - t* at its best
value t* so far, all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import eq, ge, le
from typing import Optional, Sequence

from .errors import (
    InfeasibleSeedError,
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


def _chain(
    ordered: Sequence[StepDensity], tn: int, td: int
) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """The greedy chain at the target t = tn/td >= 0 (td > 0): each of the
    first n - 1 densities takes the leftmost cut worth t after the previous
    cut, by ``StepDensity._cut``. Returns None when one of them runs out of
    mass, else the sign of L(t) - t, where L(t) is the last density's mass
    right of the last cut, and the cuts as reduced (numerator, denominator)
    pairs."""
    xn, xd = 0, 1
    cuts = []
    for density in ordered[:-1]:
        cut = density._cut(tn, td, xn, xd, True)
        if cut is None:
            return None
        xn, xd = cut
        cuts.append(cut)
    _, basen, based = ordered[-1]._mass_left(xn, xd)
    value = (based - basen) * td - tn * based
    return (value > 0) - (value < 0), cuts


def greedy_cuts(
    scenario: Scenario, ordering: Sequence, target: Fraction
) -> Optional[tuple[Fraction, ...]]:
    """Chain leftmost quantiles so each of the first n-1 pieces is worth
    exactly ``target`` to its assigned player.

    Returns None when some chained quantile runs out of mass; a negative
    target raises ValueError, as ``quantile`` does. The last piece (the
    remainder) is not checked here.
    """
    idx = as_permutation(scenario, ordering)
    target = as_rational(target)
    tn, td = target.as_integer_ratio()
    if tn < 0:
        raise ValueError(f"quantile target {target} is negative")
    chained = _chain([scenario.players[i][1] for i in idx], tn, td)
    return None if chained is None else tuple([Fraction(n, d) for n, d in chained[1]])


@dataclass(frozen=True)
class EqualValueSolution:
    cuts: tuple[Fraction, ...]
    common_value: Fraction


def equal_value_solve(
    scenario: Scenario,
    ordering: Sequence,
    *,
    start: Fraction = ZERO,
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
    cached integer index (``StepDensity._rows``) of each ordered density,
    keeps every rational as a (numerator, denominator) pair reduced by one
    gcd, and compares by cross-multiplying. Only a root that lies inside
    its segment is built as a ``Fraction``, and the greedy chain at that
    root must give the last piece exactly the root's value. That check is
    the walk's independent one: ``_chain`` runs on the binary-search cut
    and cdf kernel of ``measures``, which reads the same index but shares
    no code with the segment loop's forward cursors.

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
    rows = [density._rows for density in ordered]
    last = len(ordered) - 1
    own = [0] * last
    anchor = [0] * len(ordered)
    # Each rational below is a pair of integers, numerator then
    # denominator, with the denominator positive: t is (tn, td).
    tn, td = start.numerator, start.denominator
    # Every segment but the last ends where some cursor steps forward, and
    # a cursor takes fewer steps than its density has pieces.
    for _ in range(2 * sum(len(index[2]) for index in rows) + 2):
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
            chained = _chain(ordered, root.numerator, root.denominator)
            if chained is not None and chained[0] == 0:
                cuts = tuple([Fraction(n, d) for n, d in chained[1]])
                return EqualValueSolution(cuts, root)
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
        if isinstance(self.n_vars, bool) or not isinstance(self.n_vars, int):
            raise ValueError(f"variable count {self.n_vars!r} is not an int")
        object.__setattr__(self, "objective", tuple(as_rational(c) for c in self.objective))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if len(self.objective) != self.n_vars:
            raise ValueError("objective length does not match variable count")
        for c in self.constraints:
            if not isinstance(c, LinearConstraint):
                raise ValueError(f"{c!r} is not a LinearConstraint")
            if len(c.coeffs) != self.n_vars:
                raise ValueError("constraint width does not match variable count")


@dataclass(frozen=True)
class SimplexResult:
    """The optimum, a vertex reaching it, and, from ``simplex_max``, one
    dual value per constraint; equality ignores the dual."""

    value: Fraction
    point: tuple[Fraction, ...]
    dual: Optional[tuple[Fraction, ...]] = field(default=None, compare=False)


def check_point(lp: LinearProgram, point: Sequence[Fraction]) -> Optional[str]:
    """Describe the first constraint the point violates, or None.

    Each coordinate is read with ``as_rational``, as ``simplex_max`` reads
    its seed: a ``"p/q"`` string counts, and a bool or a float raises
    ParseError.
    """
    point = [as_rational(v) for v in point]
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
    """Exact two-phase revised simplex with Bland's rule on both pivot
    choices.

    The seed is only used to certify feasibility up front
    (``check_point``); the optimum is found from scratch. Bland's rule
    rules out cycling, so termination is unconditional.

    This is the front end of ``_simplex_core``: each constraint is scaled
    to integers once, by the least common denominator of its right-hand
    side and nonzero coefficients, negated if its right-hand side is
    negative, and kept as its nonzero (column, coefficient) terms, sense,
    right-hand side and scale. ``pareto_improve`` builds the same rows
    from its cell table and calls the core itself.

    ``dual`` holds one value per constraint, read off the core's final
    objective row alpha·cost + mu·M, which is zero on the basic columns and
    at most zero on the others: for row k, scaled by den_k and multiplied
    by the sign s_k, and the objective scaled by den_c, y_k =
    −mu_k·s_k·den_k / (alpha·den_c). So y_k >= 0 on a <= row and <= 0 on a
    >= row, every objective entry is at most its column of Σ_k y_k·row_k,
    and Σ_k y_k·rhs_k is the optimum. Multipliers spread only through pivot
    rows. A row that Phase 1 deletes as redundant still has its artificial
    basic, so unless an artificial left the basis and came back it was
    never a pivot row, and its dual value is 0.
    """
    violation = check_point(lp, seed)
    if violation is not None:
        raise InfeasibleSeedError(violation)
    n = lp.n_vars
    rows, signs = [], []
    for c in lp.constraints:
        terms = [(j, a) for j, a in enumerate(c.coeffs) if a]
        den = lcm(c.rhs.denominator, *[a.denominator for _, a in terms])
        sign = -1 if c.rhs < 0 else 1
        terms = [(j, sign * a.numerator * (den // a.denominator)) for j, a in terms]
        rhs = sign * c.rhs.numerator * (den // c.rhs.denominator)
        sense = SENSES[c.sense][1] if sign < 0 else c.sense
        rows.append((terms, sense, rhs, den))
        signs.append(sign)
    den = lcm(*[cj.denominator for cj in lp.objective])
    cost = [cj.numerator * (den // cj.denominator) for cj in lp.objective]
    basic, mu, alpha = _simplex_core(n, rows, cost)

    solution = [ZERO] * n
    for b, num, d in basic:
        solution[b] = Fraction(num, d)
    value = sum((cj * xj for cj, xj in zip(lp.objective, solution)), ZERO)
    dual = [Fraction(-m * s * row[3], alpha * den) for m, s, row in zip(mu, signs, rows)]
    return SimplexResult(value=value, point=tuple(solution), dual=tuple(dual))


def _simplex_core(n: int, constraints: Sequence, cost: list[int], start=None):
    """The two-phase revised simplex on integer rows: Phase 1 from the
    slack and artificial basis when some row is not <=, then Phase 2 on the
    integer objective ``cost`` of the n variables.

    Each constraint is (terms, sense, rhs, den), as ``simplex_max``
    builds it: its nonzero (column, coefficient) terms, its sense, its
    right-hand side, at least 0, and the scale den that made them
    integers, which its slack and artificial columns carry. The matrix M of
    these rows, with their slack and artificial columns, is stored as
    sparse columns of (row, value) pairs. Tableau row i is e_i·M / d_i and
    is never stored: it is kept as its r integer multipliers e_i and its
    right-hand-side numerator over a positive d_i (see ``_eliminate``).
    Every tableau entry is the exact rational a dense ``Fraction`` tableau
    would hold, so every pivot choice is the same. Each phase starts from
    an objective row built in one pass (see ``_optimize``), and every
    pivot, the drive-out's between the phases included, goes through
    ``_pivot``.

    ``start``, when given, is a feasible basis as three lists: the basic
    column of each row, its multipliers and right-hand-side numerator, and
    its denominator (see ``_owner_basis``). Phase 2 then runs from it over
    the variables and slacks alone, and its optimum is returned if every
    nonbasic column prices strictly below zero: that optimal point is
    unique, so the two-phase path, whatever its pivots, would reach the
    same values. Otherwise the warm tableau is dropped and the two-phase
    path runs as it would with no start.

    Returns each basic variable's value as (column, numerator,
    denominator), and the multipliers mu and alpha of the final objective
    row alpha·cost + mu·M (see ``_optimize``).
    """
    r = len(constraints)
    # Columns: the n variables, a slack for each inequality, then, on the
    # two-phase path, an artificial for each row that is not <=.
    columns: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (terms, sense, _, den) in enumerate(constraints):
        for j, a in terms:
            columns[j].append((i, a))
    columns += [
        [(i, den if sense == "<=" else -den)]
        for i, (_, sense, _, den) in enumerate(constraints)
        if sense != "=="
    ]
    first_art = len(columns)
    cost = cost + [0] * (first_art - n)

    if start is not None:
        basis, rows, dens = start
        mu, alpha = _optimize(rows, dens, basis, columns, cost, r)
        in_basis = set(basis)
        if all(
            j in in_basis or alpha * cost[j] + _entry(mu, column) < 0
            for j, column in enumerate(columns)
        ):
            return [(b, row[r], den) for row, den, b in zip(rows, dens, basis) if b < n], mu, alpha

    rows, dens, basis = [], [], []
    arts: list[list[tuple[int, int]]] = []
    slack = n
    for i, (_, sense, rhs, den) in enumerate(constraints):
        row = [0] * (r + 1)
        row[i], row[r] = 1, rhs
        rows.append(row)
        dens.append(den)
        if sense == "<=":
            basis.append(slack)
        else:
            basis.append(first_art + len(arts))
            arts.append([(i, den)])
        slack += sense != "=="
    columns += arts

    if arts:
        _optimize(rows, dens, basis, columns, [0] * first_art + [-1] * len(arts), r)
        for row, b in zip(rows, basis):
            if b >= first_art and row[r] != 0:
                raise InfeasibleSeedError(
                    "constraints proved infeasible despite the seed; seed check is broken"
                )
        for i in reversed(range(len(basis))):
            if basis[i] < first_art:
                continue
            pivot_col = next((j for j in range(first_art) if _entry(rows[i], columns[j])), None)
            if pivot_col is None:
                del rows[i], dens[i], basis[i]
            else:
                column = columns[pivot_col]
                _pivot(rows, dens, basis, i, pivot_col, [_entry(row, column) for row in rows])
        # No artificial column is basic now, and none may enter again.
        del columns[first_art:]

    mu, alpha = _optimize(rows, dens, basis, columns, cost, r)
    basic = [(b, row[r], den) for row, den, b in zip(rows, dens, basis) if b < n]
    return basic, mu, alpha


def _entry(row, column):
    """A row's numerator in a sparse column: its multipliers times the
    column's (row, value) pairs."""
    total = 0
    for k, a in column:
        total += row[k] * a
    return total


def _optimize(rows, dens, basis, columns, cost, r):
    """Pivot by Bland's rule until no column prices positive.

    The objective row is cost - Σ cost[b_i]·row_i over the basic rows, so
    it is zero on every basic column. Only the signs of its entries are
    read, so it is kept up to a positive factor, as alpha·cost + mu·M for
    an integer alpha > 0 and r integer multipliers mu, which are returned.
    It is built in one pass: alpha is the lcm of d_i over the rows whose
    basic column has nonzero cost, and mu = −Σ cost[b_i]·(alpha/d_i)·e_i,
    both then reduced by their gcd. That is the one reduced form of the
    rational row, so eliminating the basic columns one row at a time would
    leave it up to a positive factor.

    Each pass prices the nonbasic columns in index order, read off a flag
    per column that each pivot keeps, and sums each entry inline off the
    column's (row, value) pairs. One loop over the rows then reads the
    entering column's numerator in each and makes Bland's ratio test: a
    row's ratio rhs/a is a quotient of its own numerators, so two ratios
    compare by cross-multiplying, and a tie goes to the row whose basic
    column has the lower index.
    """
    alpha = lcm(*[d for d, b in zip(dens, basis) if cost[b]])
    mu = [0] * r
    for row, d, b in zip(rows, dens, basis):
        if cost[b]:
            c = cost[b] * (alpha // d)
            mu = [m - c * a for m, a in zip(mu, row)]
    g = gcd(alpha, *mu)
    if g > 1:
        mu, alpha = [m // g for m in mu], alpha // g
    basic = [False] * len(columns)
    for b in basis:
        basic[b] = True
    while True:
        for enter, column in enumerate(columns):
            if not basic[enter]:
                f = alpha * cost[enter]
                for k, a in column:
                    f += mu[k] * a
                if f > 0:
                    break
        else:
            return mu, alpha
        col = []
        leave = None
        for i, row in enumerate(rows):
            a = 0
            for k, v in column:
                a += row[k] * v
            col.append(a)
            if a > 0:
                if leave is not None:
                    lhs, rhs = row[r] * best_a, best_rhs * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, best_rhs, best_a = i, row[r], a
        if leave is None:
            raise UnboundedError("objective is unbounded above")
        basic[basis[leave]], basic[enter] = False, True
        nonzeros, p = _pivot(rows, dens, basis, leave, enter, col)
        # mu has no right-hand side, so the pivot row's is left out.
        if nonzeros[-1][0] == r:
            nonzeros = nonzeros[:-1]
        mu, alpha = _eliminate(mu, alpha, nonzeros, p, f)


def _pivot(rows, dens, basis, leave, enter, col):
    """Make ``enter`` basic in row ``leave``, given each row's numerator
    ``col`` in that column: the row is negated if its entry is negative,
    reduced by its gcd, and takes that entry as its denominator. Its
    nonzero entries are listed once, as (index, value) pairs, and the
    column is then eliminated from every other row where it is nonzero.
    Returns that list, whose last pair is the right-hand side when that is
    nonzero, and the new denominator."""
    row, p = rows[leave], col[leave]
    if p < 0:
        row, p = [-a for a in row], -p
    # The entry is a sum of multiples of the multipliers, so g divides it.
    g = gcd(*row)
    if g > 1:
        row, p = [a // g for a in row], p // g
    rows[leave], dens[leave], basis[leave] = row, p, enter
    nonzeros = [(k, b) for k, b in enumerate(row) if b]
    for i, f in enumerate(col):
        if f and i != leave:
            rows[i], dens[i] = _eliminate(rows[i], dens[i], nonzeros, p, f)
    return nonzeros, p


def _eliminate(row, den, nonzeros, p, f):
    """Subtract the multiple of a basic row that zeroes an entry.

    ``row`` holds numerators over ``den``, with numerator f in the pivot
    column. The pivot row is basic there, with entry p over its own
    denominator p, and ``nonzeros`` lists its nonzero entries as (index,
    value) pairs. So row - (f/den)·pivot_row/p = (row·p - f·pivot_row) /
    (den·p): row·p, or a copy of row when p is 1, less f times each listed
    entry. The objective passes its multipliers mu as ``row``, alpha as
    ``den``, and the list without the right-hand side: alpha·cost + mu·M
    updates the same way. Returns the new numerators and denominator,
    reduced by their gcd only once the denominator passes 60 bits (two
    CPython digits): below that, the gcd over the row costs more than the
    digits it saves. Every rational is the same either way, and a pivot
    choice reads only signs and ratios within one row, so the pivots and
    the vertex are too; ``_pivot`` still reduces its pivot row.
    """
    new = row[:] if p == 1 else [a * p for a in row]
    for k, b in nonzeros:
        new[k] -= f * b
    den *= p
    if den >> 60:
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
    """Refinement of [0, 1] on which every player's density is constant,
    held as one integer table.

    Cell c is [bounds[c], bounds[c + 1]] / denominator, one common
    denominator for every bound. ``weights[i]`` holds player i's weight
    on each cell, its density times the cell's length, as two tuples: the
    numerators and the positive denominators of the reduced pairs, 0/1
    where the density vanishes. ``owners`` holds the player index owning
    each cell of the allocation decomposed with the scenario, else None.
    ``cells`` (one ``Interval`` per cell) and ``densities`` (one
    ``Fraction`` per player and cell) are views of the table, built only
    when read; like ``StepDensity._rows``, they are not dataclass fields.
    """

    bounds: tuple[int, ...]
    denominator: int
    weights: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    owners: Optional[tuple[int, ...]] = None

    @cached_property
    def cells(self) -> tuple[Interval, ...]:
        points = [Fraction(b, self.denominator) for b in self.bounds]
        return tuple([Interval(a, b) for a, b in zip(points, points[1:])])

    @cached_property
    def densities(self) -> tuple[tuple[Fraction, ...], ...]:
        widths = [b - a for a, b in zip(self.bounds, self.bounds[1:])]
        den = self.denominator
        return tuple(
            [
                tuple([Fraction(a * den, d * w) for a, d, w in zip(nums, dens, widths)])
                for nums, dens in self.weights
            ]
        )


def decompose(
    scenario: Scenario, allocation: Optional[Allocation] = None
) -> CellDecomposition:
    """Cut [0, 1] at every declared density breakpoint and portion endpoint.

    Each density is then constant on each cell, and each portion is a union
    of whole cells. Cutting finer cannot change a Pareto verdict, since
    only the per-cell fractions matter, so a density that declares
    redundant breakpoints only adds cells.

    The table is built on integers: every bound is read off the densities'
    integer index (``StepDensity._rows``) and the allocation's spans over
    their least common denominator, so the bounds merge as one sort of
    integers. A density's weights are read with one forward cursor over
    its pieces, which tile [0, 1], and each cell's owner with one over the
    allocation's spans, sorted by left end; an allocation must name the
    scenario's players.
    """
    indexes = [density._rows for _, density in scenario.players]
    spans = ()
    if allocation is not None:
        _require_owners(scenario, allocation)
        spans = allocation._layout
    denominators = {lo.denominator for lo, _, _ in spans}
    for index in indexes:
        denominators.update(index[1])
    den = lcm(*denominators)
    scaled = [[b * (den // d) for b, d in zip(index[0], index[1])] for index in indexes]
    points = {0, den}
    for ends in scaled:
        points.update(ends)
    # The spans tile [0, 1], so their left ends and 1 are every endpoint.
    points.update([lo.numerator * (den // lo.denominator) for lo, _, _ in spans])
    bounds = sorted(points)
    widths = [b - a for a, b in zip(bounds, bounds[1:])]
    # Tuples built from lists, not generators: tuple(generator) allocates
    # ten slots and shrinks, and CPython parks each shrunk tuple on its
    # size's free list when it dies, so resident memory would grow with
    # every call until those free lists fill.
    weights = []
    for (_, _, rn, rd, _, _), ends in zip(indexes, scaled):
        nums, dens = [], []
        j = 0
        for lo, width in zip(bounds, widths):
            while ends[j + 1] <= lo:
                j += 1
            if rn[j]:
                a, d = rn[j] * width, rd[j] * den
                g = gcd(a, d)
                nums.append(a // g)
                dens.append(d // g)
            else:
                nums.append(0)
                dens.append(1)
        weights.append((tuple(nums), tuple(dens)))
    owners = None
    if allocation is not None:
        index = {name: i for i, (name, _) in enumerate(scenario.players)}
        his = [hi.numerator * (den // hi.denominator) for _, hi, _ in spans]
        owners = []
        k = 0
        for lo in bounds[:-1]:
            while his[k] <= lo:
                k += 1
            owners.append(index[spans[k][2]])
        owners = tuple(owners)
    return CellDecomposition(tuple(bounds), den, tuple(weights), owners)


def _rate_closure(dec: CellDecomposition) -> Optional[list[list]]:
    """The closure of the trade rates between the owners of a cell table,
    or None when it shows the allocation dominated.

    Player i can pass cake to player j at the trade rate r_ij, the least
    w_ic / w_jc over the cells c that i owns and j values. Weights a > 0
    under which each cell's owner values it most must satisfy a_j <=
    a_i·r_ij on every rate, so they exist iff no rate is 0 (an owner
    holding a cell it does not value that another player does) and no
    cycle of rates has a product below 1. A min-product Floyd–Warshall
    closure D decides that exactly, stopping at the first D_ii < 1; then
    a_j = min(1, min_i D_ij) satisfies every rate. Entry D_ij is None where
    no chain of rates leads from i to j, else an integer pair with a
    positive denominator; rates compare by cross-multiplying, and a
    product is reduced by its gcd when it is kept.
    """
    nums = [w[0] for w in dec.weights]
    dens = [w[1] for w in dec.weights]
    n = len(nums)
    closure: list[list[Optional[tuple[int, int]]]] = [[None] * n for _ in range(n)]
    for c, owner in enumerate(dec.owners):
        own = nums[owner][c]
        row = closure[owner]
        for j in range(n):
            other = nums[j][c]
            if j != owner and other:
                if not own:
                    return None
                rn, rd = own * dens[j][c], dens[owner][c] * other
                best = row[j]
                if best is None or rn * best[1] < best[0] * rd:
                    row[j] = (rn, rd)
    for k in range(n):
        through = closure[k]
        for row in closure:
            first = row[k]
            if first is None:
                continue
            fn, fd = first
            for j, second in enumerate(through):
                if second is not None:
                    pn, pd = fn * second[0], fd * second[1]
                    best = row[j]
                    if best is None or pn * best[1] < best[0] * pd:
                        g = gcd(pn, pd)
                        row[j] = (pn // g, pd // g)
        for i, row in enumerate(closure):
            if row[i] is not None and row[i][0] < row[i][1]:
                return None
    return closure


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


def _add_pair(pair: tuple[int, int], n: int, d: int) -> tuple[int, int]:
    """The reduced pair of pair + n/d, for d > 0."""
    an, ad = pair
    an, ad = an * d + n * ad, ad * d
    g = gcd(an, ad)
    return an // g, ad // g


def _owned_values(dec: CellDecomposition) -> list[tuple[int, int]]:
    """Each player's value of the cells its owner column gives it: the
    weights of those cells summed as a reduced pair, in player order."""
    base = [(0, 1)] * len(dec.weights)
    for c, owner in enumerate(dec.owners):
        nums, dens = dec.weights[owner]
        base[owner] = _add_pair(base[owner], nums[c], dens[c])
    return base


def _improvement_lp(dec: CellDecomposition):
    """The integer rows of ``build_improvement_lp`` for a decomposition with
    owners, exactly as ``simplex_max`` would scale that LP: the rows, the
    integer objective, its scale, and each player's current value as a
    reduced pair.

    Variable i·m + c is player i's share of cell c. The m cell rows come
    first, Σ_i x_ic == 1, and then one row per player, Σ_c w_ic·x_ic >=
    base_i, each over the least common denominator of its right-hand side
    and nonzero weights; the objective is every weight over the least
    common denominator of them all.
    """
    m = len(dec.bounds) - 1
    n = len(dec.weights)
    base = _owned_values(dec)
    rows = [([(i * m + c, 1) for i in range(n)], "==", 1, 1) for c in range(m)]
    for i, (nums, dens) in enumerate(dec.weights):
        bn, bd = base[i]
        den = lcm(bd, *[d for a, d in zip(nums, dens) if a])
        terms = [(i * m + c, a * (den // d)) for c, (a, d) in enumerate(zip(nums, dens)) if a]
        rows.append((terms, ">=", bn * (den // bd), den))
    scale = lcm(*[d for _, dens in dec.weights for d in dens])
    cost = [a * (scale // d) for nums, dens in dec.weights for a, d in zip(nums, dens)]
    return rows, cost, scale, base


def _owner_basis(dec: CellDecomposition, rows: list) -> tuple[list, list, list]:
    """The allocation's own basis of its improvement LP, the integer
    ``rows`` of ``_improvement_lp``, as ``_simplex_core`` takes a start:
    the basic columns, the rows' multipliers and right-hand sides, and
    their denominators.

    Cell row c has its owner's share x_{o(c),c} basic, with multipliers
    e_c over 1, so it reads 1. Player row i has its surplus slack basic,
    with multipliers Σ_c a_ic·e_c − e_{m+i} over den_i, reduced by their
    gcd, where c runs over the cells i owns and a_ic is i's integer weight
    on c in that row. It reads Σ_c a_ic less the row's right-hand side,
    which ``_owned_values`` makes 0. So the basis is the seed point, and
    it is feasible.
    """
    m, n = len(dec.bounds) - 1, len(dec.weights)
    r = m + n
    basis, tableau, dens = [], [], []
    for c, owner in enumerate(dec.owners):
        row = [0] * (r + 1)
        row[c] = row[r] = 1
        basis.append(owner * m + c)
        tableau.append(row)
        dens.append(1)
    for i in range(n):
        terms, _, rhs, den = rows[m + i]
        row = [0] * (r + 1)
        for j, a in terms:
            c = j - i * m
            if dec.owners[c] == i:
                row[c] = a
        row[m + i] = -1
        row[r] = sum(row[:m]) - rhs
        g = gcd(den, *row)
        basis.append(n * m + i)
        tableau.append([a // g for a in row])
        dens.append(den // g)
    return basis, tableau, dens


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
    The LP is a ``Fraction`` view of the integer rows ``pareto_improve``
    solves, and ``simplex_max`` scales it back to those very rows.
    Returns (lp, seed point, decomposition, current values).
    """
    dec = decompose(scenario, allocation)
    rows, cost, scale, base = _improvement_lp(dec)
    n_vars = len(cost)
    constraints = []
    for terms, sense, rhs, den in rows:
        coeffs = [ZERO] * n_vars
        for j, a in terms:
            coeffs[j] = Fraction(a, den)
        constraints.append(LinearConstraint(tuple(coeffs), sense, Fraction(rhs, den)))
    objective = tuple([Fraction(a, scale) for a in cost])
    lp = LinearProgram(n_vars, objective, tuple(constraints))
    m = len(dec.bounds) - 1
    seed = [ZERO] * n_vars
    for c, owner in enumerate(dec.owners):
        seed[owner * m + c] = ONE
    return lp, tuple(seed), dec, tuple([Fraction(*b) for b in base])


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
    closure = _rate_closure(decompose(scenario, allocation))
    if closure is None:
        return None
    weights = [
        min([ONE, *(Fraction(*row[j]) for row in closure if row[j] is not None)])
        for j in range(scenario.n)
    ]
    least = min(weights)
    return tuple([a / least - ONE for a in weights])


def pareto_improve(
    scenario: Scenario, allocation: Allocation
) -> Optional[DominationWitness]:
    """Return a dominating allocation, or None if this one is Pareto optimal.

    Optimality here is against all measurable allocations, not just
    contiguous ones: with step densities only the per-cell fractions
    matter. The verdict comes from the trade-rate closure on the cell
    table's owners (see ``pareto_weights``), with no LP. Only a dominated
    allocation solves ``build_improvement_lp``: its integer rows go from
    the same table straight to ``_simplex_core``, with no ``Fraction``
    row, and its two-phase Bland-rule optimum is the witness. The core
    also gets the allocation's own basis (``_owner_basis``); Phase 2 from
    it stands in for both phases only when every nonbasic column prices
    strictly below zero, where the optimum is unique and so is the
    witness. Each share x_ic of a cell is laid out left to right in player
    order, from the nonzero basic values only, so each piece bound is one
    ``Fraction``, and each player's value is Σ_c x_ic·w_ic, summed on
    integer pairs from the table with no scan of a density.
    """
    return _pareto_scored(scenario, allocation)[0]


def _pareto_scored(
    scenario: Scenario, allocation: Allocation
) -> tuple[Optional[DominationWitness], list[tuple[int, int]]]:
    """``pareto_improve``'s answer and each player's current value, as a
    reduced pair in player order, from one cell table and, for a dominated
    allocation, one ``_simplex_core`` call started at its owners' basis."""
    dec = decompose(scenario, allocation)
    if _rate_closure(dec) is not None:
        return None, _owned_values(dec)
    rows, cost, _, base = _improvement_lp(dec)
    basic, _, _ = _simplex_core(len(cost), rows, cost, _owner_basis(dec, rows))
    shares = {b: (num, den) for b, num, den in basic if num}

    n, m = scenario.n, len(dec.bounds) - 1
    bounds, den = dec.bounds, dec.denominator
    pieces: list[list[Interval]] = [[] for _ in range(n)]
    values = [(0, 1)] * n
    position = ZERO
    for c in range(m):
        lo, width = bounds[c], bounds[c + 1] - bounds[c]
        # sn/sd: the share of the cell laid out so far.
        sn, sd = 0, 1
        for i in range(n):
            share = shares.get(i * m + c)
            if share is None:
                continue
            xn, xd = share
            sn, sd = sn * xd + xn * sd, sd * xd
            end = Fraction(lo * sd + sn * width, den * sd)
            pieces[i].append(Interval(position, end))
            position = end
            nums, dens = dec.weights[i]
            values[i] = _add_pair(values[i], xn * nums[c], xd * dens[c])
    names = scenario.names
    witness_alloc = Allocation(
        tuple([(name, IntervalSet(tuple(ivs))) for name, ivs in zip(names, pieces)])
    )
    value_vector = {name: Fraction(*v) for name, v in zip(names, values)}
    gains = {name: value_vector[name] - Fraction(*b) for name, b in zip(names, base)}
    return DominationWitness(witness_alloc, value_vector, gains), base


def utilitarian_bound(scenario: Scenario) -> Fraction:
    """Upper bound on total value: integrate the pointwise maximum density,
    the sum over the cells of ``decompose`` of the largest weight."""
    dec = decompose(scenario)
    total = ZERO
    for cell in zip(*[zip(nums, dens) for nums, dens in dec.weights]):
        total += max([Fraction(a, d) for a, d in cell])
    return total

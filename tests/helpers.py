"""Shared test utilities: seeded instance generators and independent oracles.

The oracles here deliberately avoid the code paths they check: the density
queries are plain linear scans over the pieces (no cumulative-mass index),
the surplus-cut oracle scans a residual over the merged breakpoints, the
LP oracle enumerates vertices by brute force, the two-player Pareto
oracle sweeps threshold allocations by density ratio, the one-cut
domination oracle reads scan quantiles at both ends of the cuts that keep
both players' values, the Pareto certificate check recomputes the cells
and the dual value by scans, and the equal-value oracle scans a coarse
grid and refines a bracket with exact chords, on top of the scan
queries, and the moving-knife oracle follows every tie branch on scan
queries. ``fraction_walk`` is the equal-value walk written in
``Fraction`` arithmetic, the reference for the engine's integer walk, and
``dense_simplex`` is the simplex on a dense fraction-free tableau, the
reference for the engine's revised simplex.
The best-ordering oracle for the equal-value procedure solves every
ordering and keeps the maximum, with no pruning. The tie-enumeration
reference replays every branch from the start under a ``ScriptRule``, each
as a run of its own, so no branch reads an answer another branch's run
kept and none goes on from another's step state. The partition reference
merges every span and sums the lengths, where ``Allocation`` sweeps its
sorted spans.
"""

from __future__ import annotations

import functools
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, permutations
from math import gcd, lcm

from hypothesis import strategies as st

from fairslice import (
    Allocation,
    InfeasibleSeedError,
    Interval,
    IntervalSet,
    LinearConstraint,
    LinearProgram,
    NoFeasibleOrderingError,
    Scenario,
    StepDensity,
    UnboundedError,
    as_rational,
    contiguous_allocation,
    equal_value_solve,
    run_procedure,
)
from fairslice import solve
from fairslice.solve import (
    SENSES,
    EqualValueSolution,
    SimplexResult,
    as_permutation,
    check_point,
)

ZERO = Fraction(0)
ONE = Fraction(1)

BREAK_POOL = sorted(
    {Fraction(n, d) for d in (2, 3, 4, 5, 6, 8, 10, 12) for n in range(1, d)}
)
QUARTER_POOL = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


def weighted_density(bounds, weights):
    """The density with the given breakpoints whose pieces carry mass in
    proportion to ``weights`` times their widths."""
    total = sum(w * (b - a) for w, a, b in zip(weights, bounds, bounds[1:]))
    return StepDensity.of(
        *((a, b, w / total) for w, a, b in zip(weights, bounds, bounds[1:]))
    )


def random_density(rng, max_pieces=4, pool=BREAK_POOL, allow_zero=True):
    k = rng.randint(1, max_pieces)
    interior = sorted(rng.sample(pool, k - 1)) if k > 1 else []
    bounds = [ZERO, *interior, ONE]
    low = 0 if allow_zero else 1
    while True:
        weights = [Fraction(rng.randint(low, 5)) for _ in range(len(bounds) - 1)]
        if any(weights):
            break
    return weighted_density(bounds, weights)


def random_scenario(rng, n, max_pieces=4, pool=BREAK_POOL, allow_zero=True):
    return Scenario(
        tuple(
            (f"p{i + 1}", random_density(rng, max_pieces, pool, allow_zero))
            for i in range(n)
        )
    )


def fine_grid_scenario(rng, n, k, min_weight=0):
    """n players, each with k equal-width pieces of integer weight
    ``min_weight``-5 (not all zero), normalized; with the default, zero
    weights give zero-density plateaus. ``k`` may also be a sequence giving
    each player's piece count."""
    counts = [k] * n if isinstance(k, int) else list(k)
    players = []
    for i, k in enumerate(counts):
        while True:
            weights = [rng.randint(min_weight, 5) for _ in range(k)]
            if any(weights):
                break
        total = sum(weights)
        density = StepDensity.of(
            *(
                (Fraction(j, k), Fraction(j + 1, k), Fraction(w * k, total))
                for j, w in enumerate(weights)
            )
        )
        players.append((f"p{i + 1}", density))
    return Scenario(tuple(players))


def draw_grid_density(draw, grid, min_weight=0):
    """A density drawn with a Hypothesis ``draw`` on the 1/grid lattice: up
    to six interior breakpoints and integer weights ``min_weight``-3, not
    all zero, so with the default zero-density plateaus occur and cuts land
    on shared breakpoints."""
    interior = draw(st.sets(st.integers(1, grid - 1), max_size=6))
    bounds = [ZERO, *(Fraction(j, grid) for j in sorted(interior)), ONE]
    weights = draw(
        st.lists(
            st.integers(min_weight, 3), min_size=len(bounds) - 1, max_size=len(bounds) - 1
        ).filter(any)
    )
    return weighted_density(bounds, weights)


def draw_long_density(draw):
    """A density drawn with a Hypothesis ``draw`` whose interior breakpoints
    mix the 1/12 grid, where cuts of other players land and zero-density
    plateaus abut, with rationals over 40- to 60-digit denominators, so an
    exact walk reduces big integers. Integer weights 0-3, not all zero."""
    long_point = st.integers(10**39, 10**60).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))
    )
    grid_point = st.integers(1, 11).map(lambda j: Fraction(j, 12))
    interior = draw(st.sets(st.one_of(grid_point, long_point), max_size=5))
    bounds = [ZERO, *sorted(interior), ONE]
    weights = draw(
        st.lists(st.integers(0, 3), min_size=len(bounds) - 1, max_size=len(bounds) - 1).filter(any)
    )
    return weighted_density(bounds, weights)


def random_allocation(rng, scenario, pool=BREAK_POOL):
    """A valid partition: contiguous cuts, sometimes alternating pieces."""
    names = list(scenario.names)
    rng.shuffle(names)
    if rng.random() < 0.5:
        cuts = sorted(rng.sample(pool, scenario.n - 1))
        return contiguous_allocation(names, cuts)
    k = rng.randint(scenario.n - 1, min(len(pool), scenario.n + 2))
    cuts = sorted(rng.sample(pool, k))
    owners = [names[i % len(names)] for i in range(k + 1)]
    pieces: dict[str, list] = {name: [] for name in scenario.names}
    bounds = [ZERO, *cuts, ONE]
    for owner, lo, hi in zip(owners, bounds, bounds[1:]):
        pieces[owner].append((lo, hi))
    return Allocation.of(
        {name: IntervalSet.of(*spans) for name, spans in pieces.items()}
    )


@st.composite
def dealt_portions(draw, owners=st.integers(2, 3)):
    """Interval sets that partition [0, 1]: the spans between up to six
    sorted break-pool points, each dealt to one of two or three owners
    (an owner may get nothing)."""
    k = draw(owners)
    points = sorted(draw(st.lists(st.sampled_from(BREAK_POOL), max_size=6, unique=True)))
    bounds = [ZERO, *points, ONE]
    spans: list[list[Interval]] = [[] for _ in range(k)]
    for lo, hi in zip(bounds, bounds[1:]):
        spans[draw(st.integers(0, k - 1))].append(Interval(lo, hi))
    return [IntervalSet(tuple(s)) for s in spans]


def gaps(portion):
    """What an interval set leaves of [0, 1], by a scan of its merged
    spans."""
    spans, cursor = [], ZERO
    for iv in portion.intervals:
        spans.append(Interval(cursor, iv.lo))
        cursor = iv.hi
    spans.append(Interval(cursor, ONE))
    return IntervalSet(tuple(spans))


def merged_cover_partition(portions):
    """Reference partition rule: the portions partition [0, 1] when the
    merge of all their spans is [0, 1] and their lengths sum to 1 (so no
    two interiors overlap)."""
    covered = IntervalSet(tuple(iv for portion in portions for iv in portion.intervals))
    total = sum((portion.length for portion in portions), ZERO)
    return covered == IntervalSet.of((ZERO, ONE)) and total == ONE


def float_mass(density, region):
    """Floating-point summation oracle for exact mass values."""
    spans = region.intervals if hasattr(region, "intervals") else (region,)
    total = 0.0
    for piece in density.pieces:
        for span in spans:
            overlap = min(float(piece.hi), float(span.hi)) - max(
                float(piece.lo), float(span.lo)
            )
            if overlap > 0:
                total += float(piece.density) * overlap
    return total


# ---------------------------------------------------------------------------
# Density-query oracle: linear scans over the pieces
# ---------------------------------------------------------------------------


def scan_mass(density, lo, hi):
    """Mass of [lo, hi]: density times overlap, summed piece by piece."""
    total = ZERO
    for piece in density.pieces:
        overlap = min(piece.hi, hi) - max(piece.lo, lo)
        if overlap > 0:
            total += piece.density * overlap
    return total


def scan_density_at(density, x):
    """Density of the half-open piece [lo, hi) holding x, else 0."""
    for piece in density.pieces:
        if piece.lo <= x < piece.hi:
            return piece.density
    return ZERO


def _scan_cut(density, start, target, reached):
    """Walk right from ``start`` and return the first point where
    ``reached(mass so far + gain, target)`` holds inside a positive piece,
    with the mass gained up to there; (None, suffix mass) if none does."""
    acc = ZERO
    for piece in density.pieces:
        seg_lo = max(piece.lo, start)
        if seg_lo >= piece.hi or piece.density == 0:
            continue
        gained = piece.density * (piece.hi - seg_lo)
        if reached(acc + gained, target):
            return seg_lo + (target - acc) / piece.density, acc
        acc += gained
    return None, acc


def scan_quantile_left(density, target, start=ZERO):
    """Leftmost x >= start with mass([start, x]) >= target; None when the
    suffix holds less than target."""
    if target == 0:
        return start
    x, _ = _scan_cut(density, start, target, lambda got, want: got >= want)
    return x


def scan_plateau_end(density, target, start=ZERO):
    """sup{x >= start : mass([start, x]) <= target}; None when the suffix
    holds less than target."""
    x, acc = _scan_cut(density, start, target, lambda got, want: got > want)
    if x is None and acc == target:
        return ONE
    return x


def scan_cumulative(density):
    """The mass of [0, lo] for each piece's lo, then the total: plain
    Fraction sums of density times width, piece by piece."""
    cum = [ZERO]
    for piece in density.pieces:
        cum.append(cum[-1] + piece.density * (piece.hi - piece.lo))
    return cum


def scan_greedy_cuts(scenario, ordering, target):
    """Chained leftmost scan quantiles for all players but the last."""
    position = ZERO
    cuts = []
    for i in ordering[:-1]:
        position = scan_quantile_left(scenario.players[i][1], target, position)
        if position is None:
            return None
        cuts.append(position)
    return tuple(cuts)


def scan_moving_knife(scenario):
    """Every branch of the moving knife across tie resolutions, as
    (cuts, ordering, tie events) with each event a (location, tied,
    winner) triple. At each step every remaining player calls at the
    leftmost point past the knife where the slice holds their remaining
    mass over the count of players left, by scan queries; each of the
    earliest callers, listed in scenario order, wins on its own branch."""
    branches = []

    def follow(position, remaining, cuts, ordering, events):
        if len(remaining) == 1:
            branches.append((tuple(cuts), (*ordering, remaining[0][0]), tuple(events)))
            return
        count = len(remaining)
        calls = [
            (scan_quantile_left(density, scan_mass(density, position, ONE) / count, position), name)
            for name, density in remaining
        ]
        earliest = min(point for point, _ in calls)
        tied = tuple(name for point, name in calls if point == earliest)
        for winner in tied:
            follow(
                earliest,
                [player for player in remaining if player[0] != winner],
                [*cuts, earliest],
                [*ordering, winner],
                [*events, (earliest, tied, winner)] if len(tied) > 1 else events,
            )

    follow(ZERO, list(scenario.players), [], [], [])
    return branches


# ---------------------------------------------------------------------------
# Surplus-cut oracle: residual scan over the merged breakpoints
# ---------------------------------------------------------------------------


def scan_surplus_cut(left_density, right_density, a, b, variant):
    """Cut inside the surplus [a, b] of the median-based surplus procedure,
    both surplus masses positive.

    The residual (left gain minus right gain, or the two cross-multiplied by
    the surplus masses for the proportional variant) is evaluated at every
    breakpoint in [a, b]; the first and last zeros are interpolated across
    the cells where it changes sign, and their midpoint is returned. Mass
    queries are piece scans. Raises AssertionError if no crossing is found.
    """
    mass_left = scan_mass(left_density, a, b)
    mass_right = scan_mass(right_density, a, b)
    points = {a, b}
    for piece in (*left_density.pieces, *right_density.pieces):
        for p in (piece.lo, piece.hi):
            if a < p < b:
                points.add(p)
    grid = sorted(points)

    def residual(c):
        left_gain = scan_mass(left_density, a, c)
        right_gain = scan_mass(right_density, c, b)
        if variant == "equitable":
            return left_gain - right_gain
        return left_gain * mass_right - right_gain * mass_left

    values = [residual(g) for g in grid]
    first = None
    last = None
    for j in range(len(grid) - 1):
        span = grid[j + 1] - grid[j]
        if first is None and values[j] < 0 <= values[j + 1]:
            slope = (values[j + 1] - values[j]) / span
            first = grid[j] - values[j] / slope
        if values[j] <= 0 < values[j + 1]:
            slope = (values[j + 1] - values[j]) / span
            last = grid[j] - values[j] / slope
    if first is None or last is None:
        raise AssertionError("surplus residual failed to cross zero")
    return (first + last) / 2


# ---------------------------------------------------------------------------
# LP oracle: exhaustive vertex enumeration
# ---------------------------------------------------------------------------


def solve_square(rows, rhs):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _lp_feasible(lp, point):
    if any(x < 0 for x in point):
        return False
    for c in lp.constraints:
        lhs = sum(a * x for a, x in zip(c.coeffs, point))
        if c.sense == "<=" and lhs > c.rhs:
            return False
        if c.sense == ">=" and lhs < c.rhs:
            return False
        if c.sense == "==" and lhs != c.rhs:
            return False
    return True


def vertex_enumeration_max(lp):
    """Best vertex over all square subsystems of tight constraints.

    Assumes a bounded feasible region (the generator below adds a bounding
    row), so the optimum is attained at some vertex.
    """
    n = lp.n_vars
    equalities = [(c.coeffs, c.rhs) for c in lp.constraints if c.sense == "=="]
    optional = [(c.coeffs, c.rhs) for c in lp.constraints if c.sense != "=="]
    for i in range(n):
        optional.append((tuple(ONE if j == i else ZERO for j in range(n)), ZERO))
    need = n - len(equalities)
    if need < 0:
        return None
    best = None
    for combo in combinations(optional, need):
        chosen = equalities + list(combo)
        point = solve_square([c[0] for c in chosen], [c[1] for c in chosen])
        if point is None or not _lp_feasible(lp, point):
            continue
        value = sum(c * x for c, x in zip(lp.objective, point))
        if best is None or value > best:
            best = value
    return best


def random_lp(rng, max_vars=4, max_rows=5):
    """Bounded LP with a known interior-ish feasible point as the seed."""
    n = rng.randint(2, max_vars)
    x0 = [Fraction(rng.randint(0, 4), rng.choice((1, 2, 3))) for _ in range(n)]
    constraints = []
    n_eq = 0
    for _ in range(rng.randint(1, max_rows - 1)):
        coeffs = tuple(Fraction(rng.randint(-4, 5)) for _ in range(n))
        at_seed = sum(c * x for c, x in zip(coeffs, x0))
        kind = rng.random()
        if kind < 0.25 and n_eq < n - 1:
            constraints.append(LinearConstraint(coeffs, "==", at_seed))
            n_eq += 1
        elif kind < 0.65:
            constraints.append(
                LinearConstraint(coeffs, "<=", at_seed + Fraction(rng.randint(0, 3)))
            )
        else:
            constraints.append(
                LinearConstraint(coeffs, ">=", at_seed - Fraction(rng.randint(0, 3)))
            )
    bound = sum(x0, ZERO) + Fraction(rng.randint(1, 10))
    constraints.append(LinearConstraint(tuple(ONE for _ in range(n)), "<=", bound))
    objective = tuple(Fraction(rng.randint(-3, 5)) for _ in range(n))
    return LinearProgram(n, objective, tuple(constraints)), tuple(x0)


def dense_simplex(lp, seed, pivots=None):
    """``solve.simplex_max`` on a dense fraction-free tableau: every row is
    stored in full, as int numerators over one positive row denominator
    divided by their gcd after every update, and the objective row is a
    tableau row of its own. The same Bland pivots, Phase-1 drive-out and
    final vertex; the seed is checked by ``check_point``. A ``pivots``
    list, if given, receives each pivot's (row, column) in order."""
    point = tuple(as_rational(v) for v in seed)
    violation = check_point(lp, point)
    if violation is not None:
        raise InfeasibleSeedError(violation)

    senses = [SENSES[c.sense][1] if c.rhs < 0 else c.sense for c in lp.constraints]

    n = lp.n_vars
    next_col = n
    slack_col = {}
    art_col = {}
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

    rows, dens, basis = [], [], []
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
        _dense_optimize(rows, dens, basis, [obj, den], pivots)
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
                _dense_pivot(rows, dens, basis, None, i, pivot_col, pivots)
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
            objective[:] = _dense_eliminate(objective[0], objective[1], rows[i], b)
    _dense_optimize(rows, dens, basis, objective, pivots)

    solution = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            solution[b] = Fraction(rows[i][width], dens[i])
    value = sum((cj * xj for cj, xj in zip(lp.objective, solution)), ZERO)
    return SimplexResult(value=value, point=tuple(solution))


def _dense_optimize(rows, dens, basis, objective, pivots):
    """Pivot by Bland's rule until no objective entry is positive;
    ``objective`` is a mutable [numerators, denominator] pair."""
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
        _dense_pivot(rows, dens, basis, objective, leave, enter, pivots)


def _dense_pivot(rows, dens, basis, objective, leave, enter, pivots):
    if pivots is not None:
        pivots.append((leave, enter))
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
            rows[i], dens[i] = _dense_eliminate(other, dens[i], row, enter)
    if objective is not None and objective[0][enter] != 0:
        objective[:] = _dense_eliminate(objective[0], objective[1], row, enter)
    basis[leave] = enter


def _dense_eliminate(row, den, pivot_row, col):
    """(row·p - f·pivot_row) / (den·p) for p = pivot_row[col] and
    f = row[col], reduced by the gcd."""
    p, f = pivot_row[col], row[col]
    new = [a * p - f * b for a, b in zip(row, pivot_row)]
    den *= p
    g = gcd(den, *new)
    if g > 1:
        new = [a // g for a in new]
        den //= g
    return new, den


# ---------------------------------------------------------------------------
# Two-player Pareto oracle: density-ratio threshold sweep
# ---------------------------------------------------------------------------


def ratio_sweep_dominated(scenario, allocation):
    """Is the allocation dominated? Decided by sweeping the frontier.

    For two players the Pareto frontier consists of threshold allocations
    in density-ratio order with at most one fractional boundary cell; the
    allocation is dominated iff holding one player at their current value
    lets the other strictly exceed theirs.
    """
    assert scenario.n == 2
    (name_a, density_a), (name_b, density_b) = scenario.players
    points = {ZERO, ONE}
    for density in (density_a, density_b):
        points.update(density.breakpoints())
    for _, portion in allocation.portions:
        for iv in portion.intervals:
            points.update((iv.lo, iv.hi))
    bounds = sorted(points)
    cells = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    base_a = density_a.mass(allocation.portion(name_a))
    base_b = density_b.mass(allocation.portion(name_b))

    def best_keep(keeper, giver, give_target):
        items = []
        total_keep = ZERO
        for lo, hi in cells:
            length = hi - lo
            w_keep = keeper.density_at(lo) * length
            w_give = giver.density_at(lo) * length
            total_keep += w_keep
            if w_give > 0:
                items.append((w_keep, w_give))

        def cheaper(i1, i2):
            left = i1[1] * i2[0]
            right = i2[1] * i1[0]
            return -1 if left > right else (1 if left < right else 0)

        items.sort(key=functools.cmp_to_key(cheaper))
        value = total_keep
        remaining = give_target
        for w_keep, w_give in items:
            if remaining <= 0:
                break
            if w_give >= remaining:
                value -= w_keep * remaining / w_give
                remaining = ZERO
            else:
                value -= w_keep
                remaining -= w_give
        return value

    return (
        best_keep(density_a, density_b, base_b) > base_a
        or best_keep(density_b, density_a, base_a) > base_b
    )


def check_pareto_certificate(scenario, allocation, weights):
    """Do the weights certify that the allocation is Pareto optimal?

    ``weights`` holds one lambda_i per player in scenario order. The cells
    are cut here from the pieces and portion spans, each cell's density is
    a scan, and its owner is the portion holding its midpoint. The check
    asks that every lambda_i >= 0, that on each cell the owner maximizes
    (1 + lambda_i)·w_ic for the cell weights w_ic = d_ic·|c|, and that the
    dual value sum_c max_i (1 + lambda_i)·w_ic − sum_i lambda_i·base_i
    equals the current total sum_i base_i.
    """
    if len(weights) != scenario.n or any(lam < 0 for lam in weights):
        return False
    points = {ZERO, ONE}
    for _, density in scenario.players:
        points.update(piece.lo for piece in density.pieces)
    for _, portion in allocation.portions:
        for iv in portion.intervals:
            points.update((iv.lo, iv.hi))
    bounds = sorted(points)
    base = [ZERO] * scenario.n
    dual = ZERO
    for lo, hi in zip(bounds, bounds[1:]):
        middle = (lo + hi) / 2
        cell = [scan_density_at(density, lo) * (hi - lo) for _, density in scenario.players]
        scaled = [(1 + lam) * w for lam, w in zip(weights, cell)]
        (owner,) = [
            i
            for i, (name, _) in enumerate(scenario.players)
            if any(iv.lo < middle < iv.hi for iv in allocation.portion(name).intervals)
        ]
        if scaled[owner] != max(scaled):
            return False
        base[owner] += cell[owner]
        dual += max(scaled)
    return dual - sum(lam * b for lam, b in zip(weights, base)) == sum(base)


def one_cut_dominated(scenario, outcome):
    """Whether some one-cut allocation of a two-player scenario gives both
    players at least their ``outcome`` values and one of them more.

    Let P hold the left piece and Q the right one. The cuts that keep both
    values run from P's leftmost quantile at P's value to the rightmost
    point where Q's right piece still holds Q's value. P gains most at the
    right end and Q at the left end, so a gain exists iff one end gives it.
    """
    (cut,) = outcome.cuts
    left, right = outcome.ordering
    density = dict(scenario.players)
    value = {
        left: scan_mass(density[left], ZERO, cut),
        right: scan_mass(density[right], cut, ONE),
    }
    for p, q in ((left, right), (right, left)):
        lo = scan_quantile_left(density[p], value[p])
        hi = scan_plateau_end(density[q], ONE - value[q])
        if lo <= hi and (
            scan_mass(density[p], ZERO, hi) > value[p] or scan_mass(density[q], lo, ONE) > value[q]
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Equal-value oracle: coarse grid scan plus exact chord refinement
# ---------------------------------------------------------------------------


def _last_piece_value(scenario, ordering, t):
    cuts = scan_greedy_cuts(scenario, ordering, t)
    if cuts is None:
        return None
    last = scenario.players[ordering[-1]][1]
    return scan_mass(last, cuts[-1], ONE)


def grid_affine_equal_value(scenario, ordering, steps=1000):
    """Independent solve: scan t on a grid, then refine any sign-change
    bracket by probing the exact chord root and halving. The chord probe is
    never fed back into the bracket, so denominators stay tame; once the
    bracket is free of kinks the chord lands exactly on the root. Returns
    (cuts, t) or None (the refinement can miss a root that sits exactly on
    a kink of the residual, so None does not prove absence)."""
    ordering = tuple(
        scenario.index(o) if isinstance(o, str) else int(o) for o in ordering
    )
    prev_t = ZERO
    prev_f = _last_piece_value(scenario, ordering, ZERO)
    if prev_f == ZERO:
        return scan_greedy_cuts(scenario, ordering, ZERO), ZERO
    for k in range(1, steps + 1):
        t = Fraction(k, steps)
        value = _last_piece_value(scenario, ordering, t)
        if value is None:
            return None
        f = value - t
        if f == 0:
            return scan_greedy_cuts(scenario, ordering, t), t
        if prev_f is not None and prev_f > 0 > f:
            lo, f_lo, hi, f_hi = prev_t, prev_f, t, f
            for _ in range(80):
                chord = lo + f_lo * (hi - lo) / (f_lo - f_hi)
                chord_value = _last_piece_value(scenario, ordering, chord)
                if chord_value is not None and chord_value == chord:
                    return scan_greedy_cuts(scenario, ordering, chord), chord
                mid = (lo + hi) / 2
                mid_value = _last_piece_value(scenario, ordering, mid)
                f_mid = (mid_value - mid) if mid_value is not None else -mid
                if f_mid == 0:
                    return scan_greedy_cuts(scenario, ordering, mid), mid
                if f_mid > 0:
                    lo, f_lo = mid, f_mid
                else:
                    hi, f_hi = mid, f_mid
            return None
        prev_t, prev_f = t, f
    return None


def grid_screen_no_solution(scenario, ordering, steps=1000):
    """Numeric screen: the residual avoids zero at every feasible grid t."""
    ordering = tuple(
        scenario.index(o) if isinstance(o, str) else int(o) for o in ordering
    )
    for k in range(steps + 1):
        t = Fraction(k, steps)
        value = _last_piece_value(scenario, ordering, t)
        if value is None:
            return True
        if value == t:
            return False
    return True


def fraction_walk(scenario, ordering, start=ZERO):
    """The equal-value walk of ``solve.equal_value_solve`` with every
    quantity a ``Fraction``: the same segments, cursors, root test and
    root check, for valid arguments. Its cumulative masses are its own
    ``scan_cumulative`` sums, and it checks the root with a chain of public
    ``quantile_left`` calls."""
    ordered = [scenario.players[i][1] for i in as_permutation(scenario, ordering)]
    cums = [scan_cumulative(density) for density in ordered]
    last = len(ordered) - 1
    own = [0] * last
    anchor = [0] * len(ordered)
    t = start
    for _ in range(2 * sum(len(d.pieces) for d in ordered) + 2):
        x = slope = ZERO
        step = None
        for i, density in enumerate(ordered):
            pieces, cum = density.pieces, cums[i]
            j = anchor[i]
            while j + 1 < len(pieces) and pieces[j + 1].lo <= x:
                j += 1
            anchor[i] = j
            held = pieces[j]
            if i:
                dt = (min(end, held.hi) - x) / slope
                if step is None or dt < step:
                    step = dt
            base = cum[j] + held.density * (x - held.lo)
            if i == last:
                break
            level = base + t
            if level >= cum[-1]:
                return None
            k = own[i]
            while cum[k + 1] <= level:
                k += 1
            own[i] = k
            piece = pieces[k]
            x = piece.lo + (level - cum[k]) / piece.density
            slope = (ONE + held.density * slope) / piece.density
            end = piece.hi
        value_plus = ONE - base
        if value_plus <= t:
            return None
        value_slope = -held.density * slope
        t_next = t + step
        root = (value_plus - value_slope * t) / (ONE - value_slope)
        if t < root <= t_next:
            cuts_root = []
            position = ZERO
            for density in ordered[:-1]:
                position = density.quantile_left(root, position)
                cuts_root.append(position)
            if ONE - ordered[-1].cdf(position) == root:
                return EqualValueSolution(tuple(cuts_root), root)
            raise AssertionError("equal-value walk lost its root")
        t = t_next
    raise AssertionError("equal-value walk failed to terminate")


def count_walks(monkeypatch):
    """Record (ordering, start, solution) for every equal-value walk the
    engine makes through ``solve.equal_value_solve``, in call order."""
    calls = []
    walk = solve.equal_value_solve

    def counted(scenario, ordering, **kwargs):
        solution = walk(scenario, ordering, **kwargs)
        calls.append((tuple(ordering), kwargs.get("start", ZERO), solution))
        return solution

    monkeypatch.setattr(solve, "equal_value_solve", counted)
    return calls


def count_queries(monkeypatch, *names):
    """Record every call of the named ``StepDensity`` methods, by default
    ``median_interval`` and ``_cut``, the integer cut kernel that each
    knife call runs once. Calls a method makes of another are counted too:
    ``_cut`` from an anchor past 0 makes one ``_mass_left``."""
    calls = dict.fromkeys(names or ("_cut", "median_interval"), 0)
    for name in calls:
        query = getattr(StepDensity, name)

        def counted(self, *args, _name=name, _query=query, **kwargs):
            calls[_name] += 1
            return _query(self, *args, **kwargs)

        monkeypatch.setattr(StepDensity, name, counted)
    return calls


def traced_peak_mb(fn):
    """The peak of the memory Python allocates while ``fn()`` runs, in MB
    (10**6 bytes), read by tracemalloc, which traces only this process.
    What exists before the call is not traced, so the peak is the call's
    own."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 10**6
    finally:
        tracemalloc.stop()


def exhaustive_ep_best(scenario):
    """The (names, cuts, common_value) triples of every ordering tied at the
    largest common value, in permutation order, from one full solve per
    ordering; raises NoFeasibleOrderingError when no ordering is feasible."""
    solved = []
    for perm in permutations(range(scenario.n)):
        solution = equal_value_solve(scenario, perm)
        if solution is not None:
            names = tuple(scenario.names[i] for i in perm)
            solved.append((names, solution.cuts, solution.common_value))
    if not solved:
        raise NoFeasibleOrderingError("no ordering is feasible")
    best = max(value for _, _, value in solved)
    return [triple for triple in solved if triple[2] == best]


@dataclass(frozen=True)
class ScriptRule:
    """Replays a fixed list of tie winners, then falls back to first-listed.

    The procedures only call ``resolver()``, so this stands in for a
    ``TieRule`` without being one.
    """

    script: tuple[str, ...] = ()

    def resolver(self):
        cursor = count()

        def pick(tied):
            i = next(cursor)
            if i < len(self.script) and self.script[i] in tied:
                return self.script[i]
            return tied[0]

        return pick


def fresh_tie_outcomes(procedure, scenario, tie, strict=False):
    """Every outcome across tie resolutions, in the order in which
    ``tie_outcomes`` yields them for the procedures with runtime ties.

    Each branch is a run of its own from the start, with a memo that
    starts empty, under a ``ScriptRule`` naming the winners up to its
    branching tie. The seeded run and every replay branch on each other
    winner at the tie events past their script, depth first, last pushed
    first."""
    outcomes = []
    pending = [(tie, 0)]
    while pending:
        rule, scripted = pending.pop()
        outcome = run_procedure(procedure, scenario, strict=strict, tie=rule)
        outcomes.append(outcome)
        events = outcome.tie_events
        for i in range(scripted, len(events)):
            prefix = tuple(event.winner for event in events[:i])
            for alternative in events[i].tied:
                if alternative != events[i].winner:
                    pending.append((ScriptRule(prefix + (alternative,)), i + 1))
    return outcomes

import functools
import hashlib
import itertools
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairslice import (
    Allocation,
    InfeasibleSeedError,
    Interval,
    InvalidPlayersError,
    IntervalSet,
    LinearConstraint,
    LinearProgram,
    ParseError,
    Scenario,
    StepDensity,
    UnboundedError,
    build_improvement_lp,
    contiguous_allocation,
    declared_values,
    decompose,
    equal_value_solve,
    equitability,
    greedy_cuts,
    moving_knife,
    pareto_improve,
    pareto_weights,
    simplex_max,
    surplus_divide,
    utilitarian_bound,
)
from fairslice import solve
from fairslice.harness import ce5_block_allocation, ce6_block_allocation
from fairslice.solve import _chain, check_point
from helpers import (
    QUARTER_POOL,
    check_pareto_certificate,
    dense_simplex,
    draw_grid_density,
    draw_long_density,
    fine_grid_scenario,
    fraction_walk,
    grid_affine_equal_value,
    grid_screen_no_solution,
    random_allocation,
    random_lp,
    random_scenario,
    ratio_sweep_dominated,
    scan_cumulative,
    scan_density_at,
    scan_greedy_cuts,
    scan_mass,
    vertex_enumeration_max,
)

ZERO, ONE, HALF = F(0), F(1), F(1, 2)


def uniform_trio():
    return Scenario(tuple((n, StepDensity.uniform()) for n in ("p1", "p2", "p3")))


# --- greedy cuts -------------------------------------------------------------


def test_greedy_cuts_three_uniform():
    assert greedy_cuts(uniform_trio(), (0, 1, 2), F(1, 3)) == (F(1, 3), F(2, 3))


def test_greedy_cuts_ce3_ordering_132(ce3):
    cuts = greedy_cuts(ce3, ("P1", "P3", "P2"), HALF)
    assert cuts == (HALF, F(5, 6))
    assert ce3.density("P2").mass(Interval(cuts[-1], ONE)) == ZERO


def test_greedy_cuts_target_zero(ce5):
    assert greedy_cuts(ce5, (0, 1, 2), ZERO) == (ZERO, ZERO)


def test_greedy_cuts_infeasible(ce3):
    # P2 holds everything in (0, 1/3); anchoring past it starves the chain
    assert greedy_cuts(ce3, ("P3", "P2", "P1"), HALF) is None


def test_greedy_cuts_rejects_non_permutations(ce3):
    with pytest.raises(ValueError):
        greedy_cuts(ce3, ("P1", "P2"), HALF)


def test_greedy_cuts_argument_contract():
    # A negative target is refused with quantile's text, a float is refused
    # before any cut, and a target no suffix can supply leaves no chain.
    trio = uniform_trio()
    with pytest.raises(ValueError, match="^quantile target -1/2 is negative$"):
        greedy_cuts(trio, (0, 1, 2), -HALF)
    with pytest.raises(ParseError):
        greedy_cuts(trio, (0, 1, 2), 0.5)
    assert greedy_cuts(trio, (0, 1, 2), HALF) == (HALF, ONE)
    assert greedy_cuts(trio, (0, 1, 2), F(3, 4)) is None
    assert greedy_cuts(trio, (0, 1, 2), F(2)) is None


# --- equal-value solve --------------------------------------------------------


def test_equal_value_ce3_all_orderings(ce3):
    expected = {
        ("P1", "P2", "P3"): None,
        ("P1", "P3", "P2"): None,
        ("P2", "P1", "P3"): ((F(1, 5), F(4, 5)), F(3, 5)),
        ("P2", "P3", "P1"): ((F(1, 12), F(3, 4)), F(1, 4)),
        ("P3", "P1", "P2"): None,
        ("P3", "P2", "P1"): None,
    }
    for ordering, want in expected.items():
        got = equal_value_solve(ce3, ordering)
        if want is None:
            assert got is None, ordering
        else:
            assert (got.cuts, got.common_value) == want, ordering


def test_equal_value_ce3_absence_screened_on_grid(ce3):
    assert grid_screen_no_solution(ce3, ("P1", "P3", "P2"))


def test_equal_value_ce3_213_matches_grid_oracle(ce3):
    oracle = grid_affine_equal_value(ce3, ("P2", "P1", "P3"))
    assert oracle is not None
    cuts, t = oracle
    assert t == F(3, 5) and cuts == (F(1, 5), F(4, 5))
    solved = equal_value_solve(ce3, ("P2", "P1", "P3"))
    assert (solved.cuts, solved.common_value) == (cuts, t)


def test_equal_value_identical_uniform_players():
    scenario = uniform_trio()
    for ordering in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        solved = equal_value_solve(scenario, ordering)
        assert solved.cuts == (F(1, 3), F(2, 3))
        assert solved.common_value == F(1, 3)


def test_equal_value_ce5_hits_published_solution(ce5):
    solved = equal_value_solve(ce5, ("A", "C", "B"))
    assert solved.cuts == (F(1, 3), F(2, 3))
    assert solved.common_value == F(9, 20)
    mirrored = equal_value_solve(ce5, ("B", "A", "C"))
    assert mirrored.common_value == F(9, 20)


def test_equal_value_postcondition_on_random_scenarios():
    rng = random.Random(11)
    for _ in range(40):
        scenario = random_scenario(rng, rng.choice((2, 3)))
        ordering = list(range(scenario.n))
        rng.shuffle(ordering)
        solved = equal_value_solve(scenario, ordering)
        if solved is None:
            # a greedy solution on the grid would contradict absence
            assert grid_screen_no_solution(scenario, tuple(ordering), steps=200)
            continue
        bounds = [ZERO, *solved.cuts, ONE]
        for k, player in enumerate(ordering):
            density = scenario.players[player][1]
            assert density.mass(Interval(bounds[k], bounds[k + 1])) == solved.common_value
        oracle = grid_affine_equal_value(scenario, tuple(ordering), steps=200)
        if oracle is not None:
            assert oracle[1] == solved.common_value


@st.composite
def equal_value_cases(draw, min_n=3, max_n=4, draw_density=None):
    """n = min_n to max_n players with step densities on a coarse common
    grid, or from ``draw_density(draw)`` when given, and one ordering. Zero
    weights give zero-density plateaus, the shared grid makes cuts land on
    breakpoints, and players beyond the distinct pool repeat one of its
    densities."""
    n = draw(st.integers(min_n, max_n))
    if draw_density is None:
        grid = draw(st.sampled_from((4, 6, 12)))
        draw_density = functools.partial(draw_grid_density, grid=grid)
    pool = [draw_density(draw) for _ in range(draw(st.integers(1, n)))]
    densities = pool + [draw(st.sampled_from(pool)) for _ in range(n - len(pool))]
    players = tuple((f"p{i + 1}", density) for i, density in enumerate(densities))
    return Scenario(players), tuple(draw(st.permutations(range(n))))


@settings(max_examples=120, deadline=None)
@given(equal_value_cases())
def test_equal_value_agrees_with_grid_oracles(case):
    scenario, ordering = case
    # Neither AssertionError exit of the walk may fire.
    solved = equal_value_solve(scenario, ordering)
    oracle = grid_affine_equal_value(scenario, ordering, steps=120)
    if solved is None:
        assert oracle is None
        assert grid_screen_no_solution(scenario, ordering, steps=120)
        return
    bounds = [ZERO, *solved.cuts, ONE]
    assert bounds == sorted(bounds)
    for k, player in enumerate(ordering):
        density = scenario.players[player][1]
        assert scan_mass(density, bounds[k], bounds[k + 1]) == solved.common_value
    if oracle is not None:
        assert oracle == (solved.cuts, solved.common_value)


@settings(max_examples=200, deadline=None)
@given(
    equal_value_cases(2, 5),
    st.sampled_from(("zero", "one", "root", "below root", "random")),
    st.fractions(min_value=0, max_value=1, max_denominator=60),
)
def test_equal_value_walk_from_a_start_returns_only_roots_above_it(case, kind, fraction):
    scenario, ordering = case
    # Neither AssertionError exit of the walk may fire, from 0 or later.
    cold = equal_value_solve(scenario, ordering)
    root = ZERO if cold is None else cold.common_value
    start = {
        "zero": ZERO,
        "one": ONE,
        "root": root,
        "below root": root - root * fraction / 1000,
        "random": fraction,
    }[kind]
    warm = equal_value_solve(scenario, ordering, start=start)
    if cold is not None and cold.common_value > start:
        assert warm == cold
    else:
        assert warm is None


@settings(max_examples=250, deadline=None)
@given(
    st.one_of(equal_value_cases(2, 5), equal_value_cases(2, 5, draw_long_density)),
    st.sampled_from(("zero", "root", "below root", "random")),
    st.fractions(min_value=0, max_value=1, max_denominator=10**50),
)
def test_integer_walk_matches_the_fraction_walk(case, kind, fraction):
    scenario, ordering = case
    cold = fraction_walk(scenario, ordering)
    root = ZERO if cold is None else cold.common_value
    start = {
        "zero": ZERO,
        "root": root,
        "below root": root - root * fraction / 1000,
        "random": fraction,
    }[kind]
    assert equal_value_solve(scenario, ordering, start=start) == fraction_walk(
        scenario, ordering, start
    )
    # The walk keeps nothing of its own on a density: only the cached
    # integer index and verdict live there.
    for _, density in scenario.players:
        assert set(vars(density)) <= {"pieces", "_rows", "_violations"}


@settings(max_examples=250, deadline=None)
@given(
    st.one_of(equal_value_cases(2, 5), equal_value_cases(2, 5, draw_long_density)),
    st.sampled_from(("cum", "total", "prefix root", "root", "random")),
    st.integers(0, 100),
    st.fractions(min_value=0, max_value=1, max_denominator=10**50),
)
def test_integer_settle_chain_matches_the_fraction_chain(case, kind, pick, fraction):
    scenario, ordering = case
    ordered = [scenario.players[i][1] for i in ordering]
    # "cum" puts the first player's level on a cumulative-mass entry and
    # "total" on the total; the root of the first two players alone, the
    # second holding the rest, puts the second player's level on the total;
    # the root of the whole ordering is a tie.
    cum = scan_cumulative(ordered[0])
    prefix = equal_value_solve(Scenario(tuple(scenario.players[i] for i in ordering[:2])), (0, 1))
    whole = equal_value_solve(scenario, ordering)
    target = {
        "cum": cum[pick % len(cum)],
        "total": cum[-1],
        "prefix root": fraction if prefix is None else prefix.common_value,
        "root": fraction if whole is None else whole.common_value,
        "random": fraction,
    }[kind]
    expected = None
    cuts = scan_greedy_cuts(scenario, ordering, target)
    if cuts is not None:
        value = scan_mass(ordered[-1], cuts[-1], ONE)
        sign = (value > target) - (value < target)
        expected = (sign, [(cut.numerator, cut.denominator) for cut in cuts])
    assert _chain(ordered, target.numerator, target.denominator) == expected
    if kind == "root" and whole is not None:
        assert expected[0] == 0


@pytest.mark.parametrize("start", [F(-1, 100), F(101, 100), -1, 2])
def test_equal_value_start_outside_the_unit_interval_is_refused(ce3, start):
    with pytest.raises(ValueError, match="outside"):
        equal_value_solve(ce3, ("P2", "P1", "P3"), start=start)


def test_equal_value_solve_refuses_one_player():
    scenario = Scenario((("solo", StepDensity.uniform()),))
    with pytest.raises(InvalidPlayersError, match="at least two players") as err:
        equal_value_solve(scenario, (0,))
    assert err.value.exit_status == 2


@pytest.mark.parametrize(
    "ordering", [(0.5, 1.2, 2), (True, False, 2), (F(0), 1, 2), (None, 1, 2), (1.0, 0, 2)]
)
def test_orderings_of_non_integer_indices_are_refused(ce3, ordering):
    with pytest.raises(ValueError, match="neither a player name nor an index"):
        equal_value_solve(ce3, ordering)
    with pytest.raises(ValueError, match="neither a player name nor an index"):
        greedy_cuts(ce3, ordering, HALF)


# sha256 of the rendered answers in the test below.
PINNED_EQUAL_VALUE_SHA256 = "de95bee0639ffe1704670305e4e725dab2954c37e7a44c20772f4843e7f3a781"


def test_equal_value_pinned_on_fine_grids():
    # Every ordering of seeded fine-grid scenarios with n = 3, 4 and 5 and
    # 6 or 9 pieces per player, so the breakpoints of the players that do
    # not hold a given cut are not events for it. The hash pins the exact
    # cuts and common value (or absence) of each ordering.
    rng = random.Random(2025)
    rendered = []
    feasible = 0
    for n, count in ((3, 6), (4, 4), (5, 2)):
        for _ in range(count):
            scenario = fine_grid_scenario(rng, n, [rng.choice((6, 9)) for _ in range(n)])
            for perm in itertools.permutations(range(n)):
                solved = equal_value_solve(scenario, perm)
                feasible += solved is not None
                rendered.append(
                    "None" if solved is None else repr((solved.cuts, solved.common_value))
                )
    assert len(rendered) == 372 and feasible == 276
    digest = hashlib.sha256("\n".join(rendered).encode()).hexdigest()
    assert digest == PINNED_EQUAL_VALUE_SHA256


# --- simplex ------------------------------------------------------------------


def test_simplex_single_variable_box():
    lp = LinearProgram(1, (ONE,), (LinearConstraint((ONE,), "<=", ONE),))
    result = simplex_max(lp, (ZERO,))
    assert result.value == ONE and result.point == (ONE,)


def test_simplex_two_variable_sum():
    lp = LinearProgram(
        2, (ONE, ONE), (LinearConstraint((ONE, ONE), "<=", F(3, 2)),)
    )
    result = simplex_max(lp, (ZERO, ZERO))
    assert result.value == F(3, 2)


def test_simplex_with_equalities():
    lp = LinearProgram(
        2,
        (F(2), F(3)),
        (
            LinearConstraint((ONE, ONE), "==", ONE),
            LinearConstraint((ONE, ZERO), "<=", F(2, 3)),
        ),
    )
    result = simplex_max(lp, (HALF, HALF))
    assert result.value == F(3)
    assert result.point == (ZERO, ONE)


def test_simplex_unbounded():
    lp = LinearProgram(1, (ONE,), (LinearConstraint((-ONE,), "<=", ONE),))
    with pytest.raises(UnboundedError):
        simplex_max(lp, (ZERO,))


def test_linear_program_refuses_malformed_input():
    with pytest.raises(ValueError, match="unknown constraint sense '<'"):
        LinearConstraint((ONE,), "<", ONE)
    with pytest.raises(ValueError, match="objective length"):
        LinearProgram(2, (ONE,), ())
    with pytest.raises(ValueError, match="constraint width"):
        LinearProgram(1, (ONE,), (LinearConstraint((ONE, ONE), "<=", ONE),))


@pytest.mark.parametrize("n_vars, width", [(True, 1), (False, 0), (2.0, 2), ("2", 2), (None, 0)])
def test_linear_program_refuses_a_variable_count_that_is_not_an_int(n_vars, width):
    # True would pass the width checks as 1, and 2.0 as 2, only to be
    # solved as a one-variable LP or to fail inside the simplex.
    row = LinearConstraint((ONE,) * width, "<=", ONE)
    with pytest.raises(ValueError, match=rf"^variable count {n_vars!r} is not an int$"):
        LinearProgram(n_vars, (ONE,) * width, (row,))


@pytest.mark.parametrize(
    "sense, holds",
    [("<=", (ZERO, HALF)), (">=", (HALF, ONE)), ("==", (HALF,))],
)
def test_check_point_reads_each_sense(sense, holds):
    lp = LinearProgram(1, (ONE,), (LinearConstraint((ONE,), sense, HALF),))
    for x in (ZERO, HALF, ONE):
        violation = check_point(lp, (x,))
        if x in holds:
            assert violation is None
        else:
            assert violation == f"constraint 0: {x} !{sense} 1/2"
    assert check_point(lp, (ZERO, ZERO)) == "point has 2 coordinates, expected 1"


def test_simplex_rejects_bad_seed():
    lp = LinearProgram(1, (ONE,), (LinearConstraint((ONE,), "<=", ONE),))
    with pytest.raises(InfeasibleSeedError):
        simplex_max(lp, (F(2),))
    with pytest.raises(InfeasibleSeedError):
        simplex_max(lp, (F(-1),))


def test_simplex_against_vertex_enumeration_sample():
    rng = random.Random(23)
    for _ in range(30):
        lp, seed = random_lp(rng)
        result = simplex_max(lp, seed)
        oracle = vertex_enumeration_max(lp)
        assert oracle is not None
        assert result.value == oracle


def with_redundant_equalities(rng, plain, seed):
    """The LP with a copy of one of its == rows, scaled by -2 so it is also
    sign-flipped, put first, and an all-zero == row put last; an LP with
    no == row first gains one through the seed. Returns the plain LP and
    the redundant one."""
    equalities = [c for c in plain.constraints if c.sense == "=="]
    if equalities:
        row = rng.choice(equalities)
    else:
        coeffs = tuple(F(rng.randint(1, 5)) for _ in range(plain.n_vars))
        row = LinearConstraint(coeffs, "==", sum(a * x for a, x in zip(coeffs, seed)))
        plain = LinearProgram(plain.n_vars, plain.objective, (*plain.constraints, row))
    redundant = LinearProgram(
        plain.n_vars,
        plain.objective,
        (
            LinearConstraint(tuple(-2 * a for a in row.coeffs), "==", -2 * row.rhs),
            *plain.constraints,
            LinearConstraint((ZERO,) * plain.n_vars, "==", ZERO),
        ),
    )
    return plain, redundant


def test_simplex_drops_redundant_equality_rows():
    # A copy of an == row (scaled by -2, so it is also sign-flipped) and an
    # all-zero == row leave an artificial variable basic after Phase 1 with
    # no real column to pivot on, so the drive-out deletes those rows.
    rng = random.Random(41)
    for _ in range(30):
        plain, seed = random_lp(rng)
        plain, redundant = with_redundant_equalities(rng, plain, seed)
        oracle = vertex_enumeration_max(plain)
        assert oracle is not None
        result = simplex_max(redundant, seed)
        assert result.value == oracle == simplex_max(plain, seed).value
        assert check_point(redundant, result.point) is None


def with_column_shapes(rng, lp, seed, zero_cost):
    """The LP with two columns put in at random places: one that is zero
    in every row, with objective entry ``zero_cost``, and one that is
    nonzero in every row, with a random objective entry. The seed is 0 on
    both, so it stays feasible."""
    zero_at = rng.randint(0, lp.n_vars)
    full_at = rng.randint(0, lp.n_vars + 1)

    def widen(values, zero, full):
        values = list(values)
        values.insert(zero_at, zero)
        values.insert(full_at, full)
        return tuple(values)

    full = [F(rng.choice((-4, -2, -1, 1, 2, 3, 5))) for _ in lp.constraints]
    constraints = tuple(
        LinearConstraint(widen(c.coeffs, ZERO, a), c.sense, c.rhs)
        for c, a in zip(lp.constraints, full)
    )
    objective = widen(lp.objective, zero_cost, F(rng.randint(-3, 5)))
    return LinearProgram(lp.n_vars + 2, objective, constraints), widen(seed, ZERO, ZERO)


def test_a_zero_column_that_prices_positive_is_unbounded_in_both_solvers():
    # A column with no nonzero entry always prices at its cost, so Bland's
    # rule cannot stop at an optimum, and no row bounds the column when it
    # enters.
    rng = random.Random(53)
    for _ in range(30):
        lp, seed = with_column_shapes(rng, *random_lp(rng), F(rng.randint(1, 5)))
        with pytest.raises(UnboundedError):
            simplex_max(lp, seed)
        with pytest.raises(UnboundedError):
            dense_simplex(lp, seed)


@st.composite
def simplex_cases(draw):
    """An LP and a seed. A ``random_lp`` instance has rows of all three
    senses and negative right-hand sides; it is taken as drawn ("plain"),
    without its bounding row, so it may be unbounded ("open"), with one
    seed coordinate moved, so the seed may be infeasible ("moved seed"),
    with a sign-flipped duplicate == row and an all-zero == row
    ("redundant"), or with a column that is zero in every row, priced at 0
    or above, and one that is nonzero in every row ("column shapes").
    Otherwise it is the improvement LP of a moving-knife or a random
    allocation on a fine grid with zero-density pieces, for 2 to 4
    players ("pareto")."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(("plain", "open", "moved seed", "redundant", "column shapes", "pareto"))
    )
    if kind == "pareto":
        scenario = fine_grid_scenario(rng, rng.randint(2, 4), rng.choice((4, 6, 8)))
        if rng.random() < 0.5:
            allocation = moving_knife(scenario).allocation
        else:
            allocation = random_allocation(rng, scenario)
        return build_improvement_lp(scenario, allocation)[:2]
    lp, seed = random_lp(rng)
    if kind == "open":
        lp = LinearProgram(lp.n_vars, lp.objective, lp.constraints[:-1])
    elif kind == "moved seed":
        j = rng.randrange(lp.n_vars)
        seed = (*seed[:j], seed[j] + F(rng.randint(-3, 3), 2), *seed[j + 1 :])
    elif kind == "redundant":
        lp = with_redundant_equalities(rng, lp, seed)[1]
    elif kind == "column shapes":
        lp, seed = with_column_shapes(rng, lp, seed, F(rng.choice((0, rng.randint(1, 5)))))
    return lp, seed


@settings(max_examples=300, deadline=None)
@given(simplex_cases())
def test_revised_simplex_matches_the_dense_tableau(case):
    # Every revised-tableau entry is the rational the dense tableau holds,
    # so both take the same Bland pivots, drive-out and final vertex. Each
    # pivot is compared as it is taken, so a path that leaves the dense
    # one fails at once, even where it would never end.
    lp, seed = case
    expected = []
    taken = []
    pivot = solve._pivot

    def compared(rows, dens, basis, leave, enter, col):
        taken.append((leave, enter))
        assert taken == expected[: len(taken)], "the pivots left the dense tableau's path"
        return pivot(rows, dens, basis, leave, enter, col)

    try:
        result = dense_simplex(lp, seed, expected)
    except (UnboundedError, InfeasibleSeedError) as error:
        result = type(error)
    with mock.patch.object(solve, "_pivot", compared):
        if isinstance(result, type):
            with pytest.raises(result):
                simplex_max(lp, seed)
        else:
            assert simplex_max(lp, seed) == result
    assert taken == expected


@st.composite
def dual_cases(draw):
    """A bounded LP, a seed, its optimum by vertex enumeration, and the
    indices of rows it holds only as redundant copies. A ``random_lp``
    instance has rows of all three senses and negative right-hand sides;
    it is taken as drawn ("plain") or with a sign-flipped duplicate == row
    put first and an all-zero == row put last ("redundant"), the oracle
    reading the LP without them. Otherwise it is the improvement LP of a
    two-player allocation on the quarter grid, small enough to enumerate
    ("pareto")."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("plain", "redundant", "pareto")))
    if kind == "pareto":
        scenario = random_scenario(rng, 2, max_pieces=3, pool=QUARTER_POOL)
        allocation = random_allocation(rng, scenario, pool=QUARTER_POOL)
        lp, seed = build_improvement_lp(scenario, allocation)[:2]
        return lp, seed, vertex_enumeration_max(lp), ()
    lp, seed = random_lp(rng)
    if kind == "plain":
        return lp, seed, vertex_enumeration_max(lp), ()
    plain, lp = with_redundant_equalities(rng, lp, seed)
    return lp, seed, vertex_enumeration_max(plain), (0, len(lp.constraints) - 1)


@settings(max_examples=120, deadline=None)
@given(dual_cases())
def test_simplex_dual_is_feasible_and_its_value_is_the_optimum(case):
    lp, seed, oracle, redundant = case
    assume(oracle is not None)
    result = simplex_max(lp, seed)
    dual = result.dual
    assert len(dual) == len(lp.constraints)
    # Strong duality: the dual objective meets the primal optimum.
    assert result.value == oracle
    assert sum((c.rhs * y for c, y in zip(lp.constraints, dual)), ZERO) == oracle
    # Dual feasibility for a maximum over x >= 0: the sign each sense
    # allows, and every objective entry covered by its column.
    for c, y in zip(lp.constraints, dual):
        assert {"<=": y >= 0, ">=": y <= 0, "==": True}[c.sense], (c.sense, y)
    for j, cj in enumerate(lp.objective):
        assert sum((c.coeffs[j] * y for c, y in zip(lp.constraints, dual)), ZERO) >= cj
    if redundant:
        # The all-zero row is deleted in Phase 1 and prices at 0. So does
        # one of the duplicated pair, whichever the drive-out deletes.
        first, zero_row = redundant
        (twin,) = [
            k
            for k, c in enumerate(lp.constraints)
            if k != first and tuple(-2 * a for a in c.coeffs) == lp.constraints[first].coeffs
        ][:1]
        assert dual[zero_row] == 0
        assert dual[first] == 0 or dual[twin] == 0


def test_simplex_dual_prices_each_row():
    # max 2x + 3y with x + y == 1 and x <= 2/3: y = 1, priced by the
    # equality at 3; the slack bound x <= 2/3 prices at 0.
    lp = LinearProgram(
        2,
        (F(2), F(3)),
        (
            LinearConstraint((ONE, ONE), "==", ONE),
            LinearConstraint((ONE, ZERO), "<=", F(2, 3)),
        ),
    )
    result = simplex_max(lp, (HALF, HALF))
    assert result.dual == (F(3), ZERO)
    # The dense tableau fills no dual, and equality ignores it.
    dense = dense_simplex(lp, (HALF, HALF))
    assert dense.dual is None and result == dense


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("feasible", "<=", ">=", "==", "negative", "short", "long", "moved")),
    st.booleans(),
)
def test_integer_seed_check_refuses_exactly_what_check_point_reports(number, kind, text):
    rng = random.Random(number)
    lp, seed = random_lp(rng)
    seed = list(seed)
    if kind in ("<=", ">=", "=="):
        # A row of that sense that the seed misses; its right-hand side
        # may be negative, so the row is also read sign-flipped.
        coeffs = tuple(F(rng.randint(-4, 5)) for _ in range(lp.n_vars))
        at_seed = sum((a * x for a, x in zip(coeffs, seed)), ZERO)
        miss = F(rng.randint(1, 6), rng.choice((1, 2, 3)))
        if kind == "<=" or (kind == "==" and rng.random() < 0.5):
            miss = -miss
        constraints = list(lp.constraints)
        constraints.insert(
            rng.randint(0, len(constraints)), LinearConstraint(coeffs, kind, at_seed + miss)
        )
        lp = LinearProgram(lp.n_vars, lp.objective, constraints)
    elif kind == "negative":
        seed[rng.randrange(len(seed))] = F(-1, rng.randint(1, 3))
    elif kind == "short":
        seed.pop()
    elif kind == "long":
        seed.append(ZERO)
    elif kind == "moved":
        seed[rng.randrange(len(seed))] += F(rng.randint(-2, 2), 2)
    if text:
        seed = [str(v) for v in seed]
    violation = check_point(lp, seed)
    if kind != "moved":
        assert (violation is None) == (kind == "feasible")
    if violation is None:
        assert check_point(lp, simplex_max(lp, seed).point) is None
        return
    with pytest.raises(InfeasibleSeedError) as err:
        simplex_max(lp, seed)
    assert str(err.value) == violation


def test_linear_program_keeps_its_own_tuple_of_constraints():
    constraints = [LinearConstraint((ONE,), "<=", ONE)]
    lp = LinearProgram(1, (ONE,), constraints)
    # A row appended to the caller's list later is not the LP's, so it
    # cannot skip the width check.
    constraints.append(LinearConstraint((ONE, ONE), "<=", HALF))
    assert lp.constraints == (LinearConstraint((ONE,), "<=", ONE),)
    assert simplex_max(lp, (ZERO,)).point == (ONE,)
    assert hash(lp) == hash(LinearProgram(1, (ONE,), tuple(constraints[:1])))
    with pytest.raises(ValueError, match=r"^\(\(1,\), '<=', 1\) is not a LinearConstraint$"):
        LinearProgram(1, (ONE,), [((1,), "<=", 1)])


def test_check_point_reads_coordinates_as_rationals():
    lp = LinearProgram(1, (ONE,), (LinearConstraint((ONE,), "<=", HALF),))
    assert check_point(lp, ("1/2",)) is None
    assert check_point(lp, ("3/4",)) == "constraint 0: 3/4 !<= 1/2"
    assert simplex_max(lp, ("1/2",)).value == HALF
    # simplex_max refuses a bool or a float seed, and so does check_point.
    for coordinate, reason in ((True, "booleans"), (0.5, "floats")):
        for call in (check_point, simplex_max):
            with pytest.raises(ParseError, match=reason):
                call(lp, (coordinate,))


def _columns_reversed(lp, seed):
    constraints = tuple(
        LinearConstraint(c.coeffs[::-1], c.sense, c.rhs) for c in lp.constraints
    )
    return LinearProgram(lp.n_vars, lp.objective[::-1], constraints), seed[::-1]


# sha256 of the rendered witnesses in the test below.
PINNED_WITNESSES_SHA256 = "8307cdd86efda6dcf907a964c2a77346c18c766370889e8e1602d4e457f0194c"


def test_pareto_witness_vertex_pinned_on_fine_grids():
    # Which optimal vertex the simplex returns is part of its output: the
    # witness allocation. On these instances the optimum is often not unique
    # (the LP with its columns reversed ends at another optimal point), so a
    # change of pivot rule or starting basis can keep every value and the
    # verdict yet move the witness. The hash pins the exact witnesses.
    rng = random.Random(2024)
    rendered = []
    several_optima = 0
    for _ in range(16):
        scenario = fine_grid_scenario(rng, 3, rng.choice((6, 8, 10)))
        allocation = moving_knife(scenario).allocation
        lp, seed, _, _ = build_improvement_lp(scenario, allocation)
        result = simplex_max(lp, seed)
        mirrored = simplex_max(*_columns_reversed(lp, seed))
        assert mirrored.value == result.value
        several_optima += mirrored.point[::-1] != result.point
        witness = pareto_improve(scenario, allocation)
        if witness is None:
            rendered.append("optimal")
            continue
        rendered.append(
            ";".join(
                f"{name}:"
                + ",".join(f"{iv.lo}-{iv.hi}" for iv in witness.allocation.portion(name).intervals)
                + f":{witness.gains[name]}"
                for name in scenario.names
            )
        )
    assert several_optima >= 4
    digest = hashlib.sha256("\n".join(rendered).encode()).hexdigest()
    assert digest == PINNED_WITNESSES_SHA256, "\n".join(rendered)


# --- cells and Pareto ---------------------------------------------------------


def test_decompose_refines_all_breakpoints(ce5):
    dec = decompose(ce5)
    assert dec.cells == tuple(Interval(F(k, 6), F(k + 1, 6)) for k in range(6))
    assert all(len(row) == 6 for row in dec.densities)


def test_utilitarian_bounds(ce5, ce6):
    assert utilitarian_bound(ce5) == F(12, 5)
    assert utilitarian_bound(ce6) == F(8, 5)


def test_pareto_ce2_cut_and_choose_dominated(ce2):
    halves = contiguous_allocation(("P2", "P1"), (HALF,))
    witness = pareto_improve(ce2, halves)
    assert witness is not None
    assert all(g >= 0 for g in witness.gains.values())
    assert any(g > 0 for g in witness.gains.values())
    # the published improving allocation, checked directly
    published = Allocation.of(
        {"P1": IntervalSet.of(("1/4", 1)), "P2": IntervalSet.of((0, "1/4"))}
    )
    assert ce2.density("P1").mass(published.portion("P1")) == F(3, 4)
    assert ce2.density("P2").mass(published.portion("P2")) == HALF


def test_pareto_ce5_block_dominates(ce5):
    ep = equitability(ce5)
    witness = pareto_improve(ce5, ep.allocation)
    assert witness is not None
    assert witness.value_vector == {"A": F(4, 5), "B": F(4, 5), "C": F(4, 5)}


def test_pareto_identical_players_never_dominated():
    scenario = Scenario(
        (("p1", StepDensity.uniform()), ("p2", StepDensity.uniform()))
    )
    for cut in (F(1, 3), HALF, F(9, 10)):
        allocation = contiguous_allocation(("p1", "p2"), (cut,))
        assert pareto_improve(scenario, allocation) is None


def test_pareto_ce6_block_optimal(ce6):
    block = ce6_block_allocation()
    assert pareto_improve(ce6, block) is None
    lp, seed, _, base = build_improvement_lp(ce6, block)
    result = simplex_max(lp, seed)
    assert result.value == sum(base, ZERO) == F(8, 5) == utilitarian_bound(ce6)


def test_pareto_ce5_block_optimal_too(ce5):
    assert pareto_improve(ce5, ce5_block_allocation()) is None


def test_pareto_witness_values_verify_by_mass(ce5):
    ep = equitability(ce5)
    witness = pareto_improve(ce5, ep.allocation)
    for name, density in ce5.players:
        assert density.mass(witness.allocation.portion(name)) == witness.value_vector[name]


def test_pareto_verdict_stable_under_refinement(ce6):
    # Redundant breakpoints declared inside CE6's pieces, same densities.
    extra = (F(1, 7), F(2, 7), F(9, 11))

    def split(density):
        pieces = []
        for p in density.pieces:
            points = [p.lo, *(x for x in extra if p.lo < x < p.hi), p.hi]
            pieces += [(a, b, p.density) for a, b in zip(points, points[1:])]
        return StepDensity.of(*pieces)

    refined = Scenario(tuple((name, split(density)) for name, density in ce6.players))
    assert set(extra) <= {cell.lo for cell in decompose(refined).cells}
    block = ce6_block_allocation()
    assert pareto_improve(refined, block) is None
    halves = contiguous_allocation(("A", "B"), (HALF,))
    assert pareto_improve(ce6, halves) is not None
    assert pareto_improve(refined, halves) is not None


def test_pareto_matches_ratio_sweep_oracle_sample():
    rng = random.Random(31)
    for _ in range(30):
        scenario = random_scenario(rng, 2, max_pieces=3, pool=QUARTER_POOL)
        allocation = random_allocation(rng, scenario, pool=QUARTER_POOL)
        lp_verdict = pareto_improve(scenario, allocation) is not None
        assert lp_verdict == ratio_sweep_dominated(scenario, allocation)


@st.composite
def pareto_cases(draw):
    """n = 2 to 5 players with densities on the 1/grid lattice, zero
    weights included, and an allocation of the cells of the finer 1/(2·grid)
    lattice. A cell goes to any player ("random"), or to a player who
    maximizes a_i·d_ic for weights a that are all 1 ("argmax") or drawn
    from 1 to 3 ("weighted"), a tie going to a drawn player. The argmax
    allocations are optimal and most random ones are dominated, so both
    verdicts occur often."""
    n = draw(st.integers(2, 5))
    grid = draw(st.sampled_from((4, 6)))
    scenario = Scenario(
        tuple((f"p{i + 1}", draw_grid_density(draw, grid)) for i in range(n))
    )
    source = draw(st.sampled_from(("random", "argmax", "weighted")))
    scale = [draw(st.integers(1, 3)) if source == "weighted" else 1 for _ in range(n)]
    spans = {name: [] for name in scenario.names}
    cells = 2 * grid
    for c in range(cells):
        lo, hi = F(c, cells), F(c + 1, cells)
        values = [a * scan_density_at(d, lo) for a, (_, d) in zip(scale, scenario.players)]
        if source == "random":
            candidates = range(n)
        else:
            candidates = [i for i, v in enumerate(values) if v == max(values)]
        spans[scenario.names[draw(st.sampled_from(candidates))]].append((lo, hi))
    allocation = Allocation.of({name: IntervalSet.of(*s) for name, s in spans.items()})
    return scenario, allocation


@settings(max_examples=150, deadline=None)
@given(pareto_cases())
def test_pareto_verdict_and_certificate_agree_with_simplex(case):
    scenario, allocation = case
    lp, seed, _, base = build_improvement_lp(scenario, allocation)
    optimal = simplex_max(lp, seed).value == sum(base, ZERO)
    weights = pareto_weights(scenario, allocation)
    witness = pareto_improve(scenario, allocation)
    assert (weights is not None) == (witness is None) == optimal
    if optimal:
        assert check_pareto_certificate(scenario, allocation, weights), weights
        return
    # No weights certify a dominated allocation, the plain ones included.
    assert not check_pareto_certificate(scenario, allocation, (ZERO,) * scenario.n)
    for name, density in scenario.players:
        value = sum(
            (scan_mass(density, iv.lo, iv.hi) for iv in witness.allocation.portion(name).intervals),
            ZERO,
        )
        assert value == witness.value_vector[name]


def test_pareto_weights_certify_the_published_optimal_blocks(ce5, ce6):
    for scenario, block in ((ce5, ce5_block_allocation()), (ce6, ce6_block_allocation())):
        weights = pareto_weights(scenario, block)
        assert weights == (ZERO,) * scenario.n
        assert check_pareto_certificate(scenario, block, weights)
    # A dominated allocation has no certificate.
    assert pareto_weights(ce6, contiguous_allocation(("A", "B"), (HALF,))) is None


def long_cut_quartet():
    """Four players on the 1/6 grid with zero-weight pieces, and an
    allocation, dominated, whose cuts have 30- and 31-digit denominators;
    P3 holds two spans."""
    weights = {
        "P1": [3, 0, 2, 0, 1, 4],
        "P2": [0, 4, 1, 3, 0, 2],
        "P3": [1, 1, 0, 0, 5, 3],
        "P4": [2, 0, 0, 4, 2, 2],
    }
    sixths = [(F(j, 6), F(j + 1, 6)) for j in range(6)]
    scenario = Scenario(
        tuple(
            (name, StepDensity.of(*((a, b, F(6 * w, sum(ws))) for (a, b), w in zip(sixths, ws))))
            for name, ws in weights.items()
        )
    )
    p, q = 10**29 + 7, 10**30 + 9
    first, last = F(q // 4, q), F(2 * p, 3 * p + 1)
    allocation = Allocation.of(
        {
            "P1": IntervalSet.of((HALF, last)),
            "P2": IntervalSet.of((F(1, 6), first)),
            "P3": IntervalSet.of((ZERO, F(1, 6)), (last, ONE)),
            "P4": IntervalSet.of((first, HALF)),
        }
    )
    return scenario, allocation


@st.composite
def improvement_cases(draw):
    """n = 2 to 4 players on a fine grid with zero-density plateaus
    ("grid"), drawn by ``random_scenario`` ("random"), or with breakpoints
    over 40- to 60-digit denominators ("long"), and a moving-knife or a
    ``random_allocation`` allocation; or the four players of
    ``long_cut_quartet`` ("long cuts")."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("grid", "random", "long", "long cuts")))
    if kind == "long cuts":
        return long_cut_quartet()
    n = rng.randint(2, 4)
    if kind == "grid":
        scenario = fine_grid_scenario(rng, n, rng.choice((4, 6, 8)))
    elif kind == "random":
        scenario = random_scenario(rng, n)
    else:
        scenario = Scenario(tuple((f"p{i + 1}", draw_long_density(draw)) for i in range(n)))
    if rng.random() < 0.5:
        return scenario, moving_knife(scenario).allocation
    return scenario, random_allocation(rng, scenario)


@settings(max_examples=100, deadline=None)
@given(improvement_cases())
def test_pareto_improve_hands_the_core_the_rows_simplex_max_builds(case):
    # pareto_improve builds its integer rows from the cell table, and
    # simplex_max scales build_improvement_lp's Fraction LP: the core must
    # receive the same rows, term for term, and the same objective, so it
    # reaches the same witness. pareto_improve also hands it a start basis.
    scenario, allocation = case
    lp, seed, dec, base = build_improvement_lp(scenario, allocation)
    handed = []
    core = solve._simplex_core

    def spied(*args):
        handed.append(args[:3])
        return core(*args)

    with mock.patch.object(solve, "_simplex_core", spied):
        result = simplex_max(lp, seed)
        witness = pareto_improve(scenario, allocation)
    rows, cost, _, _ = solve._improvement_lp(dec)
    assert handed[0] == (lp.n_vars, rows, cost)
    if witness is None:
        assert len(handed) == 1 and result.value == sum(base, ZERO)
        return
    assert len(handed) == 2 and handed[1] == handed[0]
    # The witness's values, summed on integers from the basic shares, are
    # the masses of its portions.
    assert witness.value_vector == declared_values(scenario, witness.allocation)
    assert sum(witness.value_vector.values(), ZERO) == result.value
    assert witness.gains == {
        name: witness.value_vector[name] - b for name, b in zip(scenario.names, base)
    }


def test_pareto_improve_on_long_rational_cuts():
    scenario, allocation = long_cut_quartet()
    witness = pareto_improve(scenario, allocation)
    assert witness is not None
    assert witness.value_vector == declared_values(scenario, witness.allocation)
    lp, seed, dec, _ = build_improvement_lp(scenario, allocation)
    assert max(len(str(b)) for b in dec.bounds) >= 60
    assert simplex_max(lp, seed).value == sum(witness.value_vector.values(), ZERO)


@settings(max_examples=100, deadline=None)
@given(improvement_cases())
def test_owner_basis_inverts_its_columns_at_the_seed_point(case):
    # The start that pareto_improve hands the core: each row's multipliers
    # times a basic column give its denominator on its own column and 0 on
    # the others, and its right-hand side reads build_improvement_lp's
    # seed, every owner share 1 and every player's surplus 0.
    scenario, allocation = case
    lp, seed, dec, _ = build_improvement_lp(scenario, allocation)
    rows = solve._improvement_lp(dec)[0]
    basis, tableau, dens = solve._owner_basis(dec, rows)
    r, n = len(rows), scenario.n
    assert len(set(basis)) == len(basis) == len(tableau) == len(dens) == r

    def column(j):
        if j < lp.n_vars:
            return [dict(terms).get(j, 0) for terms, *_ in rows]
        # Player i's surplus slack: -den_i in its row, m + i = r - n + i.
        i = j - lp.n_vars
        return [-rows[k][3] if k == r - n + i else 0 for k in range(r)]

    point = [ZERO] * (lp.n_vars + n)
    for b, row, d in zip(basis, tableau, dens):
        assert d > 0
        for other in basis:
            assert sum(e * a for e, a in zip(row, column(other))) == (d if other == b else 0)
        point[b] = F(row[r], d)
    assert tuple(point[: lp.n_vars]) == seed
    assert point[lp.n_vars :] == [ZERO] * n


@settings(max_examples=100, deadline=None)
@given(improvement_cases())
def test_pareto_improve_equals_the_witness_of_the_core_with_no_start(case):
    # The start skips Phase 1 only where its optimum is unique, so the
    # witness is the one laid out from the two-phase path's vertex.
    scenario, allocation = case
    core = solve._simplex_core

    def cold(n, rows, cost, start=None):
        return core(n, rows, cost)

    with mock.patch.object(solve, "_simplex_core", cold):
        expected = pareto_improve(scenario, allocation)
    assert pareto_improve(scenario, allocation) == expected


def test_pareto_improve_keeps_the_two_phase_witness_when_the_optimum_is_not_unique():
    # Both players value the first third alike, so every split of it is
    # optimal: the allocation's own basis reaches an optimum at which that
    # third's shares price at zero. The witness stays the two-phase one,
    # which gives the gain to P1; the warm vertex would give it to P2.
    third = F(1, 3)
    p1 = StepDensity.of((0, third, F(6, 7)), (third, 2 * third, F(6, 7)), (2 * third, 1, F(9, 7)))
    p2 = StepDensity.of((0, third, F(6, 7)), (third, 2 * third, F(9, 7)), (2 * third, 1, F(6, 7)))
    scenario = Scenario((("P1", p1), ("P2", p2)))
    allocation = Allocation.of({"P1": IntervalSet.of((HALF, 1)), "P2": IntervalSet.of((0, HALF))})
    witness = pareto_improve(scenario, allocation)
    assert witness.allocation == Allocation.of(
        {
            "P1": IntervalSet.of((0, F(1, 4)), (2 * third, 1)),
            "P2": IntervalSet.of((F(1, 4), 2 * third)),
        }
    )
    assert witness.gains == {"P1": F(1, 14), "P2": ZERO}


@pytest.mark.parametrize("case", ["ce2-halves", "ce5-ep", "ce6-sp-e"])
def test_certified_witnesses_take_no_phase_one_pivot(case, ce2, ce5, ce6):
    # These witnesses are their LPs' unique optima, which the allocation's
    # own basis reaches in Phase 2 alone: no pivot has an artificial
    # column, numbered after the variables and the players' slacks, basic
    # or entering.
    if case == "ce2-halves":
        scenario, allocation = ce2, contiguous_allocation(("P2", "P1"), (HALF,))
    elif case == "ce5-ep":
        scenario, allocation = ce5, equitability(ce5).allocation
    else:
        scenario, allocation = ce6, surplus_divide(ce6).allocation
    first_art = build_improvement_lp(scenario, allocation)[0].n_vars + scenario.n
    pivots = []
    pivot = solve._pivot

    def spied(rows, dens, basis, leave, enter, col):
        pivots.append(max(enter, *basis))
        return pivot(rows, dens, basis, leave, enter, col)

    with mock.patch.object(solve, "_pivot", spied):
        witness = pareto_improve(scenario, allocation)
    assert witness is not None and pivots
    assert max(pivots) < first_art


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decompose_views_are_the_breakpoints_and_scanned_densities(data):
    # Densities on a grid or with long breakpoints, some split at points
    # inside their pieces (redundant breakpoints, the same density), and
    # maybe an allocation of contiguous pieces.
    draw = data.draw
    n = draw(st.integers(1, 4))
    players = []
    for i in range(n):
        if draw(st.booleans()):
            density = draw_grid_density(draw, draw(st.sampled_from((4, 6, 12))))
        else:
            density = draw_long_density(draw)
        extra = draw(st.sets(st.sampled_from(QUARTER_POOL + [F(1, 7), F(5, 9)]), max_size=3))
        pieces = []
        for p in density.pieces:
            points = [p.lo, *sorted(x for x in extra if p.lo < x < p.hi), p.hi]
            pieces += [(a, b, p.density) for a, b in zip(points, points[1:])]
        players.append((f"p{i + 1}", StepDensity.of(*pieces)))
    scenario = Scenario(tuple(players))
    allocation = None
    points = {ZERO, ONE}
    for _, density in scenario.players:
        points.update(density.breakpoints())
    if draw(st.booleans()):
        cut = st.fractions(0, 1, max_denominator=10**30)
        cuts = sorted(draw(st.lists(cut, min_size=n - 1, max_size=n - 1)))
        allocation = contiguous_allocation(scenario.names, cuts)
        points.update(cuts)
    dec = decompose(scenario, allocation)
    bounds = sorted(points)
    assert dec.cells == tuple(Interval(a, b) for a, b in zip(bounds, bounds[1:]) if a < b)
    for (_, density), column, (nums, dens) in zip(scenario.players, dec.densities, dec.weights):
        assert column == tuple(scan_density_at(density, cell.midpoint) for cell in dec.cells)
        # The table's integer weights are density times length.
        assert [F(a, d) for a, d in zip(nums, dens)] == [
            x * cell.length for x, cell in zip(column, dec.cells)
        ]
    if allocation is None:
        assert dec.owners is None
    else:
        assert dec.owners == tuple(
            next(
                k
                for k, (_, portion) in enumerate(allocation.portions)
                if any(iv.lo < cell.midpoint < iv.hi for iv in portion.intervals)
            )
            for cell in dec.cells
        )


def test_decompose_refuses_an_allocation_of_other_players(ce5):
    halves = contiguous_allocation(("A", "Z"), (HALF,))
    with pytest.raises(InvalidPlayersError):
        decompose(ce5, halves)

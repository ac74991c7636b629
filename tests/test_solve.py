import functools
import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
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
    decompose,
    equal_value_solve,
    equitability,
    greedy_cuts,
    moving_knife,
    pareto_improve,
    pareto_weights,
    simplex_max,
    utilitarian_bound,
)
from fairslice.harness import ce5_block_allocation, ce6_block_allocation
from fairslice.solve import _chain, check_point
from helpers import (
    QUARTER_POOL,
    check_pareto_certificate,
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


def test_simplex_drops_redundant_equality_rows():
    # A copy of an == row (scaled by -2, so it is also sign-flipped) and an
    # all-zero == row leave an artificial variable basic after Phase 1 with
    # no real column to pivot on, so the drive-out deletes those rows.
    rng = random.Random(41)
    for _ in range(30):
        plain, seed = random_lp(rng)
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
        oracle = vertex_enumeration_max(plain)
        assert oracle is not None
        result = simplex_max(redundant, seed)
        assert result.value == oracle == simplex_max(plain, seed).value
        assert check_point(redundant, result.point) is None


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

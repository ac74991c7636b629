import random
from fractions import Fraction as F
from itertools import permutations
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairslice import (
    AllocationError,
    EPUndefinedError,
    EQUITABLE,
    Interval,
    InvalidPlayersError,
    NoFeasibleOrderingError,
    NonUniqueMedianError,
    PROPORTIONAL,
    Scenario,
    StepDensity,
    TieRule,
    contiguous_allocation,
    cut_and_choose,
    declared_values,
    equitability,
    moving_knife,
    run_procedure,
    surplus_divide,
)
from fairslice import solve
from fairslice.procedures import TIE_LOWEST, TieEvent, _ScriptRule, _ep_search
from helpers import (
    draw_grid_density,
    exhaustive_ep_best,
    fine_grid_scenario,
    random_scenario,
    scan_mass,
    scan_plateau_end,
    scan_quantile_left,
    scan_surplus_cut,
)

ZERO, ONE, HALF = F(0), F(1), F(1, 2)


def pair(d1, d2, names=("p1", "p2")):
    return Scenario(((names[0], d1), (names[1], d2)))


def uniform_pair():
    return pair(StepDensity.uniform(), StepDensity.uniform())


# --- tie rules ---------------------------------------------------------------


def test_tie_rule_validation():
    with pytest.raises(ValueError):
        TieRule(mode="coin-flip")
    with pytest.raises(ValueError):
        TieRule(mode="seeded")
    # random.Random seeds by absolute value, so -1 would replay seed 1
    for bad in (-1, 2**64, True, "5"):
        with pytest.raises(ValueError):
            TieRule.seeded(bad)
    with pytest.raises(ValueError):
        TieRule(mode="lowest", seed=5)
    assert TieRule.seeded(7).seed == 7
    assert TieRule.seeded(2**64 - 1).seed == 2**64 - 1


def test_tie_rule_refuses_scripted_mode():
    # replaying scripted winners is verify's private business; a public
    # "scripted" rule would break ties with an unseeded PRNG
    with pytest.raises(ValueError):
        TieRule(mode="scripted")


def test_seeded_ties_replay_identically():
    scenario = Scenario(
        tuple((f"p{i}", StepDensity.uniform()) for i in range(1, 4))
    )
    a = moving_knife(scenario, tie=TieRule.seeded(99))
    b = moving_knife(scenario, tie=TieRule.seeded(99))
    assert a == b


# Uniform p1 and a p2 centred on [1/4, 3/4]: unequal, with both medians at 1/2.
CENTRED_PAIR = pair(
    StepDensity.uniform(), StepDensity.of((0, "1/4", 0), ("1/4", "3/4", 2), ("3/4", 1, 0))
)


@pytest.mark.parametrize(
    "procedure, scenario",
    [("cut-choose", uniform_pair()), ("sp-e", CENTRED_PAIR), ("sp-p", CENTRED_PAIR)],
)
def test_tie_for_the_left_piece_is_picked_by_the_rule_and_recorded_once(procedure, scenario):
    # cut-choose with cutter p2 lists the chooser p1 first, as sp lists p1
    scripted = run_procedure(procedure, scenario, cutter="p2", tie=_ScriptRule(("p2",)))
    assert scripted.ordering == ("p2", "p1")
    assert scripted.tie_events == (TieEvent(HALF, ("p1", "p2"), "p2"),)
    lowest = run_procedure(procedure, scenario, cutter="p2", tie=TIE_LOWEST)
    assert lowest.ordering == ("p1", "p2")
    assert lowest.tie_events == (TieEvent(HALF, ("p1", "p2"), "p1"),)


# --- cut and choose ----------------------------------------------------------


def test_cut_and_choose_ce2(ce2):
    outcome = cut_and_choose(ce2, cutter="P1")
    assert outcome.cuts == (HALF,)
    values = declared_values(ce2, outcome.allocation)
    assert values == {"P1": HALF, "P2": HALF}
    # indifferent chooser takes the left piece
    assert outcome.ordering == ("P2", "P1")
    assert outcome.tie_events[0].tied == ("P2", "P1")


def test_cut_and_choose_ce1_horizontal(ce1_horizontal):
    outcome = cut_and_choose(ce1_horizontal, cutter="P1")
    assert outcome.cuts == (F(3, 4),)
    assert outcome.ordering == ("P2", "P1")
    values = declared_values(ce1_horizontal, outcome.allocation)
    assert values == {"P1": HALF, "P2": ONE}


def test_cut_and_choose_identical_uniform():
    outcome = cut_and_choose(uniform_pair(), cutter="p1")
    assert outcome.cuts == (HALF,)
    assert declared_values(uniform_pair(), outcome.allocation) == {
        "p1": HALF,
        "p2": HALF,
    }


def test_cut_and_choose_chooser_takes_strictly_better_side():
    chooser_density = StepDensity.of((0, HALF, "1/2"), (HALF, 1, "3/2"))
    outcome = cut_and_choose(pair(StepDensity.uniform(), chooser_density), cutter="p1")
    assert outcome.ordering == ("p1", "p2")
    assert outcome.tie_events == ()


def test_cut_and_choose_strict_refuses_plateau_median(ce2):
    with pytest.raises(NonUniqueMedianError) as err:
        cut_and_choose(ce2, cutter="P2", strict=True)
    assert err.value.code == "NON_UNIQUE_MEDIAN"
    assert err.value.interval == Interval(F(1, 4), F(3, 4))
    # lenient mode cuts at the plateau midpoint instead
    outcome = cut_and_choose(ce2, cutter="P2")
    assert outcome.cuts == (HALF,)


def test_cut_and_choose_needs_two_players(ce4):
    with pytest.raises(ValueError):
        cut_and_choose(ce4, cutter="P1")


def test_cut_choose_refuses_an_empty_cutter_name():
    # only an absent cutter defaults to the first player
    scenario = pair(StepDensity.of((0, HALF, 2), (HALF, 1, 0)), StepDensity.uniform())
    assert run_procedure("cut-choose", scenario) == cut_and_choose(scenario, "p1")
    assert run_procedure("cut-choose", scenario) != cut_and_choose(scenario, "p2")
    with pytest.raises(InvalidPlayersError, match="unknown cutter ''"):
        run_procedure("cut-choose", uniform_pair(), cutter="")


# --- moving knife -------------------------------------------------------------


def test_moving_knife_ce4(ce4):
    outcome = moving_knife(ce4)
    assert outcome.cuts == (F(1, 3), F(2, 3))
    assert outcome.ordering == ("P1", "P2", "P3")
    assert declared_values(ce4, outcome.allocation) == {
        "P1": F(1, 3),
        "P2": F(1, 3),
        "P3": F(1, 3),
    }


def test_moving_knife_two_uniform_tie_goes_to_first():
    scenario = uniform_pair()
    outcome = moving_knife(scenario)
    assert outcome.cuts == (HALF,)
    assert outcome.ordering == ("p1", "p2")
    assert outcome.tie_events[0].tied == ("p1", "p2")
    assert outcome.allocation.portion("p1").intervals[0] == Interval(ZERO, HALF)


def test_moving_knife_ce3_profile(ce3):
    # hand simulation: P2 calls at 1/9, then P1 at 5/9, remainder to P3
    outcome = moving_knife(ce3)
    assert outcome.cuts == (F(1, 9), F(5, 9))
    assert outcome.ordering == ("P2", "P1", "P3")
    values = declared_values(ce3, outcome.allocation)
    assert values == {"P1": F(4, 9), "P2": F(1, 3), "P3": ONE}
    assert all(v >= F(1, 3) for v in values.values())


def test_moving_knife_proportional_on_random_scenarios():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        scenario = random_scenario(rng, n)
        outcome = moving_knife(scenario)
        share = F(1, n)
        for name, value in declared_values(scenario, outcome.allocation).items():
            assert value >= share, (name, value)


def test_moving_knife_identical_measures_split_exactly():
    rng = random.Random(13)
    for _ in range(10):
        from helpers import random_density

        d = random_density(rng)
        n = rng.choice((2, 3, 4))
        scenario = Scenario(tuple((f"p{i}", d) for i in range(n)))
        outcome = moving_knife(scenario)
        for value in declared_values(scenario, outcome.allocation).values():
            assert value == F(1, n)


# --- surplus division ---------------------------------------------------------


def test_surplus_ce6_both_variants(ce6):
    for variant in (EQUITABLE, PROPORTIONAL):
        outcome = surplus_divide(ce6, variant)
        assert outcome.cuts == (HALF,)
        assert declared_values(ce6, outcome.allocation) == {"A": HALF, "B": HALF}
    assert surplus_divide(ce6, EQUITABLE).common_value == HALF


def test_surplus_uniform_pair():
    outcome = surplus_divide(uniform_pair())
    assert outcome.cuts == (HALF,)
    assert outcome.ordering == ("p1", "p2")


def test_surplus_refuses_an_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant 'utilitarian'"):
        surplus_divide(uniform_pair(), "utilitarian")


def test_surplus_strict_refuses_plateau_median(ce2):
    with pytest.raises(NonUniqueMedianError):
        surplus_divide(ce2, strict=True)


def test_surplus_equitable_worked_example():
    # medians 1/2 and 3/4; equal surplus shares force the cut at 2/3
    right_heavy = StepDensity.of((0, HALF, 0), (HALF, 1, 2))
    scenario = pair(StepDensity.uniform(), right_heavy)
    outcome = surplus_divide(scenario, EQUITABLE)
    assert outcome.cuts == (F(2, 3),)
    assert outcome.ordering == ("p1", "p2")
    assert outcome.common_value == F(2, 3)
    values = declared_values(scenario, outcome.allocation)
    assert values["p1"] == values["p2"] == F(2, 3)


def test_surplus_proportional_worked_example():
    right_heavy = StepDensity.of((0, HALF, 0), (HALF, 1, 2))
    scenario = pair(StepDensity.uniform(), right_heavy)
    outcome = surplus_divide(scenario, PROPORTIONAL)
    assert outcome.cuts == (F(5, 8),)
    values = declared_values(scenario, outcome.allocation)
    assert values == {"p1": F(5, 8), "p2": F(3, 4)}
    # equal fractions of each player's surplus value
    a, b = HALF, F(3, 4)
    cut = outcome.cuts[0]
    d1, d2 = scenario.density("p1"), scenario.density("p2")
    left_share = d1.mass(Interval(a, cut)) / d1.mass(Interval(a, b))
    right_share = d2.mass(Interval(cut, b)) / d2.mass(Interval(a, b))
    assert left_share == right_share


def test_surplus_degenerate_one_sided():
    # left player values nothing inside the surplus: the cut stays at their
    # median so the whole surplus goes to the player who wants it
    gap = StepDensity.of((0, "1/4", 2), ("1/4", "3/4", 0), ("3/4", 1, 2))
    right_heavy = StepDensity.of((0, HALF, 0), (HALF, 1, 2))
    outcome = surplus_divide(pair(gap, right_heavy), EQUITABLE)
    assert outcome.cuts == (HALF,)
    assert outcome.ordering == ("p1", "p2")
    mirrored = surplus_divide(pair(right_heavy, gap), EQUITABLE)
    assert mirrored.cuts == (HALF,)


def test_surplus_only_left_player_values_the_surplus():
    # medians 1/3 and 1/2; the right player values nothing on [1/3, 1/2],
    # so the whole surplus goes left and the cut moves to the right median
    front_heavy = StepDensity.of((0, "1/3", "3/2"), ("1/3", 1, "3/4"))
    gap = StepDensity.of((0, "1/4", 2), ("1/4", "3/4", 0), ("3/4", 1, 2))
    scenario = pair(front_heavy, gap)
    for variant in (EQUITABLE, PROPORTIONAL):
        outcome = surplus_divide(scenario, variant)
        assert outcome.cuts == (HALF,)
        assert outcome.ordering == ("p1", "p2")
        assert declared_values(scenario, outcome.allocation) == {"p1": F(5, 8), "p2": HALF}
    # mirrored: medians 1/2 and 2/3, the left player values nothing on
    # [1/2, 2/3], so the cut stays at the left median
    back_heavy = StepDensity.of((0, "2/3", "3/4"), ("2/3", 1, "3/2"))
    mirrored = pair(back_heavy, gap)
    for variant in (EQUITABLE, PROPORTIONAL):
        outcome = surplus_divide(mirrored, variant)
        assert outcome.cuts == (HALF,)
        assert outcome.ordering == ("p2", "p1")
        assert declared_values(mirrored, outcome.allocation) == {"p1": F(5, 8), "p2": HALF}


def test_surplus_degenerate_both_empty():
    gap = StepDensity.of((0, "1/4", 2), ("1/4", "3/4", 0), ("3/4", 1, 2))
    plateau_right = StepDensity.of((0, HALF, 1), (HALF, "3/4", 0), ("3/4", 1, 2))
    # medians land at 1/2 and 5/8, neither values [1/2, 5/8]
    scenario = pair(gap, plateau_right)
    outcome = surplus_divide(scenario, EQUITABLE)
    assert outcome.cuts == (F(9, 16),)


def test_surplus_equitable_shares_equal_on_random_pairs():
    rng = random.Random(29)
    for _ in range(30):
        scenario = random_scenario(rng, 2)
        outcome = surplus_divide(scenario, EQUITABLE)
        (n1, d1), (n2, d2) = scenario.players
        left, right = outcome.ordering
        a = scenario.density(left).median_interval().midpoint
        b = scenario.density(right).median_interval().midpoint
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        ml = scenario.density(left).mass(Interval(a, b))
        mr = scenario.density(right).mass(Interval(a, b))
        if ml > 0 and mr > 0:
            cut = outcome.cuts[0]
            assert scenario.density(left).mass(Interval(a, cut)) == scenario.density(
                right
            ).mass(Interval(cut, b))


@st.composite
def fine_grid_pairs(draw):
    """Two players, each with k equal-width pieces (k from 8 to 24) of
    integer weight 0-5, not all zero; zero weights give zero-density
    plateaus, so root intervals and plateau medians occur."""
    players = []
    for name in ("p1", "p2"):
        k = draw(st.integers(8, 24))
        weights = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any))
        total = sum(weights)
        density = StepDensity.of(
            *((F(j, k), F(j + 1, k), F(w * k, total)) for j, w in enumerate(weights))
        )
        players.append((name, density))
    return Scenario(tuple(players))


@settings(max_examples=150, deadline=None)
@given(fine_grid_pairs())
def test_surplus_cut_agrees_with_scan_oracle(scenario):
    medians = {
        name: (scan_quantile_left(density, HALF) + scan_plateau_end(density, HALF)) / 2
        for name, density in scenario.players
    }
    left, right = sorted(scenario.names, key=medians.get)
    a, b = medians[left], medians[right]
    left_density, right_density = scenario.density(left), scenario.density(right)
    assume(a < b)
    assume(scan_mass(left_density, a, b) > 0 and scan_mass(right_density, a, b) > 0)
    for variant in (EQUITABLE, PROPORTIONAL):
        outcome = surplus_divide(scenario, variant)
        assert outcome.ordering == (left, right)
        oracle = scan_surplus_cut(left_density, right_density, a, b, variant)
        assert outcome.cuts == (oracle,)


def test_surplus_cut_is_the_midpoint_of_a_root_interval():
    def eighths(*weights):
        return StepDensity.of(*((F(j, 8), F(j + 1, 8), w) for j, w in enumerate(weights)))

    p1 = eighths(F(16, 11), F(16, 11), 0, 0, 0, F(24, 11), F(8, 11), F(24, 11))
    p2 = eighths(0, F(8, 3), 0, F(8, 3), 0, 0, F(4, 3), F(4, 3))
    scenario = pair(p1, p2)
    # Medians 11/16 and 7/16, so the surplus is [7/16, 11/16]. Both
    # densities vanish on [1/2, 5/8], and every point of it equalizes the
    # proportional shares; the equitable root is a single point.
    proportional = surplus_divide(scenario, PROPORTIONAL)
    assert proportional.ordering == ("p2", "p1")
    assert proportional.cuts == (F(9, 16),)
    a, b = F(7, 16), F(11, 16)
    for root in (HALF, F(9, 16), F(5, 8)):
        assert scan_mass(p2, a, root) * scan_mass(p1, a, b) == scan_mass(
            p1, root, b
        ) * scan_mass(p2, a, b)
    equitable = surplus_divide(scenario, EQUITABLE)
    assert equitable.ordering == ("p2", "p1")
    assert equitable.cuts == (F(43, 88),)


# --- equal-value procedure -----------------------------------------------------


def test_equal_value_solve_examples(ce3, ce5):
    assert solve.equal_value_solve(ce3, ("P1", "P3", "P2")) is None
    solution = solve.equal_value_solve(ce3, ("P2", "P1", "P3"))
    assert (solution.cuts, solution.common_value) == ((F(1, 5), F(4, 5)), F(3, 5))
    solution = solve.equal_value_solve(ce5, ("A", "C", "B"))
    assert (solution.cuts, solution.common_value) == ((F(1, 3), F(2, 3)), F(9, 20))


def test_equitability_ce5(ce5):
    outcome = equitability(ce5)
    assert outcome.ordering == ("A", "C", "B")
    assert outcome.cuts == (F(1, 3), F(2, 3))
    assert outcome.common_value == F(9, 20)


def test_equitability_ce3_strict_names_infeasible_orderings(ce3):
    with pytest.raises(EPUndefinedError) as err:
        equitability(ce3, strict=True)
    assert ("P1", "P3", "P2") in err.value.infeasible_orderings
    assert err.value.code == "EP_UNDEFINED"


@st.composite
def positive_scenarios(draw):
    """n = 2 to 4 players on the 1/24 grid, every density positive."""
    n = draw(st.integers(2, 4))
    return Scenario(
        tuple((f"p{i + 1}", draw_grid_density(draw, 24, min_weight=1)) for i in range(n))
    )


@settings(max_examples=100, deadline=None)
@given(positive_scenarios())
def test_equitability_strict_never_raises_on_positive_densities(scenario):
    # The salvaged CE3 claim: with no zero-density span, every ordering has
    # an equal-value solution, so strict mode finds no infeasible ordering.
    outcome = equitability(scenario, strict=True)
    values = declared_values(scenario, outcome.allocation)
    assert set(values.values()) == {outcome.common_value}


def test_equitability_ce3_lenient(ce3):
    outcome = equitability(ce3)
    assert outcome.ordering == ("P2", "P1", "P3")
    assert outcome.common_value == F(3, 5)
    assert outcome.cuts == (F(1, 5), F(4, 5))


def test_equitability_lenient_maximizes_common_value(ce3, ce5):
    import itertools

    rng = random.Random(71)
    randoms = [random_scenario(rng, n, max_pieces=3) for n in (2, 3, 4)]
    for scenario in (ce3, ce5, *randoms):
        best = equitability(scenario).common_value
        for perm in itertools.permutations(range(scenario.n)):
            solution = solve.equal_value_solve(scenario, perm)
            if solution is not None:
                assert solution.common_value <= best


def test_equitability_identical_players_prefers_lexicographic():
    scenario = Scenario(
        tuple((f"p{i}", StepDensity.uniform()) for i in range(1, 4))
    )
    outcome = equitability(scenario)
    assert outcome.ordering == ("p1", "p2", "p3")
    assert outcome.common_value == F(1, 3)


@st.composite
def ep_scenarios(draw, min_n=2, max_n=4):
    """n = min_n to max_n players on a coarse common grid, with zero
    weights. The pool of distinct densities may be smaller than n: a pool
    of n - 1 repeats one density, a pool of one makes every player
    identical."""
    n = draw(st.integers(min_n, max_n))
    grid = draw(st.sampled_from((4, 6, 12)))
    sizes = sorted({1, n - 1, n})
    pool = [draw_grid_density(draw, grid) for _ in range(draw(st.sampled_from(sizes)))]
    densities = pool + [draw(st.sampled_from(pool)) for _ in range(n - len(pool))]
    order = draw(st.permutations(range(n)))
    return Scenario(tuple((f"p{i + 1}", densities[j]) for i, j in enumerate(order)))


def _assert_ep_search_matches_exhaustive_oracle(scenario):
    try:
        expected = exhaustive_ep_best(scenario)
    except NoFeasibleOrderingError:
        with pytest.raises(NoFeasibleOrderingError):
            _ep_search(scenario)
        with pytest.raises(NoFeasibleOrderingError):
            _ep_search(scenario, walk_all=True)
        return
    tied, _ = _ep_search(scenario)
    assert [(names, s.cuts, s.common_value) for names, s in tied] == expected
    outcome = equitability(scenario)
    assert (outcome.ordering, outcome.cuts, outcome.common_value) == expected[0]
    # The full walk ties the same orderings and names every infeasible one.
    full_tied, infeasible = _ep_search(scenario, walk_all=True)
    assert full_tied == tied
    assert infeasible == [
        tuple(scenario.names[i] for i in perm)
        for perm in permutations(range(scenario.n))
        if solve.equal_value_solve(scenario, perm) is None
    ]


@settings(max_examples=200, deadline=None)
@given(ep_scenarios())
def test_pruned_ep_search_matches_exhaustive_oracle(scenario):
    _assert_ep_search_matches_exhaustive_oracle(scenario)


@settings(max_examples=30, deadline=None)
@given(ep_scenarios(5, 5))
def test_pruned_ep_search_matches_exhaustive_oracle_for_five_players(scenario):
    _assert_ep_search_matches_exhaustive_oracle(scenario)


def test_pruned_ep_search_raises_when_no_ordering_is_feasible():
    # p1 and p3 value only [0, 1/4]. After p2's cut neither values anything
    # left, and with p2 last they reach at most 1/2 each while p2's piece is
    # worth 1 to p2, so every ordering is infeasible.
    front = StepDensity.of((0, "1/4", 4), ("1/4", 1, 0))
    back = StepDensity.of((0, "1/4", 0), ("1/4", "1/2", "4/5"), ("1/2", "3/4", "6/5"), ("3/4", 1, 2))
    scenario = Scenario((("p1", front), ("p2", back), ("p3", front)))
    with pytest.raises(NoFeasibleOrderingError):
        exhaustive_ep_best(scenario)
    with pytest.raises(NoFeasibleOrderingError):
        _ep_search(scenario)
    with pytest.raises(NoFeasibleOrderingError):
        equitability(scenario)


def _count_walks(monkeypatch):
    """Record (ordering, start, solution) for every equal-value walk."""
    calls = []
    walk = solve.equal_value_solve

    def counted(scenario, ordering, **kwargs):
        solution = walk(scenario, ordering, **kwargs)
        calls.append((ordering, kwargs.get("start", ZERO), solution))
        return solution

    monkeypatch.setattr(solve, "equal_value_solve", counted)
    return calls


def test_lenient_equitability_walks_identical_players_once(monkeypatch):
    scenario = Scenario(tuple((f"p{i}", StepDensity.uniform()) for i in range(1, 4)))
    calls = _count_walks(monkeypatch)
    outcome = equitability(scenario)
    assert len(calls) == 1
    assert outcome.cuts == (F(1, 3), F(2, 3))
    assert len(_ep_search(scenario)[0]) == 6


def test_strict_and_full_ep_search_walk_every_ordering(monkeypatch, ce3):
    calls = _count_walks(monkeypatch)
    tied, infeasible = _ep_search(ce3, walk_all=True)
    assert len(calls) == 6
    assert ("P1", "P3", "P2") in infeasible
    with pytest.raises(EPUndefinedError) as err:
        equitability(ce3, strict=True)
    assert len(calls) == 12
    assert err.value.infeasible_orderings == tuple(infeasible)
    assert tied[0][0] == equitability(ce3).ordering
    # A walk from the best value so far would call the orderings whose
    # root lies below it infeasible, so these walks all start at 0.
    assert all(start == 0 for _, start, _ in calls)
    assert infeasible == [
        ("P1", "P2", "P3"),
        ("P1", "P3", "P2"),
        ("P3", "P1", "P2"),
        ("P3", "P2", "P1"),
    ]


def test_pruned_ep_search_walks_from_the_best_value_so_far(monkeypatch, ce3, ce5):
    calls = _count_walks(monkeypatch)
    rng = random.Random(13)
    scenarios = [ce3, ce5] + [random_scenario(rng, rng.choice((3, 4))) for _ in range(40)]
    warm = 0
    for scenario in scenarios:
        calls.clear()
        try:
            _ep_search(scenario)
        except NoFeasibleOrderingError:
            pass
        # Chains settle ties and losers without moving the best value, so
        # the best value at each walk is the largest root walked before it.
        best = None
        for _, start, solution in calls:
            assert start == (ZERO if best is None else best)
            if solution is not None:
                assert solution.common_value > start
                best = solution.common_value
            warm += start > 0
    assert warm > 0


def test_lenient_search_asks_quantiles_only_to_check_walked_roots(monkeypatch):
    # Chains at the best value and the walks' root checks run on the
    # integer cut kernel, so the search asks no public quantile, and it
    # leaves nothing on a density beyond its cached index and verdict.
    calls = _count_walks(monkeypatch)
    queries = []
    quantile = StepDensity.quantile

    def counted(density, *args, **kwargs):
        queries.append(args)
        return quantile(density, *args, **kwargs)

    monkeypatch.setattr(StepDensity, "quantile", counted)
    rng = random.Random(20)
    settled = 0
    for n, k in ((3, 8), (3, 16), (3, 24), (4, 8), (4, 12), (5, 8)):
        for _ in range(3):
            scenario = fine_grid_scenario(rng, n, k)
            calls.clear()
            queries.clear()
            try:
                _ep_search(scenario)
            except NoFeasibleOrderingError:
                pass
            assert len(queries) == 0
            settled += factorial(n) - len(calls)
            for _, density in scenario.players:
                assert set(vars(density)) == {"pieces", "_rows", "_violations"}
    assert settled > 0


# --- shared outcome invariants --------------------------------------------------


def test_contiguous_allocation_refuses_unsorted_cuts_and_empties_equal_ones():
    with pytest.raises(AllocationError):
        contiguous_allocation(("p1", "p2", "p3"), (F(2, 3), F(1, 3)))
    allocation = contiguous_allocation(("p1", "p2", "p3"), (HALF, HALF))
    assert allocation.portion("p2").is_empty
    assert allocation.portion("p1").intervals == (Interval(ZERO, HALF),)
    assert allocation.portion("p3").intervals == (Interval(HALF, ONE),)


def test_outcomes_partition_the_cake_exactly():
    rng = random.Random(41)
    for _ in range(20):
        scenario = random_scenario(rng, rng.choice((2, 3)))
        outcomes = [moving_knife(scenario)]
        if scenario.n == 2:
            outcomes.append(cut_and_choose(scenario, cutter=scenario.names[0]))
            outcomes.append(surplus_divide(scenario, EQUITABLE))
            outcomes.append(surplus_divide(scenario, PROPORTIONAL))
        for outcome in outcomes:
            assert list(outcome.cuts) == sorted(outcome.cuts)
            for _, measure in scenario.players:
                total = sum(
                    (measure.mass(outcome.allocation.portion(name)) for name in scenario.names),
                    ZERO,
                )
                assert total == ONE


def test_run_procedure_dispatch(ce6):
    assert run_procedure("sp-e", ce6).cuts == (HALF,)
    assert run_procedure("moving-knife", ce6).cuts is not None
    with pytest.raises(ValueError):
        run_procedure("guess", ce6)

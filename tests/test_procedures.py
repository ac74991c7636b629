import random
from fractions import Fraction as F
from itertools import permutations
from math import factorial

import pytest
from hypothesis import assume, example, given, settings
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
    tie_outcomes,
)
from fairslice import measures, procedures, solve
from fairslice.procedures import TIE_LOWEST, TieEvent, _ep_search, _outcome
from helpers import (
    ScriptRule,
    count_queries,
    count_walks,
    draw_grid_density,
    exhaustive_ep_best,
    fine_grid_scenario,
    fresh_tie_outcomes,
    one_cut_dominated,
    random_scenario,
    scan_greedy_cuts,
    scan_mass,
    scan_moving_knife,
    scan_plateau_end,
    scan_quantile_left,
    scan_surplus_cut,
    traced_peak_mb,
    weighted_density,
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
    scripted = run_procedure(procedure, scenario, cutter="p2", tie=ScriptRule(("p2",)))
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


def test_moving_knife_walk_is_not_bounded_by_the_recursion_limit():
    # More players than CPython's default recursion limit of 1,000: every
    # step is a tie of all the players left, and the run takes each in turn.
    n = 1100
    uniform = StepDensity.uniform()
    scenario = Scenario(tuple((f"p{i}", uniform) for i in range(n)))
    outcome = moving_knife(scenario)
    assert outcome.cuts == tuple(F(k, n) for k in range(1, n))
    assert outcome.ordering == scenario.names


def test_moving_knife_plain_run_holds_one_path():
    # 400 players who all hold one density tie at every step, so a plain
    # run takes 399 tied steps and draws no other branch. Its answer's tie
    # events alone name n(n + 1)/2 - 1 = 80,199 players; the walk adds a
    # stack entry per tied step and no copy of its path.
    n = 400
    uniform = StepDensity.uniform()
    scenario = Scenario(tuple((f"p{i}", uniform) for i in range(n)))
    assert traced_peak_mb(lambda: moving_knife(scenario)) < 2


@st.composite
def knife_cases(draw):
    """Two to five players on fine grids (k from 4 to 24) of integer
    weights 0-3, not all zero, so zero-density plateaus occur. Players draw
    their densities from a smaller pool, so some share one density object,
    and some hold an equal copy; a seeded tie rule."""
    n = draw(st.integers(2, 5))
    pool = []
    for _ in range(draw(st.integers(1, n))):
        k = draw(st.sampled_from((4, 6, 8, 12, 24)))
        weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        total = sum(weights)
        pool.append(StepDensity.of(
            *((F(j, k), F(j + 1, k), F(w * k, total)) for j, w in enumerate(weights))
        ))
    players = []
    for i in range(n):
        density = pool[draw(st.integers(0, len(pool) - 1))]
        if draw(st.booleans()):
            density = StepDensity(density.pieces)
        players.append((f"p{i + 1}", density))
    return Scenario(tuple(players)), TieRule.seeded(draw(st.integers(0, 2**64 - 1)))


def knife_branch(outcome):
    events = tuple((event.location, event.tied, event.winner) for event in outcome.tie_events)
    return outcome.cuts, outcome.ordering, events


@settings(max_examples=100, deadline=None)
@given(knife_cases())
def test_moving_knife_tie_branches_agree_with_scan_oracle(case):
    """Every outcome the knife reaches across tie resolutions, each run on
    a fresh scenario or all replayed on one, is a branch of the scan
    oracle, cuts, ordering and tie sets alike, and every branch is reached
    exactly once."""
    scenario, tie = case
    branches = scan_moving_knife(scenario)
    assert len(set(branches)) == len(branches)
    fresh = [knife_branch(o) for o in fresh_tie_outcomes("moving-knife", scenario, tie)]
    assert sorted(fresh) == sorted(branches)
    replayed = list(tie_outcomes("moving-knife", scenario, tie=tie))
    assert sorted(knife_branch(o) for o in replayed) == sorted(branches)
    # The one walk yields the fresh runs' outcomes in their order.
    assert replayed == fresh_tie_outcomes("moving-knife", scenario, tie)


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


@st.composite
def random_pairs(draw):
    """Two players from ``random_scenario``: up to eight pieces with breaks
    drawn from ``BREAK_POOL``, not a common grid, and zero weights allowed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_scenario(rng, 2, max_pieces=draw(st.integers(2, 8)))


def eighths_plateau_pair():
    """Medians 11/16 and 7/16, each inside a piece. Both densities vanish
    on [1/2, 5/8], every point of which balances the proportional shares."""
    def eighths(*weights):
        return StepDensity.of(*((F(j, 8), F(j + 1, 8), w) for j, w in enumerate(weights)))

    p1 = eighths(F(16, 11), F(16, 11), 0, 0, 0, F(24, 11), F(8, 11), F(24, 11))
    p2 = eighths(0, F(8, 3), 0, F(8, 3), 0, 0, F(4, 3), F(4, 3))
    return pair(p1, p2)


def valued_surplus(scenario):
    """(left, right, a, b) from scan medians when both players value the
    surplus [a, b], so the surplus cut runs; None otherwise."""
    medians = {
        name: (scan_quantile_left(density, HALF) + scan_plateau_end(density, HALF)) / 2
        for name, density in scenario.players
    }
    left, right = sorted(scenario.names, key=medians.get)
    a, b = medians[left], medians[right]
    if a < b and all(scan_mass(scenario.density(name), a, b) > 0 for name in (left, right)):
        return left, right, a, b
    return None


def assert_surplus_cuts_match_oracle(scenario, left, right, a, b):
    for variant in (EQUITABLE, PROPORTIONAL):
        outcome = surplus_divide(scenario, variant)
        assert outcome.ordering == (left, right)
        oracle = scan_surplus_cut(scenario.density(left), scenario.density(right), a, b, variant)
        assert outcome.cuts == (oracle,)


@settings(max_examples=200, deadline=None)
@given(st.one_of(fine_grid_pairs(), random_pairs()))
@example(eighths_plateau_pair())
def test_surplus_cut_agrees_with_scan_oracle(scenario):
    surplus = valued_surplus(scenario)
    assume(surplus is not None)
    assert_surplus_cuts_match_oracle(scenario, *surplus)


@pytest.mark.parametrize("seed", range(3))
def test_surplus_cut_agrees_with_scan_oracle_on_256_piece_grids(seed):
    scenario = fine_grid_scenario(random.Random(seed), 2, 256)
    surplus = valued_surplus(scenario)
    assert surplus is not None
    assert_surplus_cuts_match_oracle(scenario, *surplus)


def test_surplus_divide_builds_no_piece_or_density(monkeypatch):
    """Once the densities exist, both variants run, the surplus cut
    included, without building a Piece or a StepDensity."""
    rng = random.Random(41)
    scenarios = [eighths_plateau_pair()]
    scenarios += [fine_grid_scenario(rng, 2, rng.choice((8, 24))) for _ in range(20)]
    scenarios += [random_scenario(rng, 2, max_pieces=6) for _ in range(20)]
    assert sum(valued_surplus(scenario) is not None for scenario in scenarios) >= 20
    variants = (EQUITABLE, PROPORTIONAL)
    expected = [surplus_divide(Scenario(s.players), v) for s in scenarios for v in variants]

    def refuse(*args, **kwargs):
        raise AssertionError("the surplus procedure built a Piece or a StepDensity")

    monkeypatch.setattr(measures.Piece, "__post_init__", refuse)
    monkeypatch.setattr(measures.StepDensity, "__init__", refuse)
    assert [surplus_divide(s, v) for s in scenarios for v in variants] == expected
    assert [outcome.cuts for outcome in expected[:2]] == [(F(43, 88),), (F(9, 16),)]


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
def positive_scenarios(draw, most=4):
    """n = 2 to ``most`` players on the 1/24 grid, every density positive."""
    n = draw(st.integers(2, most))
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


@settings(max_examples=40, deadline=None)
@given(positive_scenarios(most=5))
def test_strict_ep_equals_lenient_ep_on_positive_densities(scenario):
    # The lemma in _ep_search: with no zero-density piece the full walk
    # finds no infeasible ordering, so the pruned strict search loses none.
    tied, infeasible = _ep_search(scenario, walk_all=True)
    assert infeasible == []
    assert _ep_search(scenario, strict=True) == _ep_search(scenario) == (tied, [])
    assert equitability(scenario, strict=True) == equitability(scenario)


@settings(max_examples=100, deadline=None)
@given(positive_scenarios(most=2))
def test_two_player_outcomes_on_positive_densities_are_not_one_cut_dominated(scenario):
    # Lemma 2: with strictly positive densities no proportional one-cut
    # outcome is dominated by a one-cut allocation, and every outcome here
    # is proportional, ep's too, its best value being at least 1/2.
    for name in ("cut-choose", "moving-knife", "sp-e", "sp-p", "ep"):
        for outcome in tie_outcomes(name, scenario):
            assert not one_cut_dominated(scenario, outcome), name


def test_one_cut_oracle_finds_a_dominated_outcome_on_a_zero_weight_grid():
    # The cutter values nothing on [1/4, 3/4] and cuts mid-plateau at 1/2.
    # The uniform chooser is indifferent and takes the left piece; a cut at
    # 3/4 would give the chooser 3/4 and still leave the cutter 1/2.
    quarters = [F(j, 4) for j in range(5)]
    scenario = pair(weighted_density(quarters, [1, 0, 0, 1]), StepDensity.uniform())
    outcome = cut_and_choose(scenario, "p1")
    assert (outcome.ordering, outcome.cuts) == (("p2", "p1"), (HALF,))
    assert one_cut_dominated(scenario, outcome)
    assert not one_cut_dominated(scenario, _outcome(("p2", "p1"), (F(3, 4),)))


def test_strict_ep_walks_every_ordering_once_a_piece_has_zero_density(monkeypatch, ce3):
    calls = count_walks(monkeypatch)
    positive = StepDensity.of((0, "1/2", "1/2"), ("1/2", 1, "3/2"))
    one_zero = StepDensity.of((0, "1/4", 0), ("1/4", 1, "4/3"))
    scenario = Scenario((("a", positive), ("b", StepDensity.uniform()), ("c", one_zero)))
    assert equitability(scenario, strict=True) == equitability(scenario)
    strict_walks = calls[: factorial(3)]
    assert sorted(ordering for ordering, _, _ in strict_walks) == list(permutations(range(3)))
    assert all(start == 0 for _, start, _ in strict_walks)
    calls.clear()
    with pytest.raises(EPUndefinedError) as err:
        equitability(ce3, strict=True)
    assert len(calls) == factorial(3)
    assert err.value.infeasible_orderings == (
        ("P1", "P2", "P3"),
        ("P1", "P3", "P2"),
        ("P3", "P1", "P2"),
        ("P3", "P2", "P1"),
    )


def test_strict_ep_prunes_its_walks_on_positive_densities(monkeypatch):
    scenario = Scenario(tuple(
        (f"p{i + 1}", StepDensity.of((0, "1/2", F(2 * w, w + 1)), ("1/2", 1, F(2, w + 1))))
        for i, w in enumerate((1, 2, 3, 5))
    ))
    calls = count_walks(monkeypatch)
    strict = equitability(scenario, strict=True)
    strict_walks = len(calls)
    calls.clear()
    assert equitability(scenario) == strict
    assert strict_walks == len(calls) < factorial(4)


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


def test_lenient_equitability_settles_identical_players_without_a_walk(monkeypatch):
    # Identical players meet at the floor 1/n, so each chain there gives
    # L = 1/n and settles its ordering with no walk.
    scenario = Scenario(tuple((f"p{i}", StepDensity.uniform()) for i in range(1, 4)))
    calls = count_walks(monkeypatch)
    outcome = equitability(scenario)
    assert len(calls) == 0
    assert outcome.cuts == (F(1, 3), F(2, 3))
    assert len(_ep_search(scenario)[0]) == 6


def test_strict_and_full_ep_search_walk_every_ordering(monkeypatch, ce3):
    calls = count_walks(monkeypatch)
    tied, infeasible = _ep_search(ce3, walk_all=True)
    assert len(calls) == 6
    assert ("P1", "P3", "P2") in infeasible
    with pytest.raises(EPUndefinedError) as err:
        equitability(ce3, strict=True)
    assert len(calls) == 12
    assert err.value.infeasible_orderings == tuple(infeasible)
    # A walk from the best value so far would call the orderings whose
    # root lies below it infeasible, so these walks all start at 0.
    assert all(start == 0 for _, start, _ in calls)
    assert infeasible == [
        ("P1", "P2", "P3"),
        ("P1", "P3", "P2"),
        ("P3", "P1", "P2"),
        ("P3", "P2", "P1"),
    ]
    lenient_tied, lenient_infeasible = _ep_search(ce3)
    assert lenient_tied == tied
    assert tied[0][0] == equitability(ce3).ordering
    # The pruned search walks only the orderings whose chain at 1/3 or at
    # t* leaves the root above it, and on CE3 each such walk finds it.
    assert lenient_infeasible == []


def test_pruned_ep_search_walks_from_the_best_value_so_far(monkeypatch, ce3, ce5):
    calls = count_walks(monkeypatch)
    rng = random.Random(13)
    scenarios = [ce3, ce5, *_below_the_floor_scenarios()]
    scenarios += [random_scenario(rng, rng.choice((3, 4))) for _ in range(40)]
    raised = fallbacks = 0
    for scenario in scenarios:
        calls.clear()
        try:
            _ep_search(scenario)
        except NoFeasibleOrderingError:
            pass
        # Chains settle ties and losers without moving the best value, so
        # each walk starts at the largest root walked before it, or at the
        # floor 1/n before any root. Only a floor pass with no root is
        # followed by the pass with no floor, whose first walk starts at 0.
        floor = F(1, scenario.n)
        best = floor
        for ordering, start, solution in calls:
            if start == 0:
                assert _ordering_below_the_floor(scenario, ordering)
                if best == floor:
                    fallbacks += 1
                    best = None
            assert start == (ZERO if best is None else best)
            if solution is not None:
                assert solution.common_value > start
                best = solution.common_value
            raised += start > floor
    assert raised > 0 and fallbacks > 0


def _ordering_below_the_floor(scenario, perm):
    """Whether the ordering has no root at or above 1/n: its chain there
    fails or leaves the last piece less than 1/n (scan oracle)."""
    floor = F(1, scenario.n)
    cuts = scan_greedy_cuts(scenario, perm, floor)
    return cuts is None or scan_mass(scenario.players[perm[-1]][1], cuts[-1], ONE) < floor


def _below_the_floor_scenarios():
    """Two scenarios whose best common value lies below 1/n: two players
    on thirds, and two players holding all their value on [0, 1/3] with a
    third, uniform one."""
    thirds = [ZERO, F(1, 3), F(2, 3), ONE]
    two = pair(weighted_density(thirds, [0, 3, 0]), weighted_density(thirds, [2, 0, 1]))
    front = StepDensity.of((0, "1/3", 3), ("1/3", 1, 0))
    three = Scenario((("p1", front), ("p2", front), ("p3", StepDensity.uniform())))
    return two, three


def test_pruned_ep_search_walks_from_zero_only_when_no_ordering_reaches_the_floor(monkeypatch):
    # Both best values lie below 1/n. The floor pass walks from 1/n only the
    # orderings whose chain there leaves L > 1/n, and no such walk finds a
    # root. The pass with no floor then walks the deferred orderings, the
    # first from 0, and a chain at t* settles the others.
    calls = count_walks(monkeypatch)
    two, three = _below_the_floor_scenarios()
    pinned = [
        (two, [((1, 0), HALF, None), ((0, 1), ZERO, F(1, 3))], [("p2", "p1")]),
        (
            three,
            [((0, 1, 2), F(1, 3), None), ((1, 0, 2), F(1, 3), None), ((0, 2, 1), ZERO, F(1, 5))],
            [("p1", "p2", "p3"), ("p2", "p1", "p3")],
        ),
    ]
    for scenario, walks, named in pinned:
        calls.clear()
        tied, infeasible = _ep_search(scenario)
        expected = exhaustive_ep_best(scenario)
        assert [(names, s.cuts, s.common_value) for names, s in tied] == expected
        assert [
            (ordering, start, None if solution is None else solution.common_value)
            for ordering, start, solution in calls
        ] == walks
        assert infeasible == named
    assert equitability(two) == _outcome(("p1", "p2"), (F(4, 9),), F(1, 3))
    assert len(_ep_search(three)[0]) == 4


@settings(max_examples=100, deadline=None)
@given(ep_scenarios(), st.fractions(0, 1, max_denominator=48))
def test_walk_from_any_start_returns_the_root_above_it(scenario, drawn):
    # The contract the floor relies on: a walk from s returns the from-0
    # solution when that root lies above s, and None otherwise, for s = 0,
    # 1/n, the root itself and a drawn rational. So a walk from 1/n that
    # returns None leaves no root above 1/n, nor, with L(1/n) > 1/n, below.
    for perm in permutations(range(scenario.n)):
        solution = solve.equal_value_solve(scenario, perm)
        starts = {ZERO, F(1, scenario.n), drawn}
        if solution is not None:
            starts.add(solution.common_value)
        for start in starts:
            above = solution is not None and solution.common_value > start
            expected = solution if above else None
            assert solve.equal_value_solve(scenario, perm, start=start) == expected


def test_lenient_search_asks_quantiles_only_to_check_walked_roots(monkeypatch):
    # Chains at the best value and the walks' root checks run on the
    # integer cut kernel, so the search asks no public quantile, and it
    # leaves nothing on a density beyond its cached index and verdict.
    calls = count_walks(monkeypatch)
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


# --- query counts --------------------------------------------------------------


def positive_grid_scenarios(seed, n):
    """40 scenarios of n players on strictly positive fine grids, each
    player holding a density object of their own."""
    rng = random.Random(seed)
    return [
        fine_grid_scenario(rng, n, rng.choice((4, 8, 24, 64)), min_weight=1) for _ in range(40)
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_moving_knife_query_counts_on_distinct_densities(n, monkeypatch):
    # Each step asks every player left for one call: n + (n - 1) + ... + 2
    # cut queries, the Dubins-Spanier count. Each call reads the mass left
    # of the knife, and each cut from a knife past 0 reads it once more.
    scenarios = positive_grid_scenarios(n, n)
    calls = count_queries(monkeypatch, "_cut", "_mass_left")
    for scenario in scenarios:
        calls.update(dict.fromkeys(calls, 0))
        moving_knife(scenario)
        assert calls == {"_cut": n * (n + 1) // 2 - 1, "_mass_left": n * n - 2}


@pytest.mark.parametrize("procedure", ["cut-choose", "sp-e", "sp-p"])
def test_two_player_query_counts(procedure, monkeypatch):
    # Each median interval is two cuts. Cut and choose reads the chooser's
    # value of the left piece once. Surplus division reads each player's
    # mass of the surplus (two ends each) and of their piece; when the
    # medians coincide there is no surplus, and only the pieces are read.
    cases = []
    for scenario in positive_grid_scenarios(7, 2):
        density = scenario.density("p1")
        a, b = (scenario.density(name).median_interval().midpoint for name in ("p1", "p2"))
        cases += [
            (scenario, 2, a != b),
            (pair(density, StepDensity(density.pieces)), 2, False),
            (pair(density, density), 1, False),
        ]
    assert any(differ for _, _, differ in cases)
    calls = count_queries(monkeypatch, "_cut", "_mass_left", "median_interval")
    for scenario, medians, differ in cases:
        calls.update(dict.fromkeys(calls, 0))
        run_procedure(procedure, scenario)
        if procedure == "cut-choose":
            expected = {"_cut": 2, "_mass_left": 1, "median_interval": 1}
        else:
            mass_left = 6 if differ else 2
            expected = {"_cut": 2 * medians, "_mass_left": mass_left, "median_interval": medians}
        assert calls == expected, scenario


# --- shared outcome invariants --------------------------------------------------


def test_contiguous_allocation_refuses_unsorted_cuts_and_empties_equal_ones():
    with pytest.raises(AllocationError):
        contiguous_allocation(("p1", "p2", "p3"), (F(2, 3), F(1, 3)))
    allocation = contiguous_allocation(("p1", "p2", "p3"), (HALF, HALF))
    assert allocation.portion("p2").is_empty
    assert allocation.portion("p1").intervals == (Interval(ZERO, HALF),)
    assert allocation.portion("p3").intervals == (Interval(HALF, ONE),)


def refuse_to_build(ordering, cuts):
    raise AssertionError("an outcome built its allocation before it was read")


@pytest.mark.parametrize(
    "ordering, cuts",
    [
        (("p1", "p2", "p3"), (F(2, 3), F(1, 3))),
        (("p1", "p2"), (F(3, 2),)),
        (("p1", "p2"), (F(-1, 2),)),
        (("p1", "p2", "p3"), (HALF,)),
        (("p1", "p2"), (F(1, 3), F(2, 3))),
        (("p1", "p2", "p1"), (F(1, 3), F(2, 3))),
    ],
    ids=["unsorted", "past-one", "negative", "owner-too-many", "owner-too-few", "repeated-owner"],
)
def test_outcome_refuses_bad_cuts_and_owners_without_building_the_allocation(
    ordering, cuts, monkeypatch
):
    monkeypatch.setattr(procedures, "contiguous_allocation", refuse_to_build)
    with pytest.raises(AllocationError):
        _outcome(ordering, cuts)


def test_outcome_builds_its_allocation_once_when_read(monkeypatch):
    built = []

    def counted(ordering, cuts):
        built.append((ordering, cuts))
        return contiguous_allocation(ordering, cuts)

    monkeypatch.setattr(procedures, "contiguous_allocation", counted)
    outcome = _outcome(["p2", "p1", "p3"], [ZERO, HALF])
    assert built == []
    assert outcome.allocation is outcome.allocation
    assert built == [(("p2", "p1", "p3"), (ZERO, HALF))]
    assert outcome.allocation == contiguous_allocation(("p2", "p1", "p3"), (ZERO, HALF))


def test_equal_outcomes_compare_and_hash_equal_whether_or_not_read():
    def make():
        event = TieEvent(F(1, 3), ("p1", "p3"), "p3")
        return _outcome(("p3", "p1", "p2"), (F(1, 3), F(1, 3)), F(1, 3), (event,))

    read, unread, also_read = make(), make(), make()
    read.allocation
    also_read.allocation
    for other in (unread, also_read):
        assert read == other and hash(read) == hash(other)
        assert repr(read) == repr(other)
    assert unread == make() and hash(unread) == hash(make())
    assert read != _outcome(("p3", "p2", "p1"), (F(1, 3), F(1, 3)), F(1, 3))


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

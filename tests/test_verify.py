import copy
import itertools
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairslice import (
    Allocation,
    FairsliceError,
    Interval,
    IntervalSet,
    InvalidPlayersError,
    NoFeasibleOrderingError,
    NonUniqueMedianError,
    Scenario,
    StepDensity,
    TieRule,
    contiguous_allocation,
    cut_and_choose,
    declared_values,
    envy_free_check,
    equitability,
    moving_knife,
    pareto_optimal_check,
    proportional_check,
    run_procedure,
    surplus_divide,
    theorem_a_check,
    tie_outcomes,
    weak_manipulation_search,
)
from fairslice import procedures, solve, verify
from fairslice.harness import ce5_block_allocation, ce6_block_allocation
from fairslice.procedures import TIE_LOWEST, _outcome
from helpers import (
    QUARTER_POOL,
    count_queries,
    count_walks,
    draw_long_density,
    fine_grid_scenario,
    fresh_tie_outcomes,
    random_allocation,
    random_density,
    random_scenario,
    traced_peak_mb,
)

ZERO, ONE, HALF = F(0), F(1), F(1, 2)


def everything_to_first(scenario):
    portions = {name: IntervalSet() for name in scenario.names}
    portions[scenario.names[0]] = IntervalSet.of((0, 1))
    return Allocation.of(portions)


def ce2_p2_density():
    return StepDensity.of((0, "1/4", 2), ("1/4", "3/4", 0), ("3/4", 1, 2))


# --- truth profiles ------------------------------------------------------------


def test_truth_profile_checks_names(ce2):
    halves = contiguous_allocation(("P1", "P2"), (HALF,))
    reordered = Scenario.of({"P2": StepDensity.uniform(), "P1": StepDensity.uniform()})
    other = Scenario.of({"X": StepDensity.uniform()})
    assert issubclass(InvalidPlayersError, ValueError)
    for check in (proportional_check, envy_free_check, pareto_optimal_check):
        assert check(ce2, halves, reordered).values == {"P1": HALF, "P2": HALF}
        with pytest.raises(InvalidPlayersError):
            check(ce2, halves, other)


@pytest.mark.parametrize("case", ["ce2-cut-choose", "ce5-ep"])
def test_truth_scoring_ignores_truth_player_order(case, ce2, ce5):
    # the LP's column order fixes Bland's pivots and so the witness; a truth
    # listing the players in another order must score as the scenario order
    if case == "ce2-cut-choose":
        scenario, allocation = ce2, cut_and_choose(ce2, "P1").allocation
    else:
        scenario, allocation = ce5, equitability(ce5).allocation
    reversed_truth = Scenario(tuple(reversed(scenario.players)))
    ordered = pareto_optimal_check(scenario, allocation, scenario)
    flipped = pareto_optimal_check(scenario, allocation, reversed_truth)
    assert not ordered.passed and flipped.passed == ordered.passed
    assert list(flipped.values.items()) == list(ordered.values.items())
    assert list(flipped.witness.value_vector.items()) == list(
        ordered.witness.value_vector.items()
    )
    assert flipped.witness.allocation == ordered.witness.allocation


# --- proportionality ------------------------------------------------------------


@pytest.mark.parametrize(
    "check",
    [
        proportional_check,
        envy_free_check,
        pareto_optimal_check,
        solve.pareto_improve,
        solve.pareto_weights,
    ],
)
@pytest.mark.parametrize(
    "portions",
    [
        {"p1": [(0, 1)]},
        {"p1": [(0, "1/3")], "p2": [("1/3", "2/3")], "p3": [("2/3", 1)]},
    ],
    ids=["missing", "extra"],
)
def test_allocation_naming_other_players_raises_invalid_players(check, portions):
    scenario = Scenario((("p1", StepDensity.uniform()), ("p2", StepDensity.uniform())))
    allocation = Allocation.of({name: IntervalSet.of(*spans) for name, spans in portions.items()})
    with pytest.raises(InvalidPlayersError, match="allocation names players"):
        check(scenario, allocation)


def test_proportional_ce5_ep_outcome(ce5):
    outcome = equitability(ce5)
    report = proportional_check(ce5, outcome.allocation)
    assert report.passed
    assert all(v == F(9, 20) for v in report.values.values())


def test_proportional_flags_grabby_allocation():
    scenario = Scenario(
        (("p1", StepDensity.uniform()), ("p2", StepDensity.uniform()))
    )
    report = proportional_check(scenario, everything_to_first(scenario))
    assert not report.passed
    assert report.verdicts == {"p1": True, "p2": False}


def test_proportional_identical_players_get_exact_shares():
    scenario = Scenario(
        tuple((f"p{i}", StepDensity.uniform()) for i in range(1, 4))
    )
    outcome = moving_knife(scenario)
    report = proportional_check(scenario, outcome.allocation)
    assert report.passed
    assert all(v == F(1, 3) for v in report.values.values())


# --- envy-freeness ---------------------------------------------------------------


def test_envy_free_ce2_cut_and_choose(ce2):
    outcome = cut_and_choose(ce2, cutter="P1")
    report = envy_free_check(ce2, outcome.allocation)
    assert report.passed
    assert report.matrix["P1"] == {"P1": HALF, "P2": HALF}
    assert report.matrix["P2"] == {"P1": HALF, "P2": HALF}


def test_envy_free_ce5_block(ce5):
    report = envy_free_check(ce5, ce5_block_allocation())
    assert report.passed
    for viewer in ce5.names:
        assert report.matrix[viewer][viewer] == F(4, 5)
        others = [report.matrix[viewer][o] for o in ce5.names if o != viewer]
        assert others == [F(1, 10), F(1, 10)]


def test_envy_detected_when_one_player_takes_all():
    scenario = Scenario(
        (("p1", StepDensity.uniform()), ("p2", StepDensity.uniform()))
    )
    report = envy_free_check(scenario, everything_to_first(scenario))
    assert not report.passed
    assert report.verdicts["p2"] is False


def test_envy_free_cut_and_choose_properties():
    rng = random.Random(17)
    for _ in range(25):
        scenario = Scenario(
            (("p1", random_density(rng)), ("p2", random_density(rng)))
        )
        outcome = cut_and_choose(scenario, cutter="p1")
        report = envy_free_check(scenario, outcome.allocation)
        # the chooser never envies (their take is at least 1/2); the cutter
        # gets exactly 1/2 whenever the declared median is unique
        assert report.verdicts["p2"]
        assert report.matrix["p2"]["p2"] >= HALF
        median = scenario.density("p1").median_interval()
        if median.lo == median.hi:
            assert report.verdicts["p1"]
            assert report.matrix["p1"]["p1"] == HALF


@settings(max_examples=100)
@given(st.data())
def test_envy_matrix_equals_the_mass_of_each_portion(data):
    """The sweep scores exactly what ``mass`` does: multi-span portions
    whose neighbours share an endpoint object or only an equal copy of it,
    empty portions (equal cuts), and truth profiles in any player order."""
    n = data.draw(st.integers(2, 4), label="n")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    scenario = Scenario(tuple((f"p{i + 1}", random_density(rng)) for i in range(n)))
    cuts = sorted(data.draw(st.lists(st.sampled_from(QUARTER_POOL), max_size=5), label="cuts"))
    bounds = [ZERO, *cuts, ONE]
    spans = {name: [] for name in scenario.names}
    for lo, hi in zip(bounds, bounds[1:]):
        if data.draw(st.booleans(), label="copy"):
            lo = F(lo.numerator, lo.denominator)  # equal, not the same object
        spans[data.draw(st.sampled_from(scenario.names), label="owner")].append(Interval(lo, hi))
    allocation = Allocation.of({name: IntervalSet(tuple(s)) for name, s in spans.items()})
    order = data.draw(st.permutations(scenario.players), label="truth order")
    truth = Scenario(tuple((name, random_density(rng)) for name, _ in order))
    for profile in (None, truth):
        report = envy_free_check(scenario, allocation, profile)
        scored = scenario if profile is None else profile
        assert list(report.matrix) == list(scenario.names)
        for viewer in scenario.names:
            density = scored.density(viewer)
            assert list(report.matrix[viewer]) == list(scenario.names)
            for owner in scenario.names:
                assert report.matrix[viewer][owner] == density.mass(allocation.portion(owner))
        diagonal = {name: report.matrix[name][name] for name in scenario.names}
        assert report.values == diagonal
        assert proportional_check(scenario, allocation, profile).values == diagonal


def test_envy_sweep_takes_one_mass_left_per_span_end(monkeypatch):
    # The spans tile [0, 1], so n portions cost n _mass_left calls per viewer.
    scenario = Scenario(tuple((f"p{i}", StepDensity.uniform()) for i in range(1, 4)))
    allocation = contiguous_allocation(scenario.names, (F(1, 3), F(2, 3)))
    calls = []
    mass_left = StepDensity._mass_left

    def counted(density, xn, xd):
        calls.append((xn, xd))
        return mass_left(density, xn, xd)

    monkeypatch.setattr(StepDensity, "_mass_left", counted)
    envy_free_check(scenario, allocation)
    assert len(calls) == 3 * 3


@pytest.mark.parametrize("case", ["ce5-ep", "ce6-sp-e"])
def test_envy_matrix_of_a_pareto_witness_equals_the_mass_of_each_portion(case, ce5, ce6):
    """The CE5 and CE6 witnesses give every player two spans, so the sweep
    adds a second pair to each owner's running sum."""
    if case == "ce5-ep":
        scenario, outcome = ce5, equitability(ce5)
    else:
        scenario, outcome = ce6, surplus_divide(ce6)
    allocation = solve.pareto_improve(scenario, outcome.allocation).allocation
    assert all(len(portion.intervals) > 1 for _, portion in allocation.portions)
    report = envy_free_check(scenario, allocation)
    for viewer, density in scenario.players:
        for owner in scenario.names:
            assert report.matrix[viewer][owner] == density.mass(allocation.portion(owner))
    assert report.values == dict.fromkeys(scenario.names, F(4, 5))
    assert report.passed


# --- Pareto checks ----------------------------------------------------------------


def test_pareto_check_ce5(ce5):
    outcome = equitability(ce5)
    report = pareto_optimal_check(ce5, outcome.allocation)
    assert not report.passed
    assert report.witness is not None
    assert report.witness.value_vector == {"A": F(4, 5), "B": F(4, 5), "C": F(4, 5)}


def test_pareto_check_ce6(ce6):
    outcome = surplus_divide(ce6)
    report = pareto_optimal_check(ce6, outcome.allocation)
    assert not report.passed
    assert report.witness.value_vector == {"A": F(4, 5), "B": F(4, 5)}
    block_report = pareto_optimal_check(ce6, ce6_block_allocation())
    assert block_report.passed and block_report.witness is None


def test_pareto_check_uses_truth_not_declaration(ce2):
    # under a truth profile where both players are uniform, any split of the
    # whole cake is optimal, whatever was declared
    truth = Scenario.of({"P1": StepDensity.uniform(), "P2": StepDensity.uniform()})
    halves = contiguous_allocation(("P1", "P2"), (HALF,))
    report = pareto_optimal_check(ce2, halves, truth)
    assert report.passed


def count_solve_calls(monkeypatch, *names):
    """Count the calls of the named ``solve`` functions, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(solve, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(solve, name, counted)
    return calls


def test_pareto_check_values_are_the_declared_values():
    """The values a Pareto check reads off its cell table are those
    ``declared_values`` scans for, in the same player order, on random and
    moving-knife allocations, dominated or not, and under a truth profile
    in another player order."""
    rng = random.Random(29)
    dominated = optimal = 0
    for _ in range(60):
        n = rng.choice((2, 3, 4))
        if rng.random() < 0.5:
            scenario = fine_grid_scenario(rng, n, rng.choice((4, 8, 12)))
        else:
            scenario = random_scenario(rng, n)
        truth = Scenario(tuple((name, random_density(rng)) for name in scenario.names[::-1]))
        for allocation in (random_allocation(rng, scenario), moving_knife(scenario).allocation):
            report = pareto_optimal_check(scenario, allocation)
            expected = declared_values(scenario, allocation)
            assert list(report.values.items()) == list(expected.items())
            dominated += report.witness is not None
            optimal += report.witness is None
            scored = Scenario(tuple((name, truth.density(name)) for name in scenario.names))
            report = pareto_optimal_check(scenario, allocation, truth=truth)
            assert list(report.values.items()) == list(declared_values(scored, allocation).items())
    assert dominated and optimal


def test_pareto_check_of_an_argmax_allocation_solves_no_lp(ce2, monkeypatch):
    calls = count_solve_calls(monkeypatch, "_simplex_core", "decompose")
    # P2's density 2 beats P1's 1 on [0, 1/4] and [3/4, 1], and P1's 1 beats
    # P2's 0 in between.
    argmax = Allocation.of(
        {"P1": IntervalSet.of(("1/4", "3/4")), "P2": IntervalSet.of((0, "1/4"), ("3/4", 1))}
    )
    report = pareto_optimal_check(ce2, argmax)
    assert report.passed and report.witness is None
    assert calls == {"_simplex_core": 0, "decompose": 1}


def test_pareto_check_of_a_dominated_allocation_shares_one_decomposition(ce2, monkeypatch):
    calls = count_solve_calls(monkeypatch, "_simplex_core", "decompose")
    report = pareto_optimal_check(ce2, contiguous_allocation(("P2", "P1"), (HALF,)))
    assert not report.passed and report.witness is not None
    # The rate closure and the witness LP read one decomposition.
    assert calls == {"_simplex_core": 1, "decompose": 1}


# --- the identical-misreport harness ----------------------------------------------


def test_theorem_a_moving_knife_example():
    report = theorem_a_check(
        "moving-knife", truth=StepDensity.uniform(), misreport=ce2_p2_density(), n=2
    )
    assert report.passed
    assert min(report.values.values()) == F(1, 4) <= HALF


def test_theorem_a_ep_example(ce5):
    report = theorem_a_check(
        "ep", truth=ce5.density("A"), misreport=StepDensity.uniform(), n=3
    )
    assert report.passed
    assert min(report.values.values()) == F(1, 10)


def test_theorem_a_refuses_fewer_than_two_players():
    with pytest.raises(InvalidPlayersError, match="need at least 2 players") as err:
        theorem_a_check(
            "moving-knife", truth=StepDensity.uniform(), misreport=StepDensity.uniform(), n=1
        )
    assert err.value.exit_status == 2


@pytest.mark.parametrize("n", [2.0, "3", True])
def test_theorem_a_refuses_a_player_count_that_is_not_an_int(n):
    uniform = StepDensity.uniform()
    with pytest.raises(InvalidPlayersError, match="need at least 2 players") as err:
        theorem_a_check("moving-knife", truth=uniform, misreport=uniform, n=n)
    assert err.value.exit_status == 2


def test_theorem_a_cut_and_choose_bound_tight():
    report = theorem_a_check(
        "cut-choose", truth=StepDensity.uniform(), misreport=StepDensity.uniform(), n=2
    )
    assert report.passed
    assert set(report.values.values()) == {HALF}


def test_theorem_a_seeded_enumerates_tie_outcomes():
    report = theorem_a_check(
        "moving-knife",
        truth=StepDensity.of((0, "1/3", 3), ("1/3", 1, 0)),
        misreport=StepDensity.uniform(),
        n=3,
        tie=TieRule.seeded(3),
    )
    assert report.passed
    assert report.verdicts["distinguished_player_can_end_le_fair_share"]
    assert report.details["enumerated_outcomes"] == 6


def test_theorem_a_seeded_covers_all_procedures():
    truth = StepDensity.of((0, "1/4", 4), ("1/4", 1, 0))
    misreport = ce2_p2_density()
    for procedure, n in (
        ("cut-choose", 2),
        ("moving-knife", 2),
        ("sp-e", 2),
        ("sp-p", 2),
        ("ep", 2),
        ("moving-knife", 3),
        ("ep", 3),
    ):
        report = theorem_a_check(procedure, truth, misreport, n, tie=TieRule.seeded(11))
        assert report.passed, (procedure, n)


def test_theorem_a_seeded_ep_makes_no_walk_and_validates_each_density_once(monkeypatch):
    validated = []
    validate = StepDensity.validate

    def counted_validate(self):
        validated.append(self)
        return validate(self)

    walks = count_walks(monkeypatch)
    monkeypatch.setattr(StepDensity, "validate", counted_validate)
    truth = StepDensity.of((0, "1/3", 3), ("1/3", 1, 0))
    report = theorem_a_check("ep", truth, ce2_p2_density(), 3, tie=TieRule.seeded(5))
    # Identical players tie in every ordering at the floor 1/n: one chain
    # per ordering settles it there, and no walk is needed.
    assert len(walks) == 0
    # truth and misreport once each: the three players share the misreport
    # object, whose verdict is kept after its first validation
    assert len(validated) == 2
    assert report.passed
    assert report.details["enumerated_outcomes"] == 6


SEEDED_CASES = [
    ("cut-choose", 2),
    ("sp-e", 2),
    ("sp-p", 2),
    ("moving-knife", 2),
    ("moving-knife", 3),
    ("moving-knife", 4),
    ("ep", 2),
    ("ep", 3),
]


def identical_players(misreport, n):
    return Scenario(tuple((f"p{i + 1}", misreport) for i in range(n)))


# The knife steps that make their calls when the tie tree of n identical
# players is walked once: one per node with two or more players left.
# Replaying each of the n! branches from the start takes n! * (n - 1).
KNIFE_STEPS = {2: 1, 3: 4, 4: 17, 5: 86}


@pytest.mark.parametrize("procedure, n", SEEDED_CASES + [("moving-knife", 5)])
def test_theorem_a_seeded_runs_each_outcome_once(procedure, n, monkeypatch):
    walks, steps = [], []
    walk, knife_calls = verify.tie_outcomes, procedures._knife_calls

    def counted_walk(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    def counted_calls(*args):
        steps.append(args)
        return knife_calls(*args)

    monkeypatch.setattr(verify, "tie_outcomes", counted_walk)
    monkeypatch.setattr(procedures, "_knife_calls", counted_calls)
    tie = TieRule.seeded(7)
    report = theorem_a_check(procedure, StepDensity.uniform(), ce2_p2_density(), n, tie=tie)
    outcomes = report.details["enumerated_outcomes"]
    assert outcomes == (2 if procedure in ("cut-choose", "sp-e", "sp-p") else math.factorial(n))
    # One walk yields the seeded rule's own run, then every other outcome
    # from a tie event of an earlier one; ep yields its tied assignments.
    assert len(walks) == 1
    assert len(steps) == (KNIFE_STEPS[n] if procedure == "moving-knife" else 0)
    scenario = identical_players(ce2_p2_density(), n)
    if procedure != "ep":
        enumerated = list(tie_outcomes(procedure, scenario, tie=tie))
        assert enumerated == fresh_tie_outcomes(procedure, scenario, tie)
    # A plain run walks no branch: the knife takes one step per cut.
    steps.clear()
    run_procedure(procedure, scenario, tie=tie)
    assert len(steps) == (n - 1 if procedure == "moving-knife" else 0)


@pytest.mark.parametrize("procedure, n", SEEDED_CASES)
def test_theorem_a_seeded_scores_the_seeded_run(procedure, n):
    truth = StepDensity.of((0, "1/3", 3), ("1/3", 1, 0))
    misreport = StepDensity.uniform()
    scenario = identical_players(misreport, n)
    for seed in range(10):
        tie = TieRule.seeded(seed)
        report = theorem_a_check(procedure, truth, misreport, n, tie=tie)
        outcome = run_procedure(procedure, scenario, tie=tie)
        assert report.values == {
            name: truth.mass(outcome.allocation.portion(name)) for name in scenario.names
        }, (procedure, n, seed)


def test_theorem_a_seeded_counts_an_outcome_at_exactly_the_fair_share(monkeypatch):
    # A stub walk: the scored run gives p1 3/5 of the uniform truth, above
    # the fair share 1/2, and the only other outcome gives p1 exactly 1/2.
    # p1 can end at the fair share, so the verdict holds, but only with <=.
    def stub(procedure, scenario, strict=False, tie=TIE_LOWEST):
        yield _outcome(("p1", "p2"), (F(3, 5),))
        yield _outcome(("p1", "p2"), (HALF,))

    monkeypatch.setattr(verify, "tie_outcomes", stub)
    uniform = StepDensity.uniform()
    report = theorem_a_check("cut-choose", uniform, uniform, 2, tie=TieRule.seeded(1))
    assert report.values == {"p1": F(3, 5), "p2": F(2, 5)}
    assert report.verdicts["distinguished_player_can_end_le_fair_share"] is True
    assert report.details["enumerated_outcomes"] == 2


@pytest.mark.parametrize("n", [3, 4])
def test_moving_knife_tie_enumeration_reaches_every_ordering_once(n):
    scenario = identical_players(ce2_p2_density(), n)
    for seed in range(5):
        tie = TieRule.seeded(seed)
        outcomes = list(tie_outcomes("moving-knife", scenario, tie=tie))
        orderings = [outcome.ordering for outcome in outcomes]
        assert len(orderings) == math.factorial(n)
        assert set(orderings) == set(itertools.permutations(scenario.names))
        assert len({outcome.cuts for outcome in outcomes}) == 1
        assert outcomes[0] == run_procedure("moving-knife", scenario, tie=tie)


@pytest.mark.parametrize("n", [3, 4])
def test_theorem_a_seeded_moving_knife_makes_each_call_once(n, monkeypatch):
    calls = count_queries(monkeypatch)
    report = theorem_a_check(
        "moving-knife", StepDensity.uniform(), ce2_p2_density(), n, tie=TieRule.seeded(7)
    )
    assert report.details["enumerated_outcomes"] == math.factorial(n)
    # All n! branches visit the same knife positions; the identical players
    # share one call per (position, players left), n - 1 in all.
    assert calls == {"_cut": n - 1, "median_interval": 0}


def test_theorem_a_seeded_moving_knife_keeps_no_drawn_outcome():
    # 7! = 5,040 outcomes are drawn and counted; none is kept, so the
    # check holds one outcome and the walk's one path at a time.
    truth = StepDensity.of((0, HALF, 2), (HALF, 1, 0))
    uniform = StepDensity.uniform()
    reports = []

    def check():
        reports.append(theorem_a_check("moving-knife", truth, uniform, 7, tie=TieRule.seeded(3)))

    assert traced_peak_mb(check) < 1
    assert reports[0].details["enumerated_outcomes"] == math.factorial(7)


@pytest.mark.parametrize("procedure", ["cut-choose", "sp-e", "sp-p"])
def test_theorem_a_seeded_two_player_procedures_take_one_median(procedure, monkeypatch):
    calls = count_queries(monkeypatch)
    report = theorem_a_check(
        procedure, StepDensity.uniform(), ce2_p2_density(), 2, tie=TieRule.seeded(7)
    )
    assert report.details["enumerated_outcomes"] == 2
    # both players declare one object, and both tie branches share its median
    assert calls["median_interval"] == 1


TWO_PLAYER = ("cut-choose", "sp-e", "sp-p")


@st.composite
def memo_cases(draw):
    """A procedure that shares answers across its tie branches, on
    players some of whom share one density object (or hold an equal copy),
    with zero-density pieces allowed, under a seeded tie rule."""
    procedure = draw(st.sampled_from(TWO_PLAYER + ("moving-knife",)))
    n = 2 if procedure in TWO_PLAYER else draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.sampled_from((QUARTER_POOL, None)))
    densities = [
        random_density(rng, max_pieces=3, **({"pool": pool} if pool else {}))
        for _ in range(draw(st.integers(1, n)))
    ]
    players = []
    for i in range(n):
        density = densities[draw(st.integers(0, len(densities) - 1))]
        if draw(st.booleans()):
            density = StepDensity(density.pieces)
        players.append((f"p{i + 1}", density))
    tie = TieRule.seeded(draw(st.integers(0, 2**64 - 1)))
    return procedure, Scenario(tuple(players)), tie, draw(st.booleans())


def outcome_or_refusal(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except FairsliceError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(memo_cases())
def test_scenario_memo_never_changes_an_answer(case):
    procedure, warm, tie, strict = case
    enumerated = outcome_or_refusal(
        lambda: list(tie_outcomes(procedure, warm, strict=strict, tie=tie))
    )
    assert set(vars(warm)) == {"players"}  # the runs kept nothing on it
    assert enumerated == outcome_or_refusal(fresh_tie_outcomes, procedure, warm, tie, strict)
    fresh_run = outcome_or_refusal(
        run_procedure, procedure, Scenario(warm.players), strict=strict, tie=tie
    )
    for scenario in (warm, copy.deepcopy(warm), pickle.loads(pickle.dumps(warm))):
        assert scenario == warm
        assert outcome_or_refusal(
            run_procedure, procedure, scenario, strict=strict, tie=tie
        ) == fresh_run
        assert outcome_or_refusal(
            lambda: list(tie_outcomes(procedure, scenario, strict=strict, tie=tie))
        ) == enumerated


def test_runs_and_checks_leave_their_scenario_a_plain_value(monkeypatch):
    # A walk of a procedure's tie tree keeps its answers to itself, so
    # after every procedure run, tie enumeration and strategy check,
    # refusals included, a scenario holds its players and nothing else. A
    # run is the first outcome its walk yields, under either rule.
    built = []

    def recorded(players):
        scenario = Scenario(players)
        built.append(scenario)
        return scenario

    monkeypatch.setattr(verify, "Scenario", recorded)
    truth, other = StepDensity.uniform(), StepDensity.of((0, "1/2", "3/2"), ("1/2", 1, "1/2"))
    refusals = set()
    for procedure in procedures.PROCEDURE_NAMES:
        n = 2 if procedure in TWO_PLAYER else 3
        for strict, tie in itertools.product((False, True), (TIE_LOWEST, TieRule.seeded(7))):
            for misreport in (ce2_p2_density(), truth):
                answers = [
                    outcome_or_refusal(
                        theorem_a_check, procedure, truth, misreport, n, tie=tie, strict=strict
                    ),
                    outcome_or_refusal(
                        weak_manipulation_search, procedure, truth, [misreport], [misreport, other],
                        tie=tie, strict=strict,
                    ),
                ]
                mixed = Scenario(tuple((f"p{i + 1}", (misreport, other)[i % 2]) for i in range(n)))
                for scenario in (identical_players(misreport, n), mixed):
                    run = outcome_or_refusal(
                        run_procedure, procedure, scenario, strict=strict, tie=tie
                    )
                    answers += [
                        run,
                        outcome_or_refusal(
                            lambda: list(tie_outcomes(procedure, scenario, strict=strict, tie=tie))
                        ),
                    ]
                    assert outcome_or_refusal(
                        lambda: next(tie_outcomes(procedure, scenario, strict=strict, tie=tie))
                    ) == run, (procedure, strict, tie)
                    assert set(vars(scenario)) == {"players"}, (procedure, strict, tie)
                refusals.update(a[0] for a in answers if isinstance(a, tuple))
    assert NonUniqueMedianError in refusals
    assert len(built) > 100
    expected = f"unknown procedure 'bogus'; expected one of {procedures.PROCEDURE_NAMES}"
    for call in (run_procedure, lambda *args: next(tie_outcomes(*args))):
        with pytest.raises(ValueError) as err:
            call("bogus", mixed)
        assert str(err.value) == expected
    for scenario in built:
        assert set(vars(scenario)) == {"players"}


def test_theorem_a_propagates_strict_refusals():
    with pytest.raises(NonUniqueMedianError):
        theorem_a_check(
            "sp-e",
            truth=StepDensity.uniform(),
            misreport=ce2_p2_density(),
            n=2,
            strict=True,
        )


def test_theorem_a_rejects_wrong_player_counts():
    # The two-player procedures refuse three players themselves; a seeded
    # rule reaches them through the tie enumeration.
    uniform = StepDensity.uniform()
    for procedure in ("cut-choose", "sp-e", "sp-p"):
        for tie in (TIE_LOWEST, TieRule.seeded(5)):
            with pytest.raises(InvalidPlayersError):
                theorem_a_check(procedure, uniform, uniform, n=3, tie=tie)


# --- scoring a contiguous outcome from its cuts --------------------------------------


def assert_piece_values_equal_portion_masses(outcome, densities):
    for density in densities:
        for name in outcome.ordering:
            portion = outcome.allocation.portion(name)
            assert verify._piece_value(density, outcome, name) == density.mass(portion)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_piece_value_equals_the_mass_of_the_portion(data):
    """For every outcome a procedure can reach under a seeded tie rule, and
    for drawn cuts with repeats and ends at 0 and 1, the cut scorer
    returns the portion's mass, for the declared densities and for
    others."""
    n = data.draw(st.integers(2, 4), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="fine grid"):
        scenario = fine_grid_scenario(rng, n, data.draw(st.sampled_from((6, 12, 24)), label="k"))
    else:
        scenario = random_scenario(rng, n)
    densities = [density for _, density in scenario.players] + [random_density(rng)]
    names = ["moving-knife"] + (["ep"] if n <= 3 else [])
    if n == 2:
        names += ["cut-choose", "sp-e", "sp-p"]
    tie = TieRule.seeded(data.draw(st.integers(0, 2**64 - 1), label="tie seed"))
    for procedure in names:
        try:
            outcomes = list(tie_outcomes(procedure, scenario, tie=tie))
        except NoFeasibleOrderingError:
            continue
        for outcome in outcomes:
            assert_piece_values_equal_portion_masses(outcome, densities)
    edges = [ZERO, *QUARTER_POOL, ONE]
    cuts = sorted(data.draw(st.lists(st.sampled_from(edges), min_size=n - 1, max_size=n - 1)))
    order = data.draw(st.permutations(scenario.names), label="ordering")
    assert_piece_values_equal_portion_masses(_outcome(order, cuts), densities)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_piece_value_is_the_mass_between_its_cuts(data):
    """On drawn cuts, long or on the densities' grid and equal ones
    included, a piece's value is ``mass`` of the interval between its
    bounds."""
    n = data.draw(st.integers(2, 4), label="n")
    densities = [draw_long_density(data.draw) for _ in range(2)]
    long_point = st.integers(10**39, 10**60).flatmap(
        lambda q: st.integers(0, q).map(lambda p: F(p, q))
    )
    point = st.one_of(st.sampled_from([ZERO, *QUARTER_POOL, ONE]), long_point)
    cuts = sorted(data.draw(st.lists(point, min_size=n - 1, max_size=n - 1), label="cuts"))
    if data.draw(st.booleans(), label="repeat a cut"):
        cuts[-1] = cuts[0]
        cuts.sort()
    names = tuple(f"p{i}" for i in range(n))
    outcome = _outcome(names, tuple(cuts))
    bounds = (ZERO, *cuts, ONE)
    for density in densities:
        for name, lo, hi in zip(names, bounds, bounds[1:]):
            assert verify._piece_value(density, outcome, name) == density.mass(Interval(lo, hi))


def test_piece_value_of_empty_pieces_and_pieces_at_the_ends():
    rng = random.Random(7)
    densities = [random_density(rng) for _ in range(4)]
    # a and c hold empty pieces at 0 and between equal cuts, e at 1
    outcome = _outcome(("a", "b", "c", "d", "e"), (ZERO, HALF, HALF, ONE))
    assert_piece_values_equal_portion_masses(outcome, densities)
    for name in ("a", "c", "e"):
        assert all(verify._piece_value(d, outcome, name) == 0 for d in densities)


# --- weak manipulation search -------------------------------------------------------


def test_weak_manipulation_no_candidates_beyond_truth():
    truth = StepDensity.uniform()
    assert (
        weak_manipulation_search(
            "cut-choose", truth, [truth], [ce2_p2_density(), StepDensity.uniform()]
        )
        is None
    )


@pytest.mark.parametrize("procedure", ["cut-choose", "moving-knife"])
def test_weak_manipulation_search_validates_each_density_once(procedure, monkeypatch):
    validated = []
    validate = StepDensity.validate

    def counted(self):
        validated.append(self)
        return validate(self)

    monkeypatch.setattr(StepDensity, "validate", counted)
    truth = StepDensity.uniform()
    candidates = [StepDensity.uniform(), ce2_p2_density()]
    opponents = [ce2_p2_density(), StepDensity.of((0, HALF, 2), (HALF, 1, 0))]
    witness = weak_manipulation_search(procedure, truth, candidates, opponents)
    assert witness is None
    # one call per density object, however many Scenarios reuse it
    assert len(validated) == 5
    assert {id(d) for d in validated} == {id(d) for d in (truth, *candidates, *opponents)}


def test_weak_manipulation_search_refuses_a_manipulator_named_as_the_opponent():
    truth = StepDensity.uniform()
    with pytest.raises(InvalidPlayersError, match="share the name 'A'") as err:
        weak_manipulation_search("moving-knife", truth, [truth], [truth], opponent="A")
    assert isinstance(err.value, ValueError)
    assert err.value.exit_status == 2


def test_weak_manipulation_search_refuses_an_empty_cutter_name():
    # only an absent cutter defaults to the manipulator
    truth = StepDensity.uniform()
    with pytest.raises(InvalidPlayersError, match="unknown cutter ''"):
        weak_manipulation_search("cut-choose", truth, [truth], [truth], cutter="")


def test_weak_manipulation_cut_and_choose_example():
    # declaring a left-heavy density moves the cut to 1/4; against the
    # CE2-style opponent the manipulator's true take rises from 1/2 to 3/4
    truth = StepDensity.uniform()
    candidate = StepDensity.of((0, HALF, 2), (HALF, 1, 0))
    witness = weak_manipulation_search(
        "cut-choose", truth, [candidate], [ce2_p2_density()]
    )
    assert witness is not None
    assert witness.truthful_values == (HALF,)
    assert witness.misreport_values == (F(3, 4),)
    assert witness.strict_opponents == (0,)
    # direct simulation agrees
    base = cut_and_choose(
        Scenario((("A", truth), ("B", ce2_p2_density()))), cutter="A"
    )
    assert truth.mass(base.allocation.portion("A")) == HALF
    bent = cut_and_choose(
        Scenario((("A", candidate), ("B", ce2_p2_density()))), cutter="A"
    )
    assert truth.mass(bent.allocation.portion("A")) == F(3, 4)


def test_weak_manipulation_matches_brute_force_on_fixed_sets():
    rng = random.Random(59)
    pool = [random_density(rng, max_pieces=3) for _ in range(5)]
    truth = StepDensity.uniform()

    def take(declared, against):
        scenario = Scenario((("A", declared), ("B", against)))
        outcome = run_procedure("sp-e", scenario)
        return truth.mass(outcome.allocation.portion("A"))

    expected = None
    for index, candidate in enumerate(pool):
        news = [take(candidate, v) for v in pool]
        olds = [take(truth, v) for v in pool]
        if all(a >= b for a, b in zip(news, olds)) and any(
            a > b for a, b in zip(news, olds)
        ):
            expected = index
            break
    witness = weak_manipulation_search("sp-e", truth, pool, pool)
    if expected is None:
        assert witness is None
    else:
        assert witness is not None and witness.candidate_index == expected

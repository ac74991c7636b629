import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairslice import (
    GAP_OR_OVERLAP,
    NEGATIVE_DENSITY,
    TOTAL_MASS_NOT_ONE,
    Allocation,
    AllocationError,
    InsufficientMassError,
    Interval,
    IntervalSet,
    InvalidDensityError,
    ParseError,
    Piece,
    Scenario,
    StepDensity,
    as_rational,
)
from helpers import (
    BREAK_POOL,
    dealt_portions,
    draw_long_density,
    float_mass,
    gaps,
    merged_cover_partition,
    random_density,
    scan_density_at,
    scan_mass,
    scan_plateau_end,
    scan_quantile_left,
)

ZERO, ONE, HALF = F(0), F(1), F(1, 2)


# --- rational parsing -------------------------------------------------------


def test_as_rational_accepts_ints_fractions_and_strings():
    assert as_rational(3) == F(3)
    assert as_rational("3/4") == F(3, 4)
    assert as_rational("-7/2") == F(-7, 2)
    assert as_rational("  5 ") == F(5)
    assert as_rational(F(1, 3)) == F(1, 3)


@pytest.mark.parametrize("bad", [0.5, True, "1/0", "3.5", "a/b", None, [1]])
def test_as_rational_rejects_inexact_or_malformed(bad):
    with pytest.raises(ParseError):
        as_rational(bad)


@pytest.mark.parametrize("text", ["٣", "١/٢", "1/٢", "٣/4", "1/1٣", "-٣", "１"])
def test_as_rational_reads_ascii_digits_only(text):
    # one grammar for numerator and denominator: [0-9], not Unicode \d
    with pytest.raises(ParseError, match="not a rational literal"):
        as_rational(text)


def test_as_rational_caps_literal_length():
    assert as_rational("1" * 4300) == F(int("1" * 4300))
    for huge in ("1" * 4301, "1" * 5000, "1/" + "3" * 5000, "-" + "7" * 4300):
        with pytest.raises(ParseError, match="limit"):
            as_rational(huge)


def test_as_rational_caps_each_integer_not_the_literal():
    # A p/q literal may run to twice the cap: the interpreter's limit is per
    # integer. The sign counts toward its integer's length.
    p, q = "1" * 4300, "3" * 4300
    assert as_rational(f"{p}/{q}") == F(int(p), int(q))
    assert as_rational("-" + "7" * 4299) == -int("7" * 4299)
    with pytest.raises(ParseError, match="integer of 4301 characters"):
        as_rational(f"{p}/{q}1")


class _Text(str):
    pass


class _Ratio(F):
    pass


def test_as_rational_keeps_its_result_for_every_kind_of_value():
    # Strings are tested first; no other kind of value may change its answer.
    assert as_rational(_Text(" 3/4 ")) == F(3, 4) and type(as_rational(_Text("3/4"))) is F
    with pytest.raises(ParseError) as err:
        as_rational(_Text("x"))
    assert str(err.value) == "not a rational literal: 'x'"
    with pytest.raises(ParseError) as err:
        as_rational(True)
    assert str(err.value) == "booleans are not rational values: True"
    with pytest.raises(ParseError) as err:
        as_rational(1.5)
    assert str(err.value) == "floats are rejected to keep arithmetic exact; write 1.5 as 'p/q'"
    seven = as_rational(7)
    assert seven == 7 and type(seven) is F
    ratio = _Ratio(2, 3)
    assert as_rational(ratio) is ratio


# --- intervals and interval sets -------------------------------------------


def test_interval_invariants():
    iv = Interval("1/4", "3/4")
    assert iv.length == HALF and iv.midpoint == HALF
    with pytest.raises(ValueError):
        Interval(F(3, 4), F(1, 4))
    with pytest.raises(ValueError):
        Interval(F(0), F(3, 2))


def test_interval_set_normalization_merges_and_sorts():
    s = IntervalSet.of(("1/2", "3/4"), (0, "1/4"), ("1/4", "1/2"), ("7/8", "7/8"))
    assert s == IntervalSet.of((0, "3/4"))
    assert s.length == F(3, 4)
    assert IntervalSet.of((0, "1/3"), ("1/4", "1/2")) == IntervalSet.of((0, "1/2"))


def test_interval_set_operations():
    s = IntervalSet.of((0, "1/4"), ("1/2", "3/4"))
    t = IntervalSet.of(("3/4", 1), ("1/4", "1/2"))
    assert s.length == t.length == HALF
    assert not s.is_empty and IntervalSet().is_empty
    # The allocation's layout holds every span once, sorted by left end.
    assert Allocation.of({"A": s, "B": t})._layout == (
        (ZERO, F(1, 4), "A"),
        (F(1, 4), HALF, "B"),
        (HALF, F(3, 4), "A"),
        (F(3, 4), ONE, "B"),
    )


@st.composite
def interval_sets(draw):
    points = draw(
        st.lists(st.sampled_from(BREAK_POOL), min_size=0, max_size=6, unique=True)
    )
    points = sorted(points)
    pairs = [(points[i], points[i + 1]) for i in range(0, len(points) - 1, 2)]
    return IntervalSet.of(*pairs)


@given(interval_sets())
def test_complement_involution_and_partition(s):
    t = gaps(s)
    assert gaps(t) == s
    assert s.length + t.length == ONE
    # A set and its gaps partition the cake, and their spans alternate.
    layout = Allocation.of({"A": s, "B": t})._layout
    owners = [owner for _, _, owner in layout]
    assert all(a != b for a, b in zip(owners, owners[1:]))
    with pytest.raises(AllocationError, match="between"):
        Allocation.of({"A": s, "B": s})


# --- densities --------------------------------------------------------------


def ce2_player2():
    return StepDensity.of((0, "1/4", 2), ("1/4", "3/4", 0), ("3/4", 1, 2))


def test_validate_uniform_ok():
    assert StepDensity.uniform().validate().ok


def test_validate_ce2_player2_ok():
    assert ce2_player2().validate().ok


def test_validate_total_mass():
    report = StepDensity.of((0, 1, 2)).validate()
    assert report.codes == (TOTAL_MASS_NOT_ONE,)


def test_validate_negative_density():
    report = StepDensity.of((0, HALF, -1), (HALF, 1, 3)).validate()
    assert NEGATIVE_DENSITY in report.codes


def test_validate_gap_and_overlap():
    gap = StepDensity.of((0, "1/4", 2), ("1/2", 1, 1)).validate()
    assert GAP_OR_OVERLAP in gap.codes
    missing_tail = StepDensity.of((0, "1/2", 2)).validate()
    assert GAP_OR_OVERLAP in missing_tail.codes
    assert StepDensity(()).validate().codes == (GAP_OR_OVERLAP,)
    late_start = StepDensity.of(("1/4", 1, "4/3")).validate()
    assert late_start.codes == (GAP_OR_OVERLAP,)
    assert "first piece starts at 1/4, not 0" in late_start.violations[0].detail


def test_require_valid_raises_with_codes():
    with pytest.raises(InvalidDensityError) as err:
        StepDensity.of((0, 1, 2)).require_valid()
    assert err.value.code == "INVALID_DENSITY"
    assert any(v.code == TOTAL_MASS_NOT_ONE for v in err.value.violations)


@pytest.mark.parametrize(
    "triples, message",
    [
        (
            ((0, HALF, 1), (HALF, "1/4", 2), ("1/4", 1, 1)),
            "invalid density: GAP_OR_OVERLAP: piece 1 is empty or reversed: "
            "[1/2, 1/4]; TOTAL_MASS_NOT_ONE: total mass is 3/4",
        ),
        (
            ((0, HALF, -1), (HALF, 1, 2)),
            "invalid density: NEGATIVE_DENSITY: piece 0 has density -1; "
            "TOTAL_MASS_NOT_ONE: total mass is 1/2",
        ),
        (
            ((0, HALF, 0), (HALF, "3/4", 0), ("3/4", 1, 2)),
            "invalid density: TOTAL_MASS_NOT_ONE: total mass is 1/2",
        ),
        (
            (("1/8", "1/4", 2), ("1/4", "1/8", 1), (HALF, "3/4", -1), ("3/4", "7/8", 3)),
            "invalid density: GAP_OR_OVERLAP: first piece starts at 1/8, not 0; "
            "GAP_OR_OVERLAP: last piece ends at 7/8, not 1; "
            "GAP_OR_OVERLAP: piece 1 is empty or reversed: [1/4, 1/8]; "
            "NEGATIVE_DENSITY: piece 2 has density -1; "
            "GAP_OR_OVERLAP: pieces 1 and 2 do not abut: 1/8 vs 1/2; "
            "TOTAL_MASS_NOT_ONE: total mass is 1/4",
        ),
    ],
)
def test_require_valid_repeats_its_verdict(triples, message):
    density = StepDensity.of(*triples)
    twin = StepDensity.of(*triples)
    for _ in range(3):
        with pytest.raises(InvalidDensityError) as err:
            density.require_valid()
        assert str(err.value) == message
        assert err.value.violations == density.validate().violations
        density.mass(IntervalSet.of((0, 1)))
    # the kept verdict is no field: equality, hashing and repr ignore it
    assert density == twin and hash(density) == hash(twin)
    assert repr(density) == repr(twin)


def test_mass_examples(ce5):
    assert StepDensity.uniform().mass(Interval(ZERO, HALF)) == HALF
    assert ce2_player2().mass(Interval(ZERO, F(1, 4))) == HALF
    assert ce5.density("A").mass(Interval(ZERO, F(1, 3))) == F(9, 20)
    complement_assignment = IntervalSet.of(("1/6", "1/3"), ("2/3", "5/6"))
    assert ce5.density("B").mass(complement_assignment) == F(4, 5)
    assert StepDensity.uniform().mass(IntervalSet()) == ZERO


def test_cdf_examples(ce6):
    assert StepDensity.uniform().cdf(F(1, 3)) == F(1, 3)
    assert ce2_player2().cdf(F(1, 4)) == HALF
    assert ce6.density("A").cdf(HALF) == HALF
    assert StepDensity.uniform().cdf(ZERO) == ZERO
    assert StepDensity.uniform().cdf(ONE) == ONE
    with pytest.raises(ValueError):
        StepDensity.uniform().cdf(F(3, 2))


def test_density_at_refuses_points_outside_the_cake():
    d = ce2_player2()
    assert d.density_at(ZERO) == 2 and d.density_at(F(1, 4)) == ZERO
    # pieces are half-open, so the right end of the cake reads 0
    assert d.density_at(ONE) == ZERO
    for x in (2, -1, F(-1, 10**9), ONE + F(1, 10**9)):
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            d.density_at(x)
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            d.cdf(x)


def test_quantile_examples(ce3):
    assert StepDensity.uniform().quantile_left(HALF) == HALF
    assert ce2_player2().quantile_left(HALF) == F(1, 4)
    assert ce3.density("P3").quantile_left(F(1, 3), start=F(1, 3)) == F(7, 9)
    assert StepDensity.uniform().quantile_left(ZERO, start=F(2, 5)) == F(2, 5)


def test_quantile_insufficient_mass():
    with pytest.raises(InsufficientMassError) as err:
        StepDensity.uniform().quantile_left(HALF, start=F(3, 4))
    assert str(err.value) == "only 1/4 mass available in [3/4, 1], needed 1/2"


def test_quantile_shortfall_text_on_a_zero_density_tail():
    # The message renders the mass left of the anchor from the integer pair
    # the kernel computed; the anchor sits in a positive piece or in the
    # zero-density tail, and both sides refuse alike.
    d = StepDensity.of((0, "1/2", 2), ("1/2", 1, 0))
    for start, text in (
        (F(3, 8), "only 1/4 mass available in [3/8, 1], needed 1/2"),
        (F(3, 4), "only 0 mass available in [3/4, 1], needed 1/2"),
    ):
        for side in ("left", "right"):
            with pytest.raises(InsufficientMassError) as err:
                d.quantile(HALF, start, side)
            assert str(err.value) == text


def test_quantile_shortfall_past_the_digit_limit_still_raises_its_own_error():
    # The anchor's denominator and the density's together put more than
    # 4300 digits into the available mass, past CPython's default limit for
    # int-to-str conversion, so the text cannot be rendered when the
    # shortfall is raised; it is rendered only when read.
    p, s = 10**2100 + 7, 10**2300 + 13
    d = StepDensity.of((0, F(1, p), F(p, 2)), (F(1, p), 1, F(p, 2 * p - 2)))
    start = F(1, p) + F(1, s)
    with pytest.raises(ValueError, match="digits"):
        str(ONE - d.cdf(start))
    for side in ("left", "right"):
        with pytest.raises(InsufficientMassError):
            d.quantile(HALF, start, side)


def test_quantile_refuses_bad_arguments():
    d = StepDensity.uniform()
    with pytest.raises(ValueError, match="quantile target -1/2 is negative"):
        d.quantile(-HALF)
    for start in (F(-1, 3), F(4, 3)):
        with pytest.raises(ValueError, match=f"quantile anchor {start} outside"):
            d.quantile(HALF, start)
    with pytest.raises(ValueError, match="unknown quantile side 'middle'"):
        d.quantile(HALF, ZERO, "middle")


def test_median_examples(ce6):
    assert StepDensity.uniform().median_interval() == Interval(HALF, HALF)
    assert ce2_player2().median_interval() == Interval(F(1, 4), F(3, 4))
    assert ce6.density("A").median_interval() == Interval(HALF, HALF)


# --- cheap checks against plain Fraction comparisons ------------------------

# Small rationals on both sides of 0 and 1, the ends included.
NEAR_UNIT = st.builds(F, st.integers(-3, 9), st.integers(1, 6))


@given(NEAR_UNIT, NEAR_UNIT, NEAR_UNIT)
def test_piece_refuses_exactly_the_bounds_outside_the_unit_interval(lo, hi, density):
    inside = ZERO <= lo <= ONE and ZERO <= hi <= ONE
    try:
        Piece(lo, hi, density)
    except ValueError as exc:
        assert not inside and str(exc) == f"piece bounds [{lo}, {hi}] outside [0, 1]"
    else:
        assert inside


@given(NEAR_UNIT, NEAR_UNIT)
def test_interval_refuses_exactly_the_bounds_outside_the_ordered_unit_interval(lo, hi):
    inside = ZERO <= lo <= hi <= ONE
    try:
        Interval(lo, hi)
    except ValueError as exc:
        assert not inside and str(exc) == f"invalid interval [{lo}, {hi}]"
    else:
        assert inside


def test_piece_and_interval_keep_fraction_fields_and_convert_the_rest():
    lo, hi, density = F(1, 3), F(2, 3), F(3)
    piece = Piece(lo, hi, density)
    assert piece.lo is lo and piece.hi is hi and piece.density is density
    interval = Interval(lo, hi)
    assert interval.lo is lo and interval.hi is hi
    for value in (Piece(0, "1/2", 2), Interval(0, "1/2")):
        assert (value.lo, value.hi) == (ZERO, HALF)
        assert type(value.lo) is F and type(value.hi) is F
    assert type(Piece(0, 1, 1).density) is F
    with pytest.raises(ParseError, match="floats are rejected"):
        Interval(0, 0.5)
    with pytest.raises(ParseError, match="not a rational literal"):
        Piece("x", 0.5, 1)


def reference_violations(pieces) -> tuple:
    """The (code, detail) pairs ``validate`` reports, in its order and
    text, from plain Fraction comparisons only."""
    if not pieces:
        return ((GAP_OR_OVERLAP, "no pieces declared"),)
    found = []
    if pieces[0].lo != ZERO:
        found.append((GAP_OR_OVERLAP, f"first piece starts at {pieces[0].lo}, not 0"))
    if pieces[-1].hi != ONE:
        found.append((GAP_OR_OVERLAP, f"last piece ends at {pieces[-1].hi}, not 1"))
    for k, piece in enumerate(pieces):
        if piece.lo >= piece.hi:
            found.append((GAP_OR_OVERLAP, f"piece {k} is empty or reversed: [{piece.lo}, {piece.hi}]"))
        if piece.density < ZERO:
            found.append((NEGATIVE_DENSITY, f"piece {k} has density {piece.density}"))
    for k, (a, b) in enumerate(zip(pieces, pieces[1:])):
        if a.hi != b.lo:
            found.append((GAP_OR_OVERLAP, f"pieces {k} and {k + 1} do not abut: {a.hi} vs {b.lo}"))
    total = sum((p.density * (p.hi - p.lo) for p in pieces), ZERO)
    if total != ONE:
        found.append((TOTAL_MASS_NOT_ONE, f"total mass is {total}"))
    return tuple(found)


UNIT = st.builds(F, st.integers(0, 6), st.just(6)) | st.sampled_from(BREAK_POOL)


@st.composite
def declared_pieces(draw):
    """Pieces whose next ``lo`` is the previous ``hi`` object, an equal but
    distinct Fraction, or another point, so both the shared-object and the
    compared path of the abutment check run; densities may be negative or
    zero, and the last one may top the mass up to exactly 1."""
    pieces = []
    hi = draw(UNIT)
    for _ in range(draw(st.integers(0, 5))):
        link = draw(st.sampled_from(("same", "copy", "other")))
        if link == "same":
            lo = hi
        elif link == "copy":
            lo = F(hi.numerator, hi.denominator)
        else:
            lo = draw(UNIT)
        hi = draw(UNIT)
        pieces.append(Piece(lo, hi, draw(NEAR_UNIT)))
    if pieces and draw(st.booleans()):
        *head, last = pieces
        width = last.hi - last.lo
        if width:
            rest = sum((p.density * (p.hi - p.lo) for p in head), ZERO)
            pieces[-1] = Piece(last.lo, last.hi, (ONE - rest) / width)
    return tuple(pieces)


@settings(max_examples=300)
@given(declared_pieces())
def test_validate_codes_match_plain_fraction_reference(pieces):
    density = StepDensity(pieces)
    assert density.validate().codes == tuple(code for code, _ in reference_violations(pieces))
    # the cumulative pairs of the integer index are the plain Fraction sums
    # of each piece's mass, reduced, and a zero-density piece repeats the
    # previous pair
    _, _, _, _, cn, cd = density._rows
    cum = list(zip(cn, cd))
    assert cum[0] == (0, 1) and len(cum) == len(pieces) + 1
    total = ZERO
    for piece, before, after in zip(pieces, cum, cum[1:]):
        total += piece.density * (piece.hi - piece.lo)
        assert after == (total.numerator, total.denominator)
        if not piece.density:
            assert after == before


@settings(max_examples=300)
@given(declared_pieces())
def test_validate_text_matches_plain_fraction_reference(pieces):
    violations = StepDensity(pieces).validate().violations
    assert tuple((v.code, v.detail) for v in violations) == reference_violations(pieces)


# --- property tests ---------------------------------------------------------


@st.composite
def densities(draw, max_pieces=4):
    k = draw(st.integers(1, max_pieces))
    interior = draw(
        st.lists(st.sampled_from(BREAK_POOL), min_size=k - 1, max_size=k - 1, unique=True)
    )
    bounds = [ZERO, *sorted(interior), ONE]
    weights = draw(
        st.lists(st.integers(0, 5), min_size=len(bounds) - 1, max_size=len(bounds) - 1)
    )
    assume(any(weights))
    total = sum(F(w) * (b - a) for w, a, b in zip(weights, bounds, bounds[1:]))
    return StepDensity.of(
        *((a, b, F(w) / total) for w, a, b in zip(weights, bounds, bounds[1:]))
    )


@given(densities(), interval_sets())
def test_mass_complement_and_additivity(d, s):
    t = gaps(s)
    assert d.mass(s) + d.mass(t) == ONE
    assert d.mass(IntervalSet(s.intervals + t.intervals)) == d.mass(s) + d.mass(t)


@given(densities(), dealt_portions())
def test_mass_additive_over_disjoint_pieces(d, portions):
    masses = [d.mass(portion) for portion in portions]
    assert sum(masses) == ONE
    for (a, s), (b, t) in combinations(list(zip(masses, portions)), 2):
        assert d.mass(IntervalSet(s.intervals + t.intervals)) == a + b


@given(densities(), st.sampled_from([F(k, 12) for k in range(13)]))
def test_quantile_cdf_adjunction(d, p):
    q = d.quantile_left(p)
    assert d.cdf(q) >= p
    for epsilon in (F(1, 7), F(1, 97), F(1, 1000)):
        x = q - epsilon
        if x >= 0:
            assert d.cdf(x) < p or p == 0


@given(densities())
def test_median_plateau(d):
    med = d.median_interval()
    assert d.cdf(med.lo) == HALF or med.lo == med.hi
    if med.lo != med.hi:
        assert d.cdf(med.lo) == HALF
        assert d.cdf(med.hi) == HALF
        assert d.cdf(med.midpoint) == HALF


@settings(max_examples=150)
@given(densities(max_pieces=6), interval_sets(), st.data())
def test_index_queries_match_scan_reference(d, s, data):
    """Every query served by the cumulative-mass index equals a linear scan,
    on anchors and query points that sit exactly on breakpoints, with
    targets that end exactly where zero-density plateaus start or stop."""
    points = sorted({*d.breakpoints(), *BREAK_POOL, F(1, 7), F(5, 7)})
    start = data.draw(st.sampled_from(points), label="start")
    assert d.mass(s) == sum((scan_mass(d, iv.lo, iv.hi) for iv in s.intervals), ZERO)
    for x in points:
        assert d.mass(Interval(start, x) if x >= start else Interval(x, start)) == (
            scan_mass(d, min(start, x), max(start, x))
        )
        assert d.cdf(x) == scan_mass(d, ZERO, x)
        assert d.density_at(x) == scan_density_at(d, x)
    targets = {ZERO, F(1, 3), HALF, ONE, F(3, 2)}
    targets.update(scan_mass(d, start, x) for x in points if x >= start)
    for target in sorted(targets):
        left = scan_quantile_left(d, target, start)
        right = scan_plateau_end(d, target, start)
        if left is None:  # the suffix holds less than target
            assert right is None
            with pytest.raises(InsufficientMassError):
                d.quantile_left(target, start=start)
            with pytest.raises(InsufficientMassError):
                d.quantile(target, start, "right")
        else:
            assert d.quantile_left(target, start=start) == left, target
            assert d.quantile(target, start, "right") == right, target
    assert d.median_interval() == Interval(
        scan_quantile_left(d, HALF), scan_plateau_end(d, HALF)
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_index_queries_match_scan_reference_on_long_rationals(data):
    """cdf, multi-span mass and quantiles on both sides equal the scans on
    densities with 40- to 60-digit breakpoints: at breakpoints and at
    off-grid points over large denominators, for a target of 0, one equal
    to the suffix mass (which must succeed) and one just above it (which
    must refuse)."""
    d = data.draw(st.composite(draw_long_density)(), label="density")
    off_grid = st.integers(10**40, 10**60).flatmap(
        lambda q: st.integers(0, q).map(lambda p: F(p, q))
    )
    points = sorted({*d.breakpoints(), *data.draw(st.lists(off_grid, max_size=4), label="off grid")})
    for x in points:
        assert d.cdf(x) == scan_mass(d, ZERO, x)
    spans = IntervalSet(tuple(Interval(a, b) for a, b in zip(points[::2], points[1::2])))
    assert d.mass(spans) == sum((scan_mass(d, iv.lo, iv.hi) for iv in spans.intervals), ZERO)
    start = data.draw(st.sampled_from(points), label="start")
    suffix = scan_mass(d, start, ONE)
    targets = {ZERO, suffix, *(scan_mass(d, start, x) for x in points if x > start)}
    for target in sorted(targets):
        assert d.quantile(target, start) == scan_quantile_left(d, target, start), target
        assert d.quantile(target, start, "right") == scan_plateau_end(d, target, start), target
    above = suffix + F(1, 10**70)
    for side in ("left", "right"):
        with pytest.raises(InsufficientMassError):
            d.quantile(above, start, side)


@settings(max_examples=60)
@given(densities(), interval_sets())
def test_mass_matches_float_oracle(d, s):
    assert abs(float(d.mass(s)) - float_mass(d, s)) < 1e-12


def test_random_generator_produces_valid_densities():
    rng = random.Random(7)
    for _ in range(50):
        assert random_density(rng).validate().ok


# --- scenarios and allocations ----------------------------------------------


def test_scenario_rejects_duplicates_and_invalid_densities():
    with pytest.raises(ValueError):
        Scenario((("A", StepDensity.uniform()), ("A", StepDensity.uniform())))
    with pytest.raises(InvalidDensityError):
        Scenario((("A", StepDensity.of((0, 1, 2))),))


def test_allocation_partition_checks():
    good = Allocation.of(
        {"A": IntervalSet.of((0, HALF)), "B": IntervalSet.of((HALF, 1))}
    )
    assert good.portion("A").length == HALF
    with pytest.raises(AllocationError, match="portions leave a gap between 3/4 and 1"):
        Allocation.of(
            {"A": IntervalSet.of((0, HALF)), "B": IntervalSet.of((HALF, "3/4"))}
        )
    with pytest.raises(AllocationError, match="portions overlap between 1/2 and 3/4"):
        Allocation.of(
            {"A": IntervalSet.of((0, "3/4")), "B": IntervalSet.of((HALF, 1))}
        )
    with pytest.raises(AllocationError, match="portions leave a gap between 0 and 1/4"):
        Allocation.of({"A": IntervalSet.of(("1/4", 1))})
    with pytest.raises(AllocationError, match="portions leave a gap between 1/4 and 1/2"):
        Allocation.of({"A": IntervalSet.of((0, "1/4")), "B": IntervalSet.of((HALF, 1))})
    # A span inside another overlaps along its whole length.
    with pytest.raises(AllocationError, match="portions overlap between 1/4 and 1/2"):
        Allocation.of({"A": IntervalSet.of((0, 1)), "B": IntervalSet.of(("1/4", HALF))})
    with pytest.raises(AllocationError, match="portions leave a gap between 0 and 1"):
        Allocation.of({"A": IntervalSet(), "B": IntervalSet()})
    with pytest.raises(AllocationError, match="duplicate portion owners"):
        Allocation((("A", IntervalSet.of((0, HALF))), ("A", IntervalSet.of((HALF, 1)))))


@st.composite
def portion_lists(draw):
    """One to three interval sets: a partition dealt from sorted points,
    then perhaps a span dropped, stretched or copied to another owner, or
    a free span added. Gaps, overlaps, shared endpoints, empty portions
    and zero-length spans all occur, and spans are listed out of order."""
    spans = [list(p.intervals) for p in draw(dealt_portions(owners=st.integers(1, 3)))]
    ends = [ZERO, *BREAK_POOL, ONE]
    held = [k for k, owned in enumerate(spans) if owned]
    k = draw(st.sampled_from(held))
    j = draw(st.integers(0, len(spans[k]) - 1))
    change = draw(st.sampled_from(["none", "drop", "stretch", "copy", "free"]))
    if change == "drop":
        del spans[k][j]
    elif change == "stretch":
        lo, hi = sorted((spans[k][j].lo, draw(st.sampled_from(ends))))
        spans[k][j] = Interval(lo, hi)
    elif change == "copy":
        spans[draw(st.integers(0, len(spans) - 1))].append(spans[k][j])
    elif change == "free":
        lo, hi = sorted(draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2)))
        spans[k].append(Interval(lo, hi))
    order = draw(st.permutations(range(len(spans))))
    return [IntervalSet(tuple(draw(st.permutations(spans[i])))) for i in order]


@settings(max_examples=300)
@given(portion_lists())
def test_allocation_sweep_agrees_with_merged_cover(portions):
    named = tuple((f"p{i}", portion) for i, portion in enumerate(portions))
    if merged_cover_partition(portions):
        layout = Allocation(named)._layout
        assert [(lo, hi) for lo, hi, _ in layout] == sorted(
            (iv.lo, iv.hi) for portion in portions for iv in portion.intervals
        )
    else:
        with pytest.raises(AllocationError, match="^portions (overlap|leave a gap) between"):
            Allocation(named)


def test_interval_set_text():
    assert str(IntervalSet()) == "{}"
    assert str(IntervalSet.of((HALF, 1), (0, F(1, 4)))) == "[0, 1/4] u [1/2, 1]"


def test_allocation_allows_empty_portions():
    alloc = Allocation.of({"A": IntervalSet.of((0, 1)), "B": IntervalSet()})
    assert alloc.portion("B").is_empty

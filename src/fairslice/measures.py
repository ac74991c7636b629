"""Exact piecewise-constant value measures on the unit interval.

Every quantity in the engine is a ``fractions.Fraction``; each operation
here is closed over the rationals, so the procedures and checkers built on
top compare values exactly, with no tolerance anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    AllocationError,
    InsufficientMassError,
    InvalidDensityError,
    InvalidPlayersError,
    ParseError,
)

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
# A literal whose numerator or denominator text (sign included) is longer is
# refused before parsing: CPython will not convert an integer string of more
# than 4300 digits (its default int_max_str_digits).
_MAX_INTEGER_CHARS = 4300
_FIRST = itemgetter(0)


def _literal_ints(text: str) -> tuple[int, int]:
    """The one reader of a rational literal string: its numerator and
    positive denominator, not reduced. ``as_rational`` and
    ``_literal_entry`` share it, so both read one grammar, under one
    length cap, with one set of error texts."""
    stripped = text.strip()
    numerator, _, denominator = stripped.partition("/")
    longest = max(len(numerator), len(denominator))
    if longest > _MAX_INTEGER_CHARS:
        raise ParseError(
            f"integer of {longest} characters in a rational literal exceeds "
            f"the {_MAX_INTEGER_CHARS}-character limit"
        )
    if not _RATIONAL_RE.fullmatch(stripped):
        raise ParseError(f"not a rational literal: {text!r}")
    return int(numerator), int(denominator) if denominator else 1


def as_rational(value: RationalLike) -> Fraction:
    """Convert an int, Fraction, or ``"p/q"`` string to an exact Fraction.

    Floats are rejected on purpose: binary floats silently misrepresent
    decimal constants, which would defeat exact replication.
    """
    # Strings first: documents hold mostly string literals, and a failed
    # isinstance test against Fraction goes through ABCMeta.
    if isinstance(value, str):
        return Fraction(*_literal_ints(value))
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"booleans are not rational values: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(
            f"floats are rejected to keep arithmetic exact; write {value!r} as 'p/q'"
        )
    raise ParseError(f"cannot read a rational out of {type(value).__name__}")


class _Deferred:
    """Error text rendered only when read. A shortfall's rationals can hold
    integers past CPython's default 4300-digit limit for int-to-str
    conversion; formatting them eagerly would raise ValueError in place of
    the InsufficientMassError."""

    def __init__(self, render):
        self.render = render

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True, order=True)
class Interval:
    """Closed subinterval of [0, 1] with rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not isinstance(lo, Fraction):
            lo = as_rational(lo)
            object.__setattr__(self, "lo", lo)
        if not isinstance(hi, Fraction):
            hi = as_rational(hi)
            object.__setattr__(self, "hi", hi)
        # 0 <= lo <= hi <= 1 on integers, denominators being positive.
        ln, ld = lo.as_integer_ratio()
        hn, hd = hi.as_integer_ratio()
        if not (0 <= ln and ln * hd <= hn * ld and hn <= hd):
            raise ValueError(f"invalid interval [{lo}, {hi}]")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _normalize_intervals(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    # hi > lo on integers, denominators being positive.
    spans = sorted(
        [
            iv
            for iv in intervals
            if iv.hi.numerator * iv.lo.denominator > iv.lo.numerator * iv.hi.denominator
        ]
    )
    merged: list[Interval] = []
    for iv in spans:
        if merged and iv.lo <= merged[-1].hi:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of closed intervals, kept sorted, disjoint and merged.

    Endpoints carry no mass under the absolutely continuous measures used
    here, so zero-length intervals are dropped and touching intervals merge.
    """

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "intervals", _normalize_intervals(self.intervals))

    @classmethod
    def of(cls, *bounds: tuple[RationalLike, RationalLike]) -> "IntervalSet":
        return cls(tuple(Interval(as_rational(a), as_rational(b)) for a, b in bounds))

    @property
    def length(self) -> Fraction:
        return sum((iv.length for iv in self.intervals), ZERO)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __str__(self) -> str:
        if not self.intervals:
            return "{}"
        return " u ".join(str(iv) for iv in self.intervals)


# Density validation codes, reported rather than raised so that callers can
# inspect exactly which invariant a declaration breaks.
NEGATIVE_DENSITY = "NEGATIVE_DENSITY"
GAP_OR_OVERLAP = "GAP_OR_OVERLAP"
TOTAL_MASS_NOT_ONE = "TOTAL_MASS_NOT_ONE"


@dataclass(frozen=True)
class DensityViolation:
    code: str
    detail: str


@dataclass(frozen=True)
class DensityReport:
    violations: tuple[DensityViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


@dataclass(frozen=True)
class Piece:
    """One constant-density span of a step density.

    The density may be any rational at construction time; ``validate``
    reports negatives instead of refusing to represent them.
    """

    lo: Fraction
    hi: Fraction
    density: Fraction

    def __post_init__(self):
        # Ingest hands over Fractions: convert and reset only other fields.
        lo, hi = self.lo, self.hi
        if not isinstance(lo, Fraction):
            lo = as_rational(lo)
            object.__setattr__(self, "lo", lo)
        if not isinstance(hi, Fraction):
            hi = as_rational(hi)
            object.__setattr__(self, "hi", hi)
        if not isinstance(self.density, Fraction):
            object.__setattr__(self, "density", as_rational(self.density))
        # A Fraction's denominator is positive, so 0 <= x <= 1 exactly when
        # 0 <= numerator <= denominator: two integer comparisons.
        ln, ld = lo.as_integer_ratio()
        hn, hd = hi.as_integer_ratio()
        if not (0 <= ln <= ld and 0 <= hn <= hd):
            raise _bounds_error(lo, hi)


def _bounds_error(lo: Fraction, hi: Fraction) -> ValueError:
    return ValueError(f"piece bounds [{lo}, {hi}] outside [0, 1]")


def _literal_value(entry: list) -> Fraction:
    """The value of a document literal's table entry, the list ``[n, d]``
    of its reduced integer pair (the denominator positive), which ``_index``
    reads at 0 and 1. Its ``Fraction`` is built on the first read and
    appended to the entry, so every piece and interval holding the entry
    shares that one object."""
    if len(entry) == 2:
        entry.append(Fraction(*entry))
    return entry[2]


def _literal_entry(value) -> list:
    """The table entry of one document value (see ``_literal_value``): a
    string read by ``_literal_ints``, anything else by ``as_rational``,
    with their ``ParseError`` texts. No ``Fraction`` is built for a
    string."""
    if isinstance(value, str):
        n, d = _literal_ints(value)
        g = gcd(n, d)
        return [n // g, d // g]
    return list(as_rational(value).as_integer_ratio())


def _piece_row(lo: list, hi: list, density: list) -> tuple:
    """One piece of a document as its three ``_literal_entry`` entries.
    Its bounds are checked to lie in [0, 1] on their integers, with the
    error ``Piece`` gives; the rest is left to ``StepDensity.validate``."""
    if 0 <= lo[0] <= lo[1] and 0 <= hi[0] <= hi[1]:
        return lo, hi, density
    raise _bounds_error(_literal_value(lo), _literal_value(hi))


def _index(ratios) -> tuple[tuple[DensityViolation, ...], tuple[tuple[int, ...], ...]]:
    """The one validation sweep: every violation of a density and its
    integer index, from its pieces' (lo, hi, density) ratios in order.

    Each ratio is indexable with its reduced numerator at 0 and its
    positive denominator at 1 (a bare ``as_integer_ratio`` pair, or a
    document literal's table entry, see ``_literal_value``).
    Violations come in the order ``validate`` gives; the index is the
    ``_rows`` tuple. The cumulative mass adds density·(hi - lo) of each
    piece on its own bounds, so the total is defined for pieces that do
    not tile, as validation needs, and each cumulative pair is reduced by
    one gcd; a zero-density piece repeats the previous pair.
    """
    bn, bd, rn, rd = [], [], [], []
    cn, cd = [0], [1]
    an, ad = 0, 1
    found: list[DensityViolation] = []
    seams: list[DensityViolation] = []
    for k, (lo, hi, rate) in enumerate(ratios):
        ln, ld = lo[0], lo[1]
        hn, hd = hi[0], hi[1]
        pn, pd = rate[0], rate[1]
        if ln * hd >= hn * ld:
            found.append(DensityViolation(
                GAP_OR_OVERLAP,
                f"piece {k} is empty or reversed: [{Fraction(ln, ld)}, {Fraction(hn, hd)}]",
            ))
        if pn < 0:
            found.append(
                DensityViolation(NEGATIVE_DENSITY, f"piece {k} has density {Fraction(pn, pd)}")
            )
        if k and (ln != en or ld != ed):
            seams.append(DensityViolation(
                GAP_OR_OVERLAP,
                f"pieces {k - 1} and {k} do not abut: {Fraction(en, ed)} vs {Fraction(ln, ld)}",
            ))
        en, ed = hn, hd
        bn.append(ln)
        bd.append(ld)
        rn.append(pn)
        rd.append(pd)
        if pn:
            den = pd * ld * hd
            an, ad = an * den + pn * (hn * ld - ln * hd) * ad, ad * den
            g = gcd(an, ad)
            an, ad = an // g, ad // g
        cn.append(an)
        cd.append(ad)
    if not rn:
        found.append(DensityViolation(GAP_OR_OVERLAP, "no pieces declared"))
    else:
        bn.append(hn)
        bd.append(hd)
        ends = []
        if bn[0]:
            ends.append(DensityViolation(
                GAP_OR_OVERLAP, f"first piece starts at {Fraction(bn[0], bd[0])}, not 0"
            ))
        if hn != hd:
            ends.append(DensityViolation(
                GAP_OR_OVERLAP, f"last piece ends at {Fraction(hn, hd)}, not 1"
            ))
        found = ends + found + seams
        if an != ad:
            found.append(DensityViolation(TOTAL_MASS_NOT_ONE, f"total mass is {Fraction(an, ad)}"))
    rows = tuple(bn), tuple(bd), tuple(rn), tuple(rd), tuple(cn), tuple(cd)
    return tuple(found), rows


@dataclass(frozen=True)
class StepDensity:
    """A value measure given by a piecewise-constant probability density.

    Pieces are stored exactly as declared (no merging), which keeps
    document round-trips value-faithful.

    The queries (``mass``, ``cdf``, ``quantile``, ``quantile_left``,
    ``median_interval``, ``density_at``) assume a validated density, sorted
    pieces tiling [0, 1]; every engine entry point calls ``require_valid``
    first. ``validate`` is one sweep over each piece's bounds and density
    as reduced integer pairs: in the same pass it finds every violation
    and builds ``_rows``, the density's one integer index, in O(k) for k
    pieces; the last cumulative mass in it is the total that validation
    checks. (A query on a density never validated builds the index by the
    same sweep.) Each query after that costs O(log k): a binary search on
    the index's integers, comparing by cross-multiplying, and one Fraction
    for the answer (``mass`` one for a whole interval set). The greedy
    chain and the equal-value walk of ``solve``, and the surplus cut and
    the moving knife of ``procedures``, read the same index, so no caller
    re-reads a piece.

    A density built from ``Piece``s feeds the sweep its pieces' integer
    ratios and keeps no table besides the index. A density read from a
    document is built by ``_from_rows``: it keeps only its rows of
    literal-table entries (``_literal_value``), each bound and density as its
    reduced integer pair and nothing else. The sweep reads those pairs;
    ``pieces`` is built on first read, from the one ``Fraction`` each
    entry builds and keeps when first read, which every piece of the
    document holding that literal shares. So ingest builds no ``Piece``
    and no ``Fraction``; equality, hashing and ``repr`` read ``pieces`` and
    so build them.

    The index replaced a tuple of cumulative-mass Fractions rather than
    joining it, because memory is what it costs: a density of up to eight
    pieces keeps about 660 bytes cached, against 390 for the Fraction tuple
    (tracemalloc), and the thousands of small densities of the
    ``strategy-sweep`` benchmark raise its peak resident memory about 5%
    (median 42.0 to 44.1 MB over ten 24 s runs), where keeping both pushed
    it past the benchmark's 10% bound. Besides the index, only the verdict
    ``require_valid`` reads is kept per object, so each density is
    validated once however many callers ask.
    """

    pieces: tuple[Piece, ...]

    @classmethod
    def of(cls, *triples: tuple[RationalLike, RationalLike, RationalLike]) -> "StepDensity":
        return cls(tuple(Piece(lo, hi, density) for lo, hi, density in triples))

    @classmethod
    def uniform(cls) -> "StepDensity":
        return cls.of((ZERO, ONE, ONE))

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[tuple, tuple, tuple], ...]) -> "StepDensity":
        """A density read from a document, from one ``_piece_row`` per
        piece."""
        density = cls.__new__(cls)
        density.__dict__["_parsed_rows"] = rows
        return density

    def _parsed_pieces(self) -> tuple[Piece, ...]:
        """The ``pieces`` of a density built by ``_from_rows``, on first
        read (see the ``cached_property`` bound to ``pieces`` below)."""
        rows = self.__dict__["_parsed_rows"]
        value = _literal_value
        return tuple([Piece(value(lo), value(hi), value(rate)) for lo, hi, rate in rows])

    def _ratios(self):
        """Each piece's (lo, hi, density) ratios, as ``_index`` reads them."""
        rows = self.__dict__.get("_parsed_rows")
        if rows is not None:
            return rows
        return (
            (p.lo.as_integer_ratio(), p.hi.as_integer_ratio(), p.density.as_integer_ratio())
            for p in self.pieces
        )

    def validate(self) -> DensityReport:
        """Every violation, in one sweep over the pieces: the two ends, then
        each piece's width and sign, then each abutment, then the total.
        The same sweep builds ``_rows`` if no query has yet."""
        violations, rows = _index(self._ratios())
        self.__dict__.setdefault("_rows", rows)
        return DensityReport(violations)

    @cached_property
    def _violations(self) -> tuple[DensityViolation, ...]:
        """The verdict of ``validate``, computed once per object; like
        ``_rows``, not a dataclass field."""
        return self.validate().violations

    def require_valid(self, label: str = "density") -> None:
        if self._violations:
            details = "; ".join(f"{v.code}: {v.detail}" for v in self._violations)
            raise InvalidDensityError(f"invalid {label}: {details}", self._violations)

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """The density's integer index: the numerators and denominators of
        its k + 1 piece bounds (each piece's lo, then the last hi), of its
        k piece densities, and of its k + 1 cumulative masses, entry j the
        mass of [0, pieces[j].lo] and the last the total.

        Not a dataclass field, so equality and hashing ignore it. Usually
        ``validate`` leaves it here; a query on a density never validated
        builds it by the same sweep (see ``_index``).
        """
        return _index(self._ratios())[1]

    def _piece_at(self, xn: int, xd: int) -> int:
        """Index of the last piece whose lower bound is at or left of
        x = xn/xd (xd > 0), or 0 if none: a binary search on the bounds
        of ``_rows``, comparing by cross-multiplying."""
        bn, bd, rn, _, _, _ = self._rows
        j, top = 0, len(rn) - 1
        while j < top:
            mid = (j + top + 1) // 2
            if bn[mid] * xd <= xn * bd[mid]:
                j = mid
            else:
                top = mid - 1
        return j

    def _mass_left(self, xn: int, xd: int) -> tuple[int, int, int]:
        """The piece j holding x = xn/xd (xd > 0), by ``_piece_at``, and
        the mass left of x, cum_j + density_j·(x - lo_j), as an integer
        pair n/d with d > 0, not reduced; no Fraction is built."""
        j = self._piece_at(xn, xd)
        bn, bd, rn, rd, cn, cd = self._rows
        if not rn[j]:
            return j, cn[j], cd[j]
        scale = rd[j] * bd[j] * xd
        return j, cn[j] * scale + rn[j] * (xn * bd[j] - bn[j] * xd) * cd[j], cd[j] * scale

    def _cut(self, tn: int, td: int, sn: int, sd: int, left: bool) -> Optional[tuple[int, int]]:
        """The integer core of ``quantile``: the cut for the target
        t = tn/td >= 0 from the anchor s = sn/sd in [0, 1] (both
        denominators positive), as a reduced (numerator, denominator) pair,
        or None when the suffix holds less than t.

        The level, the mass left of the cut, is the mass left of s plus t,
        reduced by one gcd. The cut lies on the last piece k whose
        cumulative mass is below the level (``left``) or at most at it,
        at lo_k + (level - cum_k) / density_k; a right cut past the last
        piece is 1.

        At the anchor 0 (sn == 0), where every greedy chain, knife step and
        quantile from 0 starts, the search starts at piece 0 and the mass
        left of s is 0/1, with no ``_mass_left`` search: a validated
        density's first piece starts at 0 and its cumulative mass there is
        0, so the level and the cut are the same reduced pairs.
        """
        if left and not tn:
            return sn, sd
        bn, bd, rn, rd, cn, cd = self._rows
        if sn:
            j, basen, based = self._mass_left(sn, sd)
            ln, ld = basen * td + tn * based, based * td
        else:
            j, ln, ld = 0, tn, td
        g = gcd(ln, ld)
        ln, ld = ln // g, ld // g
        if ln * cd[-1] > cn[-1] * ld:
            return None
        # cum_j <= base <= level, so the search starts at the piece holding s.
        k, top = j, len(cn) - 1
        while k < top:
            mid = (k + top + 1) // 2
            if cn[mid] * ld < ln * cd[mid] or (not left and cn[mid] * ld == ln * cd[mid]):
                k = mid
            else:
                top = mid - 1
        if k == len(rn):
            return 1, 1
        # The level lies past cum_k and at or before cum_(k+1) (left), or at
        # or past cum_k and before cum_(k+1) (right), so density_k > 0.
        scale = ld * cd[k]
        xn = bn[k] * scale * rn[k] + (ln * cd[k] - cn[k] * ld) * rd[k] * bd[k]
        xd = bd[k] * scale * rn[k]
        g = gcd(xn, xd)
        return xn // g, xd // g

    def _cdf(self, x: Fraction) -> Fraction:
        _, n, d = self._mass_left(*x.as_integer_ratio())
        return Fraction(n, d)

    def _mass_between(self, lo: Fraction, hi: Fraction) -> tuple[int, int]:
        """The span kernel: the mass of [lo, hi] (lo <= hi in [0, 1]) as a
        reduced integer pair n/d with d > 0, the difference of the
        ``_mass_left`` pairs at its ends; no Fraction is built."""
        _, hn, hd = self._mass_left(*hi.as_integer_ratio())
        _, ln, ld = self._mass_left(*lo.as_integer_ratio())
        n, d = hn * ld - ln * hd, hd * ld
        g = gcd(n, d)
        return n // g, d // g

    def mass(self, region: Union[Interval, IntervalSet]) -> Fraction:
        """Exact measure of a region: the ``_mass_between`` pairs of its
        spans summed as an integer pair, with one Fraction built for the
        answer; an empty set is worth 0."""
        spans = (region,) if isinstance(region, Interval) else region.intervals
        n, d = 0, 1
        for span in spans:
            sn, sd = self._mass_between(span.lo, span.hi)
            n, d = n * sd + sn * d, d * sd
        return Fraction(n, d)

    def cdf(self, x: RationalLike) -> Fraction:
        x = as_rational(x)
        if not (ZERO <= x <= ONE):
            raise ValueError(f"cdf argument {x} outside [0, 1]")
        return self._cdf(x)

    def quantile(
        self, target: RationalLike, start: RationalLike = ZERO, side: str = "left"
    ) -> Fraction:
        """The cut x >= ``start`` where mass([start, x]) reaches ``target``.

        ``side="left"``: the leftmost x with mass([start, x]) >= target.
        ``side="right"``: the supremum of the x with mass([start, x]) <=
        target, the far end of any zero-density plateau after the left cut
        (1 when the suffix holds exactly ``target``). Raises
        InsufficientMassError when the suffix holds less than ``target``.
        """
        target = as_rational(target)
        start = as_rational(start)
        tn, td = target.as_integer_ratio()
        sn, sd = start.as_integer_ratio()
        if tn < 0:
            raise ValueError(f"quantile target {target} is negative")
        if not 0 <= sn <= sd:
            raise ValueError(f"quantile anchor {start} outside [0, 1]")
        if side not in ("left", "right"):
            raise ValueError(f"unknown quantile side {side!r}")
        cut = self._cut(tn, td, sn, sd, side == "left")
        if cut is None:
            _, _, _, _, cn, cd = self._rows
            raise InsufficientMassError(_Deferred(
                lambda: f"only {Fraction(cn[-1], cd[-1]) - self._cdf(start)} mass "
                f"available in [{start}, 1], needed {target}"
            ))
        return Fraction(*cut)

    def quantile_left(self, target: RationalLike, start: RationalLike = ZERO) -> Fraction:
        """Leftmost x at or right of ``start`` with mass([start, x]) >= target.

        The anchored form makes chained cutting (moving knife, greedy
        equal-value cuts) a single primitive instead of repeated density
        restrictions.
        """
        return self.quantile(target, start)

    def median_interval(self) -> Interval:
        """Closed set of points where the cdf equals one half: the left and
        the right cut of ``_cut`` for the target 1/2 from 0.

        Degenerate (lo == hi) exactly when the median is unique.
        """
        lo = self._cut(1, 2, 0, 1, True)
        if lo is None:
            self.quantile(HALF)  # raises InsufficientMassError for the shortfall
        return Interval(Fraction(*lo), Fraction(*self._cut(1, 2, 0, 1, False)))

    def breakpoints(self) -> tuple[Fraction, ...]:
        points = {ZERO, ONE}
        for piece in self.pieces:
            points.add(piece.lo)
            points.add(piece.hi)
        return tuple(sorted(points))

    def density_at(self, x: RationalLike) -> Fraction:
        """Density just right of x (pieces are read as half-open [lo, hi)),
        so 0 at x = 1. The pieces tile [0, 1], so below 1 it is the density
        of piece ``_piece_at(x)``, read off ``_rows``; no ``Piece`` is
        built."""
        x = as_rational(x)
        if not (ZERO <= x <= ONE):
            raise ValueError(f"density_at argument {x} outside [0, 1]")
        _, _, rn, rd, _, _ = self._rows
        j = self._piece_at(*x.as_integer_ratio())
        return Fraction(rn[j], rd[j]) if x < ONE else ZERO


# ``pieces`` stays a dataclass field, set by ``__init__`` in the instance
# dict, which a non-data descriptor on the class does not shadow. Only a
# density built by ``_from_rows`` lacks it there, and this descriptor
# builds it on first read. A ``__getattr__`` hook would do the same but
# slow every attribute read of every density.
StepDensity.pieces = cached_property(StepDensity._parsed_pieces)
StepDensity.pieces.__set_name__(StepDensity, "pieces")


@dataclass(frozen=True)
class Scenario:
    """Named players with the value densities they declare to the referee."""

    players: tuple[tuple[str, StepDensity], ...]

    def __post_init__(self):
        names = [name for name, _ in self.players]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate player names: {names}")
        if not names:
            raise ValueError("a scenario needs at least one player")
        for name, density in self.players:
            density.require_valid(f"density for {name!r}")

    @classmethod
    def of(cls, declarations: Mapping[str, StepDensity]) -> "Scenario":
        return cls(tuple(declarations.items()))

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.players)

    def density(self, name: str) -> StepDensity:
        return self.players[self.index(name)][1]

    def index(self, name: str) -> int:
        for i, (player, _) in enumerate(self.players):
            if player == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class Allocation:
    """A partition of [0, 1] into one interval set per player.

    Portions may share endpoints (endpoints carry no mass). Each portion's
    spans are already merged and nonempty, so the portions tile [0, 1]
    exactly when their spans, sorted by left end, start at 0, each start
    where the previous one ends, and the last ends at 1; the constructor
    checks that in one sweep and names the first gap or overlap it meets.
    """

    portions: tuple[tuple[str, IntervalSet], ...]

    def __post_init__(self):
        names = [name for name, _ in self.portions]
        if len(set(names)) != len(names):
            raise AllocationError(f"duplicate portion owners: {names}")
        cursor = ZERO
        for lo, hi, _ in self._layout:
            # Contiguous cuts hand one Fraction to both neighbours.
            if lo is not cursor and lo != cursor:
                if lo > cursor:
                    raise AllocationError(f"portions leave a gap between {cursor} and {lo}")
                raise AllocationError(f"portions overlap between {lo} and {min(cursor, hi)}")
            cursor = hi
        if cursor != ONE:
            raise AllocationError(f"portions leave a gap between {cursor} and 1")

    @cached_property
    def _layout(self) -> tuple[tuple[Fraction, Fraction, str], ...]:
        """Every span as (lo, hi, owner), sorted by lo. Like
        ``StepDensity._rows``, not a dataclass field, so equality and
        hashing ignore it."""
        spans = [(iv.lo, iv.hi, name) for name, portion in self.portions for iv in portion.intervals]
        return tuple(sorted(spans, key=_FIRST))

    @classmethod
    def of(cls, portions: Mapping[str, IntervalSet]) -> "Allocation":
        return cls(tuple(portions.items()))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.portions)

    def portion(self, name: str) -> IntervalSet:
        for player, portion in self.portions:
            if player == name:
                return portion
        raise KeyError(name)


def _require_owners(scenario: Scenario, allocation: Allocation) -> None:
    if set(allocation.names) != set(scenario.names):
        raise InvalidPlayersError(
            f"allocation names players {sorted(allocation.names)}, "
            f"scenario has {sorted(scenario.names)}"
        )


def declared_values(scenario: Scenario, allocation: Allocation) -> dict:
    _require_owners(scenario, allocation)
    return {
        name: density.mass(allocation.portion(name))
        for name, density in scenario.players
    }

"""Scenario documents, the built-in counterexample registry, and reports.

Documents are JSON with rationals written as ``"p/q"`` strings or bare
integers; floats are rejected so nothing is ever rounded on the way in.
The registry holds the six reference cases with their published values
frozen as exact rationals; replaying a case compares every computed number
against the registered one with exact equality.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from itertools import chain
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import EPUndefinedError, MismatchError, OutputTooLargeError, ParseError
from .measures import (
    ZERO,
    Allocation,
    Interval,
    IntervalSet,
    Scenario,
    StepDensity,
    _literal_entry,
    _literal_value,
    _piece_row,
    declared_values,
)
from .procedures import (
    EQUITABLE,
    PROPORTIONAL,
    PROCEDURE_NAMES,
    TIE_LOWEST,
    ProcedureOutcome,
    TieRule,
    _ep_search,
    contiguous_allocation,
    cut_and_choose,
    equitability,
    moving_knife,
    surplus_divide,
)
from .solve import utilitarian_bound
from .verify import PropertyReport, pareto_optimal_check

SCHEMA = "fairslice/1"
# One ASCII spelling per seed, so save_scenario writes back the string it read.
_SEED_RE = re.compile(r"0|[1-9][0-9]*")


# ---------------------------------------------------------------------------
# Rational and document parsing
# ---------------------------------------------------------------------------


def parse_rational(value, path: Optional[str]) -> list:
    """The literal table entry of one document value (see
    ``measures._literal_entry``): its reduced integer pair, with no
    ``Fraction`` built. The one reader of a document literal. A
    ``ParseError`` is prefixed with ``path``, or left bare when ``path`` is
    None."""
    try:
        return _literal_entry(value)
    except ParseError as exc:
        if path is None:
            raise
        raise ParseError(f"{path}: {exc}") from None


def _exact_text(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError as exc:  # an integer over the interpreter's digit limit
        raise OutputTooLargeError(
            f"cannot print an exact result: {str(exc).partition(';')[0]}"
        ) from None


def fmt_rational(value: Fraction) -> str:
    """Exact string with a decimal approximation alongside, e.g. '9/20 (0.45)'.

    The approximation is the float's, to six significant digits; a nonzero
    value beyond float range either way gets six digits computed in decimal.
    A value whose exact text cannot be built raises OutputTooLargeError.
    """
    text = _exact_text(value)
    try:
        approx = float(value)
        if approx or not value:
            return f"{text} ({approx:.6g})"
    except OverflowError:
        pass
    six = Context(prec=6)
    approx = six.divide(Decimal(value.numerator), value.denominator).normalize(six)
    return f"{text} ({approx:g})"


def _doc_rational(value: Fraction):
    text = _exact_text(value)  # json.dumps would fail on the same integer
    return value.numerator if value.denominator == 1 else text


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _require_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def _require_schema(doc: dict, path: str) -> None:
    if doc.get("schema") != SCHEMA:
        raise ParseError(f"{path}: missing or unsupported schema, expected {SCHEMA!r}")


def _unique_keys(pairs: list) -> dict:
    """A ``json.loads`` object hook refusing a key that one object repeats,
    of which ``json.loads`` would keep only the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ParseError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _load_json(source: Union[str, dict], path: str) -> dict:
    if isinstance(source, dict):
        return source
    try:
        parsed = json.loads(source, object_pairs_hook=_unique_keys)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to parse") from None
    except ValueError as exc:  # a bare integer over the interpreter's digit limit
        raise ParseError(f"{path}: {str(exc).partition(';')[0]}") from None
    return _require_mapping(parsed, path)


# The value types a literal table keys; a bool or a float is never looked
# up, since True == 1 == 1.0 would find the entry of the integer 1.
_TABLE_TYPES = {str, int}


def _spans(doc, path: str, keys: Sequence[str], make, literals: dict) -> tuple:
    """Read a list of objects holding the rationals ``keys`` into
    ``make(*entries)``, one literal table entry per key (see
    ``measures._literal_value``: its reduced integer pair); a
    ``ValueError`` from ``make`` names the entry.

    ``literals`` is the document's literal table: it maps each string or
    integer literal already read, anywhere in the document, to its entry,
    so a literal that repeats (each ``from`` is the previous ``to``) is
    parsed once and its pieces share one entry, and so one ``Fraction``
    once read. A valid list is read by column (``_by_column``); a list
    with a fault goes to ``_first_fault``, which names the first one as an
    entry-by-entry read meets it.
    """
    entries = _require_list(doc, path)
    rows = _by_column(entries, keys, make, literals)
    if rows is None:
        return _first_fault(entries, path, keys, make, literals)
    return rows


def _by_column(entries: list, keys: Sequence[str], make, literals: dict) -> Optional[tuple]:
    """``_spans`` on a valid list, or None at a fault: one comprehension
    per key, the literals the table lacks parsed once each in entry order,
    then one table lookup per column. A literal that fails to parse keeps
    its bare ``ParseError`` in the table, for ``_first_fault`` to report at
    its path without parsing it again."""
    if not set(map(type, entries)) <= {dict}:
        return None
    try:
        columns = [[entry[key] for entry in entries] for key in keys]
    except KeyError:
        return None
    if not set(map(type, chain.from_iterable(columns))) <= _TABLE_TYPES:
        return None
    for literal in dict.fromkeys(chain.from_iterable(zip(*columns))):
        if literal not in literals:
            try:
                literals[literal] = parse_rational(literal, None)
            except ParseError as exc:
                literals[literal] = exc
                return None
    try:
        return tuple(map(make, *[map(literals.__getitem__, column) for column in columns]))
    except ValueError:
        return None


def _first_fault(entries: list, path: str, keys: Sequence[str], make, literals: dict) -> tuple:
    """``_spans`` entry by entry: in each entry, a non-object, then a
    missing key in key order, then a bad literal in key order, then
    ``make``'s ``ValueError``. A literal the table lacks is parsed, and its
    path built, only then, so a bad literal is reported at its first path;
    one the column read already failed to parse is reported from its table
    slot, not parsed again. Raises at the first fault; a list with none
    (one holding an object or a value whose type ``_by_column`` leaves to
    it, such as a dict subclass) is read as ``_spans`` reads it."""
    out = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            _require_mapping(entry, f"{path}[{k}]")  # raises
        for key in keys:
            if key not in entry:
                raise ParseError(f"{path}[{k}]: missing {key!r}")
        values = []
        for key in keys:
            literal = entry[key]
            kept = type(literal) in _TABLE_TYPES
            value = literals.get(literal) if kept else None
            if value is None:
                value = parse_rational(literal, f"{path}[{k}].{key}")
                if kept:
                    literals[literal] = value
            elif isinstance(value, ParseError):
                raise ParseError(f"{path}[{k}].{key}: {value}")
            values.append(value)
        try:
            out.append(make(*values))
        except ValueError as exc:
            raise ParseError(f"{path}[{k}]: {exc}") from None
    return tuple(out)


def _interval(lo: list, hi: list) -> Interval:
    return Interval(_literal_value(lo), _literal_value(hi))


def _pieces_from(doc, path: str, literals: dict) -> StepDensity:
    """A density read straight into its rows of table entries; no
    ``Piece`` is built until its ``pieces`` are read."""
    rows = _spans(doc, path, ("from", "to", "density"), _piece_row, literals)
    return StepDensity._from_rows(rows)


def _players_from(doc, path: str, literals: dict) -> tuple[tuple[str, StepDensity], ...]:
    players = []
    for k, raw in enumerate(_require_list(doc, path)):
        entry = _require_mapping(raw, f"{path}[{k}]")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ParseError(f"{path}[{k}].name: expected a nonempty string")
        density = _pieces_from(entry.get("pieces", []), f"{path}[{k}].pieces", literals)
        players.append((name, density))
    return tuple(players)


def parse_tie(text: str) -> TieRule:
    if text == "lowest":
        return TIE_LOWEST
    if text.startswith("seed:"):
        digits = text[len("seed:"):]
        if _SEED_RE.fullmatch(digits):
            try:
                return TieRule.seeded(int(digits))
            except ValueError:
                pass
        raise ParseError(f"invalid tie seed in {text!r}")
    raise ParseError(f"unknown tie rule {text!r}; use 'lowest' or 'seed:<n>'")


@dataclass(frozen=True)
class ProcedureSpec:
    name: str
    strict: bool = False
    cutter: Optional[str] = None
    tie: TieRule = TIE_LOWEST

    def __post_init__(self):
        if self.name not in PROCEDURE_NAMES:
            raise ParseError(f"unknown procedure {self.name!r}; expected one of {PROCEDURE_NAMES}")


@dataclass(frozen=True)
class ScenarioDocument:
    scenario: Scenario
    procedure: Optional[ProcedureSpec] = None
    truth: Optional[Scenario] = None


def load_document(source: Union[str, dict]) -> ScenarioDocument:
    doc = _load_json(source, "document")
    _require_schema(doc, "document")
    if "players" not in doc:
        raise ParseError("document: missing 'players'")
    literals: dict = {}
    try:
        scenario = Scenario(_players_from(doc["players"], "players", literals))
    except ValueError as exc:
        raise ParseError(f"players: {exc}") from None
    procedure = None
    if doc.get("procedure") is not None:
        raw = _require_mapping(doc["procedure"], "procedure")
        options = _require_mapping(raw.get("options", {}), "procedure.options")
        strict = options.get("strict", False)
        if not isinstance(strict, bool):
            raise ParseError(f"procedure.options.strict: expected true or false, got {strict!r}")
        tie = options.get("tie", "lowest")
        if not isinstance(tie, str):
            raise ParseError(f"procedure.options.tie: expected a string, got {tie!r}")
        cutter = options.get("cutter")
        if "cutter" in options and not isinstance(cutter, str):
            raise ParseError(f"procedure.options.cutter: expected a player name, got {cutter!r}")
        procedure = ProcedureSpec(
            name=raw.get("name", ""),
            strict=strict,
            cutter=cutter,
            tie=parse_tie(tie),
        )
    truth = None
    if doc.get("truth") is not None:
        try:
            truth = Scenario(_players_from(doc["truth"], "truth", literals))
        except ValueError as exc:
            raise ParseError(f"truth: {exc}") from None
        if set(truth.names) != set(scenario.names):
            raise ParseError(
                f"truth names players {sorted(truth.names)}, "
                f"scenario has {sorted(scenario.names)}"
            )
    return ScenarioDocument(scenario=scenario, procedure=procedure, truth=truth)


def load_scenario(source: Union[str, dict]) -> Scenario:
    return load_document(source).scenario


def save_scenario(
    scenario: Scenario,
    procedure: Optional[ProcedureSpec] = None,
    truth: Optional[Scenario] = None,
) -> str:
    doc: dict = {"schema": SCHEMA, "players": _players_doc(scenario.players)}
    if procedure is not None:
        options: dict = {"strict": procedure.strict}
        if procedure.cutter is not None:
            options["cutter"] = procedure.cutter
        if procedure.tie.mode == "seeded":
            options["tie"] = f"seed:{procedure.tie.seed}"
        else:
            options["tie"] = "lowest"
        doc["procedure"] = {"name": procedure.name, "options": options}
    if truth is not None:
        doc["truth"] = _players_doc(truth.players)
    return json.dumps(doc, indent=2, sort_keys=True)


def _players_doc(players) -> list:
    return [
        {"name": name, "pieces": _pieces_doc(density, _doc_rational)}
        for name, density in players
    ]


def _pieces_doc(density: StepDensity, fmt) -> list:
    return [
        {"from": fmt(p.lo), "to": fmt(p.hi), "density": fmt(p.density)}
        for p in density.pieces
    ]


def load_allocation(source: Union[str, dict], scenario: Optional[Scenario] = None) -> Allocation:
    doc = _load_json(source, "allocation")
    _require_schema(doc, "allocation")
    portions_doc = _require_mapping(doc.get("portions"), "portions")
    portions = []
    literals: dict = {}
    for name, spans in portions_doc.items():
        intervals = _spans(spans, f"portions.{name}", ("from", "to"), _interval, literals)
        portions.append((name, IntervalSet(intervals)))
    if scenario is not None and set(n for n, _ in portions) != set(scenario.names):
        raise ParseError(
            f"portions name players {sorted(n for n, _ in portions)}, "
            f"scenario has {sorted(scenario.names)}"
        )
    return Allocation(tuple(portions))


def load_densities(source: Union[str, dict]) -> tuple[StepDensity, ...]:
    doc = _load_json(source, "densities")
    _require_schema(doc, "densities")
    out = []
    literals: dict = {}
    for k, raw in enumerate(_require_list(doc.get("densities"), "densities")):
        density = _pieces_from(raw, f"densities[{k}]", literals)
        density.require_valid(f"densities[{k}]")
        out.append(density)
    return tuple(out)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def to_jsonable(value):
    """Render engine values for reports: exact rational strings with decimal
    approximations side by side, dataclasses as objects."""
    if isinstance(value, Fraction):
        return fmt_rational(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str, float)):
        return value
    if isinstance(value, Interval):
        return {"from": fmt_rational(value.lo), "to": fmt_rational(value.hi)}
    if isinstance(value, IntervalSet):
        return [to_jsonable(iv) for iv in value.intervals]
    if isinstance(value, StepDensity):
        return _pieces_doc(value, fmt_rational)
    if isinstance(value, Allocation):
        return {name: to_jsonable(portion) for name, portion in value.portions}
    if isinstance(value, Scenario):
        return {name: to_jsonable(density) for name, density in value.players}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        if isinstance(value, ProcedureOutcome):  # a property, not a field
            return {"allocation": to_jsonable(value.allocation), **fields}
        return fields
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(value, (set, frozenset)) else value
        return [to_jsonable(v) for v in items]
    return str(value)


def emit_report(results) -> str:
    """Deterministic machine-readable report for any engine output."""
    return json.dumps(
        {"schema": SCHEMA, "results": to_jsonable(results)},
        indent=2,
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Counterexample registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectedValue:
    """One registered number or verdict, with where it comes from.

    Registered values are never computed by the code under test; they are
    frozen here as literals.
    """

    value: object
    source: str


@dataclass(frozen=True)
class CounterexampleCase:
    """A registered case: its scenarios, the frozen values, and ``replay``,
    which recomputes each value from the scenarios."""

    id: int
    title: str
    scenarios: Mapping[str, Scenario]
    expected: Mapping[str, ExpectedValue]
    replay: Callable[["CounterexampleCase"], dict]


@dataclass(frozen=True)
class ComparisonEntry:
    field: str
    expected: object
    actual: object
    ok: bool
    source: str


@dataclass(frozen=True)
class ComparisonReport:
    case_id: int
    title: str
    entries: tuple[ComparisonEntry, ...]

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)


def _ce1() -> CounterexampleCase:
    vertical = Scenario((("P1", StepDensity.uniform()), ("P2", StepDensity.uniform())))
    horizontal = Scenario(
        (
            ("P1", StepDensity.of((0, "1/2", 0), ("1/2", 1, 2))),
            ("P2", StepDensity.of((0, "1/2", 2), ("1/2", 1, 0))),
        )
    )
    expected = {
        "vertical.cut": ExpectedValue(
            Fraction("1/2"), "CE1: vertical cut-and-choose bisects the square"
        ),
        "vertical.values": ExpectedValue(
            (Fraction("1/2"), Fraction("1/2")), "CE1: each player receives exactly 1/2"
        ),
        "horizontal.cut": ExpectedValue(Fraction("3/4"), "CE1: risk-averse horizontal cut at 3/4"),
        "horizontal.values": ExpectedValue(
            (Fraction("1/2"), Fraction(1)),
            "CE1: cutter keeps 1/2, chooser takes a piece worth 100%",
        ),
        "square.split_values": ExpectedValue(
            (Fraction(1), Fraction(1)),
            "CE1: top half to P1 and bottom to P2 is worth everything to each",
        ),
        "vertical.weakly_dominated_by_split": ExpectedValue(
            True, "CE1: the split is at least as good for P2 and strictly better for P1"
        ),
        "horizontal.weakly_dominated_by_split": ExpectedValue(
            True, "CE1: the split is at least as good for P2 and strictly better for P1"
        ),
        "vertical.split_strictly_better_for_P1": ExpectedValue(True, "CE1: strict gain for P1"),
        "horizontal.split_strictly_better_for_P1": ExpectedValue(True, "CE1: strict gain for P1"),
    }
    return CounterexampleCase(
        1,
        "cut and choose on the square fails Pareto optimality in both directions",
        {"vertical": vertical, "horizontal": horizontal},
        expected,
        _actuals_ce1,
    )


def _ce2() -> CounterexampleCase:
    scenario = Scenario(
        (
            ("P1", StepDensity.uniform()),
            ("P2", StepDensity.of((0, "1/4", 2), ("1/4", "3/4", 0), ("3/4", 1, 2))),
        )
    )
    expected = {
        "cut": ExpectedValue(Fraction("1/2"), "CE2: the cutter's unique cut point is 1/2"),
        "values": ExpectedValue(
            (Fraction("1/2"), Fraction("1/2")), "CE2: each receives exactly 1/2"
        ),
        "published_witness.values": ExpectedValue(
            (Fraction("3/4"), Fraction("1/2")),
            "CE2: giving [0,1/4] to P2 yields values 3/4 and 1/2",
        ),
        "published_witness.dominates": ExpectedValue(
            True, "CE2: P1 strictly gains, P2 keeps 1/2"
        ),
        "pareto_optimal": ExpectedValue(False, "CE2: cut-and-choose is not Pareto optimal"),
        "median_interval.P2": ExpectedValue(
            (Fraction("1/4"), Fraction("3/4")),
            "CE2: P2 has no unique median; cdf is flat on [1/4, 3/4]",
        ),
    }
    return CounterexampleCase(
        2,
        "an envy-free two-player allocation need not be Pareto optimal",
        {"main": scenario},
        expected,
        _actuals_ce2,
    )


def _ce3() -> CounterexampleCase:
    scenario = Scenario(
        (
            ("P1", StepDensity.uniform()),
            ("P2", StepDensity.of((0, "1/3", 3), ("1/3", 1, 0))),
            ("P3", StepDensity.of((0, "2/3", 0), ("2/3", 1, 3))),
        )
    )
    expected = {
        "strict.error_code": ExpectedValue(
            "EP_UNDEFINED", "CE3: equalizing cutpoints may not exist"
        ),
        "strict.names_ordering_1_3_2": ExpectedValue(
            True, "CE3: no two cutpoints equalize values for the 1-3-2 ordering"
        ),
        "strict.infeasible_orderings": ExpectedValue(
            (
                ("P1", "P2", "P3"),
                ("P1", "P3", "P2"),
                ("P3", "P1", "P2"),
                ("P3", "P2", "P1"),
            ),
            "derived: greedy chaining also rejects 1-2-3, 3-1-2 and 3-2-1; "
            "the published impossibility is 1-3-2",
        ),
        "lenient.ordering": ExpectedValue(
            ("P2", "P1", "P3"), "CE3: best feasible assignment, solved by hand"
        ),
        "lenient.common_value": ExpectedValue(
            Fraction("3/5"), "CE3: 3x = x2-x1 = 3(1-x2) solves to 3/5"
        ),
        "lenient.cuts": ExpectedValue(
            (Fraction("1/5"), Fraction("4/5")), "CE3: cuts for the 2-1-3 assignment"
        ),
    }
    return CounterexampleCase(
        3,
        "the equal-value cut system can be unsolvable for some assignments",
        {"main": scenario},
        expected,
        _actuals_ce3,
    )


def _ce4() -> CounterexampleCase:
    scenario = Scenario(
        tuple((name, StepDensity.uniform()) for name in ("P1", "P2", "P3"))
    )
    expected = {
        "cuts": ExpectedValue(
            (Fraction("1/3"), Fraction("2/3")), "CE4: the unique marks are at 1/3 and 2/3"
        ),
        "values": ExpectedValue(
            (Fraction("1/3"), Fraction("1/3"), Fraction("1/3")), "CE4: uniform players split evenly"
        ),
        "shift_by_1/100.min_value": ExpectedValue(
            Fraction("97/300"), "CE4: moving both marks right by 1/100 shorts the last player"
        ),
        "shift_by_1/100.breaks_fair_share": ExpectedValue(
            True, "CE4: some player falls below 1/3"
        ),
        "shift_by_1/10.min_value": ExpectedValue(
            Fraction("7/30"), "CE4: moving both marks right by 1/10 leaves 7/30 < 1/3"
        ),
        "shift_by_1/10.breaks_fair_share": ExpectedValue(
            True, "CE4: some player falls below 1/3"
        ),
    }
    return CounterexampleCase(
        4,
        "moving every mark rightward cannot raise everyone above 1/n",
        {"main": scenario},
        expected,
        _actuals_ce4,
    )


def _ce5_scenario() -> Scenario:
    hot, cold = Fraction("12/5"), Fraction("3/10")
    a = StepDensity.of(
        (0, "1/6", hot), ("1/6", "1/2", cold), ("1/2", "2/3", hot), ("2/3", 1, cold)
    )
    b = StepDensity.of(
        (0, "1/6", cold),
        ("1/6", "1/3", hot),
        ("1/3", "2/3", cold),
        ("2/3", "5/6", hot),
        ("5/6", 1, cold),
    )
    c = StepDensity.of(
        (0, "1/3", cold), ("1/3", "1/2", hot), ("1/2", "5/6", cold), ("5/6", 1, hot)
    )
    return Scenario((("A", a), ("B", b), ("C", c)))


def ce5_block_allocation() -> Allocation:
    return Allocation.of(
        {
            "A": IntervalSet.of((0, "1/6"), ("1/2", "2/3")),
            "B": IntervalSet.of(("1/6", "1/3"), ("2/3", "5/6")),
            "C": IntervalSet.of(("1/3", "1/2"), ("5/6", 1)),
        }
    )


def _ce5() -> CounterexampleCase:
    expected = {
        "ep.ordering": ExpectedValue(("A", "C", "B"), "CE5: pieces go to A, C, B left to right"),
        "ep.cuts": ExpectedValue((Fraction("1/3"), Fraction("2/3")), "CE5: cuts at 1/3 and 2/3"),
        "ep.common_value": ExpectedValue(Fraction("9/20"), "CE5: each receives exactly .45"),
        "ep.values": ExpectedValue(
            (Fraction("9/20"), Fraction("9/20"), Fraction("9/20")), "CE5: equal shares of .45"
        ),
        "block.values": ExpectedValue(
            (Fraction("4/5"), Fraction("4/5"), Fraction("4/5")),
            "CE5: favorite-region split is worth .8 to each",
        ),
        "block.dominates_ep": ExpectedValue(
            True, "CE5: .8 beats .45 for every player"
        ),
        "ep.pareto_optimal": ExpectedValue(False, "CE5: the equal-value outcome is dominated"),
        "lp_witness.values": ExpectedValue(
            (Fraction("4/5"), Fraction("4/5"), Fraction("4/5")),
            "derived: the only total-value maximizer gives every hot sixth to its fan",
        ),
    }
    return CounterexampleCase(
        5,
        "the equal-value procedure is not Pareto optimal",
        {"main": _ce5_scenario()},
        expected,
        _actuals_ce5,
    )


def _ce6_scenario() -> Scenario:
    hot, cold = Fraction("8/5"), Fraction("2/5")
    a = StepDensity.of(
        (0, "1/4", hot), ("1/4", "1/2", cold), ("1/2", "3/4", hot), ("3/4", 1, cold)
    )
    b = StepDensity.of(
        (0, "1/4", cold), ("1/4", "1/2", hot), ("1/2", "3/4", cold), ("3/4", 1, hot)
    )
    return Scenario((("A", a), ("B", b)))


def ce6_block_allocation() -> Allocation:
    return Allocation.of(
        {
            "A": IntervalSet.of((0, "1/4"), ("1/2", "3/4")),
            "B": IntervalSet.of(("1/4", "1/2"), ("3/4", 1)),
        }
    )


def _ce6() -> CounterexampleCase:
    expected = {
        "sp_e.cut": ExpectedValue(Fraction("1/2"), "CE6: the cut lands at 1/2"),
        "sp_e.values": ExpectedValue(
            (Fraction("1/2"), Fraction("1/2")), "CE6: each receives a portion worth exactly .5"
        ),
        "sp_p.cut": ExpectedValue(
            Fraction("1/2"), "CE6: both variants coincide, the surplus is empty"
        ),
        "sp_p.values": ExpectedValue(
            (Fraction("1/2"), Fraction("1/2")), "CE6: same values either way"
        ),
        "block.values": ExpectedValue(
            (Fraction("4/5"), Fraction("4/5")), "CE6: favorite-quarters split is worth .8 to each"
        ),
        "block.dominates_sp": ExpectedValue(True, "CE6: .8 beats .5 for both players"),
        "sp.pareto_optimal": ExpectedValue(False, "CE6: the median-cut outcome is dominated"),
        "block.pareto_optimal": ExpectedValue(
            True, "derived: the split attains the utilitarian bound"
        ),
        "block.improvement_gain": ExpectedValue(
            Fraction(0), "derived: the improvement optimum equals the current total"
        ),
        "utilitarian_bound": ExpectedValue(
            Fraction("8/5"), "CE6: densities are 1.6 and .4, the max integrates to 1.6"
        ),
        "block.total_value": ExpectedValue(Fraction("8/5"), "CE6: .8 plus .8"),
        "lp_witness.values": ExpectedValue(
            (Fraction("4/5"), Fraction("4/5")),
            "derived: the only total-value maximizer gives every hot quarter to its fan",
        ),
    }
    return CounterexampleCase(
        6,
        "the median-cut procedure is not Pareto optimal",
        {"main": _ce6_scenario()},
        expected,
        _actuals_ce6,
    )


def _values_tuple(scenario: Scenario, allocation: Allocation) -> tuple[Fraction, ...]:
    return tuple(declared_values(scenario, allocation).values())


def _weakly_dominates(better: Sequence[Fraction], worse: Sequence[Fraction]) -> bool:
    return all(b >= w for b, w in zip(better, worse)) and any(
        b > w for b, w in zip(better, worse)
    )


def _strictly_dominates(better: Sequence[Fraction], worse: Sequence[Fraction]) -> bool:
    return all(b > w for b, w in zip(better, worse))


def _witness_values(
    scenario: Scenario, report: PropertyReport
) -> Optional[tuple[Fraction, ...]]:
    """The dominating allocation's values in scenario order, or None."""
    if report.witness is None:
        return None
    return tuple(report.witness.value_vector[name] for name in scenario.names)


def _actuals_ce1(case: CounterexampleCase) -> dict:
    actuals: dict = {}
    split = (Fraction(1), Fraction(1))
    actuals["square.split_values"] = split
    for key in ("vertical", "horizontal"):
        outcome = cut_and_choose(case.scenarios[key], cutter="P1")
        values = _values_tuple(case.scenarios[key], outcome.allocation)
        actuals[f"{key}.cut"] = outcome.cuts[0]
        actuals[f"{key}.values"] = values
        actuals[f"{key}.weakly_dominated_by_split"] = _weakly_dominates(split, values)
        actuals[f"{key}.split_strictly_better_for_P1"] = split[0] > values[0]
    return actuals


def _actuals_ce2(case: CounterexampleCase) -> dict:
    scenario = case.scenarios["main"]
    outcome = cut_and_choose(scenario, cutter="P1")
    witness_allocation = Allocation.of(
        {"P1": IntervalSet.of(("1/4", 1)), "P2": IntervalSet.of((0, "1/4"))}
    )
    witness_values = _values_tuple(scenario, witness_allocation)
    values = _values_tuple(scenario, outcome.allocation)
    report = pareto_optimal_check(scenario, outcome.allocation)
    median = scenario.density("P2").median_interval()
    return {
        "cut": outcome.cuts[0],
        "values": values,
        "published_witness.values": witness_values,
        "published_witness.dominates": _weakly_dominates(witness_values, values),
        "pareto_optimal": report.passed,
        "median_interval.P2": (median.lo, median.hi),
    }


def _actuals_ce3(case: CounterexampleCase) -> dict:
    # One walk of every ordering serves both modes: strict mode fails exactly
    # when some ordering is infeasible, lenient mode takes the best of the rest.
    tied, infeasible = _ep_search(case.scenarios["main"], walk_all=True)
    names, solution = tied[0]
    actuals: dict = {
        "lenient.ordering": names,
        "lenient.common_value": solution.common_value,
        "lenient.cuts": solution.cuts,
    }
    if infeasible:
        actuals["strict.error_code"] = EPUndefinedError.code
        actuals["strict.names_ordering_1_3_2"] = ("P1", "P3", "P2") in infeasible
        actuals["strict.infeasible_orderings"] = tuple(infeasible)
    return actuals


def _actuals_ce4(case: CounterexampleCase) -> dict:
    scenario = case.scenarios["main"]
    outcome = moving_knife(scenario)
    actuals: dict = {
        "cuts": outcome.cuts,
        "values": _values_tuple(scenario, outcome.allocation),
    }
    third = Fraction(1, 3)
    for label, shift in (("1/100", Fraction(1, 100)), ("1/10", Fraction(1, 10))):
        shifted = contiguous_allocation(
            outcome.ordering, tuple(cut + shift for cut in outcome.cuts)
        )
        values = _values_tuple(scenario, shifted)
        actuals[f"shift_by_{label}.min_value"] = min(values)
        actuals[f"shift_by_{label}.breaks_fair_share"] = min(values) < third
    return actuals


def _actuals_ce5(case: CounterexampleCase) -> dict:
    scenario = case.scenarios["main"]
    outcome = equitability(scenario, strict=False)
    block = ce5_block_allocation()
    block_values = _values_tuple(scenario, block)
    ep_values = _values_tuple(scenario, outcome.allocation)
    report = pareto_optimal_check(scenario, outcome.allocation)
    return {
        "ep.ordering": outcome.ordering,
        "ep.cuts": outcome.cuts,
        "ep.common_value": outcome.common_value,
        "ep.values": ep_values,
        "block.values": block_values,
        "block.dominates_ep": _strictly_dominates(block_values, ep_values),
        "ep.pareto_optimal": report.passed,
        "lp_witness.values": _witness_values(scenario, report),
    }


def _actuals_ce6(case: CounterexampleCase) -> dict:
    scenario = case.scenarios["main"]
    equitable = surplus_divide(scenario, EQUITABLE)
    proportional = surplus_divide(scenario, PROPORTIONAL)
    block = ce6_block_allocation()
    block_values = _values_tuple(scenario, block)
    sp_values = _values_tuple(scenario, equitable.allocation)
    sp_report = pareto_optimal_check(scenario, equitable.allocation)
    block_report = pareto_optimal_check(scenario, block)
    # The witness realizes the LP optimum exactly, so its gains sum to the
    # optimum minus the current total; with no witness the two are equal.
    witness = block_report.witness
    gain = ZERO if witness is None else sum(witness.gains.values(), ZERO)
    return {
        "sp_e.cut": equitable.cuts[0],
        "sp_e.values": sp_values,
        "sp_p.cut": proportional.cuts[0],
        "sp_p.values": _values_tuple(scenario, proportional.allocation),
        "block.values": block_values,
        "block.dominates_sp": _strictly_dominates(block_values, sp_values),
        "sp.pareto_optimal": sp_report.passed,
        "block.pareto_optimal": block_report.passed,
        "block.improvement_gain": gain,
        "utilitarian_bound": utilitarian_bound(scenario),
        "block.total_value": sum(block_values, ZERO),
        "lp_witness.values": _witness_values(scenario, sp_report),
    }


CASES: dict[int, CounterexampleCase] = {
    case.id: case for case in (_ce1(), _ce2(), _ce3(), _ce4(), _ce5(), _ce6())
}


def run_counterexample(case_id: int) -> ComparisonReport:
    """Replay one registered case and compare every number exactly.

    Returns the comparison when everything matches; raises MismatchError
    listing every divergent field otherwise.
    """
    if case_id not in CASES:
        raise ValueError(f"no case {case_id}; ids are {sorted(CASES)}")
    case = CASES[case_id]
    actuals = case.replay(case)
    entries = []
    for key in case.expected:
        expected = case.expected[key]
        actual = actuals.get(key, "<not computed>")
        entries.append(
            ComparisonEntry(
                field=key,
                expected=expected.value,
                actual=actual,
                ok=actual == expected.value,
                source=expected.source,
            )
        )
    report = ComparisonReport(case_id=case.id, title=case.title, entries=tuple(entries))
    if not report.ok:
        raise MismatchError(report)
    return report

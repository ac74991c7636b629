import copy
import dataclasses
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairslice import (
    CASES,
    InvalidDensityError,
    MismatchError,
    OutputTooLargeError,
    ParseError,
    Scenario,
    StepDensity,
    TieRule,
    emit_report,
    load_allocation,
    load_densities,
    load_document,
    load_scenario,
    run_counterexample,
    run_procedure,
    save_scenario,
)
from fairslice import harness, solve
from fairslice.cli import main
from fairslice.harness import ComparisonEntry, ComparisonReport, fmt_rational, parse_tie
from fairslice.measures import Piece, as_rational
from fairslice.procedures import PROCEDURE_NAMES
from helpers import random_density, random_scenario

ZERO, ONE, HALF = F(0), F(1), F(1, 2)


def doc(players, **extra):
    return {"schema": "fairslice/1", "players": players, **extra}


def uniform_player(name):
    return {"name": name, "pieces": [{"from": 0, "to": 1, "density": 1}]}


CE2_DOC = doc(
    [
        uniform_player("P1"),
        {
            "name": "P2",
            "pieces": [
                {"from": 0, "to": "1/4", "density": 2},
                {"from": "1/4", "to": "3/4", "density": 0},
                {"from": "3/4", "to": 1, "density": 2},
            ],
        },
    ]
)

HALVES_DOC = {
    "schema": "fairslice/1",
    "portions": {"P1": [{"from": 0, "to": "1/2"}], "P2": [{"from": "1/2", "to": 1}]},
}


# --- loading -------------------------------------------------------------------


def test_load_single_uniform_player():
    scenario = load_scenario(doc([uniform_player("solo")]))
    assert scenario.n == 1
    assert scenario.density("solo").cdf(HALF) == HALF


def test_load_ce2_document_and_query_median():
    scenario = load_scenario(CE2_DOC)
    median = scenario.density("P2").median_interval()
    assert (median.lo, median.hi) == (F(1, 4), F(3, 4))


def test_load_rejects_negative_density():
    bad = doc([{"name": "A", "pieces": [{"from": 0, "to": 1, "density": "-1"}]}])
    with pytest.raises(InvalidDensityError):
        load_scenario(bad)


def test_load_rejects_floats_and_zero_denominators():
    with pytest.raises(ParseError):
        load_scenario(doc([{"name": "A", "pieces": [{"from": 0, "to": 1, "density": 0.5}]}]))
    with pytest.raises(ParseError):
        load_scenario(doc([{"name": "A", "pieces": [{"from": 0, "to": 1, "density": "1/0"}]}]))


def test_load_rejects_missing_schema_and_bad_json():
    with pytest.raises(ParseError):
        load_scenario({"players": [uniform_player("A")]})
    with pytest.raises(ParseError):
        load_scenario("{not json")
    with pytest.raises(ParseError):
        load_scenario(doc([{"name": "A", "pieces": [{"from": 0, "to": 1}]}]))


def test_load_document_with_procedure_and_truth():
    document = load_document(
        doc(
            [uniform_player("A"), uniform_player("B")],
            procedure={"name": "sp-e", "options": {"strict": True, "tie": "seed:9"}},
            truth=[uniform_player("A"), uniform_player("B")],
        )
    )
    assert document.procedure.name == "sp-e"
    assert document.procedure.strict is True
    assert document.procedure.tie == TieRule.seeded(9)
    assert document.truth.density("A").cdf(HALF) == HALF


def test_load_document_validates_each_density_once(monkeypatch):
    calls = []
    validate = StepDensity.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(StepDensity, "validate", counted)
    load_document(
        doc(
            [uniform_player("A"), uniform_player("B")],
            truth=[uniform_player("A"), uniform_player("B")],
        )
    )
    assert len(calls) == 4


def test_load_reports_a_repeated_name_before_an_invalid_density():
    bad = {"name": "A", "pieces": [{"from": 0, "to": 1, "density": "-1"}]}
    with pytest.raises(ParseError, match="duplicate"):
        load_scenario(doc([bad, uniform_player("A")]))


def test_load_document_rejects_non_bool_strict():
    for strict in ("false", "true", 0, 1, None):
        with pytest.raises(ParseError, match="strict"):
            load_document(
                doc(
                    [uniform_player("A"), uniform_player("B")],
                    procedure={"name": "sp-e", "options": {"strict": strict}},
                )
            )


def test_load_document_rejects_non_string_tie():
    for tie in (7, None, ["lowest"]):
        with pytest.raises(ParseError, match="tie"):
            load_document(
                doc(
                    [uniform_player("A"), uniform_player("B")],
                    procedure={"name": "sp-e", "options": {"tie": tie}},
                )
            )


def test_load_document_rejects_non_string_cutter():
    for cutter in (7, None, ["A"]):
        with pytest.raises(ParseError, match="cutter"):
            load_document(
                doc(
                    [uniform_player("A"), uniform_player("B")],
                    procedure={"name": "cut-choose", "options": {"cutter": cutter}},
                )
            )


def test_parse_tie():
    assert parse_tie("lowest").mode == "lowest"
    assert parse_tie("seed:42") == TieRule.seeded(42)
    with pytest.raises(ParseError):
        parse_tie("coin")
    with pytest.raises(ParseError):
        parse_tie("seed:x")


# Spellings int() would read as a seed; only 0|[1-9][0-9]* in ASCII names one.
NON_CANONICAL_SEEDS = ["seed:1_0", "seed:+3", "seed: 7", "seed:7 ", "seed:٣", "seed:007", "seed:"]


def test_parse_tie_reads_one_ascii_spelling_per_seed():
    assert parse_tie("seed:0") == TieRule.seeded(0)
    assert parse_tie("seed:10") == TieRule.seeded(10)
    assert parse_tie(f"seed:{2**64 - 1}") == TieRule.seeded(2**64 - 1)
    for text in NON_CANONICAL_SEEDS + [f"seed:{2**64}", "seed:" + "9" * 5000]:
        with pytest.raises(ParseError) as excinfo:
            parse_tie(text)
        assert str(excinfo.value) == f"invalid tie seed in {text!r}"


def test_seeded_procedure_round_trips_through_save():
    text = json.dumps(
        doc(
            [uniform_player("A"), uniform_player("B")],
            procedure={"name": "moving-knife", "options": {"strict": False, "tie": "seed:42"}},
        )
    )
    document = load_document(text)
    saved = save_scenario(document.scenario, procedure=document.procedure)
    assert json.loads(saved)["procedure"]["options"]["tie"] == "seed:42"
    assert load_document(saved) == document


def test_cutter_and_lowest_tie_round_trip_through_save():
    text = json.dumps(
        doc(
            [uniform_player("A"), uniform_player("B")],
            procedure={"name": "cut-choose", "options": {"cutter": "B", "tie": "lowest"}},
        )
    )
    document = load_document(text)
    saved = save_scenario(document.scenario, procedure=document.procedure)
    options = json.loads(saved)["procedure"]["options"]
    assert options == {"cutter": "B", "strict": False, "tie": "lowest"}
    assert load_document(saved) == document


def test_load_allocation_and_partition_errors():
    allocation = load_allocation(
        {
            "schema": "fairslice/1",
            "portions": {
                "P1": [{"from": "1/4", "to": 1}],
                "P2": [{"from": 0, "to": "1/4"}],
            },
        }
    )
    assert allocation.portion("P2").length == F(1, 4)
    with pytest.raises(Exception):
        load_allocation(
            {"schema": "fairslice/1", "portions": {"P1": [{"from": 0, "to": "1/2"}]}}
        )


def test_load_densities():
    densities = load_densities(
        {
            "schema": "fairslice/1",
            "densities": [
                [{"from": 0, "to": 1, "density": 1}],
                [
                    {"from": 0, "to": "1/2", "density": 2},
                    {"from": "1/2", "to": 1, "density": 0},
                ],
            ],
        }
    )
    assert len(densities) == 2
    assert densities[1].cdf(HALF) == ONE


class Entry(dict):
    """A dict subclass, as a document built in Python may hold."""


def rebuilt(document, literal, entry):
    """``document`` with each span object (a piece or a portion's interval)
    rebuilt as ``entry`` of its rationals passed through ``literal``."""
    if isinstance(document, list):
        return [rebuilt(item, literal, entry) for item in document]
    if not isinstance(document, dict):
        return document
    if "from" in document:
        return entry({key: literal(value) for key, value in document.items()})
    return {key: rebuilt(value, literal, entry) for key, value in document.items()}


@pytest.mark.parametrize(
    "literal, entry", [(F, dict), (lambda value: value, Entry)], ids=["fractions", "dict-subclass"]
)
def test_load_reads_python_built_documents_as_their_json_text(literal, entry):
    # Neither a Fraction nor a dict subclass comes out of json.loads, so
    # the column read declines both, and the entry-by-entry read, finding
    # no fault, reads the spans as the column read would.
    densities = {"schema": "fairslice/1", "densities": [p["pieces"] for p in CE2_DOC["players"]]}
    for load, document in (
        (load_document, CE2_DOC),
        (load_allocation, HALVES_DOC),
        (load_densities, densities),
    ):
        assert load(rebuilt(document, literal, entry)) == load(json.dumps(document))


# --- round trips ------------------------------------------------------------------


def test_save_load_round_trip_preserves_values():
    rng = random.Random(3)
    for _ in range(20):
        scenario = random_scenario(rng, rng.choice((1, 2, 3)))
        text = save_scenario(scenario)
        again = load_scenario(text)
        assert again == scenario


def test_save_load_round_trip_preserves_truth():
    scenario = load_scenario(CE2_DOC)
    rng = random.Random(5)
    truth = Scenario((("P2", random_density(rng)), ("P1", random_density(rng))))
    document = load_document(save_scenario(scenario, truth=truth))
    assert document.scenario == scenario
    assert document.truth == truth


def test_save_is_a_fixpoint_of_load():
    text = save_scenario(load_scenario(CE2_DOC))
    assert save_scenario(load_scenario(text)) == text


# --- registry ----------------------------------------------------------------------


def test_registry_covers_all_six_cases():
    assert sorted(CASES) == [1, 2, 3, 4, 5, 6]


def test_registry_values_carry_sources():
    for case in CASES.values():
        for key, expected in case.expected.items():
            assert expected.source.strip(), (case.id, key)


def test_registry_spot_values_match_independent_literals():
    assert CASES[1].expected["horizontal.cut"].value == F(3, 4)
    assert CASES[2].expected["published_witness.values"].value == (F(3, 4), HALF)
    assert CASES[3].expected["lenient.common_value"].value == F(3, 5)
    assert CASES[4].expected["shift_by_1/10.min_value"].value == F(7, 30)
    assert CASES[5].expected["ep.common_value"].value == F(9, 20)
    assert CASES[6].expected["utilitarian_bound"].value == F(8, 5)


@pytest.mark.parametrize("case_id", [1, 2, 3, 4, 5, 6])
def test_run_counterexample_matches_registry(case_id):
    report = run_counterexample(case_id)
    assert report.ok
    assert report.case_id == case_id


def test_run_counterexample_rejects_unknown_id():
    with pytest.raises(ValueError):
        run_counterexample(7)


def test_mismatch_error_lists_divergent_fields():
    report = ComparisonReport(
        case_id=2,
        title="synthetic",
        entries=(
            ComparisonEntry("cut", HALF, F(1, 3), False, "synthetic"),
            ComparisonEntry("values", (HALF,), (HALF,), True, "synthetic"),
        ),
    )
    err = MismatchError(report)
    assert err.exit_status == 4
    assert "cut" in str(err) and "values" not in str(err)


# --- reports ------------------------------------------------------------------------


def test_emit_report_empty_has_schema_header():
    parsed = json.loads(emit_report([]))
    assert parsed == {"schema": "fairslice/1", "results": []}


def test_emit_report_renders_exact_and_approximate():
    text = emit_report({"share": F(9, 20)})
    assert "9/20 (0.45)" in text


def test_emit_report_renders_a_scenario_as_each_players_pieces():
    results = json.loads(emit_report(load_scenario(CE2_DOC)))["results"]
    assert results == {
        "P1": [{"from": "0 (0)", "to": "1 (1)", "density": "1 (1)"}],
        "P2": [
            {"from": "0 (0)", "to": "1/4 (0.25)", "density": "2 (2)"},
            {"from": "1/4 (0.25)", "to": "3/4 (0.75)", "density": "0 (0)"},
            {"from": "3/4 (0.75)", "to": "1 (1)", "density": "2 (2)"},
        ],
    }


def test_emit_report_deterministic():
    report = run_counterexample(5)
    assert emit_report(report) == emit_report(run_counterexample(5))
    assert "9/20 (0.45)" in emit_report(report)


def test_ce3_strict_report_lists_infeasible_orderings(capsys):
    code = main(["paper-ce", "3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    entries = {e["field"]: e for e in out["results"]["comparison"]["entries"]}
    assert entries["strict.error_code"]["actual"] == "EP_UNDEFINED"
    assert ["P1", "P3", "P2"] in entries["strict.infeasible_orderings"]["actual"]


# --- CLI ----------------------------------------------------------------------------


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(CE2_DOC), encoding="utf-8")
    return path


def test_cli_run_cut_choose(scenario_file, capsys):
    code = main(
        ["run", str(scenario_file), "--procedure", "cut-choose", "--cutter", "P1"]
    )
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["results"]["outcome"]["cuts"] == ["1/2 (0.5)"]


@pytest.mark.parametrize("procedure", ["cut-choose", "moving-knife", "sp-e", "sp-p", "ep"])
def test_cli_run_report_holds_the_outcome_allocation(procedure, scenario_file, capsys):
    assert main(["run", str(scenario_file), "--procedure", procedure]) == 0
    outcome = json.loads(capsys.readouterr().out)["results"]["outcome"]
    assert set(outcome) == {"allocation", "common_value", "cuts", "ordering", "tie_events"}
    expected = run_procedure(procedure, load_scenario(CE2_DOC)).allocation
    assert outcome["allocation"] == {
        name: [{"from": fmt_rational(iv.lo), "to": fmt_rational(iv.hi)} for iv in portion.intervals]
        for name, portion in expected.portions
    }


def test_cli_run_requires_procedure(scenario_file, capsys):
    assert main(["run", str(scenario_file)]) == 2


def test_cli_run_strict_surplus_exits_undefined(scenario_file):
    code = main(["run", str(scenario_file), "--procedure", "sp-e", "--strict"])
    assert code == 3


def test_cli_run_writes_output_file(scenario_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "run",
            str(scenario_file),
            "--procedure",
            "moving-knife",
            "--tie",
            "seed:5",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8"))["schema"] == "fairslice/1"


def test_cli_verify(scenario_file, tmp_path, capsys):
    allocation = tmp_path / "allocation.json"
    allocation.write_text(
        json.dumps(
            {
                "schema": "fairslice/1",
                "portions": {
                    "P1": [{"from": "1/4", "to": 1}],
                    "P2": [{"from": 0, "to": "1/4"}],
                },
            }
        ),
        encoding="utf-8",
    )
    code = main(
        [
            "verify",
            str(scenario_file),
            str(allocation),
            "--checks",
            "proportional,envy,pareto",
        ]
    )
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    checks = parsed["results"]["checks"]
    assert [c["check"] for c in checks] == ["proportional", "envy-free", "pareto"]
    assert checks[0]["values"]["P1"] == "3/4 (0.75)"


def test_cli_verify_runs_each_check_once_in_first_mention_order(
    scenario_file, tmp_path, capsys, monkeypatch
):
    calls = []
    core = solve._simplex_core
    monkeypatch.setattr(solve, "_simplex_core", lambda *rows: calls.append(rows) or core(*rows))
    allocation = tmp_path / "allocation.json"
    allocation.write_text(json.dumps(HALVES_DOC), encoding="utf-8")
    argv = ["verify", str(scenario_file), str(allocation), "--checks", "envy,pareto,envy,pareto"]
    assert main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["results"]["checks"]
    assert [c["check"] for c in checks] == ["envy-free", "pareto"]
    assert len(calls) == 1


def test_cli_paper_ce_all_pass(capsys):
    for case_id in range(1, 7):
        assert main(["paper-ce", str(case_id)]) == 0
        capsys.readouterr()


# sha256 of the `paper-ce N` report on stdout, for N = 1..6.
PINNED_PAPER_CE_SHA256 = {
    1: "4c67caee1a3ffa07e302e28077019f8e6b5ae81406d6819268cfb71da9a10f56",
    2: "832f87ceaeeeb881d03a3effe86ea15f6c29fd312ed123ed134d0445ccd5eb78",
    3: "71df5986b5caac8d6a59940c5420495a8bd977a11297cb99190efe93fe6d6270",
    4: "167dae4a55bb58f637e8963234455e45a2cdea6473baa6c2bc303b14646432d2",
    5: "40ec60b79052df274a3077d9053046999a7e2ea218f407dfd669ca854cb7e93e",
    6: "0a4affcbe4ffb62052e978375653a6682adf1e9affaaf41ab9d5b5181005d884",
}


@pytest.mark.parametrize("case_id", sorted(PINNED_PAPER_CE_SHA256))
def test_cli_paper_ce_reports_are_byte_identical(case_id, capsys):
    assert main(["paper-ce", str(case_id)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_PAPER_CE_SHA256[case_id]


def test_module_entry_point_replays_ce3():
    # The in-process calls never reach cli.py's `if __name__ == "__main__"`.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-m", "fairslice.cli", "paper-ce", "3"]
    result = subprocess.run(argv, env=env, capture_output=True, check=False)
    assert (result.returncode, result.stderr) == (0, b"")
    assert hashlib.sha256(result.stdout).hexdigest() == PINNED_PAPER_CE_SHA256[3]


def test_ce6_replay_solves_one_lp_per_pareto_question(monkeypatch):
    calls = []
    core = solve._simplex_core

    def counted(*rows):
        calls.append(rows)
        return core(*rows)

    # Patch every module that holds the simplex core by name, so that a
    # direct import of it is counted too; simplex_max and pareto_improve
    # both solve through it.
    for name, module in list(sys.modules.items()):
        if name.startswith("fairslice") and getattr(module, "_simplex_core", None) is core:
            monkeypatch.setattr(module, "_simplex_core", counted)
    run_counterexample(6)
    # One LP, for the dominated median-cut outcome; the block allocation is
    # optimal, which the trade-rate closure settles with no LP.
    assert len(calls) == 1


def test_cli_paper_ce_mismatch_exits_4(capsys, monkeypatch):
    import fairslice.harness as harness_module

    case = harness_module.CASES[2]
    broken = dataclasses.replace(case, replay=lambda c: {**case.replay(c), "cut": F(1, 3)})
    monkeypatch.setitem(harness_module.CASES, 2, broken)
    assert main(["paper-ce", "2"]) == 4
    out = capsys.readouterr().out
    parsed = json.loads(out)
    entries = {e["field"]: e for e in parsed["results"]["comparison"]["entries"]}
    assert entries["cut"]["ok"] is False


def test_cli_manipulate(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            doc(
                [
                    uniform_player("A"),
                    {
                        "name": "B",
                        "pieces": [
                            {"from": 0, "to": "1/4", "density": 2},
                            {"from": "1/4", "to": "3/4", "density": 0},
                            {"from": "3/4", "to": 1, "density": 2},
                        ],
                    },
                ],
                procedure={"name": "cut-choose", "options": {"cutter": "A"}},
            )
        ),
        encoding="utf-8",
    )
    candidates = tmp_path / "candidates.json"
    candidates.write_text(
        json.dumps(
            {
                "schema": "fairslice/1",
                "densities": [
                    [
                        {"from": 0, "to": "1/2", "density": 2},
                        {"from": "1/2", "to": 1, "density": 0},
                    ]
                ],
            }
        ),
        encoding="utf-8",
    )
    opponents = tmp_path / "opponents.json"
    opponents.write_text(
        json.dumps(
            {
                "schema": "fairslice/1",
                "densities": [
                    [
                        {"from": 0, "to": "1/4", "density": 2},
                        {"from": "1/4", "to": "3/4", "density": 0},
                        {"from": "3/4", "to": 1, "density": 2},
                    ]
                ],
            }
        ),
        encoding="utf-8",
    )
    code = main(
        [
            "manipulate",
            str(scenario),
            "--player",
            "A",
            "--candidates",
            str(candidates),
            "--opponents",
            str(opponents),
        ]
    )
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["results"]["witness_found"] is True
    assert parsed["results"]["witness"]["misreport_values"] == ["3/4 (0.75)"]


def test_cli_manipulate_reports_a_density_beyond_float_range(tmp_path, capsys):
    big = 10**400
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            doc(
                [uniform_player("A"), uniform_player("B")],
                procedure={"name": "cut-choose", "options": {"cutter": "A"}},
            )
        ),
        encoding="utf-8",
    )
    candidate = [
        {"from": 0, "to": f"1/{big}", "density": f"{big}/4"},
        {"from": f"1/{big}", "to": "1/4", "density": f"{big}/{big - 4}"},
        {"from": "1/4", "to": 1, "density": "2/3"},
    ]
    opponent = [{"from": 0, "to": "1/4", "density": 4}, {"from": "1/4", "to": 1, "density": 0}]
    candidates = tmp_path / "candidates.json"
    opponents = tmp_path / "opponents.json"
    for path, density in ((candidates, candidate), (opponents, opponent)):
        path.write_text(
            json.dumps({"schema": "fairslice/1", "densities": [density]}), encoding="utf-8"
        )
    argv = ["manipulate", str(scenario), "--player", "A"]
    argv += ["--candidates", str(candidates), "--opponents", str(opponents)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(out)  # one JSON document
    assert report["results"]["witness_found"] is True
    assert report["results"]["witness"]["misreport"][0]["density"] == f"{F(big, 4)} (2.5e+399)"


def test_fmt_rational_beyond_float_range():
    big = 10**400
    assert fmt_rational(F(big)) == f"{big} (1e+400)"
    assert fmt_rational(F(-big)) == f"-{big} (-1e+400)"
    assert fmt_rational(F(-1, big)) == f"-1/{big} (-1e-400)"
    assert fmt_rational(F(big, 3)) == f"{big}/3 (3.33333e+399)"
    # inside float range the approximation is still the float's
    for value in (F(9, 20), F(0), F(-2, 3), F(10**300, 7), F(5, 10**324), F(1234567)):
        assert fmt_rational(value) == f"{value} ({format(float(value), '.6g')})"


def test_unprintable_values_raise_a_typed_error():
    # 4401 digits: more than str() of an int converts by default
    huge = 10**4400 + 7
    for value in (F(huge), F(1, huge), F(-huge, 3)):
        with pytest.raises(OutputTooLargeError, match="^cannot print an exact result: "):
            fmt_rational(value)
    density = StepDensity.of((0, F(1, huge), F(huge, 2)), (F(1, huge), 1, F(huge, 2 * huge - 2)))
    with pytest.raises(OutputTooLargeError):
        save_scenario(Scenario((("A", density),)))


def test_cli_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", str(bad), "--procedure", "moving-knife"]) == 2


def test_cli_missing_file_exits_2_with_one_line(capsys):
    assert main(["run", "/nonexistent.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [IO_ERROR]: ") and "/nonexistent.json" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "players, options, code",
    [
        (["A", "B", "C"], {}, "INVALID_PLAYERS"),
        (["A", "B"], {"cutter": "Z"}, "INVALID_PLAYERS"),
        (["A", "B"], {"cutter": 7}, "PARSE_ERROR"),
    ],
)
def test_cli_run_bad_players_exit_2_with_one_line(tmp_path, capsys, players, options, code):
    path = tmp_path / "scenario.json"
    document = doc(
        [uniform_player(name) for name in players],
        procedure={"name": "cut-choose", "options": options},
    )
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [{code}]: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("in_document", [False, True])
def test_cli_run_negative_tie_seed_exit_2_with_one_line(tmp_path, capsys, in_document):
    # random.Random seeds by absolute value, so seed:-1 would replay seed:1
    path = tmp_path / "scenario.json"
    options = {"tie": "seed:-1"} if in_document else {}
    document = doc(
        [uniform_player("A"), uniform_player("B")],
        procedure={"name": "moving-knife", "options": options},
    )
    path.write_text(json.dumps(document), encoding="utf-8")
    argv = ["run", str(path)] + ([] if in_document else ["--tie", "seed:-1"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error [PARSE_ERROR]: invalid tie seed in 'seed:-1'\n"


@pytest.mark.parametrize("in_document", [False, True])
@pytest.mark.parametrize("text", NON_CANONICAL_SEEDS)
def test_cli_run_non_canonical_tie_seed_exit_2_with_one_line(tmp_path, capsys, text, in_document):
    path = tmp_path / "scenario.json"
    options = {"tie": text} if in_document else {}
    document = doc(
        [uniform_player("A"), uniform_player("B")],
        procedure={"name": "moving-knife", "options": options},
    )
    path.write_text(json.dumps(document), encoding="utf-8")
    argv = ["run", str(path)] + ([] if in_document else ["--tie", text])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error [PARSE_ERROR]: invalid tie seed in {text!r}\n"


def test_cli_verify_unknown_check_exit_2_with_one_line(scenario_file, tmp_path, capsys):
    allocation = tmp_path / "allocation.json"
    allocation.write_text(json.dumps(HALVES_DOC), encoding="utf-8")
    assert main(["verify", str(scenario_file), str(allocation), "--checks", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [ERROR]: unknown checks ['bogus']")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "players, procedure, player, message",
    [
        (["A", "B", "C"], {"name": "cut-choose"}, "A", "needs a two-player scenario"),
        (["A", "B"], None, "A", "must embed a procedure"),
        (["A", "B"], {"name": "cut-choose"}, "Z", "unknown player 'Z'"),
    ],
)
def test_cli_manipulate_refusals_exit_2_with_one_line(
    tmp_path, capsys, players, procedure, player, message
):
    extra = {} if procedure is None else {"procedure": procedure}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(doc([uniform_player(n) for n in players], **extra)), encoding="utf-8"
    )
    densities = tmp_path / "densities.json"
    uniform = uniform_player("X")["pieces"]
    densities.write_text(
        json.dumps({"schema": "fairslice/1", "densities": [uniform]}), encoding="utf-8"
    )
    argv = ["manipulate", str(scenario), "--player", player]
    assert main(argv + ["--candidates", str(densities), "--opponents", str(densities)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [ERROR]: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_density_without_pieces_exit_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    document = doc([{"name": "A", "pieces": []}, uniform_player("B")])
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["run", str(path), "--procedure", "moving-knife"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error [INVALID_DENSITY]: invalid density for 'A': GAP_OR_OVERLAP: no pieces declared\n"
    )


def test_cli_run_refuses_a_repeated_key_in_a_scenario_document(tmp_path, capsys):
    # Player A first declares a density of 7 on [0, 1] (total mass 7), then
    # a valid one; json.loads alone would keep the second and never report
    # the first.
    player_a = (
        '{"name": "A", "pieces": [{"from": 0, "to": 1, "density": 7}],'
        ' "pieces": [{"from": 0, "to": 1, "density": 1}]}'
    )
    path = tmp_path / "scenario.json"
    path.write_text(
        f'{{"schema": "fairslice/1", "players": [{player_a}, {json.dumps(uniform_player("B"))}]}}',
        encoding="utf-8",
    )
    assert main(["run", str(path), "--procedure", "cut-choose", "--cutter", "A"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error [PARSE_ERROR]: document: duplicate key 'pieces'\n"


def test_load_densities_refuses_a_repeated_key():
    text = (
        '{"schema": "fairslice/1", "densities": '
        '[[{"from": 0, "to": 1, "density": 2, "density": 1}]]}'
    )
    with pytest.raises(ParseError, match="^densities: duplicate key 'density'$"):
        load_densities(text)


def test_cli_parser_is_built_once_and_carries_nothing_between_calls():
    from fairslice.cli import _build_parser

    parser = _build_parser()
    assert _build_parser() is parser
    subcommands = next(a for a in parser._actions if a.dest == "command").choices
    for sub in subcommands.values():
        for action in sub._actions:
            assert not isinstance(action.default, (list, dict, set)), action.dest
    first = parser.parse_args(["run", "a.json", "--strict", "--tie", "seed:1", "--cutter", "A"])
    second = parser.parse_args(["run", "a.json"])
    assert (first.strict, first.tie, first.cutter) == (True, "seed:1", "A")
    assert (second.strict, second.tie, second.cutter) == (False, None, None)


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_cli_verify_empty_check_selection_exit_2_with_one_line(
    scenario_file, tmp_path, capsys, checks
):
    allocation = tmp_path / "allocation.json"
    allocation.write_text(json.dumps(HALVES_DOC), encoding="utf-8")
    assert main(["verify", str(scenario_file), str(allocation), "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [ERROR]: no checks selected")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "truth, code",
    [
        ([uniform_player("P1"), uniform_player("P1")], "PARSE_ERROR"),
        ([uniform_player("P1"), uniform_player("Q")], "PARSE_ERROR"),
        ([], "PARSE_ERROR"),
    ],
)
def test_cli_verify_bad_truth_exit_2_with_one_line(tmp_path, capsys, truth, code):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**CE2_DOC, "truth": truth}), encoding="utf-8")
    allocation = tmp_path / "allocation.json"
    allocation.write_text(json.dumps(HALVES_DOC), encoding="utf-8")
    assert main(["verify", str(scenario), str(allocation)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [{code}]: truth")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_verify_truth_file_with_other_players_exit_2(scenario_file, tmp_path, capsys):
    allocation = tmp_path / "allocation.json"
    allocation.write_text(json.dumps(HALVES_DOC), encoding="utf-8")
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(doc([uniform_player("Q")])), encoding="utf-8")
    assert main(["verify", str(scenario_file), str(allocation), "--truth", str(truth)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [INVALID_PLAYERS]: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("missing", ["from", "to"])
def test_cli_verify_span_missing_an_end_exit_2(scenario_file, tmp_path, capsys, missing):
    span = {"from": 0, "to": "1/2"}
    del span[missing]
    allocation = tmp_path / "allocation.json"
    allocation.write_text(
        json.dumps({**HALVES_DOC, "portions": {**HALVES_DOC["portions"], "P1": [span]}}),
        encoding="utf-8",
    )
    assert main(["verify", str(scenario_file), str(allocation)]) == 2
    err = capsys.readouterr().err
    assert err == f"error [PARSE_ERROR]: portions.P1[0]: missing {missing!r}\n"


def test_cli_deeply_nested_document_exit_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["run", str(path), "--procedure", "moving-knife"]) == 2
    err = capsys.readouterr().err
    assert err == "error [PARSE_ERROR]: document: JSON nested too deeply to parse\n"


def test_cli_non_utf8_file_exit_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(CE2_DOC).encode("utf-8") + b"\xff")
    assert main(["run", str(path), "--procedure", "moving-knife"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [PARSE_ERROR]: {path}: not UTF-8 text")
    assert err.count("\n") == 1 and "Traceback" not in err


UNIFORM_PIECES = uniform_player("X")["pieces"]
OVER_DIGIT_LIMIT = "1" + "0" * 5000  # a bare JSON integer of 5001 digits


@pytest.mark.parametrize("command", ["run", "verify", "manipulate"])
def test_cli_bare_integer_over_the_digit_limit_exit_2_with_one_line(tmp_path, capsys, command):
    # json.loads refuses the integer with a ValueError that is not a
    # JSONDecodeError; each of the three loaders reports it the same way.
    huge = '[{"from": 0, "to": 1, "density": %s}]' % OVER_DIGIT_LIMIT
    scenario = tmp_path / "scenario.json"
    procedure = {"name": "cut-choose", "options": {"cutter": "P1"}}
    scenario.write_text(json.dumps({**CE2_DOC, "procedure": procedure}), encoding="utf-8")
    other = tmp_path / "other.json"
    if command == "run":
        other.write_text(
            '{"schema": "fairslice/1", "players": [{"name": "A", "pieces": %s}]}' % huge,
            encoding="utf-8",
        )
        argv, path = ["run", str(other), "--procedure", "moving-knife"], "document"
    elif command == "verify":
        other.write_text(
            '{"schema": "fairslice/1", "portions": {"P1": [{"from": 0, "to": %s}]}}'
            % OVER_DIGIT_LIMIT,
            encoding="utf-8",
        )
        argv, path = ["verify", str(scenario), str(other)], "allocation"
    else:
        other.write_text('{"schema": "fairslice/1", "densities": [%s]}' % huge, encoding="utf-8")
        argv = ["manipulate", str(scenario), "--player", "P1"]
        argv += ["--candidates", str(other), "--opponents", str(other)]
        path = "densities"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the limit's wording varies between Python versions
    assert captured.err.startswith(f"error [PARSE_ERROR]: {path}: Exceeds the limit (4300")
    assert captured.err.endswith("value has 5001 digits\n")


def test_cli_ep_whose_discarded_shortfalls_pass_the_digit_limit_exits_0(tmp_path, capsys):
    # Every literal stays under 4300 characters, but the greedy chain runs
    # out of mass on the way, and the shortfall's rationals would print with
    # more digits than str() of an int allows. The chain discards that
    # error unread, so the run must not format it.
    p, q = 10**2100 + 7, 10**2100 + 13
    players = [
        {
            "name": "A",
            "pieces": [
                {"from": 0, "to": f"1/{p}", "density": f"{p}/2"},
                {"from": f"1/{p}", "to": 1, "density": f"{p}/{2 * p - 2}"},
            ],
        },
        {
            "name": "B",
            "pieces": [
                {"from": 0, "to": f"1/{q}", "density": f"{q}/3"},
                {"from": f"1/{q}", "to": 1, "density": f"{2 * q}/{3 * q - 3}"},
            ],
        },
        uniform_player("C"),
    ]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc(players)), encoding="utf-8")
    assert main(["run", str(path), "--procedure", "ep"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["outcome"]["ordering"] == ["A", "B", "C"]
    common = results["outcome"]["common_value"]
    assert set(results["declared_values"].values()) == {common}


def test_cli_verify_reads_back_the_long_sp_p_cut_that_run_printed(tmp_path, capsys):
    # The sp-p cut is a p/q literal of about 8,560 characters, each of its
    # integers under the interpreter's 4,300-digit limit.
    p, q = 10**2140 + 7, 10**2140 + 13
    players = [
        {
            "name": "A",
            "pieces": [
                {"from": 0, "to": f"1/{p}", "density": f"{p}/2"},
                {"from": f"1/{p}", "to": 1, "density": f"{p}/{2 * p - 2}"},
            ],
        },
        {
            "name": "B",
            "pieces": [
                {"from": 0, "to": f"1/{q}", "density": f"{q}/3"},
                {"from": f"1/{q}", "to": 1, "density": f"{2 * q}/{3 * q - 3}"},
            ],
        },
    ]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc(players)), encoding="utf-8")
    assert main(["run", str(scenario), "--procedure", "sp-p"]) == 0
    outcome = json.loads(capsys.readouterr().out)["results"]["outcome"]
    (cut,) = (text.split(" ")[0] for text in outcome["cuts"])
    assert len(cut) > 8000
    portions = {
        name: [{"from": iv["from"].split(" ")[0], "to": iv["to"].split(" ")[0]} for iv in ivs]
        for name, ivs in outcome["allocation"].items()
    }
    allocation = tmp_path / "allocation.json"
    allocation.write_text(
        json.dumps({"schema": "fairslice/1", "portions": portions}), encoding="utf-8"
    )
    assert main(["verify", str(scenario), str(allocation)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [check["check"] for check in results["checks"]] == ["proportional", "envy-free", "pareto"]


def long_prefix_player(name, k, p):
    """Density p/k on [0, 1/p], then the rest of the mass spread evenly."""
    return {
        "name": name,
        "pieces": [
            {"from": 0, "to": f"1/{p}", "density": f"{p}/{k}"},
            {"from": f"1/{p}", "to": 1, "density": f"{(k - 1) * p}/{k * p - k}"},
        ],
    }


@pytest.mark.parametrize("procedure", ["moving-knife", "ep"])
def test_cli_report_too_large_to_print_exits_2_with_one_line(tmp_path, capsys, procedure):
    # Each literal is about 3,000 characters; the cuts' integers are not.
    base = 10**1500
    players = [
        long_prefix_player(name, k, base + offset)
        for name, k, offset in (("A", 2, 7), ("B", 3, 13), ("C", 5, 19))
    ]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc(players)), encoding="utf-8")
    assert main(["run", str(path), "--procedure", procedure]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [OUTPUT_TOO_LARGE]: cannot print an exact result: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class Pairs(list):
    """A JSON object kept as its [key, value] pairs, so a key may repeat."""


class Raw(str):
    """JSON text written as it is, such as a bare integer of 5,000 digits."""


def json_text(value) -> str:
    """``json.dumps`` that also writes ``Pairs`` and ``Raw``."""
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        value = Pairs([key, item] for key, item in value.items())
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {json_text(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(json_text, value)) + "]"
    return json.dumps(value)


def literal(value: F):
    """A rational as a document writes it: a bare integer or ``"p/q"``."""
    return value.numerator if value.denominator == 1 else str(value)


def as_pairs(value):
    if isinstance(value, dict):
        return Pairs([key, as_pairs(item)] for key, item in value.items())
    if isinstance(value, list):
        return [as_pairs(item) for item in value]
    return value


def places(value):
    """Every (container, index) of a document held in ``Pairs``: an
    object's entry or a list's item, at any depth."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield value, i
            yield from places(item[1] if isinstance(value, Pairs) else item)


LONG_DIGITS = "1" + "0" * 4999
# Values of the wrong type, and literals that are empty, non-reduced,
# signed, undefined or past the digit limit, drawn half and half.
REPLACEMENTS = st.sampled_from(
    (None, True, False, 0.5, 1e300, [], [1, 2], {}, {"from": 0})
) | st.sampled_from((
    "", " ", "2/4", "4/2", "+1/2", "-1/2", "-0", "1/-2", "1/0", "0/0", "1/2/3", "1.5",
    LONG_DIGITS, f"1/{LONG_DIGITS}", Raw(LONG_DIGITS), "P1", "seed:-1",
    "seed:99999999999999999999999",
))


@st.composite
def mutated(draw, document):
    """``document`` with up to three keys deleted, values replaced, or keys
    repeated, anywhere in it."""
    document = as_pairs(document)
    for _ in range(draw(st.integers(0, 3))):
        spots = list(places(document))
        if not spots:
            break
        container, i = draw(st.sampled_from(spots))
        kind = draw(st.sampled_from(("delete", "replace", "repeat")))
        value = copy.deepcopy(draw(REPLACEMENTS))
        if kind == "delete":
            del container[i]
        elif isinstance(container, Pairs):
            if kind == "replace":
                container[i][1] = value
            else:
                container.append([container[i][0], draw(st.sampled_from((value, container[i][1])))])
        else:
            container[i] = value
    return json_text(document)


@st.composite
def fuzzed_documents(draw):
    """A scenario document of two or three players on the quarter grid,
    sometimes with an embedded procedure and a truth block, and a
    contiguous allocation document for it, each then ``mutated``."""
    names = [f"P{i + 1}" for i in range(draw(st.integers(2, 3)))]
    players = []
    for name in names:
        weights = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any))
        players.append({"name": name, "pieces": [
            {"from": literal(F(j, 4)), "to": literal(F(j + 1, 4)),
             "density": literal(F(4 * w, sum(weights)))}
            for j, w in enumerate(weights)
        ]})
    scenario = doc(players)
    if draw(st.booleans()):
        options = {"strict": draw(st.booleans()), "tie": "seed:3", "cutter": names[0]}
        scenario["procedure"] = {"name": draw(st.sampled_from(PROCEDURE_NAMES)), "options": options}
    if draw(st.booleans()):
        scenario["truth"] = copy.deepcopy(players[::-1])
    cuts = sorted(draw(st.sets(st.integers(1, 3), min_size=len(names) - 1, max_size=len(names) - 1)))
    bounds = [0, *(f"{j}/4" for j in cuts), 1]
    allocation = {
        "schema": "fairslice/1",
        "portions": {name: [{"from": a, "to": b}] for name, a, b in zip(names, bounds, bounds[1:])},
    }
    return draw(mutated(scenario)), draw(mutated(allocation))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(fuzzed_documents())
def test_cli_answers_mutated_documents_with_an_exit_status_and_at_most_one_error_line(
    tmp_path, capsys, documents
):
    scenario, allocation = tmp_path / "scenario.json", tmp_path / "allocation.json"
    scenario.write_text(documents[0], encoding="utf-8")
    allocation.write_text(documents[1], encoding="utf-8")
    runs = [
        ["run", str(scenario), "--procedure", procedure, *strict]
        for procedure in PROCEDURE_NAMES
        for strict in ([], ["--strict"])
    ]
    runs.append(["verify", str(scenario), str(allocation)])
    capsys.readouterr()
    for argv in runs:
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        assert (code == 0) == (err == ""), (argv, err)
        assert err == "" or (err.startswith("error [") and err.count("\n") == 1), (argv, err)


# --- the literal table --------------------------------------------------------


@pytest.fixture
def string_parses(monkeypatch):
    """The string values handed to the literal parser, in order."""
    from fairslice import harness

    seen = []
    parse = harness.parse_rational

    def counting(value, path):
        if isinstance(value, str):
            seen.append(value)
        return parse(value, path)

    monkeypatch.setattr(harness, "parse_rational", counting)
    return seen


def eighths(density):
    return [{"from": f"{j}/8", "to": f"{j + 1}/8", "density": density} for j in range(8)]


def test_each_distinct_string_literal_is_parsed_once_per_load(string_parses):
    players = [{"name": name, "pieces": eighths("1")} for name in ("A", "B", "C")]
    literals = sorted({f"{j}/8" for j in range(9)} | {"1"})
    document = json.dumps(doc(players, truth=players[::-1]))
    for _ in range(2):  # each load keeps its own table
        string_parses.clear()
        loaded = load_document(document)
        assert sorted(string_parses) == literals
    # every entry holding one literal holds one Fraction
    pieces = loaded.scenario.density("A").pieces
    assert all(a.hi is b.lo for a, b in zip(pieces, pieces[1:]))
    assert loaded.truth.density("C").pieces[3].density is pieces[5].density

    string_parses.clear()
    portions = {
        "A": [{"from": "0", "to": "1/3"}, {"from": "2/3", "to": "1"}],
        "B": [{"from": "1/3", "to": "2/3"}],
    }
    load_allocation({"schema": "fairslice/1", "portions": portions})
    assert sorted(string_parses) == ["0", "1", "1/3", "2/3"]

    string_parses.clear()
    load_densities({"schema": "fairslice/1", "densities": [eighths("1"), eighths("1")]})
    assert sorted(string_parses) == literals


def test_a_repeated_bad_literal_is_reported_at_its_first_path(tmp_path, capsys, string_parses):
    players = [
        uniform_player("A"),
        {"name": "B", "pieces": eighths("1/0")},
        {"name": "C", "pieces": eighths("1/0")},
    ]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc(players, truth=players)), encoding="utf-8")
    assert main(["run", str(path), "--procedure", "moving-knife"]) == 2
    assert capsys.readouterr().err == (
        "error [PARSE_ERROR]: players[1].pieces[0].density: "
        "not a rational literal: '1/0'\n"
    )
    assert string_parses == ["0/8", "1/8", "1/0"]


def test_a_missing_key_is_reported_before_a_bad_literal_of_its_entry():
    players = [
        uniform_player("A"),
        {"name": "B", "pieces": [{"from": "oops", "density": 1}]},
    ]
    with pytest.raises(ParseError) as err:
        load_document(doc(players))
    assert str(err.value) == "players[1].pieces[0]: missing 'to'"


def test_a_bad_literal_held_by_two_players_is_reported_where_it_first_appears():
    players = [
        {"name": "A", "pieces": [{"from": 0, "to": "1/2", "density": 1}, {"from": "1/2", "to": "2/x", "density": 1}]},
        {"name": "B", "pieces": [{"from": "2/x", "to": 1, "density": 1}]},
    ]
    with pytest.raises(ParseError) as err:
        load_document(doc(players[::-1]))
    assert str(err.value) == "players[0].pieces[0].from: not a rational literal: '2/x'"
    with pytest.raises(ParseError) as err:
        load_document(doc(players))
    assert str(err.value) == "players[0].pieces[1].to: not a rational literal: '2/x'"


def sixteenths(density="1"):
    return [{"from": f"{j}/16", "to": f"{j + 1}/16", "density": density} for j in range(16)]


def with_faults(*faults):
    """Sixteen valid pieces with ``(entry, key, value)`` replacements; a
    key of None replaces the whole entry, a value of None drops the key."""
    entries = sixteenths()
    for k, key, value in faults:
        if key is None:
            entries[k] = value
        elif value is None:
            del entries[k][key]
        else:
            entries[k][key] = value
    return entries


@pytest.mark.parametrize("faults, message", [
    (
        [(0, "to", "17/16"), (3, "density", "1/0")],
        "players[1].pieces[0]: piece bounds [0, 17/16] outside [0, 1]",
    ),
    (
        [(1, "from", "x/16"), (2, "to", None)],
        "players[1].pieces[1].from: not a rational literal: 'x/16'",
    ),
    (
        [(0, "density", "2/-3"), (2, None, ["2/16", "3/16", "1"])],
        "players[1].pieces[0].density: not a rational literal: '2/-3'",
    ),
    (
        [(5, "from", "-1/16"), (9, "to", True), (12, None, "piece")],
        "players[1].pieces[5]: piece bounds [-1/16, 3/8] outside [0, 1]",
    ),
])
def test_a_list_with_several_faults_reports_its_first(faults, message, string_parses):
    """Faults are taken in entry order; within an entry a non-object, then
    a missing key, then a bad literal, then a bound. No string literal is
    parsed twice, on the error path either."""
    players = [
        {"name": "A", "pieces": sixteenths()},
        {"name": "B", "pieces": with_faults(*faults)},
    ]
    with pytest.raises(ParseError) as err:
        load_document(doc(players))
    assert str(err.value) == message
    assert len(string_parses) == len(set(string_parses))


def test_a_loaded_document_builds_no_fraction_until_read(monkeypatch):
    """Ingest keeps each string literal as its integer pair; reading
    ``pieces`` builds one Fraction per literal, shared by every player and
    the truth block that hold it."""
    k = 64
    players = []
    for i, name in enumerate("ABC"):
        weights = [(j * j + i) % 5 + 1 for j in range(k)]
        players.append({"name": name, "pieces": [
            {"from": f"{j}/{k}", "to": f"{j + 1}/{k}", "density": f"{w * k}/{sum(weights)}"}
            for j, w in enumerate(weights)
        ]})
    built = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        value = new(cls, *args, **kwargs)
        built.append(value)
        return value

    monkeypatch.setattr(F, "__new__", counted)
    loaded = load_document(json.dumps(doc(players, truth=players[::-1])))
    assert built == []
    densities = [d for block in (loaded.scenario, loaded.truth) for _, d in block.players]
    held = {}
    for density, player in zip(densities, players + players[::-1]):
        for piece, entry in zip(density.pieces, player["pieces"]):
            for value, key in zip((piece.lo, piece.hi, piece.density), ("from", "to", "density")):
                assert held.setdefault(entry[key], value) is value
    assert len(built) == len(held)
    assert sorted(map(id, built)) == sorted(map(id, held.values()))
    portions = {"A": [{"from": "0/64", "to": "5/64"}], "B": [{"from": "5/64", "to": "64/64"}]}
    built.clear()
    allocation = load_allocation({"schema": "fairslice/1", "portions": portions})
    assert len(built) == 3  # one per distinct literal
    assert allocation.portion("A").intervals[0].hi is allocation.portion("B").intervals[0].lo


def test_true_after_the_literal_one_is_still_refused_as_a_boolean():
    # True and 1 are equal and hash equal, so a table that also kept bare
    # integers, or looked up any value, would hand back the Fraction of 1.
    players = [
        {"name": "A", "pieces": [{"from": "0", "to": "1", "density": 1}]},
        {"name": "B", "pieces": [{"from": "0", "to": True, "density": "1"}]},
    ]
    with pytest.raises(ParseError) as err:
        load_document(doc(players))
    assert str(err.value) == "players[1].pieces[0].to: booleans are not rational values: True"


@pytest.mark.parametrize(
    "options, extra, err",
    [
        ({"cutter": ""}, [], "error [INVALID_PLAYERS]: unknown cutter ''\n"),
        ({"cutter": "A"}, ["--cutter", ""], "error [INVALID_PLAYERS]: unknown cutter ''\n"),
        (
            {},
            ["--tie", ""],
            "error [PARSE_ERROR]: unknown tie rule ''; use 'lowest' or 'seed:<n>'\n",
        ),
    ],
    ids=["document-cutter", "option-cutter", "option-tie"],
)
def test_cli_run_empty_cutter_or_tie_is_refused(tmp_path, capsys, options, extra, err):
    path = tmp_path / "scenario.json"
    document = doc(
        [uniform_player("A"), uniform_player("B")],
        procedure={"name": "cut-choose", "options": options},
    )
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["run", str(path)] + extra) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "document, err",
    [
        ({"players": {}}, "players: expected a list, got dict"),
        ({"players": [7]}, "players[0]: expected an object, got int"),
        (
            {"players": [{"name": "A", "pieces": [{"from": 0, "to": 2, "density": 1}]}]},
            "players[0].pieces[0]: piece bounds [0, 2] outside [0, 1]",
        ),
        (
            {"players": [{"name": "", "pieces": UNIFORM_PIECES}]},
            "players[0].name: expected a nonempty string",
        ),
        (
            {"players": [{"name": 7, "pieces": UNIFORM_PIECES}]},
            "players[0].name: expected a nonempty string",
        ),
        (
            {"players": [uniform_player("A")], "procedure": {"name": "bogus"}},
            "unknown procedure 'bogus'; expected one of "
            "('cut-choose', 'moving-knife', 'sp-e', 'sp-p', 'ep')",
        ),
        ({}, "document: missing 'players'"),
    ],
)
def test_cli_run_malformed_document_exit_2_with_one_line(tmp_path, capsys, document, err):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schema": "fairslice/1", **document}), encoding="utf-8")
    assert main(["run", str(path), "--procedure", "moving-knife"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error [PARSE_ERROR]: {err}\n"


@pytest.mark.parametrize(
    "portions, err",
    [
        (
            {"P1": [{"from": "1/2", "to": 0}], "P2": [{"from": "1/2", "to": 1}]},
            "portions.P1[0]: invalid interval [1/2, 0]",
        ),
        (
            {"P1": [{"from": 0, "to": "1/2"}], "Q": [{"from": "1/2", "to": 1}]},
            "portions name players ['P1', 'Q'], scenario has ['P1', 'P2']",
        ),
    ],
)
def test_cli_verify_bad_allocation_exit_2_with_one_line(
    scenario_file, tmp_path, capsys, portions, err
):
    allocation = tmp_path / "allocation.json"
    allocation.write_text(
        json.dumps({"schema": "fairslice/1", "portions": portions}), encoding="utf-8"
    )
    assert main(["verify", str(scenario_file), str(allocation)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error [PARSE_ERROR]: {err}\n"


@pytest.mark.parametrize(
    "text, err",
    [
        (
            '{"P1": [{"from": 0, "to": "1/2"}], "P2": [{"from": "1/2", "to": "3/4"}]}',
            "INVALID_ALLOCATION]: portions leave a gap between 3/4 and 1",
        ),
        (
            '{"P1": [{"from": 0, "to": "1/2"}], "P2": [{"from": "1/4", "to": 1}]}',
            "INVALID_ALLOCATION]: portions overlap between 1/4 and 1/2",
        ),
        # json.loads alone would keep only the last P1 and pass the check.
        (
            '{"P1": [{"from": 0, "to": 1}], "P2": [{"from": "1/2", "to": 1}],'
            ' "P1": [{"from": 0, "to": "1/2"}]}',
            "PARSE_ERROR]: allocation: duplicate key 'P1'",
        ),
    ],
)
def test_cli_verify_refuses_a_non_partition_or_a_repeated_owner(
    scenario_file, tmp_path, capsys, text, err
):
    allocation = tmp_path / "allocation.json"
    allocation.write_text(
        '{"schema": "fairslice/1", "portions": ' + text + "}", encoding="utf-8"
    )
    assert main(["verify", str(scenario_file), str(allocation), "--checks", "proportional"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error [{err}\n"


# --- ingest equivalence -------------------------------------------------------

EIGHTHS = [F(j, 8) for j in range(9)]
# Replacement literals off the grid: JSON values of other types, numbers
# outside [0, 1] (a bound that raises, a density that is negative or breaks
# the total) and strings that are no rational.
WILD = [True, False, [1], 0.5, None, {"n": 1}, 2, -1, "5/4", "-1/4", " -3/2 ", "1/0", "x"]


def spellings(value):
    """Document spellings of one rational: canonical, not reduced, padded
    with whitespace, and a bare integer or "-0" where they apply."""
    n, d = value.numerator, value.denominator
    out = [str(value), f"{2 * n}/{2 * d}", f" {value}\t"]
    if d == 1:
        out.append(n)
    if n == 0:
        out += ["-0", "0/7"]
    return out


@st.composite
def drawn_pieces(draw, clean=1):
    """The piece entries of one density: a valid step density on an
    eighths grid, left as it is in ``clean`` draws out of ``clean`` + 2.
    Otherwise one or two fields are replaced by a grid point, a negative
    or out-of-range value or a wild literal, and maybe a piece is dropped
    or all are, so gaps, overlaps, reversed pieces, negative densities
    and totals other than 1 all occur. Each rational is spelled at random."""
    cuts = sorted(draw(st.sets(st.sampled_from(EIGHTHS[1:-1]), max_size=3)))
    bounds = [ZERO, *cuts, ONE]
    weights = draw(st.lists(st.integers(0, 3), min_size=len(bounds) - 1, max_size=len(bounds) - 1))
    weights[0] += not any(weights)
    total = sum(w * (b - a) for w, a, b in zip(weights, bounds, bounds[1:]))
    rows = [[a, b, w / total] for w, a, b in zip(weights, bounds, bounds[1:])]
    replacements = st.one_of(
        st.sampled_from(EIGHTHS + [F(-1), F(-2, 3), F(2), F(5, 4)]), st.sampled_from(WILD)
    )
    if draw(st.integers(0, clean + 1)) >= clean:
        for _ in range(draw(st.integers(1, 2))):
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, 2))] = draw(replacements)
        if len(rows) > 1 and draw(st.booleans()):
            del rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.integers(0, 9)) == 0:
            rows = []

    def spell(value):
        return draw(st.sampled_from(spellings(value))) if isinstance(value, F) else value

    return [{"from": spell(a), "to": spell(b), "density": spell(c)} for a, b, c in rows]


@st.composite
def ingest_documents(draw):
    names = ["A", "B", "C"][: draw(st.integers(1, 3))]
    document = doc([{"name": name, "pieces": draw(drawn_pieces(8))} for name in names])
    if draw(st.booleans()):
        document["truth"] = [{"name": name, "pieces": draw(drawn_pieces(8))} for name in names[::-1]]
    return document


def reference_density(entries, path):
    """The density a document's entries declare, built from Pieces of
    as_rational values, with the errors ingest reports for them."""
    pieces = []
    for k, entry in enumerate(entries):
        values = []
        for key in ("from", "to", "density"):
            try:
                values.append(as_rational(entry[key]))
            except ParseError as exc:
                raise ParseError(f"{path}[{k}].{key}: {exc}") from None
        try:
            pieces.append(Piece(*values))
        except ValueError as exc:
            raise ParseError(f"{path}[{k}]: {exc}") from None
    return StepDensity(tuple(pieces))


def reference_block(players, block):
    declared = tuple(
        (player["name"], reference_density(player["pieces"], f"{block}[{i}].pieces"))
        for i, player in enumerate(players)
    )
    try:
        return Scenario(declared)
    except ValueError as exc:
        raise ParseError(f"{block}: {exc}") from None


@settings(max_examples=300, deadline=None)
@given(ingest_documents())
def test_a_loaded_document_is_the_one_built_from_pieces(document):
    text = json.dumps(document)
    try:
        expected = [reference_block(document["players"], "players")]
        if "truth" in document:
            expected.append(reference_block(document["truth"], "truth"))
    except (ParseError, InvalidDensityError) as exc:
        with pytest.raises(type(exc)) as err:
            load_document(text)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return
    loaded = load_document(text)
    got = [loaded.scenario] + ([loaded.truth] if "truth" in document else [])
    for scenario, want in zip(got, expected):
        for (_, density), (_, reference) in zip(scenario.players, want.players):
            assert "pieces" not in vars(density)  # built only when read
            assert density._rows == reference._rows
            assert pickle.loads(pickle.dumps(density)) == reference
            assert copy.copy(density) == reference
            assert density.pieces == reference.pieces
            assert set(vars(density)) == {"_parsed_rows", "_rows", "_violations", "pieces"}
        assert scenario == want and hash(scenario) == hash(want) and repr(scenario) == repr(want)
    assert load_scenario(text) == expected[0]


@settings(max_examples=300, deadline=None)
@given(drawn_pieces())
def test_a_parsed_density_validates_as_the_one_built_from_pieces(entries):
    """Invalid densities too: the same violations, in the same order."""
    try:
        reference = reference_density(entries, "pieces")
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            harness._pieces_from(json.loads(json.dumps(entries)), "pieces", {})
        assert str(err.value) == str(exc)
        return
    density = harness._pieces_from(json.loads(json.dumps(entries)), "pieces", {})
    assert density.validate().violations == reference.validate().violations
    assert density._rows == reference._rows
    assert "pieces" not in vars(density)
    assert density == reference and hash(density) == hash(reference)
    assert repr(density) == repr(reference)


def run_exits_2(tmp_path, capsys, players):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc(players)), encoding="utf-8")
    assert main(["run", str(path), "--procedure", "moving-knife"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def pieces(*triples):
    return [{"from": a, "to": b, "density": c} for a, b, c in triples]


@pytest.mark.parametrize(
    "declared, err",
    [
        (
            pieces((0, "5/4", "4/5")),
            "PARSE_ERROR]: players[0].pieces[0]: piece bounds [0, 5/4] outside [0, 1]",
        ),
        (
            pieces(("1/4", 1, "4/3")),
            "INVALID_DENSITY]: invalid density for 'A': "
            "GAP_OR_OVERLAP: first piece starts at 1/4, not 0",
        ),
        (
            pieces((0, "3/4", "4/3")),
            "INVALID_DENSITY]: invalid density for 'A': "
            "GAP_OR_OVERLAP: last piece ends at 3/4, not 1",
        ),
        (
            pieces((0, "1/2", 1), ("1/2", "1/2", 1), ("1/2", 1, 1)),
            "INVALID_DENSITY]: invalid density for 'A': "
            "GAP_OR_OVERLAP: piece 1 is empty or reversed: [1/2, 1/2]",
        ),
        (
            pieces((0, "1/2", 3), ("1/2", 1, -1)),
            "INVALID_DENSITY]: invalid density for 'A': NEGATIVE_DENSITY: piece 1 has density -1",
        ),
        (
            pieces((0, "1/3", "3/2"), ("2/3", 1, "3/2")),
            "INVALID_DENSITY]: invalid density for 'A': "
            "GAP_OR_OVERLAP: pieces 0 and 1 do not abut: 1/3 vs 2/3",
        ),
        (
            pieces((0, 1, "3/2")),
            "INVALID_DENSITY]: invalid density for 'A': TOTAL_MASS_NOT_ONE: total mass is 3/2",
        ),
        # Every kind at once, in the order ends, each piece, seams, total.
        (
            pieces(("1/4", "1/8", -1), ("1/2", "3/4", 1)),
            "INVALID_DENSITY]: invalid density for 'A': "
            "GAP_OR_OVERLAP: first piece starts at 1/4, not 0; "
            "GAP_OR_OVERLAP: last piece ends at 3/4, not 1; "
            "GAP_OR_OVERLAP: piece 0 is empty or reversed: [1/4, 1/8]; "
            "NEGATIVE_DENSITY: piece 0 has density -1; "
            "GAP_OR_OVERLAP: pieces 0 and 1 do not abut: 1/8 vs 1/2; "
            "TOTAL_MASS_NOT_ONE: total mass is 3/8",
        ),
    ],
)
def test_cli_run_density_violation_exit_2_with_one_line(tmp_path, capsys, declared, err):
    players = [{"name": "A", "pieces": declared}, uniform_player("B")]
    assert run_exits_2(tmp_path, capsys, players) == f"error [{err}\n"


def test_cli_run_reports_a_literal_error_before_a_density_violation(tmp_path, capsys):
    players = [
        {"name": "A", "pieces": pieces((0, 1, "3/2"))},
        {"name": "B", "pieces": pieces((0, "1/2", 1), ("1/2", "9/8", 1))},
    ]
    assert run_exits_2(tmp_path, capsys, players) == (
        "error [PARSE_ERROR]: players[1].pieces[1]: piece bounds [1/2, 9/8] outside [0, 1]\n"
    )


def test_cli_run_gap_between_long_bounds_exit_2_with_one_line(tmp_path, capsys):
    p = 10**2100 + 7  # odd, so 2/p is reduced
    players = [
        {"name": "A", "pieces": pieces((0, f"1/{p}", f"{p}/2"), (f"2/{p}", 1, f"{p}/{2 * p - 4}"))},
        uniform_player("B"),
    ]
    assert run_exits_2(tmp_path, capsys, players) == (
        "error [INVALID_DENSITY]: invalid density for 'A': "
        f"GAP_OR_OVERLAP: pieces 0 and 1 do not abut: 1/{p} vs 2/{p}\n"
    )


def test_every_public_name_resolves():
    import fairslice

    missing = [name for name in fairslice.__all__ if not hasattr(fairslice, name)]
    assert missing == []
    assert len(set(fairslice.__all__)) == len(fairslice.__all__)

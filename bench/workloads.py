"""Seeded inputs, operations and independent checks for the four workloads.

Inputs are plain data (integer weights on fine grids) drawn from the seed
before fairslice is imported; ``build`` turns them into the engine objects
or documents the operations start from, and that is what set-up time
measures. Every operation returns an exact answer, renders it canonically
for the digest, and is checked; where a check needs values, it recomputes
them with the benchmark's own integrator, not with the engine.

Each pool is a sequence of rounds and every round holds one operation of
each stratum, so any prefix of the pool has the same mix and two seeds
differ only in the weights, never in the sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ZERO = Fraction(0)
ONE = Fraction(1)

# One name per workload, in the order BENCHMARK.json lists them.
NAMES = ("ep-fine", "pareto-audit", "doc-pipeline", "strategy-sweep")

# Rounds per pool. At "full" scale a pass over the pool takes about 17 s
# at reference speed, so a 24-second run measures every input once and
# repeats some: the more distinct inputs a run measures, the less its
# figures depend on the seed. "tiny" exists for the smoke test.
ROUNDS = {
    "full": {"ep-fine": 27, "pareto-audit": 37, "doc-pipeline": 48, "strategy-sweep": 400},
    "tiny": {"ep-fine": 1, "pareto-audit": 1, "doc-pipeline": 1, "strategy-sweep": 1},
}


class CheckFailed(Exception):
    """An operation's answer failed an independent check."""


@dataclass
class Operation:
    label: str
    call: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object], None]


# ---------------------------------------------------------------------------
# Fine-grid densities and an independent integrator
# ---------------------------------------------------------------------------


def fine_weights(rng: random.Random, k: int) -> tuple[int, ...]:
    """k integer weights in 0..5, not all zero. Zeros are kept on purpose:
    they make zero-density plateaus and infeasible orderings."""
    while True:
        weights = tuple(rng.randint(0, 5) for _ in range(k))
        if any(weights):
            return weights


def grid_mass(weights, lo: Fraction, hi: Fraction) -> Fraction:
    """Mass of [lo, hi] under the normalized fine-grid density.

    Piece j spans [j/k, (j+1)/k] with density w_j * k / sum(w), so its
    mass is w_j / sum(w); a partial overlap takes the proportional share.
    """
    k = len(weights)
    total = ZERO
    for j, w in enumerate(weights):
        if w:
            overlap = min(hi, Fraction(j + 1, k)) - max(lo, Fraction(j, k))
            if overlap > 0:
                total += w * overlap * k
    return total / sum(weights)


def _density(fs, weights):
    k, total = len(weights), sum(weights)
    return fs.StepDensity(
        tuple(
            fs.Piece(Fraction(j, k), Fraction(j + 1, k), Fraction(w * k, total))
            for j, w in enumerate(weights)
        )
    )


def make_scenario(fs, profile):
    return fs.Scenario(
        tuple((f"p{i + 1}", _density(fs, w)) for i, w in enumerate(profile))
    )


def _spans(portion):
    return [(iv.lo, iv.hi) for iv in portion.intervals]


def _fr(values):
    return ",".join(str(v) for v in values)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# ep-fine: equal-value procedure, then proportional and envy checks
# ---------------------------------------------------------------------------

EP_STRATA = ((3, 8), (3, 12), (3, 16), (3, 20), (3, 24), (4, 8), (4, 12))


def ep_generate(rng, rounds):
    return [
        (n, k, tuple(fine_weights(rng, k) for _ in range(n)))
        for _ in range(rounds)
        for n, k in EP_STRATA
    ]


def ep_build(fs, specs, workdir):
    ops = []
    for index, (n, k, profile) in enumerate(specs):
        scenario = make_scenario(fs, profile)

        def call(scenario=scenario):
            try:
                outcome = fs.equitability(scenario)
            except fs.NoFeasibleOrderingError:
                return None
            return (
                outcome,
                fs.proportional_check(scenario, outcome.allocation),
                fs.envy_free_check(scenario, outcome.allocation),
            )

        def render(answer):
            if answer is None:
                return "no-feasible-ordering"
            outcome, prop, envy = answer
            matrix = ";".join(
                f"{v}:{_fr(envy.matrix[v][o] for o in sorted(envy.matrix[v]))}"
                for v in sorted(envy.matrix)
            )
            return (
                f"{'-'.join(outcome.ordering)}|{_fr(outcome.cuts)}|{outcome.common_value}"
                f"|{prop.passed}|{envy.passed}|{matrix}"
            )

        def check(answer, profile=profile):
            if answer is None:
                return
            outcome, prop, envy = answer
            bounds = (ZERO, *outcome.cuts, ONE)
            for name, lo, hi in zip(outcome.ordering, bounds, bounds[1:]):
                own = grid_mass(profile[int(name[1:]) - 1], lo, hi)
                _require(
                    own == outcome.common_value,
                    f"{name} values its piece at {own}, not {outcome.common_value}",
                )
                _require(prop.values[name] == own, f"proportional value of {name} is off")

        ops.append(Operation(f"#{index} n={n} k={k}", call, render, check))
    return ops


# ---------------------------------------------------------------------------
# pareto-audit: Pareto check of a moving-knife or an argmax allocation
# ---------------------------------------------------------------------------

PARETO_STRATA = tuple(
    (k, source) for k in (8, 10, 12) for source in ("moving-knife", "argmax")
)


def pareto_generate(rng, rounds):
    specs = []
    for _ in range(rounds):
        for k, source in PARETO_STRATA:
            profile = tuple(fine_weights(rng, k) for _ in range(3))
            specs.append((k, source, profile, rng.randrange(3)))
    return specs


def _argmax_owners(profile, offset):
    """Owner of each grid cell: a player of largest weight, taking turns
    (from a seeded offset) among tied players. Every cell goes to a
    player who values it most, so the allocation is utilitarian-optimal
    and hence Pareto optimal."""
    owners = []
    turn = offset
    for weights in zip(*(tuple(Fraction(w * len(p), sum(p)) for w in p) for p in profile)):
        best = max(weights)
        tied = [i for i, w in enumerate(weights) if w == best]
        owners.append(tied[turn % len(tied)])
        turn += 1
    return owners


def pareto_build(fs, specs, workdir):
    ops = []
    for index, (k, source, profile, offset) in enumerate(specs):
        scenario = make_scenario(fs, profile)
        if source == "moving-knife":
            allocation = fs.moving_knife(scenario).allocation
        else:
            cells = {name: [] for name in scenario.names}
            for c, owner in enumerate(_argmax_owners(profile, offset)):
                cells[f"p{owner + 1}"].append((Fraction(c, k), Fraction(c + 1, k)))
            allocation = fs.Allocation.of(
                {name: fs.IntervalSet.of(*spans) for name, spans in cells.items()}
            )

        def call(scenario=scenario, allocation=allocation):
            return fs.pareto_optimal_check(scenario, allocation)

        def render(report):
            if report.witness is None:
                return "optimal"
            w = report.witness
            return "dominated|" + ";".join(
                f"{name}:{_spans(w.allocation.portion(name))}:{w.gains[name]}"
                for name in sorted(w.gains)
            )

        def check(report, profile=profile, allocation=allocation, source=source):
            if report.witness is None:
                return
            _require(source != "argmax", "an argmax allocation was reported dominated")
            gains = []
            for i, weights in enumerate(profile):
                name = f"p{i + 1}"
                before = sum(
                    (grid_mass(weights, lo, hi) for lo, hi in _spans(allocation.portion(name))),
                    ZERO,
                )
                after = sum(
                    (
                        grid_mass(weights, lo, hi)
                        for lo, hi in _spans(report.witness.allocation.portion(name))
                    ),
                    ZERO,
                )
                gains.append(after - before)
                _require(report.witness.gains[name] == after - before, f"gain of {name} is off")
            _require(
                all(g >= 0 for g in gains) and any(g > 0 for g in gains),
                f"witness gains {gains} do not dominate",
            )

        ops.append(Operation(f"#{index} k={k} {source}", call, render, check))
    return ops


# ---------------------------------------------------------------------------
# doc-pipeline: the command line, in process, over documents on disk
# ---------------------------------------------------------------------------


def _players_doc(profile):
    players = []
    for i, weights in enumerate(profile):
        k, total = len(weights), sum(weights)
        players.append(
            {
                "name": f"p{i + 1}",
                "pieces": [
                    {"from": f"{j}/{k}", "to": f"{j + 1}/{k}", "density": f"{w * k}/{total}"}
                    for j, w in enumerate(weights)
                ],
            }
        )
    return players


def _random_cuts(rng, n, k):
    """n - 1 distinct sorted cuts on a grid finer than the densities'."""
    return sorted(Fraction(c, 4 * k) for c in rng.sample(range(1, 4 * k), n - 1))


def doc_generate(rng, rounds):
    specs = []
    for r in range(rounds):
        two_k = (64, 128, 256)[r % 3]
        specs.append(("run", "moving-knife", tuple(fine_weights(rng, 256) for _ in range(5))))
        for procedure in ("sp-e", "sp-p", "cut-choose"):
            specs.append(("run", procedure, tuple(fine_weights(rng, two_k) for _ in range(2))))
        profile = tuple(fine_weights(rng, 128) for _ in range(4))
        order = rng.sample(range(4), 4)
        specs.append(("verify", (order, _random_cuts(rng, 4, 128)), profile))
        specs.append(("paper-ce", r % 6 + 1, ()))
    return specs


def _exact(text: str) -> Fraction:
    """Exact part of a report rational such as '9/20 (0.45)'."""
    return Fraction(text.split(" ", 1)[0])


def doc_build(fs, specs, workdir):
    from fairslice import cli

    ops = []
    for index, (command, detail, profile) in enumerate(specs):
        scenario_path = Path(workdir, f"scenario-{index}.json")
        if command == "paper-ce":
            argv = ["paper-ce", str(detail)]
            label = f"#{index} paper-ce {detail}"
        else:
            scenario_path.write_text(
                json.dumps({"schema": "fairslice/1", "players": _players_doc(profile)}),
                encoding="utf-8",
            )
            if command == "run":
                argv = ["run", str(scenario_path), "--procedure", detail]
                label = f"#{index} run {detail} n={len(profile)} k={len(profile[0])}"
            else:
                order, cuts = detail
                bounds = (ZERO, *cuts, ONE)
                portions = {
                    f"p{i + 1}": [{"from": str(lo), "to": str(hi)}]
                    for i, lo, hi in zip(order, bounds, bounds[1:])
                }
                allocation_path = Path(workdir, f"allocation-{index}.json")
                allocation_path.write_text(
                    json.dumps({"schema": "fairslice/1", "portions": portions}),
                    encoding="utf-8",
                )
                argv = [
                    "verify", str(scenario_path), str(allocation_path),
                    "--checks", "proportional,envy",
                ]
                label = f"#{index} verify n={len(profile)} k={len(profile[0])}"

        def call(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            return status, out.getvalue(), err.getvalue()

        def render(answer):
            status, out, _ = answer
            return f"{status}|{out}"

        def check(answer, command=command, detail=detail, profile=profile):
            status, out, err = answer
            _require(status == 0, f"exit status {status}: {err.strip()}")
            results = json.loads(out)["results"]
            if command == "run":
                outcome = results["outcome"]
                bounds = (ZERO, *(_exact(c) for c in outcome["cuts"]), ONE)
                share = Fraction(1, len(profile))
                for name, lo, hi in zip(outcome["ordering"], bounds, bounds[1:]):
                    own = grid_mass(profile[int(name[1:]) - 1], lo, hi)
                    _require(own >= share, f"{name} gets {own} < {share}")
                    _require(
                        _exact(results["declared_values"][name]) == own,
                        f"declared value of {name} is off",
                    )
            elif command == "verify":
                order, cuts = detail
                bounds = (ZERO, *cuts, ONE)
                values = results["checks"][0]["values"]
                for i, lo, hi in zip(order, bounds, bounds[1:]):
                    own = grid_mass(profile[i], lo, hi)
                    _require(_exact(values[f"p{i + 1}"]) == own, f"value of p{i + 1} is off")

        ops.append(Operation(label, call, render, check))
    return ops


# ---------------------------------------------------------------------------
# strategy-sweep: identical misreports with seeded ties, and a small search
# ---------------------------------------------------------------------------

# Players per stratum, cycling over rounds. The equal-value procedure stops
# at three: with four identical players it solves 3 x 24 orderings per
# check, which would swamp every other stratum.
SWEEP_STRATA = (
    ("cut-choose", (2,)),
    ("sp-e", (2,)),
    ("sp-p", (2,)),
    ("moving-knife", (2, 3, 4)),
    ("ep", (2, 3)),
    ("search", (2,)),
)


def sweep_generate(rng, rounds):
    specs = []
    for r in range(rounds):
        for procedure, counts in SWEEP_STRATA:
            players = counts[r % len(counts)]
            if procedure == "search":
                target = ("cut-choose", "sp-e", "sp-p", "moving-knife")[r % 4]
                densities = tuple(fine_weights(rng, rng.randint(4, 8)) for _ in range(5))
                specs.append((target, players, densities, None))
            else:
                truth = fine_weights(rng, rng.randint(4, 8))
                misreport = fine_weights(rng, rng.randint(4, 8))
                specs.append((procedure, players, (truth, misreport), rng.getrandbits(32)))
    return specs


def sweep_build(fs, specs, workdir):
    ops = []
    for index, (procedure, n, densities, tie_seed) in enumerate(specs):
        built = tuple(_density(fs, w) for w in densities)
        if tie_seed is None:
            truth, candidates, opponents = built[0], built[1:3], built[3:5]

            def call(procedure=procedure, truth=truth, candidates=candidates, opponents=opponents):
                return fs.weak_manipulation_search(procedure, truth, candidates, opponents)

            def render(witness):
                if witness is None:
                    return "none"
                return (
                    f"{witness.candidate_index}|{_fr(witness.truthful_values)}"
                    f"|{_fr(witness.misreport_values)}|{witness.strict_opponents}"
                )

            def check(witness):
                if witness is None:
                    return
                pairs = list(zip(witness.misreport_values, witness.truthful_values))
                _require(
                    all(new >= old for new, old in pairs) and any(new > old for new, old in pairs),
                    "manipulation witness is not a weak improvement",
                )

            label = f"#{index} search {procedure}"
        else:
            truth, misreport = built

            def call(procedure=procedure, truth=truth, misreport=misreport, n=n, tie_seed=tie_seed):
                return fs.theorem_a_check(
                    procedure, truth, misreport, n, tie=fs.TieRule.seeded(tie_seed)
                )

            def render(report):
                values = ",".join(f"{k}:{v}" for k, v in sorted(report.values.items()))
                verdicts = ",".join(f"{k}:{v}" for k, v in sorted(report.verdicts.items()))
                return f"{values}|{verdicts}|{report.details.get('enumerated_outcomes')}"

            def check(report):
                _require(report.passed, f"identical misreport beat the fair share: {report.values}")
                _require(sum(report.values.values(), ZERO) == 1, "true values do not sum to 1")

            label = f"#{index} theorem-a {procedure} n={n}"
        ops.append(Operation(label, call, render, check))
    return ops


WORKLOADS = {
    "ep-fine": (ep_generate, ep_build),
    "pareto-audit": (pareto_generate, pareto_build),
    "doc-pipeline": (doc_generate, doc_build),
    "strategy-sweep": (sweep_generate, sweep_build),
}


def generate(workload: str, seed: int, scale: str):
    """Plain-data inputs for one workload; the same seed gives the same
    inputs. The workload name is mixed in so workloads draw independently."""
    rng = random.Random(f"{workload}:{seed}")
    generator, _ = WORKLOADS[workload]
    return generator(rng, ROUNDS[scale][workload])


def build(fs, workload: str, specs, workdir) -> list[Operation]:
    _, builder = WORKLOADS[workload]
    return builder(fs, specs, workdir)

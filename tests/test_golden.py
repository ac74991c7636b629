"""Golden console reports: each row of ``GOLDEN`` runs one ``fairslice``
command in process and pins its exit status, the sha256 of its stdout
(``""`` when stdout must be empty) and its exact stderr.

A row's documents are written into an empty directory, and the command
runs there, so its paths are relative. A dict is written as a
``fairslice/1`` JSON document; a str or bytes is written as it is, for
the documents that a JSON object cannot express, such as a repeated key
or a file that is not UTF-8. A new console pin is a new row.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from fairslice.cli import main
from fairslice.harness import CASES, ce6_block_allocation, save_scenario


def pieces(weights):
    """A density proportional to ``weights`` on equal pieces of [0, 1]."""
    k, total = len(weights), sum(weights)
    return [
        {"from": f"{j}/{k}", "to": f"{j + 1}/{k}", "density": str(Fraction(w * k, total))}
        for j, w in enumerate(weights)
    ]


def on_grid(grid, densities):
    """One player per entry of ``densities``, with one piece per cell of ``grid``."""
    return [
        {
            "name": name,
            "pieces": [{"from": a, "to": b, "density": d} for (a, b), d in zip(grid, ds)],
        }
        for name, ds in densities.items()
    ]


def wide_player(name, k, i):
    # integer weights 0-5 on k equal pieces, zeros included; the density
    # literals are not reduced
    weights = [(j * j + 3 * i * j + i) % 6 for j in range(k)]
    total = sum(weights)
    return {"name": name, "pieces": [
        {"from": f"{j}/{k}", "to": f"{j + 1}/{k}", "density": f"{w * k}/{total}"}
        for j, w in enumerate(weights)
    ]}


def wide_invalid():
    k = 1024
    grid = [(f"{j}/{k}", f"{j + 1}/{k}") for j in range(k)]
    uniform = [{"from": a, "to": b, "density": 1} for a, b in grid]
    broken = [{"from": a, "to": b, "density": 1} for a, b in grid]
    del broken[100]  # a gap between 100/1024 and 101/1024
    broken[500] = {"from": "501/1024", "to": "500/1024", "density": 1}  # reversed
    broken[700]["density"] = -1  # negative, and the total is no longer 1
    return {"players": [
        {"name": "A", "pieces": uniform},
        {"name": "B", "pieces": broken},
        {"name": "C", "pieces": uniform},
    ]}


def wide_gap():
    gap = wide_player("p1", 256, 0)
    gap["pieces"][100]["from"] = "201/512"
    return {"players": [gap, wide_player("p2", 256, 1)]}


def early_bound_late_literal():
    # The column read of p2's pieces meets the bad literal of entry 40
    # first; the entry-by-entry read names the bound of entry 3 before it.
    faulty = wide_player("p2", 64, 1)
    faulty["pieces"][3]["to"] = "65/64"
    faulty["pieces"][40]["density"] = "7/0"
    return {"players": [wide_player("p1", 64, 0), faulty]}


def long_two_span():
    p, q, r = 10**50 + 7, 10**45 + 13, 10**55 + 19
    players = [
        {"name": "A", "pieces": [
            {"from": 0, "to": f"1/{p}", "density": f"{p}/2"},
            {"from": f"1/{p}", "to": 1, "density": f"{p}/{2 * p - 2}"},
        ]},
        {"name": "B", "pieces": [
            {"from": 0, "to": f"1/{q}", "density": f"{q}/3"},
            {"from": f"1/{q}", "to": 1, "density": f"{2 * q}/{3 * q - 3}"},
        ]},
        {"name": "C", "pieces": [
            {"from": 0, "to": f"1/{r}", "density": 0},
            {"from": f"1/{r}", "to": 1, "density": f"{r}/{r - 1}"},
        ]},
    ]
    # A holds two spans, one at each end of the cake.
    portions = {
        "A": [{"from": 0, "to": f"1/{q}"}, {"from": "2/3", "to": 1}],
        "B": [{"from": f"1/{q}", "to": "1/3"}],
        "C": [{"from": "1/3", "to": "2/3"}],
    }
    return {"long-three.json": {"players": players}, "long-two-span.json": {"portions": portions}}


def quartet_cuts():
    # Cuts over 31- and 30-digit denominators; P3 holds both ends.
    p, q = 10**29 + 7, 10**30 + 9
    first, last = str(Fraction(q // 4, q)), str(Fraction(2 * p, 3 * p + 1))
    return {"portions": {
        "P1": [{"from": "1/2", "to": last}],
        "P2": [{"from": "1/6", "to": first}],
        "P3": [{"from": 0, "to": "1/6"}, {"from": last, "to": 1}],
        "P4": [{"from": first, "to": "1/2"}],
    }}


def wide4_cuts():
    cuts = ["0", "37/512", "201/512", "333/512", "1"]
    order = ["p3", "p1", "p4", "p2"]
    return {"portions": {
        name: [{"from": lo, "to": hi}] for name, lo, hi in zip(order, cuts, cuts[1:])
    }}


QUARTERS = [(0, "1/4"), ("1/4", "1/2"), ("1/2", "3/4"), ("3/4", 1)]
EIGHTHS = [(f"{j}/8", f"{j + 1}/8") for j in range(8)]
UNIFORM = [{"from": 0, "to": 1, "density": 1}]

CE6 = {
    "ce6.json": save_scenario(CASES[6].scenarios["main"]),
    "ce6-block.json": {"portions": {
        name: [{"from": str(iv.lo), "to": str(iv.hi)} for iv in portion.intervals]
        for name, portion in ce6_block_allocation().portions
    }},
}
CE2_HALVES = {
    "ce2.json": save_scenario(CASES[2].scenarios["main"]),
    "ce2-halves.json": {
        "portions": {"P1": [{"from": 0, "to": "1/2"}], "P2": [{"from": "1/2", "to": 1}]}
    },
}
THREE = {
    "three.json": {"players": [
        {"name": "P1", "pieces": pieces([3, 2, 2, 1, 3, 0])},
        {"name": "P2", "pieces": pieces([2, 5, 0, 2, 1, 1])},
        {"name": "P3", "pieces": pieces([5, 1, 0, 1, 2, 4])},
    ]},
    # The moving-knife allocation of that scenario.
    "three-knife.json": {"portions": {
        "P3": [{"from": 0, "to": "13/90"}],
        "P2": [{"from": "13/90", "to": "281/900"}],
        "P1": [{"from": "281/900", "to": 1}],
    }},
}
EP4 = {"ep4.json": {"players": on_grid(QUARTERS, {
    "P1": ["4/7", "4/7", "8/7", "12/7"],
    "P2": ["1/2", "1/2", "3/2", "3/2"],
    "P3": [2, "2/3", "2/3", "2/3"],
    "P4": [1, 1, 1, 1],
})}}
EP5 = {"ep5.json": {"players": [{"name": f"P{i}", "pieces": UNIFORM} for i in range(1, 6)]}}
EP_PLATEAUS = {"ep-plateaus.json": {"players": on_grid(QUARTERS, {
    "P1": [4, 0, 0, 0], "P2": [0, 2, 2, 0], "P3": [1, 1, 1, 1], "P4": [0, 0, 2, 2],
})}}
DUO = {"duo.json": {
    "players": [
        {"name": "P1", "pieces": pieces([3, 1, 0, 4])},
        {"name": "P2", "pieces": pieces([1, 2, 2, 1])},
    ],
    "procedure": {"name": "cut-choose", "options": {"cutter": "P1"}},
}}
DUO_MANIPULATE = {
    **DUO,
    # The second candidate's median is 13/16: against either opponent P2
    # then takes the right piece and P1 keeps 5/8, not the truthful 1/2.
    "duo-candidates.json": {"densities": [pieces([1, 0, 0, 1]), pieces([3] * 13 + [13] * 3)]},
    "duo-opponents.json": {"densities": [pieces([0, 0, 1, 3]), pieces([0, 1, 0, 3])]},
}
TRIO = {"trio.json": {"players": [
    {"name": "P1", "pieces": pieces([3, 2, 2, 1, 3, 0])},
    {"name": "P2", "pieces": pieces([2, 5, 0, 2, 1, 1])},
    {"name": "P3", "pieces": pieces([1, 1, 1, 1, 1, 1])},
]}}
# Medians 11/16 and 7/16, each inside a piece; both densities vanish on
# [1/2, 5/8], every point of which balances the proportional shares, so
# sp-p cuts mid-plateau at 9/16.
PLATEAU_PAIR = {"plateau-pair.json": {"players": on_grid(EIGHTHS, {
    "p1": ["16/11", "16/11", 0, 0, 0, "24/11", "8/11", "24/11"],
    "p2": [0, "8/3", 0, "8/3", 0, 0, "4/3", "4/3"],
})}}
# Four players declare one density with a zero-density plateau: every
# knife call ties, and the seeded rule settles each tie.
ONE_DENSITY = {"one-density.json": {"players": [
    {"name": f"P{i}", "pieces": [
        {"from": 0, "to": "1/4", "density": 2},
        {"from": "1/4", "to": "1/2", "density": 0},
        {"from": "1/2", "to": 1, "density": 1},
    ]}
    for i in range(1, 5)
]}}
QUARTET = {
    "quartet.json": {"players": [
        {"name": "P1", "pieces": pieces([3, 0, 2, 0, 1, 4])},
        {"name": "P2", "pieces": pieces([0, 4, 1, 3, 0, 2])},
        {"name": "P3", "pieces": pieces([1, 1, 0, 0, 5, 3])},
        {"name": "P4", "pieces": pieces([2, 0, 0, 4, 2, 2])},
    ]},
    "quartet-cuts.json": quartet_cuts(),
}
WIDE4 = {
    "wide4.json": {"players": [wide_player(f"p{i + 1}", 128, i) for i in range(4)]},
    "wide4-cuts.json": wide4_cuts(),
}

CE6_PARETO = "068ec70d1b5216cc9823571875540ea0bc2b48ece6116656ba5bbef3a143a28a"

# case id, documents, argv (split on spaces), exit status, stdout sha256, stderr
GOLDEN = [
    (
        "not-utf8", {"not-utf8.json": b"\xff"}, "run not-utf8.json --procedure moving-knife", 2, "",
        "error [PARSE_ERROR]: not-utf8.json: not UTF-8 text (invalid start byte at byte 0)\n",
    ),
    # CE6's block allocation is Pareto optimal.
    ("ce6-pareto", CE6, "verify ce6.json ce6-block.json --checks pareto", 0, CE6_PARETO, ""),
    # A check named twice runs once: the report is the one above.
    (
        "ce6-pareto-twice", CE6, "verify ce6.json ce6-block.json --checks pareto,pareto",
        0, CE6_PARETO, "",
    ),
    # CE2's halves are dominated, and the report holds a witness.
    (
        "ce2-pareto", CE2_HALVES, "verify ce2.json ce2-halves.json --checks pareto",
        0, "f67224c759d5ec2edfe242c75c71dd8265daf4fbccfcc5d6b3e14e11ff620539", "",
    ),
    # The allocation is dominated and its improvement LP has several optimal
    # vertices (the LP with its columns reversed ends at another), so the
    # witness is the vertex Bland's rule reaches: a change of pivot path,
    # such as the ratio test's tie-break reversed, moves it. The digest was
    # recorded with the dense tableau that the revised simplex replaced.
    (
        "three-pareto", THREE, "verify three.json three-knife.json --checks pareto",
        0, "a3c1ed3417c68b43cc7138dbf56782b0f2a69589cfcb3144b555d11e6773a27b", "",
    ),
    # Every ordering is feasible. The first, (P1, P2, P3, P4), is not the
    # best, so the lenient search walks five later orderings from the best
    # value so far; --strict walks all 24 from 0.
    (
        "ep4-report", EP4, "run ep4.json --procedure ep",
        0, "5748cf404e6cd613ff3f8840999682527228c1a15dfeb4a0db9d66bb63087438", "",
    ),
    (
        "ep4-strict-report", EP4, "run ep4.json --procedure ep --strict",
        0, "5748cf404e6cd613ff3f8840999682527228c1a15dfeb4a0db9d66bb63087438", "",
    ),
    # The lenient search walks the first ordering; each of the other 119
    # ties at t* = 1/5 and is settled by the integer chain.
    (
        "ep5-report", EP5, "run ep5.json --procedure ep",
        0, "62d3d7776c12440bd71bda481c2c399f8ea9ab3c16206d3af87dce5a626b07a0", "",
    ),
    (
        "ep5-strict-report", EP5, "run ep5.json --procedure ep --strict",
        0, "62d3d7776c12440bd71bda481c2c399f8ea9ab3c16206d3af87dce5a626b07a0", "",
    ),
    # Chains and walks cross the plateaus on each density's integer index;
    # 19 of the 24 orderings have no equalizing cuts.
    (
        "ep-plateaus-report", EP_PLATEAUS, "run ep-plateaus.json --procedure ep",
        0, "9d7c39521ca7f17be7cb650d03a6a5925eed281142647672bede3b6d4ca52b76", "",
    ),
    (
        "ep-plateaus", EP_PLATEAUS, "run ep-plateaus.json --procedure ep --strict", 3, "",
        "error [EP_UNDEFINED]: no equalizing cutpoints for ordering(s): P1-P3-P2-P4; "
        "P2-P1-P3-P4; P2-P1-P4-P3; P2-P3-P1-P4; P2-P3-P4-P1; P2-P4-P1-P3; P2-P4-P3-P1; "
        "P3-P1-P2-P4; P3-P1-P4-P2; P3-P2-P1-P4; P3-P2-P4-P1; P3-P4-P1-P2; P3-P4-P2-P1; "
        "P4-P1-P2-P3; P4-P1-P3-P2; P4-P2-P1-P3; P4-P2-P3-P1; P4-P3-P1-P2; P4-P3-P2-P1\n",
    ),
    # The digest was recorded with the Fraction cdf that the integer kernel
    # replaced.
    (
        "long-two-span-report", long_two_span(),
        "verify long-three.json long-two-span.json --checks proportional,envy",
        0, "6fce681d0257d10987fc111d0b257b3819c53a2d8c2fa65ea2e5dcd7b623e325", "",
    ),
    # The violations come in the order validation has always reported them:
    # the ends, each piece's width and sign, each abutment, the total.
    (
        "wide", {"wide-invalid.json": wide_invalid()},
        "run wide-invalid.json --procedure moving-knife",
        2, "",
        "error [INVALID_DENSITY]: invalid density for 'B': "
        "GAP_OR_OVERLAP: piece 500 is empty or reversed: [501/1024, 125/256]; "
        "NEGATIVE_DENSITY: piece 700 has density -1; "
        "GAP_OR_OVERLAP: pieces 99 and 100 do not abut: 25/256 vs 101/1024; "
        "GAP_OR_OVERLAP: pieces 500 and 501 do not abut: 125/256 vs 251/512; "
        "TOTAL_MASS_NOT_ONE: total mass is 1019/1024\n",
    ),
    # The digests of the duo, trio and duo-manipulate reports were recorded
    # when every outcome built its allocation at once and the strategy
    # checks scored its portions.
    (
        "duo-cut-choose", DUO, "run duo.json --procedure cut-choose",
        0, "a1d09e80ff84d1e295afea93aa93725a9448d82bc20beb73bf323c638173f0ec", "",
    ),
    (
        "duo-sp-e", DUO, "run duo.json --procedure sp-e",
        0, "47f1712cbf45e9e368015e5d19ee2143912bc3a2401d711c265449a17e754c6e", "",
    ),
    (
        "duo-sp-p", DUO, "run duo.json --procedure sp-p",
        0, "7acd9b91dbafb2abd737fd33690d61ed60e19872372e6630914325a579ea5c3f", "",
    ),
    (
        "duo-moving-knife", DUO, "run duo.json --procedure moving-knife",
        0, "e9a6d1791f18abe4706fcba9a2310e84cf8ee79e609bcbce8339aa16dc4a2d19", "",
    ),
    (
        "duo-ep", DUO, "run duo.json --procedure ep",
        0, "9b0d60b031c9dab3b2b648666b7a45191330601c6e653caf18d7331f1cbf4aef", "",
    ),
    (
        "trio-moving-knife", TRIO, "run trio.json --procedure moving-knife",
        0, "b72a9cf6b7b56bebb3021166a45ac85eaed0b6ca81560655aa600435d88bcae7", "",
    ),
    (
        "trio-ep", TRIO, "run trio.json --procedure ep",
        0, "cf841f75c9ca798706caf75da2720a27f685fd0dcf253bde10d635a36192b5bc", "",
    ),
    (
        "duo-manipulate", DUO_MANIPULATE,
        "manipulate duo.json --player P1"
        " --candidates duo-candidates.json --opponents duo-opponents.json",
        0, "5ebdbee4b38a76fb1d6655c031c7eb9fd861b2043ec801f96ea90418bf96d3f5", "",
    ),
    # The digests of the plateau and one-density reports were recorded when
    # the surplus cut read the quantiles of a mixture density and the knife
    # called quantile_left.
    (
        "plateau-sp-e", PLATEAU_PAIR, "run plateau-pair.json --procedure sp-e",
        0, "1eba2a540d58d5db3d93b8e90305470a46dfcd03e36037e2e0f02eba51fcb34a", "",
    ),
    (
        "plateau-sp-p", PLATEAU_PAIR, "run plateau-pair.json --procedure sp-p",
        0, "0f9fb47c9121715a8e6b86b3811b3e90101453ab50f6efc4c1d0cb5fb38fbb25", "",
    ),
    (
        "one-density-knife", ONE_DENSITY,
        "run one-density.json --procedure moving-knife --tie seed:7",
        0, "f66ab9e6c60b03ed8d4371184583ef8baef734cd860c83960be21e0b1a741737", "",
    ),
    # The allocation is dominated. The digest was recorded when the cells
    # were Fraction intervals and the improvement LP was built as dense
    # Fraction rows.
    (
        "quartet-pareto", QUARTET, "verify quartet.json quartet-cuts.json --checks pareto",
        0, "b2e12002d50ce0c1a9048e1e69f3ec628aa879babe89dc7a997cd83f047eca13", "",
    ),
    # The digests of the wide reports were recorded when ingest built every
    # Piece and validated a density in two sweeps.
    (
        "wide5-knife",
        {"wide5.json": {"players": [wide_player(f"p{i + 1}", 256, i) for i in range(5)]}},
        "run wide5.json --procedure moving-knife",
        0, "4fcd43fd2f9907dfee4d963d29ded6434bd2546a90ef58b7f07da207a8870ec7", "",
    ),
    (
        "wide4-verify", WIDE4, "verify wide4.json wide4-cuts.json --checks proportional,envy",
        0, "0e441eadcd244524726166978cdea16fc2519952002e263cf4183984417a244d", "",
    ),
    (
        "wide-gap", {"wide-gap.json": wide_gap()}, "run wide-gap.json --procedure moving-knife",
        2, "",
        "error [INVALID_DENSITY]: invalid density for 'p1': "
        "GAP_OR_OVERLAP: pieces 99 and 100 do not abut: 25/64 vs 201/512; "
        "TOTAL_MASS_NOT_ONE: total mass is 276/277\n",
    ),
    (
        "early-bound-late-literal", {"faults.json": early_bound_late_literal()},
        "run faults.json --procedure moving-knife",
        2, "",
        "error [PARSE_ERROR]: players[1].pieces[3]: piece bounds [3/64, 65/64] outside [0, 1]\n",
    ),
]


def write_documents(directory, documents):
    for name, document in documents.items():
        if isinstance(document, dict):
            with open(directory / name, "w", encoding="utf-8") as f:
                json.dump({"schema": "fairslice/1", **document}, f)
        else:
            data = document.encode("utf-8") if isinstance(document, str) else document
            (directory / name).write_bytes(data)


@pytest.mark.parametrize(
    "documents, argv, status, sha256, stderr",
    [row[1:] for row in GOLDEN],
    ids=[row[0] for row in GOLDEN],
)
def test_console_output_is_unchanged(
    documents, argv, status, sha256, stderr, tmp_path, monkeypatch, capsys
):
    write_documents(tmp_path, documents)
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == status
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest() if out else "") == sha256
    assert err == stderr

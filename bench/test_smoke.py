"""Smoke test of the benchmark itself, at a tiny pool size.

    python3 -m pytest bench/test_smoke.py -q

Two traced runs with the same seed must agree on the answer digest and on
every per-layer count; an untraced run must print every end-to-end metric;
and a directory without the program must make the benchmark fail without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# Per-layer metrics that must repeat exactly; times and the overhead do not.
TIMED = ("_ms", "_pct")


def _run(workload, trace, cwd=ROOT, seed=5):
    return subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return digest, json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_traced_runs_repeat_digest_and_counts(workload):
    first_digest, first = _result(_run(workload, 1))
    second_digest, second = _result(_run(workload, 1))
    assert first["correct"] and first["failed"] == 0
    assert first_digest == second_digest
    counts = {
        name: metric["value"]
        for name, metric in first["metrics"].items()
        if not name.endswith(TIMED)
    }
    assert counts == {name: second["metrics"][name]["value"] for name in counts}


def test_untraced_run_reports_every_end_to_end_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    _, result = _result(_run("strategy-sweep", 0))
    assert result["attempted"] >= 100 and result["failed"] == 0
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(NAMES[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

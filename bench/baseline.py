"""Re-measure the single-call baseline table with the benchmark's inputs.

    python3 bench/baseline.py

Each row times one public call on fine-grid inputs drawn the way the
workloads draw them (seeded, integer weights 0..5 on k equal pieces). It
prints the median wall time over a few distinct inputs and the same time
rescaled to the reference speed, as the benchmark reports it.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

from run import REFERENCE_PROBE_S, ROOT, SRC, probe
import workloads

sys.path.insert(0, str(SRC))
import fairslice as fs  # noqa: E402


def _timed(call):
    before = probe()
    start = perf_counter()
    call()
    elapsed = perf_counter() - start
    return elapsed, elapsed * REFERENCE_PROBE_S / statistics.median((before, probe(), probe()))


def _scenario(rng, n, k):
    return workloads.make_scenario(fs, tuple(workloads.fine_weights(rng, k) for _ in range(n)))


def _equitability(rng, n, k):
    scenario = _scenario(rng, n, k)

    def call():
        try:
            fs.equitability(scenario)
        except fs.NoFeasibleOrderingError:
            pass

    return call


def _row(label, make_call, repeats):
    rng = random.Random(label)
    times = [_timed(make_call(rng)) for _ in range(repeats)]
    wall = statistics.median(t[0] for t in times)
    scaled = statistics.median(t[1] for t in times)
    print(f"| {label} | {wall * 1e3:.1f} ms | {scaled * 1e3:.1f} ms | {repeats} |", flush=True)


def _pareto(rng):
    scenario = _scenario(rng, 3, 32)
    allocation = fs.moving_knife(scenario).allocation
    return lambda: fs.pareto_improve(scenario, allocation)


def _paper_ce(rng):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return lambda: [
        subprocess.run(
            [sys.executable, "-m", "fairslice.cli", "paper-ce", str(case)],
            env=env, capture_output=True, check=True,
        )
        for case in range(1, 7)
    ]


def _tier1(rng):
    return lambda: subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, check=True,
    )


def main():
    print("| Workload | Wall (median) | Rescaled (median) | Inputs |")
    print("|---|---|---|---|")
    for n, k, repeats in ((3, 16, 5), (3, 64, 3), (4, 64, 3)):
        _row(
            f"`equitability`, n={n}, k={k}",
            lambda rng, n=n, k=k: _equitability(rng, n, k),
            repeats,
        )
    _row(
        "`moving_knife`, n=5, k=256",
        lambda rng: (lambda s: lambda: fs.moving_knife(s))(_scenario(rng, 5, 256)),
        5,
    )
    _row("`pareto_improve`, n=3, k=32, moving-knife allocation", _pareto, 3)
    _row("`fairslice paper-ce 1..6`, six subprocesses", _paper_ce, 3)
    _row("Tier-1 test suite", _tier1, 1)


if __name__ == "__main__":
    main()

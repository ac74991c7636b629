"""fairslice benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload ep-fine --seed 1 --seconds 24 --trace 0

Run from a source checkout: the program is imported from ``src/``. The
client issues the next operation only when the previous one has returned
and its answer has been checked, so there is exactly one operation in
flight. With ``--trace 0`` the last line of standard output is a JSON
object carrying the end-to-end metrics declared in BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics of a traced pass instead.
Every run also writes a record with its environment to ``.bench_out/``.

Exit status: 0 when every answer is correct, 1 when an operation failed or
the answer digest differs from the reference, 2 when the program or the
benchmark definition cannot be found.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Set-up is timed in this many fresh processes (this one included) and
# reported as the median.
SETUP_SAMPLES = 5
# Enough operations that at least ten lie beyond the 90th percentile.
MIN_OPS = 100
# Median time of probe on the 2-core x86 host (Python 3.11.7) on which
# the benchmark was defined. Reported times are rescaled to this speed.
REFERENCE_PROBE_S = 0.0023
PROBE_EVERY_S = 0.02


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.NAMES + ("all",),
        help="one workload, or 'all' to run each in its own process",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=sorted(workloads.ROUNDS), default="full",
        help="pool size; 'tiny' is for the smoke test",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "python": platform.python_version(),
        "git": _git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _set_up(args, workdir):
    """Import fairslice and build the operations; return them and the set-up
    time, rescaled to reference speed by probes taken before and after."""
    specs = workloads.generate(args.workload, args.seed, args.scale)
    probes = [probe() for _ in range(5)]
    start = perf_counter()
    fs = importlib.import_module("fairslice")
    ops = workloads.build(fs, args.workload, specs, workdir)
    elapsed = perf_counter() - start
    probes += [probe() for _ in range(5)]
    return ops, elapsed * REFERENCE_PROBE_S / statistics.median(probes)


def _setup_sample(args) -> float:
    """Set-up time in a fresh process running this same script."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Ledger:
    """Answers seen so far: the first answer of each operation is the
    reference for every later run of it in the same process."""

    def __init__(self, ops):
        self.ops = ops
        self.hashes: list[str | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, index: int) -> float | None:
        """Run one operation; return its time, or None if it failed."""
        op = self.ops[index]
        self.attempted += 1
        start = perf_counter()
        try:
            answer = op.call()
        except Exception:  # an exception nobody expected fails the operation
            self._record(index, "raised", traceback.format_exc().strip().splitlines()[-1])
            return None
        elapsed = perf_counter() - start
        try:
            op.check(answer)
            problem = None
        except workloads.CheckFailed as exc:
            problem = str(exc)
        return elapsed if self._record(index, op.render(answer), problem) else None

    def _record(self, index, rendering, problem=None) -> bool:
        """Hash the answer and count at most one failure: a problem, or an
        answer that differs from the first one seen. True if neither."""
        digest = hashlib.sha256(rendering.encode()).hexdigest()[:16]
        if self.hashes[index] is None:
            self.hashes[index] = digest
        elif self.hashes[index] != digest and problem is None:
            problem = "answer changed between runs of the same input"
        if problem is None:
            return True
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"op {self.ops[index].label}: {problem}")
        return False

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.hashes).encode()).hexdigest()


def _reference_mismatch(args, ledger) -> str | None:
    """Compare with the recorded answers; return a message naming the first
    differing operation, or None. Only the default seed at full scale has a
    reference; any other run just reports its digest."""
    if args.seed != DEFAULT_SEED or args.scale != "full":
        return None
    try:
        reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
    except (OSError, ValueError, KeyError):
        return "no reference answers recorded for the default seed"
    if reference["digest"] == ledger.digest():
        return None
    for index, (want, got) in enumerate(zip(reference["ops"], ledger.hashes)):
        if want != got:
            return f"answer digest differs from the reference at op {ledger.ops[index].label}"
    return (
        f"answer digest differs from the reference: {len(reference['ops'])} ops"
        f" recorded, {len(ledger.hashes)} run"
    )


def probe() -> float:
    """Seconds for a fixed piece of Fraction arithmetic that shares no code
    with fairslice, as a gauge of how fast the host runs right now."""
    start = perf_counter()
    hits = 0
    for i in range(1, 200):
        x = Fraction(i % 13 + 1, i % 7 + 2)
        y = Fraction(i % 5 + 1, i % 11 + 3)
        if x * y - x + y > 1:
            hits += 1
    return perf_counter() - start


def _timed(ledger, indices):
    """Run operations one after another, with a probe before each one that
    starts PROBE_EVERY_S or more after the last probe.

    Shared hosts change speed by up to 2x within seconds, so each time is
    rescaled by REFERENCE_PROBE_S over the median of the probes around it:
    the result reads as the time on a host that runs the probe in
    REFERENCE_PROBE_S. Returns (rescaled, wall) times, None where an
    operation failed.
    """
    probes, wall, last_probe = [], [], []
    probed_at = float("-inf")
    for index in indices:
        if perf_counter() - probed_at >= PROBE_EVERY_S:
            probes.append(probe())
            probed_at = perf_counter()
        last_probe.append(len(probes) - 1)
        wall.append(ledger.run(index))
    probes.append(probe())
    scaled = [
        None if elapsed is None
        else elapsed * REFERENCE_PROBE_S / statistics.median(probes[max(0, j - 2): j + 3])
        for j, elapsed in zip(last_probe, wall)
    ]
    return scaled, wall


def _closed_loop(pool: int, seconds: float):
    """Indices of the pool in order, wrapping around, until the time is up,
    at least one full pass is done and at least MIN_OPS operations ran."""
    start = perf_counter()
    index = 0
    while index < pool or index < MIN_OPS or perf_counter() - start < seconds:
        yield index % pool
        index += 1


def _end_to_end(args, ledger, setup_times):
    ledger.run(0)  # warm-up: lazy imports and the interpreter's caches
    scaled, wall = _timed(ledger, _closed_loop(len(ledger.ops), args.seconds))
    done = [d for d in scaled if d is not None]
    if len(done) < 2:
        return None, {}
    p90 = statistics.quantiles(done, n=10)[-1]
    wall_done = [d for d in wall if d is not None]
    return {
        "throughput_ops_s": len(done) / sum(done),
        "latency_p50_ms": statistics.median(done) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {
        "samples": len(done),
        "beyond_p90": sum(d > p90 for d in done),
        "wall_throughput_ops_s": round(len(wall_done) / sum(wall_done), 4),
        "wall_latency_p50_ms": round(statistics.median(wall_done) * 1e3, 4),
    }


def _per_layer(ledger):
    """Untraced times of the first half of the pool, then one traced pass
    over the whole pool; counts are per operation of that pass."""
    pool = len(ledger.ops)
    ledger.run(0)  # warm-up, as in the untraced run
    untraced, _ = _timed(ledger, range(max(1, pool // 2)))
    tracer = spans.Tracer()
    spans.install(tracer)
    traced, wall = _timed(ledger, range(pool))
    paired = [(u, t) for u, t in zip(untraced, traced) if u is not None and t is not None]
    overhead = sum(t for _, t in paired) / sum(u for u, _ in paired) - 1 if paired else 0.0
    # Self times are rescaled like operation times, by the pass as a whole.
    wall_s = sum(d for d in wall if d is not None)
    if not wall_s:
        return None, {}
    to_ms = 1e3 * sum(d for d in traced if d is not None) / wall_s / pool

    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {}
    for module, _, function in spans.TRACED:
        name = f"{module}.{function}"
        metrics[f"{name}.calls"] = calls.get(name, 0) / pool
        metrics[f"{name}.self_ms"] = self_s.get(name, 0.0) * to_ms
    metrics["solve.equal_value_solve.feasible_ratio"] = ratio(
        counters.get("solve.equal_value_solve.feasible", 0),
        calls.get("solve.equal_value_solve", 0),
    )
    simplex_calls = calls.get("solve.simplex_max", 0)
    metrics["solve.lp_vars"] = ratio(counters.get("solve.lp_vars_total", 0), simplex_calls)
    metrics["solve.lp_rows"] = ratio(counters.get("solve.lp_rows_total", 0), simplex_calls)
    metrics["solve.decompose.cells"] = ratio(
        counters.get("solve.decompose.cells_total", 0), calls.get("solve.decompose", 0)
    )
    metrics["verify.dominated_ratio"] = ratio(
        counters.get("verify.dominated", 0), calls.get("verify.pareto_optimal_check", 0)
    )
    metrics["verify.enumerated_outcomes"] = counters.get("verify.enumerated_outcomes", 0) / pool
    metrics["bench.op_ms"] = wall_s * to_ms
    metrics["bench.outside_ms"] = (wall_s - tracer.traced_s) * to_ms
    metrics["bench.trace_overhead_pct"] = overhead * 100
    return metrics, {"samples": len(wall), "overhead_pairs": len(paired)}


def _run_all(args) -> int:
    """Run every workload in turn, each in a fresh process; fail if any fails."""
    status = 0
    for name in workloads.NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        status = max(status, subprocess.run(command, timeout=900).returncode)
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "fairslice" / "__init__.py").is_file():
        print(f"error: no fairslice sources under {SRC}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp")
    try:
        if args.setup_only:
            _, elapsed = _set_up(args, workdir)
            print(json.dumps({"setup_s": elapsed}))
            return 0
        return _measure(args, workdir, units, declared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir, units, declared) -> int:
    compileall.compile_dir(str(SRC), quiet=1)
    setup_times = []
    if not args.trace:
        setup_times = [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    ops, elapsed = _set_up(args, workdir)
    setup_times.append(elapsed)
    ledger = Ledger(ops)
    if args.trace:
        metrics, sampling = _per_layer(ledger)
        wanted = [m["name"] for m in declared["per_layer"]]
    else:
        metrics, sampling = _end_to_end(args, ledger, setup_times)
        wanted = [m["name"] for m in declared["end_to_end"]]
    if metrics is None:
        for message in ledger.errors:
            print(f"FAILED {message}", file=sys.stderr)
        print(f"error: {ledger.failed} of {ledger.attempted} operations failed", file=sys.stderr)
        return 1
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: BENCHMARK.json declares metrics not measured: {missing}", file=sys.stderr)
        return 2

    mismatch = _reference_mismatch(args, ledger)
    correct = ledger.failed == 0 and mismatch is None
    env = _environment(args)
    env["pool_ops"] = len(ops)
    env.update(sampling)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    predictions = json.loads((BENCH / "layers.json").read_text())["metrics"]
    for name in wanted:
        moves = predictions.get(name, {}).get(args.workload)
        note = "" if moves is None else f"  predicts: {', '.join(moves) or 'no change'}"
        print(f"{name:<40} {metrics[name]:>14.6g} {units[name]}{note}")
    print(f"{'error_rate':<40} {ledger.failed / ledger.attempted:>14.6g} (failed/attempted)")
    print(f"digest {ledger.digest()}" + (" (default seed: matches reference)"
                                          if args.seed == DEFAULT_SEED and args.scale == "full"
                                          and mismatch is None else ""))
    for message in ledger.errors + ([mismatch] if mismatch else []):
        print(f"FAILED {message}", file=sys.stderr)

    record = {
        "env": env,
        "metrics": metrics,
        "digest": ledger.digest(),
        "ops": ledger.hashes,
        "labels": [op.label for op in ops],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors + ([mismatch] if mismatch else []),
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

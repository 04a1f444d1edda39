"""sepgames benchmark: one workload per invocation, in this fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the library is imported from its ``src/`` directory.
Ops are timed one by one, in whole passes over the workload's ops (the seed
shuffles each pass), until the timed work reaches ``--seconds``; each op's
output is checked against its expected answer outside the timed region.
``op_p50_ms`` is the median over every timed op; ``ops_per_s`` is the rate
of one pass with each op at the median of its repeats, so that a slow spell
of the host during a few long ops does not decide it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced run of every op and prints the per-layer metrics from
the spans of the traced ones (see ``tracing.py``).  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.  A
full record of each run, and the spans of a traced run, go to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# single-threaded numerics, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("disjmp-root", "parity-region", "paritymp-root", "desk-mix")
TAIL_LADDER = (99.9, 99.0, 90.0)
# the per-layer metrics of the result line: those measured on every
# workload; times that are zero where a layer does not run (the delta split
# by family, automaton.check_ms, safety.solve_ms) appear in the report only
PER_LAYER = (
    "frontend.cli_self_ms",
    "frontend.parse_ms",
    "frontend.build_separator_ms",
    "core.graph_build_ms",
    "core.graph_edges",
    "delta.ms",
    "separators.delta_calls",
    "combos.delta_calls",
    "automaton.solve_self_ms",
    "automaton.product_states",
    "automaton.reach_frac",
    "safety.attract_ms",
    "safety.attract_vertices",
    "safety.attract_edges",
    "oracle.check_ms",
    "host.calib_ms",
    "trace.overhead_ms",
)
SETUP_REPEATS = 15

IMPORT_TIMER = "import time; t = time.perf_counter(); import sepgames; print(time.perf_counter() - t)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sepgames benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate() -> float:
    """Fixed pure-Python plus numpy work, median of three, in ms: tells host
    drift from a change in the program."""
    import numpy as np

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(100_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i % 1009] = acc
        data = np.random.default_rng(0).integers(0, 1 << 40, 300_000)
        np.unique(np.argsort(data, kind="stable") % 1009)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def setup_seconds() -> list:
    """Time of ``import sepgames`` in fresh interpreters, after one untimed
    import that writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout))
    return times[1:]


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Runner:
    """Times ops and checks their outputs outside the timed region."""

    def __init__(self) -> None:
        self.check_s = 0.0
        self.attempted = 0
        self.failed = 0

    def run(self, op) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # a failed op is counted and the run goes on
            elapsed = time.perf_counter() - t0
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return elapsed
        elapsed = time.perf_counter() - t0
        c0 = time.perf_counter()
        if op.expected is None or out != op.expected:
            self.failed += 1
            print(f"error: wrong output {out!r}, expected {op.expected!r}", file=sys.stderr)
        self.check_s += time.perf_counter() - c0
        return elapsed


def passes(ops, seed: int, seconds: float, timed) -> int:
    """Run whole shuffled passes until the timed work reaches ``seconds``;
    ``timed(index, op)`` runs one op and returns its timed seconds."""
    rng = random.Random(seed)
    total = 0.0
    count = 0
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for index in order:
            total += timed(index, ops[index])
        count += 1
        if total >= seconds:
            return count


def tail(times_ms: list):
    """Highest percentile of the ladder with at least 10 samples beyond it."""
    for q in TAIL_LADDER:
        if len(times_ms) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(times_ms, n=1000, method="inclusive")[round(q * 10) - 1]
    return None


def measure(inputs, runner: Runner, args) -> tuple:
    times = []
    repeats = [[] for _ in inputs.ops]

    def timed(index, op):
        dt = runner.run(op)
        times.append(dt)
        repeats[index].append(dt)
        return dt

    setup = setup_seconds()
    npass = passes(inputs.ops, args.seed, args.seconds, timed)
    ms = [t * 1000 for t in times]
    metrics = {
        "op_p50_ms": (statistics.median(ms), "ms"),
        "ops_per_s": (len(repeats) / sum(statistics.median(r) for r in repeats), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    report = {
        "ops": len(times),
        "passes": npass,
        "setup_s_samples": setup,
        "op_ms": ms,
        "ops_per_s.all_ops": len(times) / sum(times),
        "failed_frac": runner.failed / runner.attempted,
    }
    q = tail(ms)
    if q:
        report[f"op_p{q[0]:g}_ms"] = q[1]
    else:
        report["op_p99_ms"] = f"undefined: {len(times)} ops, a p90 needs 100"
    return metrics, report


def measure_traced(inputs, runner: Runner, args, record_path: Path) -> tuple:
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    first_pass = len(inputs.ops)

    def timed(index, op):
        dt = runner.run(op)
        plain.append(dt)
        tracer.op = len(traced)
        uninstall = tracing.install(tracer)
        try:
            dt_traced = runner.run(op)
        finally:
            uninstall()
        traced.append(dt_traced)
        return dt + dt_traced

    npass = passes(inputs.ops, args.seed, args.seconds, timed)
    metrics = tracing.summarize(tracer.spans, len(traced), set(range(first_pass)))
    tracer.dump(record_path.with_suffix(".spans.jsonl"))
    traced_p50 = statistics.median(traced) * 1000
    plain_p50 = statistics.median(plain) * 1000
    metrics["trace.overhead_ms"] = (traced_p50 - plain_p50, "ms")
    report = {
        "traced_ops": len(traced),
        "count_ops": first_pass,
        "passes": npass,
        "op_p50_ms.untraced": plain_p50,
        "op_p50_ms.traced": traced_p50,
    }
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sepgames" / "__init__.py").is_file():
        print(f"error: no sepgames sources under {SRC}; run from a sepgames checkout", file=sys.stderr)
        return 2
    if args.workload == "parity-region" and not (ROOT / "tests" / "refs.py").is_file():
        print("error: tests/refs.py (the Zielonka reference) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sepgames
    import workloads

    if Path(sepgames.__file__).resolve().parent != SRC / "sepgames":
        print(f"error: imported sepgames from {sepgames.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    calib = [calibrate()]
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=out_dir))
    try:
        inputs = workloads.build(args.workload, args.seed, workdir)
        runner = Runner()
        if args.trace:
            metrics, report = measure_traced(inputs, runner, args, record_path)
        else:
            metrics, report = measure(inputs, runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib.append(calibrate())

    oracle_ms = (inputs.oracle_s + runner.check_s) * 1000
    host = {"host.calib_ms": statistics.median(calib), "oracle.check_ms": oracle_ms}
    if args.trace:
        metrics.update({key: (value, "ms") for key, value in host.items()})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": inputs.digest,
        "environment": environment(),
        "host.calib_ms_start_end": calib,
        **host,
        **report,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
    }
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for key, value in record.items():
        if key not in ("metrics", "op_ms"):
            print(f"# {key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"{key}\t{value:.6g}\t{unit}")
    shown = PER_LAYER if args.trace else metrics
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": metrics[key][0], "unit": metrics[key][1]} for key in shown},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of kleintrace as its users drive it: one closed-loop client, one
process, one thread, exact requests answered one after another.

    python3 kleinbench/run.py --workload cli-catalog --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
same traffic untraced for a while and then runs one traced pass, giving the
per-layer metrics and the tracing overhead.  ``--workload all`` runs every
workload, each in a fresh interpreter, and prints one table.  The last line
of standard output is a JSON object with keys correct, attempted, failed and
metrics.  The program is imported from ``src`` next to this directory.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import subprocess
import sys
import time

import gen
import spans
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 15
REFERENCE_SEED = 0

CALIBRATE_EVERY = 0.05  # seconds between host speed measurements

_SETUP_CODE = inspect.getsource(stats.reference_work) + (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "walls = []\n"
    "for _ in range(3):\n"
    "    start = time.perf_counter()\n"
    "    reference_work()\n"
    "    walls.append(time.perf_counter() - start)\n"
    "start = time.perf_counter()\n"
    "import kleintrace, kleintrace.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "assert kleintrace.__file__.startswith(sys.argv[1])\n"
    "print(repr(elapsed), repr(sorted(walls)[1]))\n"
)


class BenchError(Exception):
    pass


def measure_setup() -> list[float]:
    """Import time of kleintrace and its CLI, each in a fresh interpreter, in
    reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, SRC],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing kleintrace failed:\n{proc.stderr}")
        elapsed, reference = map(float, proc.stdout.split())
        times.append(elapsed * stats.REFERENCE_SECONDS / reference)
    return times[1:]  # the first import may also compile bytecode


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def check_inputs(workload, seed, traffic, golden):
    """Refuse to measure traffic that differs from the recorded inputs."""
    recorded = golden["inputs"][workload]
    if gen.digest(gen.traffic(workload, REFERENCE_SEED)) != recorded[str(REFERENCE_SEED)]:
        raise BenchError(f"{workload}: generated inputs for seed {REFERENCE_SEED} changed")
    expected = recorded.get(str(seed))
    if expected is not None and gen.digest(traffic) != expected:
        raise BenchError(f"{workload}: generated inputs for seed {seed} changed")


class Tally:
    """Outcomes and timings of operations.

    Each time is kept twice: as wall time, and in reference time.  The host
    speed is measured at most CALIBRATE_EVERY seconds apart, and the ops
    between two measurements are scaled by the mean of the two.
    """

    def __init__(self):
        self.wall = []
        self.latencies = []  # reference seconds
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures outside the known-defect class
        self._scale = None
        self._calibrated = 0.0

    def _calibrate(self):
        scale = stats.host_scale()
        mean = scale if self._scale is None else (self._scale + scale) / 2
        self.latencies += [wall * mean for wall in self.wall[len(self.latencies):]]
        self._scale = scale
        self._calibrated = time.perf_counter()

    def run_pass(self, ops, tracer=None) -> tuple[float, float]:
        """Run one pass; returns its total operation time in reference
        seconds and in wall seconds."""
        first = len(self.wall)
        for op in ops:
            if self._scale is None or time.perf_counter() - self._calibrated >= CALIBRATE_EVERY:
                self._calibrate()
            if tracer is not None:
                tracer.op += 1
            begin = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # the harness keeps going and reports it
                result, error = None, exc
            self.wall.append(time.perf_counter() - begin)
            self.attempted += 1
            if error is not None or not op.check(result):
                self.failed += 1
                if not op.known_defect:
                    self.unexpected.append(f"{op.label}: {error!r}" if error else op.label)
        self._calibrate()
        return sum(self.latencies[first:]), sum(self.wall[first:])

    def run_for(self, make_ops, seconds, need_tail) -> list[float]:
        """Whole passes while the next one, taking as long as the last one,
        still fits in the time; at least one pass and, if asked, until the
        90th percentile has ten samples beyond it.  Returns each pass's
        reference time."""
        passes = []
        start = time.perf_counter()
        last = 0.0
        while (
            not passes
            or time.perf_counter() - start + last <= seconds
            or (need_tail and not stats.tail_reportable(len(self.latencies), 0.9))
        ):
            begin = time.perf_counter()
            passes.append(self.run_pass(make_ops())[0])
            last = time.perf_counter() - begin
        return passes


def run_workload(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "kleintrace", "__init__.py")):
        raise BenchError(f"no kleintrace package under {SRC}")
    sys.path.insert(0, SRC)
    import kleintrace
    import workloads

    if not kleintrace.__file__.startswith(SRC):
        raise BenchError(f"imported kleintrace from {kleintrace.__file__}, not {SRC}")
    golden = load_golden()
    traffic = gen.traffic(workload, seed)
    check_inputs(workload, seed, traffic, golden)
    section = golden.get(workloads.GOLDEN_SECTION[workload]) or {}

    def make_ops():
        return workloads.OPS[workload](traffic, section)

    tally = Tally()
    if not trace:
        setup = measure_setup()
        tally.run_for(make_ops, seconds, need_tail=True)
        lat = tally.latencies
        passed = tally.attempted - tally.failed
        out = {
            "setup_s": (stats.median(setup), "s"),
            "ops_per_s": (passed / sum(lat), "1/ref_s"),
            "latency_p50_ms": (1000 * stats.median(lat), "ref_ms"),
            "latency_p90_ms": (1000 * stats.percentile(lat, 0.9), "ref_ms"),
            "ok_ratio": (passed / tally.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        samples = {"setup_s": len(setup), "latency_p50_ms": len(lat), "latency_p90_ms": len(lat)}
        wall = tally.wall
        print(
            f"{workload:15s} wall clock: {passed / sum(wall):.6g} ops/s, "
            f"p50 {1000 * stats.median(wall):.6g} ms, p90 {1000 * stats.percentile(wall, 0.9):.6g} ms, "
            f"host speed {sum(lat) / sum(wall):.3f} x reference"
        )
    else:
        passes = tally.run_for(make_ops, seconds / 2, need_tail=False)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, traced_wall = tally.run_pass(make_ops(), tracer)
        finally:
            tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{workload}-{seed}.jsonl"))
        out = spans.layer_metrics(tracer, traced / traced_wall, traced / stats.median(passes))
        samples = {}
    for name, (value, unit) in out.items():
        note = f"  ({samples[name]} samples)" if name in samples else ""
        print(f"{workload:15s} {name:40s} {value:14.6g} {unit}{note}")
    for failure in tally.unexpected:
        print(f"{workload}: unexpected failure: {failure}", file=sys.stderr)
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()},
    }


def run_all(seed, seconds, trace) -> int:
    """Every workload in a fresh interpreter; prints each one's metrics."""
    code = 0
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload:15s} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        code = code or (0 if result["correct"] else 1)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="cli-catalog, moment-deep, trace-identity or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"kleinbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this fresh process and print its figures as one JSON line.

run.py starts this script once per set-up measurement and once per measured
run.  The loop is closed with one client: the next operation starts when the
previous one has returned and been checked.

    python3 bench/worker.py WORKLOAD --seed N --seconds S --t0 T [--trace] [--setup-only]

``--t0`` is the monotonic clock read just before this process was spawned,
so set-up time includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

FAILURES_SHOWN = 5

# Times are reported at a reference machine speed.  A fixed pure-Python
# calibration workload runs between operations, at least every
# CALIBRATE_EVERY_S of wall time; each operation's time is scaled by
# CALIBRATION_REFERENCE_S over the median of the samples taken around it
# (CALIBRATION_WINDOW before and after), so a brief stall in one sample is
# ignored.  NOTES.md gives the reason: on a shared host the
# speed of identical work drifts by up to 2x within a minute.
CALIBRATION_REFERENCE_S = 0.020
CALIBRATE_EVERY_S = 0.2
CALIBRATION_WINDOW = 2
CALIBRATION_SAMPLES_AFTER_SETUP = 3


def calibration_sample() -> float:
    """Wall time of a fixed workload in the library's idiom: small integer
    matrix products on tuples, dict lookups and Fraction sums.  It uses no
    library code, so a change to the library cannot move it.  The garbage
    collector is off meanwhile, so the sample does not grow with the number
    of objects the library holds (a full collection after building GL6 would
    otherwise double it)."""
    gc.disable()
    try:
        start = time.perf_counter()
        a = tuple(tuple((i * 7 + j * 3) % 5 - 2 for j in range(4)) for i in range(4))
        x, seen, acc = a, {}, Fraction(0)
        for k in range(600):
            x = tuple(tuple(sum(p * q for p, q in zip(row, col)) % 7 for col in zip(*a)) for row in x)
            seen[x] = seen.get(x, 0) + 1
            acc += Fraction(k % 13, k % 7 + 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Calibration:
    """Calibration samples in time order, and which sample precedes each operation."""

    def __init__(self):
        self.samples = [calibration_sample() for _ in range(CALIBRATION_SAMPLES_AFTER_SETUP)]
        self.before = []  # per operation: index of the last sample taken before it
        self.last = time.perf_counter()

    def after_setup(self) -> float:
        return CALIBRATION_REFERENCE_S / statistics.median(self.samples)

    def tick(self, elapsed) -> float:
        """Record an operation's wall time; return it at the latest sample's speed."""
        self.before.append(len(self.samples) - 1)
        scaled = elapsed * CALIBRATION_REFERENCE_S / self.samples[-1]
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.samples.append(calibration_sample())
            self.last = time.perf_counter()
        return scaled

    def scales(self) -> list[float]:
        """Per operation, the factor from wall time to reference-speed time."""
        s, w = self.samples, CALIBRATION_WINDOW
        return [CALIBRATION_REFERENCE_S / statistics.median(s[max(k - w, 0) : k + 1 + w]) for k in self.before]


def execute(wl, op):
    """Run one operation; return its output (or the exception it raised) and wall time."""
    wl.prepare(op)
    start = time.perf_counter()
    try:
        out = wl.run(op)
    except Exception as exc:  # a raising operation is a failed one; the run goes on
        out = exc
    return out, time.perf_counter() - start


def problem_with(wl, op, out):
    if isinstance(out, Exception):
        return "raised " + "".join(traceback.format_exception_only(out)).strip()
    try:
        return wl.check(op, out)
    except Exception:
        return "oracle raised " + traceback.format_exc()


def canonical(wl, op, out) -> bytes:
    value = {"error": type(out).__name__} if isinstance(out, Exception) else wl.output(op, out)
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode() + b"\n"


class Run:
    """Counts, failures and the output digest of a sequence of checked operations."""

    def __init__(self, seed):
        self.seed = seed
        self.times = []
        self.failures = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.outputs = []
        self.cases = []

    def op(self, wl, op, where, keep_output):
        out, elapsed = execute(wl, op)
        self.times.append(elapsed)
        self.cases.append(wl.case(op))
        problem = problem_with(wl, op, out)
        if problem:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(f"seed {self.seed}, {where}: {problem}; input {op!r}"[:2000])
        if keep_output:
            line = canonical(wl, op, out)
            self.digest.update(line)
            self.outputs.append(line)


def timed_run(wl, rng, seed, seconds, calibration):
    """Whole blocks until the digest blocks and `seconds` of operation time are done.

    Time is counted at reference speed, so a seed runs the same blocks
    however fast the host happens to be.
    """
    run = Run(seed)
    block, reference_s = 0, 0.0
    while block < wl.digest_blocks or reference_s < seconds:
        for i, op in enumerate(wl.block(rng)):
            run.op(wl, op, f"block {block} op {i}", block < wl.digest_blocks)
            reference_s += calibration.tick(run.times[-1])
        block += 1
    scaled = [t * f for t, f in zip(run.times, calibration.scales())]
    ok = len(run.times) - run.failed
    timed = sum(run.times)

    def figures(times):
        # workloads that repeat a fixed set of cases take percentiles over
        # the cases, each at its median time, so noise on single operations
        # cannot move a percentile from one case to the next
        by_case = {}
        for case, t in zip(run.cases, times):
            by_case.setdefault(case, []).append(t)
        spots = [statistics.median(v) for v in by_case.values()] if None not in by_case else times
        return {
            "ops_per_s": ok / sum(times),
            "op_p50_ms": statistics.median(spots) * 1e3,
            "op_p90_ms": statistics.quantiles(spots, n=10, method="inclusive")[8] * 1e3,
        }

    return {
        "attempted": len(run.times),
        "failed": run.failed,
        "failures": run.failures,
        "digest": run.digest.hexdigest(),
        "digest_ops": len(run.outputs),
        "blocks": block,
        "cases": len(set(run.cases)) if None not in run.cases else None,
        "timed_s": timed,
        "speed": sum(scaled) / timed,
        "calibrations": len(calibration.samples),
        **figures(scaled),
        "wall": figures(run.times),
    }


def traced_run(wl, rng, seed):
    """The digest blocks twice: checked with no wrappers, then traced.

    The traced pass runs a fixed list of operations, so its call counts
    repeat exactly for a seed; its outputs must match the first pass.
    """
    import tracing

    ops = [(f"block {b} op {i}", op) for b in range(wl.digest_blocks) for i, op in enumerate(wl.block(rng))]
    plain = Run(seed)
    for where, op in ops:
        plain.op(wl, op, where, True)
    tracer = tracing.Tracer()
    tracer.install()
    traced_outputs, traced_s = [], 0.0
    try:
        for _, op in ops:
            out, elapsed = execute(wl, op)
            traced_s += elapsed
            traced_outputs.append(canonical(wl, op, out))
    finally:
        tracer.uninstall()
    for (where, op), a, b in zip(ops, plain.outputs, traced_outputs):
        if a != b:
            plain.failed += 1
            if len(plain.failures) < FAILURES_SHOWN:
                plain.failures.append(f"seed {seed}, {where}: traced output differs from untraced")
    return {
        "attempted": len(ops),
        "failed": plain.failed,
        "failures": plain.failures,
        "digest": plain.digest.hexdigest(),
        "traced_digest": hashlib.sha256(b"".join(traced_outputs)).hexdigest(),
        "digest_ops": len(ops),
        "stats": tracer.stats,
        "overhead_ratio": traced_s / sum(plain.times),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup()
    setup_wall = time.monotonic() - args.t0
    calibration = Calibration()
    result = {"setup_s": setup_wall * calibration.after_setup(), "setup_wall_s": setup_wall}
    if not args.setup_only:
        rng = random.Random(f"{args.workload}:{args.seed}")
        if args.trace:
            result.update(traced_run(wl, rng, args.seed))
        else:
            result.update(timed_run(wl, rng, args.seed, args.seconds, calibration))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()

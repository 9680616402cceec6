"""Benchmark of the tropgroups library: four workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE]
    python3 bench/run.py --workload all --seed N [--trace 0|1] [--out FILE]
    python3 bench/run.py --compare BASE.jsonl CHANGE.jsonl

Run from the root of a checkout.  Each workload runs in fresh Python
processes started by worker.py: two that only set up, for the set-up time,
and one that sets up and then measures (or, with --trace 1, traces).  The
lines before the last describe the run; the last line is one JSON object with
the keys correct, attempted, failed and metrics.  --out appends one record per
run to a JSON-lines file that --compare reads.  NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_RUNS = 3  # set-up is measured this many times per run and reported as the median
DEADLINE_S = 170  # a run ends within 180 s


class BenchError(RuntimeError):
    """A worker failed to produce figures; the run prints no result."""


def spawn(workload, seed, seconds, *flags, deadline):
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise BenchError(f"{workload}: out of time before a worker started")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, "--seed", str(seed), "--seconds", str(seconds)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0), *flags],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=budget,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker did not finish within {budget:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    """Figures of one run, and the JSON result line printed last."""
    if trace:
        fig = spawn(workload, seed, seconds, "--trace", deadline=deadline)
        values = {
            m["name"]: tracing.layer_value(m["name"], fig["stats"], fig["overhead_ratio"])
            for m in SPEC["per_layer"]
        }
        specs = SPEC["per_layer"]
    else:
        setups = [
            spawn(workload, seed, seconds, "--setup-only", deadline=deadline)["setup_s"]
            for _ in range(SETUP_RUNS - 1)
        ]
        fig = spawn(workload, seed, seconds, deadline=deadline)
        fig["setup_runs"] = setups + [fig["setup_s"]]
        fig["setup_s"] = statistics.median(fig["setup_runs"])
        values = {m["name"]: fig[m["name"]] for m in SPEC["end_to_end"]}
        specs = SPEC["end_to_end"]
    result = {
        "correct": fig["failed"] == 0,
        "attempted": fig["attempted"],
        "failed": fig["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    return fig, result


def samples(name, fig):
    """Sample count behind an end-to-end metric."""
    if name == "setup_s":
        return f"{len(fig['setup_runs'])} set-ups"
    if name == "peak_rss_mb":
        return "1 process"
    if name != "ops_per_s" and fig["cases"]:
        return f"{fig['cases']} case medians over {fig['attempted']} ops"
    return f"{fig['attempted']} ops"


def report(workload, seed, trace, fig, result):
    print(f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}")
    for name, metric in result["metrics"].items():
        extra = "" if trace else f"  (n = {samples(name, fig)})"
        print(f"  {name:44} {metric['value']:>14.6g} {metric['unit']}{extra}")
    if not trace:
        wall = "  ".join(f"{k} {v:.6g}" for k, v in fig["wall"].items())
        print(f"  at {fig['speed']:.3f}x reference speed ({fig['calibrations']} calibrations); wall clock: {wall}")
    error_rate = fig["failed"] / fig["attempted"]
    print(f"  {'error_rate':44} {error_rate:>14.6g} ratio  ({fig['failed']} of {fig['attempted']} ops)")
    if trace:
        print("  heaviest traced names by self time (calls, self s):")
        heavy = sorted(fig["stats"].items(), key=lambda kv: -kv[1][1])[:10]
        for name, (calls, self_s, _) in heavy:
            print(f"    {name:42} {calls:>10} {self_s:>10.4f}")
    digest_line = f"  output digest sha256:{fig['digest']} over the first {fig['digest_ops']} ops"
    if trace:
        same = "same" if fig["traced_digest"] == fig["digest"] else "DIFFERENT"
        digest_line += f" (traced pass: {same})"
    print(digest_line)
    for failure in fig["failures"]:
        print(f"  FAILED {failure}")
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON record per run to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args()

    if args.compare:
        import compare

        compare.main(SPEC, *args.compare)
        return 0
    if args.workload is None:
        parser.error("give --workload or --compare")
    if not (ROOT / "src" / "tropgroups" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            fig, result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(name, args.seed, args.trace, fig, result)
        if args.out:
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
            figures = {k: v for k, v in fig.items() if k not in ("stats", "failures")}
            record.update(digest=fig["digest"], result=result, figures=figures)
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

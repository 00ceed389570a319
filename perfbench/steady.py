"""Steadiness check: repeat workloads over several seeds and report the spread.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workloads ambient-queries --runs 5 --trace

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json; the
bounds are set so that this spread stays under a third of them.  It also
prints each run's share of failed operations, which must be the same in
every run.  With ``--trace`` each seed is run a second time with tracing
on, and the median slowdown of ``ops_per_s`` is reported as the tracing
overhead.  Results are also written to ``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ],
        cwd=CHECKOUT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if trace:
        result.update(json.loads(lines[-2]))
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    config = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("quartiles need at least three runs")

    (HERE / "out").mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds, False)
            if args.trace:
                result["traced"] = run_once(workload, seed, args.seconds, True)
            runs.append(result)
            print(f"{workload} seed {seed}: " + json.dumps(result["metrics"]), flush=True)
        report = {"workload": workload, "seconds": args.seconds, "runs": runs}
        print(f"\n{workload}: {args.runs} runs of {args.seconds:g} s")
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            report[name] = {**stats, "bound": bound}
            ok = name == "setup_s" or stats["spread"] < bound / 3
            steady &= ok
            print(
                f"  {name:12s} median {stats['median']:12.6g}  quartiles "
                f"[{stats['q1']:.6g}, {stats['q3']:.6g}]  spread {stats['spread']:7.2%}  "
                f"bound {bound:.0%}{'' if ok else '  NOT STEADY'}"
            )
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        report["failed_shares"] = shares
        report["correct"] = all(r["correct"] for r in runs)
        steady &= len(shares) == 1 and report["correct"]
        print(f"  failed share per run: {shares}; all correct: {report['correct']}")
        if args.trace:
            slowdowns = [
                r["metrics"]["ops_per_s"]["value"] / r["traced"]["traced_ops_per_s"] - 1.0
                for r in runs
            ]
            report["tracing_overhead"] = spread(slowdowns)
            traced_shares = sorted({r["traced"]["failed"] / r["traced"]["attempted"] for r in runs})
            report["traced_failed_shares"] = traced_shares
            print(
                f"  tracing overhead (ops_per_s untraced / traced - 1): median "
                f"{statistics.median(slowdowns):.1%}; traced failed shares {traced_shares}"
            )
        (HERE / "out" / f"steady-{workload}.json").write_text(json.dumps(report, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

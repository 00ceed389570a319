"""Benchmark of surfmod: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload reduction-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; surfmod is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up time, throughput, median
latency, peak memory); with ``--trace 1`` the per-layer ones from a run
with every public surfmod function wrapped.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = HERE / "out"

# Fresh interpreters per run for setup_s and for the traced import profile.
SETUP_PROBES = 3
IMPORT_PROFILES = 3


def import_surfmod():
    """Import surfmod from this checkout, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import surfmod

    if SRC.resolve() not in Path(surfmod.__file__).resolve().parents:
        raise ImportError(f"surfmod was imported from {surfmod.__file__}, not from {SRC}")
    return surfmod


def _child(args):
    done = subprocess.run(
        [sys.executable, *args], cwd=CHECKOUT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return done


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (import plus catalog entries)."""
    probe = str(HERE / "setup_probe.py")
    times = [
        float(_child([probe, str(SRC), workload, str(seed)]).stdout.split()[-1])
        for _ in range(SETUP_PROBES)
    ]
    return statistics.median(times)


def import_profile() -> dict:
    """Median ``-X importtime`` cost of ``import surfmod`` and of scipy within it."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import surfmod"
    totals, scipy_parts = [], []
    for _ in range(IMPORT_PROFILES):
        stderr = _child(["-X", "importtime", "-c", code]).stderr
        total = scipy_self = 0
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:") :].split("|")
            if not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name == "surfmod":
                total = int(fields[1])
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += int(fields[0])
        totals.append(total / 1e3)
        scipy_parts.append(scipy_self / 1e3)
    return {"import_ms": statistics.median(totals), "scipy_import_ms": statistics.median(scipy_parts)}


def run_workload(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Whole rounds of the workload's operations until ``seconds`` have passed.

    Only the program calls are timed; building inputs and checking outputs
    are not.  Returns the latencies and (label, known fault, error) per
    operation; a tracer also collects the counts the checks report.
    """
    import numpy as np
    from surfmod import SurfmodError

    rng = np.random.default_rng(seed)
    state = workload.prepare(rng)
    latencies, outcomes = [], []
    counts = tracer.counts if tracer is not None else {}
    start = time.perf_counter()
    while True:
        for op in workload.round(state, rng):
            region = tracer.region("op") if tracer is not None else nullcontext()
            t0 = time.perf_counter()
            try:
                with region:
                    result = op.call()
            except SurfmodError as exc:
                latencies.append(time.perf_counter() - t0)
                outcomes.append((op.label, op.known_fault, f"{type(exc).__name__}: {exc}"))
                continue
            latencies.append(time.perf_counter() - t0)
            error, op_counts = op.check(result)
            outcomes.append((op.label, op.known_fault, error))
            if tracer is not None:
                counts.update(op_counts)
        if time.perf_counter() - start >= seconds:
            return {"latencies": latencies, "outcomes": outcomes}


def summarize(outcomes) -> dict:
    failed = [o for o in outcomes if o[2] is not None]
    unexpected = [o for o in failed if not o[1]]
    return {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "unexpected": unexpected,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_surfmod()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        imports = import_profile()
        tracer = Tracer()
        tracer.install()
    else:
        setup_s = setup_seconds(args.workload, args.seed)

    try:
        run = run_workload(workload, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    latencies = run["latencies"]
    summary = summarize(run["outcomes"])
    for label, _, error in summary["unexpected"]:
        print(f"FAIL {label}: {error}", file=sys.stderr)
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if tracer is None:
        metrics["setup_s"] = (setup_s, "s")
    else:
        # Traced throughput, for the tracing overhead; not a per-layer metric.
        print(json.dumps({"traced_ops_per_s": metrics["ops_per_s"][0], "spans_dropped": tracer.dropped}))
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.csv")
        metrics = layer_metrics(tracer, len(latencies), imports)
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

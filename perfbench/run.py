"""Benchmark of quadrica's map census, single-map certification and the
internal-Hom round trip.

    python3 perfbench/run.py --workload {census,certify,hom} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
A run repeats rounds until ``--seconds`` have passed.  Each round builds its
inputs afresh (timed as set-up) and then runs its operations (the timed
pass).  Every output is checked after the last round.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SETUPS = 5  # set-up is repeated until there are this many samples


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("census", "certify", "hom"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _round(wl, round_no: int, tracer=None) -> dict:
    """Set up, run and check one round; with a tracer, set-up and pass are
    traced.  Only the timings and the check results are kept."""
    if tracer is not None:
        tracer.install(own_modules=[sys.modules[n] for n in ("inputs", "workloads")])
        tracer.op = (round_no, "setup")
        wl.tracer = tracer
    try:
        t0 = time.perf_counter()
        state = wl.setup(round_no)
        t1 = time.perf_counter()
        ops, maps = wl.run_round(state, round_no)
        t2 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
            wl.tracer = None
    correct = wl.check(ops, round_no)
    return {"setup_s": t1 - t0, "pass_s": t2 - t1, "maps": maps, "correct": correct,
            "latencies": [(op.group, op.seconds) for op in ops],
            "failed": sum(op.failed for op in ops)}


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def steady_latencies(rounds) -> list:
    """Each operation's latency, taken as the median over the run of its
    group's repetitions (one or more per round).  A slow spell of the
    machine that lasts less than half the run leaves these unchanged."""
    by_group: dict = {}
    for r in rounds:
        for group, seconds in r["latencies"]:
            by_group.setdefault(group, []).append(seconds)
    return [statistics.median(by_group[group]) for r in rounds for group, _ in r["latencies"]]


def measure(wl, seconds: float, tracer) -> tuple[list, list]:
    """Rounds until set-up and passes have taken ``seconds``: (untraced
    rounds, traced rounds).  A traced run follows each untraced round by a
    traced one with the same operations; the two give the tracing overhead."""
    plain, traced = [], []
    spent, round_no = 0.0, 0
    while spent < seconds:
        plain.append(_round(wl, round_no))
        if tracer is not None:
            traced.append(_round(wl, round_no, tracer))
        spent += sum(r["setup_s"] + r["pass_s"] for r in (plain[-1:] + traced[-1:]))
        round_no += 1
    return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "quadrica" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = measure(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [r["setup_s"] for r in plain]
    while not args.trace and len(setups) < MIN_SETUPS:
        t0 = time.perf_counter()
        wl.setup(len(setups))
        setups.append(time.perf_counter() - t0)

    rounds = plain + traced
    pass_s = sum(r["pass_s"] for r in plain)

    if args.trace:
        traced_pass = sum(r["pass_s"] for r in traced)
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        metrics["trace.overhead_pct"] = (100 * (traced_pass / pass_s - 1), "%")
        path = OUT / f"trace-{args.workload}.jsonl"
        tracer.write(path)
        print(f"{args.workload}: {len(traced)} traced rounds, {len(tracer.spans)} spans "
              f"in {path.relative_to(ROOT)}; tracing overhead "
              f"{metrics['trace.overhead_pct'][0]:.1f} % of the untraced pass")
    else:
        lat_ms = [t * 1e3 for t in steady_latencies(plain)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "maps_per_s": (sum(r["maps"] for r in plain) / (sum(lat_ms) / 1e3), "maps/s"),
            "op_p50_ms": (statistics.median(lat_ms), "ms"),
            "op_p90_ms": (percentile(lat_ms, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"{args.workload}: {len(plain)} rounds, {len(lat_ms)} operations, "
              f"{pass_s / len(plain):.3f} s per pass, {len(setups)} set-ups")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(len(r["latencies"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark for polycert: certify, reverify and soundness, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

It drives the library in this process, on one thread, from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Trace totals are
also written to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one thread: numpy must not start a BLAS pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "comm_elems": "count",
    "cert_bytes": "bytes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

ORACLES = ("det_bareiss", "rank_and_profile", "hermite_form", "popov_form",
           "kernel_basis_left", "saturation_basis", "rational_solve_left")

# name -> (layer, tally, unit); "self_ns" tallies are reported in ms per op
PER_LAYER = {
    "ff.inv.calls": ("ff.inv", "calls", "count"),
    "upoly.interpolate.self_ms": ("upoly.interpolate", "self_ns", "ms"),
    "upoly.interpolate.calls": ("upoly.interpolate", "calls", "count"),
    "upoly.interpolate.points": ("upoly.interpolate", "points", "count"),
    "upoly.mul.self_ms": ("upoly.mul", "self_ns", "ms"),
    "upoly.mul.calls": ("upoly.mul", "calls", "count"),
    "upoly.mul.long_calls": ("upoly.mul", "long_calls", "count"),
    "upoly.divmod.self_ms": ("upoly.divmod", "self_ns", "ms"),
    "upoly.xgcd.self_ms": ("upoly.xgcd", "self_ns", "ms"),
    "upoly.horner.calls": ("upoly.horner", "calls", "count"),
    "polymat.toeplitz.self_ms": ("polymat.toeplitz", "self_ns", "ms"),
    "polymat.eval_at.self_ms": ("polymat.eval_at", "self_ns", "ms"),
    "polymat.eval_at.calls": ("polymat.eval_at", "calls", "count"),
    "matfield.pluq.self_ms": ("matfield.pluq", "self_ns", "ms"),
    "matfield.pluq.calls": ("matfield.pluq", "calls", "count"),
    **{f"oracles.{fn}.self_ms": (f"oracles.{fn}", "self_ns", "ms") for fn in ORACLES},
    "provers.self_ms": ("provers", "self_ns", "ms"),
    "adversary.self_ms": ("adversary", "self_ns", "ms"),
    "protocols.self_ms": ("protocols", "self_ns", "ms"),
    "protocols.messages": ("protocols", "messages", "count"),
    "transcript.save.self_ms": ("transcript.save", "self_ns", "ms"),
    "transcript.load.self_ms": ("transcript.load", "self_ns", "ms"),
    "transcript.digest.self_ms": ("transcript.digest", "self_ns", "ms"),
    "transcript.encode.calls": ("transcript.encode", "calls", "count"),
    "transcript.encode.bytes": ("transcript.encode", "bytes", "count"),
    "transcript.absorb.self_ms": ("transcript.absorb", "self_ns", "ms"),
    "transcript.absorb.bytes": ("transcript.absorb", "bytes", "count"),
    "transcript.draw.calls": ("transcript.draw", "calls", "count"),
}
# layers that do their work in set-up: reported for the one set-up, not per op
PER_SETUP = {
    "instances.self_ms": ("instances", "self_ns", "ms"),
    "experiments.self_ms": ("experiments", "self_ns", "ms"),
}
OVERHEAD = ("trace.overhead_pct", "%")


def timed_loop(wl, items, seconds, resetup=None, resetups=0):
    """Whole passes over the op list until ``seconds`` of passes have run.

    ``resetup`` is called ``resetups`` times at pass boundaries spread evenly
    over the run, so that set-up time is sampled across the machine's slow
    and fast phases; the time it takes is left out of the loop's clock.
    """
    wl.reset()
    gc.collect()
    durations = []
    pass_times = []
    setup_times = []
    failed = 0
    paused = 0.0
    start = time.perf_counter()
    while True:
        first = not pass_times
        pass_start = time.perf_counter()
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            try:
                out, err = wl.op(item), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, exc
            durations.append(time.perf_counter() - t0)
            failed += err is not None
            wl.observe(i, out, err, first)
        pass_times.append(time.perf_counter() - pass_start)
        ran = time.perf_counter() - start - paused
        if ran >= seconds:
            break
        if len(setup_times) < resetups and ran >= seconds * (len(setup_times) + 1) / (resetups + 1):
            t0 = time.perf_counter()
            resetup()
            setup_times.append(time.perf_counter() - t0)
            paused += setup_times[-1]
    return {"attempted": len(durations), "failed": failed,
            # the median pass: a burst of stolen or slowed CPU spoils a few
            # passes, not the figure
            "ops_per_s": len(items) / statistics.median(pass_times),
            "op_p50_ms": statistics.median(durations) * 1e3,
            "setup_times": setup_times}


def layer_metrics(loop, ops, setup, overhead_pct):
    """Loop layers per operation, set-up layers for the one set-up."""
    def value(stats, layer, tally, per):
        v = stats["layers"].get(layer, {}).get(tally, 0) / per
        return v / 1e6 if tally == "self_ns" else v

    metrics = {name: {"value": value(loop, layer, tally, ops), "unit": unit}
               for name, (layer, tally, unit) in PER_LAYER.items()}
    metrics.update({name: {"value": value(setup, layer, tally, 1), "unit": unit}
                    for name, (layer, tally, unit) in PER_SETUP.items()})
    metrics[OVERHEAD[0]] = {"value": overhead_pct, "unit": OVERHEAD[1]}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polycert", "__init__.py")):
        print(f"perfbench: no polycert source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import polycert
    if os.path.dirname(os.path.dirname(os.path.abspath(polycert.__file__))) != SRC:
        print(f"perfbench: imported polycert from {polycert.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    def setup():
        t0 = time.perf_counter()
        wl = cls(OUT, args.seed)
        items = wl.setup()
        return wl, items, time.perf_counter() - t0

    if tracer:
        # set up once under the tracer, then split the run: the first half
        # untraced, the second traced, and report the slowdown between them
        tracer.install(callers=[workloads])
        wl, items, _ = setup()
        tracer.uninstall()
        setup_trace = tracer.snapshot()
        plain = timed_loop(wl, items, args.seconds / 2)
        tracer.reset()
        tracer.install(callers=[workloads])
        loop = timed_loop(wl, items, args.seconds / 2)
        tracer.uninstall()
        loop_trace = tracer.snapshot()
    else:
        wl, items, first_setup = setup()
        loop = timed_loop(wl, items, args.seconds, setup, cls.setup_repeats - 1)
        setup_times = [first_setup] + loop["setup_times"]

    problems = wl.check()
    for line in problems:
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    if tracer:
        overhead = (plain["ops_per_s"] / loop["ops_per_s"] - 1) * 100
        metrics = layer_metrics(loop_trace, loop["attempted"], setup_trace, overhead)
        attempted = plain["attempted"] + loop["attempted"]
        failed = plain["failed"] + loop["failed"]
        with open(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "setup": setup_trace,
                       "loop_ops": loop["attempted"], "loop": loop_trace,
                       "untraced_ops_per_s": plain["ops_per_s"],
                       "traced_ops_per_s": loop["ops_per_s"]}, fh, indent=1)
    else:
        values = {
            "ops_per_s": loop["ops_per_s"],
            "op_p50_ms": loop["op_p50_ms"],
            "comm_elems": wl.comm_elems(),
            "cert_bytes": wl.cert_bytes(),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        attempted, failed = loop["attempted"], loop["failed"]

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

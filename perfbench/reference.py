#!/usr/bin/env python3
"""Reference figures: prove, recompute and offline verify at two fixed sizes.

Run from the root of a checkout:  python3 perfbench/reference.py

For rsm (8 x 10, degree 4) and hermite (8 x 8, degree 4) it times the
honest Fiat-Shamir proof, the direct recompute a Verifier without a
certificate would do (row_membership_oracle, hermite_form), and the offline
re-verification of the saved transcript, and prints min / median / max in ms.
It then repeats the same rsm proof for four windows of 15 s and prints each
window's proofs per second of wall and of process CPU time and the range of
its 2 s means, which shows how
much this machine's speed moves while the work stays the same.
"""

import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from polycert import Transcript, run_protocol, verify_transcript  # noqa: E402
from polycert import instances as I  # noqa: E402
from polycert import oracles as O  # noqa: E402
from workloads import FIELD, PROVE_PARAMS  # noqa: E402


def clock(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return out, times


def report(name, times):
    print(f"  {name:10s} min {min(times):9.1f}  median {statistics.median(times):9.1f}"
          f"  max {max(times):9.1f} ms  ({len(times)} runs)")


def main():
    rng = random.Random(0)
    a, v, _ = I.planted_member(rng, FIELD, 8, 10, 4)
    h_in = I.rand_polymat(rng, FIELD, 8, 8, 4)
    cases = [
        ("rsm 8x10 d4", "rsm", lambda: {"A": a, "v": v},
         lambda: O.row_membership_oracle(a, v), 7),
        ("hermite 8x8 d4", "hermite", lambda: {"A": h_in, "H": O.hermite_form(h_in)[0]},
         lambda: O.hermite_form(h_in), 3),
    ]
    for title, pid, pub_fn, recompute, repeats in cases:
        print(title)
        pub = pub_fn()
        (_, t), prove = clock(lambda: run_protocol(pid, pub, PROVE_PARAMS), repeats)
        _, recomp = clock(recompute, repeats)
        raw = json.dumps(t.to_json_dict())
        verdict, verify = clock(
            lambda: verify_transcript(Transcript.from_json_dict(json.loads(raw))), repeats * 3)
        if not verdict.accepted:
            raise SystemExit(f"{title}: honest transcript rejected: {verdict}")
        report("prove", prove)
        report("recompute", recomp)
        report("verify", verify)

    print("identical rsm 8x10 d4 proofs, four 15 s windows")
    pub = {"A": a, "v": v}
    for _ in range(4):
        times = []
        start, cpu = time.perf_counter(), time.process_time()
        while time.perf_counter() - start < 15:
            t0 = time.perf_counter()
            run_protocol("rsm", pub, PROVE_PARAMS)
            times.append(time.perf_counter() - t0)
        cpu = time.process_time() - cpu
        means, acc, chunk = [], 0.0, []
        for t in times:
            chunk.append(t)
            acc += t
            if acc >= 2:
                means.append(statistics.mean(chunk) * 1e3)
                acc, chunk = 0.0, []
        print(f"  {len(times) / sum(times):5.2f} proofs/s ({len(times) / cpu:5.2f} per CPU s); 2 s means "
              f"{min(means):5.0f} to {max(means):5.0f} ms; single proofs "
              f"{min(times) * 1e3:5.0f} to {max(times) * 1e3:5.0f} ms")


if __name__ == "__main__":
    main()

"""One workload pass in a fresh process; started by run.py, not by hand.

The worker imports the library and loads the pinned expectations, prints
``ready`` (the end of set-up), runs the workload's operations one at a time in
the order its seed gives, and prints one JSON report as its last line. An
operation that raises or differs from its pinned invariants is counted as
failed; the remaining operations still run.

    python3 perfbench/worker.py --workload sat-rational --seed 1 [--trace]
    python3 perfbench/worker.py --setup-only
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")


def check_hermetic() -> str | None:
    """Why this process may not be measured, or None. Stripped asserts would
    skip certificate checks and a result cache would replay old answers."""
    if sys.flags.optimize:
        return "running with -O strips the certificate asserts"
    if "EQUIANGULAR_CACHE_DIR" in os.environ:
        return "EQUIANGULAR_CACHE_DIR would replay cached results"
    return None


def _normal(value):
    return json.loads(json.dumps(value))


def run_ops(ops, expected: dict, tracer=None) -> tuple[list[dict], float]:
    """Run (name, call) pairs in order; returns per-op records and the wall
    time from the start of the first to the end of the last."""
    records = []
    t_first = time.perf_counter()
    for i, (name, call) in enumerate(ops):
        t0 = time.perf_counter()
        rec = {"op": name, "ok": False}
        try:
            got = _normal(tracer.run_op(i, name, call) if tracer else call())
        except Exception as exc:  # one failed operation must not end the run
            rec["error"] = "".join(traceback.format_exception_only(exc)).strip()
            rec["traceback"] = traceback.format_exc()
        else:
            want = expected.get(name)
            if want is None:
                rec["error"] = "no pinned expectation"
            elif got != want:
                diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
                rec["error"] = f"differs from pinned values in {diff}"
            else:
                rec["ok"] = True
        rec["seconds"] = time.perf_counter() - t0
        records.append(rec)
    return records, time.perf_counter() - t_first


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--only", action="append", help="run just these operations")
    p.add_argument("--expected", default=EXPECTED, help="pinned invariants file")
    p.add_argument("--spans", help="write the traced spans to this file")
    args = p.parse_args(argv)

    problem = check_hermetic()
    if problem:
        print(f"worker: refusing to run: {problem}", file=sys.stderr)
        return 3
    # --- set-up: everything a caller pays before its first operation ---------
    import ops as workloads  # imports the library

    with open(args.expected) as fh:
        expected = json.load(fh)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ops = workloads.workload_ops(args.workload)
    if args.only:
        ops = [op for op in ops if op[0] in args.only]
    random.Random(args.seed).shuffle(ops)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        from tracer import Tracer, layer_metrics

        with Tracer() as tracer:
            records, solve_s = run_ops(ops, expected, tracer)
        report["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in layer_metrics(tracer.stats).items()}
        report["unmeasured"] = tracer.unmeasured()
        if args.spans:
            report["spans"] = tracer.write_spans(args.spans)
    else:
        records, solve_s = run_ops(ops, expected)
    report["ops"] = records
    report["solve_s"] = solve_s
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["maxrss_kib"] = maxrss // 1024 if sys.platform == "darwin" else maxrss
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

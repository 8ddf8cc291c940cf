"""Benchmark of the equiangular toolkit: exact saturation and Witt workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sat-rational --seed 1 --seconds 45 --trace 0

Each workload is a closed loop with one client: a fresh worker process with
``jobs=1`` issues one library call at a time and checks every result against
the invariants pinned in ``perfbench/expected.json``. The seed fixes the order
of the calls. Passes of the whole workload, each in a fresh process, repeat
while one more pass is expected to end within ``--seconds`` (at least one).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``solve_s`` (median pass wall time, first call start to last call end),
``peak_rss_mb`` (largest ``ru_maxrss`` of a pass) and ``setup_s`` (median time
from process launch to ready over several fresh processes). With ``--trace 1``
it reports per-layer metrics from one traced pass, plus the tracing overhead
against one untraced pass. Provenance and per-operation details are written
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sat-rational", "sat-quadratic", "witt-linalg")
SETUPS = 9          # fresh processes timed for setup_s
TIME_LIMIT = 170.0  # a run must end well within three minutes
MIB = 1024          # ru_maxrss is in KiB on Linux


class WorkerFailed(RuntimeError):
    pass


def child_env(base=None) -> dict:
    """Environment for workers: the checkout's library first, no -O, no
    result cache, fixed string hashing."""
    env = dict(os.environ if base is None else base)
    for var in ("PYTHONOPTIMIZE", "EQUIANGULAR_CACHE_DIR", "PYTHONINSPECT"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(args: list[str], deadline: float, env: dict) -> tuple[float, str]:
    """Run one worker; returns (seconds from launch to ``ready``, last line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker {args} passed the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerFailed(f"worker {args} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def provenance() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit or "not a git checkout",
        "src_sha256": digest.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "ru_maxrss_unit": "bytes" if sys.platform == "darwin" else "KiB",
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        only: list[str] | None = None, expected: str | None = None) -> dict:
    """Measure one run; returns the result record, whose ``summary`` is the
    benchmark's final output line. ``only`` and ``expected`` narrow the
    workload and replace the pinned values, for the self-tests."""
    env = child_env()
    deadline = time.perf_counter() + TIME_LIMIT
    common = ["--workload", workload, "--seed", str(seed)]
    for name in only or ():
        common += ["--only", name]
    if expected:
        common += ["--expected", expected]

    setups, passes, attempted, failed = [], [], 0, 0

    def one_pass(extra):
        nonlocal attempted, failed
        try:
            ready, line = launch(common + extra, deadline, env)
            rep = json.loads(line)
        except (WorkerFailed, json.JSONDecodeError) as exc:
            print(f"pass failed: {exc}", file=sys.stderr)
            attempted += 1
            failed += 1
            return None
        rep["setup_s"] = ready
        attempted += len(rep["ops"])
        failed += sum(not r["ok"] for r in rep["ops"])
        passes.append(rep)
        return rep

    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json.gz")
        plain = one_pass([])
        traced = one_pass(["--trace", "--spans", spans])
        metrics = {}
        if plain and traced:
            metrics = dict(traced["layers"])
            metrics["trace.solve_s"] = {"value": traced["solve_s"], "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced["solve_s"] - plain["solve_s"], "unit": "s"}
            metrics["trace.layers_missing"] = {"value": len(traced["unmeasured"]), "unit": "count"}
    else:
        setups = [launch(["--setup-only"], deadline, env)[0] for _ in range(SETUPS)]
        # another pass only if it should still end within --seconds
        t_start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            one_pass([])
            now = time.perf_counter()
            if now + (now - t_pass) > min(t_start + seconds, deadline):
                break
        metrics = {}
        if passes:
            metrics = {
                "solve_s": {"value": statistics.median(p["solve_s"] for p in passes), "unit": "s"},
                "peak_rss_mb": {"value": max(p["maxrss_kib"] for p in passes) / MIB, "unit": "MB"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
            }
    summary = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
               "failed": failed, "metrics": metrics}
    return {"summary": summary, "error_rate": failed / attempted if attempted else 1.0,
            "setups_s": setups, "passes": passes, "provenance": provenance()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="equiangular benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "equiangular", "__init__.py")):
        print(f"no equiangular sources under {ROOT}/src: run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:  # set-up itself failed: there is nothing to report
        print(f"benchmark could not start: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    for rep in result["passes"]:
        kind = "traced" if rep["trace"] else "untraced"
        print(f"{kind} pass: solve_s={rep['solve_s']:.3f} setup_s={rep['setup_s']:.3f} "
              f"rss={rep['maxrss_kib'] / MIB:.1f}MB")
        for op in rep["ops"]:
            status = "ok" if op["ok"] else f"FAILED: {op['error']}"
            print(f"  {op['op']:<22} {op['seconds']:8.3f}s  {status}")
        if rep.get("unmeasured"):
            print(f"  layers not measured: {', '.join(rep['unmeasured'])}")
    overhead = result["summary"]["metrics"].get("trace.overhead_s")
    if overhead:
        print(f"tracing overhead: {overhead['value']:+.3f}s (traced minus untraced solve_s)")
    print(f"error_rate={result['error_rate']:.4f} provenance={json.dumps(result['provenance'])}")
    print(f"details: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""graphprox benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload {tv256,fista500,path10k} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the benchmark imports graphprox from the
checkout's ``src/`` and nothing else, so it exits non-zero (and prints no
result) where that source is missing.

The launcher itself imports nothing heavy.  It starts the measuring
process (``worker.py``) between ``SETUP_PROBES`` set-up-only processes,
half before and half after, each with BLAS/OpenMP threads limited to 1, and
times every one from its start until it reports that set-up is done.  ``setup_s`` is the median of those
times minus the benchmark's own instance generation.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``solve_s``, ``peak_rss_mb``, ``ok_frac``), with ``--trace 1`` the
per-layer ones of the traced solves.  Spans of a traced run are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
TIMEOUT_S = 170.0   # whole run, so that a hung solve still ends the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _timed_start(cmd, env, deadline) -> tuple[float, str]:
    """Run one worker to its end; return (seconds from its start until it
    reported set-up done, minus instance generation; its remaining stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        if not select.select([proc.stdout], [], [],
                             max(0.0, deadline - time.monotonic()))[0]:
            raise subprocess.TimeoutExpired(cmd, TIMEOUT_S)
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        tail = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))[0]
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return ready_s - json.loads(ready)["gen_s"], tail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "graphprox" / "__init__.py").is_file():
        print(f"no graphprox source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    deadline = time.monotonic() + TIMEOUT_S
    # set-up probes before and after the measuring process, so that the
    # set-up median spans the run's stretch of host speed
    probes = 0 if args.trace else SETUP_PROBES
    setup = []
    try:
        for _ in range(probes // 2):
            setup.append(_timed_start(cmd + ["--setup-only"], env, deadline)[0])
        ready_s, tail = _timed_start(cmd, env, deadline)
        setup.append(ready_s)
        for _ in range(probes - probes // 2):
            setup.append(_timed_start(cmd + ["--setup-only"], env, deadline)[0])
        result = json.loads(tail.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    units = _units()
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

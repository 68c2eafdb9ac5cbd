"""One benchmark process: set up a workload, warm up, time solves, check them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--setup-only]

``run.py`` starts this with BLAS/OpenMP threads limited to 1 and reads two
JSON lines from its stdout: the first as soon as set-up is done (so that
the launcher can time process start to ready), the last with the results.

The solve loop is closed with one client.  The first solve is an untimed
warm-up.  Timed solves then run back to back, cycling over ``INSTANCES``
instances, while one more solve (at the median time so far) still fits in
``--seconds``, and at least ``MIN_SOLVES`` times; each is checked right
after it, outside the timing.  With ``--trace 1`` every untraced solve is
followed by a traced solve of the same instance, so that the tracing
overhead is measured on the same input and stretch of host speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_SOLVES = 3
# timed solves cycle over this many instances drawn from the seed: on tv256
# the work of one noise draw varies by up to 1.5x, so a single draw would let
# the seed rather than the code set solve_s
INSTANCES = 3


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed now."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i % 7
        times.append(1e3 * (time.perf_counter() - t))
    return statistics.median(times)


def set_up(name: str, seed: int):
    """Generate the instances (untimed by the launcher) and build their
    library objects; returns ([(inst, obj)], generation seconds)."""
    t = time.perf_counter()
    insts = [workloads.generate(name, seed, k) for k in range(INSTANCES)]
    gen_s = time.perf_counter() - t
    sys.path.insert(0, str(ROOT / "src"))
    import graphprox
    if Path(graphprox.__file__).resolve().parent != ROOT / "src" / "graphprox":
        raise SystemExit(f"graphprox not loaded from {ROOT / 'src'}")
    import scipy.sparse.csgraph  # noqa: F401  (the solvers' max-flow and BFS)
    return [(inst, workloads.build(name, inst)) for inst in insts], gen_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    name = args.workload

    cases, gen_s = set_up(name, args.seed)
    print(json.dumps({"gen_s": gen_s}), flush=True)
    if args.setup_only:
        return 0

    probe_start = host_probe_ms()
    t = time.perf_counter()
    workloads.solve(name, *cases[0])
    warmup_s = time.perf_counter() - t

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    times = {False: [], True: []}   # traced? -> solve seconds
    per_solve = []
    reasons = []
    stale = 0       # StaleFlow raised in traced solves, failed ones included
    attempted = 0
    elapsed = 0.0
    while attempted < MIN_SOLVES or elapsed + statistics.median(
            times[False] + times[True]) <= args.seconds:
        # a traced solve follows an untraced one of the same instance
        traced = tracer is not None and attempted % 2 == 1
        inst, obj = cases[(attempted // 2 if tracer else attempted) % INSTANCES]
        out, reason = None, None
        if traced:
            tracer.install()
        t = time.perf_counter()
        try:
            if traced:
                with tracer.span("solve") as root:
                    out = workloads.solve(name, inst, obj, tracer.span)
            else:
                out = workloads.solve(name, inst, obj)
        except Exception as exc:  # a failed solve is counted, not fatal
            reason = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if traced:
            # the check below calls into graphprox too; it must not be traced
            tracer.uninstall()
            stale += tracing.stale_flows(tracer, root)
        if reason is None:
            try:
                reason = workloads.check(name, inst, obj, out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        attempted += 1
        elapsed += dt
        times[traced].append(dt)
        if reason is not None:
            reasons.append(reason)
        elif traced:
            per_solve.append(tracing.solve_metrics(name, tracer, root, out))
        del out

    probe_end = host_probe_ms()
    print(f"{name} seed={args.seed} warmup={warmup_s:.3f}s "
          f"host.probe_ms start={probe_start:.3f} end={probe_end:.3f} "
          f"solves_s={json.dumps([round(x, 4) for x in times[False]])}",
          file=sys.stderr)
    for r in reasons[:5]:
        print(f"FAILED: {r}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "solve_s": statistics.median(times[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - len(reasons) / attempted,
        }
    else:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}-{args.seed}.json")
        metrics = {k: statistics.median(m[k] for m in per_solve)
                   for k in tracing.PER_LAYER} if per_solve else {}
        metrics.update({
            "maxflow.stale_flow": stale,
            "warmup_s": warmup_s,
            "host.probe_ms": 0.5 * (probe_start + probe_end),
            "trace.overhead": statistics.median(
                t / u for u, t in zip(times[False], times[True])),
        })
    print(json.dumps({"attempted": attempted, "failed": len(reasons),
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

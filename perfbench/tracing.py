"""Spans around the calls into each graphprox layer, recorded from outside.

The library source is not edited: ``Tracer.install`` replaces module
attributes at the places they are *used* (``_engine.max_flow``, not
``maxflow.max_flow``), because a name bound by ``from x import f`` is a
copy that patching ``x.f`` would miss.  Modules are reached through
``importlib.import_module``; ``graphprox.prox`` is the prox *function*, not
the module.  ``scipy.sparse.csgraph.maximum_flow`` is patched on its module
because the scipy backend imports it at call time.

Spans live in memory as ``[id, parent, name, t0, t1, attrs]`` and are
written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# boundaries each workload depends on: a traced solve that records no call
# at one of them measured nothing there, and the run fails
REQUIRED = {
    "tv256": ("prox.build", "engine.solve", "maxflow", "scipy.c", "min_cut",
              "check_flow"),
    "fista500": ("regression.prox", "prox.build", "engine.solve", "maxflow",
                 "min_cut", "check_flow"),
    "path10k": ("weighted.solve", "engine.solve", "maxflow", "scipy.c",
                "min_cut", "check_flow", "parametric.query"),
}

# every traced run reports all per-layer metrics, with 0 for a layer the
# workload does not run
PER_LAYER = [m["name"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]


class Tracer:
    """In-memory span recorder with attribute patches into graphprox."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.solutions = []  # engine outputs of the current solve

    def _open(self, name):
        rec = [len(self.spans), self._stack[-1][0] if self._stack else None,
               name, time.perf_counter(), None, {}]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _patch(self, module, attr, name, on_result=None):
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = orig(*args, **kwargs)
            except Exception as exc:
                rec[5]["error"] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(rec[5], args, out)
            return out

        self._patches.append((module, attr, orig))
        setattr(module, attr, traced)

    def install(self):
        self.solutions.clear()
        mod = importlib.import_module
        engine = mod("graphprox._engine")
        prox = mod("graphprox.prox")

        def on_flow(attrs, args, state):
            net = args[0]
            attrs["backend"] = "scipy" if state.eff_source is not None else "pr"
            attrs["nodes"] = net.n
            attrs["arcs"] = len(net.arc_u)

        def on_cut(attrs, args, cut):
            n = args[0].n
            attrs["split"] = any(0 < len(s) < n for s in cut)

        def on_build(attrs, args, build):
            attrs["qbm_nodes"] = build.qbm.n

        def on_engine(attrs, args, sol):
            attrs["nodes"] = sol.problem.n
            self.solutions.append(sol)

        self._patch(engine, "max_flow", "maxflow", on_flow)
        self._patch(engine, "min_cut", "min_cut", on_cut)
        self._patch(mod("graphprox.maxflow"), "check_flow", "check_flow")
        self._patch(mod("scipy.sparse.csgraph"), "maximum_flow", "scipy.c")
        self._patch(prox, "build_prox_qbm", "prox.build", on_build)
        self._patch(prox, "solve_parametric", "engine.solve", on_engine)
        self._patch(mod("graphprox.weighted"), "solve_parametric",
                    "engine.solve", on_engine)
        self._patch(mod("graphprox.regression"), "prox", "regression.prox")

    def uninstall(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "t0", "t1", "attrs"],
                       "spans": self.spans}, fh)


def _alpha_residual(sol) -> float:
    """max |r(alpha) - levels| over non-anchor nodes."""
    from graphprox import reductions

    inner = sol.interior()
    r = reductions(sol.problem, sol.alpha).r
    return float(np.abs(r - sol.levels)[inner].max(initial=0.0))


def stale_flows(tracer: Tracer, root) -> int:
    """``min_cut`` calls that raised StaleFlow in the traced solve whose
    root span is ``root``.  The engine does not catch StaleFlow, so such a
    solve fails; the count is taken for failed solves too."""
    return sum(1 for s in tracer.spans[root[0] + 1:]
               if s[2] == "min_cut" and s[5].get("error") == "StaleFlow")


def solve_metrics(name: str, tracer: Tracer, root, out) -> dict:
    """Per-layer figures of one traced solve whose root span is ``root``
    (``maxflow.stale_flow`` is left 0 here: see ``stale_flows``)."""
    spans = tracer.spans[root[0] + 1:]
    by = {}
    for s in spans:
        by.setdefault(s[2], []).append(s)

    def total(key, pred=None):
        return sum(s[4] - s[3] for s in by.get(key, ()) if pred is None or pred(s[5]))

    def count(key, pred=None):
        return sum(1 for s in by.get(key, ()) if pred is None or pred(s[5]))

    def attr_sum(key, field, pred=None):
        return sum(s[5][field] for s in by.get(key, ())
                   if field in s[5] and (pred is None or pred(s[5])))

    missing = [k for k in REQUIRED[name] if not by.get(k)]
    if missing:
        raise RuntimeError(f"traced {name} solve recorded no call at {missing}")

    wall = root[4] - root[3]
    m = dict.fromkeys(PER_LAYER, 0.0)
    children = [s for s in spans if s[1] == root[0]]
    m["trace.coverage"] = sum(s[4] - s[3] for s in children) / wall

    builds = by.get("prox.build", [])
    if builds:
        m["prox.build_s"] = total("prox.build")
        m["prox.qbm_nodes"] = builds[-1][5]["qbm_nodes"]

    flow_s, cut_s = total("maxflow"), total("min_cut")
    calls = count("maxflow")
    engine_nodes = attr_sum("engine.solve", "nodes")
    m["engine.solve_s"] = total("engine.solve")
    m["engine.self_s"] = m["engine.solve_s"] - flow_s - cut_s
    m["engine.flow_calls"] = calls
    m["engine.block_nodes"] = attr_sum("maxflow", "nodes")
    m["engine.block_nodes_per_node"] = m["engine.block_nodes"] / max(1, engine_nodes)
    m["engine.split_frac"] = count("min_cut", lambda a: a.get("split")) / max(1, calls)
    last = tracer.solutions[-1]
    m["engine.levels"] = len(np.unique(last.levels[last.interior()]))
    m["engine.alpha_residual"] = max(_alpha_residual(s) for s in tracer.solutions)

    for tag in ("pr", "scipy"):
        def is_tag(a, tag=tag):
            return a.get("backend") == tag
        m[f"maxflow.{tag}.calls"] = count("maxflow", is_tag)
        m[f"maxflow.{tag}.s"] = total("maxflow", is_tag)
        m[f"maxflow.{tag}.nodes"] = attr_sum("maxflow", "nodes", is_tag)
        m[f"maxflow.{tag}.arcs"] = attr_sum("maxflow", "arcs", is_tag)
    m["maxflow.scipy.c_s"] = total("scipy.c")
    m["maxflow.scipy.wrap_s"] = m["maxflow.scipy.s"] - m["maxflow.scipy.c_s"]
    m["maxflow.min_cut_s"] = cut_s
    m["maxflow.check_flow_s"] = total("check_flow")

    if name == "fista500":
        result = out[0]
        tr = np.asarray(result.trace)
        prox_spans = by["regression.prox"]
        m["regression.iters"] = result.iterations
        m["regression.restarts"] = int(np.sum(tr[1:] > np.minimum.accumulate(tr)[:-1]))
        m["regression.prox_s"] = total("regression.prox")
        m["regression.prox_ms"] = 1e3 * statistics.median(s[4] - s[3] for s in prox_spans)
        m["regression.self_s"] = wall - m["regression.prox_s"]
    if name == "path10k":
        m["weighted.solve_s"] = total("weighted.solve")
        m["parametric.query_s"] = total("parametric.query")
        m["parametric.breakpoints"] = len(out[1])
    tracer.solutions.clear()
    return m

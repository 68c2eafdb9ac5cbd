"""The benchmark's workloads: instance generation, set-up, solve, check.

Each workload is a closed loop with one client: one process solves a fixed
instance again and again.  The instance is made from the seed by
``generate`` (the benchmark's own work, not timed as set-up), turned into
library objects by ``build`` (timed as set-up), solved by ``solve`` (timed)
and verified by ``check`` (untimed) with the outside checkers in
``checks.py``.

Why each workload is here:

* ``tv256``: the criterion-10 256x256 denoise, the headline image case.
  Few large blocks, so time goes to scipy's ``maximum_flow`` and the QBM
  build; no graph is solved twice.
* ``fista500``: a chain-fused FISTA fit.  Every prox splits into ~500 tiny
  blocks, so push-relabel, ``min_cut`` and engine self-time dominate, and
  the same graph is solved 20 times with only the centre changing.
* ``path10k``: a weighted beta-family on a random sparse QBM, the paper's
  core object, read through ``breakpoints`` and ``u1``/``u2``; it bypasses
  the prox encoding entirely.
"""

from __future__ import annotations

import importlib
import json
from contextlib import nullcontext
from pathlib import Path

import numpy as np

META = json.loads((Path(__file__).resolve().parent / "meta.json").read_text())
NAMES = tuple(META["workloads"])
PARAMS = META["workloads"]


# ---------------------------------------------------------------------------
# instance generation (plain numpy arrays; no graphprox)
# ---------------------------------------------------------------------------

def _random_pairs(rng, n, m):
    """About m distinct unordered pairs (u < v) of a random sparse graph."""
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    keep = u != v
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    key = np.unique(lo * n + hi)
    return key // n, key % n


def _tv256(rng):
    p = PARAMS["tv256"]
    H, W = p["height"], p["width"]
    img = np.zeros((H, W))
    img[:, W // 3:] = 0.5
    img[H // 2:, 2 * W // 3:] = 0.9
    img[: H // 4, : W // 5] = 0.25
    noisy = np.clip(img + rng.normal(0, p["noise_sd"], (H, W)), 0, 1)
    idx = np.arange(H * W).reshape(H, W)
    eu = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    ev = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return {"a": noisy.ravel(), "eu": eu, "ev": ev, "ew": np.ones(len(eu)),
            "lam": p["lam"]}


def _fista500(rng):
    p = PARAMS["fista500"]
    n = p["n"]
    cuts = np.sort(rng.choice(np.arange(1, n), p["segments"] - 1, replace=False))
    truth = np.repeat(rng.normal(0, 2, p["segments"]),
                      np.diff(np.concatenate([[0], cuts, [n]])))
    A = rng.normal(0, 1, (p["rows"], n))
    y = A @ truth + rng.normal(0, p["noise_sd"], p["rows"])
    eu = np.arange(n - 1)
    return {"A": A, "y": y, "eu": eu, "ev": eu + 1, "ew": np.ones(n - 1),
            "lam": p["lam"], "max_iter": p["max_iter"]}


def _path10k(rng):
    p = PARAMS["path10k"]
    n = p["n"]
    eu, ev = _random_pairs(rng, n, p["edges"])
    q = -np.abs(rng.normal(0, 1, len(eu)))
    return {"diag": rng.normal(0, p["diag_sd"], n), "eu": eu, "ev": ev,
            "q": q, "w": rng.uniform(*p["weights"], n),
            "betas": np.sort(rng.uniform(-4.0, 4.0, p["betas"])),
            "check_rng": rng.integers(0, 2 ** 32)}


_GENERATORS = {"tv256": _tv256, "fista500": _fista500, "path10k": _path10k}


def generate(name: str, seed: int, k: int = 0) -> dict:
    """Input arrays of instance k; the same seed gives the same arrays."""
    return _GENERATORS[name](np.random.default_rng([seed, NAMES.index(name), k]))


# ---------------------------------------------------------------------------
# set-up: library objects from the arrays (timed as setup_s)
# ---------------------------------------------------------------------------

def build(name: str, inst: dict):
    """The library object the solves run on."""
    import graphprox as gp

    if name == "tv256":
        return gp.ProxProblem(inst["a"], inst["eu"], inst["ev"], inst["ew"],
                              inst["lam"])
    if name == "fista500":
        return gp.RegressionProblem(inst["A"], inst["y"], inst["eu"],
                                    inst["ev"], inst["ew"], inst["lam"])
    return gp.QuadraticBinaryProblem.from_parts(
        inst["diag"], zip(inst["eu"], inst["ev"], inst["q"]))


# ---------------------------------------------------------------------------
# one solve (timed) and its check (untimed)
# ---------------------------------------------------------------------------

def _fista_with_proxes(problem, max_iter: int):
    """``fista_fit(problem, tol=0, max_iter=max_iter)`` and the
    ``(ProxProblem, output)`` of every prox it called, kept for the check.
    The prox is wrapped where the FISTA loop looks it up."""
    import graphprox as gp

    reg = importlib.import_module("graphprox.regression")
    inner = reg.prox
    proxes = []

    def prox(p, *args, **kwargs):
        u = inner(p, *args, **kwargs)
        proxes.append((p, u))
        return u

    reg.prox = prox
    try:
        return gp.fista_fit(problem, tol=0.0, max_iter=max_iter), proxes
    finally:
        reg.prox = inner


def solve(name: str, inst: dict, obj, span=lambda name: nullcontext()):
    """One solve as a user would call it.  ``span(layer)`` marks the
    ``path10k`` calls into the weighted and parametric layers, which the
    benchmark makes itself, for the traced run."""
    import graphprox as gp

    if name == "tv256":
        return gp.prox(obj)
    if name == "fista500":
        return _fista_with_proxes(obj, inst["max_iter"])
    with span("weighted.solve"):
        sol = gp.solve_weighted(obj, inst["w"])
    with span("parametric.query"):
        bps = sol.breakpoints()
        sets = [(sol.u1(b), sol.u2(b)) for b in inst["betas"]]
    return sol, bps, sets


def check(name: str, inst: dict, obj, out) -> str | None:
    """None when the output is correct, else a one-line reason."""
    import checks

    if name == "tv256":
        return checks.check_prox(obj, out)
    if name == "fista500":
        result, proxes = out
        for k, (p, u) in enumerate(proxes):
            reason = checks.check_prox(p, u)
            if reason is not None:
                return f"prox call {k}: {reason}"
        return checks.check_fista(obj, result, inst["max_iter"])
    sol, bps, sets = out
    return checks.check_path(obj, inst["w"], sol, bps, sets,
                             PARAMS["path10k"]["checked_betas"],
                             np.random.default_rng(inst["check_rng"]))

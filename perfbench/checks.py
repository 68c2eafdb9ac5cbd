"""Output checks made from outside the solver, each in O(m).

The solver's own ``check_optimality`` (``r(alpha) == levels``) is not used
as a gate: on large scipy-backed blocks ``alpha`` can be inexact while the
levels are exact, and the levels are what users read.  The traced run
reports that gap as ``engine.alpha_residual`` instead.

Each checker returns None for a correct output and a one-line reason
otherwise.
"""

from __future__ import annotations

import numpy as np

FUSE_TOL = 1e-9   # |u_i - u_j| <= FUSE_TOL * max(1, |u|_inf) counts as fused
KKT_RTOL = 1e-7   # region sums must vanish relative to their magnitude
OBJ_RTOL = 1e-12  # relative tolerance when comparing recomputed objectives


def _penalty_interval(pen, x, tol):
    """Subdifferential [lo, hi] of a convex piecewise-linear penalty at x."""
    b, th = pen.breakpoints, pen.slopes
    k = int(np.searchsorted(b, x))
    for j in (k - 1, k):
        if 0 <= j < len(b) and abs(x - b[j]) <= tol * max(1.0, abs(x)):
            return th[j], th[j + 1]
    return th[k], th[k]


def check_prox(problem, u) -> str | None:
    """The fused-region KKT check of a prox output.

    For the prox objective ||u - a||^2 + lam*[sum xi_i(u_i) +
    sum w_ij |u_i - u_j|], every connected region R of equal u must satisfy
    0 in sum_{i in R} [2(u_i - a_i) + lam*d xi_i(u_i)]
         + lam * sum_{boundary ij} w_ij * sign(u_i - u_j),
    because the subgradients of edges inside R cancel in the sum.  The
    violation is the distance of 0 from that interval divided by the
    region's total term magnitude (at least 1); it must not exceed
    ``KKT_RTOL``.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    u = np.asarray(u, dtype=np.float64)
    n, lam = problem.n, problem.lam
    if u.shape != (n,) or not np.all(np.isfinite(u)):
        return f"prox output of shape {u.shape} is not {n} finite values"
    tol = FUSE_TOL * max(1.0, float(np.abs(u).max(initial=0.0)))
    eu, ev = problem.edge_u, problem.edge_v
    w = lam * problem.edge_w
    d = u[eu] - u[ev]
    fused = (np.abs(d) <= tol) & (w > 0)
    graph = coo_matrix((np.ones(int(fused.sum())), (eu[fused], ev[fused])),
                       shape=(n, n))
    _, region = connected_components(graph, directed=False)

    s = np.where(fused, 0.0, np.sign(d) * w)
    lo = 2.0 * (u - problem.a)
    mag = np.abs(lo)
    np.add.at(lo, eu, s)
    np.add.at(lo, ev, -s)
    hi = lo.copy()
    np.add.at(mag, eu, np.abs(s))
    np.add.at(mag, ev, np.abs(s))
    for i, pen in problem.penalties.items():
        p_lo, p_hi = _penalty_interval(pen, u[i], FUSE_TOL)
        lo[i] += lam * p_lo
        hi[i] += lam * p_hi
        mag[i] += lam * max(abs(p_lo), abs(p_hi))

    L = np.bincount(region, lo)
    H = np.bincount(region, hi)
    M = np.maximum(1.0, np.bincount(region, mag))
    viol = float((np.maximum(np.maximum(L, -H), 0.0) / M).max(initial=0.0))
    if not viol <= KKT_RTOL:
        return f"prox KKT violation {viol:.3g} > {KKT_RTOL:g}"
    return None


def check_fista(problem, result, max_iter: int) -> str | None:
    """Check a FitResult of ``fista_fit(problem, tol=0, max_iter=max_iter)``.

    * the trace has one finite objective per iteration plus the start at
      u = 0, and ``objective(result.u)`` equals ``min(trace)``;
    * the best-objective trace never increases: a step taken from the best
      iterate (the first step, and the step after each restart) is a plain
      proximal-gradient step with 1/L below the gradient's inverse
      Lipschitz constant, so its objective cannot exceed the best so far.
      Two increases in a row, or an increase on the first step, fail.
    """
    from graphprox import objective

    tr = np.asarray(result.trace, dtype=np.float64)
    if not (1 <= result.iterations <= max_iter
            and len(tr) == result.iterations + 1 and np.all(np.isfinite(tr))):
        return f"trace of length {len(tr)} for {result.iterations} iterations"

    def close(x, y):
        return abs(x - y) <= OBJ_RTOL * max(1.0, abs(y))

    if not close(tr[0], objective(problem, np.zeros(problem.n))):
        return "trace does not start at objective(0)"
    best = np.minimum.accumulate(tr)
    rejected = tr[1:] > best[:-1] * (1.0 + OBJ_RTOL)
    from_best = np.concatenate([[True], rejected[:-1]])
    if np.any(rejected & from_best):
        k = int(np.nonzero(rejected & from_best)[0][0]) + 1
        return f"objective rose at iteration {k}, a step from the best iterate"
    got = objective(problem, result.u)
    if not close(got, float(tr.min())):
        return f"objective(u) = {got!r} but min(trace) = {tr.min()!r}"
    return None


def check_path(problem, weights, sol, bps, sets, k: int, rng) -> str | None:
    """Check a weighted parametric solution against direct minimum cuts.

    At k seeded beta taken midway between consecutive breakpoints, ``u1``
    and ``u2`` must equal the smallest and largest sink-side minimum cuts
    of ``to_cut_graph(problem, beta, weights)``, unless the solver's set
    has the strictly lower objective f(S) - beta * w(S): the reference cut
    runs on the quantized integer backend, which can miss the float
    optimum when breakpoints lie closer than its quantum.  The level sets
    read in the timed solve at sorted ``betas`` must be nested.
    """
    from graphprox import evaluate, max_flow, min_cut, to_cut_graph

    bps = np.asarray(bps, dtype=np.float64)
    if len(bps) < 2 or np.any(np.diff(bps) <= 0) or not np.all(np.isfinite(bps)):
        return f"breakpoints not sorted, distinct and finite (got {len(bps)})"
    for (u1, u2), (v1, _) in zip(sets, sets[1:]):
        if not (u1 <= u2 <= v1):
            return "level sets are not nested in beta"
    for j in rng.choice(len(bps) - 1, size=min(k, len(bps) - 1), replace=False):
        beta = 0.5 * (bps[j] + bps[j + 1])
        cut = to_cut_graph(problem, beta, weights)
        for got, ref in zip((sol.u1(beta), sol.u2(beta)), min_cut(cut, max_flow(cut))):
            if got == ref:
                continue
            e_got = evaluate(problem, got, beta, weights)
            e_ref = evaluate(problem, ref, beta, weights)
            if not e_got < e_ref - OBJ_RTOL * max(1.0, abs(e_ref)):
                return f"level sets at beta={beta!r} differ from the minimum cuts"
    return None

"""Independent reference implementations for validating the solvers.

Everything here is deliberately built on different machinery than the
main path: exhaustive enumeration for cut problems, accelerated projected
gradient over the capacity box for minimum-norm points, and smoothed
cyclic coordinate minimization for the prox objective.  They are slow and
exact; the test suite compares them against the flow-based solvers.

Positive integer weights admit an independent check of the weighted
solver (``augment_integer_weights``): augment the problem with w_i - 1
auxiliary copies of node i, hard-tied to it, and solve the unweighted
problem; restricted to the original nodes the level sets coincide, and
the augmented minimum-norm values are y_i = z_i / w_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooLarge, WeightNotPositiveInteger
from .parametric import ReductionVector
from .prox import ProxProblem
from .qbm import QuadraticBinaryProblem

ENUM_GUARD = 20


@dataclass
class MinimizerPair:
    """Extreme optimal sets and the common optimal value."""

    s_min: set
    s_max: set
    value: float


def _membership_table(n: int) -> np.ndarray:
    masks = np.arange(1 << n, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(bool)


def brute_force_values(problem: QuadraticBinaryProblem, weights=None):
    """f(S) and w(S) for every subset, vectorized over bitmasks."""
    n = problem.n
    if n > ENUM_GUARD:
        raise TooLarge(f"n = {n} exceeds enumeration guard {ENUM_GUARD}")
    if weights is None:
        weights = np.ones(n)
    w = np.asarray(weights, dtype=np.float64)
    memb = _membership_table(n)
    f0 = memb @ problem.diag
    ties = problem.ties
    for k in range(problem.n_edges):
        i, j = problem.edge_u[k], problem.edge_v[k]
        both = memb[:, i] & memb[:, j]
        if ties[k]:
            split = memb[:, i] != memb[:, j]
            f0 = np.where(split, np.inf, f0)
        else:
            f0 = f0 + both * problem.edge_q[k]
    return f0, memb @ w, memb


def brute_force_minimizers(problem: QuadraticBinaryProblem, beta: float = 0.0,
                           weights=None, tol: float = 0.0) -> MinimizerPair:
    """Exact smallest/largest minimizers of f(S) - beta*w(S) by enumeration.

    The optimal family of a submodular function is a lattice, so the
    smallest and largest optimal sets are the intersection and union of
    all optimal sets.  Ties are exact float ties by default.
    """
    f0, wS, memb = brute_force_values(problem, weights)
    vals = f0 - beta * wS
    best = vals.min()
    opt = vals <= best + tol * max(1.0, abs(best))
    rows = memb[opt]
    s_min = set(int(i) for i in np.nonzero(rows.all(axis=0))[0])
    s_max = set(int(i) for i in np.nonzero(rows.any(axis=0))[0])
    return MinimizerPair(s_min, s_max, float(best))


def augment_integer_weights(problem: QuadraticBinaryProblem, int_weights):
    """Encode integer node weights by hard-tied auxiliary nodes.

    Returns (augmented problem, index map).  index_map[i] lists the nodes
    of the augmented problem representing original node i: itself first,
    then its w_i - 1 tied copies.  Minimizers of the *unweighted*
    beta-problem on the augmentation, restricted to the original nodes,
    equal minimizers of the weighted problem.

    Raises
    ------
    WeightNotPositiveInteger
        If any weight is not a positive integer.
    """
    w = np.asarray(int_weights)
    if w.shape != (problem.n,):
        raise DimensionMismatch(f"weights must have length {problem.n}")
    if not np.all(np.equal(np.mod(w, 1), 0)) or np.any(w < 1):
        raise WeightNotPositiveInteger(f"got {w!r}")
    w = w.astype(np.int64)

    n = problem.n
    copies = np.repeat(np.arange(n), w - 1)
    aux = n + np.arange(len(copies))
    diag = np.concatenate([problem.diag, np.zeros(len(aux))])
    groups = np.split(aux, np.cumsum(w - 1)[:-1])
    index_map = {i: [i, *g.tolist()] for i, g in zip(range(n), groups)}
    return QuadraticBinaryProblem(
        len(diag), diag, np.concatenate([problem.edge_u, copies]),
        np.concatenate([problem.edge_v, aux]),
        np.concatenate([problem.edge_q, np.full(len(aux), -np.inf)]),
        problem.offset), index_map


def min_norm_reference(problem: QuadraticBinaryProblem,
                       weights=None) -> ReductionVector:
    """Weighted minimum-norm point by accelerated projected gradient.

    Minimizes sum_i r_i(alpha)^2 / w_i over the box |alpha_e| <= |q_e|
    (projection is a clip).  Requires strictly positive weights.  Stops
    when the projected-gradient residual falls below 1e-11 * scale.
    """
    if weights is None:
        weights = np.ones(problem.n)
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w <= 0):
        raise ValueError("min_norm_reference requires strictly positive weights")

    eu, ev = problem.edge_u, problem.edge_v
    ties = problem.ties
    static = np.where(ties, 0.0, problem.edge_q)
    cap = np.where(ties, np.inf, -problem.edge_q)
    r0 = problem.diag.copy()
    np.add.at(r0, eu, 0.5 * static)
    np.add.at(r0, ev, 0.5 * static)

    m = problem.n_edges
    if m == 0:
        return ReductionVector(r0)

    def r_of(alpha):
        r = r0.copy()
        np.add.at(r, eu, -0.5 * alpha)
        np.add.at(r, ev, 0.5 * alpha)
        return r

    def grad(r):
        g = r / w
        return g[ev] - g[eu]

    deg = np.zeros(problem.n)
    np.add.at(deg, eu, 1.0)
    np.add.at(deg, ev, 1.0)
    lip = 0.5 * float(np.max(deg[eu] / w[eu] + deg[ev] / w[ev]))
    step = 1.0 / max(lip, 1e-12)
    scale = max(1.0, float(np.abs(r0).max()))

    alpha = np.zeros(m)
    y = alpha.copy()
    t = 1.0
    obj_prev = np.inf
    for it in range(500_000):
        g = grad(r_of(y))
        alpha_new = np.clip(y - step * g, -cap, cap)
        r = r_of(alpha_new)
        obj = float(np.sum(r * r / w))
        if obj > obj_prev:  # restart momentum on increase
            y = alpha.copy()
            t = 1.0
            obj_prev = np.inf
            continue
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = alpha_new + ((t - 1.0) / t_new) * (alpha_new - alpha)
        alpha, t, obj_prev = alpha_new, t_new, obj
        if it % 8 == 0:
            resid = np.abs(np.clip(alpha - grad(r_of(alpha)), -cap, cap) - alpha)
            if float(resid.max(initial=0.0)) <= 1e-11 * scale:
                break
    return ReductionVector(r_of(alpha))


def prox_reference(problem: ProxProblem) -> np.ndarray:
    """Reference prox solver via the box-constrained dual.

    Fenchel duality turns every absolute term lambda*w|u_i - u_j| and
    lambda*kappa|u_i - b| into a bounded dual variable; the dual is a
    quadratic over a box, solved here by accelerated projected gradient
    with restarts (no flows, no recursion).  The primal is recovered as
    u = a' - (1/2) D^T zeta and iteration stops once the subgradient
    certificate of u clears 1e-8, or after about 600,000 steps in all.
    """
    from .prox import certificate, pwl_decompose

    a_eff = problem.a.astype(np.float64).copy()
    n = problem.n
    lam = problem.lam

    rows_i: list[int] = []
    rows_j: list[int] = []   # -1 for anchor rows
    bound: list[float] = []
    offset: list[float] = []  # b_k for anchor rows, 0 for edges
    if lam > 0:
        for k in range(len(problem.edge_u)):
            wk = lam * float(problem.edge_w[k])
            if wk > 0:
                rows_i.append(int(problem.edge_u[k]))
                rows_j.append(int(problem.edge_v[k]))
                bound.append(wk)
                offset.append(0.0)
        for i, pen in sorted(problem.penalties.items()):
            c, anchors, _ = pwl_decompose(pen)
            a_eff[int(i)] -= 0.5 * lam * c
            for b, kappa in anchors:
                rows_i.append(int(i))
                rows_j.append(-1)
                bound.append(lam * kappa)
                offset.append(float(b))
    if not rows_i:
        return a_eff

    ri = np.array(rows_i, dtype=np.int64)
    rj = np.array(rows_j, dtype=np.int64)
    bnd = np.array(bound)
    off = np.array(offset)
    has_j = rj >= 0
    rj_safe = np.where(has_j, rj, 0)

    m = len(ri)
    sgn_j = np.where(has_j, 0.5, 0.0)

    def primal(zeta):
        u = a_eff + np.bincount(ri, weights=-0.5 * zeta, minlength=n) \
            + np.bincount(rj_safe, weights=sgn_j * zeta, minlength=n)
        return u

    def grad(zeta):
        u = primal(zeta)
        return np.where(has_j, -(u[ri] - u[rj_safe]), -(u[ri] - off))

    deg = np.bincount(ri, minlength=n).astype(np.float64)
    deg += np.bincount(rj_safe, weights=np.where(has_j, 1.0, 0.0), minlength=n)
    lip = 0.5 * float(np.max(deg[ri] + np.where(has_j, deg[rj_safe], 0.0)))
    step = 1.0 / max(lip, 1e-12)
    scale = max(1.0, float(np.abs(a_eff).max()))

    # bulk phase: accelerated projected gradient on the dual box QP
    zeta = np.zeros(m)
    y = zeta.copy()
    t = 1.0
    bulk = 4000
    for it in range(bulk):
        z_new = np.clip(y - step * grad(y), -bnd, bnd)
        if (z_new - zeta) @ (y - z_new) > 0:  # gradient-scheme restart
            y = zeta.copy()
            t = 1.0
            continue
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = z_new + ((t - 1.0) / t_new) * (z_new - zeta)
        zeta, t = z_new, t_new

    # tail phase: cyclic exact coordinate minimization of the dual; each
    # coordinate update is closed form with the box clip
    u = primal(zeta)
    zl = zeta.tolist()
    ul = u.tolist()
    il = ri.tolist()
    jl = rj.tolist()
    bl = bnd.tolist()
    ol = off.tolist()
    sweeps = max(200, (600_000 - bulk) // m)
    for sweep in range(sweeps):
        delta = 0.0
        for e in range(m):
            z_old = zl[e]
            i = il[e]
            j = jl[e]
            if j >= 0:
                z = z_old + (ul[i] - ul[j])
            else:
                z = z_old + 2.0 * (ul[i] - ol[e])
            b = bl[e]
            if z > b:
                z = b
            elif z < -b:
                z = -b
            d = z - z_old
            if d != 0.0:
                zl[e] = z
                ul[i] -= 0.5 * d
                if j >= 0:
                    ul[j] += 0.5 * d
                ad = abs(d)
                if ad > delta:
                    delta = ad
        if delta <= 1e-11 * scale:
            # near-fixed point; box constraints are separable, so a
            # coordinate fixed point of the dual is globally optimal
            u = np.array(ul)
            if certificate(problem, u) <= 1e-8 or delta <= 1e-14 * scale:
                return u
    return np.array(ul)

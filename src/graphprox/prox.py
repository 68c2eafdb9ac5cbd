"""Exact proximal operator for graph-fused regularizers.

Solves  min_u ||u - a||^2 + lambda * [ sum_i xi_i(u_i)
                                       + sum_{ij} w_ij |u_i - u_j| ]
with convex piecewise-linear unary penalties xi_i, by building the
equivalent quadratic binary family and reading the solution off the
minimum-norm reduction vector: the binary problem at threshold beta has
unary energy (a_i - beta) x_i and Potts couplings of strength
lambda * w_ij / 2, and u* equals r(alpha*).

Each xi_i decomposes exactly into a linear part plus nonnegative-weight
absolute anchors, xi(u) = const + c*u + sum_k kappa_k |u - b_k|; every
anchor becomes an auxiliary node pinned at value b_k (infinite-weight
anchoring) coupled to node i with strength lambda * kappa_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._engine import ParametricSolution, solve_parametric
from .errors import DimensionMismatch, NonConvexPenalty
from .qbm import QuadraticBinaryProblem, _canonical_edges, _edge_arrays

FUSE_TOL = 1e-9


@dataclass
class PiecewiseLinearPenalty:
    """Convex piecewise-linear function given by breakpoints and slopes.

    breakpoints b_1 < ... < b_{m-1} split the line into m segments with
    nondecreasing slopes theta_1 <= ... <= theta_m.  The value is
    normalized to 0 at the first breakpoint (at 0 if there are none).
    """

    breakpoints: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        self.breakpoints = np.atleast_1d(np.asarray(self.breakpoints,
                                                    dtype=np.float64))
        self.slopes = np.atleast_1d(np.asarray(self.slopes, dtype=np.float64))
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise NonConvexPenalty(
                f"need {len(self.breakpoints) + 1} slopes for "
                f"{len(self.breakpoints)} breakpoints, got {len(self.slopes)}")
        if np.isnan(self.breakpoints).any() or np.isnan(self.slopes).any():
            raise NonConvexPenalty("breakpoints and slopes must not be NaN")
        if len(self.breakpoints) and np.any(np.diff(self.breakpoints) <= 0):
            raise NonConvexPenalty("breakpoints must be strictly increasing")
        if np.any(np.diff(self.slopes) < 0):
            raise NonConvexPenalty("slopes must be nondecreasing")

    @classmethod
    def abs_value(cls) -> "PiecewiseLinearPenalty":
        """xi(u) = |u|."""
        return cls(np.array([0.0]), np.array([-1.0, 1.0]))

    def value(self, u: float) -> float:
        b, th = self.breakpoints, self.slopes
        if len(b) == 0:
            return float(th[0] * u)
        if u <= b[0]:
            return float(th[0] * (u - b[0]))
        val = 0.0
        x = b[0]
        for k in range(1, len(b)):
            if u <= b[k]:
                return float(val + th[k] * (u - x))
            val += th[k] * (b[k] - x)
            x = b[k]
        return float(val + th[-1] * (u - x))

    def subgradient(self, u: float, tol: float = FUSE_TOL) -> tuple[float, float]:
        """Interval [lo, hi] of subgradients at u."""
        b, th = self.breakpoints, self.slopes
        t = tol * max(1.0, abs(u))
        for k, bk in enumerate(b):
            if abs(u - bk) <= t:
                return float(th[k]), float(th[k + 1])
        seg = int(np.searchsorted(b, u))
        return float(th[seg]), float(th[seg])


def pwl_decompose(penalty: PiecewiseLinearPenalty):
    """Exact decomposition xi(u) = const + c*u + sum_k kappa_k |u - b_k|.

    Returns (c, anchors, const) with c = (theta_1 + theta_m) / 2 and
    anchors a list of (b_k, kappa_k), kappa_k = (theta_{k+1} - theta_k)/2
    >= 0; zero-weight anchors are omitted.  The constant makes the
    identity exact against ``penalty.value``.
    """
    th = penalty.slopes
    b = penalty.breakpoints
    c = 0.5 * float(th[0] + th[-1])
    anchors = []
    for k in range(len(b)):
        kappa = 0.5 * float(th[k + 1] - th[k])
        if kappa > 0:
            anchors.append((float(b[k]), kappa))
    ref = float(b[0]) if len(b) else 0.0
    approx = c * ref + sum(kappa * abs(ref - bk) for bk, kappa in anchors)
    const = penalty.value(ref) - approx
    return c, anchors, const


@dataclass
class ProxProblem:
    """Data of the graph-fused proximal problem.

    a is the prox center; edges carry nonnegative fusion weights w_ij;
    ``penalties`` maps node index -> PiecewiseLinearPenalty (sparse).  a,
    the weights and lam must be finite.
    """

    a: np.ndarray
    edge_u: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    edge_v: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    edge_w: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    lam: float = 1.0
    penalties: dict = field(default_factory=dict)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.edge_u = np.asarray(self.edge_u, dtype=np.int64)
        self.edge_v = np.asarray(self.edge_v, dtype=np.int64)
        self.edge_w = np.asarray(self.edge_w, dtype=np.float64)
        n = len(self.a)
        if not np.all(np.isfinite(self.a)):
            raise DimensionMismatch("prox center must be finite")
        if len(self.edge_u) and (self.edge_u.min() < 0 or
                                 max(self.edge_u.max(), self.edge_v.max()) >= n):
            raise DimensionMismatch("edge endpoint out of range")
        if np.any(self.edge_u == self.edge_v):
            raise DimensionMismatch("self-loops not allowed")
        # NaN fails both comparisons
        if not np.all((self.edge_w >= 0) & (self.edge_w < np.inf)):
            raise DimensionMismatch("edge weights must be finite and nonnegative")
        if not 0 <= self.lam < np.inf:
            raise DimensionMismatch("lambda must be finite and nonnegative")
        # normalize to u < v
        flip = self.edge_u > self.edge_v
        if np.any(flip):
            eu = np.where(flip, self.edge_v, self.edge_u)
            ev = np.where(flip, self.edge_u, self.edge_v)
            self.edge_u, self.edge_v = eu, ev

    @classmethod
    def from_edges(cls, a, edges, lam: float = 1.0, penalties=None) -> "ProxProblem":
        """edges: {(i, j): w} or iterable of (i, j, w).  Pairs given more
        than once, in either order, are stored once with their weights
        summed; every given weight must be nonnegative."""
        a = np.asarray(a, dtype=np.float64)
        u, v, w = _edge_arrays(edges)
        if np.any(w < 0):
            raise DimensionMismatch("edge weights must be nonnegative")
        return cls(a, *_canonical_edges(u, v, w, len(a)), lam,
                   dict(penalties or {}))

    @property
    def n(self) -> int:
        return len(self.a)

    def regularizer(self, u) -> float:
        """sum_i xi_i(u_i) + sum_ij w_ij |u_i - u_j| (no lambda factor)."""
        u = np.asarray(u, dtype=np.float64)
        val = float(np.sum(self.edge_w * np.abs(u[self.edge_u] - u[self.edge_v])))
        for i, pen in self.penalties.items():
            val += pen.value(float(u[i]))
        return val

    def objective(self, u) -> float:
        u = np.asarray(u, dtype=np.float64)
        return float(np.sum((u - self.a) ** 2)) + self.lam * self.regularizer(u)


@dataclass
class ProxBuild:
    """Binary-problem encoding of a ProxProblem."""

    qbm: QuadraticBinaryProblem
    weights: np.ndarray
    anchor_mask: np.ndarray
    anchor_values: np.ndarray
    bound: float          # all levels/breakpoints lie strictly inside (-M, M)
    linear_const: float   # dropped additive constant from the xi terms


def build_prox_qbm(problem: ProxProblem) -> ProxBuild:
    """Encode the prox problem as an anchored quadratic binary problem.

    Original nodes carry diagonal a_i adjusted by the linear penalty
    coefficients plus half the incident coupling weights; each penalty
    anchor (b, kappa) becomes an auxiliary node pinned at b with coupling
    -lambda * kappa.
    """
    n = problem.n
    lam = problem.lam
    diag = problem.a.astype(np.float64).copy()
    const = 0.0
    anchors = []  # (node, b, kappa)
    for i, pen in sorted(problem.penalties.items()):
        c, anc, cst = pwl_decompose(pen)
        diag[i] -= 0.5 * lam * c
        const += lam * cst
        anchors += [(i, b, kappa) for b, kappa in anc]
    host, anchor_b, kappa = np.array(anchors, dtype=np.float64).reshape(-1, 3).T
    host = host.astype(np.int64)
    total = n + len(host)

    fused = lam * problem.edge_w > 0
    eu, ev = problem.edge_u[fused], problem.edge_v[fused]
    ew = lam * problem.edge_w[fused]
    pinned = lam * kappa > 0
    host, pin, ak = host[pinned], n + np.flatnonzero(pinned), lam * kappa[pinned]
    # the diagonal first, then each coupling's halves in edge order: the
    # same sums, added in the same order, as folding in edge by edge
    full_diag = np.bincount(
        np.concatenate([np.arange(n), np.column_stack([eu, ev]).ravel(), host]),
        np.concatenate([diag, np.repeat(0.5 * ew, 2), 0.5 * ak]), total)
    qbm = QuadraticBinaryProblem(total, full_diag, *_canonical_edges(
        np.concatenate([eu, host]), np.concatenate([ev, pin]),
        np.concatenate([-ew, -ak]), total))

    anchor_mask = np.arange(total) >= n
    anchor_values = np.concatenate([np.zeros(n), anchor_b])
    bound = float(max(np.abs(problem.a).max(initial=0.0),
                      np.abs(anchor_b).max(initial=0.0))) + \
        float(np.abs(problem.a).sum()) + \
        lam * (float(problem.edge_w.sum()) + sum(kappa.tolist())) + 1.0
    return ProxBuild(qbm, np.ones(total), anchor_mask, anchor_values, bound, const)


def prox_solve(problem: ProxProblem) -> tuple[np.ndarray, ParametricSolution, ProxBuild]:
    """Solve and return (u*, parametric solution, build)."""
    build = build_prox_qbm(problem)
    sol = solve_parametric(build.qbm, weights=build.weights,
                           anchor_mask=build.anchor_mask,
                           anchor_values=build.anchor_values)
    return sol.levels[:problem.n].copy(), sol, build


def prox(problem: ProxProblem) -> np.ndarray:
    """The unique minimizer of the prox objective."""
    u, _, _ = prox_solve(problem)
    return u


def certificate(problem: ProxProblem, u, tol: float = FUSE_TOL) -> float:
    """Minimal subgradient residual ||2(u - a) + lambda * dPhi(u)||_inf.

    Subgradient selections are free on fused edges (|u_i - u_j| within
    tolerance) and inside penalty-breakpoint intervals; the minimum over
    the free box is an exact linear program.  A value near zero certifies
    optimality.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

    u = np.asarray(u, dtype=np.float64)
    n = problem.n
    lam = problem.lam
    scale = max(1.0, float(np.abs(u).max(initial=0.0)))
    fixed = 2.0 * (u - problem.a)

    wk = lam * problem.edge_w
    d = u[problem.edge_u] - u[problem.edge_v]
    split = (wk != 0) & (np.abs(d) > tol * scale)
    free = (wk != 0) & ~split
    g = wk[split] * np.sign(d[split])
    fixed += np.bincount(problem.edge_u[split], g, n) - \
        np.bincount(problem.edge_v[split], g, n)
    pen_rows, lows, highs = [], [], []
    for i, pen in problem.penalties.items():
        lo, hi = pen.subgradient(float(u[i]), tol)
        if lam * (hi - lo) <= 0:
            fixed[i] += lam * lo
        else:
            pen_rows.append(int(i))
            lows.append(lam * lo)
            highs.append(lam * hi)

    n_fused = int(free.sum())
    ncols = n_fused + len(pen_rows)
    if not ncols:
        return float(np.abs(fixed).max(initial=0.0))

    # variables: [free subgradients..., t]; minimize t subject to
    # |fixed_i + (B x)_i| <= t, i.e. B x - t <= -fixed and -B x - t <= fixed
    rows = np.concatenate([problem.edge_u[free], problem.edge_v[free],
                           np.array(pen_rows, dtype=np.int64)])
    cols = np.concatenate([np.arange(n_fused), np.arange(n_fused),
                           n_fused + np.arange(len(pen_rows))])
    vals = np.concatenate([np.ones(n_fused), -np.ones(n_fused),
                           np.ones(len(pen_rows))])
    A_ub = coo_array((np.concatenate([vals, -vals, -np.ones(2 * n)]),
                      (np.concatenate([rows, rows + n, np.arange(2 * n)]),
                       np.concatenate([cols, cols, np.full(2 * n, ncols)]))),
                     shape=(2 * n, ncols + 1)).tocsr()
    b_ub = np.concatenate([-fixed, fixed])
    cvec = np.zeros(ncols + 1)
    cvec[-1] = 1.0
    var_bounds = np.column_stack([
        np.concatenate([-wk[free], lows, [0.0]]),
        np.concatenate([wk[free], highs, [np.inf]])])
    res = linprog(cvec, A_ub=A_ub, b_ub=b_ub, bounds=var_bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"certificate LP failed: {res.message}")
    return float(res.x[-1])

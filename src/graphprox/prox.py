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

from dataclasses import dataclass, field, replace

import numpy as np

from ._engine import solve_parametric
from .errors import DimensionMismatch, NonConvexPenalty
from .maxflow import _checked_edges, _node_key
from .qbm import QuadraticBinaryProblem, _canonical_edges, _edge_arrays

FUSE_TOL = 1e-9


@dataclass
class PiecewiseLinearPenalty:
    """Convex piecewise-linear function given by breakpoints and slopes.

    breakpoints b_1 < ... < b_{m-1} split the line into m segments with
    nondecreasing slopes theta_1 <= ... <= theta_m, all finite and given
    as 1-D arrays.  The value is normalized to 0 at the first breakpoint
    (at 0 if there are none).
    """

    breakpoints: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        self.breakpoints = np.atleast_1d(np.asarray(self.breakpoints,
                                                    dtype=np.float64))
        self.slopes = np.atleast_1d(np.asarray(self.slopes, dtype=np.float64))
        if self.breakpoints.ndim != 1 or self.slopes.ndim != 1:
            raise NonConvexPenalty("breakpoints and slopes must be 1-D")
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise NonConvexPenalty(
                f"need {len(self.breakpoints) + 1} slopes for "
                f"{len(self.breakpoints)} breakpoints, got {len(self.slopes)}")
        if not (np.isfinite(self.breakpoints).all() and np.isfinite(self.slopes).all()):
            raise NonConvexPenalty("breakpoints and slopes must be finite")
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
        k = int(np.searchsorted(b, u))  # u in segment k: b[k-1] < u <= b[k]
        if k == 0:
            return float(th[0] * (u - b[0]))
        # the value at b[k-1]: each whole segment before it, added in order
        val = np.cumsum(th[1:-1] * np.diff(b))[k - 2] if k > 1 else 0.0
        return float(val + th[k] * (u - b[k - 1]))

    def subgradient(self, u: float) -> tuple[float, float]:
        """Interval [lo, hi] of subgradients at u; u within FUSE_TOL
        (relative) of a breakpoint counts as on it."""
        b, th = self.breakpoints, self.slopes
        t = FUSE_TOL * max(1.0, abs(u))
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


def regularizer(u, edge_u, edge_v, edge_w, penalties) -> float:
    """sum_i xi_i(u_i) + sum_ij w_ij |u_i - u_j| of the float array ``u``
    over checked edges and penalties (no lambda factor)."""
    val = float(np.sum(edge_w * np.abs(u[edge_u] - u[edge_v])))
    for i, pen in penalties.items():
        val += pen.value(float(u[i]))
    return val


def _checked_center(a) -> np.ndarray:
    """The prox center as a float array; raises DimensionMismatch unless it
    is 1-D and finite."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionMismatch("prox center must be 1-D")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch("prox center must be finite")
    return a


@dataclass
class ProxProblem:
    """Data of the graph-fused proximal problem.

    a is the prox center; edges carry nonnegative fusion weights w_ij;
    ``penalties`` maps node index -> PiecewiseLinearPenalty (sparse).  a
    must be 1-D and finite, the edge arrays as ``maxflow._checked_edges``
    requires, the weights and lam finite, and every penalty key a node
    (``maxflow._node_key``).  Edges come in any orientation, each weight is
    checked before repeated pairs are summed, and each pair is stored once
    with u < v, sorted, in copies of the caller's arrays.  ``recentred``
    copies of one problem share its checked parts and the part of
    ``build_prox_qbm``'s encoding that the centre does not change, which
    the problem keeps from its first ``recentred`` call on.
    """

    a: np.ndarray
    edge_u: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    edge_v: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    edge_w: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    lam: float = 1.0
    penalties: dict = field(default_factory=dict)
    # None, or a list that keeps build_prox_qbm's _Encoding for this problem
    # and its recentred copies, which share it
    _encoding: list | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        self.a = _checked_center(self.a)
        n = len(self.a)
        self.edge_u, self.edge_v, self.edge_w = _checked_edges(
            self.edge_u, self.edge_v, self.edge_w, n)
        if np.any(self.edge_u == self.edge_v):
            raise DimensionMismatch("self-loops not allowed")
        # NaN fails both comparisons
        ok = (self.edge_w >= 0) & (self.edge_w < np.inf)
        if not ok.all():
            k = int(np.argmin(ok))
            raise DimensionMismatch(
                "edge weights must be finite and nonnegative, got "
                f"{float(self.edge_w[k])!r} on edge ({self.edge_u[k]}, "
                f"{self.edge_v[k]})")
        if not 0 <= self.lam < np.inf:
            raise DimensionMismatch("lambda must be finite and nonnegative")
        self.penalties = {_node_key(i, n, "penalty key"): pen
                          for i, pen in dict(self.penalties or {}).items()}
        for i, pen in self.penalties.items():
            if not isinstance(pen, PiecewiseLinearPenalty):
                raise NonConvexPenalty(f"penalty of node {i} is a "
                                       f"{type(pen).__name__}, not a "
                                       "PiecewiseLinearPenalty")
        self.edge_u, self.edge_v, self.edge_w = _canonical_edges(
            self.edge_u, self.edge_v, self.edge_w, n)

    def recentred(self, a) -> "ProxProblem":
        """This problem centred at ``a``, which is checked (1-D, finite, n
        entries): the copy shares the checked edges, lam and penalties, and
        the encoding that this problem keeps from now on."""
        a = _checked_center(a)
        if len(a) != self.n:
            raise DimensionMismatch(f"prox center must have length {self.n}")
        if self._encoding is None:
            self._encoding = []
        out = object.__new__(ProxProblem)
        out.__dict__.update(self.__dict__, a=a)
        return out

    @classmethod
    def from_edges(cls, a, edges, lam: float = 1.0, penalties=None) -> "ProxProblem":
        """Build from edges {(i, j): w} or (i, j, w) triples, stored as the
        constructor stores them: each pair once with u < v, sorted, and the
        weights of repeated pairs summed."""
        return cls(a, *_edge_arrays(edges), lam, penalties)

    @property
    def n(self) -> int:
        return len(self.a)

    def objective(self, u) -> float:
        u = np.asarray(u, dtype=np.float64)
        return float(np.sum((u - self.a) ** 2)) + self.lam * regularizer(
            u, self.edge_u, self.edge_v, self.edge_w, self.penalties)


@dataclass
class ProxBuild:
    """Binary-problem encoding of a ProxProblem."""

    qbm: QuadraticBinaryProblem
    anchor_mask: np.ndarray
    anchor_values: np.ndarray


@dataclass
class _Encoding:
    """What ``build_prox_qbm`` makes of a problem's edges, lam and penalties,
    the same for every centre: the QBM's diagonal is
    ``bincount(bins, concatenate([a - shift, terms]))``, where ``shift`` is
    ``pen_shift`` at ``pen_nodes`` and 0 elsewhere, and ``build`` the anchors
    and the couplings' QBM, checked and stored once.  ``source`` holds the
    problem's parts it was made of."""

    source: tuple
    pen_nodes: np.ndarray
    pen_shift: np.ndarray
    bins: np.ndarray
    terms: np.ndarray
    build: ProxBuild


def _parts(problem: ProxProblem) -> tuple:
    return (problem.edge_u, problem.edge_v, problem.edge_w, problem.lam,
            problem.penalties)


def _encode(problem: ProxProblem) -> _Encoding:
    n = problem.n
    lam = problem.lam
    pen_nodes, pen_shift = [], []
    anchors = []  # (node, b, kappa)
    for i, pen in sorted(problem.penalties.items()):
        c, anc, _ = pwl_decompose(pen)
        pen_nodes.append(i)
        pen_shift.append(0.5 * lam * c)
        anchors += [(i, b, kappa) for b, kappa in anc]
    host, anchor_b, kappa = np.array(anchors, dtype=np.float64).reshape(-1, 3).T
    host = host.astype(np.int64)
    total = n + len(host)

    fused = lam * problem.edge_w > 0
    eu, ev = problem.edge_u[fused], problem.edge_v[fused]
    ew = lam * problem.edge_w[fused]
    pinned = lam * kappa > 0
    host, pin, ak = host[pinned], n + np.flatnonzero(pinned), lam * kappa[pinned]
    # the centre first, then each coupling's halves in edge order: the
    # same sums, added in the same order, as folding in edge by edge
    bins = np.concatenate([np.arange(n), np.column_stack([eu, ev]).ravel(), host])
    terms = np.concatenate([np.repeat(0.5 * ew, 2), 0.5 * ak])
    qbm = QuadraticBinaryProblem(total, np.zeros(total), np.concatenate([eu, host]),
                                 np.concatenate([ev, pin]), np.concatenate([-ew, -ak]))
    anchor_mask = np.arange(total) >= n
    anchor_values = np.concatenate([np.zeros(n), anchor_b])
    for arr in (bins, terms, anchor_mask, anchor_values):
        arr.setflags(write=False)
    return _Encoding(_parts(problem), np.array(pen_nodes, dtype=np.int64),
                     np.array(pen_shift), bins, terms,
                     ProxBuild(qbm, anchor_mask, anchor_values))


def build_prox_qbm(problem: ProxProblem) -> ProxBuild:
    """Encode the prox problem as an anchored quadratic binary problem.

    Original nodes carry diagonal a_i adjusted by the linear penalty
    coefficients plus half the incident coupling weights; each penalty
    anchor (b, kappa) becomes an auxiliary node pinned at b with coupling
    -lambda * kappa.  A problem with ``recentred`` copies keeps all but the
    diagonal from its family's first call on, and their QBMs share its
    read-only arrays; it is built again where a field it was made of has
    been set to another object.
    """
    kept = problem._encoding
    if kept is None:
        enc = _encode(problem)
    else:
        if not kept or any(x is not y for x, y in zip(kept[0].source,
                                                      _parts(problem))):
            kept[:] = [_encode(problem)]
            # the engine keeps its edge data for the with_diag copies too
            kept[0].build.qbm._edge_data = []
        enc = kept[0]
    diag = problem.a.copy()
    diag[enc.pen_nodes] -= enc.pen_shift
    qbm = enc.build.qbm
    full_diag = np.bincount(enc.bins, np.concatenate([diag, enc.terms]), qbm.n)
    return replace(enc.build, qbm=qbm.with_diag(full_diag))


def prox(problem: ProxProblem) -> np.ndarray:
    """The unique minimizer of the prox objective: the first n levels of
    the parametric solve of ``build_prox_qbm(problem)``."""
    build = build_prox_qbm(problem)
    sol = solve_parametric(build.qbm, anchor_mask=build.anchor_mask,
                           anchor_values=build.anchor_values)
    return sol.levels[:problem.n].copy()


def certificate(problem: ProxProblem, u) -> float:
    """Minimal subgradient residual ||2(u - a) + lambda * dPhi(u)||_inf.

    Subgradient selections are free on fused edges (|u_i - u_j| within
    FUSE_TOL * max(1, max |u|)) and inside penalty-breakpoint intervals;
    the minimum over the free box is an exact linear program.  A value
    near zero certifies optimality.
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
    split = (wk != 0) & (np.abs(d) > FUSE_TOL * scale)
    free = (wk != 0) & ~split
    g = wk[split] * np.sign(d[split])
    fixed += np.bincount(problem.edge_u[split], g, n) - \
        np.bincount(problem.edge_v[split], g, n)
    pen_rows, lows, highs = [], [], []
    for i, pen in problem.penalties.items():
        lo, hi = pen.subgradient(float(u[i]))
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

"""Proximal-gradient (FISTA) outer loop for graph-fused penalized regression.

Minimizes ||y - A u||^2 + lambda * Phi(u) where Phi is the graph-fused
regularizer of the prox module.  Each iteration takes a gradient step
v = u - (1/L) * 2 A^T (A u - y) and applies the exact prox at center v
with effective regularization 2*lambda/L (the loss carries no 1/2 factor,
so L bounds 2*sigma_max(A)^2).  Nesterov momentum is restarted whenever
the objective increases, which makes the best-iterate trace monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .prox import ProxProblem, prox, regularizer

L_FLOOR = 1e-12
L_SAFETY = 1.1       # factor on the power-iteration estimate
POWER_ITERS = 200
POWER_RTOL = 1e-6    # relative change that stops the power iteration


@dataclass
class RegressionProblem:
    """Design matrix, response, and the fused regularizer data.

    A must be 2-D with one row per entry of y, and both finite.  The
    edges, weights, lambda and penalties are checked as ``ProxProblem``
    checks them, and stored as it stores them (each pair once with u < v,
    sorted), so ``objective`` reads them with no check of its own.
    """

    A: np.ndarray
    y: np.ndarray
    edge_u: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    edge_v: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    edge_w: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    lam: float = 0.0
    penalties: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64).ravel()
        if self.A.ndim != 2 or self.A.shape[0] != len(self.y):
            raise DimensionMismatch("A must be N x n with len(y) == N")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.y))):
            raise DimensionMismatch("A and y must be finite")
        # the prox problem's checks, once: edges, weights, lambda, penalties
        fused = ProxProblem(np.zeros(self.n), self.edge_u, self.edge_v,
                            self.edge_w, self.lam, self.penalties)
        self.edge_u, self.edge_v = fused.edge_u, fused.edge_v
        self.edge_w, self.penalties = fused.edge_w, fused.penalties

    @property
    def n(self) -> int:
        return self.A.shape[1]


def objective(problem: RegressionProblem, u) -> float:
    """||y - A u||^2 + lambda * Phi(u)."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (problem.n,):
        raise DimensionMismatch(f"u must have length {problem.n}")
    resid = problem.y - problem.A @ u
    return float(resid @ resid) + problem.lam * regularizer(
        u, problem.edge_u, problem.edge_v, problem.edge_w, problem.penalties)


def lipschitz_estimate(A) -> float:
    """Upper bound on the gradient Lipschitz constant 2*sigma_max(A)^2.

    Power iteration on A^T A times L_SAFETY.  The iteration stops once
    the estimate changes by at most POWER_RTOL relative to itself, at
    any scale of A, or after POWER_ITERS steps, whichever comes first;
    on designs whose top two singular values lie close it stops at the
    cap (on 300 x 500 Gaussian designs, up to 4.3e-4 below
    2*sigma_max(A)^2, relative).  Its estimate never exceeds
    2*sigma_max(A)^2, and L_SAFETY covers the shortfall.
    Degenerate (zero) designs get a tiny positive floor so step sizes
    stay finite.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.size == 0 or not np.any(A):
        return L_FLOOR
    rng = np.random.default_rng(7)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(POWER_ITERS):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0:
            return L_FLOOR
        lam_new = float(v @ w)
        v = w / norm
        if abs(lam_new - lam) <= POWER_RTOL * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    return max(L_SAFETY * 2.0 * lam, L_FLOOR)


@dataclass
class FitResult:
    u: np.ndarray
    trace: np.ndarray
    converged: bool
    iterations: int


def fista_fit(problem: RegressionProblem, tol: float = 1e-8,
              max_iter: int = 10_000, L: float | None = None) -> FitResult:
    """Run the accelerated proximal-gradient loop.

    Each step's prox is ``prox`` of a ``ProxProblem`` centred at the
    gradient step, with the problem's edges and penalties and lambda
    2*lambda/L; with lambda = 0 and no penalties the step is the gradient
    step itself, and no prox is built.  Returns the best iterate, the
    per-iteration objective trace, and a convergence flag (relative
    objective change below tol).  A given L must be positive and finite
    (else DimensionMismatch); by default it is ``lipschitz_estimate(A)``.
    """
    A, y = problem.A, problem.y
    if L is None:
        L = lipschitz_estimate(A)
    elif not 0 < L < np.inf:
        raise DimensionMismatch(f"L must be positive and finite, got {L}")
    lam_eff = 2.0 * problem.lam / L

    u = np.zeros(problem.n)
    z = u.copy()
    t = 1.0
    best_u = u.copy()
    best_obj = objective(problem, u)
    obj_prev = best_obj
    trace = [best_obj]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        g = 2.0 * (A.T @ (A @ z - y))
        v = z - g / L
        if problem.lam > 0 or problem.penalties:
            u_new = prox(ProxProblem(v, problem.edge_u, problem.edge_v,
                                     problem.edge_w, lam_eff,
                                     problem.penalties))
        else:
            u_new = v
        obj = objective(problem, u_new)
        trace.append(obj)
        if obj > obj_prev:
            # restart momentum from the best point seen
            z = best_u.copy()
            u = best_u.copy()
            t = 1.0
            obj_prev = best_obj
            continue
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = u_new + ((t - 1.0) / t_new) * (u_new - u)
        u, t = u_new, t_new
        if obj < best_obj:
            best_obj = obj
            best_u = u_new.copy()
        if abs(obj_prev - obj) <= tol * max(1.0, abs(obj_prev)):
            converged = True
            obj_prev = obj
            break
        obj_prev = obj
    return FitResult(best_u, np.asarray(trace), converged, it)

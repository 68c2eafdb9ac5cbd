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
from .prox import ProxProblem, prox

L_FLOOR = 1e-12


@dataclass
class RegressionProblem:
    """Design matrix, response, and the fused regularizer data."""

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
        if self.lam < 0:
            raise DimensionMismatch("lambda must be nonnegative")
        self.edge_u = np.asarray(self.edge_u, dtype=np.int64)
        self.edge_v = np.asarray(self.edge_v, dtype=np.int64)
        self.edge_w = np.asarray(self.edge_w, dtype=np.float64)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def prox_problem(self, center, lam_eff: float) -> ProxProblem:
        return ProxProblem(np.asarray(center, dtype=np.float64),
                           self.edge_u, self.edge_v, self.edge_w,
                           lam_eff, self.penalties)


def objective(problem: RegressionProblem, u) -> float:
    """||y - A u||^2 + lambda * Phi(u)."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (problem.n,):
        raise DimensionMismatch(f"u must have length {problem.n}")
    resid = problem.y - problem.A @ u
    helper = problem.prox_problem(np.zeros(problem.n), problem.lam)
    return float(resid @ resid) + problem.lam * helper.regularizer(u)


def lipschitz_estimate(A, safety: float = 1.1, iters: int = 200,
                       rtol: float = 1e-6) -> float:
    """Upper bound on the gradient Lipschitz constant 2*sigma_max(A)^2.

    Power iteration on A^T A with a safety factor; degenerate (zero)
    designs get a tiny positive floor so step sizes stay finite.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.size == 0 or not np.any(A):
        return L_FLOOR
    rng = np.random.default_rng(7)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0:
            return L_FLOOR
        lam_new = float(v @ w)
        v = w / norm
        if abs(lam_new - lam) <= rtol * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return max(safety * 2.0 * lam, L_FLOOR)


@dataclass
class FitResult:
    u: np.ndarray
    trace: np.ndarray
    converged: bool
    iterations: int


def fista_fit(problem: RegressionProblem, tol: float = 1e-8,
              max_iter: int = 10_000, L: float | None = None) -> FitResult:
    """Run the accelerated proximal-gradient loop.

    Returns the best iterate, the per-iteration objective trace, and a
    convergence flag (relative objective change below tol).
    """
    A, y = problem.A, problem.y
    if L is None:
        L = lipschitz_estimate(A)
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
            u_new = prox(problem.prox_problem(v, lam_eff))
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

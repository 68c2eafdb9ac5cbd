"""Proximal-gradient (FISTA) outer loop for graph-fused penalized regression.

Minimizes ||y - A u||^2 + lambda * Phi(u) where Phi is the graph-fused
regularizer of the prox module.  Each iteration takes a gradient step
v = u - (1/L) * 2 A^T (A u - y) and applies the exact prox at center v
with effective regularization 2*lambda/L (the loss carries no 1/2 factor,
so L bounds 2*sigma_max(A)^2; by default it is a Lanczos estimate of the
top eigenvalue of the smaller Gram matrix, times L_SAFETY).  Every step's
prox problem shares the edges and penalties the fit checked once, so a
step checks only its centre.  Nesterov momentum is restarted whenever the
objective increases, which makes the best-iterate trace monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .prox import ProxProblem, prox, regularizer

L_FLOOR = 1e-12
L_SAFETY = 1.1       # factor on the Lanczos estimate


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

    sigma_max(A)^2 is the top eigenvalue of the smaller Gram matrix, A A^T
    or A^T A, which a Lanczos iteration (ARPACK's ``eigsh``, from a seeded
    start vector, never forming the matrix) finds to a residual of
    sqrt(eps) relative: within 1.5e-8 of an eigenvalue, and in practice
    the top one to rounding.  The result is that value times 2 * L_SAFETY.
    ARPACK restarts from a new vector where the start vector's Krylov space
    is invariant, as when it is orthogonal to the Gram matrix's range.
    Where the Gram matrix is 1 x 1 (a 1 x n or n x 1 design), or ARPACK
    does not converge, the top eigenvalue comes from the dense Gram matrix.
    A design whose estimate is 0 (a zero design, or one whose squares
    underflow) gets the tiny positive L_FLOOR so step sizes stay finite;
    no other design is floored, so a design scaled by 1e-8 gets its own
    estimate times 1e-16.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.size == 0 or not np.any(A):
        return L_FLOOR
    wide = A.shape[0] <= A.shape[1]
    m = min(A.shape)
    top = None
    if m > 1:
        from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                         eigsh)

        gram = LinearOperator((m, m), dtype=np.float64, matvec=(
            (lambda x: A @ (x @ A)) if wide else (lambda x: (A @ x) @ A)))
        try:
            top = eigsh(gram, k=1, which="LA", tol=np.finfo(float).eps ** 0.5,
                        v0=np.random.default_rng(7).standard_normal(m),
                        return_eigenvectors=False)[0]
        except ArpackNoConvergence:
            pass
    if top is None:
        top = np.linalg.eigvalsh(A @ A.T if wide else A.T @ A)[-1]
    return L_SAFETY * 2.0 * float(top) if top > 0 else L_FLOOR


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
    2*lambda/L: one problem is checked per fit, and each step's is its
    ``recentred`` copy; with lambda = 0 and no penalties the step is the
    gradient step itself, and no prox is built.  Returns the best iterate,
    the per-iteration objective trace, and a convergence flag (objective
    change at most tol times the previous objective, with no floor, so a
    fit of data scaled by any factor stops where the unscaled fit does).
    A given L must be positive and finite (else DimensionMismatch); by
    default it is ``lipschitz_estimate(A)``.
    """
    A, y = problem.A, problem.y
    if L is None:
        L = lipschitz_estimate(A)
    elif not 0 < L < np.inf:
        raise DimensionMismatch(f"L must be positive and finite, got {L}")
    fused = None
    if problem.lam > 0 or problem.penalties:
        fused = ProxProblem(np.zeros(problem.n), problem.edge_u,
                            problem.edge_v, problem.edge_w,
                            2.0 * problem.lam / L, problem.penalties)

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
        u_new = v if fused is None else prox(fused.recentred(v))
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
        if abs(obj_prev - obj) <= tol * abs(obj_prev):
            converged = True
            obj_prev = obj
            break
        obj_prev = obj
    return FitResult(best_u, np.asarray(trace), converged, it)

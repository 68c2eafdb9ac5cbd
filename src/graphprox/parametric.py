"""Exact solution of the size-biased parametric cut family.

For a submodular quadratic binary problem, the minimum-norm point of the
base polytope is r(alpha*) where alpha* is an optimal pseudoflow in the
box |alpha_ij| <= |q_ij|.  Its level sets solve min f(S) - beta |S| for
every beta simultaneously: U1(beta) = {i : r_i < beta} is the unique
smallest minimizer and U2(beta) = {i : r_i <= beta} the unique largest.
The per-node breakpoints are the r_i values themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._engine import ParametricSolution, solve_parametric
from .errors import AlphaOutOfBox, DimensionMismatch
from .qbm import QuadraticBinaryProblem, _check_weights

BOX_TOL = 1e-9
OPT_TOL = 1e-7  # relative tolerance of the saturation test


@dataclass
class Pseudoflow:
    """Per-edge flow values alpha_ij aligned with a problem's edge list.

    alpha_ij > 0 is flow from i to j (i < j); values are bounded by the
    coupling magnitudes, |alpha_ij| <= |q_ij|.
    """

    problem: QuadraticBinaryProblem
    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.shape != (self.problem.n_edges,):
            raise DimensionMismatch("alpha must align with the edge list")
        validate_alpha(self.problem, self.alpha)

    @classmethod
    def zero(cls, problem: QuadraticBinaryProblem) -> "Pseudoflow":
        return cls(problem, np.zeros(problem.n_edges))

    @classmethod
    def from_dict(cls, problem: QuadraticBinaryProblem, mapping) -> "Pseudoflow":
        """From {(i, j): alpha_ij}; a key (j, i) gives flow -alpha_ij."""
        index = {key: k for k, key in enumerate(zip(problem.edge_u.tolist(),
                                                    problem.edge_v.tolist()))}
        alpha = np.zeros(problem.n_edges)
        for (i, j), val in mapping.items():
            key = (min(i, j), max(i, j))
            if key not in index:
                raise DimensionMismatch(f"no edge {key} in problem")
            alpha[index[key]] = val if i < j else -val
        return cls(problem, alpha)

    def as_dict(self) -> dict:
        return {(int(u), int(v)): float(a) for u, v, a in
                zip(self.problem.edge_u, self.problem.edge_v, self.alpha)}


def validate_alpha(problem: QuadraticBinaryProblem, alpha: np.ndarray):
    cap = np.where(problem.ties, np.inf, -problem.edge_q)
    slack = np.abs(alpha) - cap
    bad = slack > BOX_TOL * np.maximum(1.0, cap)
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise AlphaOutOfBox(
            f"alpha on edge ({problem.edge_u[k]}, {problem.edge_v[k]}) "
            f"= {alpha[k]:.6g} exceeds capacity {cap[k]:.6g}")


@dataclass
class ReductionVector:
    """Node reductions r(alpha); a point of the base polytope B(f)."""

    r: np.ndarray

    def __iter__(self):
        return iter(self.r)

    def __len__(self):
        return len(self.r)


def reductions(problem: QuadraticBinaryProblem, alpha) -> ReductionVector:
    """r_i = q_ii + (1/2) sum_{i'<i} (q + alpha) + (1/2) sum_{j>i} (q - alpha).

    Hard ties contribute their flow but no static coupling.
    """
    if isinstance(alpha, Pseudoflow):
        a = alpha.alpha
    else:
        a = np.asarray(alpha, dtype=np.float64)
        validate_alpha(problem, a)
    static = np.where(problem.ties, 0.0, problem.edge_q)
    # the diagonal first, then the edge terms: each node's sum is added up
    # in the order of folding the edges in one by one
    n = problem.n
    r = np.bincount(np.concatenate([np.arange(n), problem.edge_u, problem.edge_v]),
                    np.concatenate([problem.diag, 0.5 * (static - a),
                                    0.5 * (static + a)]), n)
    return ReductionVector(r)


def solve(problem: QuadraticBinaryProblem, weights=None) -> ParametricSolution:
    """Full parametric solve returning flips and levels besides alpha."""
    return solve_parametric(problem, weights=weights)


def alpha_reduction(problem: QuadraticBinaryProblem) -> Pseudoflow:
    """Optimal pseudoflow minimizing ||r(alpha)||_2 over the box."""
    sol = solve_parametric(problem)
    return Pseudoflow(problem, sol.alpha)


def level_sets(r, weights, beta: float) -> tuple[set, set]:
    """Extreme minimizers of f(S) - beta*w(S) from the reduction vector.

    U1 = {i : r_i - beta*w_i < 0} is the unique smallest minimizer,
    U2 = {i : r_i - beta*w_i <= 0} the unique largest.
    """
    rv = r.r if isinstance(r, ReductionVector) else np.asarray(r, dtype=np.float64)
    shifted = rv - beta * _check_weights(weights, len(rv))
    return (set(np.flatnonzero(shifted < 0).tolist()),
            set(np.flatnonzero(shifted <= 0).tolist()))


def breakpoints(r, weights) -> np.ndarray:
    """Sorted distinct flip values r_i / w_i over strictly positive weights."""
    rv = r.r if isinstance(r, ReductionVector) else np.asarray(r, dtype=np.float64)
    w = _check_weights(weights, len(rv))
    pos = w > 0
    return np.unique(rv[pos] / w[pos])


def check_optimality(problem: QuadraticBinaryProblem, alpha,
                     weights=None) -> bool:
    """Test the edge saturation conditions for (weighted) optimality.

    For each coupling, alpha must sit at +|q| when r_i/w_i > r_j/w_j and
    at -|q| when r_i/w_i < r_j/w_j, up to OPT_TOL (relative); ties leave
    it free.  Zero-weight nodes compare as -inf when r_i <= 0 and +inf
    when r_i > 0 (they are in every / no optimal set).
    """
    w = _check_weights(weights, problem.n)
    if isinstance(alpha, Pseudoflow):
        alpha = alpha.alpha
    a = np.asarray(alpha, dtype=np.float64)
    validate_alpha(problem, a)
    r = reductions(problem, a).r

    with np.errstate(divide="ignore"):
        key = np.where(w > 0, r / np.where(w > 0, w, 1.0),
                       np.where(r > 0, np.inf, -np.inf))
    cap = np.where(problem.ties, np.inf, -problem.edge_q)
    scale = max(1.0, float(np.abs(r).max(initial=0.0)))
    ki, kj = key[problem.edge_u], key[problem.edge_v]
    with np.errstate(invalid="ignore"):
        gap = np.where(np.isfinite(ki) & np.isfinite(kj), np.abs(ki - kj), np.inf)
    want = np.where(ki > kj, cap, -cap)
    # split ties are already infeasible; nothing to pin
    pinned = (ki != kj) & (gap > OPT_TOL * scale) & np.isfinite(want)
    off = np.abs(a - want)[pinned] > OPT_TOL * np.maximum(1.0, cap[pinned])
    return not off.any()

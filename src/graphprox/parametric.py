"""Exact solution of the size-biased parametric cut family.

For a submodular quadratic binary problem, the minimum-norm point of the
base polytope is r(alpha*) where alpha* is an optimal pseudoflow in the
box |alpha_ij| <= |q_ij|.  Its level sets solve min f(S) - beta |S| for
every beta simultaneously: U1(beta) = {i : r_i < beta} is the unique
smallest minimizer and U2(beta) = {i : r_i <= beta} the unique largest.
The per-node breakpoints are the r_i values themselves.

``solve`` returns a ``ParametricSolution``, whose ``u1``, ``u2`` and
``breakpoints()`` read the family off the solve.  ``reductions`` and
``check_optimality`` take an alpha array aligned with the edge list
(alpha_ij > 0 is flow from i to j, i < j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._engine import ParametricSolution, solve_parametric
from .errors import AlphaOutOfBox, DimensionMismatch
from .qbm import QuadraticBinaryProblem, _check_weights

BOX_TOL = 1e-9
OPT_TOL = 1e-7  # relative tolerance of the saturation test


def validate_alpha(problem: QuadraticBinaryProblem, alpha) -> np.ndarray:
    """``alpha`` as a float array aligned with the edge list.

    Raises DimensionMismatch unless its shape is (n_edges,), and
    AlphaOutOfBox for a flow outside |alpha_e| <= |q_e| (ties unbounded).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (problem.n_edges,):
        raise DimensionMismatch(f"alpha must have shape ({problem.n_edges},), "
                                f"got {alpha.shape}")
    cap = np.where(problem.ties, np.inf, -problem.edge_q)
    slack = np.abs(alpha) - cap
    bad = slack > BOX_TOL * cap
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise AlphaOutOfBox(
            f"alpha on edge ({problem.edge_u[k]}, {problem.edge_v[k]}) "
            f"= {alpha[k]:.6g} exceeds capacity {cap[k]:.6g}")
    return alpha


@dataclass
class ReductionVector:
    """Node reductions r(alpha); a point of the base polytope B(f)."""

    r: np.ndarray


def reductions(problem: QuadraticBinaryProblem, alpha) -> ReductionVector:
    """r_i = q_ii + (1/2) sum_{i'<i} (q + alpha) + (1/2) sum_{j>i} (q - alpha).

    Hard ties contribute their flow but no static coupling.
    """
    a = validate_alpha(problem, alpha)
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


def check_optimality(problem: QuadraticBinaryProblem, alpha,
                     weights=None) -> bool:
    """Test the edge saturation conditions for (weighted) optimality.

    For each coupling, alpha must sit at +|q| when r_i/w_i > r_j/w_j and
    at -|q| when r_i/w_i < r_j/w_j, up to OPT_TOL (relative); ties leave
    it free.  Zero-weight nodes compare as -inf when r_i <= 0 and +inf
    when r_i > 0 (they are in every / no optimal set), except that one
    with |r_i| within OPT_TOL (relative) of 0 pins no edge: fused into a
    positive-weight block it sits at that block's level, which the sign
    of its rounding noise does not tell.
    """
    w = _check_weights(weights, problem.n)
    r = reductions(problem, alpha).r
    a = np.asarray(alpha, dtype=np.float64)

    with np.errstate(divide="ignore"):
        key = np.where(w > 0, r / np.where(w > 0, w, 1.0),
                       np.where(r > 0, np.inf, -np.inf))
    cap = np.where(problem.ties, np.inf, -problem.edge_q)
    scale = float(np.abs(r).max(initial=0.0))
    free = (w == 0) & (np.abs(r) <= OPT_TOL * scale)
    ki, kj = key[problem.edge_u], key[problem.edge_v]
    with np.errstate(invalid="ignore"):
        gap = np.where(np.isfinite(ki) & np.isfinite(kj), np.abs(ki - kj), np.inf)
    want = np.where(ki > kj, cap, -cap)
    # split ties are already infeasible; nothing to pin
    pinned = (ki != kj) & (gap > OPT_TOL * scale) & np.isfinite(want) \
        & ~free[problem.edge_u] & ~free[problem.edge_v]
    off = np.abs(a - want)[pinned] > OPT_TOL * cap[pinned]
    return not off.any()

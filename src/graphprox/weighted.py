"""Weighted size biasing: min f(S) - beta * w(S) for all beta at once.

The weighted minimum-norm pseudoflow minimizes sum_i r_i(alpha)^2 / w_i
over the capacity box; the scaled level sets {i : r_i <= beta * w_i} are
the exact minimizers for every beta.  Zero weights are handled as the
epsilon-downward limit of w_i = max(eps, w_i): such nodes either fuse
with a positive-weight block (flipping with it) or resolve by the sign of
their reduction inside an all-zero block.

Positive integer weights admit an independent oracle: augment the problem
with w_i - 1 auxiliary copies of node i, hard-tied to it, and solve the
unweighted problem; restricted to the original nodes the level sets
coincide, and the augmented minimum-norm values are y_i = z_i / w_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._engine import ParametricSolution, bisection_cut, solve_parametric
from .errors import DimensionMismatch, WeightNotPositiveInteger
from .parametric import Pseudoflow
from .qbm import QuadraticBinaryProblem, _canonical_edges


@dataclass
class WeightVector:
    """Nonnegative, finite node weights with the zero pattern tracked."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if np.any(self.w < 0) or not np.all(np.isfinite(self.w)):
            raise DimensionMismatch("weights must be finite and nonnegative")

    @property
    def positive_mask(self) -> np.ndarray:
        return self.w > 0

    def __len__(self):
        return len(self.w)


def _as_weights(weights, n: int) -> np.ndarray:
    w = weights.w if isinstance(weights, WeightVector) else \
        np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise DimensionMismatch(f"weights must have length {n}")
    return w


def weighted_bisection_cut(problem: QuadraticBinaryProblem, weights, T,
                           alpha=None) -> set:
    """One bisection step: the maximal minimum cut of the pivot-shifted
    subproblem on T.  Empty when the shifted unary terms all vanish; when
    the weights on T sum to zero the unshifted (sign-splitting) cut is
    used.  See the engine docs for the recursion built on this step."""
    w = _as_weights(weights, problem.n)
    if alpha is None:
        alpha = np.zeros(problem.n_edges)
    elif isinstance(alpha, Pseudoflow):
        alpha = alpha.alpha
    return bisection_cut(problem, w, T, alpha)


def solve_weighted(problem: QuadraticBinaryProblem, weights) -> ParametricSolution:
    """Weighted parametric solve returning flips and levels."""
    w = _as_weights(weights, problem.n)
    return solve_parametric(problem, weights=w)


def find_weighted_reductions(problem: QuadraticBinaryProblem, weights) -> Pseudoflow:
    """Optimal pseudoflow for the weighted minimum-norm problem."""
    sol = solve_weighted(problem, weights)
    return Pseudoflow(problem, sol.alpha)


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
    u, v, q = _canonical_edges(
        np.concatenate([problem.edge_u, copies]),
        np.concatenate([problem.edge_v, aux]),
        np.concatenate([problem.edge_q, np.full(len(aux), -np.inf)]), len(diag))
    groups = np.split(aux, np.cumsum(w - 1)[:-1])
    index_map = {i: [i, *g.tolist()] for i, g in zip(range(n), groups)}
    return QuadraticBinaryProblem(len(diag), diag, u, v, q, problem.offset), \
        index_map

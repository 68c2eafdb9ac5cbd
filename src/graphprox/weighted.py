"""Weighted size biasing: min f(S) - beta * w(S) for all beta at once.

The weighted minimum-norm pseudoflow minimizes sum_i r_i(alpha)^2 / w_i
over the capacity box; the scaled level sets {i : r_i <= beta * w_i} are
the exact minimizers for every beta.  Zero weights are handled as the
epsilon-downward limit of w_i = max(eps, w_i): such nodes either fuse
with a positive-weight block (flipping with it) or resolve by the sign of
their reduction inside an all-zero block.

``weighted_bisection_cut`` is one bisection step on a node subset: the
largest minimizer at its pivot sum(r) / sum(w), or at beta = 0.

Positive integer weights admit an independent oracle: augment the problem
with w_i - 1 auxiliary copies of node i, hard-tied to it, and solve the
unweighted problem; restricted to the original nodes the level sets
coincide, and the augmented minimum-norm values are y_i = z_i / w_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._engine import (TERM_TOL, ZERO_W_TOL, ParametricSolution, _block_cut,
                      solve_parametric)
from .errors import DimensionMismatch, WeightNotPositiveInteger
from .parametric import Pseudoflow, reductions
from .qbm import QuadraticBinaryProblem, _canonical_edges, _check_weights


@dataclass
class WeightVector:
    """Nonnegative, finite node weights with the zero pattern tracked."""

    w: np.ndarray

    def __post_init__(self):
        self.w = _check_weights(self.w, np.size(self.w))

    @property
    def positive_mask(self) -> np.ndarray:
        return self.w > 0

    def __len__(self):
        return len(self.w)

    def __array__(self, dtype=None, copy=None):
        # NumPy 1.x never passes copy, and np.array rejects copy=None there
        w = np.asarray(self.w, dtype=dtype)
        return w.copy() if copy else w


def weighted_bisection_cut(problem: QuadraticBinaryProblem, weights,
                           T) -> set:
    """One bisection step on node subset T: the largest minimum cut of the
    subproblem on T with unary terms r_i - mu * w_i, a subset of T.

    The pivot mu is sum(r) / sum(w) over T, which zero-sums the shifted
    terms; when the weights on T sum to zero, mu = 0 (the beta = 0 cut,
    which splits negative from positive reductions).  Returns the empty
    set when every shifted term is within TERM_TOL * max(1, max |r_T|) of
    zero.  The reductions are those of the zero pseudoflow.  Raises
    DimensionMismatch for weights that ``solve_weighted`` rejects and for
    node ids outside [0, n).
    """
    w = _check_weights(weights, problem.n)
    T = np.unique(np.fromiter(T, dtype=np.int64))
    if len(T) and (T[0] < 0 or T[-1] >= problem.n):
        raise DimensionMismatch(f"T must hold node ids in [0, {problem.n})")
    r = reductions(problem, Pseudoflow.zero(problem)).r[T]
    w_T = w[T]
    sw = float(w_T.sum())
    unary = r - float(r.sum()) / sw * w_T if sw > ZERO_W_TOL else r
    scale = max(1.0, float(np.abs(r).max(initial=0.0)))
    if float(np.abs(unary).max(initial=0.0)) <= TERM_TOL * scale:
        return set()

    in_T = np.zeros(problem.n, dtype=bool)
    in_T[T] = True
    edges = np.flatnonzero(in_T[problem.edge_u] & in_T[problem.edge_v])
    cap = np.where(problem.ties, np.inf, -problem.edge_q)
    pinned = np.zeros(len(T), dtype=bool)
    _, s_max, _ = _block_cut(problem, cap, T, edges, unary, pinned, pinned,
                             np.arange(len(T)))
    return set(T[s_max].tolist())


def solve_weighted(problem: QuadraticBinaryProblem, weights) -> ParametricSolution:
    """Weighted parametric solve returning flips and levels."""
    return solve_parametric(problem, weights=weights)


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

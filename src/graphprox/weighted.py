"""Weighted size biasing: min f(S) - beta * w(S) for all beta at once.

The weighted minimum-norm pseudoflow minimizes sum_i r_i(alpha)^2 / w_i
over the capacity box; the scaled level sets {i : r_i <= beta * w_i} are
the exact minimizers for every beta.  Zero weights are handled as the
epsilon-downward limit of w_i = max(eps, w_i): such nodes either fuse
with a positive-weight block (flipping with it) or resolve by the sign of
their reduction inside an all-zero block.
"""

from __future__ import annotations

from ._engine import ParametricSolution, solve_parametric
from .qbm import QuadraticBinaryProblem


def solve_weighted(problem: QuadraticBinaryProblem, weights) -> ParametricSolution:
    """Weighted parametric solve returning flips and levels."""
    return solve_parametric(problem, weights=weights)

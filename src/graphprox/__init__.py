"""graphprox: exact parametric min-cut solvers and graph-fused proximal
operators.

The core pipeline: a submodular quadratic binary problem (qbm) maps to an
s-t ``FlowNetwork``; one recursive parametric solve (``solve`` or
``solve_weighted``) computes the minimum-norm pseudoflow, and the
``ParametricSolution`` it returns reads the size-biased cut family for
every bias at once off its level sets (``u1``, ``u2``,
``breakpoints()``); the prox module
uses this to evaluate graph-fused proximal operators exactly, and the
regression module wraps them in a FISTA outer loop.
"""

from . import io, oracle
from ._engine import ParametricSolution
from .errors import (AlphaOutOfBox, DimensionMismatch, GraphProxError,
                     NonConvexPenalty, NonSubmodularEnergy, ParseError,
                     StaleFlow, TooLarge, WeightNotPositiveInteger)
from .maxflow import FlowNetwork, FlowState, check_flow, max_flow, min_cut
from .parametric import ReductionVector, check_optimality, reductions, solve
from .prox import (PiecewiseLinearPenalty, ProxProblem, build_prox_qbm,
                   certificate, prox, pwl_decompose)
from .qbm import (EnergyTable, QuadraticBinaryProblem, evaluate,
                  from_energies, to_cut_graph)
from .regression import (FitResult, RegressionProblem, fista_fit,
                         lipschitz_estimate, objective)
from .weighted import solve_weighted

__version__ = "0.1.0"

__all__ = [
    "AlphaOutOfBox", "DimensionMismatch", "EnergyTable",
    "FitResult", "FlowNetwork", "FlowState", "GraphProxError",
    "NonConvexPenalty", "NonSubmodularEnergy", "ParametricSolution",
    "ParseError", "PiecewiseLinearPenalty", "ProxProblem",
    "QuadraticBinaryProblem", "ReductionVector", "RegressionProblem",
    "StaleFlow", "TooLarge", "WeightNotPositiveInteger", "build_prox_qbm",
    "certificate", "check_flow", "check_optimality", "evaluate", "fista_fit",
    "from_energies", "io", "lipschitz_estimate", "max_flow", "min_cut",
    "objective", "oracle", "prox", "pwl_decompose",
    "reductions", "solve", "solve_weighted", "to_cut_graph",
]

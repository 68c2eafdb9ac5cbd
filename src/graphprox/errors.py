"""Exception types raised by graphprox solvers and converters."""


class GraphProxError(Exception):
    """Base class for all graphprox errors."""


class NonSubmodularEnergy(GraphProxError):
    """A pairwise term violates E(0,0) + E(1,1) <= E(0,1) + E(1,0)."""

    def __init__(self, i: int, j: int, gap: float):
        self.i = i
        self.j = j
        self.gap = gap
        super().__init__(
            f"pairwise term on edge ({i}, {j}) is not submodular "
            f"(violation {gap:.3g})"
        )


class DimensionMismatch(GraphProxError):
    """Array lengths or matrix shapes do not agree."""


class AlphaOutOfBox(GraphProxError):
    """A pseudoflow value exceeds its edge capacity box."""


class StaleFlow(GraphProxError):
    """A FlowState does not satisfy the flow invariants for its graph."""


class WeightNotPositiveInteger(GraphProxError):
    """Integer augmentation requires weights in {1, 2, ...}."""


class NonConvexPenalty(GraphProxError):
    """Piecewise-linear penalty slopes must be nondecreasing."""


class TooLarge(GraphProxError):
    """Problem exceeds the brute-force enumeration guard."""


class ParseError(GraphProxError):
    """A problem file could not be parsed."""

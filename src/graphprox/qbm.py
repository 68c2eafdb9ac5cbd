"""Quadratic binary problems and their s-t network form.

The canonical object is :class:`QuadraticBinaryProblem`: a set function

    f(S) = sum_{i<j in S} q_ij + sum_{i in S} (q_ii - beta * w_i)

with all off-diagonal couplings q_ij <= 0, which makes f submodular.  The
same problem can be written as an energy table over binary labels or as
the s-t :class:`~graphprox.maxflow.FlowNetwork` of ``to_cut_graph``; the
converters here move between the three forms while tracking the constant
objective offsets, so tests can compare values and not just argmins.

Conventions
-----------
* Node indices are 0-based.  The ``QuadraticBinaryProblem`` constructor
  takes edges in any orientation, checks each coupling before repeated
  pairs are summed, stores each pair once with u < v, sorted, and copies
  the caller's arrays.
* A coupling of -inf marks a hard tie: both endpoints must take the same
  label, and any set splitting them evaluates to +inf.
* The optimal set of the cut problem is the set of interior nodes on the
  *sink* side of a minimum cut.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonSubmodularEnergy
from .maxflow import FlowNetwork, _checked_edges, _node_ids, _node_key

REL_TOL = 1e-9


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, val) float arrays of {(i, j): value} or (i, j, value) triples,
    for ``maxflow._checked_edges`` to check; raises DimensionMismatch for a
    key that is not an (i, j) pair or an entry that is not a triple."""
    if isinstance(edges, dict):
        u, v = _columns(list(edges), 2, "edge keys must be (i, j) pairs")
        return u, v, np.fromiter(edges.values(), np.float64, len(edges))
    u, v, val = _columns(list(edges), 3, "edges must be (i, j, value) triples")
    return u, v, val


def _columns(entries: list, width: int, message: str) -> np.ndarray:
    """The ``width`` columns of ``entries``, as the rows of a float array."""
    try:
        if any(len(e) != width for e in entries):
            raise DimensionMismatch(message)
        flat = np.fromiter(itertools.chain.from_iterable(entries), np.float64,
                           width * len(entries))
    except (TypeError, ValueError):   # an entry with no length, or a non-number
        raise DimensionMismatch(message) from None
    return flat.reshape(-1, width).T


def _canonical_edges(u, v, val, n: int):
    """Checked ``(u, v, val)`` arrays with each pair stored once: ordered
    u < v, sorted by (u, v), and the values of duplicate pairs summed in
    input order.  A self-loop passes through as a pair (i, i)."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = lo * n + hi
    if np.all(keys[1:] > keys[:-1]):
        # already sorted, each pair once; + 0.0 turns -0.0 into 0.0, as the
        # sum from 0.0 below does
        return lo, hi, val + 0.0
    keys, inv = np.unique(keys, return_inverse=True)
    summed = np.bincount(inv, weights=val, minlength=len(keys))
    return keys // max(n, 1), keys % max(n, 1), summed


def _checked_diag(diag, n: int) -> np.ndarray:
    """A read-only float copy of ``diag``; raises DimensionMismatch unless
    it holds n finite entries."""
    diag = np.array(diag, dtype=np.float64)
    if diag.shape != (n,):
        raise DimensionMismatch(f"diag must have length {n}")
    if not np.all(np.isfinite(diag)):
        raise DimensionMismatch("diagonal entries must be finite")
    diag.setflags(write=False)
    return diag


def _check_weights(weights, n: int) -> np.ndarray:
    """Node weights as a float array, all ones by default; raises
    DimensionMismatch unless n of them, all finite and nonnegative."""
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise DimensionMismatch(f"weights must have length {n}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DimensionMismatch("weights must be finite and nonnegative")
    return w


def _check_beta(beta) -> float:
    """beta as a float; raises DimensionMismatch unless it is finite."""
    beta = float(beta)
    if not np.isfinite(beta):
        raise DimensionMismatch(f"beta must be finite, not {beta}")
    return beta


@dataclass
class EnergyTable:
    """Unary/pairwise energy tables over binary labels.

    Parameters
    ----------
    n : int
        Node count.
    unary : array, shape (n, 2)
        unary[i, x] is the finite cost of labeling node i with x in {0, 1}.
    pairwise : dict
        Maps nodes (i, j), i < j, each checked by ``maxflow._node_key``, to
        a 2x2 table t with t[xi, xj] the pairwise cost.  Every table must
        satisfy t[0,0] + t[1,1] <= t[0,1] + t[1,0].
    """

    n: int
    unary: np.ndarray
    pairwise: dict = field(default_factory=dict)

    def __post_init__(self):
        self.unary = np.asarray(self.unary, dtype=np.float64).reshape(self.n, 2)
        bad = np.flatnonzero(~np.isfinite(self.unary).all(axis=1))
        if len(bad):
            i = int(bad[0])
            raise DimensionMismatch(
                f"energy table: unary energies of node {i} must be finite, "
                f"got {self.unary[i].tolist()}")
        clean = {}
        for key, tbl in self.pairwise.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise DimensionMismatch(f"pairwise key {key!r} is not an (i, j) pair")
            i, j = (_node_key(k, self.n, "pairwise key entry") for k in key)
            if i >= j:
                raise DimensionMismatch(f"pairwise key ({i}, {j}) needs i < j")
            clean[(i, j)] = np.asarray(tbl, dtype=np.float64).reshape(2, 2)
        self.pairwise = clean

    def is_submodular(self) -> bool:
        """True exactly when every pairwise table passes the check of
        ``from_energies``."""
        try:
            for (i, j), tbl in self.pairwise.items():
                _pair_coupling(i, j, tbl)
        except (NonSubmodularEnergy, DimensionMismatch):
            return False
        return True

    def energy(self, x) -> float:
        """Total energy of a binary labeling x."""
        x = np.asarray(x, dtype=np.int64)
        val = float(self.unary[np.arange(self.n), x].sum())
        for (i, j), tbl in self.pairwise.items():
            val += float(tbl[x[i], x[j]])
        return val


@dataclass
class QuadraticBinaryProblem:
    """Submodular quadratic form over binary indicator vectors.

    diag holds finite q_ii; edges hold q_ij <= 0 in any orientation
    (q_ij = -inf marks a hard tie).  Each coupling is checked before a
    repeated pair is summed, so a self-loop, a NaN or a positive coupling
    fails even where a repeat would cancel it.  The stored arrays are
    read-only copies, each pair once with u < v, sorted, so instances are
    immutable and safe to share across solver invocations.
    """

    n: int
    diag: np.ndarray
    edge_u: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    edge_v: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    edge_q: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    offset: float = 0.0
    # None, or a list in which the engine keeps what it derives from the
    # edges alone (``_engine._edge_data``), shared with the with_diag copies
    _edge_data: list | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        self.diag = _checked_diag(self.diag, self.n)
        u, v, q = _checked_edges(self.edge_u, self.edge_v, self.edge_q, self.n)
        if np.any(u == v):
            raise DimensionMismatch("self-loops not allowed")
        if np.any(np.isnan(q)):
            raise DimensionMismatch("couplings must not be NaN")
        bad = np.flatnonzero(q > 0.0)
        if bad.size:
            k = int(bad[0])
            raise NonSubmodularEnergy(int(min(u[k], v[k])), int(max(u[k], v[k])),
                                      float(q[k]))
        self.edge_u, self.edge_v, self.edge_q = _canonical_edges(u, v, q, self.n)
        for arr in (self.edge_u, self.edge_v, self.edge_q):
            arr.setflags(write=False)

    def with_diag(self, diag) -> "QuadraticBinaryProblem":
        """This problem with the diagonal ``diag`` (n finite entries,
        copied), sharing its checked, read-only edge arrays."""
        out = object.__new__(QuadraticBinaryProblem)
        out.__dict__.update(self.__dict__, diag=_checked_diag(diag, self.n))
        return out

    @classmethod
    def from_parts(cls, diag, edges, offset: float = 0.0) -> "QuadraticBinaryProblem":
        """Build from a diagonal vector and an edge mapping {(i, j): q_ij}
        or (i, j, q_ij) triples, stored as the constructor stores them."""
        return cls(len(diag), diag, *_edge_arrays(edges), offset)

    @property
    def n_edges(self) -> int:
        return len(self.edge_u)

    @property
    def ties(self) -> np.ndarray:
        """Boolean mask of hard-tie (infinite-coupling) edges."""
        return np.isneginf(self.edge_q)

    def offdiag(self) -> dict:
        """Couplings as a {(i, j): q_ij} dict with i < j."""
        return {(int(i), int(j)): float(q)
                for i, j, q in zip(self.edge_u, self.edge_v, self.edge_q)}


def _pair_coupling(i: int, j: int, tbl: np.ndarray) -> float:
    """The coupling q_ij of pairwise table ``tbl``: its gap
    t[0,0] + t[1,1] - t[0,1] - t[1,0] clipped at 0, or -inf for a hard tie.
    Raises as ``from_energies`` documents."""
    finite = np.isfinite(tbl)
    with np.errstate(invalid="ignore"):
        gap = tbl[1, 1] + tbl[0, 0] - tbl[0, 1] - tbl[1, 0]
    # relative to the table's largest finite entry, with no floor, so a
    # table scaled by any factor passes or fails as it does unscaled
    if gap > REL_TOL * float(np.abs(tbl[finite]).max(initial=0.0)):
        raise NonSubmodularEnergy(i, j, float(gap))
    if finite[[0, 1], [0, 1]].all() and np.isposinf(tbl[[0, 1], [1, 0]]).all():
        return -np.inf
    if not finite.all():
        raise DimensionMismatch(
            f"pairwise table on ({i}, {j}) has non-finite entries other "
            "than a hard tie's two off-diagonal ones")
    return min(gap, 0.0)


def from_energies(energies: EnergyTable) -> QuadraticBinaryProblem:
    """Convert an energy table to quadratic binary form.

    The returned problem has the same minimizer sets; its objective differs
    from the energy by the constant sum_i E_i(0) + sum_{ij} E_ij(0,0),
    which is recorded in ``offset``.  A table whose two off-diagonal
    entries are +inf is a hard tie: its coupling is -inf and its finite
    E_ij(1,1) - E_ij(0,0) goes to the diagonal of i.

    Raises
    ------
    NonSubmodularEnergy
        If any pairwise table violates the submodularity inequality.
    DimensionMismatch
        If a table has any other non-finite entry, such as one infinite
        off-diagonal entry: a one-way constraint, which no symmetric
        coupling can hold.
    """
    n = energies.n
    diag = energies.unary[:, 1] - energies.unary[:, 0]
    offset = float(energies.unary[:, 0].sum())
    edges = {}
    for (i, j), tbl in sorted(energies.pairwise.items()):
        edges[(i, j)] = _pair_coupling(i, j, tbl)
        offset += float(tbl[0, 0])
        if np.isinf(edges[(i, j)]):
            diag[i] += tbl[1, 1] - tbl[0, 0]
        else:
            diag[i] += tbl[1, 0] - tbl[0, 0]
            diag[j] += tbl[0, 1] - tbl[0, 0]
    return QuadraticBinaryProblem.from_parts(diag, edges, offset)


def to_cut_graph(problem: QuadraticBinaryProblem, beta: float = 0.0,
                 weights=None) -> FlowNetwork:
    """The s-t network whose sink-side minimum cuts minimize f(S) - beta * w(S).

    Node i has source arc max(a_i, 0) and sink arc max(-a_i, 0), where
    a_i = q_ii + (1/2) sum_j q_ij - beta * w_i and ties add nothing.  Edge k
    is arc k (u -> v) and arc n_edges + k (v -> u), both of capacity -q_k/2,
    or inf for a tie.  A cut's capacity is f(S) - beta * w(S) plus
    ``sink_caps.sum()``.
    """
    w = _check_weights(weights, problem.n)
    beta = _check_beta(beta)
    u, v, q, tie = problem.edge_u, problem.edge_v, problem.edge_q, problem.ties
    half = 0.5 * q[~tie]
    a = np.bincount(np.r_[u[~tie], v[~tie]], np.r_[half, half], problem.n)
    a = a + problem.diag - beta * w
    cap = np.where(tie, np.inf, -0.5 * q)
    return FlowNetwork(problem.n, np.maximum(a, 0.0), np.maximum(-a, 0.0),
                       np.r_[u, v], np.r_[v, u], np.r_[cap, cap])


def evaluate(problem: QuadraticBinaryProblem, S, beta: float = 0.0,
             weights=None) -> float:
    """f(S) - beta * w(S).  Returns +inf if S splits a hard tie.

    S holds node ids, or is a boolean mask array; raises DimensionMismatch
    unless every node id is an integer in [0, n).
    """
    w = _check_weights(weights, problem.n)
    beta = _check_beta(beta)
    if isinstance(S, np.ndarray) and S.dtype == bool:
        S = np.flatnonzero(S)
    mask = np.zeros(problem.n, dtype=bool)
    mask[_node_ids(S if isinstance(S, np.ndarray) else list(S), problem.n,
                   "node id")] = True
    inside = mask[problem.edge_u] & mask[problem.edge_v]
    ties = problem.ties
    if np.any(ties & (mask[problem.edge_u] != mask[problem.edge_v])):
        return float("inf")
    val = float((problem.diag[mask] - beta * w[mask]).sum())
    val += float(problem.edge_q[inside & ~ties].sum())
    return val


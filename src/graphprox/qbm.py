"""Quadratic binary problems and their cut-graph form.

The canonical object is :class:`QuadraticBinaryProblem`: a set function

    f(S) = sum_{i<j in S} q_ij + sum_{i in S} (q_ii - beta * w_i)

with all off-diagonal couplings q_ij <= 0, which makes f submodular.  The
same problem can be written as an energy table over binary labels or as an
s-t cut graph; the converters here move between the three forms while
tracking the constant objective offsets, so tests can compare values and
not just argmins.

Conventions
-----------
* Node indices are 0-based.  Edges are stored once with u < v; the
  constructors store each pair once, summing the values of a pair given
  more than once, in either order.
* A coupling of -inf marks a hard tie: both endpoints must take the same
  label, and any set splitting them evaluates to +inf.
* The optimal set of the cut problem is the set of interior nodes on the
  *sink* side of a minimum cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonSubmodularEnergy

REL_TOL = 1e-9


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, val) arrays from {(i, j): value} or (i, j, value) triples."""
    if isinstance(edges, dict):
        u, v = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
        return u, v, np.fromiter(edges.values(), np.float64, len(edges))
    t = np.array(list(edges), dtype=object).reshape(-1, 3)
    return (t[:, 0].astype(np.int64), t[:, 1].astype(np.int64),
            t[:, 2].astype(np.float64))


def _canonical_edges(u, v, val, n: int):
    """``(u, v, val)`` with each pair stored once: ordered u < v, sorted by
    (u, v), and the values of duplicate pairs summed in input order.

    Raises DimensionMismatch for an endpoint outside [0, n).  A self-loop
    passes through as a pair (i, i) for the caller to reject.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if len(lo) and (lo.min() < 0 or hi.max() >= n):
        raise DimensionMismatch("edge endpoint out of range")
    keys, inv = np.unique(lo * n + hi, return_inverse=True)
    summed = np.bincount(inv, weights=np.asarray(val, dtype=np.float64),
                         minlength=len(keys))
    return keys // max(n, 1), keys % max(n, 1), summed


@dataclass
class EnergyTable:
    """Unary/pairwise energy tables over binary labels.

    Parameters
    ----------
    n : int
        Node count.
    unary : array, shape (n, 2)
        unary[i, x] is the cost of labeling node i with x in {0, 1}.
    pairwise : dict
        Maps (i, j), i < j, to a 2x2 table t with t[xi, xj] the pairwise
        cost.  Every table must satisfy t[0,0] + t[1,1] <= t[0,1] + t[1,0].
    """

    n: int
    unary: np.ndarray
    pairwise: dict = field(default_factory=dict)

    def __post_init__(self):
        self.unary = np.asarray(self.unary, dtype=np.float64).reshape(self.n, 2)
        clean = {}
        for (i, j), tbl in self.pairwise.items():
            if not (0 <= i < j < self.n):
                raise DimensionMismatch(f"edge ({i}, {j}) out of range for n={self.n}")
            clean[(i, j)] = np.asarray(tbl, dtype=np.float64).reshape(2, 2)
        self.pairwise = clean

    def is_submodular(self, tol: float = REL_TOL) -> bool:
        for tbl in self.pairwise.values():
            gap = tbl[0, 0] + tbl[1, 1] - tbl[0, 1] - tbl[1, 0]
            if gap > tol * max(1.0, float(np.abs(tbl).max())):
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

    diag holds finite q_ii; edges hold q_ij <= 0 for i < j (q_ij = -inf
    marks a hard tie).  Instances are immutable after construction and
    safe to share across solver invocations.
    """

    n: int
    diag: np.ndarray
    edge_u: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    edge_v: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    edge_q: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    offset: float = 0.0

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=np.float64)
        if self.diag.shape != (self.n,):
            raise DimensionMismatch(f"diag must have length {self.n}")
        self.edge_u = np.asarray(self.edge_u, dtype=np.int64)
        self.edge_v = np.asarray(self.edge_v, dtype=np.int64)
        self.edge_q = np.asarray(self.edge_q, dtype=np.float64)
        if not (len(self.edge_u) == len(self.edge_v) == len(self.edge_q)):
            raise DimensionMismatch("edge arrays must have equal length")
        if np.any(self.edge_u >= self.edge_v):
            raise DimensionMismatch("edges must be stored with u < v")
        if len(self.edge_u) and (self.edge_u.min() < 0 or self.edge_v.max() >= self.n):
            raise DimensionMismatch("edge endpoint out of range")
        if not np.all(np.isfinite(self.diag)):
            raise DimensionMismatch("diagonal entries must be finite")
        if np.any(np.isnan(self.edge_q)):
            raise DimensionMismatch("couplings must not be NaN")
        bad = np.nonzero(self.edge_q > 0.0)[0]
        if bad.size:
            k = int(bad[0])
            raise NonSubmodularEnergy(int(self.edge_u[k]), int(self.edge_v[k]),
                                      float(self.edge_q[k]))
        for arr in (self.diag, self.edge_u, self.edge_v, self.edge_q):
            arr.setflags(write=False)

    @classmethod
    def from_parts(cls, diag, edges, offset: float = 0.0) -> "QuadraticBinaryProblem":
        """Build from a diagonal vector and an edge mapping {(i, j): q_ij}
        or (i, j, q_ij) triples.  Pairs given more than once, in either
        order, are stored once with their couplings summed; every given
        coupling must be <= 0, even one a duplicate would cancel.
        """
        diag = np.asarray(diag, dtype=np.float64)
        u, v, q = _edge_arrays(edges)
        bad = np.flatnonzero(q > 0.0)
        if bad.size:
            k = int(bad[0])
            raise NonSubmodularEnergy(int(min(u[k], v[k])), int(max(u[k], v[k])),
                                      float(q[k]))
        return cls(len(diag), diag, *_canonical_edges(u, v, q, len(diag)), offset)

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

    def degree_half_sums(self) -> np.ndarray:
        """Per-node value (1/2) * sum of incident finite couplings."""
        finite = ~self.ties
        q = 0.5 * self.edge_q[finite]
        return np.bincount(np.concatenate([self.edge_u[finite], self.edge_v[finite]]),
                           np.concatenate([q, q]), self.n)


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
        gap = tbl[1, 1] + tbl[0, 0] - tbl[0, 1] - tbl[1, 0]
        if gap > REL_TOL * max(1.0, float(np.abs(tbl[np.isfinite(tbl)]).max())
                               if np.isfinite(tbl).any() else 1.0):
            raise NonSubmodularEnergy(i, j, float(gap))
        offset += float(tbl[0, 0])
        if np.isfinite(tbl[[0, 1], [0, 1]]).all() and \
                np.isposinf(tbl[[0, 1], [1, 0]]).all():
            edges[(i, j)] = -np.inf
            diag[i] += tbl[1, 1] - tbl[0, 0]
            continue
        if not np.isfinite(tbl).all():
            raise DimensionMismatch(
                f"pairwise table on ({i}, {j}) has non-finite entries other "
                "than a hard tie's two off-diagonal ones")
        edges[(i, j)] = min(gap, 0.0)
        diag[i] += tbl[1, 0] - tbl[0, 0]
        diag[j] += tbl[0, 1] - tbl[0, 0]
    return QuadraticBinaryProblem.from_parts(diag, edges, offset)


@dataclass
class CutGraph:
    """s-t cut graph equivalent to a quadratic binary problem.

    Terminal arcs are stored as one signed number per node: a_i > 0 is a
    source arc of capacity a_i, a_i < 0 a sink arc of capacity -a_i.  The
    cut cost of sink-side set S equals f(S) + const, with
    const = sum_i [a_i]^-.  Interior capacities are -q_ij / 2 >= 0;
    infinite capacities mark nodes that must share a side.
    """

    n: int
    a: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_cap: np.ndarray

    @property
    def source_caps(self) -> np.ndarray:
        return np.maximum(self.a, 0.0)

    @property
    def sink_caps(self) -> np.ndarray:
        return np.maximum(-self.a, 0.0)

    @property
    def cut_constant(self) -> float:
        """Additive constant between cut cost and f(sink side)."""
        return float(self.sink_caps[np.isfinite(self.a)].sum())


def terminal_values(problem: QuadraticBinaryProblem, beta: float,
                    weights) -> np.ndarray:
    """Signed terminal capacities a_i = (1/2)*sum_j q_ij + q_ii - beta*w_i.

    Hard ties contribute nothing here: the diagonal is finite, and a tie
    is only the infinite arc between its endpoints (``to_cut_graph``),
    which the flow solver handles structurally.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (problem.n,):
        raise DimensionMismatch(f"weights must have length {problem.n}")
    return problem.degree_half_sums() + problem.diag - beta * w


def to_cut_graph(problem: QuadraticBinaryProblem, beta: float = 0.0,
                 weights=None) -> CutGraph:
    """Build the cut graph whose sink-side minimum cuts minimize
    f(S) - beta * w(S)."""
    if weights is None:
        weights = np.ones(problem.n)
    a = terminal_values(problem, beta, weights)
    cap = np.where(problem.ties, np.inf, -0.5 * problem.edge_q)
    return CutGraph(problem.n, a, problem.edge_u.copy(), problem.edge_v.copy(), cap)


def evaluate(problem: QuadraticBinaryProblem, S, beta: float = 0.0,
             weights=None) -> float:
    """f(S) - beta * w(S).  Returns +inf if S splits a hard tie."""
    if weights is None:
        weights = np.ones(problem.n)
    w = np.asarray(weights, dtype=np.float64)
    mask = np.zeros(problem.n, dtype=bool)
    idx = np.fromiter(S, dtype=np.int64) if not isinstance(S, np.ndarray) else S
    if len(idx):
        mask[idx] = True
    inside = mask[problem.edge_u] & mask[problem.edge_v]
    ties = problem.ties
    if np.any(ties & (mask[problem.edge_u] != mask[problem.edge_v])):
        return float("inf")
    val = float((problem.diag[mask] - beta * w[mask]).sum())
    val += float(problem.edge_q[inside & ~ties].sum())
    return val


def normalize_directed(arcs, source_caps, sink_caps) -> QuadraticBinaryProblem:
    """Convert an arbitrary directed min-cut problem to quadratic form.

    Parameters
    ----------
    arcs : list of (i, j, capacity)
        Directed interior arcs, capacities >= 0.  Both directions may be
        present with different capacities.
    source_caps, sink_caps : arrays, length n
        Capacities of s->i and i->t arcs.

    For each node pair the two directed capacities are replaced by their
    average, and half the difference is rerouted through an s->j->i->t
    path (absorbed by the terminal arcs).  Every s-t cut cost changes by
    the same constant, so the sink-side minimizer sets are preserved; the
    returned problem's minimizers (via :func:`evaluate`) equal them.
    Together the average and the reroute add each arc's capacity to the
    diagonal of its head.  Self-loops are ignored.
    """
    c_si = np.asarray(source_caps, dtype=np.float64)
    c_it = np.asarray(sink_caps, dtype=np.float64)
    if c_si.shape != c_it.shape:
        raise DimensionMismatch("source and sink capacity lengths differ")
    n = len(c_si)
    i, j, c = _edge_arrays(arcs)
    keep = i != j
    i, j, c = i[keep], j[keep], c[keep]
    u, v, total = _canonical_edges(i, j, c, n)
    pos = total > 0.0
    return QuadraticBinaryProblem(n, c_si - c_it + np.bincount(j, c, n),
                                  u[pos], v[pos], -total[pos])

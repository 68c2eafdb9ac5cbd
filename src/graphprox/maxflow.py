"""Maximum-flow / minimum-cut solver.

Two backends share one interface and are cross-checked in the test suite.
The float backend is Dinic's blocking-flow algorithm in pure Python on the
float capacities; it serves small networks.  For large ones, scipy's C
``maximum_flow`` solves the network with its capacities snapped down to a
power-of-two grid (``_scipy_flow``), so its cuts are those of the snapped
network, whose capacities the flow carries as ``eff_*``.

Callers mark infinite capacities with ``np.inf``.  An infinite terminal
arc forces its node onto one side of every finite cut; an infinite arc
u -> v forbids u on the source side with v on the sink side.  Both
backends solve the network with every capacity above a bound on the flow
value, infinite ones included, clamped to a finite value just above that
bound: an arc above the flow value lies on no minimum cut, so lowering
it changes no minimum cut.  ``min_cut`` still reads the caller's network,
infinities included.

Cut orientation: the *optimal set* extracted from a cut is the set of
interior nodes on the sink side, matching the convention that sink-side
sets minimize f(S).  ``min_cut`` returns the extreme optimal sets
(S_min, S_max): S_min is the set of nodes that can reach t in the residual
graph, S_max the set of nodes unreachable from s.  Every minimum cut's
optimal set T satisfies S_min <= T <= S_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ParseError, StaleFlow

SAT_TOL = 1e-12  # absolute slack scale for saturation tests

_SCIPY_NODE_THRESHOLD = 300  # auto backend switches to scipy above this


@dataclass
class FlowNetwork:
    """Directed s-t network on n interior nodes.

    source_caps[i] is the capacity of arc s->i, sink_caps[i] of i->t.
    Interior arcs are directed triples (arc_u[k], arc_v[k], arc_cap[k])
    with endpoints in [0, n).  Capacities are nonnegative or np.inf.
    """

    n: int
    source_caps: np.ndarray
    sink_caps: np.ndarray
    arc_u: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    arc_v: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    arc_cap: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))

    def __post_init__(self):
        self.source_caps = np.asarray(self.source_caps, dtype=np.float64)
        self.sink_caps = np.asarray(self.sink_caps, dtype=np.float64)
        self.arc_u = np.asarray(self.arc_u, dtype=np.int64)
        self.arc_v = np.asarray(self.arc_v, dtype=np.int64)
        self.arc_cap = np.asarray(self.arc_cap, dtype=np.float64)
        if self.source_caps.shape != (self.n,) or self.sink_caps.shape != (self.n,):
            raise DimensionMismatch("terminal capacity arrays must have length n")
        if not len(self.arc_u) == len(self.arc_v) == len(self.arc_cap):
            raise DimensionMismatch("arc arrays must have equal length")
        if len(self.arc_u) and (min(self.arc_u.min(), self.arc_v.min()) < 0 or
                                max(self.arc_u.max(), self.arc_v.max()) >= self.n):
            raise DimensionMismatch("arc endpoint out of range")
        # NaN fails every comparison, so this rejects it too
        if not all(np.all(c >= 0) for c in
                   (self.source_caps, self.sink_caps, self.arc_cap)):
            raise DimensionMismatch("capacities must be nonnegative, not NaN")

    @classmethod
    def from_cut_graph(cls, cut) -> "FlowNetwork":
        """Expand a symmetric CutGraph into directed arcs."""
        u = np.concatenate([cut.edge_u, cut.edge_v])
        v = np.concatenate([cut.edge_v, cut.edge_u])
        c = np.concatenate([cut.edge_cap, cut.edge_cap])
        return cls(cut.n, np.maximum(cut.a, 0.0), np.maximum(-cut.a, 0.0), u, v, c)

    @property
    def max_cap(self) -> float:
        caps = [self.source_caps, self.sink_caps, self.arc_cap]
        m = 0.0
        for c in caps:
            finite = c[np.isfinite(c)]
            if finite.size:
                m = max(m, float(finite.max()))
        return m

    def tol(self) -> float:
        return SAT_TOL * max(1.0, self.max_cap)


@dataclass
class FlowState:
    """Arc flows and node excesses for a FlowNetwork.

    z_source[i] is the flow on s->i, z_sink[i] on i->t, z_arc[k] on interior
    arc k.  ``value`` is the total flow out of the source.  When the solver
    ran on capacities snapped down onto a power-of-two grid (the scipy
    backend), ``eff_source``/``eff_sink``/``eff_arc`` are those snapped
    capacities; checks and cut extraction use them in place of the
    originals.
    """

    z_source: np.ndarray
    z_sink: np.ndarray
    z_arc: np.ndarray
    value: float
    eff_source: np.ndarray | None = None
    eff_sink: np.ndarray | None = None
    eff_arc: np.ndarray | None = None

    def caps(self, net: FlowNetwork):
        if self.eff_source is not None:
            return self.eff_source, self.eff_sink, self.eff_arc
        return net.source_caps, net.sink_caps, net.arc_cap

    def excess(self, net: FlowNetwork) -> np.ndarray:
        """Inflow minus outflow at each interior node."""
        return (self.z_source - self.z_sink
                + np.bincount(net.arc_v, self.z_arc, net.n)
                - np.bincount(net.arc_u, self.z_arc, net.n))


@dataclass
class FlowReport:
    """Classification of a FlowState against the three flow definitions."""

    is_valid_flow: bool
    is_preflow: bool
    is_pseudoflow: bool
    violations: list

    @property
    def classification(self) -> str:
        if self.violations and not (self.is_valid_flow or self.is_preflow
                                    or self.is_pseudoflow):
            return "invalid"
        labels = []
        if self.is_valid_flow:
            labels.append("flow")
        if self.is_preflow:
            labels.append("preflow")
        if self.is_pseudoflow:
            labels.append("pseudoflow")
        return "+".join(labels) if labels else "invalid"


def check_flow(net: FlowNetwork, state: FlowState) -> FlowReport:
    """Test capacity, conservation, and terminal-saturation constraint sets."""
    tol = net.tol()
    violations = []
    c_src, c_snk, c_arc = state.caps(net)

    def in_bounds(z, cap, label):
        bad = (z < -tol) | (z > cap + tol)
        for k in np.nonzero(bad)[0][:5]:
            violations.append(f"{label}[{k}] = {z[k]:.6g} outside [0, {cap[k]:.6g}]")
        return not bad.any()

    ok = in_bounds(state.z_source, c_src, "z_source")
    ok &= in_bounds(state.z_sink, c_snk, "z_sink")
    ok &= in_bounds(state.z_arc, c_arc, "z_arc")
    if not ok:
        return FlowReport(False, False, False, violations)

    ex = state.excess(net)
    is_flow = bool(np.all(np.abs(ex) <= tol * max(1, net.n)))
    is_preflow = bool(np.all(ex >= -tol * max(1, net.n)))
    finite_s = np.isfinite(c_src)
    finite_t = np.isfinite(c_snk)
    is_pseudo = bool(
        np.all(np.abs(state.z_source[finite_s] - c_src[finite_s]) <= tol)
        and np.all(np.abs(state.z_sink[finite_t] - c_snk[finite_t]) <= tol))
    return FlowReport(is_flow, is_preflow, is_pseudo, violations)


# ---------------------------------------------------------------------------
# infinite capacities
# ---------------------------------------------------------------------------

def _clamped(net: FlowNetwork) -> tuple[FlowNetwork, float]:
    """``(cnet, clamp)``: ``clamp`` lies just above a bound on the flow
    value of ``net``, and ``cnet`` is ``net`` with every larger capacity,
    infinite ones included, lowered to ``clamp``.

    An arc whose capacity exceeds the max-flow value lies on no minimum
    cut, so the clamped network has the same minimum cuts and flow value,
    and its maximum flows are maximum flows of ``net``.  The bound is the smaller terminal side sum; when both sides
    hold an infinite arc it is the sum of all finite capacities, which
    bounds the cut around everything the source reaches over infinite
    arcs.

    Raises
    ------
    DimensionMismatch
        If a node is pinned to both terminals, or a directed path of
        infinite arcs leads from a source pin to a sink pin (no finite cut).
    """
    inf_s = np.isinf(net.source_caps)
    inf_t = np.isinf(net.sink_caps)
    if np.any(inf_s & inf_t):
        raise DimensionMismatch("node pinned to both terminals")
    if inf_s.any() and inf_t.any():
        ties = np.isinf(net.arc_cap)
        if np.any(_bfs_scipy(net.n, net.arc_u[ties], net.arc_v[ties], inf_s)
                  & inf_t):
            raise DimensionMismatch("infinite path links source to sink")
        caps = (net.source_caps, net.sink_caps, net.arc_cap)
        bound = float(sum(c[np.isfinite(c)].sum() for c in caps))
    else:
        bound = min(np.inf if inf_s.any() else float(net.source_caps.sum()),
                    np.inf if inf_t.any() else float(net.sink_caps.sum()))
    clamp = bound * (1.0 + 1e-9) + 1.0
    cnet = FlowNetwork(net.n, np.minimum(net.source_caps, clamp),
                       np.minimum(net.sink_caps, clamp), net.arc_u, net.arc_v,
                       np.minimum(net.arc_cap, clamp))
    return cnet, clamp


# ---------------------------------------------------------------------------
# Dinic core (pure python, float capacities)
# ---------------------------------------------------------------------------

def _dinic(net: FlowNetwork, tol: float) -> FlowState:
    """Dinic's blocking-flow algorithm on float capacities; a residual arc
    with at most ``tol`` left counts as saturated.  Residual arc 2k is the
    k-th arc of positive capacity (terminal arcs first) and 2k + 1 its
    reverse, whose residual is the arc's flow.  Each phase levels nodes by
    BFS from s and saturates level-increasing paths with an iterative DFS
    (no recursion: paths can be longer than the recursion limit); a dead
    end drops out of the phase at level -1."""
    n = net.n
    s, t = n, n + 1
    tail = np.concatenate([np.full(n, s), np.arange(n), net.arc_u])
    head = np.concatenate([np.arange(n), np.full(n, t), net.arc_v])
    cap = np.concatenate([net.source_caps, net.sink_caps, net.arc_cap])
    keep = np.flatnonzero(cap > 0)
    ends = np.column_stack([tail[keep], head[keep]])
    order = np.argsort(ends.ravel(), kind="stable")
    first = np.searchsorted(ends.ravel()[order], np.arange(n + 3)).tolist()
    adj = order.tolist()
    to = ends[:, ::-1].ravel().tolist()
    res = np.column_stack([cap[keep], np.zeros(len(keep))]).ravel().tolist()
    while True:
        level = [-1] * (n + 2)
        level[s] = depth = 0
        frontier = [s]
        while frontier and level[t] < 0:
            depth += 1
            nxt = []
            for x in frontier:
                for a in adj[first[x]:first[x + 1]]:
                    y = to[a]
                    if level[y] < 0 and res[a] > tol:
                        level[y] = depth
                        nxt.append(y)
            frontier = nxt
        if level[t] < 0:
            break
        ptr = first[:]
        path = []
        x = s
        while True:
            if x == t:
                d = min([res[a] for a in path])
                for a in path:
                    res[a] -= d
                    res[a ^ 1] += d
                # retreat to the tail of the first saturated arc
                k = next(j for j, a in enumerate(path) if res[a] <= tol)
                x = to[path[k] ^ 1]
                del path[k:]
                continue
            # move x's current arc to its next arc into the next level
            i, end, up = ptr[x], first[x + 1], level[x] + 1
            while i < end:
                a = adj[i]
                if res[a] > tol and level[to[a]] == up:
                    break
                i += 1
            ptr[x] = i
            if i < end:
                path.append(a)
                x = to[a]
            elif x == s:
                break
            else:
                level[x] = -1
                x = to[path.pop() ^ 1]
                ptr[x] += 1
    z = np.zeros(len(cap))
    z[keep] = res[1::2]
    z_snk = z[n:2 * n]
    return FlowState(z[:n], z_snk, z[2 * n:], float(z_snk.sum()))


# ---------------------------------------------------------------------------
# scipy backend (capacities snapped to a power-of-two grid)
# ---------------------------------------------------------------------------

def _scipy_flow(net: FlowNetwork) -> FlowState:
    """Maximum flow by scipy's int32 ``maximum_flow`` on the clamped
    network (``_clamped``) with its capacities snapped down onto a
    power-of-two grid; the snapped capacities are the flow's ``eff_*``.

    scipy sums parallel arcs into c(u, v) and keeps the residual of u -> v
    as c(u, v) - f(u, v) in int32, which reaches c(u, v) + c(v, u); where
    that sum wraps, it silently returns a non-maximum flow.  So the grid
    leaves room for twice the largest interior pair sum, not only for the
    clamp: twice the clamp when an interior arc is infinite, since both
    directions of a tie carry it.  One stable sort of the arcs by (tail,
    head) gives the pair sums, the CSR graph, each pair's flow, and its
    split back over the pair's arcs in order.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    cnet, clamp = _clamped(net)
    n, width = net.n, net.n + 2  # source n, sink n + 1
    key = np.concatenate([n * width + np.arange(n), np.arange(n) * width + n + 1,
                          net.arc_u * width + net.arc_v])
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])  # pair starts
    key = key[first]
    c = np.concatenate([cnet.source_caps, cnet.sink_caps, cnet.arc_cap])[order]
    del cnet
    # interior pairs are those whose first arc is interior (arcs 2n and up)
    inner = np.add.reduceat(c, first)[order[first] >= 2 * n]
    top = max(clamp, 2.0 * float(inner.max(initial=0.0)))
    scale = float(2.0 ** np.floor(np.log2((2.0 ** 31 - 1) / (top + 1.0))))
    c = np.floor(c * scale)
    eff = np.empty(len(c))
    eff[order] = c / scale
    c = c.astype(np.int64)
    pair_cap = np.add.reduceat(c, first)
    live = np.flatnonzero(pair_cap)
    key = key[live]
    g = csr_matrix((pair_cap[live].astype(np.int32),
                    (key % width).astype(np.int32),
                    np.searchsorted(key, np.arange(width + 1) * width)
                    .astype(np.int32)), shape=(width, width))
    del inner, pair_cap
    flow = maximum_flow(g, n, n + 1).flow
    del g
    # the antisymmetric flow matrix holds each pair's net flow
    flow.sort_indices()
    fkey = np.repeat(np.arange(width) * width, np.diff(flow.indptr)) + flow.indices
    pair_flow = np.zeros(len(first), dtype=np.int64)
    pair_flow[live] = flow.data[np.searchsorted(fkey, key)]
    del flow, fkey, key, live
    # each arc takes what its pair's flow leaves after the arcs ahead of it
    # (none where the net flow runs the other way)
    ahead = np.cumsum(c) - c
    left = np.repeat(pair_flow + ahead[first], np.diff(np.r_[first, len(c)]))
    left -= ahead
    del ahead
    z = np.empty(len(c))
    z[order] = np.clip(left, 0, c, out=left) / scale
    z_snk = z[n:2 * n]
    return FlowState(z[:n], z_snk, z[2 * n:], float(z_snk.sum()),
                     eff[:n], eff[n:2 * n], eff[2 * n:])


def max_flow(graph, method: str = "auto") -> FlowState:
    """Compute a maximum flow.

    Parameters
    ----------
    graph : FlowNetwork or CutGraph
    method : {"auto", "float", "scipy"}
        "float" is the pure-Python Dinic on the float capacities, "scipy"
        scipy's C max-flow on capacities snapped to a power-of-two grid,
        and "auto" uses "float" up to a size threshold and "scipy" beyond
        it.

    Returns
    -------
    FlowState
        A valid flow of maximum value.  Infinite capacities are solved
        clamped to a finite bound above the flow value (``_clamped``), so
        every flow, infinite arcs' included, is finite.
    """
    net = graph if isinstance(graph, FlowNetwork) else FlowNetwork.from_cut_graph(graph)
    if net.n == 0:
        return FlowState(np.zeros(0), np.zeros(0), np.zeros(0), 0.0)
    if method == "auto":
        method = "scipy" if net.n > _SCIPY_NODE_THRESHOLD else "float"
    if method == "scipy":
        return _scipy_flow(net)
    if method != "float":
        raise ValueError(f"unknown method {method!r}")
    # tolerance from the caller's network: a clamp-sized max_cap would
    # inflate it
    return _dinic(_clamped(net)[0], net.tol())


def _residual_reach(net: FlowNetwork, state: FlowState):
    """Forward reachability from s and reverse reachability from t."""
    tol = net.tol()
    n = net.n
    c_src, c_snk, c_arc = state.caps(net)
    # forward residual arcs: unsaturated arcs plus reversals of flow
    fwd = c_arc - state.z_arc > tol
    rev = state.z_arc > tol
    fu = np.concatenate([net.arc_u[fwd], net.arc_v[rev]])
    fv = np.concatenate([net.arc_v[fwd], net.arc_u[rev]])

    from_s = np.zeros(n, dtype=bool)
    from_s[c_src - state.z_source > tol] = True
    to_t = np.zeros(n, dtype=bool)
    to_t[c_snk - state.z_sink > tol] = True

    if len(fu):
        if n > 512:
            from_s = _bfs_scipy(n, fu, fv, from_s)
            to_t = _bfs_scipy(n, fv, fu, to_t)
        else:
            from_s = _bfs_python(n, fu, fv, from_s)
            to_t = _bfs_python(n, fv, fu, to_t)
    return from_s, to_t


def _bfs_python(n, eu, ev, reached):
    order = np.argsort(eu, kind="stable")
    su, sv = eu[order], ev[order]
    starts = np.searchsorted(su, np.arange(n))
    ends = np.searchsorted(su, np.arange(n) + 1)
    frontier = np.nonzero(reached)[0]
    while len(frontier):
        nxt = []
        for x in frontier:
            for k in range(starts[x], ends[x]):
                y = sv[k]
                if not reached[y]:
                    reached[y] = True
                    nxt.append(y)
        frontier = np.array(nxt, dtype=np.int64)
    return reached


def _bfs_scipy(n, eu, ev, reached):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    seeds = np.nonzero(reached)[0]
    if not len(seeds):
        return reached
    rows = np.concatenate([np.full(len(seeds), n, dtype=np.int64), eu])
    cols = np.concatenate([seeds, ev])
    g = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                   shape=(n + 1, n + 1))
    order = breadth_first_order(g, n, directed=True,
                                return_predecessors=False)
    out = np.zeros(n, dtype=bool)
    out[order[order < n]] = True
    return out


def min_cut(graph, state: FlowState) -> tuple[set, set]:
    """Extract the extreme optimal (sink-side) sets from a maximum flow.

    Returns (S_min, S_max): the unique smallest and largest sink-side
    minimum cuts.  Every optimal set T satisfies S_min <= T <= S_max.

    Raises
    ------
    StaleFlow
        If ``state`` is not a valid maximum flow for ``graph``.
    """
    net = graph if isinstance(graph, FlowNetwork) else FlowNetwork.from_cut_graph(graph)
    report = check_flow(net, state)
    if not report.is_valid_flow:
        raise StaleFlow("; ".join(report.violations) or "state is not a valid flow")
    from_s, to_t = _residual_reach(net, state)
    if np.any(from_s & to_t):
        raise StaleFlow("augmenting path exists; flow is not maximum")
    s_min = set(np.flatnonzero(to_t).tolist())
    s_max = set(np.flatnonzero(~from_s).tolist())
    return s_min, s_max


def read_dimacs(path) -> FlowNetwork:
    """Read a DIMACS max-flow file into a FlowNetwork."""
    n_decl = None
    source = sink = None
    arcs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            try:
                if parts[0] == "p":
                    if len(parts) != 4 or parts[1] not in ("max", "MAX"):
                        raise ParseError(f"bad problem line: {line!r}")
                    n_decl = int(parts[2])
                elif parts[0] == "n":
                    if parts[2] == "s":
                        source = int(parts[1])
                    elif parts[2] == "t":
                        sink = int(parts[1])
                    else:
                        raise ParseError(f"bad node designator: {line!r}")
                elif parts[0] == "a":
                    arcs.append((int(parts[1]), int(parts[2]), float(parts[3])))
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad line {line!r}: {exc}") from exc
    if n_decl is None or source is None or sink is None:
        raise ParseError("missing problem line or terminal designators")
    if source == sink:
        raise ParseError(f"node {source} is both source and sink")
    u, v, c = np.array(arcs, dtype=np.float64).reshape(-1, 3).T
    u, v = u.astype(np.int64), v.astype(np.int64)
    ends = np.concatenate([[source, sink], u, v])
    bad = ends[(ends < 1) | (ends > n_decl)]
    if len(bad):
        raise ParseError(f"node {bad[0]} outside 1..{n_decl}")
    # interior nodes are everything except the declared terminals,
    # renumbered densely from 0
    remap = np.cumsum(~np.isin(np.arange(n_decl + 1), [0, source, sink])) - 1
    n = n_decl - 2
    # arcs into s or out of t cross no s-t cut; s -> t crosses all alike
    keep = (v != source) & (u != sink) & ((u != source) | (v != sink))
    out_s, into_t = keep & (u == source), keep & (v == sink)
    mid = keep & ~out_s & ~into_t
    return FlowNetwork(n, np.bincount(remap[v[out_s]], c[out_s], n),
                       np.bincount(remap[u[into_t]], c[into_t], n),
                       remap[u[mid]], remap[v[mid]], c[mid])

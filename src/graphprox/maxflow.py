"""Maximum-flow / minimum-cut solver.

The default algorithm is highest-label push-relabel with the gap heuristic
and periodic global relabeling (every n relabels).  For large graphs an
exact dyadic rescaling to integers lets scipy's C implementation do the
work; both backends share the same interface and are cross-checked in the
test suite.

Infinite capacities are represented by ``np.inf`` flags, never by large
finite sentinels.  An infinite terminal arc forces its node onto one side
of every finite cut; an infinite interior arc forces its endpoints onto a
common side.  Such nodes are contracted away before the core solver runs,
and the contracted flows are recovered afterwards.

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
    Interior arcs are directed triples (arc_u[k], arc_v[k], arc_cap[k]).
    Capacities may be np.inf.
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
        if np.any(self.arc_cap < 0) or np.any(self.source_caps < 0) \
                or np.any(self.sink_caps < 0):
            raise DimensionMismatch("capacities must be nonnegative")

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
    ran on rescaled-integer capacities, ``eff_source``/``eff_sink``/
    ``eff_arc`` record the effective capacities actually enforced; checks
    and cut extraction use them in place of the originals.
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
        ex = self.z_source - self.z_sink
        np.add.at(ex, net.arc_v, self.z_arc)
        np.add.at(ex, net.arc_u, -self.z_arc)
        return ex


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
# infinite-capacity contraction
# ---------------------------------------------------------------------------

class _Contraction:
    """Merge inf-terminal nodes into the terminals and inf arcs' endpoints
    into supernodes, producing a finite network plus recovery data."""

    def __init__(self, net: FlowNetwork):
        n = net.n
        inf_s = np.isinf(net.source_caps)
        inf_t = np.isinf(net.sink_caps)
        inf_arc_any = bool(np.any(np.isinf(net.arc_cap)))
        if not (inf_s.any() or inf_t.any() or inf_arc_any):
            # nothing infinite: identity contraction
            self.net = net
            self.sub = net
            self.trivial = True
            self.side_s = np.zeros(n, dtype=bool)
            self.side_t = np.zeros(n, dtype=bool)
            self.inf_arc = np.zeros(len(net.arc_u), dtype=bool)
            return
        if np.any(inf_s & inf_t):
            raise DimensionMismatch("node pinned to both terminals")

        # union-find over interior nodes plus the two terminals
        parent = np.arange(n + 2, dtype=np.int64)
        S, T = n, n + 1

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx == ry:
                return
            # keep terminal labels as representatives
            if ry in (S, T):
                rx, ry = ry, rx
            if rx in (S, T) and ry in (S, T):
                raise DimensionMismatch("infinite path links source to sink")
            parent[ry] = rx

        for i in np.nonzero(inf_s)[0]:
            union(S, int(i))
        for i in np.nonzero(inf_t)[0]:
            union(T, int(i))
        inf_arc = np.isinf(net.arc_cap)
        for k in np.nonzero(inf_arc)[0]:
            union(int(net.arc_u[k]), int(net.arc_v[k]))

        root = np.array([find(x) for x in range(n + 2)], dtype=np.int64)
        self.side_s = root[:n] == root[S]
        self.side_t = root[:n] == root[T]
        free = ~(self.side_s | self.side_t)
        reps = np.unique(root[:n][free])
        self.local = -np.ones(n + 2, dtype=np.int64)
        self.local[reps] = np.arange(len(reps))
        self.m = len(reps)
        self.node_local = np.where(free, self.local[root[:n]], -1)
        self.root = root
        self.net = net
        self.inf_arc = inf_arc

        src = np.where(np.isinf(net.source_caps), 0.0, net.source_caps)
        snk = np.where(np.isinf(net.sink_caps), 0.0, net.sink_caps)
        csrc = np.zeros(self.m)
        csnk = np.zeros(self.m)
        keep = self.node_local >= 0
        np.add.at(csrc, self.node_local[keep], src[keep])
        np.add.at(csnk, self.node_local[keep], snk[keep])

        # re-point finite arcs; arcs absorbed into a terminal become
        # terminal capacity, arcs inside a supernode vanish
        au, av, ac = net.arc_u, net.arc_v, net.arc_cap
        fin = ~inf_arc
        lu = np.where(self.side_s[au], -2, np.where(self.side_t[au], -3,
                                                    self.node_local[au]))
        lv = np.where(self.side_s[av], -2, np.where(self.side_t[av], -3,
                                                    self.node_local[av]))
        self.arc_kind = np.full(len(au), 0, dtype=np.int8)  # 0 drop,1 int,2 src,3 snk
        for k in np.nonzero(fin)[0]:
            a, b = lu[k], lv[k]
            if a >= 0 and b >= 0 and a != b:
                self.arc_kind[k] = 1
            elif a == -2 and b >= 0:
                csrc[b] += ac[k]
                self.arc_kind[k] = 2
            elif a >= 0 and b == -3:
                csnk[a] += ac[k]
                self.arc_kind[k] = 3
            # arcs into s, out of t, or inside one supernode never carry
            # cut-relevant flow and are dropped
        keep_arcs = self.arc_kind == 1
        self.kept_idx = np.nonzero(keep_arcs)[0]
        self.sub = FlowNetwork(self.m, csrc, csnk,
                               lu[keep_arcs], lv[keep_arcs], ac[keep_arcs])
        self.trivial = not (np.any(inf_s) or np.any(inf_t) or np.any(inf_arc))

    def lift_state(self, sub_state: FlowState) -> FlowState:
        """Map a flow on the contracted network back to the original arcs."""
        net = self.net
        n = net.n
        z_arc = np.zeros(len(net.arc_u))
        z_arc[self.kept_idx] = sub_state.z_arc
        z_src = np.zeros(n)
        z_snk = np.zeros(n)
        free = self.node_local >= 0

        # distribute supernode terminal flows to members greedily
        used_src = np.zeros(self.m)
        used_snk = np.zeros(self.m)
        order = np.nonzero(free)[0]
        for i in order:
            li = self.node_local[i]
            c = net.source_caps[i]
            take = min(c, sub_state.z_source[li] - used_src[li])
            if take > 0:
                z_src[i] = take
                used_src[li] += take
            c = net.sink_caps[i]
            take = min(c, sub_state.z_sink[li] - used_snk[li])
            if take > 0:
                z_snk[i] = take
                used_snk[li] += take
        # arcs absorbed into terminals carry their share of terminal flow
        for k in np.nonzero(self.arc_kind == 2)[0]:
            li = self.node_local[net.arc_v[k]]
            take = min(net.arc_cap[k], sub_state.z_source[li] - used_src[li])
            if take > 0:
                z_arc[k] = take
                used_src[li] += take
        for k in np.nonzero(self.arc_kind == 3)[0]:
            li = self.node_local[net.arc_u[k]]
            take = min(net.arc_cap[k], sub_state.z_sink[li] - used_snk[li])
            if take > 0:
                z_arc[k] = take
                used_snk[li] += take

        # inf-terminal nodes: saturate finite opposite-terminal arcs and
        # balance through the infinite terminal arc
        for i in np.nonzero(self.side_s)[0]:
            z_snk[i] = net.sink_caps[i] if np.isfinite(net.sink_caps[i]) else 0.0
        for i in np.nonzero(self.side_t)[0]:
            z_src[i] = net.source_caps[i] if np.isfinite(net.source_caps[i]) else 0.0

        # resolve infinite (tie) arc flows from member imbalances: tie
        # pairs form links (usually with both arc directions present);
        # process the link forest leaf-inward, routing each node's
        # remaining imbalance through its last link
        if np.any(self.inf_arc):
            import collections
            tie_idx = np.nonzero(self.inf_arc)[0]
            links: dict[tuple[int, int], list[int]] = collections.defaultdict(list)
            for k in tie_idx:
                a, b = int(net.arc_u[k]), int(net.arc_v[k])
                links[(min(a, b), max(a, b))].append(int(k))
            ex = z_src - z_snk
            np.add.at(ex, net.arc_v, z_arc)
            np.add.at(ex, net.arc_u, -z_arc)
            absorbing = self.side_s | self.side_t
            remaining = dict(links)
            incident = collections.defaultdict(set)
            for pair in remaining:
                incident[pair[0]].add(pair)
                incident[pair[1]].add(pair)
            queue = [i for i in incident
                     if len(incident[i]) == 1 and not absorbing[i]]
            while queue:
                i = queue.pop()
                live = [p for p in incident[i] if p in remaining]
                if len(live) != 1:
                    continue
                pair = live[0]
                arcs = remaining.pop(pair)
                other = pair[1] if pair[0] == i else pair[0]
                send = ex[i]  # flow i -> other
                arc_fwd = next((k for k in arcs if net.arc_u[k] == i), None)
                arc_bwd = next((k for k in arcs if net.arc_v[k] == i), None)
                if send >= 0 and arc_fwd is not None:
                    z_arc[arc_fwd] = send
                elif send < 0 and arc_bwd is not None:
                    z_arc[arc_bwd] = -send
                elif arc_fwd is not None:
                    z_arc[arc_fwd] = send  # single-direction tie
                else:
                    z_arc[arc_bwd] = -send
                ex[other] += send
                ex[i] = 0.0
                live_other = [p for p in incident[other] if p in remaining]
                if len(live_other) == 1 and not absorbing[other]:
                    queue.append(other)
        # pin infinite-terminal flows to close the balance
        ex = z_src - z_snk
        np.add.at(ex, net.arc_v, z_arc)
        np.add.at(ex, net.arc_u, -z_arc)
        for i in np.nonzero(self.side_s)[0]:
            if np.isinf(net.source_caps[i]):
                z_src[i] = max(0.0, z_src[i] - ex[i])
        for i in np.nonzero(self.side_t)[0]:
            if np.isinf(net.sink_caps[i]):
                z_snk[i] = max(0.0, z_snk[i] + ex[i])
        return FlowState(z_src, z_snk, z_arc, float(z_src.sum()))


# ---------------------------------------------------------------------------
# push-relabel core (pure python, float capacities)
# ---------------------------------------------------------------------------

def _push_relabel(net: FlowNetwork) -> FlowState:
    n = net.n
    N = n + 2
    S, T = n, n + 1
    tol = net.tol()

    # residual arc arrays; paired arcs at 2k, 2k+1
    to: list[int] = []
    res: list[float] = []
    adj: list[list[int]] = [[] for _ in range(N)]

    def add_arc(a, b, cap):
        adj[a].append(len(to))
        to.append(b)
        res.append(cap)
        adj[b].append(len(to))
        to.append(a)
        res.append(0.0)

    src_arc = np.full(n, -1, dtype=np.int64)
    snk_arc = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        if net.source_caps[i] > 0:
            src_arc[i] = len(to)
            add_arc(S, i, float(net.source_caps[i]))
        if net.sink_caps[i] > 0:
            snk_arc[i] = len(to)
            add_arc(i, T, float(net.sink_caps[i]))
    int_arc = np.full(len(net.arc_u), -1, dtype=np.int64)
    for k in range(len(net.arc_u)):
        if net.arc_cap[k] > 0:
            int_arc[k] = len(to)
            add_arc(int(net.arc_u[k]), int(net.arc_v[k]), float(net.arc_cap[k]))

    height = [0] * N
    excess = [0.0] * N
    cur = [0] * N
    cnt = [0] * (2 * N + 1)

    def global_relabel():
        # heights = BFS distance to t in the residual; unreachable nodes
        # get N + distance to s (so they drain back to the source)
        INF = 2 * N
        h = [INF] * N
        h[T] = 0
        dq = [T]
        while dq:
            nxt = []
            for x in dq:
                for aid in adj[x]:
                    y = to[aid]
                    if h[y] == INF and res[aid ^ 1] > tol:
                        h[y] = h[x] + 1
                        nxt.append(y)
            dq = nxt
        h[S] = N
        dq = [S]
        while dq:
            nxt = []
            for x in dq:
                for aid in adj[x]:
                    y = to[aid]
                    if h[y] == INF and res[aid ^ 1] > tol:
                        h[y] = h[x] + 1
                        nxt.append(y)
            dq = nxt
        for x in range(N):
            if h[x] == INF:
                h[x] = 2 * N
        for i in range(2 * N + 1):
            cnt[i] = 0
        for x in range(N):
            height[x] = h[x]
            cnt[h[x]] += 1
            cur[x] = 0

    # initialize: saturate source arcs
    height[S] = N
    for aid in adj[S]:
        if aid % 2 == 0 and res[aid] > 0:
            d = res[aid]
            res[aid] = 0.0
            res[aid ^ 1] += d
            excess[to[aid]] += d
            excess[S] -= d
    global_relabel()

    buckets: list[list[int]] = [[] for _ in range(2 * N + 1)]
    in_bucket = [False] * N
    highest = 0
    for x in range(n):
        if excess[x] > tol:
            buckets[height[x]].append(x)
            in_bucket[x] = True
            highest = max(highest, height[x])

    relabels = 0
    work_since_gr = 0

    def activate(x):
        nonlocal highest
        if x < n and not in_bucket[x] and excess[x] > tol:
            buckets[height[x]].append(x)
            in_bucket[x] = True
            if height[x] > highest:
                highest = height[x]

    while True:
        while highest >= 0 and not buckets[highest]:
            highest -= 1
        if highest < 0:
            break
        x = buckets[highest].pop()
        in_bucket[x] = False
        if excess[x] <= tol:
            continue
        # discharge x
        while excess[x] > tol:
            if cur[x] >= len(adj[x]):
                # relabel
                old = height[x]
                mn = 4 * N
                for aid in adj[x]:
                    if res[aid] > tol:
                        mn = min(mn, height[to[aid]])
                height[x] = mn + 1 if mn < 4 * N else 2 * N
                cur[x] = 0
                cnt[old] -= 1
                cnt[height[x]] += 1
                relabels += 1
                work_since_gr += 1
                if cnt[old] == 0 and old < N:
                    # gap heuristic: heights above the gap are unreachable
                    for y in range(n):
                        if old < height[y] < N:
                            cnt[height[y]] -= 1
                            height[y] = N + 1
                            cnt[N + 1] += 1
                if height[x] >= 2 * N:
                    break
                if work_since_gr >= max(n, 16):
                    work_since_gr = 0
                    global_relabel()
                    activate(x)
                    break
            else:
                aid = adj[x][cur[x]]
                y = to[aid]
                if res[aid] > tol and height[x] == height[y] + 1:
                    d = min(excess[x], res[aid])
                    res[aid] -= d
                    res[aid ^ 1] += d
                    excess[x] -= d
                    excess[y] += d
                    activate(y)
                else:
                    cur[x] += 1
        activate(x)

    # assemble flows: flow on paired arc = reverse residual
    z_src = np.zeros(n)
    z_snk = np.zeros(n)
    for i in range(n):
        if src_arc[i] >= 0:
            z_src[i] = res[int(src_arc[i]) ^ 1]
        if snk_arc[i] >= 0:
            z_snk[i] = res[int(snk_arc[i]) ^ 1]
    z_arc = np.zeros(len(net.arc_u))
    for k in range(len(net.arc_u)):
        if int_arc[k] >= 0:
            z_arc[k] = res[int(int_arc[k]) ^ 1]
    return FlowState(z_src, z_snk, z_arc, float(z_snk.sum()))


# ---------------------------------------------------------------------------
# scipy backend (exact dyadic integer scaling)
# ---------------------------------------------------------------------------

def _quantize_network(net: FlowNetwork) -> tuple[FlowNetwork, float]:
    """Snap finite capacities down onto a power-of-two grid so the scipy
    backend's int32 arithmetic is exact.

    Capacities above the trivial flow bound are clamped first (such arcs
    can never lie on a minimum cut).  scipy keeps the residual of arc
    u -> v as c(u, v) - f(u, v) in int32, which reaches c(u, v) + c(v, u);
    where that sum wraps, it silently returns a non-maximum flow.  So the
    grid leaves room for twice the largest arc capacity, not only for the
    flow bound.  Returns the quantized network and the grid quantum.
    """
    def side_sum(caps):
        return np.inf if np.any(np.isinf(caps)) else float(caps.sum())

    bound = min(side_sum(net.source_caps), side_sum(net.sink_caps))
    if not np.isfinite(bound):
        finite = [c[np.isfinite(c)].sum()
                  for c in (net.source_caps, net.sink_caps, net.arc_cap)]
        bound = float(sum(finite))
    clamp = bound * (1.0 + 1e-9) + 1.0
    arcs = net.arc_cap[np.isfinite(net.arc_cap)]
    top = max(clamp, 2.0 * min(float(arcs.max(initial=0.0)), clamp))
    scale_bits = int(np.floor(np.log2((2.0 ** 31 - 1) / (top + 1.0))))
    scale = float(2.0 ** scale_bits)

    def snap(caps):
        out = np.where(np.isfinite(caps),
                       np.floor(np.minimum(caps, clamp) * scale) / scale, caps)
        return out

    qnet = FlowNetwork(net.n, snap(net.source_caps), snap(net.sink_caps),
                       net.arc_u, net.arc_v, snap(net.arc_cap))
    return qnet, 1.0 / scale


def _scipy_backend(net: FlowNetwork, scale: float) -> FlowState:
    """Exact solve of a quantized network (finite capacities on the
    1/scale grid) via scipy's integer max-flow."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import maximum_flow

    n = net.n
    S, T = n, n + 1
    rows = np.concatenate([np.full(n, S), np.arange(n), net.arc_u])
    cols = np.concatenate([np.arange(n), np.full(n, T), net.arc_v])
    caps = np.concatenate([net.source_caps, net.sink_caps, net.arc_cap])
    icaps = np.round(caps * scale).astype(np.int64)
    keep = icaps > 0
    g = coo_matrix((icaps[keep], (rows[keep], cols[keep])),
                   shape=(n + 2, n + 2)).tocsr()
    # CSR construction sums parallel arcs; terminal arcs never collide, so
    # interior arcs are distinct iff no kept entry was merged away
    merged = int(keep.sum()) != g.nnz
    res = maximum_flow(g, S, T)
    flow = res.flow.tocsr()
    flow.sort_indices()
    scale = float(scale)
    width = n + 2
    counts = np.diff(flow.indptr)
    fkeys = np.repeat(np.arange(width, dtype=np.int64), counts) * width \
        + flow.indices
    fdata = flow.data

    # per-arc flows: positive entries of the antisymmetric flow matrix,
    # looked up by key in the CSR structure
    def get_flows(r, c):
        qkeys = np.asarray(r, dtype=np.int64) * width + np.asarray(c)
        if len(fkeys) == 0:
            return np.zeros(len(qkeys))
        pos = np.minimum(np.searchsorted(fkeys, qkeys), len(fkeys) - 1)
        vals = np.where(fkeys[pos] == qkeys, fdata[pos], 0).astype(np.float64)
        return np.maximum(vals, 0.0) / scale

    z_src = get_flows(np.full(n, S), np.arange(n)) if n else np.zeros(0)
    z_snk = get_flows(np.arange(n), np.full(n, T)) if n else np.zeros(0)
    m = len(net.arc_u)
    # arcs dropped from the graph (zero integer capacity) carry no flow,
    # even when a kept twin shares their key
    z_arc = np.where(keep[2 * n:], get_flows(net.arc_u, net.arc_v), 0.0)
    if merged:
        # parallel arcs were summed by CSR construction: recover a valid
        # per-arc split greedily within each duplicate group
        z_pair = z_arc
        z_arc = np.zeros(m)
        keys = net.arc_u * (net.n + 1) + net.arc_v
        order = np.argsort(keys, kind="stable")
        k = 0
        while k < m:
            j = k
            while j < m and keys[order[j]] == keys[order[k]]:
                j += 1
            remaining = z_pair[order[k:j]].max()
            for idx in order[k:j]:
                take = min(remaining, net.arc_cap[idx])
                z_arc[idx] = take
                remaining -= take
            k = j
    return FlowState(z_src, z_snk, z_arc, float(z_snk.sum()))


def max_flow(graph, method: str = "auto") -> FlowState:
    """Compute a maximum flow.

    Parameters
    ----------
    graph : FlowNetwork or CutGraph
    method : {"auto", "push_relabel", "scipy"}
        "auto" uses push-relabel up to a size threshold and the scipy
        backend beyond it.

    Returns
    -------
    FlowState
        A valid flow of maximum value.  ``value`` includes flow through
        infinite-capacity contractions.
    """
    net = graph if isinstance(graph, FlowNetwork) else FlowNetwork.from_cut_graph(graph)
    if net.n == 0:
        return FlowState(np.zeros(0), np.zeros(0), np.zeros(0), 0.0)
    if method == "auto":
        method = "scipy" if net.n > _SCIPY_NODE_THRESHOLD else "push_relabel"
    if method == "scipy":
        qnet, quantum = _quantize_network(net)
        contraction = _Contraction(qnet)
        sub_state = _scipy_backend(contraction.sub, 1.0 / quantum)
        state = sub_state if contraction.trivial else contraction.lift_state(sub_state)
        state.eff_source = qnet.source_caps
        state.eff_sink = qnet.sink_caps
        state.eff_arc = qnet.arc_cap
        return state
    if method != "push_relabel":
        raise ValueError(f"unknown method {method!r}")
    contraction = _Contraction(net)
    sub_state = _push_relabel(contraction.sub)
    if contraction.trivial:
        return sub_state
    return contraction.lift_state(sub_state)


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
    s_min = set(int(i) for i in np.nonzero(to_t)[0])
    s_max = set(int(i) for i in np.nonzero(~from_s)[0])
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
    # interior nodes are everything except the declared terminals,
    # renumbered densely from 0
    ids = sorted(set(range(1, n_decl + 1)) - {source, sink})
    remap = {node: k for k, node in enumerate(ids)}
    n = len(ids)
    src = np.zeros(n)
    snk = np.zeros(n)
    au, av, ac = [], [], []
    for u, v, c in arcs:
        if u == source and v == sink:
            continue
        if u == source:
            src[remap[v]] += c
        elif v == sink:
            snk[remap[u]] += c
        elif v == source or u == sink:
            continue
        else:
            au.append(remap[u])
            av.append(remap[v])
            ac.append(c)
    return FlowNetwork(n, src, snk, np.array(au, dtype=np.int64),
                       np.array(av, dtype=np.int64), np.array(ac))

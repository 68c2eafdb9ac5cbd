"""Recursive bisection engine behind the parametric and weighted solvers.

One pass of the engine computes the optimal pseudoflow alpha* whose
reduction vector is the (weighted) minimum-norm point, by recursively
splitting node blocks with minimum cuts at pivot levels:

* a block with positive total weight pivots at sum(r) / sum(w), the unique
  level that zero-sums the shifted unary terms;
* a block of all-zero weights is the uniform-epsilon limit of the weighted
  problem, which degenerates to the unweighted rule (pivot at mean r);
* a block containing anchored nodes pivots at the mean anchor value, and
  anchors are pinned to a side with infinite terminal arcs.

The recursion runs one depth at a time, and a block is a connected
component of the live edges.  Once the crossing edges of a cut are
saturated and folded into the diagonal, a block's problem is the sum of
its components' problems, so its minimum-norm point is theirs side by
side; each component therefore pivots on its own, and a node left without
a live edge finishes as its own level set with no flow call.  Every live
node carries its block id, every live edge its endpoints' block id, and
pivots, termination tests, finalization and splits are array operations
over those ids.  Blocks never share an edge, so the blocks of one depth
are cut together as the disjoint union of their networks, whose extreme
cuts restricted to a block are that block's own: all blocks of at most
``_SCIPY_NODE_THRESHOLD`` nodes share one max-flow call per depth, and
larger blocks get one call each (a union of large blocks makes every
phase of scipy's max-flow sweep the whole union, which is slower than
solving them apart).  Anchors sitting exactly at their block's pivot need
a second solve, batched the same way, in which each block's anchors are
one free node.

When a block's cut is trivial the block is one level set; the depth's
flow already routes every node's excess (into the merged anchors of the
second solve, where the block has anchors), so the equalizing interior
flows are harvested from it directly.  Crossing edges of nontrivial cuts
are saturated and folded into the diagonal of the high-side endpoint.

The engine records, per node, the level its block terminated at and the
flip thresholds governing level-set membership:
``i in U1(beta) iff beta > flip_lo[i]`` and
``i in U2(beta) iff beta >= flip_hi[i]``.
For positive-weight nodes both flips equal r_i / w_i.  Zero-weight nodes
fused into a mixed block flip with the block; zero-weight nodes resolved
inside an all-zero block get +/-inf flips by the sign of their reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .maxflow import _SCIPY_NODE_THRESHOLD, FlowNetwork, max_flow, min_cut
from .qbm import QuadraticBinaryProblem

TERM_TOL = 1e-9  # relative tolerance for "block is one level set"
ZERO_W_TOL = 1e-12


@dataclass
class ParametricSolution:
    """Full output of a parametric solve."""

    problem: QuadraticBinaryProblem
    weights: np.ndarray
    alpha: np.ndarray
    levels: np.ndarray      # target reduction value per node
    flip_lo: np.ndarray     # i in U1(beta)  iff  beta >  flip_lo[i]
    flip_hi: np.ndarray     # i in U2(beta)  iff  beta >= flip_hi[i]
    anchor_mask: np.ndarray | None = None

    def interior(self) -> np.ndarray:
        """Mask of non-anchor nodes."""
        if self.anchor_mask is None:
            return np.ones(self.problem.n, dtype=bool)
        return ~self.anchor_mask

    def u1(self, beta: float) -> set:
        m = (beta > self.flip_lo) & self.interior()
        return set(np.flatnonzero(m).tolist())

    def u2(self, beta: float) -> set:
        m = (beta >= self.flip_hi) & self.interior()
        return set(np.flatnonzero(m).tolist())

    def breakpoints(self) -> np.ndarray:
        f = self.flip_hi[self.interior()]
        return np.unique(f[np.isfinite(f)])


def _block_network(problem: QuadraticBinaryProblem, cap, nodes, edges,
                   unary, inf_src, inf_snk, local) -> FlowNetwork:
    """The flow network of the blocks made of ``nodes`` (global ids) and
    ``edges`` (the problem edges inside them).

    ``unary``, ``inf_src``, ``inf_snk`` and ``local``, the network node of
    each, align with ``nodes``.  Nodes sharing a network node merge: their
    unaries add up and the edges between them get no capacity.  ``cap`` is
    the per-edge capacity of the whole problem, split evenly over the two
    arc directions.  Arc k and arc k + len(edges) carry edge k forward and
    backward.
    """
    m = int(local.max(initial=-1)) + 1
    loc = np.empty(problem.n, dtype=np.int64)
    loc[nodes] = local
    lu, lv = loc[problem.edge_u[edges]], loc[problem.edge_v[edges]]
    half = np.where(lu == lv, 0.0, 0.5 * cap[edges])
    unary = np.bincount(local, unary, m)
    src = np.where(np.bincount(local, inf_src, m) > 0, np.inf,
                   np.maximum(unary, 0.0))
    snk = np.where(np.bincount(local, inf_snk, m) > 0, np.inf,
                   np.maximum(-unary, 0.0))
    return FlowNetwork(m, src, snk, np.concatenate([lu, lv]),
                       np.concatenate([lv, lu]), np.concatenate([half, half]))


def _mask(ids: set, n: int) -> np.ndarray:
    """Boolean mask of length n flagging the network node ids in ``ids``."""
    m = np.zeros(n, dtype=bool)
    m[np.fromiter(ids, dtype=np.int64, count=len(ids))] = True
    return m


def solve_parametric(problem: QuadraticBinaryProblem, weights=None,
                     anchor_mask=None, anchor_values=None,
                     method: str = "auto") -> ParametricSolution:
    """Run the recursive bisection to optimality.

    Parameters
    ----------
    problem : QuadraticBinaryProblem
    weights : array of nonnegative node weights, default all ones.
    anchor_mask, anchor_values : optional anchored-node specification.
        Anchored nodes are pinned at their value: their membership flips
        exactly there regardless of flow (infinite-weight limit).
    method : flow solver backend passed through to max_flow.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = problem.n
    if weights is None:
        weights = np.ones(n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise DimensionMismatch(f"weights must have length {n}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise DimensionMismatch("weights must be finite and nonnegative")
    if anchor_mask is None:
        anchor_mask = np.zeros(n, dtype=bool)
        anchor_values = np.zeros(n)
    anchor_mask = np.asarray(anchor_mask, dtype=bool)
    anchor_values = np.asarray(anchor_values, dtype=np.float64)

    cap = np.where(problem.ties, np.inf, -problem.edge_q)  # alpha box bounds
    static_q = np.where(problem.ties, 0.0, problem.edge_q)
    eu, ev = problem.edge_u, problem.edge_v

    diag = problem.diag.copy()
    alpha = np.zeros(problem.n_edges)
    levels = np.zeros(n)
    flip_lo = np.zeros(n)
    flip_hi = np.zeros(n)

    # per-node magnitude bound: |r_i| never exceeds |q_ii| plus half the
    # incident coupling mass, so this scales the fuse tolerance safely
    half_q = 0.5 * np.abs(static_q)
    half_mass = np.bincount(eu, half_q, n) + np.bincount(ev, half_q, n)
    bound = np.abs(diag) + half_mass
    scale = max(1.0, float(bound[~anchor_mask].max()) if (~anchor_mask).any()
                else 1.0)
    del half_q, half_mass, bound

    loc = np.empty(n, dtype=np.int64)  # scratch: global -> live position

    def regroup(nodes, edges):
        """Live nodes and edges sorted by block, with their block ids: the
        blocks are the connected components of the live edges, numbered
        0..B-1, so block b owns one contiguous slice of each array."""
        L = len(nodes)
        loc[nodes] = np.arange(L)
        lu = loc[eu[edges]]
        graph = coo_matrix((np.ones(len(edges)), (lu, loc[ev[edges]])),
                           shape=(L, L))
        label = connected_components(graph, directed=False)[1]
        elabel = label[lu]
        order = np.argsort(label, kind="stable")
        eorder = np.argsort(elabel, kind="stable")
        return nodes[order], label[order], edges[eorder], elabel[eorder]

    nodes, bid, edges, ebid = regroup(np.arange(n),
                                      np.arange(problem.n_edges))

    def cut(blocks, unary, src_pin, snk_pin, flow=None, merge=None):
        """Extreme sink-side cuts of the current depth's ``blocks``, as
        masks over live nodes: blocks of at most _SCIPY_NODE_THRESHOLD
        nodes in one union network, larger ones alone.  The live nodes
        flagged by ``merge`` form one network node per block.  ``flow``
        receives the forward-minus-backward flow of each edge inside
        them."""
        s_min = np.zeros(len(nodes), dtype=bool)
        s_max = np.zeros(len(nodes), dtype=bool)
        small = blocks & (size <= _SCIPY_NODE_THRESHOLD)
        starts = np.concatenate([[0], np.cumsum(size)])
        estarts = np.concatenate(
            [[0], np.cumsum(np.bincount(ebid, minlength=len(size)))])
        groups = [(small[bid], small[ebid])] if small.any() else []
        groups += [(slice(starts[b], starts[b + 1]),
                    slice(estarts[b], estarts[b + 1]))
                   for b in np.nonzero(blocks & ~small)[0]]
        for gn, ge in groups:
            g_nodes = nodes[gn]
            local = np.arange(len(g_nodes))
            if merge is not None:
                key = np.where(merge[gn], -1 - bid[gn], local)
                local = np.unique(key, return_inverse=True)[1]
            net = _block_network(problem, cap, g_nodes, edges[ge],
                                 unary[gn], src_pin[gn], snk_pin[gn], local)
            state = max_flow(net, method=method)
            lo, hi = min_cut(net, state)
            s_min[gn] = _mask(lo, net.n)[local]
            s_max[gn] = _mask(hi, net.n)[local]
            if flow is not None:
                k = len(net.arc_u) // 2
                flow[ge] = state.z_arc[:k] - state.z_arc[k:]
            del net, state
        return s_min, s_max

    def splits(mask):
        """Blocks that ``mask`` (over live nodes) cuts nontrivially."""
        cnt = np.bincount(bid, mask, len(size))
        return (cnt > 0) & (cnt < size)

    while len(nodes):
        L, B = len(nodes), int(bid[-1]) + 1
        size = np.bincount(bid, minlength=B)
        anch = anchor_mask[nodes]
        a_val = anchor_values[nodes]

        # reductions of live nodes under the current diagonal and zero
        # flow inside blocks
        loc[nodes] = np.arange(L)
        half = 0.5 * static_q[edges]
        r = diag[nodes] + np.bincount(loc[eu[edges]], half, L) \
            + np.bincount(loc[ev[edges]], half, L)
        del half

        # pivots: mean anchor value, else sum(r) / sum(w), else (all-zero
        # weights) mean r
        w_nd = w[nodes]
        n_anch = np.bincount(bid, anch, B)
        sw = np.bincount(bid, w_nd, B)
        zero = (n_anch == 0) & (sw <= ZERO_W_TOL)
        num = np.where(n_anch > 0, np.bincount(bid, np.where(anch, a_val, 0.0), B),
                       np.bincount(bid, r, B))
        mu = num / np.where(n_anch > 0, n_anch, np.where(zero, size, sw))
        w_eff = np.where(zero[bid], 1.0, w_nd)
        unary = np.where(anch, 0.0, r - mu[bid] * w_eff)
        del r, w_nd
        tol = TERM_TOL * np.maximum(np.abs(mu), scale)
        spread = np.zeros(B)
        np.maximum.at(spread, bid, np.abs(unary))
        done = (size == 1) | ((n_anch == 0) & (spread <= tol))
        active = ~done
        split = np.zeros(B, dtype=bool)

        if active.any():
            # anchors at or below the pivot are pinned to the sink (low) side
            tie_tol = (TERM_TOL * np.maximum(1.0, np.abs(mu)))[bid]
            at_pivot = anch & (np.abs(a_val - mu[bid]) <= tie_tol)
            inf_snk = anch & (a_val <= mu[bid] + tie_tol)
            inf_src = anch & ~inf_snk
            del tie_tol
            flow = np.zeros(len(edges))
            s_min, s_max = cut(active, unary, inf_src, inf_snk, flow)
            by_max, by_min = splits(s_max), splits(s_min)
            # anchors exactly at the pivot sit in U2 but not U1; the strict
            # split must not hold them low.  A block that held them low
            # unsplit has every anchor at the pivot.  Merged into one free
            # node whose unary cancels the block's, they give the strict
            # split of anchors pinned high, and where nothing splits, a flow
            # that routes every node's excess, into them if need be: the
            # block's equalizing flow, which the first cut's need not be
            again = active & ~by_max & ~by_min & \
                (np.bincount(bid, at_pivot, B) > 0)
            if again.any():
                share = -np.bincount(bid, unary, B) / np.maximum(n_anch, 1)
                free = np.zeros(L, dtype=bool)
                s_min2, _ = cut(again, np.where(anch, share[bid], unary),
                                free, free, flow, merge=anch)
                redo = again[bid]
                s_min[redo] = s_min2[redo]
                by_min |= again & splits(s_min2)
            split = by_max | by_min
            low = np.where(by_max[bid], s_max, s_min)

            # single level sets: harvest the equalizing interior flows from
            # the depth's last (fully saturating) solve of the block
            he = (active & ~split)[ebid]
            e = edges[he]
            alpha[e] = np.clip(2.0 * flow[he], -cap[e], cap[e])
            done |= active & ~split

        # finished blocks: anchors sit at their value; all-zero blocks
        # resolve by the sign of their level (strictly below zero never,
        # weakly below always when it is zero)
        fin = done[bid]
        g, b = nodes[fin], bid[fin]
        a_g, av = anch[fin], a_val[fin]
        levels[g] = np.where(a_g, av, mu[b] * w_eff[fin])
        lo = np.where(a_g, av, mu[b])
        hi = lo.copy()
        zb = zero[b]
        lo[zb] = np.where(mu[b[zb]] < -tol[b[zb]], -np.inf, np.inf)
        hi[zb] = np.where(mu[b[zb]] > tol[b[zb]], np.inf, -np.inf)
        flip_lo[g] = lo
        flip_hi[g] = hi
        if not split.any():
            break

        # split blocks: saturate crossing edges (u < v globally: low-u means
        # alpha at -cap, flow v -> u; low-v means alpha at +cap, flow u -> v)
        # and let the high endpoint absorb the static coupling
        keep_n, keep_e = split[bid], split[ebid]
        u_low, v_low = low[loc[eu[edges]]], low[loc[ev[edges]]]
        cross = keep_e & (u_low != v_low)
        cu, cv = edges[cross & u_low], edges[cross & v_low]
        alpha[cu] = -cap[cu]
        alpha[cv] = cap[cv]
        diag += np.bincount(ev[cu], static_q[cu], n) \
            + np.bincount(eu[cv], static_q[cv], n)
        keep_e &= ~cross

        # children: the components of what is left of the split blocks
        nodes, bid, edges, ebid = regroup(nodes[keep_n], edges[keep_e])

    sol = ParametricSolution(problem, w, alpha, levels, flip_lo, flip_hi,
                             anchor_mask if anchor_mask.any() else None)
    return sol


def bisection_cut(problem: QuadraticBinaryProblem, weights, T, alpha,
                  tol: float = TERM_TOL):
    """One weighted bisection step on node subset T (exposed primitive).

    Computes the pivot level for T from the current reductions, shifts the
    unary terms, and returns the maximal minimum-cut set (a subset of T,
    possibly empty or all of T).  Returns an empty set immediately when
    every shifted unary term vanishes within tolerance.  When the total
    weight on T is zero the cut splits positive from negative reductions
    (the beta = 0 cut), per the zero-weight branch of the weighted
    bisection rule.

    The current pseudoflow must vanish on edges internal to T.
    """
    from .parametric import reductions

    w = np.asarray(weights, dtype=np.float64)
    T = np.asarray(sorted(T), dtype=np.int64)
    r = reductions(problem, alpha).r[T]
    w_T = w[T]
    sw = float(w_T.sum())
    if sw > ZERO_W_TOL:
        mu = float(r.sum()) / sw
        unary = r - mu * w_T
    else:
        mu = 0.0
        unary = r.copy()
    scale = max(1.0, float(np.abs(r).max(initial=0.0)))
    if float(np.abs(unary).max(initial=0.0)) <= tol * scale:
        return set()

    in_T = np.zeros(problem.n, dtype=bool)
    in_T[T] = True
    edges = np.nonzero(in_T[problem.edge_u] & in_T[problem.edge_v])[0]
    cap = np.where(problem.ties, np.inf, -problem.edge_q)
    pinned = np.zeros(len(T), dtype=bool)
    net = _block_network(problem, cap, T, edges, unary, pinned, pinned,
                         np.arange(len(T)))
    _, s_max = min_cut(net, max_flow(net))
    return set(T[_mask(s_max, len(T))].tolist())

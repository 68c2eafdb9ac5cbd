"""Recursive bisection engine behind the parametric and weighted solvers.

One pass of the engine computes the optimal pseudoflow alpha* whose
reduction vector is the (weighted) minimum-norm point, by recursively
splitting node blocks with minimum cuts at pivot levels:

* a block with positive total weight pivots at sum(r) / sum(w), the unique
  level that zero-sums the shifted unary terms;
* a block whose weights sum to 0 is the uniform-epsilon limit of the weighted
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
cuts restricted to a block are that block's own.  All blocks of at most
``_SCIPY_NODE_THRESHOLD`` nodes share one network per depth, which goes to
the float backend (the C push-relabel) whatever its total size: its pushes
and relabels stay inside each block, while every phase of scipy's
max-flow would sweep the whole union.  Where the kernel cannot be built,
the union goes to ``max_flow``'s ``"auto"`` like any other network, as the
float backend is then pure-Python shortest augmenting paths, slow on large
networks: it gets only the unions of at most the threshold.  Larger blocks
get one network each and ``"auto"``, which is scipy for a free network
above the threshold; the caller chooses no backend.  Anchors sitting
exactly at their block's pivot need a second solve, batched the same way,
in which each block's anchors are one free node.  ``maxflow.fix_sides``
first fixes every node whose unary outweighs all its arcs, so only the
nodes left go to ``max_flow`` and ``min_cut`` (on a chain-fused prox,
nearly none).

After each depth ``_components`` labels the blocks again, in a few
whole-array passes of min-label hooking and pointer jumping, and numbers
them by their smallest live node, as scipy's ``connected_components``
does.  The proxes of a FISTA fit, one edge set under new diagonals, make
what a solve takes from the edges alone, the first depth's blocks
included, once per fit (``_edge_data``).

Each depth cuts its blocks on the residual network of the pseudoflow
alpha that the depths above it left, as parametric max-flow reuses flow
across parameter values (Gallo, Grigoriadis and Tarjan, 1989).  An edge
inside a block carries the flow g = alpha / 2 (u -> v, in network units):
its arcs are cap/2 - g and cap/2 + g, and the reductions that give the
unary terms are taken under g.  Routing g moved unaries and arcs alike, so
every cut of a block shifts by one constant, and pivots, levels, flips and
both extreme cuts are those of a solve from zero flow; the max flow only
routes what g left, and on the scipy backend a child also routes what its
parent's snapped solve left over.  The anchored second solve starts from
the same g.

After the depth's solves each edge inside a block carries g plus the flow
h of its block's last solve.  A block that is one level set harvests
alpha = 2 (g + h): its last solve routes every node's excess (into the
merged anchors of the second solve, where the block has anchors), and a
block found flat with no flow call is already equalized by g.  Crossing
edges of nontrivial cuts are saturated and folded into the diagonal of the
high-side endpoint; the edges left inside the children keep g + h.

Each block has one tolerance, TERM_TOL times the larger of the pivot in
units of r (|sum(r)| / |block|; for a block with anchors, their mean) and
the problem's largest bound on |r_i| over non-anchor nodes: the block is
one level set when no unary strays further from its pivot, and an anchor
that close to the pivot sits at it.  Neither this tolerance nor
``FlowNetwork.tol()`` holds an absolute constant, so data and weights far
below 1 are not read as flat blocks or saturated arcs.

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

from .maxflow import (_SCIPY_NODE_THRESHOLD, _kernel, _prechecked,
                      fix_sides, max_flow, min_cut)
from .qbm import QuadraticBinaryProblem, _check_beta, _check_weights

TERM_TOL = 1e-9  # relative tolerance for "block is one level set"


@dataclass
class ParametricSolution:
    """Full output of a parametric solve."""

    problem: QuadraticBinaryProblem
    alpha: np.ndarray
    levels: np.ndarray      # target reduction value per node
    flip_lo: np.ndarray     # i in U1(beta)  iff  beta >  flip_lo[i]
    flip_hi: np.ndarray     # i in U2(beta)  iff  beta >= flip_hi[i]
    anchor_mask: np.ndarray  # anchored nodes (all False: none)

    def interior(self) -> np.ndarray:
        """Mask of non-anchor nodes."""
        return ~self.anchor_mask

    def u1(self, beta: float) -> set:
        m = (_check_beta(beta) > self.flip_lo) & self.interior()
        return set(np.flatnonzero(m).tolist())

    def u2(self, beta: float) -> set:
        m = (_check_beta(beta) >= self.flip_hi) & self.interior()
        return set(np.flatnonzero(m).tolist())

    def breakpoints(self) -> np.ndarray:
        f = self.flip_hi[self.interior()]
        return np.unique(f[np.isfinite(f)])


def _components(L: int, lu, lv) -> np.ndarray:
    """Connected-component label of each of the nodes 0..L-1 joined by the
    edges ``lu[k] -- lv[k]``, numbered 0..C-1 by each component's smallest
    node, as scipy's ``connected_components`` numbers them.

    Min-label hooking with pointer jumping (Shiloach and Vishkin, J.
    Algorithms 1982): every label points at a node no larger than itself.
    Each round hooks the larger root of every edge whose ends still differ
    onto the smaller one, then jumps pointers until each label is a root;
    edges whose ends share a root are dropped for good.  When no edge is
    left, each component's root is its smallest node.
    """
    label = np.arange(L)
    while True:
        a, b = label[lu], label[lv]
        live = (a != b).nonzero()[0]
        if not len(live):
            break
        lu, lv, a, b = lu[live], lv[live], a[live], b[live]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = label[label]
            if not np.count_nonzero(up != label):
                break
            label = up
    roots = label == np.arange(L)
    number = np.empty(L, dtype=np.int64)
    number[roots] = np.arange(np.count_nonzero(roots))
    return number[label]


def _regroup(loc, eu, ev, nodes, edges):
    """Live nodes and edges sorted by block, with their block ids: the
    blocks are the connected components of the live edges (``eu[edges] --
    ev[edges]``), labelled by ``_components`` and numbered 0..B-1 in the
    order of their smallest live position, so block b owns one contiguous
    slice of each array.  ``loc`` is scratch space of one entry per node of
    the problem."""
    L = len(nodes)
    if not len(edges):  # each node a block of its own, as at a last depth
        return nodes, np.arange(L), edges, edges
    loc[nodes] = np.arange(L)
    lu = loc[eu[edges]]
    label = _components(L, lu, loc[ev[edges]])
    elabel = label[lu]
    order = label.argsort(kind="stable")
    eorder = elabel.argsort(kind="stable")
    return nodes[order], label[order], edges[eorder], elabel[eorder]


def _edge_data(problem: QuadraticBinaryProblem):
    """``(cap, static_q, half_mass, first)``: what a solve takes from the
    problem's edges alone, read-only.  ``cap`` is each edge's alpha box
    bound, ``static_q`` its coupling (0 for a tie), ``half_mass`` each
    node's half incident coupling mass, and ``first`` the first depth's
    ``_regroup`` of every node and edge.  Where the problem has a list in
    ``_edge_data`` (the QBMs of a FISTA fit's proxes, ``with_diag`` copies
    of one another), it is kept there, made again only once an edge array
    has been set to another object; other problems keep nothing, so a
    solve holds no more memory than it uses."""
    kept, key = problem._edge_data, (problem.edge_u, problem.edge_v,
                                     problem.edge_q)
    if kept and all(x is y for x, y in zip(kept[0], key)):
        return kept[1]
    n, eu, ev, ties = problem.n, problem.edge_u, problem.edge_v, problem.ties
    cap = np.where(ties, np.inf, -problem.edge_q)
    static_q = np.where(ties, 0.0, problem.edge_q)
    half_q = 0.5 * np.abs(static_q)
    half_mass = np.bincount(eu, half_q, n) + np.bincount(ev, half_q, n)
    first = _regroup(np.empty(n, dtype=np.int64), eu, ev, np.arange(n),
                     np.arange(problem.n_edges))
    for arr in (cap, static_q, half_mass) + first:
        arr.setflags(write=False)
    if kept is not None:
        kept[:] = [key, (cap, static_q, half_mass, first)]
    return cap, static_q, half_mass, first


def _block_cut(problem: QuadraticBinaryProblem, cap, nodes, edges, g, unary,
               inf_src, inf_snk, local, method: str):
    """Extreme sink-side minimum cuts of the blocks made of ``nodes``
    (global ids) and ``edges`` (the problem edges inside them), solved on
    the residual network of the flow ``g`` those edges already carry.

    ``g`` is each edge's u -> v flow in network units (half of alpha), and
    ``unary`` the nodes' reductions under it, shifted by their pivot.
    ``unary``, ``inf_src`` and ``inf_snk``, the nodes pinned to a terminal
    (None: none is), and ``local``, the network node of each (None: its
    own), align with ``nodes``.  Nodes sharing a network node merge: their
    unaries add up and the edges between them get no capacity; a merged
    network has no pins.  ``method`` is ``max_flow``'s backend.  ``cap`` is
    the per-edge capacity of the whole problem; edge u -> v gets the arcs
    u -> v of cap/2 - g and v -> u of cap/2 + g, clipped at 0, what the box
    leaves each direction.  Routing ``g`` moved both unaries and arcs by the
    same flow, so every cut's capacity shifts by one constant and the
    minimum cuts are those of the zero-flow network.  Returns ``(s_min,
    s_max, h)``: boolean masks aligned with ``nodes`` and the
    forward-minus-backward max-flow of each edge, which adds to ``g``.
    """
    m = len(nodes) if local is None else int(local.max(initial=-1)) + 1
    loc = np.empty(problem.n, dtype=np.int64)
    loc[nodes] = np.arange(m) if local is None else local
    lu, lv = loc[problem.edge_u[edges]], loc[problem.edge_v[edges]]
    half = 0.5 * cap[edges]
    arcs = np.maximum(np.concatenate([half - g, half + g]), 0.0)  # u->v, v->u
    if local is not None:
        arcs[np.tile(lu == lv, 2)] = 0.0
        unary = np.bincount(local, unary, m)
    src, snk = np.maximum(unary, 0.0), np.maximum(-unary, 0.0)
    if inf_src is not None:
        src[inf_src] = np.inf
        snk[inf_snk] = np.inf
    # the arrays come from a checked problem and every capacity is clipped
    # at 0, so the network needs no checks
    side, sub, lift = fix_sides(_prechecked(
        m, src, snk, np.concatenate([lu, lv]), np.concatenate([lv, lu]),
        arcs))
    # the solve needs only sub and lift: free the block network's parts
    del loc, lu, lv, half, arcs, unary, src, snk
    s_min = side < 0
    s_max = s_min.copy()
    state = None
    if sub.n:
        state = max_flow(sub, method=method)
        free = (side == 0).nonzero()[0]
        for mask, ids in zip((s_min, s_max), min_cut(sub, state)):
            mask[free[np.fromiter(ids, dtype=np.int64, count=len(ids))]] = True
    z = lift(state)
    k = len(edges)
    if local is not None:
        s_min, s_max = s_min[local], s_max[local]
    return s_min, s_max, z[:k] - z[k:]


def solve_parametric(problem: QuadraticBinaryProblem, weights=None,
                     anchor_mask=None, anchor_values=None) -> ParametricSolution:
    """Run the recursive bisection to optimality.

    Parameters
    ----------
    problem : QuadraticBinaryProblem
    weights : array of nonnegative node weights, default all ones.
    anchor_mask, anchor_values : optional anchored-node specification.
        Anchored nodes are pinned at their value: their membership flips
        exactly there regardless of flow (infinite-weight limit).

    The engine picks each network's max-flow backend as the module
    docstring says.
    """
    n = problem.n
    w = _check_weights(weights, n)
    if anchor_mask is None:
        anchor_mask = np.zeros(n, dtype=bool)
        anchor_values = np.zeros(n)
    anchor_mask = np.asarray(anchor_mask, dtype=bool)
    anchor_values = np.asarray(anchor_values, dtype=np.float64)

    cap, static_q, half_mass, first = _edge_data(problem)
    eu, ev = problem.edge_u, problem.edge_v
    has_anchors = anchor_mask.any()

    diag = problem.diag.copy()
    alpha = np.zeros(problem.n_edges)
    levels = np.zeros(n)
    flip_lo = np.zeros(n)
    flip_hi = np.zeros(n)

    # per-node magnitude bound: |r_i| never exceeds |q_ii| plus half the
    # incident coupling mass, so this scales the fuse tolerance safely, in
    # the data's own units
    bound = np.abs(diag) + half_mass
    scale = float(bound[~anchor_mask].max(initial=0.0))
    del half_mass, bound

    loc = np.empty(n, dtype=np.int64)  # scratch: global -> live position
    nodes, bid, edges, ebid = first
    del first

    def cut(blocks, unary, src_pin, snk_pin, flow, merge=None):
        """Extreme sink-side cuts of the current depth's ``blocks``, as
        masks over live nodes: blocks of at most _SCIPY_NODE_THRESHOLD
        nodes in one union network for the float backend (for "auto"
        where the kernel is not loaded), larger ones alone for "auto".
        ``src_pin`` and ``snk_pin`` flag the live nodes pinned to a
        terminal (None: none is), and the live nodes flagged by ``merge``
        form one network node per block (with no pins).  ``flow``
        receives the forward-minus-backward flow of each edge inside them,
        on top of the carried ``g``."""
        s_min = np.zeros(len(nodes), dtype=bool)
        s_max = np.zeros(len(nodes), dtype=bool)
        large = blocks & (size > _SCIPY_NODE_THRESHOLD)
        small = blocks ^ large
        groups = []
        if np.count_nonzero(small):
            groups.append((small[bid].nonzero()[0], small[ebid].nonzero()[0],
                           "float" if _kernel() is not None else "auto"))
        for b in large.nonzero()[0]:
            # block b's slices of the live nodes and edges
            n0, n1 = np.searchsorted(bid, (b, b + 1))
            e0, e1 = np.searchsorted(ebid, (b, b + 1))
            groups.append((slice(n0, n1), slice(e0, e1), "auto"))
        for gn, ge, how in groups:
            local = None
            if merge is not None:
                joined = merge[gn]
                key = np.where(joined, -1 - bid[gn], np.arange(len(joined)))
                local = np.unique(key, return_inverse=True)[1]
            pins = (None, None) if src_pin is None else (src_pin[gn], snk_pin[gn])
            s_min[gn], s_max[gn], flow[ge] = _block_cut(
                problem, cap, nodes[gn], edges[ge], g[ge], unary[gn], *pins,
                local, how)
        return s_min, s_max

    def splits(mask):
        """Blocks that ``mask`` (over live nodes) cuts nontrivially."""
        cnt = np.bincount(bid, mask, B)
        return (cnt > 0) & (cnt < size)

    while len(nodes):
        L, B = len(nodes), int(bid[-1]) + 1
        size = np.bincount(bid, minlength=B)
        anch = anchor_mask[nodes] if has_anchors else None
        anchored = has_anchors and anch.any()

        # reductions of live nodes under the current diagonal and the flow
        # g (u -> v, half of alpha) that the edges inside blocks carry
        # (edge endpoints as live positions are made where they are used, so
        # that no edge-sized index array lives through the cut)
        loc[nodes] = np.arange(L)
        g = 0.5 * alpha[edges]
        half = 0.5 * static_q[edges]
        r = diag[nodes] + np.bincount(loc[eu[edges]], half - g, L) \
            + np.bincount(loc[ev[edges]], half + g, L)
        del half

        # pivots: mean anchor value, else sum(r) / sum(w), else (all-zero
        # weights) mean r
        w_nd = w[nodes]
        sw = np.bincount(bid, w_nd, B)
        num = np.bincount(bid, r, B)
        if anchored:
            a_val = anchor_values[nodes]
            n_anch = np.bincount(bid, anch, B)
            pinned = n_anch > 0
            zero = ~pinned & (sw == 0)
            num = np.where(pinned, np.bincount(bid, np.where(anch, a_val, 0.0), B),
                           num)
            mu = num / np.where(pinned, n_anch, np.where(zero, size, sw))
        else:
            zero = sw == 0
            mu = num / np.where(zero, size, sw)
        any_zero = np.count_nonzero(zero)
        w_eff = np.where(zero[bid], 1.0, w_nd) if any_zero else w_nd
        unary = r - mu[bid] * w_eff
        if anchored:
            unary[anch] = 0.0
        del r, w_nd
        # the pivot in r's units: mu times the mean weight (pinned: anchor mean)
        piv = np.where(pinned, mu, num / size) if anchored else num / size
        tol = TERM_TOL * np.maximum(np.abs(piv), scale)
        spread = np.zeros(B)
        np.maximum.at(spread, bid, np.abs(unary))
        flat = spread <= tol
        if anchored:
            flat &= ~pinned
        done = (size == 1) | flat
        active = ~done
        split = np.zeros(B, dtype=bool)
        flow = np.zeros(len(edges))

        if np.count_nonzero(active):
            inf_src = inf_snk = None
            if anchored:
                # anchors at or below the pivot are pinned to the sink
                # (low) side
                tie_tol = tol[bid]
                at_pivot = anch & (np.abs(a_val - mu[bid]) <= tie_tol)
                inf_snk = anch & (a_val <= mu[bid] + tie_tol)
                inf_src = anch & ~inf_snk
                del tie_tol
            s_min, s_max = cut(active, unary, inf_src, inf_snk, flow)
            by_max, by_min = splits(s_max), splits(s_min)
            # anchors exactly at the pivot sit in U2 but not U1; the strict
            # split must not hold them low.  A block that held them low
            # unsplit has every anchor at the pivot.  Merged into one free
            # node whose unary cancels the block's, they give the strict
            # split of anchors pinned high, and where nothing splits, a flow
            # that routes every node's excess, into them if need be: the
            # block's equalizing flow, which the first cut's need not be
            if anchored:
                again = active & ~by_max & ~by_min & \
                    (np.bincount(bid, at_pivot, B) > 0)
                if again.any():
                    share = -np.bincount(bid, unary, B) / np.maximum(n_anch, 1)
                    s_min2, _ = cut(again, np.where(anch, share[bid], unary),
                                    None, None, flow, merge=anch)
                    redo = again[bid]
                    s_min[redo] = s_min2[redo]
                    by_min |= again & splits(s_min2)
            split = by_max | by_min
            low = np.where(by_max[bid], s_max, s_min)
            done |= active & ~split

        # every edge inside a block now carries g plus the depth's last
        # solve of its block.  Single level sets harvest that sum: a flat
        # block's g already equalizes it, and an unsplit block's last,
        # fully saturating solve routes every node's excess
        alpha[edges] = 2.0 * (g + flow)
        e = edges[done[ebid]]
        alpha[e] = alpha[e].clip(-cap[e], cap[e])

        # finished blocks: anchors sit at their value; all-zero blocks
        # resolve by the sign of their level (strictly below zero never,
        # weakly below always when it is zero)
        fin = done[bid].nonzero()[0]
        f, b = nodes[fin], bid[fin]
        lo = mu[b]
        level = lo * w_eff[fin]
        if anchored:
            a_f = anch[fin]
            level[a_f] = lo[a_f] = a_val[fin][a_f]
        levels[f] = level
        hi = lo
        if any_zero:
            hi = lo.copy()
            zb = zero[b]
            lo[zb] = np.where(mu[b[zb]] < -tol[b[zb]], -np.inf, np.inf)
            hi[zb] = np.where(mu[b[zb]] > tol[b[zb]], np.inf, -np.inf)
        flip_lo[f] = lo
        flip_hi[f] = hi
        if not np.count_nonzero(split):
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

        # children: the components of what is left of the split blocks,
        # whose edges keep their flow
        nodes, bid, edges, ebid = _regroup(loc, eu, ev, nodes[keep_n],
                                           edges[keep_e])

    return ParametricSolution(problem, alpha, levels, flip_lo, flip_hi,
                              anchor_mask)


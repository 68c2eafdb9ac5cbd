"""Max-flow solver: duality against brute force, extreme cuts, flow checks,
and the C kernel against the pure-Python shortest augmenting paths that
replace it where it cannot be built."""

import itertools
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import graphprox._engine as engine
from graphprox import (DimensionMismatch, FlowNetwork, FlowState,
                       QuadraticBinaryProblem, StaleFlow, check_flow,
                       max_flow, min_cut, solve_weighted, to_cut_graph)
from graphprox import maxflow
from graphprox.maxflow import _augmenting_paths, _clamped, _reach, fix_sides
from graphprox.oracle import brute_force_minimizers
from conftest import random_submodular

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on PATH")


def brute_min_cut(net):
    """Enumerate all sink-side sets; returns (value, optimal frozensets)."""
    n = net.n
    best, sets = np.inf, []
    for r in range(n + 1):
        for sink_side in itertools.combinations(range(n), r):
            sink = set(sink_side)
            cost = sum(net.source_caps[i] for i in sink)
            cost += sum(net.sink_caps[i] for i in range(n) if i not in sink)
            for k in range(len(net.arc_u)):
                u, v = net.arc_u[k], net.arc_v[k]
                if u not in sink and v in sink:
                    cost += net.arc_cap[k]
            if cost < best - 1e-12:
                best, sets = cost, [frozenset(sink)]
            elif cost <= best + 1e-12:
                sets.append(frozenset(sink))
    return best, sets


def random_network(rng, n, cap_max=20):
    m = int(rng.integers(0, 2 * n + 1))
    au = rng.integers(0, n, m)
    av = rng.integers(0, n, m)
    keep = au != av
    return FlowNetwork(n,
                       rng.integers(0, cap_max + 1, n).astype(float),
                       rng.integers(0, cap_max + 1, n).astype(float),
                       au[keep], av[keep],
                       rng.integers(0, cap_max + 1, int(keep.sum())).astype(float))


class TestMaxFlow:
    def test_single_path(self):
        # s -> 1 (cap 3) -> t (cap 1): bottleneck 1
        net = FlowNetwork(1, np.array([3.0]), np.array([1.0]))
        assert max_flow(net).value == pytest.approx(1.0)

    def test_two_parallel_paths(self):
        net = FlowNetwork(2, np.array([2.0, 5.0]), np.array([2.0, 5.0]))
        assert max_flow(net).value == pytest.approx(7.0)

    def test_empty_graph(self):
        net = FlowNetwork(0, np.zeros(0), np.zeros(0))
        assert max_flow(net).value == 0.0

    @pytest.mark.parametrize("method", ["float", "scipy"])
    def test_duality_random(self, rng, method):
        for _ in range(60):
            n = int(rng.integers(1, 9))
            net = random_network(rng, n)
            state = max_flow(net, method=method)
            value, _ = brute_min_cut(net)
            assert state.value == pytest.approx(value, abs=1e-9)
            assert check_flow(net, state) == []

    def test_float_capacities(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 8))
            net = random_network(rng, n)
            net = FlowNetwork(n, net.source_caps * 0.137, net.sink_caps * 0.137,
                              net.arc_u, net.arc_v, net.arc_cap * 0.137)
            state = max_flow(net, method="float")
            value, _ = brute_min_cut(net)
            assert state.value == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("arcs", [
        ([0], [-1], [1.0]),            # head out of range (negative)
        ([0], [2], [1.0]),             # head past n
        ([-1], [1], [1.0]),            # tail out of range
        ([0, 1], [1], [1.0]),          # arc arrays of unequal length
        ([0], [1], [1.0, 2.0]),
        ([[0]], [[1]], [[1.0]]),       # 2-D arc arrays of equal length
        ([0], [1], [[1.0]]),
        ([0], [1], [np.nan]),          # NaN arc capacity
        ([0], [1], [-1.0]),
        ([0.5], [1], [1.0]),           # used to be truncated to node 0
        ([np.nan], [1], [1.0]),        # used to give a numpy warning
        ([0], [-np.inf], [1.0]),
        ([0.0], [2.0 ** 70], [1.0]),   # integral, but past int64
    ])
    def test_malformed_arcs_rejected(self, arcs):
        with pytest.raises(DimensionMismatch):
            FlowNetwork(2, [1.0, 0.0], [0.0, 1.0], *arcs)

    def test_nan_terminal_capacity_rejected(self):
        with pytest.raises(DimensionMismatch):
            FlowNetwork(2, [np.nan, 0.0], [0.0, 1.0])
        with pytest.raises(DimensionMismatch):
            FlowNetwork(2, [1.0, 0.0], [0.0, np.nan])

    @pytest.mark.parametrize("src, snk", [([1.0], [0.0, 1.0]),
                                          ([1.0, 0.0], [0.0, 1.0, 2.0]),
                                          ([[1.0, 0.0]], [[0.0, 1.0]])])
    def test_terminal_arrays_of_other_length_rejected(self, src, snk):
        with pytest.raises(DimensionMismatch, match="length n"):
            FlowNetwork(2, src, snk)

    def test_backends_agree(self, rng):
        for _ in range(25):
            net = random_network(rng, int(rng.integers(1, 10)))
            v1 = max_flow(net, method="float").value
            v2 = max_flow(net, method="scipy").value
            assert v1 == pytest.approx(v2, abs=1e-6)


def wide_range_block(seed):
    """A bisection-block-like network whose capacities span seven decades:
    a_i = N(0,1) * 10^U(-4,3), n to 4n distinct undirected edges, each
    direction with capacity 500 * 10^U(-4,3)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 61))
    a = rng.normal(0, 1, n) * 10.0 ** rng.uniform(-4, 3, n)
    m = int(rng.integers(n, 4 * n + 1))
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = u != v
    key = np.unique(np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep])
    lo, hi = key // n, key % n
    fwd = 500 * 10.0 ** rng.uniform(-4, 3, len(lo))
    bwd = 500 * 10.0 ** rng.uniform(-4, 3, len(lo))
    return FlowNetwork(n, np.maximum(a, 0), np.maximum(-a, 0),
                       np.concatenate([lo, hi]), np.concatenate([hi, lo]),
                       np.concatenate([fwd, bwd]))


class TestScipyBackend:
    @pytest.mark.parametrize("seed", [3, 368, 776, 1206])
    def test_int32_headroom(self, seed):
        # without headroom in the integer grid, scipy's int32 sums of
        # antiparallel capacities wrap and it returns a non-maximum flow
        net = wide_range_block(seed)
        state = max_flow(net, method="scipy")
        min_cut(net, state)  # raises StaleFlow on a non-maximum flow
        exact = max_flow(net, method="float").value
        assert state.value == pytest.approx(exact, rel=1e-6)

    def test_zero_flow_bound_keeps_small_capacities(self):
        # no sink arc, so no flow passes: the grid still follows the
        # capacities, and arcs of 1e-10 keep nodes 0 and 1 on the source side
        net = FlowNetwork(3, [1e-10, 0.0, 0.0], [0.0, 0.0, 0.0], [0], [1],
                          [1e-10])
        assert min_cut(net, max_flow(net, "scipy")) == (set(), {2})

    def test_headroom_only_for_large_arcs(self):
        # flow bound about 4000: arcs far below it keep the full-range
        # grid, arcs near it halve the grid step (one bit for c(u,v) +
        # c(v,u)).  Terminal capacities 1000 - 2^-40 lie off every grid,
        # so their snapped value 1000 - quantum reads the grid off eff_*.
        def quantum(src, snk, arcs, caps):
            state = max_flow(FlowNetwork(4, src, snk, *arcs, caps), "scipy")
            return 1000.0 - state.eff_source[1]

        off = 1000.0 - 2.0 ** -40
        src = snk = np.full(4, off)
        chain = ([0, 1, 2], [1, 2, 3])
        fine = quantum(src, snk, chain, [0.25] * 3)
        assert fine == 2.0 ** -19
        assert quantum(src, snk, chain, [3000.0] * 3) == 2 * fine
        # pins on both sides: the clamp comes from the finite capacities
        # (about 4000.75), and the pinned terminal arcs, clamped to it,
        # leave no room of their own: only interior pairs get headroom
        pin_src = [np.inf, off, off, 0.0]
        pin_snk = [0.0, off, off, np.inf]
        pinned = quantum(pin_src, pin_snk, chain, [0.25] * 3)
        assert pinned == 2.0 ** -19
        # infinite arcs 3 -> 2 -> 1 -> 0 carry the clamp in each direction
        tied = quantum(pin_src, pin_snk, chain[::-1], [np.inf] * 3)
        assert tied == 2 * pinned

    @pytest.mark.parametrize("method", ["float", "scipy"])
    @pytest.mark.parametrize("caps", [[1.5, 2.0, 0.0], [2.0, 0.0],
                                      [3.0, 3.0, 2.0, 3.0]])
    def test_parallel_arcs(self, method, caps):
        # repeated arc 0 -> 1, including a zero-capacity twin, then 1 -> 2;
        # in the last case the repeats sum past the int32 room that twice
        # the largest single arc leaves on scipy's grid
        k = len(caps)
        net = FlowNetwork(3, [5.0, 0.0, 0.0], [0.0, 0.0, 4.0],
                          [0] * k + [1], [1] * k + [2], caps + [3.0])
        state = max_flow(net, method=method)
        assert state.value == pytest.approx(min(sum(caps), 3.0))
        assert check_flow(net, state) == []
        s_min, s_max = min_cut(net, state)
        value, sets = brute_min_cut(net)
        assert frozenset(s_min) in sets and frozenset(s_max) in sets


def random_multigraph(rng, n):
    """A random network whose interior arcs repeat up to three times, with
    zero capacities common among them."""
    pairs = rng.integers(0, n, (int(rng.integers(1, 3 * n + 1)), 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    arcs = np.repeat(pairs, rng.integers(1, 4, len(pairs)), axis=0)
    return FlowNetwork(n, rng.integers(0, 6, n).astype(float),
                       rng.integers(0, 6, n).astype(float), arcs[:, 0],
                       arcs[:, 1], rng.integers(0, 4, len(arcs)).astype(float))


class TestParallelArcs:
    def test_scipy_matches_float(self, rng):
        # scipy sums the arcs of a node pair; its pair flow is split back
        # over them, each arc taking up to its own capacity
        for _ in range(200):
            net = random_multigraph(rng, int(rng.integers(2, 9)))
            state = max_flow(net, method="scipy")
            exact = max_flow(net, method="float").value
            assert state.value == pytest.approx(exact, abs=1e-9)
            assert check_flow(net, state) == []


class TestLargeNetworks:
    """The float backend on networks that take many phases, long paths and
    dead ends, against scipy, which is exact on integer capacities."""

    def assert_matches_scipy(self, net):
        state = max_flow(net, method="float")
        ref = max_flow(net, method="scipy")
        assert check_flow(net, state) == []
        assert state.value == pytest.approx(ref.value, abs=1e-9)
        assert min_cut(net, state) == min_cut(net, ref)

    def test_grid_40x40(self, rng):
        # sources on the left columns, sinks on the right ones
        idx = np.arange(1600).reshape(40, 40)
        u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        src, snk = np.zeros((40, 40)), np.zeros((40, 40))
        src[:, :4] = rng.integers(0, 10, (40, 4))
        snk[:, -4:] = rng.integers(0, 10, (40, 4))
        self.assert_matches_scipy(FlowNetwork(
            1600, src.ravel(), snk.ravel(), np.r_[u, v], np.r_[v, u],
            rng.integers(0, 5, 2 * len(u)).astype(float)))

    def test_path_1000(self, rng):
        # one source at the head and sinks along the way: each phase
        # reaches the next sink, the last one by a path through every
        # node, as deep as Python's default recursion limit
        src, snk = np.zeros(1000), np.zeros(1000)
        snk[rng.integers(0, 1000, 30)] = rng.integers(1, 10, 30)
        src[0], snk[-1] = 1000.0, 5.0
        u = np.arange(999)
        fwd = rng.integers(200, 400, 999).astype(float)
        bwd = rng.integers(0, 5, 999).astype(float)
        self.assert_matches_scipy(FlowNetwork(
            1000, src, snk, np.r_[u, u + 1], np.r_[u + 1, u], np.r_[fwd, bwd]))

    def test_multigraph_300(self, rng):
        self.assert_matches_scipy(random_multigraph(rng, 300))

    def test_unknown_method_rejected(self):
        net = FlowNetwork(1, np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            max_flow(net, method="push_relabel")


class TestMinCut:
    def test_unique_cut(self):
        # sink arc bottleneck: node stays on the source side
        net = FlowNetwork(1, np.array([3.0]), np.array([1.0]))
        s_min, s_max = min_cut(net, max_flow(net))
        assert s_min == s_max == set()
        # source arc bottleneck: node joins the sink side
        net = FlowNetwork(1, np.array([1.0]), np.array([3.0]))
        s_min, s_max = min_cut(net, max_flow(net))
        assert s_min == s_max == {0}

    def test_disconnected_zero_caps(self):
        net = FlowNetwork(3, np.zeros(3), np.zeros(3))
        s_min, s_max = min_cut(net, max_flow(net))
        assert s_min == set()
        assert s_max == {0, 1, 2}

    def test_degenerate_bridge(self):
        # two optimal cuts around a free interior edge
        net = FlowNetwork(2, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                          np.array([0, 1]), np.array([1, 0]),
                          np.array([5.0, 5.0]))
        state = max_flow(net)
        s_min, s_max = min_cut(net, state)
        value, sets = brute_min_cut(net)
        assert s_min < s_max
        assert frozenset(s_min) in sets and frozenset(s_max) in sets

    @pytest.mark.parametrize("method", ["float", "scipy"])
    def test_extremes_bound_all_optima(self, rng, method):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            net = random_network(rng, n, cap_max=6)
            state = max_flow(net, method=method)
            s_min, s_max = min_cut(net, state)
            value, sets = brute_min_cut(net)
            assert frozenset(s_min) in sets
            assert frozenset(s_max) in sets
            for opt in sets:
                assert s_min <= opt <= s_max

    def test_stale_flow_rejected(self):
        net = FlowNetwork(1, np.array([3.0]), np.array([1.0]))
        bad = FlowState(np.array([2.0]), np.array([0.0]), np.zeros(0), 2.0)
        with pytest.raises(StaleFlow, match=r"node 0 has \|excess\| 2"):
            min_cut(net, bad)

    def test_non_maximum_flow_rejected(self):
        net = FlowNetwork(1, np.array([3.0]), np.array([1.0]))
        zero = FlowState(np.zeros(1), np.zeros(1), np.zeros(0), 0.0)
        with pytest.raises(StaleFlow):
            min_cut(net, zero)


class TestCheckFlow:
    def net(self):
        return FlowNetwork(2, np.array([2.0, 1.0]), np.array([1.0, 2.0]),
                           np.array([0]), np.array([1]), np.array([1.5]))

    def test_zero_flow_is_flow_not_pseudoflow(self):
        # a valid flow, although its terminal arcs are unsaturated
        net = self.net()
        state = FlowState(np.zeros(2), np.zeros(2), np.zeros(1), 0.0)
        assert check_flow(net, state) == []

    def test_saturated_terminals_is_pseudoflow(self):
        # a pseudoflow, not a flow: node 0 carries excess 1, node 1 deficit 1
        net = self.net()
        state = FlowState(net.source_caps.copy(), net.sink_caps.copy(),
                          np.zeros(1), 3.0)
        violations = check_flow(net, state)
        assert len(violations) == 1
        assert "conservation fails: node 0 has |excess| 1" in violations[0]

    def test_capacity_violation_invalid(self):
        net = self.net()
        state = FlowState(np.array([2.5, 0.0]), np.zeros(2), np.zeros(1), 2.5)
        assert check_flow(net, state) == ["z_source[0] = 2.5 outside [0, 2]"]

    def test_conservation_names_largest_excess(self):
        # excesses (0.5, 1, -2, 1.5): node 2 has the largest |excess|
        net = FlowNetwork(4, np.array([2.0, 0.0, 0.0, 2.0]), np.full(4, 3.0),
                          np.array([0, 1]), np.array([1, 2]),
                          np.array([2.0, 2.0]))
        state = FlowState(np.array([1.5, 0.0, 0.0, 1.5]),
                          np.array([0.0, 0.0, 2.0, 0.0]), np.array([1.0, 0.0]),
                          2.0)
        violations = check_flow(net, state)
        assert len(violations) == 1 and "node 2 has |excess| 2" in violations[0]

    def test_max_flow_output_is_valid(self, rng):
        for _ in range(10):
            net = random_network(rng, int(rng.integers(1, 8)))
            assert check_flow(net, max_flow(net)) == []


class TestInfiniteCapacities:
    def test_source_pinned_node(self):
        # node 0 hard-wired to the source side
        net = FlowNetwork(2, np.array([np.inf, 0.0]), np.array([0.0, 0.5]),
                          np.array([0, 1]), np.array([1, 0]),
                          np.array([2.0, 2.0]))
        state = max_flow(net)
        assert state.value == pytest.approx(0.5)
        s_min, s_max = min_cut(net, state)
        assert 0 not in s_max

    def test_sink_pinned_node(self):
        net = FlowNetwork(2, np.array([0.7, 0.0]), np.array([0.0, np.inf]),
                          np.array([0, 1]), np.array([1, 0]),
                          np.array([2.0, 2.0]))
        state = max_flow(net)
        assert state.value == pytest.approx(0.7)
        s_min, _ = min_cut(net, state)
        assert 1 in s_min

    def test_tie_edge_forces_same_side(self):
        # 0 and 1 tied; cheaper to cut both terminal arcs of the weak side
        net = FlowNetwork(2, np.array([3.0, 0.0]), np.array([0.0, 1.0]),
                          np.array([0, 1]), np.array([1, 0]),
                          np.array([np.inf, np.inf]))
        state = max_flow(net)
        assert state.value == pytest.approx(1.0)
        s_min, s_max = min_cut(net, state)
        assert s_min == set()
        assert s_max == set()

    def test_infinite_st_path_rejected(self):
        net = FlowNetwork(2, np.array([np.inf, 0.0]), np.array([0.0, np.inf]),
                          np.array([0]), np.array([1]), np.array([np.inf]))
        with pytest.raises(DimensionMismatch):
            max_flow(net)

    @pytest.mark.parametrize("method", ["float", "scipy"])
    def test_infinite_chain_rejected(self, method):
        net = FlowNetwork(3, [np.inf, 0.0, 0.0], [0.0, 0.0, np.inf],
                          [0, 1], [1, 2], [np.inf, np.inf])
        with pytest.raises(DimensionMismatch):
            max_flow(net, method=method)

    @pytest.mark.parametrize("method", ["float", "scipy"])
    def test_one_way_arc_into_source_side(self, method):
        # 0 -> 1 infinite: 1 must join the sink side whenever 0 does; here
        # 0 joins it and 1 has no arcs to pay for
        inf = np.inf
        net = FlowNetwork(2, [0.0, 2.0], [2.0, 0.0], [0], [1], [inf])
        state = max_flow(net, method=method)
        assert state.value == 0.0
        assert min_cut(net, state) == ({0}, {0})

    @pytest.mark.parametrize("method", ["float", "scipy"])
    def test_one_way_arc_against_pins(self, method):
        # 1 -> 0 infinite runs from the sink pin to the source pin, which
        # no finite cut crosses the wrong way
        inf = np.inf
        net = FlowNetwork(2, [inf, 0.0], [0.0, inf], [1], [0], [inf])
        state = max_flow(net, method=method)
        assert state.value == 0.0
        assert min_cut(net, state) == ({1}, {1})

    @pytest.mark.parametrize("method", ["float", "scipy"])
    def test_random_against_brute_force(self, rng, method):
        finite = 0
        for _ in range(80):
            n = int(rng.integers(1, 9))
            net = random_network(rng, n, cap_max=6)
            src, snk, cap = net.source_caps, net.sink_caps, net.arc_cap
            pin = rng.random(n)
            src[pin < 0.2] = np.inf
            snk[pin > 0.8] = np.inf
            cap[rng.random(len(cap)) < 0.25] = np.inf   # one-way arcs
            k = int(rng.integers(0, 3))                  # ties
            tu, tv = rng.integers(0, n, k), rng.integers(0, n, k)
            tu, tv = tu[tu != tv], tv[tu != tv]
            net = FlowNetwork(n, src, snk,
                              np.concatenate([net.arc_u, tu, tv]),
                              np.concatenate([net.arc_v, tv, tu]),
                              np.concatenate([cap, np.full(2 * len(tu), np.inf)]))
            value, sets = brute_min_cut(net)
            if not np.isfinite(value):
                with pytest.raises(DimensionMismatch):
                    max_flow(net, method=method)
                continue
            finite += 1
            state = max_flow(net, method=method)
            assert state.value == pytest.approx(value, abs=1e-9)
            s_min, s_max = min_cut(net, state)
            assert s_min == frozenset.intersection(*sets)
            assert s_max == frozenset.union(*sets)
        assert finite >= 40


def quarter_network(rng, n):
    """Quarter-integer capacities, so that exact ties occur, with zero and
    parallel arcs, infinite arcs, and nodes pinned to one terminal; a
    share of the nodes gets terminal arcs large enough to be fixed."""
    m = int(rng.integers(0, 2 * n + 1))
    au, av = rng.integers(0, n, m), rng.integers(0, n, m)
    au, av = au[au != av], av[au != av]
    dup = rng.random(len(au)) < 0.3                      # parallel arcs
    au, av = np.concatenate([au, au[dup]]), np.concatenate([av, av[dup]])
    cap = rng.integers(0, 9, len(au)) / 4.0
    cap[rng.random(len(au)) < 0.1] = np.inf
    src = rng.integers(0, 25, n) / 4.0 * (rng.random(n) < 0.7)
    snk = rng.integers(0, 25, n) / 4.0 * (rng.random(n) < 0.7)
    pin = rng.random(n)
    src[pin < 0.1] = np.inf
    snk[pin > 0.9] = np.inf
    return FlowNetwork(n, src, snk, au, av, cap)


# Run by TestKernel under the sanitizers: the kernel at argv[1] against
# the pure-Python shortest augmenting paths on random networks of 0-80
# nodes, with parallel and antiparallel arcs, about 5 % infinite arcs,
# and some with no arcs at all.  Prints the number of networks solved.
SANITIZED_CHILD = """
import sys
import numpy as np
from graphprox import maxflow
from graphprox.errors import DimensionMismatch

maxflow._lib = maxflow._bind(sys.argv[1])
rng = np.random.default_rng(11)


def caps(k):
    c = rng.uniform(0, 10, k) * (rng.random(k) < 0.8)
    c[rng.random(k) < 0.05] = np.inf
    return c


solved = 0
for t in range(300):
    n = int(rng.integers(0, 81))
    m = int(rng.integers(0, 4 * n + 1)) if t % 10 else 0
    au, av = rng.integers(0, n, m), rng.integers(0, n, m)
    au, av = au[au != av], av[au != av]
    dup = rng.random(len(au)) < 0.2
    anti = rng.random(len(au)) < 0.2
    au = np.concatenate([au, au[dup], av[anti]])
    av = np.concatenate([av, av[dup], au[:len(anti)][anti]])
    net = maxflow.FlowNetwork(n, caps(n), caps(n), au, av, caps(len(au)))
    try:
        cnet = maxflow._clamped(net)[0]
    except DimensionMismatch:
        continue
    state = maxflow.max_flow(net, "float")
    ref = maxflow._augmenting_paths(cnet, net.tol())
    assert abs(state.value - ref.value) <= 1e-9 * max(1.0, ref.value), t
    maxflow.min_cut(net, state)
    solved += 1
print(solved)
"""


def odd_layout(a, dtype):
    """``a`` as ``dtype``, in a strided view of an array twice as long."""
    out = np.zeros(2 * len(a), dtype)
    out[::2] = a
    return out[::2]


def all_cuts(net):
    """(capacity, sink-side mask) of each of the 2^n cuts."""
    n = net.n
    sink = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(bool)
    value = (np.where(sink, net.source_caps, 0.0).sum(1)
             + np.where(sink, 0.0, net.sink_caps).sum(1)
             + np.where(~sink[:, net.arc_u] & sink[:, net.arc_v],
                        net.arc_cap, 0.0).sum(1))
    return value, sink


def with_terminal_flows(net, z_arc):
    """The flow of ``net`` that carries ``z_arc`` and sends as much as its
    terminal arcs allow straight from s through each node to t: a maximum
    flow whenever some terminal flows make ``z_arc`` one."""
    x = np.bincount(net.arc_u, z_arc, net.n) - np.bincount(net.arc_v, z_arc, net.n)
    z_src = np.minimum(net.source_caps, net.sink_caps + x)
    return FlowState(z_src, z_src - x, z_arc, float(z_src.sum()))


def reduced_cut(net, method="float"):
    """(side, lifted arc flows, extreme cuts) of ``net`` solved as
    ``_engine._block_cut`` solves it: max-flow and cut on the free nodes,
    the fixed ones on their side."""
    side, sub, lift = fix_sides(net)
    fixed_low = set(np.flatnonzero(side < 0).tolist())
    if not sub.n:
        return side, lift(FlowState(np.zeros(0), np.zeros(0), np.zeros(0), 0.0)), \
            (fixed_low, fixed_low)
    state = max_flow(sub, method)
    free = np.flatnonzero(side == 0)
    cuts = tuple(fixed_low | set(free[sorted(c)].tolist())
                 for c in min_cut(sub, state))
    return side, lift(state), cuts


class TestFixedSides:
    def test_fixed_nodes_lie_on_their_side_of_every_minimum_cut(self, rng):
        fixed = free = 0
        for _ in range(300):
            net = quarter_network(rng, int(rng.integers(1, 11)))
            try:
                whole = min_cut(net, max_flow(net, "float"))
            except DimensionMismatch:   # no finite cut, or a double pin
                continue
            side, z_arc, cuts = reduced_cut(net)
            value, sink = all_cuts(net)
            near = sink[value <= value.min() + 1e-9]
            assert not near[:, side > 0].any()
            assert near[:, side < 0].all()
            # a node with an infinite out-arc is never fixed to the source
            assert not np.any(side[net.arc_u[np.isinf(net.arc_cap)]] > 0)
            lifted = with_terminal_flows(net, z_arc)
            assert check_flow(net, lifted) == []
            assert min_cut(net, lifted) == whole
            assert cuts == whole
            fixed += int(np.count_nonzero(side))
            free += int(np.count_nonzero(side == 0))
        assert fixed > 300 and free > 300

    def test_nothing_fixed_returns_the_network(self):
        net = FlowNetwork(2, [1.0, 0.0], [0.0, 1.0], [0, 1], [1, 0], [2.0, 2.0])
        side, sub, lift = fix_sides(net)
        assert sub is net and not side.any()

    def test_exact_tie_stays_free(self):
        # moving either node across a minimum cut keeps its capacity
        net = FlowNetwork(2, [2, 0], [0, 2], [0], [1], [2.0])
        side, _, cuts = reduced_cut(net)
        assert side.tolist() == [0, 0]
        assert cuts == (set(), {0, 1})

    def test_rounding_tie_stays_free(self):
        # 0.1 + 0.2 exceeds the out-arc 0.3 by one rounding error, which
        # is within the saturation tolerance
        net = FlowNetwork(2, [0.1 + 0.2, 0.0], [0.0, 0.3], [0], [1], [0.3])
        side, _, cuts = reduced_cut(net)
        assert side.tolist() == [0, 0]
        assert cuts == (set(), {0, 1})

    def test_excess_split_by_capacity(self):
        # nodes 0 and 1 are fixed to the source side; the free node 2
        # passes 3 of their 1 + 3 on to the sink, a quarter on arc 0, and
        # its sink arc is the cheaper cut
        net = FlowNetwork(3, [10.0, 10.0, 0.0], [0.0, 0.0, 3.0], [0, 1], [2, 2],
                          [1.0, 3.0])
        side, z_arc, cuts = reduced_cut(net)
        assert side.tolist() == [1, 1, 0]
        assert z_arc.tolist() == [0.75, 2.25]
        assert cuts == (set(), set())
        assert check_flow(net, with_terminal_flows(net, z_arc)) == []

    def test_source_to_sink_arc_saturated(self):
        net = FlowNetwork(2, [5.0, 0.0], [0.0, 5.0], [0, 1], [1, 0], [2.0, 1.0])
        side, z_arc, cuts = reduced_cut(net)
        assert side.tolist() == [1, -1]
        assert z_arc.tolist() == [2.0, 0.0]
        assert cuts == ({1}, {1})
        assert check_flow(net, with_terminal_flows(net, z_arc)) == []

    def test_double_pin_stays_free(self):
        inf = np.inf
        net = FlowNetwork(2, [inf, 3.0], [inf, 0.0], [1], [0], [1.0])
        side, sub, _ = fix_sides(net)
        assert side.tolist() == [0, 1]
        with pytest.raises(DimensionMismatch):
            max_flow(sub)


class TestCutGraphIntegration:
    def test_min_cut_solves_qbm(self, rng):
        # value of the max flow equals min f + constant on random instances
        for _ in range(20):
            n = int(rng.integers(1, 9))
            prob = random_submodular(rng, n)
            beta = float(rng.normal())
            cut = to_cut_graph(prob, beta, np.ones(n))
            state = max_flow(cut)
            from graphprox import evaluate
            best = min(evaluate(prob, s, beta, np.ones(n))
                       for r in range(n + 1)
                       for s in itertools.combinations(range(n), r))
            assert state.value == pytest.approx(best + cut.sink_caps.sum(),
                                                abs=1e-9)



def python_reach(n, eu, ev, caps, flows, tol):
    """``maxflow._reach`` as a plain Python BFS over adjacency lists."""
    (c_src, c_snk, c_arc), (z_src, z_snk, z_arc) = caps, flows
    out, into = [[] for _ in range(n)], [[] for _ in range(n)]
    for u, v, c, z in zip(eu.tolist(), ev.tolist(), c_arc, z_arc):
        for x, y in ([(u, v)] if c - z > tol else []) + \
                ([(v, u)] if z > tol else []):
            out[x].append(y)
            into[y].append(x)

    def bfs(seeds, adj):
        mask = np.zeros(n, dtype=bool)
        todo = list(seeds)
        mask[todo] = True
        while todo:
            for y in adj[todo.pop()]:
                if not mask[y]:
                    mask[y] = True
                    todo.append(y)
        return mask

    return (bfs(np.flatnonzero(c_src - z_src > tol), out),
            bfs(np.flatnonzero(c_snk - z_snk > tol), into))


@needs_cc
class TestKernel:
    """The C push-relabel and residual search (``_flow.c``)."""

    def test_kernel_loads(self):
        assert maxflow._kernel() is not None, maxflow.kernel_error

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_augmenting_paths(self, seed):
        # hard ties, infinite arcs, pins, zero and parallel arcs, up to
        # about 2k nodes: same value as the pure-Python shortest
        # augmenting paths, a valid flow, and the same extreme cuts
        rng = np.random.default_rng(seed)
        solved = 0
        for n in list(rng.integers(1, 40, 40)) + list(rng.integers(200, 2200, 4)):
            net = quarter_network(rng, int(n))
            try:
                cnet = _clamped(net)[0]
            except DimensionMismatch:
                continue
            state = max_flow(net, "float")
            ref = _augmenting_paths(cnet, net.tol())
            assert state.eff_source is None
            assert check_flow(net, state) == []
            assert state.value == pytest.approx(ref.value, rel=1e-12, abs=1e-9)
            assert min_cut(net, state) == min_cut(net, ref)
            solved += 1
        assert solved >= 25

    def test_qbm_cuts_match_brute_force_minimizers(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 10))
            prob = random_submodular(rng, n)
            beta = float(rng.normal())
            cut = to_cut_graph(prob, beta, np.ones(n))
            s_min, s_max = min_cut(cut, max_flow(cut, "float"))
            ref = brute_force_minimizers(prob, beta, tol=1e-12)
            assert (s_min, s_max) == (ref.s_min, ref.s_max)

    def test_mutant_without_return_to_source_fails(self, tmp_path):
        # with no way back to s, excess that cannot reach t stays on its
        # node, and the result is a preflow that check_flow rejects
        source = maxflow._SOURCE.read_text()
        line = "    return z_src[u] > tol;"
        assert source.count(line) == 1
        mutant = maxflow._bind(maxflow._build(
            source.replace(line, "    return 0;").encode(), tmp_path))
        rng = np.random.default_rng(5)
        failed = 0
        for _ in range(20):
            net = quarter_network(rng, 30)
            try:
                _clamped(net)
            except DimensionMismatch:
                continue
            assert check_flow(net, max_flow(net, "float")) == []
            failed += check_flow(net, maxflow._pr_flow(mutant, net)) != []
        assert failed >= 10
        # node 0 takes 5 from s but passes on only 1: the 4 left go back
        net = FlowNetwork(2, [5.0, 0.0], [0.0, 1.0], [0], [1], [1.0])
        assert max_flow(net, "float").z_source.tolist() == [1.0, 0.0]
        assert check_flow(net, maxflow._pr_flow(mutant, net)) != []

    def test_any_array_layout_reaches_the_kernel_intact(self, rng):
        # the kernel takes bare addresses: int32 endpoints, float32
        # capacities and strided views must reach it as the contiguous
        # int64 / float64 arrays they equal.  Quarter-integer capacities
        # and flows are exact in float32
        lib = maxflow._kernel()
        solved = 0
        for _ in range(40):
            net = quarter_network(rng, int(rng.integers(2, 40)))
            for c in (net.source_caps, net.sink_caps, net.arc_cap):
                c[np.isinf(c)] = 7.0
            odd = maxflow._prechecked(
                net.n, odd_layout(net.source_caps, np.float32),
                odd_layout(net.sink_caps, np.float32),
                odd_layout(net.arc_u, np.int32), odd_layout(net.arc_v, np.int32),
                odd_layout(net.arc_cap, np.float32))
            want, got = maxflow._pr_flow(lib, net), maxflow._pr_flow(lib, odd)
            for a, b in zip((want.z_source, want.z_sink, want.z_arc),
                            (got.z_source, got.z_sink, got.z_arc)):
                np.testing.assert_array_equal(a, b)
            assert min_cut(odd, got) == min_cut(net, want)
            flows = tuple(np.minimum(c, rng.integers(0, 3, len(c)) * 0.5)
                          for c in (net.source_caps, net.sink_caps, net.arc_cap))
            args = (net.arc_u, net.arc_v,
                    (net.source_caps, net.sink_caps, net.arc_cap), flows)
            odd_args = [odd_layout(a, np.int32) for a in args[:2]] + [
                tuple(odd_layout(a, np.float32) for a in t) for t in args[2:]]
            for a, b in zip(_reach(net.n, *args, 0.25),
                            _reach(net.n, *odd_args, 0.25)):
                np.testing.assert_array_equal(a, b)
            solved += 1
        assert solved == 40

    def test_short_arrays_raise(self):
        # the kernel would read past the end of an array shorter than the
        # network says
        lib = maxflow._kernel()
        parts = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]),
                 np.array([0, 1]), np.array([1, 2]), np.array([1.0, 1.0])]
        assert maxflow._pr_flow(lib, maxflow._prechecked(3, *parts)).value == 1.0
        for k in range(5):
            short = [p[:-1] if j == k else p for j, p in enumerate(parts)]
            with pytest.raises(DimensionMismatch):
                maxflow._pr_flow(lib, maxflow._prechecked(3, *short))
        reach = [parts[2], parts[3], parts[0], parts[1], parts[4],
                 np.zeros(3), np.zeros(3), np.zeros(2)]
        for k in range(8):
            short = [p[:-1] if j == k else p for j, p in enumerate(reach)]
            with pytest.raises(DimensionMismatch):
                _reach(3, short[0], short[1], short[2:5], short[5:], 0.0)

    def test_clean_under_warnings_and_sanitizers(self, tmp_path):
        # _flow.c compiles with every warning an error, and a build with
        # AddressSanitizer and UBSan, loaded into a child Python, solves
        # random networks with no report (any report exits nonzero)
        cc = shutil.which("cc")
        runtimes = [subprocess.run([cc, f"-print-file-name={name}"],
                                   capture_output=True, text=True).stdout.strip()
                    for name in ("libasan.so", "libubsan.so")]
        missing = [r for r in runtimes if not os.path.isabs(r)]
        if missing:
            pytest.skip(f"no sanitizer runtime: {', '.join(missing)}")
        for flags, out in ((["-O2", "-Wall", "-Wextra", "-Werror"], "warn.so"),
                           (["-O1", "-g", "-fsanitize=address,undefined",
                             "-fno-sanitize-recover=all"], "asan.so")):
            done = subprocess.run([cc, *flags, "-shared", "-fPIC",
                                   str(maxflow._SOURCE), "-o",
                                   str(tmp_path / out)],
                                  capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
        src = os.path.dirname(os.path.dirname(maxflow.__file__))
        env = dict(os.environ, LD_PRELOAD=runtimes[0],
                   ASAN_OPTIONS="detect_leaks=0",
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", SANITIZED_CHILD,
                               str(tmp_path / "asan.so")],
                              env=env, capture_output=True, text=True,
                              timeout=600)
        assert done.returncode == 0, done.stderr[-3000:]
        assert int(done.stdout) >= 150

    def test_search_matches_python_bfs(self, rng):
        # arbitrary capacities and flows, not only valid ones: the search
        # reads nothing but the residual of each arc
        for _ in range(60):
            n = int(rng.integers(1, 300))
            m = int(rng.integers(0, 4 * n + 1))
            eu, ev = rng.integers(0, n, m), rng.integers(0, n, m)
            caps = tuple(rng.integers(0, 3, k) * 0.5 for k in (n, n, m))
            flows = tuple(np.minimum(c, rng.integers(0, 3, len(c)) * 0.5)
                          for c in caps)
            got = _reach(n, eu, ev, caps, flows, 0.25)
            want = python_reach(n, eu, ev, caps, flows, 0.25)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


@pytest.fixture
def no_kernel(monkeypatch):
    """The kernel's build patched to fail, as where no C compiler runs."""
    def fail(source, directory):
        raise OSError("build patched to fail")

    monkeypatch.setattr(maxflow, "_lib", None)
    monkeypatch.setattr(maxflow, "kernel_error", None)
    monkeypatch.setattr(maxflow, "_build", fail)


@pytest.mark.parametrize("backend", [
    pytest.param("kernel", marks=needs_cc), "fallback"])
def test_flow_arrays_must_match_network(backend, request):
    # a length-1 z_source would broadcast; neither check_flow nor the
    # search may read past its end or broadcast it
    if backend == "fallback":
        request.getfixturevalue("no_kernel")
    net = FlowNetwork(3, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0, 1], [1, 2],
                      [1.0, 1.0])
    short = FlowState(np.zeros(1), np.zeros(3), np.zeros(2), 0.0)
    with pytest.raises(DimensionMismatch):
        check_flow(net, short)
    with pytest.raises(DimensionMismatch):
        min_cut(net, short)


def test_check_flow_rejects_each_array_of_the_wrong_length():
    net = FlowNetwork(3, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0, 1], [1, 2],
                      [1.0, 1.0])
    zero = FlowState(np.zeros(3), np.zeros(3), np.zeros(2), 0.0)
    snapped = replace(zero, eff_source=net.source_caps,
                      eff_sink=net.sink_caps, eff_arc=net.arc_cap)
    for state, names in ((zero, ("z_source", "z_sink", "z_arc")),
                         (snapped, ("z_source", "z_sink", "z_arc", "eff_source",
                                    "eff_sink", "eff_arc"))):
        assert check_flow(net, state) == []
        for name in names:
            size = len(getattr(state, name))
            for wrong in (size - 1, size + 1):
                with pytest.raises(DimensionMismatch):
                    check_flow(net, replace(state, **{name: np.zeros(wrong)}))


def test_kernel_builds_without_user_ids(no_kernel, monkeypatch, tmp_path):
    # a platform without os.getuid has no owner to check: the cache in the
    # home directory is used as it is, and the build's own failure is the
    # one recorded, not an AttributeError raised from every solve
    monkeypatch.delattr(os, "getuid")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert maxflow._cache_dir() == tmp_path / ".cache" / "graphprox"
    net = FlowNetwork(2, [5.0, 0.0], [0.0, 1.0], [0], [1], [1.0])
    assert max_flow(net, "float").value == 1.0
    assert maxflow.kernel_error == "build patched to fail"


class TestFallback:
    """With the kernel unable to load, the float backend is the pure-Python
    shortest augmenting paths and the residual search runs in Python or
    scipy."""

    def test_scipy_search_with_no_seed_reaches_nothing(self):
        none = np.zeros(4, dtype=bool)
        reached = maxflow._bfs_scipy(4, np.array([0, 1, 2]),
                                     np.array([1, 2, 3]), none, none)
        assert [r.tolist() for r in reached] == [[False] * 4] * 2

    @needs_cc
    def test_min_cut_matches_the_kernel_search(self, monkeypatch):
        # above 300 nodes the kernel-less search runs in scipy, both
        # directions on one CSR graph and its transpose
        rng = np.random.default_rng(11)
        for n in [301, 302, 450, 777, 1200, 2000]:
            m = 3 * n
            au, av = rng.integers(0, n, m), rng.integers(0, n, m)
            # quarter-integer capacities, so that cuts tie
            net = FlowNetwork(n, rng.integers(0, 9, n) / 4.0,
                              rng.integers(0, 9, n) / 4.0, au[au != av],
                              av[au != av], rng.integers(0, 9, m)[au != av] / 4.0)
            state = max_flow(net, "scipy")
            with monkeypatch.context() as patch:
                patch.setattr(maxflow, "_lib", None)
                patch.setattr(maxflow, "kernel_error", "kernel disabled")
                fallback = min_cut(net, state)
            assert maxflow._kernel() is not None
            assert fallback == min_cut(net, state)

    def test_networks_fall_back(self, no_kernel):
        rng = np.random.default_rng(2)
        nets = [quarter_network(rng, int(n)) for n in rng.integers(1, 12, 60)]
        for net in nets:
            try:
                state = max_flow(net, "float")
            except DimensionMismatch:
                continue
            assert state.eff_source is None
            assert maxflow._lib is None
            assert maxflow.kernel_error == "build patched to fail"
            value, sink = all_cuts(net)
            opt = sink[value <= value.min() + 1e-9]
            assert min_cut(net, state) == (
                set(np.flatnonzero(opt.all(0)).tolist()),
                set(np.flatnonzero(opt.any(0)).tolist()))

    def test_search_matches_python_bfs(self, no_kernel, rng):
        # both sides of the 300-node switch between Python and scipy
        for n in list(rng.integers(1, 300, 20)) + [513, 900]:
            n = int(n)
            m = int(rng.integers(0, 4 * n + 1))
            eu, ev = rng.integers(0, n, m), rng.integers(0, n, m)
            caps = tuple(rng.integers(0, 3, k) * 0.5 for k in (n, n, m))
            flows = tuple(np.minimum(c, rng.integers(0, 3, len(c)) * 0.5)
                          for c in caps)
            got = _reach(n, eu, ev, caps, flows, 0.25)
            want = python_reach(n, eu, ev, caps, flows, 0.25)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        assert maxflow._lib is None

    @pytest.mark.parametrize("backend", [
        pytest.param("kernel", marks=needs_cc), "fallback"])
    def test_union_routing(self, backend, request, monkeypatch):
        # 40 disjoint 10-node components: their union (400 nodes) goes to
        # the kernel when it is loaded, else to "auto" and so to scipy, as
        # a network above the threshold would
        if backend == "fallback":
            request.getfixturevalue("no_kernel")
        rng = np.random.default_rng(4)
        k, c = 10, 40
        u = np.concatenate([i * k + np.arange(k - 1) for i in range(c)])
        prob = QuadraticBinaryProblem.from_parts(
            rng.normal(0, 0.5, k * c), zip(u, u + 1, -rng.uniform(1, 2, len(u))))
        sizes = []
        inner = engine.max_flow

        def spy(net, *args, **kwargs):
            state = inner(net, *args, **kwargs)
            sizes.append((net.n, state.eff_source is not None))
            return state

        monkeypatch.setattr(engine, "max_flow", spy)
        solve_weighted(prob, rng.uniform(0.5, 3, k * c))
        big = [on_scipy for n, on_scipy in sizes
               if n > maxflow._SCIPY_NODE_THRESHOLD]
        assert big and big == [backend == "fallback"] * len(big)

    def test_solve_falls_back(self, no_kernel, monkeypatch):
        rng = np.random.default_rng(3)
        prob = random_submodular(rng, 14, density=0.3)
        w = rng.uniform(0.5, 2.0, 14)
        fallback = solve_weighted(prob, w)
        assert maxflow._lib is None
        monkeypatch.undo()
        sol = solve_weighted(prob, w)
        np.testing.assert_allclose(fallback.levels, sol.levels, atol=1e-9)
        bps = sol.breakpoints()
        for beta in np.r_[bps[0] - 1, (bps[1:] + bps[:-1]) / 2, bps[-1] + 1]:
            assert fallback.u1(beta) == sol.u1(beta)
            assert fallback.u2(beta) == sol.u2(beta)

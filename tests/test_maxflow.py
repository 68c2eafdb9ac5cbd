"""Max-flow solver: duality against brute force, extreme cuts, flow checks."""

import itertools

import numpy as np
import pytest

from graphprox import (DimensionMismatch, FlowNetwork, FlowState, StaleFlow,
                       check_flow, max_flow, min_cut, read_dimacs,
                       to_cut_graph)
from conftest import random_submodular


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
            assert check_flow(net, state).is_valid_flow

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
        ([0], [-1], [1.0]),            # head out of range: Dinic never returns
        ([0], [2], [1.0]),             # head past n
        ([-1], [1], [1.0]),            # tail out of range
        ([0, 1], [1], [1.0]),          # arc arrays of unequal length
        ([0], [1], [1.0, 2.0]),
        ([0], [1], [np.nan]),          # NaN arc capacity
        ([0], [1], [-1.0]),
    ])
    def test_malformed_arcs_rejected(self, arcs):
        with pytest.raises(DimensionMismatch):
            FlowNetwork(2, [1.0, 0.0], [0.0, 1.0], *arcs)

    def test_nan_terminal_capacity_rejected(self):
        with pytest.raises(DimensionMismatch):
            FlowNetwork(2, [np.nan, 0.0], [0.0, 1.0])
        with pytest.raises(DimensionMismatch):
            FlowNetwork(2, [1.0, 0.0], [0.0, np.nan])

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
        assert check_flow(net, state).is_valid_flow
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
            assert check_flow(net, state).is_valid_flow


class TestLargeNetworks:
    """The float backend on networks that take many phases, long paths and
    dead ends, against scipy, which is exact on integer capacities."""

    def assert_matches_scipy(self, net):
        state = max_flow(net, method="float")
        ref = max_flow(net, method="scipy")
        assert check_flow(net, state).is_valid_flow
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
        with pytest.raises(StaleFlow):
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
        net = self.net()
        state = FlowState(np.zeros(2), np.zeros(2), np.zeros(1), 0.0)
        rep = check_flow(net, state)
        assert rep.is_valid_flow and rep.is_preflow
        assert not rep.is_pseudoflow  # terminal arcs unsaturated

    def test_saturated_terminals_is_pseudoflow(self):
        net = self.net()
        state = FlowState(net.source_caps.copy(), net.sink_caps.copy(),
                          np.zeros(1), 3.0)
        rep = check_flow(net, state)
        assert rep.is_pseudoflow
        assert not rep.is_valid_flow  # node 0 carries excess 1, node 1 deficit

    def test_capacity_violation_invalid(self):
        net = self.net()
        state = FlowState(np.array([2.5, 0.0]), np.zeros(2), np.zeros(1), 2.5)
        rep = check_flow(net, state)
        assert rep.classification == "invalid"
        assert rep.violations

    def test_max_flow_output_is_valid(self, rng):
        for _ in range(10):
            net = random_network(rng, int(rng.integers(1, 8)))
            rep = check_flow(net, max_flow(net))
            assert rep.is_valid_flow


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
            assert state.value == pytest.approx(best + cut.cut_constant,
                                                abs=1e-9)


class TestDimacs:
    def test_reader(self, tmp_path):
        text = """c sample file
p max 4 5
n 1 s
n 4 t
a 1 2 3
a 1 3 1
a 2 3 2
a 2 4 2
a 3 4 2
"""
        path = tmp_path / "g.dimacs"
        path.write_text(text)
        net = read_dimacs(path)
        assert net.n == 2
        state = max_flow(net)
        # brute force of the same small graph
        value, _ = brute_min_cut(net)
        assert state.value == pytest.approx(value) == pytest.approx(4.0)

    @pytest.mark.parametrize("text", [
        "p max 4 3\nn 1 s\nn 4 t\na 1 2 1\na 2 7 1\n",   # head past n
        "p max 4 3\nn 1 s\nn 4 t\na 0 2 1\n",             # tail below 1
        "p max 4 3\nn 5 s\nn 4 t\na 2 3 1\n",             # source past n
        "p max 4 3\nn 1 s\nn 1 t\na 1 2 1\n",             # source == sink
    ])
    def test_reader_rejects_bad_nodes(self, tmp_path, text):
        from graphprox import ParseError
        path = tmp_path / "bad.dimacs"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_dimacs(path)

    def test_reader_drops_terminal_loops(self, tmp_path):
        # s -> s and t -> t cross no cut, so the reader drops them
        path = tmp_path / "loops.dimacs"
        path.write_text("p max 3 4\nn 1 s\nn 3 t\na 1 1 5\na 3 3 5\n"
                        "a 1 2 2\na 2 3 1\n")
        net = read_dimacs(path)
        assert (net.n, len(net.arc_u)) == (1, 0)
        assert max_flow(net).value == 1.0

    def test_reader_rejects_garbage(self, tmp_path):
        from graphprox import ParseError
        path = tmp_path / "bad.dimacs"
        path.write_text("p max x y\n")
        with pytest.raises(ParseError):
            read_dimacs(path)

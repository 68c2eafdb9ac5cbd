"""Conversions between energy tables, quadratic form, and cut graphs."""

import itertools

import numpy as np
import pytest

from graphprox import (DimensionMismatch, EnergyTable, NonSubmodularEnergy,
                       QuadraticBinaryProblem, evaluate, from_energies, solve,
                       to_cut_graph)
from graphprox.qbm import _canonical_edges
from conftest import random_submodular


def ising_edge_table(n, i, j, strength=1.0):
    tbl = np.array([[0.0, strength], [strength, 0.0]])
    return EnergyTable(n, np.zeros((n, 2)), {(i, j): tbl})


class TestFromEnergies:
    def test_ising_edge(self):
        # direct evaluation of the conversion formulas on a Potts pair
        prob = from_energies(ising_edge_table(2, 0, 1))
        assert prob.offdiag() == {(0, 1): -2.0}
        assert prob.diag == pytest.approx([1.0, 1.0])

    def test_all_zero(self):
        prob = from_energies(EnergyTable(3, np.zeros((3, 2)), {}))
        assert np.all(prob.diag == 0)
        assert prob.n_edges == 0

    def test_argmin_matches_bruteforce(self, rng):
        # oracle: enumerate all 16 assignments of the energy table and all
        # 16 subsets of the quadratic form
        for _ in range(15):
            n = 4
            unary = rng.normal(0, 1, (n, 2))
            pairwise = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        tbl = rng.normal(0, 1, (2, 2))
                        gap = tbl[0, 0] + tbl[1, 1] - tbl[0, 1] - tbl[1, 0]
                        if gap > 0:  # push the diagonal down to submodularity
                            tbl[1, 1] -= gap + abs(rng.normal(0, 0.5))
                        pairwise[(i, j)] = tbl
            et = EnergyTable(n, unary, pairwise)
            assert et.is_submodular()
            prob = from_energies(et)
            best_e = min(itertools.product((0, 1), repeat=n),
                         key=lambda x: et.energy(x))
            energies = {x: et.energy(x) for x in itertools.product((0, 1), repeat=n)}
            quads = {x: evaluate(prob, [i for i in range(n) if x[i]])
                     for x in itertools.product((0, 1), repeat=n)}
            # identical minimizer sets and constant objective offset
            e_opt = min(energies.values())
            q_opt = min(quads.values())
            argmin_e = {x for x, v in energies.items() if v == e_opt}
            argmin_q = {x for x, v in quads.items() if v == q_opt}
            assert argmin_e == argmin_q
            offsets = [energies[x] - quads[x] for x in energies]
            assert np.ptp(offsets) < 1e-10
            assert offsets[0] == pytest.approx(prob.offset)

    def test_rejects_nonsubmodular(self):
        tbl = np.array([[1.0, 0.0], [0.0, 1.0]])  # attractive would be fine,
        et = EnergyTable(2, np.zeros((2, 2)), {(0, 1): tbl})
        with pytest.raises(NonSubmodularEnergy) as exc:
            from_energies(et)
        assert (exc.value.i, exc.value.j) == (0, 1)

    def test_hard_tie_table(self):
        # both off-diagonal entries infinite: the labels must agree, and
        # E(1,1) - E(0,0) = -2 stays finite on one endpoint's diagonal
        inf = np.inf
        et = EnergyTable(2, [[0.5, 1.0], [0.0, -1.0]],
                         {(0, 1): [[0.0, inf], [inf, -2.0]]})
        prob = from_energies(et)
        assert np.all(np.isfinite(prob.diag)) and prob.ties.all()
        for x in itertools.product((0, 1), repeat=2):
            S = [i for i in range(2) if x[i]]
            assert evaluate(prob, S) + prob.offset == et.energy(x)
        levels = solve(prob).levels
        assert levels[0] == levels[1] == pytest.approx(-1.25)

    @pytest.mark.parametrize("tbl", [[[0.0, np.inf], [1.0, 0.0]],
                                     [[0.0, 1.0], [np.inf, 0.0]]])
    def test_one_way_table_rejected(self, tbl):
        # one infinite entry forbids one split only, which no symmetric
        # coupling can express
        et = EnergyTable(2, np.zeros((2, 2)), {(0, 1): tbl})
        with pytest.raises(DimensionMismatch):
            from_energies(et)

    @pytest.mark.parametrize("tbl,ok", [
        ([[0.0, 1.0], [1.0, 0.0]], True),
        ([[0.0, np.inf], [np.inf, -2.0]], True),          # hard tie
        ([[0.0, 0.0], [0.0, 1.0]], False),                # repulsive
        ([[np.inf, 0.0], [0.0, 5.0]], False),             # gap +inf
        ([[0.0, np.inf], [1.0, 0.0]], False),             # one-way
        ([[np.nan, 0.0], [0.0, 0.0]], False),
        ([[np.inf, np.inf], [np.inf, np.inf]], False)])   # gap NaN
    def test_is_submodular_iff_from_energies_accepts(self, tbl, ok):
        et = EnergyTable(2, np.zeros((2, 2)), {(0, 1): tbl})
        assert et.is_submodular() == ok
        if ok:
            from_energies(et)
        else:
            with pytest.raises((NonSubmodularEnergy, DimensionMismatch)):
                from_energies(et)

    @pytest.mark.parametrize("scale", [1e-12, 1e-14, 1e-16, 1e-18, 1e-20])
    def test_submodularity_test_is_relative(self, scale):
        # a gap of +1e-12 used to pass under a tolerance floored at 1e-9
        bad = EnergyTable(2, np.zeros((2, 2)),
                          {(0, 1): scale * np.array([[0.0, 1.0], [1.0, 3.0]])})
        assert not bad.is_submodular()
        with pytest.raises(NonSubmodularEnergy):
            from_energies(bad)
        good = EnergyTable(2, np.zeros((2, 2)),
                           {(0, 1): scale * np.array([[0.0, 2.0], [3.0, 1.0]])})
        assert good.is_submodular()
        q = from_energies(good).offdiag()[(0, 1)]
        assert q == pytest.approx(-4.0 * scale, rel=1e-12)

    @pytest.mark.parametrize("unary", [[[0.0, np.inf], [0.0, 0.0]],
                                       [[np.inf, np.inf], [0.0, 0.0]],
                                       [[0.0, 0.0], [np.nan, 0.0]]])
    def test_non_finite_unary_rejected(self, unary):
        # rejected where the table is made, not later in the problem
        # constructor or with an inf - inf warning on the way
        with pytest.raises(DimensionMismatch, match="energy table"):
            EnergyTable(2, unary, {(0, 1): [[0.0, 1.0], [1.0, 0.0]]})

    @pytest.mark.parametrize("key", [(0.5, 2), (True, 2), (2, 1), (1, 1),
                                     (0, 3), (-1, 2), (0, "1"), (0, 1, 2), 0])
    def test_pair_key_must_be_two_nodes_in_order(self, key):
        # (0.5, 2) and (True, 2) used to be accepted and fail later in
        # energy() or from_energies with a bare IndexError or TypeError
        with pytest.raises(DimensionMismatch, match="pairwise key"):
            EnergyTable(3, np.zeros((3, 2)), {key: [[0.0, 1.0], [1.0, 0.0]]})

    def test_numpy_integer_pair_key_stored_as_int(self):
        et = EnergyTable(3, np.zeros((3, 2)),
                         {(np.int64(0), np.uint8(2)): [[0.0, 1.0], [1.0, 0.0]]})
        assert [type(k) for k in next(iter(et.pairwise))] == [int, int]
        assert from_energies(et).offdiag() == {(0, 2): -2.0}

    @pytest.mark.parametrize("diag,q", [([np.nan, 0.0], -1.0),
                                        ([np.inf, 0.0], -1.0),
                                        ([-np.inf, 0.0], -1.0),
                                        ([0.0, 0.0], np.nan)])
    def test_constructor_rejects_non_finite(self, diag, q):
        with pytest.raises(DimensionMismatch):
            QuadraticBinaryProblem(2, diag, [0], [1], [q])
        with pytest.raises(DimensionMismatch):
            QuadraticBinaryProblem.from_parts(diag, {(0, 1): q})

    @pytest.mark.parametrize("edges", [([[0]], [[1]], [[-1.0]]),
                                       ([0], [1], [[-1.0]]),
                                       ([[0]], [1], [-1.0])])
    def test_constructor_rejects_edge_arrays_not_1d(self, edges):
        # 2-D edge arrays used to pass and fail later inside numpy
        with pytest.raises(DimensionMismatch, match="1-D"):
            QuadraticBinaryProblem(2, [1.0, 2.0], *edges)

    @pytest.mark.parametrize("diag", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_constructor_rejects_diag_of_other_length(self, diag):
        with pytest.raises(DimensionMismatch, match="diag must have length 2"):
            QuadraticBinaryProblem(2, diag, [0], [1], [-1.0])

    def test_constructor_rejects_positive_coupling(self):
        with pytest.raises(NonSubmodularEnergy):
            QuadraticBinaryProblem.from_parts([0.0, 0.0], {(0, 1): 0.5})

    def test_positive_coupling_rejected_before_summing(self):
        # the duplicate would bring the pair's sum to -0.5
        with pytest.raises(NonSubmodularEnergy):
            QuadraticBinaryProblem.from_parts([0.0, 0.0],
                                              {(0, 1): 0.5, (1, 0): -1.0})

    def test_duplicate_pairs_summed(self):
        prob = QuadraticBinaryProblem.from_parts(
            [0.5, 2.5], [(0, 1, -1.0), (1, 0, -2.0)])
        assert prob.offdiag() == {(0, 1): -3.0}


class TestConstructorContract:
    """The constructor gives couplings their stored form; ``from_parts``
    only turns its edges into arrays."""

    def test_with_diag_shares_edges_and_checks_the_diagonal(self):
        prob = QuadraticBinaryProblem(3, [1.0, 2.0, 3.0], [2, 0], [1, 1],
                                      [-2.0, -1.0])
        diag = np.array([0.5, -1.0, 4.0])
        other = prob.with_diag(diag)
        diag[0] = 9.0   # the caller's array is copied
        assert other.diag.tolist() == [0.5, -1.0, 4.0]
        assert not other.diag.flags.writeable
        assert other.edge_u is prob.edge_u and other.edge_q is prob.edge_q
        assert prob.diag.tolist() == [1.0, 2.0, 3.0]
        for bad, match in [([0.0, 1.0], "diag must have length 3"),
                           ([0.0, np.nan, 1.0], "must be finite"),
                           ([0.0, np.inf, 1.0], "must be finite")]:
            with pytest.raises(DimensionMismatch, match=match):
                prob.with_diag(bad)

    def test_stores_edges_as_from_parts(self):
        # (1, 0) used to be rejected, and a repeated pair kept twice
        u, v = [2, 1, 0, 1, 2], [1, 0, 1, 2, 0]
        q = [-2.0, -1.0, -0.5, -1.0, -np.inf]
        direct = QuadraticBinaryProblem(3, [1.0, 2.0, 3.0], u, v, q)
        parts = QuadraticBinaryProblem.from_parts([1.0, 2.0, 3.0], zip(u, v, q))
        assert direct.offdiag() == {(0, 1): -1.5, (0, 2): -np.inf, (1, 2): -3.0}
        for a, b in [(direct.edge_u, parts.edge_u), (direct.edge_v, parts.edge_v),
                     (direct.edge_q, parts.edge_q), (direct.diag, parts.diag)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_caller_arrays_stay_writable(self):
        # the constructor used to freeze the caller's own arrays
        d = np.array([1.0, 2.0])
        u, v, q = np.array([0]), np.array([1]), np.array([-1.0])
        prob = QuadraticBinaryProblem(2, d, u, v, q)
        assert all(a.flags.writeable for a in (d, u, v, q))
        d[0] = u[0] = v[0] = q[0] = 7
        assert prob.diag.tolist() == [1.0, 2.0]
        assert prob.offdiag() == {(0, 1): -1.0}
        assert not any(a.flags.writeable for a in
                       (prob.diag, prob.edge_u, prob.edge_v, prob.edge_q))

    def test_self_loop_rejected(self):
        with pytest.raises(DimensionMismatch, match="self-loops not allowed"):
            QuadraticBinaryProblem(2, [0.0, 0.0], [1], [1], [-1.0])
        with pytest.raises(DimensionMismatch, match="self-loops not allowed"):
            QuadraticBinaryProblem.from_parts([0.0, 0.0], [(0, 0, -1.0)])

    def test_positive_coupling_rejected_before_summing(self):
        # the repeat would bring the pair's sum to -0.5; the error names
        # the pair in order
        with pytest.raises(NonSubmodularEnergy) as exc:
            QuadraticBinaryProblem(2, [0.0, 0.0], [0, 1], [1, 0], [-1.0, 0.5])
        assert (exc.value.i, exc.value.j) == (0, 1)

    @pytest.mark.parametrize("end", [0.5, np.nan, np.inf, -np.inf])
    def test_endpoints_must_be_integers(self, end):
        # 0.5 used to be truncated to node 0; NaN and inf failed inside
        # numpy
        with pytest.raises(DimensionMismatch, match="finite integer"):
            QuadraticBinaryProblem(3, [0.0, 0.0, 0.0], [end], [2], [-1.0])
        with pytest.raises(DimensionMismatch, match="finite integer"):
            QuadraticBinaryProblem.from_parts([0.0, 0.0, 0.0], [(end, 2, -1.0)])

    def test_integral_float_and_bool_endpoints_accepted(self):
        prob = QuadraticBinaryProblem(3, [0.0, 0.0, 0.0], [2.0, False],
                                      [0.0, True], [-1.0, -2.0])
        assert prob.offdiag() == {(0, 1): -2.0, (0, 2): -1.0}

    @pytest.mark.parametrize("edges", [
        [(0, 1, -1.0, 1, 2, -1.0)],     # used to become two couplings
        [0, 1, -1.0],                   # used to become one coupling
        [(0, 1)],
        [(0, 1, -1.0), (1, 2)],
        {(0, 1, 2): -1.0},              # used to fail inside numpy
        {0: -1.0},
    ])
    def test_malformed_entries_rejected(self, edges):
        with pytest.raises(DimensionMismatch, match="triples|pairs"):
            QuadraticBinaryProblem.from_parts([0.0, 0.0, 0.0], edges)


class TestToCutGraph:
    def test_single_node(self):
        prob = QuadraticBinaryProblem.from_parts([2.0], {})
        cut = to_cut_graph(prob, beta=0.0, weights=[1.0])
        assert cut.source_caps == pytest.approx([2.0])
        assert cut.sink_caps == pytest.approx([0.0])

    def test_two_node_hand_values(self):
        # a_0 = 0.5 - 0.5 = 0, a_1 = 2.5 - 0.5 = 2 by the terminal formula
        prob = QuadraticBinaryProblem.from_parts([0.5, 2.5], {(0, 1): -1.0})
        cut = to_cut_graph(prob, beta=0.0, weights=[1.0, 1.0])
        assert cut.source_caps == pytest.approx([0.0, 2.0])
        assert cut.sink_caps == pytest.approx([0.0, 0.0])
        assert cut.arc_cap == pytest.approx([0.5, 0.5])

    def test_cut_value_equals_min_f_plus_constant(self, rng):
        # oracle: brute force f over all subsets; cut cost over all splits
        for _ in range(10):
            n = int(rng.integers(1, 9))
            prob = random_submodular(rng, n)
            beta = float(rng.normal())
            w = rng.uniform(0.1, 3, n)
            cut = to_cut_graph(prob, beta, w)
            best_f = min(evaluate(prob, s, beta, w)
                         for r in range(n + 1)
                         for s in itertools.combinations(range(n), r))
            best_cut = np.inf
            for r in range(n + 1):
                for sink_side in itertools.combinations(range(n), r):
                    sink = set(sink_side)
                    cost = sum(cut.source_caps[i] for i in sink)
                    cost += sum(cut.sink_caps[i] for i in range(n) if i not in sink)
                    for k in range(prob.n_edges):
                        iu, iv = prob.edge_u[k], prob.edge_v[k]
                        if (iu in sink) != (iv in sink):
                            cost += cut.arc_cap[k]
                    best_cut = min(best_cut, cost)
            assert best_cut == pytest.approx(best_f + cut.sink_caps.sum(), abs=1e-9)

    def test_weights_length_checked(self):
        prob = QuadraticBinaryProblem.from_parts([1.0, 1.0], {})
        from graphprox import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            to_cut_graph(prob, 0.0, [1.0])


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
def test_non_finite_beta_rejected(beta):
    # NaN used to be blamed on the capacities by to_cut_graph, and
    # evaluate returned nan, or -inf for beta = inf
    prob = QuadraticBinaryProblem.from_parts([1.0, -1.0], {(0, 1): -1.0})
    with pytest.raises(DimensionMismatch, match="beta"):
        to_cut_graph(prob, beta)
    with pytest.raises(DimensionMismatch, match="beta"):
        evaluate(prob, {0}, beta)
    # sol.u1(nan) and sol.u2(nan) used to return set()
    sol = solve(prob)
    with pytest.raises(DimensionMismatch, match="beta"):
        sol.u1(beta)
    with pytest.raises(DimensionMismatch, match="beta"):
        sol.u2(beta)


class TestEvaluate:
    def test_empty_set(self):
        prob = QuadraticBinaryProblem.from_parts([0.5, 2.5], {(0, 1): -1.0})
        assert evaluate(prob, set()) == 0.0

    @pytest.mark.parametrize("S", [{-1}, {2}, {0.5}, {np.nan}, np.array([0, 3])])
    def test_node_ids_checked(self, S):
        # -1 used to score node 1, 0.5 node 0, and 2 raised an IndexError
        prob = QuadraticBinaryProblem.from_parts([0.5, 2.5], {(0, 1): -1.0})
        with pytest.raises(DimensionMismatch, match="node id"):
            evaluate(prob, S)

    def test_integral_float_ids_and_masks_accepted(self):
        prob = QuadraticBinaryProblem.from_parts([0.5, 2.5], {(0, 1): -1.0})
        assert evaluate(prob, [1.0]) == evaluate(prob, {1}) == 2.5
        assert evaluate(prob, np.array([False, True])) == 2.5

    def test_full_set_beta_zero(self):
        prob = QuadraticBinaryProblem.from_parts([0.5, 2.5], {(0, 1): -1.0})
        assert evaluate(prob, {0, 1}) == pytest.approx(0.5 + 2.5 - 1.0)

    def test_full_set_beta_one(self):
        # sum(q_ii - beta*w) + q_01 = (0.5-1) + (2.5-1) + (-1) = 0
        prob = QuadraticBinaryProblem.from_parts([0.5, 2.5], {(0, 1): -1.0})
        assert evaluate(prob, {0, 1}, 1.0, [1.0, 1.0]) == pytest.approx(0.0)

    def test_submodular_inequality(self, rng):
        # f(S) + f(T) >= f(S|T) + f(S&T) iff all couplings <= 0
        for _ in range(10):
            n = 6
            prob = random_submodular(rng, n)
            for _ in range(50):
                s = set(int(i) for i in rng.choice(n, rng.integers(0, n + 1),
                                                   replace=False))
                t = set(int(i) for i in rng.choice(n, rng.integers(0, n + 1),
                                                   replace=False))
                lhs = evaluate(prob, s) + evaluate(prob, t)
                rhs = evaluate(prob, s | t) + evaluate(prob, s & t)
                assert lhs >= rhs - 1e-10


class TestObjectiveIdentities:
    def test_energy_minus_quadratic_constant(self, rng):
        # exhaustive over all binary vectors, n <= 12 would be slow here;
        # n = 8 exercises the identity fully
        n = 8
        unary = rng.normal(0, 1, (n, 2))
        pairwise = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    d = abs(rng.normal())
                    pairwise[(i, j)] = np.array([[0.0, d], [d, 0.0]])
        et = EnergyTable(n, unary, pairwise)
        prob = from_energies(et)
        beta = 0.37
        w = rng.uniform(0.5, 2, n)
        diffs = set()
        for x in itertools.product((0, 1), repeat=n):
            s = [i for i in range(n) if x[i]]
            e = et.energy(x) - beta * sum(w[i] for i in s)
            q = evaluate(prob, s, beta, w)
            diffs.add(round(e - q, 9))
        assert len(diffs) == 1



def unique_canonical(u, v, val, n):
    """``qbm._canonical_edges`` by ``np.unique`` on every input."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys, inv = np.unique(lo * n + hi, return_inverse=True)
    summed = np.bincount(inv, weights=np.asarray(val, dtype=np.float64),
                         minlength=len(keys))
    return keys // max(n, 1), keys % max(n, 1), summed


@pytest.mark.parametrize("order", ["sorted", "unsorted", "duplicated",
                                   "reversed", "flipped"])
def test_canonical_edges_fast_path_matches_unique(rng, order):
    # sorted input, each pair once, skips np.unique; the arrays must be the
    # same, -0.0 turned into 0.0 included
    n = 40
    key = np.unique(rng.integers(0, n * n, 120))
    u, v = key // n, key % n
    u, v = u[u < v], v[u < v]
    val = -rng.integers(0, 3, len(u)) / 2.0
    val[::7] = -0.0
    if order == "unsorted":
        p = rng.permutation(len(u))
        u, v, val = u[p], v[p], val[p]
    elif order == "duplicated":
        u, v, val = (np.concatenate([a, a[::3]]) for a in (u, v, val))
    elif order == "reversed":
        u, v, val = u[::-1], v[::-1], val[::-1]
    elif order == "flipped":   # sorted pairs, each given as (v, u)
        u, v = v, u
    got = _canonical_edges(u, v, val, n)
    want = unique_canonical(u, v, val, n)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

"""Conversions between energy tables, quadratic form, and cut graphs."""

import itertools

import numpy as np
import pytest

from graphprox import (DimensionMismatch, EnergyTable, NonSubmodularEnergy,
                       QuadraticBinaryProblem, evaluate, from_energies,
                       normalize_directed, solve, to_cut_graph)
from graphprox.qbm import terminal_values
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

    @pytest.mark.parametrize("diag,q", [([np.nan, 0.0], -1.0),
                                        ([np.inf, 0.0], -1.0),
                                        ([-np.inf, 0.0], -1.0),
                                        ([0.0, 0.0], np.nan)])
    def test_constructor_rejects_non_finite(self, diag, q):
        with pytest.raises(DimensionMismatch):
            QuadraticBinaryProblem(2, diag, [0], [1], [q])
        with pytest.raises(DimensionMismatch):
            QuadraticBinaryProblem.from_parts(diag, {(0, 1): q})

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
        assert cut.a == pytest.approx([0.0, 2.0])
        assert cut.edge_cap == pytest.approx([0.5])

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
                            cost += cut.edge_cap[k]
                    best_cut = min(best_cut, cost)
            assert best_cut == pytest.approx(best_f + cut.cut_constant, abs=1e-9)

    def test_weights_length_checked(self):
        prob = QuadraticBinaryProblem.from_parts([1.0, 1.0], {})
        from graphprox import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            terminal_values(prob, 0.0, [1.0])


class TestEvaluate:
    def test_empty_set(self):
        prob = QuadraticBinaryProblem.from_parts([0.5, 2.5], {(0, 1): -1.0})
        assert evaluate(prob, set()) == 0.0

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


class TestNormalizeDirected:
    def brute_sets(self, n, arcs, src, snk):
        best, sets = np.inf, []
        for r in range(n + 1):
            for sink_side in itertools.combinations(range(n), r):
                sink = set(sink_side)
                cost = sum(src[i] for i in sink)
                cost += sum(snk[i] for i in range(n) if i not in sink)
                for (i, j, c) in arcs:
                    if i not in sink and j in sink:
                        cost += c
                if cost < best - 1e-12:
                    best, sets = cost, [frozenset(sink)]
                elif cost <= best + 1e-12:
                    sets.append(frozenset(sink))
        return best, set(sets)

    def quad_sets(self, prob):
        n = prob.n
        best, sets = np.inf, []
        for r in range(n + 1):
            for s in itertools.combinations(range(n), r):
                v = evaluate(prob, s)
                if v < best - 1e-12:
                    best, sets = v, [frozenset(s)]
                elif v <= best + 1e-12:
                    sets.append(frozenset(s))
        return set(sets)

    def test_empty_graph(self):
        prob = normalize_directed([], np.zeros(3), np.zeros(3))
        assert np.all(prob.diag == 0)
        assert prob.n_edges == 0

    def test_symmetric_graph_identity(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 7))
            arcs = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        c = float(rng.uniform(0, 2))
                        arcs += [(i, j, c), (j, i, c)]
            src = rng.uniform(0, 2, n)
            snk = rng.uniform(0, 2, n)
            prob = normalize_directed(arcs, src, snk)
            _, direct = self.brute_sets(n, arcs, src, snk)
            assert self.quad_sets(prob) == direct

    def test_single_directed_arc(self, rng):
        for c in (0.5, 2.0):
            arcs = [(0, 1, c)]
            src = np.array([1.0, 0.3])
            snk = np.array([0.2, 0.8])
            prob = normalize_directed(arcs, src, snk)
            # both directions now carry the averaged capacity
            assert prob.offdiag() == pytest.approx({(0, 1): -c})
            _, direct = self.brute_sets(2, arcs, src, snk)
            assert self.quad_sets(prob) == direct

    def test_random_directed(self, rng):
        for _ in range(12):
            n = int(rng.integers(2, 7))
            arcs = []
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.4:
                        arcs.append((i, j, float(rng.uniform(0, 3))))
            src = rng.uniform(0, 2, n)
            snk = rng.uniform(0, 2, n)
            prob = normalize_directed(arcs, src, snk)
            _, direct = self.brute_sets(n, arcs, src, snk)
            assert self.quad_sets(prob) == direct

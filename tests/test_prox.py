"""Proximal operator: decomposition identities, closed forms, certificates."""

import numpy as np
import pytest

from graphprox import (DimensionMismatch, NonConvexPenalty,
                       PiecewiseLinearPenalty, ProxProblem, build_prox_qbm,
                       certificate, prox, prox_solve, pwl_decompose)
from graphprox.oracle import prox_reference
from conftest import random_penalty, random_prox_problem

ABS = PiecewiseLinearPenalty.abs_value()


def pair(a0=0.0, a1=2.0, w=1.0, lam=1.0):
    return ProxProblem.from_edges([a0, a1], {(0, 1): w}, lam=lam)


class TestPwlDecompose:
    def check_identity(self, pen, points):
        c, anchors, const = pwl_decompose(pen)
        for u in points:
            recon = const + c * u + sum(k * abs(u - b) for b, k in anchors)
            assert recon == pytest.approx(pen.value(u), abs=1e-12)

    def test_absolute_value(self):
        c, anchors, const = pwl_decompose(ABS)
        assert c == 0.0
        assert anchors == [(0.0, 1.0)]
        self.check_identity(ABS, [-1.0, -0.3, 0.0, 0.7, 2.0])

    def test_pure_linear(self):
        pen = PiecewiseLinearPenalty(np.zeros(0), np.array([0.8]))
        c, anchors, const = pwl_decompose(pen)
        assert c == pytest.approx(0.8)
        assert anchors == []

    def test_hinge(self):
        pen = PiecewiseLinearPenalty(np.array([0.0]), np.array([0.0, 1.0]))
        c, anchors, const = pwl_decompose(pen)
        assert c == pytest.approx(0.5)
        assert anchors == [(0.0, 0.5)]
        assert pen.value(-1.0) == pytest.approx(0.0)
        assert pen.value(1.0) == pytest.approx(1.0)
        self.check_identity(pen, [-2.0, 0.0, 0.5, 3.0])

    def test_multi_kink_identity(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 6))
            b = np.unique(rng.normal(0, 2, m))
            th = np.sort(rng.normal(0, 1.5, len(b) + 1))
            pen = PiecewiseLinearPenalty(b, th)
            self.check_identity(pen, rng.normal(0, 3, 20))

    def test_nonconvex_rejected(self):
        with pytest.raises(NonConvexPenalty):
            PiecewiseLinearPenalty(np.array([0.0]), np.array([1.0, -1.0]))
        with pytest.raises(NonConvexPenalty):
            PiecewiseLinearPenalty(np.array([1.0, 1.0]),
                                   np.array([0.0, 0.5, 1.0]))

    @pytest.mark.parametrize("b,th", [([np.nan], [-1.0, 1.0]),
                                      ([0.0], [np.nan, 1.0]),
                                      ([], [np.nan])])
    def test_nan_rejected(self, b, th):
        with pytest.raises(NonConvexPenalty):
            PiecewiseLinearPenalty(b, th)


def build_by_edge(problem):
    """Edge-by-edge reference for ``build_prox_qbm``'s arrays."""
    n, lam = problem.n, problem.lam
    diag = problem.a.copy()
    anchors = []
    for i, pen in sorted(problem.penalties.items()):
        c, anc, _ = pwl_decompose(pen)
        diag[i] -= 0.5 * lam * c
        anchors += [(i, b, kappa) for b, kappa in anc]
    edges = {}
    for u, v, w in zip(problem.edge_u, problem.edge_v, problem.edge_w):
        if lam * w > 0:
            key = (int(min(u, v)), int(max(u, v)))
            edges[key] = edges.get(key, 0.0) - lam * w
            diag[u] += 0.5 * lam * w
            diag[v] += 0.5 * lam * w
    diag = np.concatenate([diag, np.zeros(len(anchors))])
    for k, (i, b, kappa) in enumerate(anchors):
        edges[(i, n + k)] = -lam * kappa
        diag[i] += 0.5 * lam * kappa
    keys = sorted(edges)
    return {"diag": diag,
            "edge_u": np.array([k[0] for k in keys], dtype=np.int64),
            "edge_v": np.array([k[1] for k in keys], dtype=np.int64),
            "edge_q": np.array([edges[k] for k in keys]),
            "anchor_mask": np.arange(n + len(anchors)) >= n,
            "anchor_values": np.concatenate(
                [np.zeros(n), [b for _, b, _ in anchors]])}


class TestProxProblemInput:
    @pytest.mark.parametrize("a", [[0.0, np.nan], [np.inf, 1.0]])
    def test_non_finite_center_rejected(self, a):
        with pytest.raises(DimensionMismatch):
            ProxProblem.from_edges(a, {(0, 1): 1.0})

    @pytest.mark.parametrize("w", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, w):
        # a NaN weight used to leave [0, 1] unfused, an infinite one gave
        # [inf, inf]
        with pytest.raises(DimensionMismatch):
            ProxProblem.from_edges([0.0, 1.0], {(0, 1): w})
        with pytest.raises(DimensionMismatch):
            ProxProblem([0.0, 1.0], [0], [1], [w])

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(DimensionMismatch):
            ProxProblem.from_edges([0.0, 1.0], {(0, 1): 1.0}, lam=lam)


class TestBuildProxQbm:
    def test_lambda_zero_decouples(self):
        p = ProxProblem.from_edges([1.0, -2.0], {(0, 1): 1.0}, lam=0.0)
        build = build_prox_qbm(p)
        assert build.qbm.n_edges == 0
        assert prox(p) == pytest.approx([1.0, -2.0])

    def test_pair_energy_matches_at_sampled_thresholds(self, rng):
        # exhaustive check over binary labelings: the built problem's
        # objective at threshold beta matches the fused binary energy
        # (a - beta) x + (lam w / 2) [x_i != x_j] up to a constant
        p = pair()
        build = build_prox_qbm(p)
        from graphprox import evaluate
        for beta in rng.uniform(-2, 4, 20):
            vals = {}
            for x0 in (0, 1):
                for x1 in (0, 1):
                    direct = (p.a[0] - beta) * x0 + (p.a[1] - beta) * x1 \
                        + 0.5 * p.lam * 1.0 * (x0 != x1)
                    s = [i for i, x in enumerate((x0, x1)) if x]
                    enc = evaluate(build.qbm, s, beta, np.ones(2))
                    vals[(x0, x1)] = direct - enc
            assert np.ptp(list(vals.values())) < 1e-10

    def test_duplicate_pairs_summed(self):
        p = ProxProblem.from_edges([0.0, 2.0], [(0, 1, 0.25), (1, 0, 0.75)])
        assert p.edge_u.tolist() == [0] and p.edge_v.tolist() == [1]
        assert p.edge_w.tolist() == [1.0]
        with pytest.raises(DimensionMismatch):
            ProxProblem.from_edges([0.0, 2.0], [(0, 1, -1.0), (1, 0, 2.0)])

    def test_matches_edge_by_edge_build(self, rng):
        # repeated pairs in both orders, zero weights and penalty anchors:
        # the same arrays, bit for bit, as folding in edge by edge
        for _ in range(20):
            n = int(rng.integers(2, 30))
            eu, ev = rng.integers(0, n, (2, 3 * n))
            keep = eu != ev
            w = rng.uniform(0, 2, int(keep.sum())) * (rng.random(int(keep.sum())) < 0.8)
            pens = {i: random_penalty(rng) for i in range(n) if rng.random() < 0.4}
            p = ProxProblem(rng.normal(0, 2, n), eu[keep], ev[keep], w,
                            float(rng.uniform(0.1, 2.0)), pens)
            build, ref = build_prox_qbm(p), build_by_edge(p)
            for name in ("diag", "edge_u", "edge_v", "edge_q"):
                assert np.array_equal(getattr(build.qbm, name), ref[name])
            assert np.array_equal(build.anchor_values, ref["anchor_values"])
            assert build.anchor_mask.tolist() == ref["anchor_mask"].tolist()

    def test_anchor_metadata(self):
        p = ProxProblem.from_edges([0.8], {}, lam=1.0, penalties={0: ABS})
        build = build_prox_qbm(p)
        assert build.qbm.n == 2
        assert build.anchor_mask.tolist() == [False, True]
        assert build.anchor_values[1] == 0.0
        assert abs(p.a[0]) < build.bound


class TestProxClosedForms:
    def test_pair_subgradient_solution(self):
        assert prox(pair()) == pytest.approx([0.5, 1.5], abs=1e-8)

    def test_pair_fusion_at_mean(self):
        for lam in (2.0, 2.5, 10.0):
            assert prox(pair(lam=lam)) == pytest.approx([1.0, 1.0], abs=1e-8)

    def test_soft_threshold(self):
        for a, expect in [(0.8, 0.3), (-0.8, -0.3), (0.3, 0.0), (-0.49, 0.0),
                          (0.5, 0.0), (1.7, 1.2)]:
            p = ProxProblem.from_edges([a], {}, lam=1.0, penalties={0: ABS})
            assert prox(p) == pytest.approx([expect], abs=1e-8)

    def test_denoise_pair(self):
        # 2 pixels (0, 1), lam 0.5, weight 1: pull together by lam*w/2
        p = pair(0.0, 1.0, w=1.0, lam=0.5)
        assert prox(p) == pytest.approx([0.25, 0.75], abs=1e-10)


class TestProxProperties:
    def test_matches_reference(self, rng):
        for t in range(30):
            n = int(rng.integers(2, 51))
            p = random_prox_problem(rng, n, with_penalties=(t % 2 == 0))
            u = prox(p)
            ref = prox_reference(p)
            assert np.abs(u - ref).max() < 1e-6
            assert certificate(p, u) < 1e-7

    def test_nonexpansive(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 30))
            p = random_prox_problem(rng, n, with_penalties=True)
            a2 = p.a + rng.normal(0, 1, n)
            p2 = ProxProblem(a2, p.edge_u, p.edge_v, p.edge_w, p.lam,
                             p.penalties)
            assert np.linalg.norm(prox(p) - prox(p2)) <= \
                np.linalg.norm(p.a - a2) + 1e-9

    def test_level_set_consistency(self, rng):
        # thresholding u* at beta between distinct values reproduces the
        # parametric level sets of the underlying solve
        for _ in range(10):
            n = int(rng.integers(2, 25))
            p = random_prox_problem(rng, n)
            u, sol, build = prox_solve(p)
            vals = np.unique(u)
            grid = np.concatenate([[vals.min() - 1], (vals[:-1] + vals[1:]) / 2,
                                   [vals.max() + 1]])
            for b in grid:
                from_u = {i for i in range(n) if u[i] <= b}
                assert {i for i in sol.u2(float(b)) if i < n} == from_u

    def test_monotone_fusion_in_lambda(self, rng):
        for _ in range(8):
            n = int(rng.integers(3, 20))
            p = random_prox_problem(rng, n)
            counts = []
            for lam in (0.05, 0.2, 0.8, 3.2, 12.8):
                q = ProxProblem(p.a, p.edge_u, p.edge_v, p.edge_w, lam)
                u = prox(q)
                counts.append(len(np.unique(np.round(u, 8))))
            assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestCertificate:
    def test_zero_at_center_when_unregularized(self):
        p = ProxProblem.from_edges([1.0, 2.0], {(0, 1): 1.0}, lam=0.0)
        assert certificate(p, np.array([1.0, 2.0])) == 0.0

    def test_positive_at_center_with_regularization(self):
        p = pair()
        assert certificate(p, np.array([0.0, 2.0])) > 0.5

    def test_small_at_solver_output(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 50))
            p = random_prox_problem(rng, n, with_penalties=True)
            assert certificate(p, prox(p)) < 1e-7

    def test_grid_64(self, rng):
        # 4,096 nodes, 8,064 edges: the LP has 8,192 rows and a column per
        # fused edge, which a dense matrix would hold in full
        H = 64
        img = np.zeros((H, H))
        img[:, H // 3:] = 0.5
        img[H // 2:, 2 * H // 3:] = 0.9
        idx = np.arange(H * H).reshape(H, H)
        eu = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        ev = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        p = ProxProblem((img + rng.normal(0, 0.1, (H, H))).ravel(), eu, ev,
                        np.ones(len(eu)), 0.1)
        assert certificate(p, prox(p)) <= 1e-7

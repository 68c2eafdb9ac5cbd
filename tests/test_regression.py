"""FISTA outer loop for penalized regression."""

import numpy as np
import pytest

from graphprox import (PiecewiseLinearPenalty, ProxProblem, RegressionProblem,
                       fista_fit, lipschitz_estimate, objective, prox,
                       regression)
from graphprox.prox import regularizer
from graphprox.errors import DimensionMismatch, NonConvexPenalty
from conftest import random_penalty


def fused_pair_problem(lam=1.0):
    return RegressionProblem(np.eye(2), np.array([0.0, 2.0]),
                             np.array([0]), np.array([1]), np.array([1.0]),
                             lam)


def _close_top_pair(shape, seed=2):
    """A design whose top two singular values are 1e-9 apart, from an SVD."""
    rng = np.random.default_rng(seed)
    m = min(shape)
    U = np.linalg.qr(rng.normal(0, 1, (shape[0], m)))[0]
    V = np.linalg.qr(rng.normal(0, 1, (shape[1], m)))[0]
    s = np.sort(rng.uniform(0.1, 1.0, m))[::-1]
    s[:2] = 2.0, 2.0 - 1e-9
    return (U * s) @ V.T


def _orthogonal_to_start(shape, seed=5):
    """A rank-1 design whose Gram matrix (the smaller one) maps the
    estimate's seeded start vector to 0: its Lanczos space breaks down at
    the first step."""
    m = min(shape)
    start = np.random.default_rng(7).standard_normal(m)
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, m)
    x -= (x @ start) / (start @ start) * start
    y = rng.normal(0, 1, max(shape))
    return np.outer(x, y) if shape[0] <= shape[1] else np.outer(y, x)


def _designs():
    rng = np.random.default_rng(2)
    yield "gaussian-300x500", rng.normal(0, 1, (300, 500))
    yield "gaussian-500x300", rng.normal(0, 1, (500, 300))
    yield "gaussian-80x120", rng.normal(0, 1, (80, 120))
    yield "close-top-pair-300x500", _close_top_pair((300, 500))
    yield "close-top-pair-60x40", _close_top_pair((60, 40))
    yield "rank-1-50x30", np.outer(rng.normal(0, 1, 50), rng.normal(0, 1, 30))
    yield "rank-1-20x90", np.outer(rng.normal(0, 1, 20), rng.normal(0, 1, 90))
    yield "1x40", rng.normal(0, 1, (1, 40))
    yield "40x1", rng.normal(0, 1, (40, 1))
    yield "1x1", np.array([[-3.0]])
    yield "2x2", rng.normal(0, 1, (2, 2))
    for shape in ((30, 50), (50, 30), (2, 7), (3, 3)):
        yield f"start-orthogonal-{shape[0]}x{shape[1]}", _orthogonal_to_start(shape)


_DESIGNS = dict(_designs())


def _assert_tight_bound(A):
    """L_SAFETY times 2 sigma_max(A)^2, to 1e-6 relative, and never below
    2 sigma_max(A)^2."""
    exact = 2.0 * np.linalg.norm(A, 2) ** 2
    L = lipschitz_estimate(A)
    assert L >= exact
    assert L <= regression.L_SAFETY * exact * (1 + 1e-6)


class TestLipschitz:
    def test_identity(self):
        L = lipschitz_estimate(np.eye(5))
        assert L == pytest.approx(2.2, rel=1e-3)

    def test_zero_matrix(self):
        assert lipschitz_estimate(np.zeros((3, 4))) == pytest.approx(1e-12)

    def test_upper_bounds_spectral_norm(self, rng):
        for _ in range(10):
            A = rng.normal(0, 1, (int(rng.integers(2, 20)),
                                  int(rng.integers(2, 20))))
            L = lipschitz_estimate(A)
            exact = 2.0 * np.linalg.eigvalsh(A.T @ A).max()
            assert L >= exact * (1 - 1e-3)
            assert L / 1.1 == pytest.approx(exact, rel=0.01)

    @pytest.mark.parametrize("name", list(_DESIGNS))
    def test_tight_bound(self, name):
        _assert_tight_bound(_DESIGNS[name])

    def test_covers_spectral_norm_of_scaled_designs(self):
        # no floor of 1 and no absolute floor: a design scaled by 1e-8 gets
        # its own estimate, not L_FLOOR
        for name in ("gaussian-300x500", "close-top-pair-60x40",
                     "rank-1-20x90", "40x1", "start-orthogonal-30x50"):
            for scale in (1e-8, 1e-5, 1e-3, 1e2, 1e4):
                _assert_tight_bound(scale * _DESIGNS[name])

    def test_row_orthogonal_to_the_start_vector(self):
        # a 1 x n design has a 1 x 1 Gram matrix, read directly
        v = np.random.default_rng(7).standard_normal(6)
        row = np.arange(1.0, 7.0)
        row -= (row @ v) / (v @ v) * v
        row /= np.linalg.norm(row)
        assert lipschitz_estimate(row[None, :]) == pytest.approx(2.2)

    def test_arpack_without_convergence(self, monkeypatch):
        # the dense Gram matrix takes over
        import scipy.sparse.linalg as sla

        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", np.zeros(0),
                                          np.zeros((0, 0)))

        monkeypatch.setattr(sla, "eigsh", no_convergence)
        for name in ("gaussian-80x120", "close-top-pair-60x40", "rank-1-50x30"):
            _assert_tight_bound(_DESIGNS[name])


class TestProblem:
    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_rejects_bad_lambda(self, lam):
        with pytest.raises(DimensionMismatch,
                           match="lambda must be finite and nonnegative"):
            RegressionProblem(np.eye(2), np.zeros(2), lam=lam)

    # each of these used to pass construction and fail only at the first
    # objective or prox call
    @pytest.mark.parametrize("edges, match", [
        (([0], [9], [1.0]), "edge endpoint out of range"),
        (([-1], [2], [1.0]), "edge endpoint out of range"),
        (([3], [3], [1.0]), "self-loops not allowed"),
        (([0], [1], [-1.0]), "edge weights must be finite and nonnegative"),
        (([0], [1], [np.nan]), "edge weights must be finite and nonnegative"),
        (([0], [1], [np.inf]), "edge weights must be finite and nonnegative"),
        (([0, 1], [1, 2], [1.0]), "edge arrays must have equal length"),
        (([0], [-1], [1.0]), "edge endpoint out of range"),
        (([0.9], [2], [1.0]), "finite integer"),   # used to mean node 0
        (([np.nan], [2], [1.0]), "finite integer"),
        (([0], [np.inf], [1.0]), "finite integer"),
    ])
    def test_rejects_bad_edges(self, edges, match):
        with pytest.raises(DimensionMismatch, match=match):
            RegressionProblem(np.eye(4), np.zeros(4), *edges, 1.0)

    # an infinite y used to construct, and the fit returned u = [0, 0]
    # after numpy's invalid-value warnings; a NaN in A failed only at the
    # first prox step, as "prox center must be finite"
    @pytest.mark.parametrize("A, y", [
        (np.eye(2), [np.inf, 1.0]),
        (np.eye(2), [np.nan, 1.0]),
        ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        ([[1.0, 0.0], [0.0, -np.inf]], [1.0, 1.0]),
    ])
    def test_rejects_non_finite_data(self, A, y):
        with pytest.raises(DimensionMismatch, match="A and y must be finite"):
            RegressionProblem(A, y, [0], [1], [1.0], 1.0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch, match=r"len\(y\) == N"):
            RegressionProblem(np.eye(3), np.zeros(2))
        problem = RegressionProblem(np.eye(3), np.zeros(3))
        for u in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(DimensionMismatch, match="u must have length 3"):
                objective(problem, u)

    def test_rejects_bad_penalties(self):
        with pytest.raises(DimensionMismatch, match="penalty key 4"):
            RegressionProblem(np.eye(4), np.zeros(4), lam=1.0,
                              penalties={4: PiecewiseLinearPenalty.abs_value()})
        with pytest.raises(NonConvexPenalty, match="not a PiecewiseLinearPenalty"):
            RegressionProblem(np.eye(4), np.zeros(4), lam=1.0,
                              penalties={0: abs})

    def test_stores_edges_as_the_prox_problem_does(self):
        # each pair once with u < v, sorted; the pairs used to keep their
        # input order
        prob = RegressionProblem(np.eye(4), np.zeros(4), [2, 0], [1, 3],
                                 [0.5, 1.0], 1.0)
        assert prob.edge_u.tolist() == [0, 1]
        assert prob.edge_v.tolist() == [3, 2]
        assert prob.edge_w.tolist() == [1.0, 0.5]
        assert prob.edge_u.dtype == np.int64 and prob.edge_w.dtype == np.float64


class TestObjective:
    def test_zero(self):
        prob = RegressionProblem(np.eye(2), np.zeros(2), lam=0.0)
        assert objective(prob, np.zeros(2)) == 0.0

    def test_pair_value(self):
        # 0.25 + 0.25 + 1*1*|0.5-1.5| = 1.5
        prob = fused_pair_problem()
        assert objective(prob, np.array([0.5, 1.5])) == pytest.approx(1.5)

    @pytest.mark.parametrize("with_penalties", [False, True])
    def test_equals_the_prox_problem_regularizer(self, rng, with_penalties):
        # bit for bit the value of a zero-centred ProxProblem's regularizer,
        # which objective once built on every call, with edges in either
        # order and duplicate pairs
        for _ in range(30):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(0, 3 * n))
            eu, ev = rng.integers(0, n, m), rng.integers(0, n, m)
            eu, ev = eu[eu != ev], ev[eu != ev]
            ew = rng.uniform(0, 2, len(eu)) * (rng.random(len(eu)) < 0.8)
            pens = ({int(i): random_penalty(rng) for i in
                     rng.choice(n, n // 3, replace=False)}
                    if with_penalties else {})
            lam = float(rng.uniform(0, 2))
            A, y = rng.normal(0, 1, (n + 3, n)), rng.normal(0, 1, n + 3)
            prob = RegressionProblem(A, y, eu, ev, ew, lam, pens)
            helper = ProxProblem(np.zeros(n), eu, ev, ew, lam, pens)
            for u in (rng.normal(0, 2, n), np.round(rng.normal(0, 1, n), 1)):
                resid = y - A @ u
                want = float(resid @ resid) + lam * regularizer(
                    u, helper.edge_u, helper.edge_v, helper.edge_w,
                    helper.penalties)
                assert objective(prob, u) == want

    def test_local_optimality_of_fit(self, rng):
        prob = fused_pair_problem()
        res = fista_fit(prob, tol=1e-12)
        base = objective(prob, res.u)
        for _ in range(300):
            pert = res.u + rng.normal(0, 0.05, 2)
            assert objective(prob, pert) >= base - 1e-9


class TestFit:
    def test_lambda_zero_identity_design(self, rng):
        y = rng.normal(0, 1, 6)
        prob = RegressionProblem(np.eye(6), y, lam=0.0)
        res = fista_fit(prob, tol=1e-12)
        assert np.abs(res.u - y).max() < 1e-6

    def test_identity_design_equals_prox(self):
        prob = fused_pair_problem()
        res = fista_fit(prob, tol=1e-12)
        direct = prox(ProxProblem.from_edges([0.0, 2.0], {(0, 1): 1.0}, lam=1.0))
        assert np.abs(res.u - direct).max() < 1e-6
        assert res.u == pytest.approx([0.5, 1.5], abs=1e-6)

    def test_lambda_zero_least_squares(self, rng):
        for _ in range(5):
            A = rng.normal(0, 1, (40, 12))
            y = rng.normal(0, 1, 40)
            prob = RegressionProblem(A, y, lam=0.0)
            res = fista_fit(prob, tol=1e-14, max_iter=20000)
            ls = np.linalg.lstsq(A, y, rcond=None)[0]
            assert np.abs(res.u - ls).max() < 1e-6

    def test_best_iterate_monotone(self, rng):
        A = rng.normal(0, 1, (30, 15))
        y = rng.normal(0, 1, 30)
        eu, ev, ew = [], [], []
        for i in range(14):
            eu.append(i)
            ev.append(i + 1)
            ew.append(1.0)
        prob = RegressionProblem(A, y, np.array(eu), np.array(ev),
                                 np.array(ew), 0.7)
        res = fista_fit(prob, max_iter=300)
        best = np.minimum.accumulate(res.trace)
        assert np.all(np.diff(best) <= 1e-12)

    def test_final_objective_near_reference(self, rng):
        A = rng.normal(0, 1, (40, 20))
        y = rng.normal(0, 1, 40)
        eu, ev = np.arange(19), np.arange(1, 20)
        prob = RegressionProblem(A, y, eu, ev, np.ones(19), 0.5)
        res = fista_fit(prob, tol=1e-10, max_iter=2000)
        ref = fista_fit(prob, tol=0.0, max_iter=20000)
        assert objective(prob, res.u) <= objective(prob, ref.u) + 1e-6

    def test_stop_is_relative_at_every_scale(self):
        # with y and lambda scaled by 1e-6 the objective scales by 1e-12;
        # a stop test floored at 1 used to end that fit after 1 iteration
        rng = np.random.default_rng(3)
        n = 60
        A = rng.normal(0, 1, (40, n))
        y = A @ np.repeat(rng.normal(0, 2, 4), 15) + rng.normal(0, 0.5, 40)
        eu = np.arange(n - 1)
        fits = [fista_fit(RegressionProblem(A, c * y, eu, eu + 1,
                                            np.ones(n - 1), c * 2.0))
                for c in (1.0, 1e-6)]
        assert fits[0].converged and fits[1].converged
        assert fits[0].iterations > 100
        assert fits[1].iterations == fits[0].iterations
        np.testing.assert_allclose(fits[1].u, 1e-6 * fits[0].u, rtol=1e-6)

    def test_zero_step_fixed_point(self):
        # with an enormous L the update leaves the iterate unchanged
        prob = fused_pair_problem()
        res = fista_fit(prob, max_iter=1, L=1e18)
        assert res.u == pytest.approx([0.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("L", [0.0, -1.0, np.inf, np.nan])
    def test_bad_lipschitz_rejected(self, L):
        with pytest.raises(DimensionMismatch, match="L must be"):
            fista_fit(fused_pair_problem(), L=L)

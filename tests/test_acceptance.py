"""Acceptance criteria: property-based exactness gates with brute-force
oracles at desk scale.  Each test prints one pass line with its timing;
tolerances are fixed here and match the module contracts.
"""

import time

import numpy as np

from graphprox import (FlowNetwork, PiecewiseLinearPenalty, ProxProblem,
                       QuadraticBinaryProblem, RegressionProblem, certificate,
                       fista_fit, max_flow, prox, reductions, solve,
                       solve_weighted)
from graphprox.oracle import (augment_integer_weights, brute_force_values,
                              min_norm_reference, prox_reference)
from conftest import random_prox_problem, random_submodular


def extreme_minimizers(f0, wS, memb, beta):
    vals = f0 - beta * wS
    best = vals.min()
    rows = memb[vals == best]
    s_min = set(np.nonzero(rows.all(axis=0))[0].tolist())
    s_max = set(np.nonzero(rows.any(axis=0))[0].tolist())
    return s_min, s_max


def safe_betas(rng, lo, hi, count):
    return rng.uniform(lo, hi, count)


def report(num, text, t0):
    print(f"ACCEPTANCE {num} PASS ({time.monotonic() - t0:.2f}s): {text}")


class TestAcceptance:
    def test_criterion_01_maxflow_exactness(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(101)
        memb12 = ((np.arange(1 << 12)[:, None] >> np.arange(12)) & 1).astype(bool)
        for trial in range(200):
            n = int(rng.integers(1, 13))
            m = int(rng.integers(0, 2 * n + 1))
            eu = rng.integers(0, n, m)
            ev = rng.integers(0, n, m)
            keep = eu < ev
            eu, ev = eu[keep], ev[keep]
            cap = rng.integers(0, 21, len(eu)).astype(float)
            a = rng.integers(-20, 21, n).astype(float)
            cut = FlowNetwork(n, np.maximum(a, 0.0), np.maximum(-a, 0.0),
                              np.r_[eu, ev], np.r_[ev, eu], np.r_[cap, cap])
            state = max_flow(cut)
            # brute force over all 2^n sink-side sets, vectorized
            memb = memb12[: 1 << n, :n]
            cost = memb @ np.maximum(a, 0.0) + (~memb) @ np.maximum(-a, 0.0)
            for k in range(len(eu)):
                crossing = memb[:, eu[k]] != memb[:, ev[k]]
                cost = cost + crossing * cap[k]
            assert state.value == cost.min(), f"trial {trial}"
        dt = time.monotonic() - t0
        assert dt < 5.0, f"runtime {dt:.2f}s exceeds 5s"
        report(1, "200 integer cut graphs solved exactly", t0)

    def _parametric_battery(self, rng, weights_of):
        """Shared machinery for criteria 2/3/5: returns violation counts."""
        mismatches = nest_violations = 0
        for _ in range(100):
            n = int(rng.integers(1, 11))
            prob = random_submodular(rng, n)
            w = weights_of(rng, n)
            sol = solve_weighted(prob, w) if w is not None else solve(prob)
            w_eff = w if w is not None else np.ones(n)
            r = reductions(prob, sol.alpha).r
            f0, wS, memb = brute_force_values(prob, w_eff)
            ratios = r[w_eff > 0] / w_eff[w_eff > 0]
            lo, hi = ratios.min() - 1, ratios.max() + 1
            prev1, prev2 = set(), set()
            for beta in np.sort(safe_betas(rng, lo, hi, 50)):
                s_min, s_max = extreme_minimizers(f0, wS, memb, beta)
                u1, u2 = sol.u1(float(beta)), sol.u2(float(beta))
                if u1 != s_min or u2 != s_max:
                    mismatches += 1
                if not (prev1 <= u1 and prev2 <= u2):
                    nest_violations += 1
                prev1, prev2 = u1, u2
        return mismatches, nest_violations

    def test_criterion_02_unweighted_exactness(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(202)
        mismatches, _ = self._parametric_battery(rng, lambda r, n: None)
        assert mismatches == 0
        dt = time.monotonic() - t0
        assert dt < 30.0, f"runtime {dt:.2f}s exceeds 30s"
        report(2, "100 problems x 50 betas match brute force exactly", t0)

    def test_criterion_03_nestedness(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(202)  # the same grids as criterion 2
        _, nest_violations = self._parametric_battery(rng, lambda r, n: None)
        assert nest_violations == 0
        report(3, "U1/U2 monotone nondecreasing across all beta grids", t0)

    def test_criterion_04_beta_shift_equivariance(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(404)
        violations = 0
        for _ in range(50):
            n = int(rng.integers(1, 10))
            prob = random_submodular(rng, n)
            sol = solve(prob)
            for delta in (-2.0, 0.7, 3.0):
                shifted = QuadraticBinaryProblem(
                    n, prob.diag - delta, prob.edge_u, prob.edge_v,
                    prob.edge_q)
                sol_s = solve(shifted)
                r_s = reductions(shifted, sol_s.alpha).r
                grid = np.unique(np.concatenate(
                    [r_s, [r_s.min() - 1, r_s.max() + 1]]))
                wide = np.diff(grid) > 1e-9
                for b in ((grid[:-1] + grid[1:]) / 2)[wide]:
                    if sol_s.u1(float(b)) != sol.u1(float(b + delta)) or \
                            sol_s.u2(float(b)) != sol.u2(float(b + delta)):
                        violations += 1
        assert violations == 0
        report(4, "50 instances x shifts {-2, 0.7, 3}: zero violations", t0)

    def test_criterion_05_weighted_exactness(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(505)
        mm_u, _ = self._parametric_battery(
            rng, lambda r, n: r.uniform(0.1, 5, n))
        rational = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        mm_q, _ = self._parametric_battery(
            rng, lambda r, n: r.choice(rational, n))
        assert mm_u == 0 and mm_q == 0

        # integer augmentation oracle
        for _ in range(50):
            n = int(rng.integers(1, 7))
            prob = random_submodular(rng, n)
            w = rng.integers(1, 4, n)
            solw = solve_weighted(prob, w.astype(float))
            aug, _ = augment_integer_weights(prob, w)
            sola = solve(aug)
            rw = reductions(prob, solw.alpha).r
            ratios = rw / w
            for b in safe_betas(rng, ratios.min() - 1, ratios.max() + 1, 25):
                assert solw.u1(float(b)) == \
                    {i for i in sola.u1(float(b)) if i < n}
                assert solw.u2(float(b)) == \
                    {i for i in sola.u2(float(b)) if i < n}
        report(5, "uniform/rational weights exact; augmentation oracle agrees",
               t0)

    def test_criterion_06_zero_weight_limit(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(606)
        residual = 0
        for _ in range(30):
            n = int(rng.integers(2, 9))
            prob = random_submodular(rng, n)
            w0 = rng.uniform(0.1, 5, n)
            kill = rng.choice(n, size=min(n - 1, int(rng.integers(1, 3))),
                              replace=False)
            w0[kill] = 0.0
            sol0 = solve_weighted(prob, w0)
            r0 = reductions(prob, sol0.alpha).r
            span = max(1.0, float(np.abs(r0).max()))
            betas = safe_betas(rng, -2 * span, 2 * span, 40)
            counts = []
            for eps in (1e-3, 1e-4, 1e-5):
                sole = solve_weighted(prob, np.maximum(w0, eps))
                counts.append(sum(
                    1 for b in betas
                    if sol0.u1(float(b)) != sole.u1(float(b))
                    or sol0.u2(float(b)) != sole.u2(float(b))))
            assert counts[0] >= counts[1] >= counts[2], counts
            residual += counts[-1]
        # random betas are non-degenerate with overwhelming probability
        assert residual == 0
        report(6, "30 zero-weight instances match the eps ladder", t0)

    def test_criterion_07_prox_exactness(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(707)
        for trial in range(100):
            n = int(rng.integers(2, 51))
            p = random_prox_problem(rng, n, with_penalties=(trial % 2 == 0))
            u = prox(p)
            ref = prox_reference(p)
            assert np.abs(u - ref).max() < 1e-6, f"trial {trial}"
            assert certificate(p, u) < 1e-7, f"trial {trial}"
        # closed forms to 1e-8
        u = prox(ProxProblem.from_edges([0.0, 2.0], {(0, 1): 1.0}, lam=1.0))
        assert np.abs(u - [0.5, 1.5]).max() < 1e-8
        u = prox(ProxProblem.from_edges([0.0, 2.0], {(0, 1): 1.0}, lam=3.0))
        assert np.abs(u - [1.0, 1.0]).max() < 1e-8
        u = prox(ProxProblem.from_edges(
            [0.8], {}, lam=1.0,
            penalties={0: PiecewiseLinearPenalty.abs_value()}))
        assert abs(u[0] - 0.3) < 1e-8
        dt = time.monotonic() - t0
        assert dt < 60.0, f"runtime {dt:.2f}s exceeds 60s"
        report(7, "100 prox problems match the reference; closed forms exact",
               t0)

    def test_criterion_08_min_norm_agreement(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(808)
        for trial in range(100):
            n = int(rng.integers(1, 10))
            prob = random_submodular(rng, n)
            weighted = trial % 2 == 1
            w = rng.uniform(0.2, 4, n) if weighted else np.ones(n)
            sol = solve_weighted(prob, w)
            r = reductions(prob, sol.alpha).r
            ref = min_norm_reference(prob, w).r
            assert np.abs(r - ref).max() < 1e-7, f"trial {trial}"
            star = float(np.sum(r * r / w))
            cap = -prob.edge_q
            if prob.n_edges:
                alphas = rng.uniform(-1, 1, (1000, prob.n_edges)) * cap
                static = prob.edge_q
                rr = np.tile(prob.diag, (1000, 1))
                np.add.at(rr.T, prob.edge_u, 0.5 * (static[:, None] - alphas.T))
                np.add.at(rr.T, prob.edge_v, 0.5 * (static[:, None] + alphas.T))
                vals = (rr * rr / w).sum(axis=1)
                assert star <= vals.min() + 1e-9, f"trial {trial}"
        report(8, "r(alpha*) matches projected gradient; beats 1000 random "
                  "pseudoflows per instance", t0)

    def test_criterion_09_regression_sanity(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(909)
        # identity design equals pure prox
        for _ in range(5):
            n = int(rng.integers(2, 12))
            p = random_prox_problem(rng, n)
            prob = RegressionProblem(np.eye(n), p.a, p.edge_u, p.edge_v,
                                     p.edge_w, p.lam, p.penalties)
            res = fista_fit(prob, tol=1e-13, max_iter=20000)
            assert np.abs(res.u - prox(p)).max() < 1e-6
        # lambda = 0 equals least squares on well-conditioned designs
        for _ in range(5):
            A = rng.normal(0, 1, (50, 10))
            y = rng.normal(0, 1, 50)
            assert np.linalg.cond(A.T @ A) < 1e6
            prob = RegressionProblem(A, y, lam=0.0)
            res = fista_fit(prob, tol=1e-14, max_iter=30000)
            ls = np.linalg.lstsq(A, y, rcond=None)[0]
            assert np.abs(res.u - ls).max() < 1e-6
        # best-iterate objective nonincreasing
        A = rng.normal(0, 1, (40, 20))
        y = rng.normal(0, 1, 40)
        eu, ev = np.arange(19), np.arange(1, 20)
        prob = RegressionProblem(A, y, eu, ev, np.ones(19), 0.5)
        res = fista_fit(prob, max_iter=400)
        best = np.minimum.accumulate(res.trace)
        assert np.all(np.diff(best) <= 1e-12)
        report(9, "identity-design == prox; lam=0 == least squares; "
                  "monotone best trace", t0)

    def test_criterion_10_denoising_scale_and_limits(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1010)
        H = W = 256
        img = np.zeros((H, W))
        img[:, W // 3:] = 0.5
        img[H // 2:, 2 * W // 3:] = 0.9
        img[: H // 4, : W // 5] = 0.25
        noisy = np.clip(img + rng.normal(0, 0.08, (H, W)), 0, 1)
        idx = np.arange(H * W).reshape(H, W)
        eu = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        ev = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        ew = np.ones(len(eu))

        t_solve = time.monotonic()
        u = prox(ProxProblem(noisy.ravel(), eu, ev, ew, 0.5))
        dt = time.monotonic() - t_solve
        assert dt < 10.0, f"256x256 denoise took {dt:.2f}s"
        rmse_out = float(np.sqrt(np.mean((u.reshape(H, W) - img) ** 2)))
        rmse_in = float(np.sqrt(np.mean((noisy - img) ** 2)))
        assert rmse_out < rmse_in  # actually denoises

        # lambda = 0: exact identity (handled without solving)
        p0 = ProxProblem(noisy.ravel(), eu, ev, ew, 0.0)
        assert np.array_equal(prox(p0), noisy.ravel())

        # lambda = 1e3: constant at the mean
        u_flat = prox(ProxProblem(noisy.ravel(), eu, ev, ew, 1000.0))
        assert np.abs(u_flat - noisy.mean()).max() < 1e-6
        report(10, f"256x256 in {dt:.2f}s; lam=0 identity; lam=1e3 constant",
               t0)

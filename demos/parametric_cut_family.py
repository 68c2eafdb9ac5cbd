"""Walk through the parametric cut family on a small random problem.

One solve produces the minimum-norm reduction vector; its level sets give
the exact minimizer of f(S) - beta|S| for *every* beta simultaneously,
and the per-node breakpoints tell you exactly where memberships flip.
"""

import numpy as np

import graphprox as gp
from graphprox.oracle import brute_force_minimizers

rng = np.random.default_rng(42)

# a 7-node submodular problem: nonpositive couplings on a random graph
n = 7
edges = {}
for i in range(n):
    for j in range(i + 1, n):
        if rng.random() < 0.5:
            edges[(i, j)] = -abs(rng.normal(0, 1))
problem = gp.QuadraticBinaryProblem.from_parts(rng.normal(0, 2, n), edges)
print(f"problem: n={n}, {problem.n_edges} couplings")

# one recursive solve gives the whole family
sol = gp.solve(problem)
r = gp.reductions(problem, sol.alpha)
print("reduction vector r*:", np.round(r.r, 4))
print("breakpoints:", np.round(sol.breakpoints(), 4))

# the pseudoflow satisfies the edge saturation conditions
assert gp.check_optimality(problem, sol.alpha)

# sweep beta: watch the optimal set grow monotonically, and check each
# answer against exhaustive enumeration
print("\n  beta     U2 (largest minimizer)        brute force agrees?")
lo, hi = r.r.min() - 0.5, r.r.max() + 0.5
for beta in np.linspace(lo, hi, 9):
    u1, u2 = sol.u1(beta), sol.u2(beta)
    mp = brute_force_minimizers(problem, beta)
    ok = (u1 == mp.s_min) and (u2 == mp.s_max)
    print(f"  {beta:+.3f}   {str(sorted(u2)):28s}  {ok}")

# breakpoints are exactly where memberships change: at one, the nodes
# that flip there are in the weak set U2 but not yet in the strict set U1
b0 = float(sol.breakpoints()[0])
print(f"\nfirst breakpoint {b0:.4f}: U1 = {sorted(sol.u1(b0))}, "
      f"U2 = {sorted(sol.u2(b0))}")

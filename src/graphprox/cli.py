"""Command-line surface: prox evaluation, TV denoising, breakpoint dumps,
regression fitting, and the oracle self-check.

Exit codes: 0 success, 1 self-check failure, 2 parse error or unreadable
file, 3 invariant violation, 4 non-convergence (best iterate still
written).  Each value is checked where the library takes it: an edge
weight, lambda or grid weight out of domain is the ``ProxProblem``
constructor's error (exit 3), not a check of the command's own.

The discretized total-variation penalty used by ``denoise`` is
anisotropic (the l1 norm of axis-aligned differences on the 4-neighbor
grid, ``grid_edges``), which is the form the graph-fused objective
covers; it is not the isotropic (rotation-invariant) functional.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as gio
from . import oracle, parametric, regression, weighted
from .errors import GraphProxError, ParseError
from .prox import ProxProblem
from .prox import prox as prox_op
from .qbm import QuadraticBinaryProblem

EXIT_CHECK_FAIL = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_NO_CONVERGE = 4


def grid_edges(height: int, width: int, weight: float):
    """(edge_u, edge_v, edge_w) arrays joining the 4-neighbors of a
    ``height`` x ``width`` image lattice, each edge of weight ``weight``."""
    if height < 1 or width < 1:
        raise GraphProxError("grid dimensions must be positive")
    idx = np.arange(height * width).reshape(height, width)
    eu = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    ev = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return eu, ev, np.full(len(eu), weight)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_vector(path, values, index_base: int):
    _write_lines(path, [f"{i + index_base} {_fmt(v)}"
                        for i, v in enumerate(values)])


def _write_lines(path, lines):
    """Write ``lines`` to the file ``path``, or to stdout for ``-``."""
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def cmd_prox(args) -> int:
    problem = gio.read_prox_problem(args.nodes, args.edges, args.penalties,
                                    lam=args.lam, index_base=args.index_base)
    u = prox_op(problem)
    _write_vector(args.output, u, args.index_base)
    return 0


def cmd_denoise(args) -> int:
    img, maxval = gio.read_pgm(args.image)
    a = img.astype(np.float64) / maxval
    h, w = a.shape
    eu, ev, ew = grid_edges(h, w, args.weight)
    u = prox_op(ProxProblem(a.ravel(), eu, ev, ew, args.lam)).reshape(h, w)
    if args.float_map:
        gio.write_float_map(args.output, u)
    else:
        levels = np.clip(np.rint(u * maxval), 0, maxval).astype(np.int64)
        gio.write_pgm(args.output, levels, maxval, binary=not args.ascii)
    return 0


def cmd_path(args) -> int:
    problem, weights = gio.read_qbm(args.nodes, args.edges,
                                    index_base=args.index_base)
    sol = weighted.solve_weighted(problem, weights)
    out = []
    bps = sol.breakpoints()
    out.append("# breakpoints")
    out.append(" ".join(_fmt(b) for b in bps))
    out.append("# node flip_value r w")
    for i in range(problem.n):
        out.append(f"{i + args.index_base} {_fmt(sol.flip_hi[i])} "
                   f"{_fmt(sol.levels[i])} {_fmt(weights[i])}")
    if args.beta is not None:
        u1 = sorted(i + args.index_base for i in sol.u1(args.beta))
        u2 = sorted(i + args.index_base for i in sol.u2(args.beta))
        out.append(f"# level sets at beta = {_fmt(args.beta)}")
        out.append("U1 " + " ".join(str(i) for i in u1))
        out.append("U2 " + " ".join(str(i) for i in u2))
    _write_lines(args.output, out)
    return 0


def cmd_fit(args) -> int:
    A = gio.read_csv_matrix(args.design)
    y = gio.read_csv_matrix(args.response).ravel()
    eu = ev = ew = ()
    if args.edges is not None:
        eu, ev, ew, _ = gio._edge_lines(args.edges, args.index_base)
    pens = gio.read_penalty_file(args.penalties, args.index_base) \
        if args.penalties else {}
    problem = regression.RegressionProblem(A, y, eu, ev, ew, args.lam, pens)
    result = regression.fista_fit(problem, tol=args.tol, max_iter=args.max_iter)
    _write_vector(args.output, result.u, args.index_base)
    if args.trace:
        with open(args.trace, "w", newline="\n") as fh:
            for k, val in enumerate(result.trace):
                fh.write(f"{k} {_fmt(val)}\n")
    return 0 if result.converged else EXIT_NO_CONVERGE


def _random_instance(rng, n):
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges[(i, j)] = -abs(rng.normal(0, 1))
    diag = rng.normal(0, 2, n)
    return {"diag": diag.tolist(),
            "edges": [[int(i), int(j), q] for (i, j), q in edges.items()]}


def _check_instance(inst) -> list:
    """Run the oracle cross-validation battery on one serialized instance.
    Returns a list of failure descriptions (empty = pass)."""
    problem = QuadraticBinaryProblem.from_parts(np.array(inst["diag"]),
                                                inst["edges"])
    w = np.array(inst.get("weights", [1.0] * problem.n))
    rng = np.random.default_rng(inst.get("beta_seed", 0))
    failures = []

    sol = weighted.solve_weighted(problem, w)
    r = parametric.reductions(problem, sol.alpha).r
    if not parametric.check_optimality(problem, sol.alpha, w):
        failures.append("saturation conditions violated")
    ref = oracle.min_norm_reference(problem, w) if np.all(w > 0) else None
    if ref is not None and np.abs(ref.r - r).max() > 1e-7:
        failures.append(f"min-norm deviation {np.abs(ref.r - r).max():.3g}")
    ratios = np.where(w > 0, r / np.where(w > 0, w, 1), 0.0)
    lo, hi = float(ratios.min()) - 1, float(ratios.max()) + 1
    prev_u2 = set()
    for b in sorted(rng.uniform(lo, hi, 15)):
        mp = oracle.brute_force_minimizers(problem, b, w)
        if sol.u1(b) != mp.s_min or sol.u2(b) != mp.s_max:
            failures.append(f"level-set mismatch at beta={b!r}")
            break
        if not prev_u2 <= mp.s_max:
            failures.append(f"nestedness violated at beta={b!r}")
            break
        prev_u2 = mp.s_max
    return failures


def cmd_check(args) -> int:
    if args.replay:
        with open(args.replay) as fh:
            inst = json.load(fh)
        failures = _check_instance(inst)
        for f in failures:
            print(f"FAIL {f}")
        print("replay:", "pass" if not failures else "fail")
        return 0 if not failures else EXIT_CHECK_FAIL
    if not 1 <= args.n <= oracle.ENUM_GUARD:
        raise GraphProxError(f"self-check needs 1 <= n <= {oracle.ENUM_GUARD}")
    if args.trials < 0:
        raise GraphProxError("self-check needs trials >= 0")
    rng = np.random.default_rng(args.seed)
    n_fail = 0
    for trial in range(args.trials):
        inst = _random_instance(rng, args.n)
        inst["beta_seed"] = args.seed + trial
        if rng.random() < 0.5:
            inst["weights"] = rng.uniform(0.1, 5, args.n).tolist()
        failures = _check_instance(inst)
        if failures:
            n_fail += 1
            fname = f"graphprox-check-failure-{args.seed}-{trial}.json"
            with open(fname, "w") as fh:
                json.dump(inst, fh, indent=1)
            print(f"FAIL trial {trial}: {'; '.join(failures)} "
                  f"(instance saved to {fname})")
    print(f"self-check: {args.trials - n_fail}/{args.trials} trials passed "
          f"(n={args.n}, seed={args.seed})")
    return 0 if n_fail == 0 else EXIT_CHECK_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphprox",
        description="Exact graph-fused proximal operators and parametric cuts")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--index-base", type=int, choices=(0, 1), default=0,
                       help="node numbering in files (default 0)")

    p = sub.add_parser("prox", help="evaluate the fused proximal operator")
    p.add_argument("nodes", help="node file: i a_i")
    p.add_argument("--edges", help="edge file: i j w_ij")
    p.add_argument("--penalties", help="penalty file: i breakpoints slopes")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("-o", "--output", default="-")
    common(p)
    p.set_defaults(func=cmd_prox)

    p = sub.add_parser("denoise", help="total-variation image denoising")
    p.add_argument("image", help="input PGM (P2 or P5)")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--weight", type=float, default=1.0,
                   help="uniform 4-neighbor edge weight")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--float-map", action="store_true",
                   help="write exact float map instead of PGM")
    p.add_argument("--ascii", action="store_true", help="write P2 not P5")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("path", help="dump breakpoints and flip values")
    p.add_argument("nodes", help="node file: i q_ii [w_i]")
    p.add_argument("--edges", help="edge file: i j q_ij (couplings <= 0)")
    p.add_argument("--beta", type=float, help="also print U1/U2 at this beta")
    p.add_argument("-o", "--output", default="-")
    common(p)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("fit", help="penalized regression via FISTA")
    p.add_argument("design", help="design matrix CSV (one row per observation)")
    p.add_argument("response", help="response CSV")
    p.add_argument("--edges")
    p.add_argument("--penalties")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--trace", help="write per-iteration objectives here")
    p.add_argument("-o", "--output", default="-")
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("check", help="run the oracle cross-validation suite")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replay", help="re-run a serialized failing instance")
    p.set_defaults(func=cmd_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphProxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

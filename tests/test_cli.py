"""End-to-end command-line checks, including exit codes and determinism."""

import numpy as np
import pytest

from graphprox import QuadraticBinaryProblem, certificate, io as gio
from graphprox._engine import solve_parametric
from graphprox.cli import main
from graphprox.prox import ProxProblem


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture
def pair_files(tmp_path):
    nodes = tmp_path / "nodes.txt"
    edges = tmp_path / "edges.txt"
    nodes.write_text("0 0.0\n1 2.0\n")
    edges.write_text("0 1 1.0\n")
    return nodes, edges


class TestProxCommand:
    def test_pair_closed_form(self, capsys, pair_files):
        nodes, edges = pair_files
        rc, out, _ = run(capsys, "prox", str(nodes), "--edges", str(edges),
                         "--lam", "1")
        assert rc == 0
        assert out.splitlines() == ["0 0.5", "1 1.5"]

    def test_lambda_zero_echoes_centers(self, capsys, pair_files):
        nodes, edges = pair_files
        rc, out, _ = run(capsys, "prox", str(nodes), "--lam", "0")
        assert rc == 0
        assert out.splitlines() == ["0 0", "1 2"]

    def test_equal_chain_unchanged(self, capsys, tmp_path):
        nodes = tmp_path / "n.txt"
        edges = tmp_path / "e.txt"
        nodes.write_text("0 1.5\n1 1.5\n2 1.5\n")
        edges.write_text("0 1 1\n1 2 1\n")
        rc, out, _ = run(capsys, "prox", str(nodes), "--edges", str(edges),
                         "--lam", "2")
        assert rc == 0
        assert out.splitlines() == ["0 1.5", "1 1.5", "2 1.5"]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 zork\n")
        rc, _, err = run(capsys, "prox", str(bad), "--lam", "1")
        assert rc == 2
        assert "error" in err

    def test_negative_weight_exit_2(self, capsys, tmp_path):
        nodes = tmp_path / "n.txt"
        edges = tmp_path / "e.txt"
        nodes.write_text("0 1.0\n1 2.0\n")
        edges.write_text("0 1 -0.5\n")
        rc, _, err = run(capsys, "prox", str(nodes), "--edges", str(edges),
                         "--lam", "1")
        assert rc == 2

    def test_output_certifies(self, capsys, tmp_path, rng):
        nodes = tmp_path / "n.txt"
        edges = tmp_path / "e.txt"
        out_file = tmp_path / "u.txt"
        n = 12
        a = rng.normal(0, 1, n)
        nodes.write_text("".join(f"{i} {float(a[i])!r}\n" for i in range(n)))
        lines = []
        ew = {}
        for i in range(n - 1):
            w = float(rng.uniform(0.2, 1.5))
            lines.append(f"{i} {i+1} {w!r}\n")
            ew[(i, i + 1)] = w
        edges.write_text("".join(lines))
        rc, _, _ = run(capsys, "prox", str(nodes), "--edges", str(edges),
                       "--lam", "0.8", "-o", str(out_file))
        assert rc == 0
        u = np.array([float(ln.split()[1])
                      for ln in out_file.read_text().splitlines()])
        p = ProxProblem.from_edges(a, ew, lam=0.8)
        assert certificate(p, u) < 1e-7

    def test_deterministic_output(self, capsys, pair_files, tmp_path):
        nodes, edges = pair_files
        o1, o2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
        run(capsys, "prox", str(nodes), "--edges", str(edges), "--lam", "1",
            "-o", str(o1))
        run(capsys, "prox", str(nodes), "--edges", str(edges), "--lam", "1",
            "-o", str(o2))
        assert o1.read_bytes() == o2.read_bytes()


class TestDenoiseCommand:
    def test_lambda_zero_identity(self, capsys, tmp_path, rng):
        img = (rng.random((5, 4)) * 255).astype(np.int64)
        src = tmp_path / "in.pgm"
        out = tmp_path / "out.fm"
        gio.write_pgm(src, img, 255)
        rc, _, _ = run(capsys, "denoise", str(src), "--lam", "0",
                       "-o", str(out), "--float-map")
        assert rc == 0
        assert np.array_equal(gio.read_float_map(out), img / 255)

    def test_large_lambda_constant(self, capsys, tmp_path, rng):
        img = (rng.random((6, 6)) * 255).astype(np.int64)
        src = tmp_path / "in.pgm"
        out = tmp_path / "out.fm"
        gio.write_pgm(src, img, 255)
        rc, _, _ = run(capsys, "denoise", str(src), "--lam", "1000",
                       "-o", str(out), "--float-map")
        assert rc == 0
        fm = gio.read_float_map(out)
        assert np.abs(fm - (img / 255).mean()).max() < 1e-6

    def test_two_pixel_closed_form(self, capsys, tmp_path):
        src = tmp_path / "in.pgm"
        out = tmp_path / "out.fm"
        gio.write_pgm(src, np.array([[0, 1]]), 1)
        rc, _, _ = run(capsys, "denoise", str(src), "--lam", "0.5",
                       "-o", str(out), "--float-map")
        assert rc == 0
        assert np.allclose(gio.read_float_map(out), [[0.25, 0.75]])

    def test_pgm_output_rounds(self, capsys, tmp_path, rng):
        img = (rng.random((4, 4)) * 255).astype(np.int64)
        src = tmp_path / "in.pgm"
        out = tmp_path / "out.pgm"
        gio.write_pgm(src, img, 255)
        rc, _, _ = run(capsys, "denoise", str(src), "--lam", "0.1",
                       "-o", str(out))
        assert rc == 0
        back, mv = gio.read_pgm(out)
        assert mv == 255 and back.shape == img.shape

    def test_malformed_pgm_exit_2(self, capsys, tmp_path):
        src = tmp_path / "in.pgm"
        src.write_bytes(b"P5\n2 2\n255\nab")
        rc, _, _ = run(capsys, "denoise", str(src), "--lam", "1",
                       "-o", str(tmp_path / "x.fm"), "--float-map")
        assert rc == 2


class TestPathCommand:
    def test_pair_breakpoints(self, capsys, tmp_path):
        nodes = tmp_path / "n.txt"
        edges = tmp_path / "e.txt"
        nodes.write_text("0 0.5\n1 2.5\n")
        edges.write_text("0 1 -1\n")
        rc, out, _ = run(capsys, "path", str(nodes), "--edges", str(edges),
                         "--beta", "1.0")
        assert rc == 0
        lines = out.splitlines()
        assert lines[1].split() == ["0.5", "1.5"]
        assert "U1 0" in lines
        assert "U2 0" in lines

    def test_single_node(self, capsys, tmp_path):
        nodes = tmp_path / "n.txt"
        nodes.write_text("0 0.7\n")
        rc, out, _ = run(capsys, "path", str(nodes))
        assert rc == 0
        assert out.splitlines()[1].split() == ["0.7"]

    def test_fused_block_single_breakpoint(self, capsys, tmp_path):
        nodes = tmp_path / "n.txt"
        edges = tmp_path / "e.txt"
        nodes.write_text("0 1.0\n1 1.0\n2 1.0\n")
        edges.write_text("0 1 -1\n1 2 -1\n")
        rc, out, _ = run(capsys, "path", str(nodes), "--edges", str(edges))
        assert rc == 0
        # the chain fuses into one level set (breakpoint 1/3 here)
        bps = out.splitlines()[1].split()
        assert len(bps) == 1
        assert float(bps[0]) == pytest.approx(1.0 / 3.0)

    def test_positive_line_exit_3(self, capsys, tmp_path):
        # the pair sums to -0.5, but its first line is a positive coupling
        nodes = tmp_path / "n.txt"
        edges = tmp_path / "e.txt"
        nodes.write_text("0 0.5\n1 2.5\n")
        edges.write_text("0 1 0.5\n1 0 -1.0\n")
        rc, _, err = run(capsys, "path", str(nodes), "--edges", str(edges))
        assert rc == 3
        assert "error" in err

    def test_reductions_exact_on_large_block(self, capsys, tmp_path):
        # a 400-node component goes to the quantized scipy backend, whose
        # in-block flows are off by ~1e-7; the printed r column must be
        # the exact level, as the pure float backend computes it
        rng = np.random.default_rng(11)
        n = 400
        u, v = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
        u, v = np.minimum(u, v)[u != v], np.maximum(u, v)[u != v]
        key = np.unique(u * n + v)
        eu, ev = key // n, key % n
        q = -np.abs(rng.normal(0, 1, len(eu)))
        diag, w = rng.normal(0, 2, n), rng.uniform(0.5, 3.0, n)
        nodes = tmp_path / "n.txt"
        edges = tmp_path / "e.txt"
        nodes.write_text("".join(f"{i} {diag[i]:.17g} {w[i]:.17g}\n"
                                 for i in range(n)))
        edges.write_text("".join(f"{a} {b} {c:.17g}\n"
                                 for a, b, c in zip(eu, ev, q)))
        rc, out, _ = run(capsys, "path", str(nodes), "--edges", str(edges))
        assert rc == 0
        r = np.array([float(line.split()[2]) for line in out.splitlines()[3:]])
        problem = QuadraticBinaryProblem(n, diag, eu, ev, q)
        exact = solve_parametric(problem, w, method="float").levels
        np.testing.assert_allclose(r, exact, rtol=0, atol=1e-9)


class TestFitCommand:
    def test_identity_lambda_zero(self, capsys, tmp_path):
        A = tmp_path / "A.csv"
        y = tmp_path / "y.csv"
        A.write_text("1,0\n0,1\n")
        y.write_text("1.25\n-0.5\n")
        out = tmp_path / "coef.txt"
        rc, _, _ = run(capsys, "fit", str(A), str(y), "--lam", "0",
                       "--tol", "1e-13", "-o", str(out))
        assert rc == 0
        coefs = [float(ln.split()[1]) for ln in out.read_text().splitlines()]
        assert coefs == pytest.approx([1.25, -0.5], abs=1e-6)

    def test_identity_design_matches_prox(self, capsys, tmp_path):
        A = tmp_path / "A.csv"
        y = tmp_path / "y.csv"
        e = tmp_path / "e.txt"
        A.write_text("1,0\n0,1\n")
        y.write_text("0\n2\n")
        e.write_text("0 1 1.0\n")
        out = tmp_path / "coef.txt"
        rc, _, _ = run(capsys, "fit", str(A), str(y), "--edges", str(e),
                       "--lam", "1", "--tol", "1e-13", "-o", str(out))
        assert rc == 0
        coefs = [float(ln.split()[1]) for ln in out.read_text().splitlines()]
        assert coefs == pytest.approx([0.5, 1.5], abs=1e-6)

    def test_negative_weight_line_exit_3(self, capsys, tmp_path):
        # the pair sums to 0.5, but its second line is a negative weight
        A = tmp_path / "A.csv"
        y = tmp_path / "y.csv"
        e = tmp_path / "e.txt"
        A.write_text("1,0\n0,1\n")
        y.write_text("0\n2\n")
        e.write_text("0 1 1.0\n1 0 -0.5\n")
        rc, _, err = run(capsys, "fit", str(A), str(y), "--edges", str(e),
                         "--lam", "1", "-o", str(tmp_path / "c.txt"))
        assert rc == 3
        assert "negative fusion weight" in err

    def test_nonconvergence_exit_4(self, capsys, tmp_path, rng):
        A = tmp_path / "A.csv"
        y = tmp_path / "y.csv"
        mat = rng.normal(0, 1, (10, 6))
        A.write_text("\n".join(",".join(repr(float(x)) for x in row)
                               for row in mat))
        y.write_text("\n".join(repr(float(x)) for x in rng.normal(0, 1, 10)))
        out = tmp_path / "coef.txt"
        rc, _, _ = run(capsys, "fit", str(A), str(y), "--lam", "0",
                       "--tol", "0", "--max-iter", "5", "-o", str(out))
        assert rc == 4
        assert out.exists()  # best iterate still written

    def test_trace_written(self, capsys, tmp_path):
        A = tmp_path / "A.csv"
        y = tmp_path / "y.csv"
        A.write_text("1,0\n0,1\n")
        y.write_text("1\n1\n")
        tr = tmp_path / "trace.txt"
        rc, _, _ = run(capsys, "fit", str(A), str(y), "--lam", "0",
                       "-o", str(tmp_path / "c.txt"), "--trace", str(tr))
        assert rc == 0
        assert len(tr.read_text().splitlines()) >= 2


class TestCheckCommand:
    def test_default_passes(self, capsys):
        rc, out, _ = run(capsys, "check", "--n", "6", "--trials", "8",
                         "--seed", "3")
        assert rc == 0
        assert "8/8" in out

    def test_zero_trials_vacuous(self, capsys):
        rc, out, _ = run(capsys, "check", "--trials", "0")
        assert rc == 0

    def test_replay_roundtrip(self, capsys, tmp_path, monkeypatch):
        import json
        inst = {"diag": [0.5, 2.5], "edges": [[0, 1, -1.0]], "beta_seed": 7}
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(inst))
        rc, out, _ = run(capsys, "check", "--replay", str(f))
        assert rc == 0
        assert "pass" in out
        # replays are deterministic: a second run prints the same report
        rc2, out2, _ = run(capsys, "check", "--replay", str(f))
        assert (rc2, out2) == (rc, out)


class TestGridSpec:
    def test_lattice_edges_only(self):
        from graphprox.cli import GridSpec
        eu, ev, ew = GridSpec(3, 4, weight=0.5).edges()
        assert len(eu) == 3 * 3 + 2 * 4  # horizontal + vertical
        assert np.all(ew == 0.5)
        for a, b in zip(eu, ev):
            ra, ca = divmod(int(a), 4)
            rb, cb = divmod(int(b), 4)
            assert abs(ra - rb) + abs(ca - cb) == 1

    def test_rejects_bad_dimensions(self):
        from graphprox import GraphProxError
        from graphprox.cli import GridSpec
        with pytest.raises(GraphProxError):
            GridSpec(0, 4)
        with pytest.raises(GraphProxError):
            GridSpec(2, 2, weight=-1.0)

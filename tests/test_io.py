"""File format round trips and parse errors."""

import numpy as np
import pytest

from graphprox import NonSubmodularEnergy, ParseError
from graphprox import io as gio


class TestTextFormats:
    def test_node_file_with_weights_and_comments(self, tmp_path):
        p = tmp_path / "nodes.txt"
        p.write_text("# header\n0 1.5\n2 -0.5 3.0\n")
        diag, w = gio.read_node_file(p)
        assert diag == pytest.approx([1.5, 0.0, -0.5])
        assert w == pytest.approx([1.0, 1.0, 3.0])

    def test_one_based_indexing(self, tmp_path):
        p = tmp_path / "nodes.txt"
        p.write_text("1 1.5\n2 2.5\n")
        diag, _ = gio.read_node_file(p, index_base=1)
        assert diag == pytest.approx([1.5, 2.5])

    def test_edge_file(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1 -1.0  # coupling\n2 1 -0.25\n")
        u, v, q = gio.read_edge_file(p)
        assert u.tolist() == [0, 1]
        assert v.tolist() == [1, 2]
        assert q == pytest.approx([-1.0, -0.25])

    def test_bad_lines_raise(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 abc\n")
        with pytest.raises(ParseError):
            gio.read_node_file(p)
        p.write_text("0 0 1.0\n")
        with pytest.raises(ParseError):
            gio.read_edge_file(p)

    def test_qbm_assembly(self, tmp_path):
        nodes = tmp_path / "n.txt"
        edges = tmp_path / "e.txt"
        nodes.write_text("0 0.5\n1 2.5\n")
        edges.write_text("0 1 -1\n")
        prob, w = gio.read_qbm(nodes, edges)
        assert prob.diag == pytest.approx([0.5, 2.5])
        assert prob.offdiag() == {(0, 1): -1.0}
        assert w == pytest.approx([1.0, 1.0])

    def test_edge_signs_checked_per_line(self, tmp_path):
        # each line's sign is checked before a repeated pair is summed,
        # even when the sum has the allowed sign
        nodes = tmp_path / "n.txt"
        edges = tmp_path / "e.txt"
        nodes.write_text("0 0.5\n1 2.5\n")
        edges.write_text("0 1 0.5\n1 0 -1.0\n")
        with pytest.raises(NonSubmodularEnergy):
            gio.read_qbm(nodes, edges)
        edges.write_text("0 1 -0.5\n1 0 1.0\n")
        with pytest.raises(ParseError):
            gio.read_prox_problem(nodes, edges)

    def test_repeated_edge_lines_summed(self, tmp_path):
        nodes = tmp_path / "n.txt"
        edges = tmp_path / "e.txt"
        nodes.write_text("0 0.5\n")
        edges.write_text("0 1 0.5\n1 0 0.25\n")
        p = gio.read_prox_problem(nodes, edges)
        assert p.a.tolist() == [0.5, 0.0]
        assert (p.edge_u.tolist(), p.edge_v.tolist()) == ([0], [1])
        assert p.edge_w.tolist() == [0.75]
        edges.write_text("0 1 -0.5\n1 0 -0.25\n")
        prob, w = gio.read_qbm(nodes, edges)
        assert prob.offdiag() == {(0, 1): -0.75}
        assert w.tolist() == [1.0, 1.0]

    def test_penalty_file(self, tmp_path):
        p = tmp_path / "pen.txt"
        # |u|: one breakpoint at 0, slopes -1, 1; plus a pure linear row
        p.write_text("0 0 -1 1\n1 0.5\n")
        pens = gio.read_penalty_file(p)
        assert pens[0].breakpoints == pytest.approx([0.0])
        assert pens[0].slopes == pytest.approx([-1.0, 1.0])
        assert pens[1].slopes == pytest.approx([0.5])

    def test_penalty_even_count_rejected(self, tmp_path):
        p = tmp_path / "pen.txt"
        p.write_text("0 0 -1\n")
        with pytest.raises(ParseError):
            gio.read_penalty_file(p)

    def test_csv_header_detection(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        m = gio.read_csv_matrix(p)
        assert np.allclose(m, [[1, 2], [3, 4]])
        p.write_text("1,2\n3,4\n")
        assert np.allclose(gio.read_csv_matrix(p), [[1, 2], [3, 4]])

    def test_csv_ragged_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            gio.read_csv_matrix(p)


class TestPgm:
    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_roundtrip(self, tmp_path, rng, binary, maxval):
        img = (rng.random((5, 7)) * maxval).astype(np.int64)
        path = tmp_path / "img.pgm"
        gio.write_pgm(path, img, maxval, binary=binary)
        back, mv = gio.read_pgm(path)
        assert mv == maxval
        assert np.array_equal(back, img)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n# comment\n2 2\n255\n0 10\n20 30\n")
        img, mv = gio.read_pgm(path)
        assert img.tolist() == [[0, 10], [20, 30]]

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P6\n2 2\n255\n")
        with pytest.raises(ParseError):
            gio.read_pgm(path)
        path.write_bytes(b"P5\n2 2\n255\nab")  # truncated raster
        with pytest.raises(ParseError):
            gio.read_pgm(path)

    def test_float_map_roundtrip(self, tmp_path, rng):
        img = rng.random((4, 6))
        path = tmp_path / "m.fm"
        gio.write_float_map(path, img)
        assert np.array_equal(gio.read_float_map(path), img)

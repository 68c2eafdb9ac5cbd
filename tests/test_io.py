"""File format round trips and parse errors."""

import numpy as np
import pytest

from graphprox import DimensionMismatch, NonSubmodularEnergy, ParseError
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
        nodes = tmp_path / "nodes.txt"
        p = tmp_path / "edges.txt"
        nodes.write_text("0 0.5\n")
        p.write_text("0 1 -1.0  # coupling\n2 1 -0.25\n")
        prob, w = gio.read_qbm(nodes, p)
        assert prob.edge_u.tolist() == [0, 1]
        assert prob.edge_v.tolist() == [1, 2]
        assert prob.edge_q == pytest.approx([-1.0, -0.25])
        assert prob.diag.tolist() == [0.5, 0.0, 0.0]
        assert w.tolist() == [1.0, 1.0, 1.0]

    def test_bad_lines_raise(self, tmp_path):
        nodes = tmp_path / "nodes.txt"
        p = tmp_path / "bad.txt"
        p.write_text("0 abc\n")
        with pytest.raises(ParseError):
            gio.read_node_file(p)
        nodes.write_text("0 0.5\n")
        p.write_text("0 0 1.0\n")
        with pytest.raises(ParseError, match=r"bad\.txt:1: edge from a node"):
            gio.read_qbm(nodes, p)
        p.write_text("# only a comment\n\n")
        with pytest.raises(ParseError, match=r"bad\.txt: no node lines"):
            gio.read_prox_problem(p)

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
        with pytest.raises(DimensionMismatch,
                           match=r"nonnegative, got -0.5 on edge \(0, 1\)"):
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

    @pytest.mark.parametrize("fmt", ["node", "prox_node", "edge",
                                     "fusion_edge", "penalty"])
    def test_index_below_base_names_line(self, tmp_path, fmt):
        # every indexed format reports an index below the base the same
        # way (a parse error naming the file and the line)
        nodes = tmp_path / "n.txt"
        bad = tmp_path / "bad.txt"
        nodes.write_text("1 0.5\n2 0.5\n")
        bad.write_text("1 2 0\n0 1 0\n" if "edge" in fmt else
                       "1 0.5\n0 0.5\n")
        read = {
            "node": lambda: gio.read_node_file(bad, 1),
            "prox_node": lambda: gio.read_prox_problem(bad, index_base=1),
            "edge": lambda: gio.read_qbm(nodes, bad, 1),
            "fusion_edge": lambda: gio.read_prox_problem(nodes, bad,
                                                         index_base=1),
            "penalty": lambda: gio.read_prox_problem(nodes, None, bad,
                                                     index_base=1),
        }[fmt]
        with pytest.raises(ParseError,
                           match=r"bad\.txt:2: node index below base"):
            read()

    def test_later_node_line_replaces_earlier(self, tmp_path):
        p = tmp_path / "n.txt"
        p.write_text("0 1.0 2.0\n1 3.0\n0 4.0\n")
        diag, w = gio.read_node_file(p)
        assert (diag.tolist(), w.tolist()) == ([4.0, 3.0], [1.0, 1.0])
        p.write_text("0 1.0\n0 2.0\n")
        assert gio.read_prox_problem(p).a.tolist() == [2.0]
        p.write_text("0 0 -1 1\n0 0.5\n")
        assert gio.read_penalty_file(p)[0].slopes.tolist() == [0.5]

    def test_csv_header_detection(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        m = gio.read_csv_matrix(p)
        assert np.allclose(m, [[1, 2], [3, 4]])
        p.write_text("1,2\n3,4\n")
        assert np.allclose(gio.read_csv_matrix(p), [[1, 2], [3, 4]])

    def test_csv_header_only_has_no_data_rows(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n")
        with pytest.raises(ParseError, match="no data rows"):
            gio.read_csv_matrix(p)
        p.write_text("")
        with pytest.raises(ParseError, match=r"m\.csv: empty file"):
            gio.read_csv_matrix(p)

    def test_csv_bad_value_names_its_line(self, tmp_path):
        # blank lines count: the bad value is on the file's fifth line
        p = tmp_path / "m.csv"
        p.write_text("a,b\n\n1,2\n\n3,x\n")
        with pytest.raises(ParseError, match=r"m\.csv:5: "):
            gio.read_csv_matrix(p)

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

    @pytest.mark.parametrize("data,match", [
        (b"P2\n2 2", "truncated header"),
        (b"P2\n2 x\n255\n0 0 0 0\n", "bad header"),
        (b"P2\n2 2\n0\n0 0 0 0\n", "maxval 0 out of range"),
        (b"P2\n2 2\n65536\n0 0 0 0\n", "maxval 65536 out of range"),
        (b"P2\n2 2\n255\n0 0 x 0\n", "bad ascii raster"),
        (b"P2\n2 2\n255\n0 0 0\n", "expected 4 pixels, got 3"),
        (b"P2\n2 2\n255\n0 0 0 256\n", "pixel outside"),
    ])
    def test_bad_header_or_raster_names_the_fault(self, tmp_path, data, match):
        path = tmp_path / "img.pgm"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=match):
            gio.read_pgm(path)

    def test_float_map_roundtrip(self, tmp_path, rng):
        img = rng.random((4, 6))
        path = tmp_path / "m.fm"
        gio.write_float_map(path, img)
        assert np.array_equal(gio.read_float_map(path), img)

    @pytest.mark.parametrize("text", ["3 2\n1 2\n3 4\n",   # a row short
                                      "2 2\n1 2\n3 x\n",   # not a number
                                      "2 2\n1 2\n3\n",     # a value short
                                      "2\n1 2\n"])          # bad header
    def test_float_map_malformed_rejected(self, tmp_path, text):
        # the first two used to raise a bare ValueError
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match="bad.txt"):
            gio.read_float_map(path)

"""Text and image file formats used by the solvers and the CLI.

All text formats are whitespace-delimited with ``#`` comments.  Node
indices in files may be 0- or 1-based (``index_base``); internally
everything is 0-based.

* node file:    ``i q_ii [w_i]``      (weight defaults to 1.0)
* edge file:    ``i j q_ij``          (couplings, q_ij <= 0)
* prox nodes:   ``i a_i``             (prox centers)
* prox edges:   ``i j w_ij``          (fusion weights, w_ij >= 0)
* penalty file: ``i b_1 ... b_{m-1} theta_1 ... theta_m``
                (odd token count after i: m-1 breakpoints then m slopes)
* PGM images:   P2 (ascii) and P5 (binary), maxval <= 65535
* float map:    ``height width`` header line, then one text row per
                image row
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .prox import PiecewiseLinearPenalty, ProxProblem
from .qbm import QuadraticBinaryProblem, _canonical_edges, _edge_arrays


def _data_lines(path):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def read_node_file(path, index_base: int = 0):
    """Read ``i q_ii [w_i]`` lines; returns (diag, weights) arrays."""
    entries = {}
    for lineno, toks in _data_lines(path):
        if len(toks) not in (2, 3):
            raise ParseError(f"{path}:{lineno}: expected 'i q [w]'")
        try:
            i = int(toks[0]) - index_base
            q = float(toks[1])
            w = float(toks[2]) if len(toks) == 3 else 1.0
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if i < 0:
            raise ParseError(f"{path}:{lineno}: node index below base")
        entries[i] = (q, w)
    if not entries:
        return np.zeros(0), np.zeros(0)
    n = max(entries) + 1
    diag = np.zeros(n)
    weights = np.ones(n)
    for i, (q, w) in entries.items():
        diag[i] = q
        weights[i] = w
    return diag, weights


def _edge_lines(path, index_base: int):
    """Read ``i j value`` lines; returns (u, v, value) arrays with one
    entry per line, as written, and 1 + the largest endpoint (0 if none).
    Callers check each line's sign here, before repeated pairs are
    summed."""
    rows = []
    for lineno, toks in _data_lines(path):
        if len(toks) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'i j value'")
        try:
            i = int(toks[0]) - index_base
            j = int(toks[1]) - index_base
            val = float(toks[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if i < 0 or j < 0 or i == j:
            raise ParseError(f"{path}:{lineno}: bad endpoints {i} {j}")
        rows.append((i, j, val))
    u, v, vals = _edge_arrays(rows)
    return u, v, vals, int(np.maximum(u, v).max(initial=-1)) + 1


def read_edge_file(path, index_base: int = 0):
    """Read ``i j value`` lines; returns (u, v, value) arrays (u < v), one
    entry per node pair with the values of repeated pairs summed."""
    u, v, vals, size = _edge_lines(path, index_base)
    return _canonical_edges(u, v, vals, size)


def read_qbm(node_path, edge_path=None, index_base: int = 0):
    """Assemble a QuadraticBinaryProblem plus weights from text files.
    Every edge line's coupling must be <= 0, even one that a repeated
    pair would cancel."""
    diag, weights = read_node_file(node_path, index_base)
    u = v = q = ()
    if edge_path is not None:
        u, v, q, size = _edge_lines(edge_path, index_base)
        extra = max(size - len(diag), 0)
        diag = np.concatenate([diag, np.zeros(extra)])
        weights = np.concatenate([weights, np.ones(extra)])
    return QuadraticBinaryProblem.from_parts(diag, zip(u, v, q)), weights


def read_penalty_file(path, index_base: int = 0) -> dict:
    """Read per-node piecewise-linear penalties.

    Each line: node index, then m-1 breakpoints followed by m slopes
    (2m - 1 numbers total; a single number is a pure linear slope).
    """
    penalties = {}
    for lineno, toks in _data_lines(path):
        try:
            i = int(toks[0]) - index_base
            vals = [float(t) for t in toks[1:]]
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if len(vals) % 2 != 1:
            raise ParseError(
                f"{path}:{lineno}: need m-1 breakpoints and m slopes "
                f"(odd count), got {len(vals)} values")
        m = (len(vals) + 1) // 2
        penalties[i] = PiecewiseLinearPenalty(np.array(vals[:m - 1]),
                                              np.array(vals[m - 1:]))
    return penalties


def read_prox_problem(node_path, edge_path=None, penalty_path=None,
                      lam: float = 1.0, index_base: int = 0) -> ProxProblem:
    """Assemble a ProxProblem from ``i a_i`` nodes and ``i j w_ij`` edges.
    Every edge line's weight must be >= 0, even one that a repeated pair
    would cancel."""
    centers = {}
    for lineno, toks in _data_lines(node_path):
        if len(toks) != 2:
            raise ParseError(f"{node_path}:{lineno}: expected 'i a_i'")
        try:
            centers[int(toks[0]) - index_base] = float(toks[1])
        except ValueError as exc:
            raise ParseError(f"{node_path}:{lineno}: {exc}") from exc
    if not centers or min(centers) < 0:
        raise ParseError(f"{node_path}: empty or indices below base")
    n = max(centers) + 1
    a = np.zeros(n)
    for i, val in centers.items():
        a[i] = val
    u = v = w = ()
    if edge_path is not None:
        u, v, w, size = _edge_lines(edge_path, index_base)
        if np.any(w < 0):
            raise ParseError(f"{edge_path}: negative fusion weight")
        a = np.concatenate([a, np.zeros(max(size - n, 0))])
    penalties = read_penalty_file(penalty_path, index_base) \
        if penalty_path is not None else {}
    return ProxProblem.from_edges(a, zip(u, v, w), lam, penalties)


def read_csv_matrix(path) -> np.ndarray:
    """Numeric CSV with an optional header row."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    start = 0
    try:
        [float(x) for x in lines[0].replace(",", " ").split()]
    except ValueError:
        start = 1
    rows = []
    for lineno, line in enumerate(lines[start:], start + 1):
        try:
            rows.append([float(x) for x in line.replace(",", " ").split()])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------

def read_pgm(path):
    """Read a P2/P5 PGM; returns (array of ints h x w, maxval)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise ParseError(f"{path}: not a P2/P5 PGM")
    binary = data[:2] == b"P5"

    # header tokens with '#' comments, then raster
    pos = 2
    tokens = []
    while len(tokens) < 3:
        if pos >= len(data):
            raise ParseError(f"{path}: truncated header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ParseError(f"{path}: bad header: {exc}") from exc
    if not (0 < maxval <= 65535):
        raise ParseError(f"{path}: maxval {maxval} out of range")

    if binary:
        pos += 1  # single whitespace after maxval
        bytes_per = 2 if maxval > 255 else 1
        need = width * height * bytes_per
        raster = data[pos:pos + need]
        if len(raster) != need:
            raise ParseError(f"{path}: truncated raster")
        dtype = ">u2" if bytes_per == 2 else np.uint8
        img = np.frombuffer(raster, dtype=dtype).astype(np.int64)
    else:
        try:
            vals = data[pos:].split()
            img = np.array([int(v) for v in vals], dtype=np.int64)
        except ValueError as exc:
            raise ParseError(f"{path}: bad ascii raster: {exc}") from exc
        if img.size != width * height:
            raise ParseError(f"{path}: expected {width * height} pixels, "
                             f"got {img.size}")
    if img.size and (img.min() < 0 or img.max() > maxval):
        raise ParseError(f"{path}: pixel outside [0, maxval]")
    return img.reshape(height, width), maxval


def write_pgm(path, img: np.ndarray, maxval: int, binary: bool = True):
    img = np.asarray(img)
    h, w = img.shape
    header = f"P5\n{w} {h}\n{maxval}\n" if binary else f"P2\n{w} {h}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        if binary:
            dtype = ">u2" if maxval > 255 else np.uint8
            fh.write(img.astype(dtype).tobytes())
        else:
            body = "\n".join(" ".join(str(int(x)) for x in row) for row in img)
            fh.write(body.encode() + b"\n")


def write_float_map(path, img: np.ndarray):
    # 17 significant digits so float64 values round-trip exactly
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    with open(path, "w") as fh:
        fh.write(f"{h} {w}\n")
        for row in img:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def read_float_map(path) -> np.ndarray:
    with open(path) as fh:
        h, w = (int(t) for t in fh.readline().split())
        rows = [[float(x) for x in fh.readline().split()] for _ in range(h)]
    img = np.asarray(rows, dtype=np.float64)
    if img.shape != (h, w):
        raise ParseError(f"{path}: shape mismatch")
    return img

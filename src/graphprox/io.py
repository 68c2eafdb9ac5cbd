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

The five indexed formats go through one line parser, ``_rows``: a wrong
token count, a token that is not a number, a node index below
``index_base`` or an edge from a node to itself raises
``ParseError("<path>:<line>: ...")`` (CLI exit 2).  In node-keyed files a
later line for a node replaces an earlier one; the constructors sum
repeated edges.  A value outside the model's domain (a positive
coupling, a negative fusion weight, a nonconvex penalty, a penalty on a
node past the last) is the constructors' error (exit 3): the readers
pass each edge line's value to them as read, and the message names the
first bad value and its edge.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .prox import PiecewiseLinearPenalty, ProxProblem
from .qbm import QuadraticBinaryProblem


def _rows(path, index_base: int, n_ids: int, fits, usage: str):
    """Yield ``(ids, values)`` for each data line of ``path``: its first
    ``n_ids`` tokens as distinct 0-based node ids, the rest as floats,
    whose count ``fits(count)`` must accept.  The one reader of the
    indexed formats' lines; raises ParseError naming the path and line."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            toks = raw.split("#", 1)[0].split()
            if not toks:
                continue
            where = f"{path}:{lineno}"
            if len(toks) < n_ids or not fits(len(toks) - n_ids):
                raise ParseError(f"{where}: expected '{usage}', got "
                                 f"{len(toks)} tokens")
            try:
                ids = [int(t) - index_base for t in toks[:n_ids]]
                vals = [float(t) for t in toks[n_ids:]]
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from exc
            if min(ids) < 0:
                raise ParseError(f"{where}: node index below base")
            if len(set(ids)) < n_ids:
                raise ParseError(f"{where}: edge from a node to itself")
            yield ids, vals


def _node_rows(path, index_base: int, fits, usage: str) -> dict:
    """``{node: values}`` of a file of ``i values...`` lines; a later line
    for a node replaces an earlier one."""
    return {i: vals for (i,), vals in _rows(path, index_base, 1, fits, usage)}


def read_node_file(path, index_base: int = 0):
    """Read ``i q_ii [w_i]`` lines; returns (diag, weights) arrays."""
    rows = _node_rows(path, index_base, lambda k: k in (1, 2), "i q [w]")
    n = max(rows, default=-1) + 1
    diag, weights = np.zeros(n), np.ones(n)
    for i, vals in rows.items():
        diag[i], weights[i] = (vals + [1.0])[:2]
    return diag, weights


def _edge_lines(path, index_base: int):
    """Read ``i j value`` lines; returns (u, v, value) arrays with one
    entry per line, as written, and 1 + the largest endpoint (0 if none).
    The constructors check each line's value before they sum repeated
    pairs."""
    ends, vals = [], []
    for ids, (val,) in _rows(path, index_base, 2, lambda k: k == 1,
                             "i j value"):
        ends.append(ids)
        vals.append(val)
    u, v = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    return u, v, np.array(vals), int(np.maximum(u, v).max(initial=-1)) + 1


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
    return QuadraticBinaryProblem(len(diag), diag, u, v, q), weights


def read_penalty_file(path, index_base: int = 0) -> dict:
    """Read per-node piecewise-linear penalties.

    Each line: node index, then m-1 breakpoints followed by m slopes
    (2m - 1 numbers total; a single number is a pure linear slope).
    """
    rows = _node_rows(path, index_base, lambda k: k % 2 == 1,
                      "i b_1 .. b_{m-1} theta_1 .. theta_m")
    return {i: PiecewiseLinearPenalty(np.array(vals[:len(vals) // 2]),
                                      np.array(vals[len(vals) // 2:]))
            for i, vals in rows.items()}


def read_prox_problem(node_path, edge_path=None, penalty_path=None,
                      lam: float = 1.0, index_base: int = 0) -> ProxProblem:
    """Assemble a ProxProblem from ``i a_i`` nodes and ``i j w_ij`` edges.
    Every edge line's weight must be >= 0, even one that a repeated pair
    would cancel (else the constructor's DimensionMismatch)."""
    centers = _node_rows(node_path, index_base, lambda k: k == 1, "i a_i")
    if not centers:
        raise ParseError(f"{node_path}: no node lines")
    n = max(centers) + 1
    a = np.zeros(n)
    for i, (val,) in centers.items():
        a[i] = val
    u = v = w = ()
    if edge_path is not None:
        u, v, w, size = _edge_lines(edge_path, index_base)
        a = np.concatenate([a, np.zeros(max(size - n, 0))])
    penalties = read_penalty_file(penalty_path, index_base) \
        if penalty_path is not None else {}
    return ProxProblem(a, u, v, w, lam, penalties)


def read_csv_matrix(path) -> np.ndarray:
    """Numeric CSV with an optional header row."""
    with open(path) as fh:
        # numbered before blank lines drop, so errors name the file's line
        lines = [(k, ln.strip()) for k, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    start = 0
    try:
        [float(x) for x in lines[0][1].replace(",", " ").split()]
    except ValueError:
        start = 1
    rows = []
    for lineno, line in lines[start:]:
        try:
            rows.append([float(x) for x in line.replace(",", " ").split()])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows after the header")
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
    """Read ``write_float_map``'s format; raises ParseError, with the path,
    on a malformed header, a token that is not a number, or rows that do
    not match the header's shape."""
    with open(path) as fh:
        try:
            h, w = (int(t) for t in fh.readline().split())
            rows = [[float(x) for x in fh.readline().split()] for _ in range(h)]
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    if h < 0 or w < 0 or any(len(row) != w for row in rows):
        raise ParseError(f"{path}: shape mismatch, expected {h} rows of {w} "
                         "values")
    return np.array(rows, dtype=np.float64).reshape(h, w)

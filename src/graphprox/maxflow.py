"""Maximum-flow / minimum-cut solver on ``FlowNetwork``, the one s-t
network format (``qbm.to_cut_graph`` builds it for a quadratic problem).

Two backends share one interface and are cross-checked in the test suite.
The float backend is a FIFO push-relabel in C (``_flow.c``) on the float
capacities; ``"auto"`` gives it the networks of at most
``_SCIPY_NODE_THRESHOLD`` nodes, and the engine gives it every union of
small blocks whatever its size.  For larger networks, scipy's C
``maximum_flow`` solves the network with its capacities snapped down to a
power-of-two grid (``_scipy_flow``), so its cuts are those of the snapped
network, whose capacities the flow carries as ``eff_*``.

The C file is compiled on the first kernel call with plain ``cc -O2
-shared -fPIC`` into ``~/.cache/graphprox/`` (a private directory in the
system temp directory when that is not writable), named by the SHA-256 of
its source, and loaded with ``ctypes``.  Its functions take bare addresses
(``ctypes.c_void_p``), not ``ndpointer`` types, whose checks cost more per
call than the solve of a small network: ``_c_arrays`` first makes each
array C-contiguous int64 or float64, copying only an array that is not,
and checks its size against the network, so the kernel never reads past
an array's end, and ``_address`` reads each address.  ``gp_max_flow``
writes the three flow arrays into one buffer, and ``gp_reach`` its two
masks.  If it cannot be built or loaded,
``kernel_error`` says why and the float backend is shortest augmenting
paths in pure Python (``_augmenting_paths``), exact on the float
capacities like the kernel.  One size switch then rules the fallback:
networks and residual searches of at most ``_SCIPY_NODE_THRESHOLD`` nodes
run in Python and larger ones in scipy (both searches of one ``min_cut``
on one CSR graph and its transpose), and the engine sends a union of
small blocks above the threshold to scipy like any other network.

Callers mark infinite capacities with ``np.inf``.  An infinite terminal
arc forces its node onto one side of every finite cut; an infinite arc
u -> v forbids u on the source side with v on the sink side.  Both
backends solve the network with every capacity above a bound on the flow
value, infinite ones included, clamped to a finite value just above that
bound: an arc above the flow value lies on no minimum cut, so lowering
it changes no minimum cut.  ``min_cut`` still reads the caller's network,
infinities included.

Cut orientation: the *optimal set* extracted from a cut is the set of
interior nodes on the sink side, matching the convention that sink-side
sets minimize f(S).  ``min_cut`` returns the extreme optimal sets
(S_min, S_max): S_min is the set of nodes that can reach t in the residual
graph, S_max the set of nodes unreachable from s.  Every minimum cut's
optimal set T satisfies S_min <= T <= S_max.

``check_flow`` lists a flow's capacity and conservation violations.
``min_cut`` runs it on every flow it is given, then searches that flow's
residual network (``_reach``), never a solver's labels, so it
checks every backend independently.  It raises ``StaleFlow`` with
``check_flow``'s messages, or when an augmenting path is left.

Saturation tests read ``FlowNetwork.tol()``, ``SAT_TOL`` times the
network's largest finite capacity, so they hold at every scale of the
capacities.

``fix_sides`` fixes, in one O(m) pass, the nodes every minimum cut agrees
on, and lifts a maximum flow of the network left to the whole network.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, StaleFlow

SAT_TOL = 1e-12  # saturation slack, relative to the largest finite capacity

# "auto" and the kernel-less residual search switch to scipy above this
_SCIPY_NODE_THRESHOLD = 300


def _node_ids(x, n: int, what: str) -> np.ndarray:
    """``x`` as an int64 array; raises DimensionMismatch naming ``what``
    unless every entry is an integer in [0, n).  An int or bool array skips
    the float pass."""
    x = np.asarray(x)
    if x.dtype.kind not in "biu":
        x = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(x) & (x == np.trunc(x))):
            raise DimensionMismatch(f"{what} must be a finite integer")
        x = np.clip(x, -1, n)   # so the cast is exact; -1 and n fail below
    x = x.astype(np.int64, copy=False)
    if x.size and (x.min() < 0 or x.max() >= n):
        raise DimensionMismatch(f"{what} out of range")
    return x


def _node_key(i, n: int, what: str) -> int:
    """The dict key ``i`` as an int; raises DimensionMismatch naming ``what``
    unless it is a Python or numpy integer, not a bool, in [0, n)."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < n:
        raise DimensionMismatch(f"{what} {i!r} is not a node in [0, {n})")
    return int(i)


def _checked_edges(u, v, val, n: int):
    """``(u, v, val)`` as int64, int64 and float64 arrays; raises
    DimensionMismatch unless they are 1-D of equal length with every
    endpoint an integer in [0, n).  Every constructor that takes edge
    arrays checks them here."""
    u = _node_ids(u, n, "edge endpoint")
    v = _node_ids(v, n, "edge endpoint")
    val = np.asarray(val, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1 or val.ndim != 1:
        raise DimensionMismatch("edge arrays must be 1-D")
    if not len(u) == len(v) == len(val):
        raise DimensionMismatch("edge arrays must have equal length")
    return u, v, val


@dataclass
class FlowNetwork:
    """Directed s-t network on n interior nodes.

    source_caps[i] is the capacity of arc s->i, sink_caps[i] of i->t.
    Interior arcs are directed triples (arc_u[k], arc_v[k], arc_cap[k])
    with endpoints in [0, n).  Capacities are nonnegative or np.inf.
    """

    n: int
    source_caps: np.ndarray
    sink_caps: np.ndarray
    arc_u: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    arc_v: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    arc_cap: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    _tol: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.source_caps = np.asarray(self.source_caps, dtype=np.float64)
        self.sink_caps = np.asarray(self.sink_caps, dtype=np.float64)
        if self.source_caps.shape != (self.n,) or self.sink_caps.shape != (self.n,):
            raise DimensionMismatch("terminal capacity arrays must have length n")
        self.arc_u, self.arc_v, self.arc_cap = _checked_edges(
            self.arc_u, self.arc_v, self.arc_cap, self.n)
        # NaN fails every comparison, so this rejects it too
        if not all(np.all(c >= 0) for c in
                   (self.source_caps, self.sink_caps, self.arc_cap)):
            raise DimensionMismatch("capacities must be nonnegative, not NaN")

    def tol(self) -> float:
        """``SAT_TOL`` times the largest finite capacity (0 when there is
        none), computed at the first call and kept: a network's arrays do
        not change once it is built."""
        if self._tol is None:
            caps = np.concatenate((self.source_caps, self.sink_caps,
                                   self.arc_cap))
            top = caps.max(initial=0.0)
            if top == np.inf:
                top = caps.max(where=np.isfinite(caps), initial=0.0)
            self._tol = SAT_TOL * float(top)
        return self._tol


def _prechecked(n, source_caps, sink_caps, arc_u, arc_v, arc_cap):
    """A FlowNetwork of arrays derived from checked ones, unchecked."""
    net = object.__new__(FlowNetwork)
    net.n, net.source_caps, net.sink_caps = n, source_caps, sink_caps
    net.arc_u, net.arc_v, net.arc_cap = arc_u, arc_v, arc_cap
    net._tol = None
    return net


@dataclass
class FlowState:
    """Arc flows and node excesses for a FlowNetwork.

    z_source[i] is the flow on s->i, z_sink[i] on i->t, z_arc[k] on interior
    arc k.  ``value`` is the total flow out of the source.  When the solver
    ran on capacities snapped down onto a power-of-two grid (the scipy
    backend), ``eff_source``/``eff_sink``/``eff_arc`` are those snapped
    capacities; checks and cut extraction use them in place of the
    originals.
    """

    z_source: np.ndarray
    z_sink: np.ndarray
    z_arc: np.ndarray
    value: float
    eff_source: np.ndarray | None = None
    eff_sink: np.ndarray | None = None
    eff_arc: np.ndarray | None = None

    def caps(self, net: FlowNetwork):
        if self.eff_source is not None:
            return self.eff_source, self.eff_sink, self.eff_arc
        return net.source_caps, net.sink_caps, net.arc_cap

    def excess(self, net: FlowNetwork) -> np.ndarray:
        """Inflow minus outflow at each interior node."""
        return (self.z_source - self.z_sink
                + np.bincount(net.arc_v, self.z_arc, net.n)
                - np.bincount(net.arc_u, self.z_arc, net.n))


def check_flow(net: FlowNetwork, state: FlowState) -> list:
    """Violations of the capacity bounds (the first five per arc kind) or,
    when those hold, of conservation at the interior nodes, where a message
    names the node of largest |excess|.  Empty when ``state`` is a valid
    flow of ``net``; DimensionMismatch for arrays that do not match it."""
    n, m = net.n, len(net.arc_u)
    flows, caps = (state.z_source, state.z_sink, state.z_arc), state.caps(net)
    if [np.shape(a) for a in flows + caps] != [(n,), (n,), (m,)] * 2:
        raise DimensionMismatch("flow arrays do not match the network")
    tol = net.tol()
    z, cap = np.concatenate(flows), np.concatenate(caps)  # all arcs at once
    if np.count_nonzero((z < -tol) | (z > cap + tol)):
        violations = []
        for z, cap, label in zip(flows, caps, ("z_source", "z_sink", "z_arc")):
            for k in ((z < -tol) | (z > cap + tol)).nonzero()[0][:5]:
                violations.append(
                    f"{label}[{k}] = {z[k]:.6g} outside [0, {cap[k]:.6g}]")
        if violations:
            return violations

    ex = np.abs(state.excess(net))
    slack = tol * max(1, net.n)
    # NaN fails the comparison, so an excess of NaN is a violation too
    if not (ex <= slack).all():
        k = int(np.argmax(ex))
        return [f"conservation fails: node {k} has |excess| "
                f"{ex[k]:.6g} > {slack:.6g}"]
    return []


# ---------------------------------------------------------------------------
# infinite capacities
# ---------------------------------------------------------------------------

def _clamped(net: FlowNetwork) -> tuple[FlowNetwork, float]:
    """``(cnet, clamp)``: ``clamp`` lies just above a bound on the flow
    value of ``net``, and ``cnet`` is ``net`` with every larger capacity,
    infinite ones included, lowered to ``clamp``.

    An arc whose capacity exceeds the max-flow value lies on no minimum
    cut, so the clamped network has the same minimum cuts and flow value,
    and its maximum flows are maximum flows of ``net``.  The bound is the
    smaller terminal side sum; when both sides hold an infinite arc it is
    the sum of all finite capacities, which bounds the cut around
    everything the source reaches over infinite arcs.  The clamp is the
    bound times 1 + 1e-9; where the bound is 0, no flow passes and it is
    the largest finite capacity (else 1), which keeps scipy's grid in the
    data's units.

    Raises
    ------
    DimensionMismatch
        If a node is pinned to both terminals, or a directed path of
        infinite arcs leads from a source pin to a sink pin (no finite cut).
    """
    # a side with an infinite arc sums to inf
    bound = min(float(net.source_caps.sum()), float(net.sink_caps.sum()))
    if bound == np.inf:
        inf_s = np.isinf(net.source_caps)
        inf_t = np.isinf(net.sink_caps)
        if np.any(inf_s & inf_t):
            raise DimensionMismatch("node pinned to both terminals")
        if inf_s.any() and inf_t.any():
            ties = np.isinf(net.arc_cap)
            k, zero = int(np.count_nonzero(ties)), np.zeros(net.n)
            from_s, to_t = _reach(net.n, net.arc_u[ties], net.arc_v[ties],
                                  (inf_s * 1.0, inf_t * 1.0, np.ones(k)),
                                  (zero, zero, np.zeros(k)), 0.0)
            if np.any(from_s & to_t):
                raise DimensionMismatch("infinite path links source to sink")
            caps = (net.source_caps, net.sink_caps, net.arc_cap)
            bound = float(sum(c[np.isfinite(c)].sum() for c in caps))
    clamp = bound * (1.0 + 1e-9) or net.tol() / SAT_TOL or 1.0
    cnet = _prechecked(net.n, np.minimum(net.source_caps, clamp),
                       np.minimum(net.sink_caps, clamp), net.arc_u, net.arc_v,
                       np.minimum(net.arc_cap, clamp))
    return cnet, clamp


# ---------------------------------------------------------------------------
# shortest augmenting paths (pure python, float capacities): the float
# backend where the C kernel cannot be built or loaded, and its cross-check
# in the tests
# ---------------------------------------------------------------------------

def _augmenting_paths(net: FlowNetwork, tol: float) -> FlowState:
    """Shortest augmenting paths (Edmonds and Karp, 1972) on float
    capacities; a residual arc with at most ``tol`` left counts as
    saturated.  Residual arc 2k is the k-th arc of positive capacity
    (terminal arcs first) and 2k + 1 its reverse, whose residual is the
    arc's flow.  Each round a BFS from s records the arc that first reached
    each node and stops once t is reached; the path's bottleneck is then
    pushed back along that path."""
    n = net.n
    s, t = n, n + 1
    tail = np.concatenate([np.full(n, s), np.arange(n), net.arc_u])
    head = np.concatenate([np.arange(n), np.full(n, t), net.arc_v])
    cap = np.concatenate([net.source_caps, net.sink_caps, net.arc_cap])
    keep = np.flatnonzero(cap > 0)
    ends = np.column_stack([tail[keep], head[keep]])
    order = np.argsort(ends.ravel(), kind="stable")
    first = np.searchsorted(ends.ravel()[order], np.arange(n + 3)).tolist()
    adj = order.tolist()
    to = ends[:, ::-1].ravel().tolist()
    res = np.column_stack([cap[keep], np.zeros(len(keep))]).ravel().tolist()
    while True:
        via = [-1] * (n + 2)  # the arc that first reached each node
        via[s] = 0            # never read: it only marks s as reached
        frontier = [s]
        while frontier and via[t] < 0:
            nxt = []
            for x in frontier:
                for a in adj[first[x]:first[x + 1]]:
                    y = to[a]
                    if via[y] < 0 and res[a] > tol:
                        via[y] = a
                        nxt.append(y)
            frontier = nxt
        if via[t] < 0:
            break
        path, x = [], t
        while x != s:
            path.append(via[x])
            x = to[via[x] ^ 1]
        d = min([res[a] for a in path])
        for a in path:
            res[a] -= d
            res[a ^ 1] += d
    z = np.zeros(len(cap))
    z[keep] = res[1::2]
    z_snk = z[n:2 * n]
    return FlowState(z[:n], z_snk, z[2 * n:], float(z_snk.sum()))


# ---------------------------------------------------------------------------
# C kernel (_flow.c): push-relabel on float capacities, residual search
# ---------------------------------------------------------------------------

_SOURCE = Path(__file__).with_name("_flow.c")
_lib = None          # the loaded kernel
kernel_error = None  # why the kernel is not in use, once its build or load failed


def _cache_dir() -> Path:
    """``~/.cache/graphprox``, else a private directory in the system temp
    directory: only this user may write where the kernel is loaded from.
    Where the platform has no user ids (no ``os.getuid``), only the first
    is tried, and neither its owner nor its mode is checked."""
    import tempfile

    uid = getattr(os, "getuid", lambda: None)()
    dirs = [Path("~/.cache/graphprox").expanduser()]
    if uid is not None:
        dirs.append(Path(tempfile.gettempdir()) / f"graphprox-{uid}")
    for d in dirs:
        try:
            d.mkdir(mode=0o700, parents=True, exist_ok=True)
            st = d.stat()
        except OSError:
            continue
        private = uid is None or (st.st_uid == uid and not st.st_mode & 0o022)
        if private and os.access(d, os.W_OK):
            return d
    raise OSError("no private writable directory for the compiled kernel")


def _build(source: bytes, directory: Path) -> Path:
    """The shared library of ``source`` in ``directory``, named by its
    SHA-256 and compiled once with plain ``cc`` into a temporary file that
    is then moved into place, so no process loads half a file."""
    import hashlib
    import shutil
    import subprocess
    import tempfile

    path = directory / f"_flow-{hashlib.sha256(source).hexdigest()}.so"
    if path.exists():
        return path
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        done = subprocess.run([cc, "-O2", "-shared", "-fPIC", "-x", "c", "-",
                               "-o", tmp], input=source, capture_output=True)
        if done.returncode:
            err = done.stderr.decode(errors="replace")[-500:]
            raise OSError(f"cc failed: {err}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _bind(path: Path):
    """The library at ``path``, with the kernel's argument types set:
    arrays go in as bare addresses, which ``_c_arrays`` vets."""
    lib = ctypes.CDLL(str(path))
    ptr, size, tol = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.gp_max_flow.argtypes = [size, size] + [ptr] * 5 + [tol] + [ptr] * 3
    lib.gp_reach.argtypes = [size, size] + [ptr] * 8 + [tol, ptr, ptr]
    lib.gp_max_flow.restype = lib.gp_reach.restype = ctypes.c_int
    return lib


def _kernel():
    """The compiled kernel, built and loaded at the first call; None when
    that failed (``kernel_error`` says why)."""
    global _lib, kernel_error
    if _lib is None and kernel_error is None:
        try:
            _lib = _bind(_build(_SOURCE.read_bytes(), _cache_dir()))
        except OSError as exc:
            kernel_error = str(exc)
    return _lib


def _c_arrays(arrays, dtypes, sizes):
    """``arrays`` as C-contiguous arrays of ``dtypes``, copied only where
    they are not already, once each holds as many items as ``sizes`` says:
    the kernel reads that many from each address.

    Raises
    ------
    DimensionMismatch
        If an array's size is not the one given.
    """
    out = [np.ascontiguousarray(a, t) for a, t in zip(arrays, dtypes)]
    if [a.size for a in out] != sizes:
        raise DimensionMismatch("flow arrays do not match the network")
    return out


def _address(a: np.ndarray) -> int:
    """The address of ``a``'s data: from a ctypes view where ``a`` is
    writable and not empty, about a third of the cost of ``a.ctypes.data``,
    which serves the rest."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):   # read-only, or no byte to view
        return a.ctypes.data


_NET_TYPES = (np.float64, np.float64, np.int64, np.int64, np.float64)


def _pr_flow(lib, net: FlowNetwork) -> FlowState:
    """Maximum flow of ``net`` by the kernel's push-relabel on the clamped
    network (``_clamped``), saturation tested against ``net.tol()``: the
    clamp would inflate the clamped network's."""
    cnet = _clamped(net)[0]
    n, m = net.n, len(net.arc_u)
    args = _c_arrays((cnet.source_caps, cnet.sink_caps, net.arc_u, net.arc_v,
                      cnet.arc_cap), _NET_TYPES, [n, n, m, m, m])
    z = np.empty(2 * n + m)  # z_source, z_sink and z_arc, back to back
    at = _address(z)
    if lib.gp_max_flow(n, m, *[_address(a) for a in args], net.tol(),
                       at, at + 8 * n, at + 16 * n):
        raise MemoryError(f"max-flow kernel failed on {n} nodes, {m} arcs")
    z_snk = z[n:2 * n]
    return FlowState(z[:n], z_snk, z[2 * n:], float(z_snk.sum()))


_REACH_TYPES = (np.int64, np.int64) + (np.float64,) * 6


def _reach(n, eu, ev, caps, flows, tol):
    """``(from_s, to_t)``: the nodes s reaches, and those that reach t, in
    the residual network of the flows ``(z_source, z_sink, z_arc)`` on the
    arcs ``eu -> ev`` with capacities ``(source, sink, arc)``, where a
    residual arc needs more than ``tol`` left.  Without the kernel, the
    search runs in Python up to ``_SCIPY_NODE_THRESHOLD`` nodes and in
    scipy beyond."""
    m = len(eu)
    args = _c_arrays((eu, ev, *caps, *flows), _REACH_TYPES,
                     [m, m, n, n, m, n, n, m])
    lib = _kernel()
    if lib is not None:
        out = np.empty(2 * n, dtype=bool)  # from_s, then to_t
        at = _address(out)
        if lib.gp_reach(n, m, *[_address(a) for a in args], tol, at, at + n):
            raise MemoryError(f"residual search failed on {n} nodes, {m} arcs")
        return out[:n], out[n:]
    eu, ev, c_src, c_snk, c_arc, z_src, z_snk, z_arc = args
    fwd, rev = c_arc - z_arc > tol, z_arc > tol
    fu = np.concatenate([eu[fwd], ev[rev]])
    fv = np.concatenate([ev[fwd], eu[rev]])
    from_src, to_snk = c_src - z_src > tol, c_snk - z_snk > tol
    if n > _SCIPY_NODE_THRESHOLD:
        return _bfs_scipy(n, fu, fv, from_src, to_snk)
    return _bfs_python(n, fu, fv, from_src), _bfs_python(n, fv, fu, to_snk)


# ---------------------------------------------------------------------------
# scipy backend (capacities snapped to a power-of-two grid)
# ---------------------------------------------------------------------------

def _scipy_flow(net: FlowNetwork) -> FlowState:
    """Maximum flow by scipy's int32 ``maximum_flow`` on the clamped
    network (``_clamped``) with its capacities snapped down onto a
    power-of-two grid; the snapped capacities are the flow's ``eff_*``.
    An arc at the clamp snaps one step up instead: snapped down, it could
    land on the flow bound and so on a minimum cut.

    scipy sums parallel arcs into c(u, v) and keeps the residual of u -> v
    as c(u, v) - f(u, v) in int32, which reaches c(u, v) + c(v, u); where
    that sum wraps, it silently returns a non-maximum flow.  So the grid
    leaves room for twice the largest interior pair sum, not only for the
    clamp: twice the clamp when an interior arc is infinite, since both
    directions of a tie carry it, and for four steps up.  One stable sort
    of the arcs by (tail, head) gives the pair sums, the CSR graph, each
    pair's flow, and its split back over the pair's arcs in order.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    cnet, clamp = _clamped(net)
    n, width = net.n, net.n + 2  # source n, sink n + 1
    key = np.concatenate([n * width + np.arange(n), np.arange(n) * width + n + 1,
                          net.arc_u * width + net.arc_v])
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])  # pair starts
    key = key[first]
    c = np.concatenate([cnet.source_caps, cnet.sink_caps, cnet.arc_cap])[order]
    del cnet
    up = c == clamp
    # interior pairs are those whose first arc is interior (arcs 2n and up)
    inner = np.add.reduceat(c, first)[order[first] >= 2 * n]
    top = max(clamp, 2.0 * float(inner.max(initial=0.0)))
    scale = float(2.0 ** np.floor(np.log2((2.0 ** 31 - 5) / top)))
    c = np.floor(c * scale)
    c[up] += 1.0
    eff = np.empty(len(c))
    eff[order] = c / scale
    c = c.astype(np.int64)
    pair_cap = np.add.reduceat(c, first)
    live = np.flatnonzero(pair_cap)
    key = key[live]
    g = csr_matrix((pair_cap[live].astype(np.int32),
                    (key % width).astype(np.int32),
                    np.searchsorted(key, np.arange(width + 1) * width)
                    .astype(np.int32)), shape=(width, width))
    del inner, pair_cap
    flow = maximum_flow(g, n, n + 1).flow
    del g
    # the antisymmetric flow matrix holds each pair's net flow
    flow.sort_indices()
    fkey = np.repeat(np.arange(width) * width, np.diff(flow.indptr)) + flow.indices
    pair_flow = np.zeros(len(first), dtype=np.int64)
    pair_flow[live] = flow.data[np.searchsorted(fkey, key)]
    del flow, fkey, key, live
    # each arc takes what its pair's flow leaves after the arcs ahead of it
    # (none where the net flow runs the other way)
    ahead = np.cumsum(c) - c
    left = np.repeat(pair_flow + ahead[first], np.diff(np.r_[first, len(c)]))
    left -= ahead
    del ahead
    z = np.empty(len(c))
    z[order] = np.clip(left, 0, c, out=left) / scale
    z_snk = z[n:2 * n]
    return FlowState(z[:n], z_snk, z[2 * n:], float(z_snk.sum()),
                     eff[:n], eff[n:2 * n], eff[2 * n:])


def max_flow(net: FlowNetwork, method: str = "auto") -> FlowState:
    """Compute a maximum flow of ``net``.

    Parameters
    ----------
    net : FlowNetwork
    method : {"auto", "float", "scipy"}
        "float" is the C push-relabel on the float capacities, "scipy"
        scipy's C max-flow on capacities snapped to a power-of-two grid,
        and "auto" uses "float" up to ``_SCIPY_NODE_THRESHOLD`` nodes and
        "scipy" beyond.  Where the kernel cannot be built or loaded,
        "float" is shortest augmenting paths in pure Python
        (``_augmenting_paths``), which slows on large networks; the engine
        then gives "float" only networks of at most
        ``_SCIPY_NODE_THRESHOLD`` nodes.

    Returns
    -------
    FlowState
        A valid flow of maximum value.  Infinite capacities are solved
        clamped to a finite bound above the flow value (``_clamped``), so
        every flow, infinite arcs' included, is finite.
    """
    if method == "auto":
        method = "scipy" if net.n > _SCIPY_NODE_THRESHOLD else "float"
    if method not in ("float", "scipy"):
        raise ValueError(f"unknown method {method!r}")
    if net.n == 0:
        return FlowState(np.zeros(0), np.zeros(0), np.zeros(0), 0.0)
    if method == "scipy":
        return _scipy_flow(net)
    lib = _kernel()
    if lib is not None:
        return _pr_flow(lib, net)
    # tolerance from the caller's network: the clamp would inflate the
    # clamped network's
    return _augmenting_paths(_clamped(net)[0], net.tol())


def fix_sides(net: FlowNetwork):
    """``(side, free_net, lift)``: the nodes whose side every minimum cut
    of ``net`` agrees on, the network on the others, and a lift of flows.

    side[i] is +1 (-1) for a node on the source (sink) side of every
    minimum cut, else 0.  A node whose source arc exceeds its sink arc by
    more than its out-arcs carry plus ``net.tol()`` lowers any cut that
    holds it on the sink side when moved across; the sink side mirrors
    this (Hammer, Hansen and Simeone, 1984).  One pass, no fixpoint.  A
    node pinned to both terminals stays free, and one with an infinite
    out-arc (in-arc) is never fixed to the source (sink) side.

    ``free_net`` holds the free nodes in order (``net`` when none is
    fixed): an arc from a source-fixed node adds to its head's source arc,
    one into a sink-fixed node to its tail's sink arc, and every other arc
    touching a fixed node drops out.  ``lift(state)`` turns a maximum flow
    of ``free_net`` into the arc flows of one of ``net``: arcs from source-
    to sink-fixed nodes are saturated, the arcs that fed a free node's
    terminal arc share what it carried beyond the node's own capacity in
    proportion to their capacity, and other arcs touching a fixed node
    carry 0.  The margin that fixed a node leaves its terminal arcs room
    to balance it.
    """
    n, u, v, cap = net.n, net.arc_u, net.arc_v, net.arc_cap
    src, snk, tol = net.source_caps, net.sink_caps, net.tol()
    # a node cannot pass both tests: their sum would need src + snk above
    # itself
    fix_s = src > snk + np.bincount(u, cap, n) + tol
    fix_t = snk > src + np.bincount(v, cap, n) + tol
    side = fix_s.astype(np.int8) - fix_t
    free = (side == 0).nonzero()[0]
    m = len(free)
    if m == n:
        return side, net, lambda state: state.z_arc
    if m == 0:
        z = np.where(fix_s[u] & fix_t[v], cap, 0.0)
        none = np.zeros(0)
        return side, _prechecked(0, none, none, u[:0], v[:0], none), \
            lambda state: z
    # each arc end as a free node, or -1 (source-fixed) or -2 (sink-fixed)
    code = fix_s - 2
    code[free] = np.arange(m)
    cu, cv = code.take(u), code.take(v)
    free_u, free_v, from_s, to_t = cu >= 0, cv >= 0, cu == -1, cv == -2
    both, cross = free_u & free_v, (from_s & to_t).nonzero()[0]
    into, out = (from_s & free_v).nonzero()[0], (free_u & to_t).nonzero()[0]
    # the arcs that feed a free node's terminal arc: into it from a
    # source-fixed node (its source arc, bins 0..m-1) and out of it into a
    # sink-fixed node (its sink arc, bins m..2m-1)
    k = np.concatenate([into, out])
    e = np.concatenate([cv[into], cu[out] + m])
    own, cap_k = np.concatenate([src[free], snk[free]]), cap[k]
    add = np.bincount(e, cap_k, 2 * m)
    term = own + add
    # each arc's share of its free end's terminal excess
    ratio = np.divide(cap_k, add[e], out=np.zeros(len(k)), where=cap_k > 0)
    own = own[e]
    inner = both.nonzero()[0]
    free_net = _prechecked(m, term[:m], term[m:], cu[inner], cv[inner],
                           cap[inner])
    # the solve runs while lift lives: it keeps no arc-sized array but a mask
    n_arcs, cross_cap = len(cap), cap[cross]

    def lift(state: FlowState) -> np.ndarray:
        z = np.zeros(n_arcs)
        z[both] = state.z_arc
        z[cross] = cross_cap
        z_term = np.concatenate([state.z_source, state.z_sink])
        z[k] = ratio * np.maximum(z_term[e] - own, 0.0)
        return z

    return side, free_net, lift


def _bfs_python(n, eu, ev, reached):
    order = np.argsort(eu, kind="stable")
    su, sv = eu[order], ev[order]
    starts = np.searchsorted(su, np.arange(n))
    ends = np.searchsorted(su, np.arange(n) + 1)
    frontier = np.nonzero(reached)[0]
    while len(frontier):
        nxt = []
        for x in frontier:
            for k in range(starts[x], ends[x]):
                y = sv[k]
                if not reached[y]:
                    reached[y] = True
                    nxt.append(y)
        frontier = np.array(nxt, dtype=np.int64)
    return reached


def _bfs_scipy(n, fu, fv, from_src, to_snk):
    """``(from_s, to_t)`` over the residual arcs ``fu -> fv`` by scipy's
    breadth-first search, both from one CSR graph: node n is s, with an arc
    to each node of ``from_src``, and node n + 1 is t, with an arc from
    each node of ``to_snk``.  The search from s runs on the graph, the one
    into t from t on its transpose."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    src, snk = from_src.nonzero()[0], to_snk.nonzero()[0]
    rows = np.concatenate([np.full(len(src), n), fu, snk])
    cols = np.concatenate([src, fv, np.full(len(snk), n + 1)])
    # float64 data, the type the search works in, so it copies nothing
    g = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + 2, n + 2))
    masks = []
    for graph, start in ((g, n), (g.T, n + 1)):
        order = breadth_first_order(graph, start, directed=True,
                                    return_predecessors=False)
        mask = np.zeros(n, dtype=bool)
        mask[order[order < n]] = True
        masks.append(mask)
    return tuple(masks)


def min_cut(net: FlowNetwork, state: FlowState) -> tuple[set, set]:
    """Extract the extreme optimal (sink-side) sets from a maximum flow.

    Returns (S_min, S_max): the unique smallest and largest sink-side
    minimum cuts.  Every optimal set T satisfies S_min <= T <= S_max.

    Raises
    ------
    StaleFlow
        If ``state`` is not a valid maximum flow for ``net``.
    """
    violations = check_flow(net, state)
    if violations:
        raise StaleFlow("; ".join(violations))
    from_s, to_t = _reach(net.n, net.arc_u, net.arc_v, state.caps(net),
                          (state.z_source, state.z_sink, state.z_arc),
                          net.tol())
    if np.count_nonzero(from_s & to_t):
        raise StaleFlow("augmenting path exists; flow is not maximum")
    s_min = set(to_t.nonzero()[0].tolist())
    s_max = set((~from_s).nonzero()[0].tolist())
    return s_min, s_max


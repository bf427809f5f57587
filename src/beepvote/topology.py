"""Network topologies for the beep-model simulator.

Graphs are undirected, connected, and immutable once built.  Nodes are
indexed 0..N-1; the 2D mesh is numbered row-major.  Only this module
reads a graph's storage (its CSR arrays `indptr`, `indices` and `data`):
other modules see its edges through the channel rule (`activity`) and the
distance-2 colouring.  Level assignments map each node to a voting level
in 1..K.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

# Graphs are built and their channel is run from numpy arrays alone, so no
# scipy package is imported for them: the first CSR product (`_csr_matvecs`:
# the diameter search of an Erdos-Renyi or edge-list build, or a mesh's
# first channel slot) loads scipy's compiled kernel module
# scipy.sparse._sparsetools from its file.  scipy.sparse itself, whose init
# costs about 15 MB of RSS, is imported by the distance-2 colouring of such
# a graph (DVB2's preassigned ids) and by `spots` on one, which also loads
# scipy.sparse.csgraph and scipy.linalg.  A complete graph stores no
# adjacency, so complete-graph runs and the oracle never load scipy.

ER_RETRY_LIMIT = 1000
D_MODES = ("exact", "upper_bound_n")
DIAMETER_BLOCK = 256  # BFS sources per pass of exact_diameter


def default_edge_probability(n: int) -> float:
    """Edge probability (2/N) * log2(N), the sparse-but-connected regime."""
    if n <= 1:
        return 0.0
    return min(1.0, (2.0 / n) * math.log2(n))


@dataclass(frozen=True)
class Complete:
    n: int


@dataclass(frozen=True)
class Mesh2D:
    rows: int
    cols: int


@dataclass(frozen=True)
class ErdosRenyi:
    n: int
    edge_probability: float


TopologySpec = Complete | Mesh2D | ErdosRenyi


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class Graph:
    """Immutable undirected graph, the one place adjacency is stored.

    The constructor takes ownership of `indptr` and `indices` without a
    copy and makes them read-only; they must already be in canonical form,
    as `_symmetric_csr` builds them.  `graph_from_edges` is the entry point
    that validates a caller's edge list.

    Attributes:
        indptr, indices: the (N, N) symmetric, zero-diagonal adjacency in
            scipy's canonical CSR form (each row's columns sorted, no
            repeats), int64 numpy arrays.
        data: the matching all-true bool array the compiled kernel reads.
        diameter: exact hop diameter (0 for a single node).
        node_count, max_degree: N and the largest degree, stored when the
            graph is built.
    """

    indptr: np.ndarray
    indices: np.ndarray
    diameter: int

    def __post_init__(self) -> None:
        data = np.ones(len(self.indices), dtype=bool)
        for part in (self.indptr, self.indices, data):
            part.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "node_count", len(self.indptr) - 1)
        object.__setattr__(self, "max_degree", int(np.diff(self.indptr).max(initial=0)))

    def activity(self, beeps: np.ndarray) -> np.ndarray:
        """The channel rule, row by row: activity[i] iff some neighbor of i
        beeped.  beeps is an (N,) vector or an (S, N) block, and any other
        last axis raises ValueError; the reply is a new C-contiguous bool
        array of the same shape, whatever the input's layout.  The bool CSR
        product sums with logical OR, and the adjacency is symmetric, so
        row s is adj @ beeps[s]."""
        _check_width(beeps, self.node_count)
        return np.ascontiguousarray(_or_product(self.indptr, self.indices, self.data, beeps.T).T)

    @cached_property
    def distance2_colouring(self) -> np.ndarray:
        """Greedy colours from 1 in node order, each the least not held within
        two hops, so every closed neighborhood holds pairwise distinct colours.
        A read-only array, computed on first read."""
        adj = _scipy_csr(self)
        within_two = adj + adj @ adj
        ptr, near = within_two.indptr, within_two.indices
        colours = np.zeros(self.node_count, dtype=np.int64)
        for i in range(len(colours)):  # i and the nodes after it still read 0
            taken = set(colours[near[ptr[i] : ptr[i + 1]]].tolist())
            colour = 1
            while colour in taken:
                colour += 1
            colours[i] = colour
        colours.setflags(write=False)
        return colours


class CompleteGraph(Graph):
    """The complete graph on n nodes, stored as its node count, diameter
    and maximum degree alone.

    The channel rule, the distance-2 colouring and the spots are closed
    forms, so no adjacency is ever built and the CSR arrays are not set.
    """

    def __init__(self, n: int) -> None:
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "diameter", min(n - 1, 1))
        object.__setattr__(self, "max_degree", n - 1)

    def __repr__(self) -> str:  # the dataclass repr would read indptr
        return f"CompleteGraph(n={self.node_count})"

    def activity(self, beeps: np.ndarray) -> np.ndarray:
        """Some other node beeped: the row's beep count exceeds one's own
        beep (0 or 1), one comparison against the bool row.  A last axis
        other than N raises ValueError, as in `Graph.activity`."""
        _check_width(beeps, self.node_count)
        return beeps.sum(axis=-1, keepdims=True) > beeps

    @cached_property
    def distance2_colouring(self) -> np.ndarray:
        """Every pair is adjacent, so node i takes colour i + 1."""
        colours = np.arange(1, self.node_count + 1, dtype=np.int64)
        colours.setflags(write=False)
        return colours


def _check_width(beeps: np.ndarray, n: int) -> None:
    if beeps.shape[-1:] != (n,):
        raise ValueError(f"beeps of shape {beeps.shape} must end in an axis of N = {n} nodes")


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR arrays (indptr, indices) holding the undirected edges
    (u[k], v[k]) of int64 endpoints in 0..n-1, in scipy's canonical form:
    each row's columns sorted, a repeated or reversed pair stored once."""
    keys = np.unique(np.concatenate([u * n + v, v * n + u]))  # row-major cell numbers
    return np.searchsorted(keys, np.arange(n + 1) * n), keys % n


def _scipy_csr(graph: Graph):
    """The adjacency as a scipy csr_array over the graph's own arrays, for
    the matrix product and csgraph callers; imports scipy.sparse."""
    from scipy.sparse import csr_array

    n = graph.node_count
    return csr_array((graph.data, graph.indices, graph.indptr), shape=(n, n))


@cache
def _csr_matvecs():
    """scipy's compiled CSR kernel for adj @ (N, S) blocks, the one that
    `adj @ x` ends in; a private scipy API, pinned by the tests.  Its
    extension module is loaded from its file, so the scipy.sparse package
    (about 15 MB of RSS) is not imported; a module already imported, by
    scipy.sparse or an earlier load, is reused."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")  # imports nothing
        roots = (scipy and scipy.submodule_search_locations) or ()
        where = [os.path.join(root, "sparse") for root in roots]
        spec = importlib.machinery.PathFinder.find_spec(name, where)
        if spec is None:
            raise ImportError(f"no compiled module {name} in {where}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name].csr_matvecs


def _or_product(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """adj @ x for a bool (N,) or (N, S) x, as a new C-contiguous bool array
    of x's shape: the compiled kernel on the CSR arrays, without the Python
    dispatch of a scipy `adj @ x` (shape checks, copies, a strided result)."""
    x = np.ascontiguousarray(x, dtype=bool)
    out = np.zeros(x.shape, dtype=bool)
    n = len(indptr) - 1
    _csr_matvecs()(n, n, x.size // n, indptr, indices, data, x, out)
    return out


def hop_bound(graph: Graph, d_mode: str) -> int:
    """The hop bound a protocol schedules its relay waves for: the exact
    diameter, or N when only the trivial upper bound is assumed; at
    least 1."""
    if d_mode not in D_MODES:
        raise ValueError(f"d_mode must be one of {D_MODES}")
    return max(1, graph.diameter if d_mode == "exact" else graph.node_count)


def exact_diameter(indptr: np.ndarray, indices: np.ndarray) -> int | None:
    """Hop diameter of the CSR adjacency via BFS from every node,
    DIAMETER_BLOCK sources at a time: column j of `reach` marks the nodes
    within `hops` of source j and grows by one product `adj @ reach` per
    hop, so memory is O(N * block).  None when the graph is disconnected:
    some reach stops growing short of every node, which the first block of
    sources already finds."""
    n, data = len(indptr) - 1, np.ones(len(indices), dtype=bool)
    diameter = 0
    for start in range(0, n, DIAMETER_BLOCK):
        sources = np.arange(start, min(start + DIAMETER_BLOCK, n))
        reach = np.zeros((n, len(sources)), dtype=bool)
        reach[sources, np.arange(len(sources))] = True
        hops = 0
        while not reach.all():
            grown = reach | _or_product(indptr, indices, data, reach)
            if np.array_equal(grown, reach):
                return None
            reach, hops = grown, hops + 1
        diameter = max(diameter, hops)
    return diameter


def graph_from_edges(n: int, edges) -> Graph:
    """The connected graph on n nodes with undirected (u, v) edges, no
    self-loops; each endpoint is a whole number in 0..n-1."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    raw = np.array(list(edges)).reshape(-1, 2)
    if raw.dtype.kind not in "biu" and not (np.isfinite(raw) & (np.trunc(raw) == raw)).all():
        raise ValueError("edge endpoints must be whole numbers")
    if ((raw < 0) | (raw >= n)).any():
        raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
    u, v = raw.astype(np.int64).T
    if (u == v).any():
        raise ValueError("self-loops are not allowed")
    indptr, indices = _symmetric_csr(n, u, v)
    diameter = exact_diameter(indptr, indices)
    if diameter is None:
        raise ValueError("graph not connected")
    return Graph(indptr, indices, diameter)


def build(spec: TopologySpec, rng: np.random.Generator | None = None) -> Graph:
    """Build a connected graph from a topology description.

    ErdosRenyi samples every edge independently from rng, which it
    requires, and resamples the whole graph until it is connected; after
    ER_RETRY_LIMIT failures it raises.  The other graphs ignore rng.
    """
    if isinstance(spec, Complete):
        if spec.n < 1:
            raise ValueError("node count must be >= 1")
        return CompleteGraph(spec.n)

    if isinstance(spec, Mesh2D):
        r, c = spec.rows, spec.cols
        if r < 1 or c < 1:
            raise ValueError("mesh dimensions must be >= 1")
        n = r * c
        nodes = np.arange(n)
        right = nodes[(nodes + 1) % c != 0]  # every node but the last column
        down = nodes[: n - c]  # every node but the last row
        u, v = np.concatenate([right, down]), np.concatenate([right + 1, down + c])
        return Graph(*_symmetric_csr(n, u, v), (r - 1) + (c - 1))

    if isinstance(spec, ErdosRenyi):
        n = spec.n
        if n < 1:
            raise ValueError("node count must be >= 1")
        p = spec.edge_probability
        if not (0.0 <= p <= 1.0):
            raise ValueError("edge probability must lie in [0, 1]")
        if rng is None:
            raise ValueError("an Erdos-Renyi graph draws from the caller's generator; pass rng")
        iu = np.triu_indices(n, k=1)
        for _ in range(ER_RETRY_LIMIT):
            mask = rng.random(len(iu[0])) < p
            indptr, indices = _symmetric_csr(n, iu[0][mask], iu[1][mask])
            diameter = exact_diameter(indptr, indices)
            if diameter is not None:
                return Graph(indptr, indices, diameter)
        raise ValueError("connectivity retry limit exceeded")

    raise TypeError(f"unknown topology spec: {spec!r}")


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class LevelAssignment:
    """Per-node voting levels.

    values holds one entry per node in 1..level_count.  A level may be
    unused (count zero); level_count fixes the slot schedule width K.
    """

    values: np.ndarray
    level_count: int

    def __post_init__(self) -> None:
        raw = np.asarray(self.values)  # integer dtypes need no check
        if raw.dtype.kind not in "biu" and not (np.isfinite(raw) & (np.trunc(raw) == raw)).all():
            raise ValueError("levels must be whole numbers")
        values = np.array(raw, dtype=np.int64)  # never the caller's array
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.level_count < 1:
            raise ValueError("level count must be >= 1")
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("values must be a non-empty 1D array")
        if values.min() < 1 or values.max() > self.level_count:
            raise ValueError("levels must lie in 1..level_count")

    @property
    def node_count(self) -> int:
        return len(self.values)

    def level_counts(self) -> np.ndarray:
        """Count of nodes per level, index 0 holding level 1."""
        return np.bincount(self.values, minlength=self.level_count + 1)[1:]

    def plurality_level(self) -> int | None:
        """The unique most common level, or None on a tie."""
        counts = self.level_counts()
        top = counts.max()
        winners = np.flatnonzero(counts == top)
        if len(winners) != 1:
            return None
        return int(winners[0]) + 1


def spots(graph: Graph, values: np.ndarray) -> list[list[int]]:
    """Maximal connected same-value node sets, ordered by smallest member.

    Every node belongs to exactly one spot; merging two adjacent spots
    would always mix two distinct values.
    """
    values = np.asarray(values)
    if len(values) != graph.node_count:
        raise ValueError("values length must match node count")
    if isinstance(graph, CompleteGraph):  # every pair is adjacent: one spot per value
        _, labels = np.unique(values, return_inverse=True)
    else:
        from scipy.sparse import coo_array
        from scipy.sparse.csgraph import connected_components

        edges = _scipy_csr(graph).tocoo()
        keep = values[edges.row] == values[edges.col]
        kept = (edges.row[keep], edges.col[keep])
        same = coo_array((edges.data[keep], kept), shape=edges.shape)
        _, labels = connected_components(same, directed=False)
    parts: dict[int, list[int]] = {}
    for node, label in enumerate(labels.tolist()):
        parts.setdefault(label, []).append(node)
    return list(parts.values())

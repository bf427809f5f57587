"""Network topologies for the beep-model simulator.

Graphs are undirected, connected, and immutable once built.  Nodes are
indexed 0..N-1; the 2D mesh is numbered row-major.  Only this module
reads a graph's storage (`adj` and its CSR arrays): other modules see its
edges through the channel rule (`activity`) and the distance-2 colouring.
Level assignments map each node to a voting level in 1..K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# scipy is imported where it is used: scipy.sparse by the first mesh,
# Erdos-Renyi or edge-list build (`_symmetric_csr`); its compiled kernel
# module scipy.sparse._sparsetools, which that import has already loaded,
# by the first CSR product (`_csr_matvecs`, from `exact_diameter` during
# that build); and scipy.sparse.csgraph, which loads scipy.linalg, by
# `spots` on such a graph alone.  A complete graph stores no adjacency,
# so complete-graph runs and the oracle never load scipy.

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

    The constructor takes ownership of `adj` without a copy, puts it in
    canonical form and makes its arrays read-only; `graph_from_edges` is
    the entry point that validates a caller's edge list.

    Attributes:
        adj: (N, N) boolean CSR adjacency, symmetric, zero diagonal.
        diameter: exact hop diameter (0 for a single node).
        node_count, max_degree: N and the largest degree, stored when the
            graph is built.
    """

    adj: csr_array
    diameter: int

    def __post_init__(self) -> None:
        _freeze(self.adj)
        object.__setattr__(self, "node_count", self.adj.shape[0])
        object.__setattr__(self, "max_degree", int(np.diff(self.adj.indptr).max(initial=0)))

    def activity(self, beeps: np.ndarray) -> np.ndarray:
        """The channel rule, row by row: activity[i] iff some neighbor of i
        beeped.  beeps is an (N,) vector or an (S, N) block, and any other
        last axis raises ValueError; the reply is a new C-contiguous bool
        array of the same shape, whatever the input's layout.  The bool CSR
        product sums with logical OR, and the adjacency is symmetric, so
        row s is adj @ beeps[s]."""
        _check_width(beeps, self.node_count)
        return np.ascontiguousarray(_or_product(self.adj, beeps.T).T)

    @cached_property
    def distance2_colouring(self) -> np.ndarray:
        """Greedy colours from 1 in node order, each the least not held within
        two hops, so every closed neighborhood holds pairwise distinct colours.
        A read-only array, computed on first read."""
        within_two = self.adj + self.adj @ self.adj
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
    forms, so no adjacency matrix is ever built and `adj` is not set.
    """

    def __init__(self, n: int) -> None:
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "diameter", min(n - 1, 1))
        object.__setattr__(self, "max_degree", n - 1)

    def __repr__(self) -> str:  # the dataclass repr would read adj
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


def _freeze(adj: csr_array) -> csr_array:
    """Canonical form (sorted, no duplicates), then read-only arrays."""
    adj.sum_duplicates()
    for part in (adj.data, adj.indices, adj.indptr):
        part.setflags(write=False)
    return adj


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray) -> csr_array:
    """Bool CSR holding the undirected edges (u[k], v[k])."""
    from scipy.sparse import csr_array

    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    return csr_array((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n))


@cache
def _csr_matvecs():
    """scipy's compiled CSR kernel for adj @ (N, S) blocks, the one that
    `adj @ x` ends in; a private scipy API, pinned by the tests."""
    from scipy.sparse._sparsetools import csr_matvecs

    return csr_matvecs


def _or_product(adj: csr_array, x: np.ndarray) -> np.ndarray:
    """adj @ x for a bool (N,) or (N, S) x, as a new C-contiguous bool array
    of x's shape: the compiled kernel on the stored arrays, without the
    Python dispatch of `adj @ x` (shape checks, copies, a strided result)."""
    x = np.ascontiguousarray(x, dtype=bool)
    out = np.zeros(x.shape, dtype=bool)
    n = adj.shape[0]
    _csr_matvecs()(n, n, x.size // n, adj.indptr, adj.indices, adj.data, x, out)
    return out


def hop_bound(graph: Graph, d_mode: str) -> int:
    """The hop bound a protocol schedules its relay waves for: the exact
    diameter, or N when only the trivial upper bound is assumed; at
    least 1."""
    if d_mode not in D_MODES:
        raise ValueError(f"d_mode must be one of {D_MODES}")
    return max(1, graph.diameter if d_mode == "exact" else graph.node_count)


def exact_diameter(adj: csr_array) -> int | None:
    """Hop diameter via BFS from every node, DIAMETER_BLOCK sources at a
    time: column j of `reach` marks the nodes within `hops` of source j and
    grows by one product `adj @ reach` per hop, so memory is O(N * block).
    None when the graph is disconnected: some reach stops growing short of
    every node, which the first block of sources already finds."""
    n = adj.shape[0]
    diameter = 0
    for start in range(0, n, DIAMETER_BLOCK):
        sources = np.arange(start, min(start + DIAMETER_BLOCK, n))
        reach = np.zeros((n, len(sources)), dtype=bool)
        reach[sources, np.arange(len(sources))] = True
        hops = 0
        while not reach.all():
            grown = reach | _or_product(adj, reach)
            if np.array_equal(grown, reach):
                return None
            reach, hops = grown, hops + 1
        diameter = max(diameter, hops)
    return diameter


def graph_from_edges(n: int, edges) -> Graph:
    """The connected graph on n nodes with undirected (u, v) edges, no self-loops."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    u, v = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    if (u == v).any():
        raise ValueError("self-loops are not allowed")
    adj = _symmetric_csr(n, u, v)
    diameter = exact_diameter(adj)
    if diameter is None:
        raise ValueError("graph not connected")
    return Graph(adj, diameter)


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
        return Graph(_symmetric_csr(n, u, v), (r - 1) + (c - 1))

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
            adj = _symmetric_csr(n, iu[0][mask], iu[1][mask])
            diameter = exact_diameter(adj)
            if diameter is not None:
                return Graph(adj, diameter)
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

        edges = graph.adj.tocoo()
        keep = values[edges.row] == values[edges.col]
        kept = (edges.row[keep], edges.col[keep])
        same = coo_array((edges.data[keep], kept), shape=edges.shape)
        _, labels = connected_components(same, directed=False)
    parts: dict[int, list[int]] = {}
    for node, label in enumerate(labels.tolist()):
        parts.setdefault(label, []).append(node)
    return list(parts.values())

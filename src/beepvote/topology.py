"""Network topologies for the beep-model simulator.

Graphs are undirected, connected, and immutable once built.  Nodes are
indexed 0..N-1; the 2D mesh is numbered row-major.  Level assignments map
each node to a voting level in 1..K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_array, csr_array
from scipy.sparse.csgraph import connected_components, shortest_path

ER_RETRY_LIMIT = 1000
D_MODES = ("exact", "upper_bound_n")


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
    edge_probability: float | None = None  # None: (2/N) * log2(N)


TopologySpec = Complete | Mesh2D | ErdosRenyi


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class Graph:
    """Immutable undirected graph, the one place adjacency is stored.

    Nothing outside this module reads `adj`: the engine and protocols see
    edges only through the channel rule (`activity`) and the two-hop
    relation (`two_hop`).  The constructor takes ownership of `adj`
    without a copy, puts it in canonical form and makes its arrays
    read-only; `graph_from_adjacency` and `graph_from_edges` are the entry
    points that validate a caller's matrix or edge list.

    Attributes:
        adj: (N, N) boolean CSR adjacency, symmetric, zero diagonal.
        diameter: exact hop diameter (0 for a single node).
    """

    adj: csr_array
    diameter: int

    def __post_init__(self) -> None:
        _freeze(self.adj)

    @property
    def node_count(self) -> int:
        return self.adj.shape[0]

    @cached_property
    def max_degree(self) -> int:
        return int(np.diff(self.adj.indptr).max(initial=0))

    def activity(self, beeps: np.ndarray) -> np.ndarray:
        """The channel rule, row by row: activity[i] iff some neighbor of i
        beeped.  The bool CSR product sums with logical OR."""
        return (self.adj @ beeps.T).T

    def two_hop(self) -> csr_array:
        """(N, N) boolean CSR: j is a neighbor of i or a neighbor of one."""
        return self.adj + self.adj @ self.adj


class CompleteGraph(Graph):
    """The complete graph on n nodes, stored as n alone.

    The channel rule, the maximum degree and the two-hop relation are
    closed forms; the CSR `adj` is built on first use, by `spots` or a
    caller that reads it.
    """

    def __init__(self, n: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diameter", min(n - 1, 1))

    def __repr__(self) -> str:  # the dataclass repr would build adj
        return f"CompleteGraph(n={self.n})"

    @cached_property
    def adj(self) -> csr_array:
        n = self.n
        others = np.arange(n - 1)
        indices = (others + (others >= np.arange(n)[:, None])).ravel()  # row i skips i
        indptr = np.arange(n + 1) * (n - 1)
        data = np.ones(len(indices), dtype=bool)
        return _freeze(csr_array((data, indices, indptr), shape=(n, n)))

    @property
    def node_count(self) -> int:
        return self.n

    @property
    def max_degree(self) -> int:
        return self.n - 1

    def activity(self, beeps: np.ndarray) -> np.ndarray:
        """Some other node beeped: the row's beep count exceeds one's own."""
        return (beeps.sum(axis=-1, keepdims=True) - beeps) > 0

    def two_hop(self) -> csr_array:
        """Every pair, each node with itself, once there are two nodes;
        a CSR product would cost N^3."""
        n = self.n
        if n == 1:
            return self.adj
        every = np.arange(n * n) % n
        return csr_array((np.ones(n * n, dtype=bool), every, np.arange(n + 1) * n), shape=(n, n))


def _freeze(adj: csr_array) -> csr_array:
    """Canonical form (sorted, no duplicates), then read-only arrays."""
    adj.sum_duplicates()
    for part in (adj.data, adj.indices, adj.indptr):
        part.setflags(write=False)
    return adj


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray) -> csr_array:
    """Bool CSR holding the undirected edges (u[k], v[k])."""
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    return csr_array((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n))


def hop_bound(graph: Graph, d_mode: str) -> int:
    """The hop bound a protocol schedules its relay waves for: the exact
    diameter, or N when only the trivial upper bound is assumed; at
    least 1."""
    if d_mode not in D_MODES:
        raise ValueError(f"d_mode must be one of {D_MODES}")
    return max(1, graph.diameter if d_mode == "exact" else graph.node_count)


def exact_diameter(adj: csr_array) -> int:
    """Hop diameter via all-pairs BFS.  Raises on a disconnected graph."""
    n = adj.shape[0]
    if n <= 1:
        return 0
    dist = shortest_path(adj, method="D", unweighted=True, directed=False)
    if np.isinf(dist).any():
        raise ValueError("graph not connected")
    return int(dist.max())


def _graph_from_csr(adj: csr_array) -> Graph:
    """Validate a caller's CSR matrix and measure its diameter."""
    if adj.diagonal().any():
        raise ValueError("self-loops are not allowed")
    if (adj != adj.T).nnz:
        raise ValueError("adjacency must be symmetric")
    if adj.shape[0] < 1:
        raise ValueError("node count must be >= 1")
    return Graph(adj, exact_diameter(adj))


def graph_from_adjacency(adj: np.ndarray) -> Graph:
    adj = np.asarray(adj, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    return _graph_from_csr(csr_array(adj))


def graph_from_edges(n: int, edges) -> Graph:
    if n < 1:
        raise ValueError("node count must be >= 1")
    u, v = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    return _graph_from_csr(_symmetric_csr(n, u, v))


def build(spec: TopologySpec, rng: np.random.Generator | None = None) -> Graph:
    """Build a connected graph from a topology description.

    ErdosRenyi samples every edge independently and resamples the whole
    graph until it is connected; after ER_RETRY_LIMIT failures it raises.
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
        if p is None:
            p = default_edge_probability(n)
        if not (0.0 <= p <= 1.0):
            raise ValueError("edge probability must lie in [0, 1]")
        if rng is None:
            rng = np.random.default_rng()
        iu = np.triu_indices(n, k=1)
        for _ in range(ER_RETRY_LIMIT):
            mask = rng.random(len(iu[0])) < p
            adj = _symmetric_csr(n, iu[0][mask], iu[1][mask])
            if connected_components(adj, directed=False)[0] == 1:
                return Graph(adj, exact_diameter(adj))
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
        values = np.array(self.values, dtype=np.int64)  # never the caller's array
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
    edges = graph.adj.tocoo()
    keep = values[edges.row] == values[edges.col]
    same = coo_array((edges.data[keep], (edges.row[keep], edges.col[keep])), shape=edges.shape)
    _, labels = connected_components(same, directed=False)
    parts: dict[int, list[int]] = {}
    for node, label in enumerate(labels.tolist()):
        parts.setdefault(label, []).append(node)
    return list(parts.values())

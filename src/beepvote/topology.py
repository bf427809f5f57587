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
from scipy.sparse import csr_matrix
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
    without a copy and makes it read-only; `graph_from_adjacency` is the
    entry point that copies and validates a caller's matrix.

    Attributes:
        adj: (N, N) boolean adjacency matrix, symmetric, zero diagonal.
        diameter: exact hop diameter (0 for a single node).
    """

    adj: np.ndarray
    diameter: int

    def __post_init__(self) -> None:
        adj = np.asarray(self.adj, dtype=bool)
        adj.setflags(write=False)
        object.__setattr__(self, "adj", adj)

    @property
    def node_count(self) -> int:
        return self.adj.shape[0]

    @cached_property
    def max_degree(self) -> int:
        return int(self.adj.sum(axis=1).max(initial=0))

    @property
    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def degree(self, i: int) -> int:
        return int(self.adj[i].sum())

    def activity(self, beeps: np.ndarray) -> np.ndarray:
        """The channel rule, row by row: activity[i] iff some neighbor of i beeped."""
        return (self.adj @ beeps.T).T

    def two_hop(self) -> np.ndarray:
        """(N, N) boolean: j is a neighbor of i or a neighbor of one."""
        return self.adj | (self.adj @ self.adj)


def hop_bound(graph: Graph, d_mode: str) -> int:
    """The hop bound a protocol schedules its relay waves for: the exact
    diameter, or N when only the trivial upper bound is assumed; at
    least 1."""
    if d_mode not in D_MODES:
        raise ValueError(f"d_mode must be one of {D_MODES}")
    return max(1, graph.diameter if d_mode == "exact" else graph.node_count)


def _check_square_symmetric(adj: np.ndarray) -> None:
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if adj.diagonal().any():
        raise ValueError("self-loops are not allowed")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")


def is_connected(adj: np.ndarray) -> bool:
    if adj.shape[0] <= 1:
        return True
    n_comp, _ = connected_components(csr_matrix(adj), directed=False)
    return n_comp == 1


def exact_diameter(adj: np.ndarray) -> int:
    """Hop diameter via all-pairs BFS.  Raises on a disconnected graph."""
    n = adj.shape[0]
    if n <= 1:
        return 0
    dist = shortest_path(csr_matrix(adj), method="D", unweighted=True, directed=False)
    if np.isinf(dist).any():
        raise ValueError("graph not connected")
    return int(dist.max())


def graph_from_adjacency(adj: np.ndarray) -> Graph:
    adj = np.asarray(adj, dtype=bool).copy()
    _check_square_symmetric(adj)
    if len(adj) < 1:
        raise ValueError("node count must be >= 1")
    return Graph(adj, exact_diameter(adj))


def graph_from_edges(n: int, edges) -> Graph:
    if n < 1:
        raise ValueError("node count must be >= 1")
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if u == v:
            raise ValueError("self-loops are not allowed")
        adj[u, v] = adj[v, u] = True
    return graph_from_adjacency(adj)


def build(spec: TopologySpec, rng: np.random.Generator | None = None) -> Graph:
    """Build a connected graph from a topology description.

    ErdosRenyi samples every edge independently and resamples the whole
    graph until it is connected; after ER_RETRY_LIMIT failures it raises.
    """
    if isinstance(spec, Complete):
        if spec.n < 1:
            raise ValueError("node count must be >= 1")
        adj = np.ones((spec.n, spec.n), dtype=bool)
        np.fill_diagonal(adj, False)
        return Graph(adj, min(spec.n - 1, 1))

    if isinstance(spec, Mesh2D):
        r, c = spec.rows, spec.cols
        if r < 1 or c < 1:
            raise ValueError("mesh dimensions must be >= 1")
        n = r * c
        adj = np.zeros((n, n), dtype=bool)
        nodes = np.arange(n)
        right = nodes[(nodes + 1) % c != 0]  # every node but the last column
        down = nodes[: n - c]  # every node but the last row
        adj[right, right + 1] = adj[right + 1, right] = True
        adj[down, down + c] = adj[down + c, down] = True
        return Graph(adj, (r - 1) + (c - 1))

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
            adj = np.zeros((n, n), dtype=bool)
            mask = rng.random(len(iu[0])) < p
            adj[iu[0][mask], iu[1][mask]] = True
            adj |= adj.T
            if is_connected(adj):
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
    same = graph.adj & (values[:, None] == values)
    _, labels = connected_components(csr_matrix(same), directed=False)
    parts: dict[int, list[int]] = {}
    for node, label in enumerate(labels.tolist()):
        parts.setdefault(label, []).append(node)
    return list(parts.values())

import re
from pathlib import Path

import numpy as np
import pytest

from beepvote import topology
from beepvote.topology import (
    Complete,
    ErdosRenyi,
    LevelAssignment,
    Mesh2D,
    build,
    default_edge_probability,
    exact_diameter,
    graph_from_adjacency,
    graph_from_edges,
    spots,
)


def test_complete_graph_shape():
    g = build(Complete(4))
    assert g.node_count == 4
    assert g.edge_count == 6
    assert g.diameter == 1
    assert g.max_degree == 3
    assert not g.adj.diagonal().any()


def test_single_node():
    for g in (build(Complete(1)), build(Mesh2D(1, 1))):
        assert g.node_count == 1
        assert g.edge_count == 0
        assert g.diameter == 0
        assert g.max_degree == 0


def test_mesh_diameter_and_degrees():
    g = build(Mesh2D(3, 4))
    assert g.node_count == 12
    assert g.diameter == 3 + 4 - 2
    # corners have 2 neighbors, interior nodes 4
    assert g.degree(0) == 2
    assert g.degree(11) == 2
    assert g.degree(5) == 4
    assert g.max_degree == 4


def test_mesh_matches_row_major_edge_list():
    for r in range(1, 7):
        for c in range(1, 7):
            edges = [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
            edges += [(i * c + j, (i + 1) * c + j) for i in range(r - 1) for j in range(c)]
            g, ref = build(Mesh2D(r, c)), graph_from_edges(r * c, edges)
            assert np.array_equal(g.adj, ref.adj)
            assert (g.node_count, g.diameter, g.max_degree) == (
                ref.node_count,
                ref.diameter,
                ref.max_degree,
            )


def test_mesh_row_major_edges():
    g = build(Mesh2D(2, 3))
    assert g.adj[0, 1] and g.adj[1, 2] and g.adj[0, 3] and g.adj[2, 5]
    assert not g.adj[0, 4]
    assert not g.adj[2, 3]


def test_erdos_renyi_connected_with_default_probability():
    for seed in range(5):
        g = build(ErdosRenyi(40, None), np.random.default_rng(seed))
        assert g.node_count == 40
        assert exact_diameter(g.adj) == g.diameter
    assert default_edge_probability(40) == pytest.approx(2 * np.log2(40) / 40)


def test_erdos_renyi_retry_exhaustion():
    with pytest.raises(ValueError):
        build(ErdosRenyi(3, 0.0), np.random.default_rng(0))


def test_graph_from_edges_rejects_disconnected():
    with pytest.raises(ValueError):
        graph_from_edges(4, [(0, 1), (2, 3)])


def test_graph_from_adjacency_rejects_asymmetric():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = True
    with pytest.raises(ValueError):
        graph_from_adjacency(adj)
    with pytest.raises(ValueError, match="node count must be >= 1"):
        graph_from_adjacency(np.zeros((0, 0)))


def test_path_diameter():
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert g.diameter == 4
    assert g.max_degree == 2


def test_spots_mesh_example():
    g = build(Mesh2D(2, 2))
    parts = spots(g, np.array([1, 1, 2, 1]))
    assert parts == [[0, 1, 3], [2]]


def test_spots_uniform_values_single_spot():
    g = build(Mesh2D(3, 3))
    assert spots(g, np.full(9, 2)) == [list(range(9))]


def test_spots_all_distinct_are_singletons():
    g = build(Complete(3))
    assert spots(g, np.array([1, 2, 3])) == [[0], [1], [2]]


def test_spots_partition_and_maximality():
    rng = np.random.default_rng(9)
    g = build(ErdosRenyi(25, 0.2), rng)
    values = rng.integers(1, 4, size=25)
    parts = spots(g, values)
    flat = sorted(i for part in parts for i in part)
    assert flat == list(range(25))
    for part in parts:
        assert len({values[i] for i in part}) == 1
    # maximal: no edge joins two spots of the same value
    spot_of = {}
    for idx, part in enumerate(parts):
        for i in part:
            spot_of[i] = idx
    for i in range(25):
        for j in np.flatnonzero(g.adj[i]):
            if values[i] == values[j]:
                assert spot_of[i] == spot_of[int(j)]


def _bfs_spots(graph, values):
    """Reference: the per-node BFS spots was first written as."""
    seen = np.zeros(graph.node_count, dtype=bool)
    out = []
    for start in range(graph.node_count):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in np.flatnonzero(graph.adj[u]):
                v = int(v)
                if not seen[v] and values[v] == values[start]:
                    seen[v] = True
                    comp.append(v)
                    frontier.append(v)
        out.append(sorted(comp))
    return out


def test_spots_match_reference_bfs():
    rng = np.random.default_rng(31)
    for case in range(50):
        n = int(rng.integers(1, 30))
        if case % 5 == 0:
            g = build(Complete(n))
        elif case % 5 == 1:
            g = build(Mesh2D(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        else:
            g = build(ErdosRenyi(n, float(rng.uniform(0.1, 0.6))), rng)
        values = rng.integers(1, int(rng.integers(2, 5)), size=g.node_count)
        assert spots(g, values) == _bfs_spots(g, values)


def test_assignment_validates_levels():
    with pytest.raises(ValueError):
        LevelAssignment(np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        LevelAssignment(np.array([1, 3]), 2)


def test_assignment_counts_and_plurality():
    asg = LevelAssignment(np.array([1, 1, 2, 3, 1]), 3)
    assert asg.level_counts().tolist() == [3, 1, 1]
    assert asg.plurality_level() == 1


def test_assignment_tie_has_no_plurality():
    asg = LevelAssignment(np.array([1, 1, 2, 2]), 2)
    assert asg.plurality_level() is None


def test_assignment_unused_level_allowed():
    asg = LevelAssignment(np.array([1, 1, 1]), 3)
    assert asg.level_counts().tolist() == [3, 0, 0]


def test_graph_and_assignment_compare_by_identity():
    # fields hold arrays, so the generated field-wise __eq__ would raise
    g, h = build(Complete(3)), build(Complete(3))
    a, b = LevelAssignment(np.array([1, 2, 1]), 2), LevelAssignment(np.array([1, 2, 1]), 2)
    for x, y in ((g, h), (a, b)):
        assert x == x
        assert x != y
        assert hash(x) == hash(x)
        assert len({x, y}) == 2


def test_graph_and_assignment_arrays_are_read_only():
    g = build(Complete(3))
    asg = LevelAssignment(np.array([1, 2, 1]), 2)
    with pytest.raises(ValueError):
        g.adj[0, 1] = False
    with pytest.raises(ValueError):
        asg.values[0] = 2


def test_assignment_copies_its_values():
    big = np.array([1, 1, 2, 2, 2], dtype=np.int64)
    asg = LevelAssignment(big[:3], 2)
    big[:3] = 2  # writing through the caller's base leaves the assignment alone
    assert asg.plurality_level() == 1
    own = np.array([1, 2, 1], dtype=np.int64)
    LevelAssignment(own, 2)
    own[0] = 2  # and the caller's own array stays writable
    assert own.tolist() == [2, 2, 1]


def test_only_topology_reads_the_adjacency_matrix():
    package = Path(topology.__file__).parent
    readers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "topology.py" and re.search(r"\.adj\b", path.read_text())
    ]
    assert readers == []

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array, triu

from beepvote import topology
from beepvote.dvb2 import assign_ids, id_space
from beepvote.topology import (
    Complete,
    ErdosRenyi,
    LevelAssignment,
    Mesh2D,
    build,
    default_edge_probability,
    exact_diameter,
    graph_from_edges,
    hop_bound,
    spots,
)


def neighbor_rows(g):
    """Dense adjacency through the channel: one-hot beep rows, node j
    alone beeping in row j, are heard by exactly j's neighbors."""
    return g.activity(np.eye(g.node_count, dtype=bool))


def degrees(g):
    return neighbor_rows(g).sum(axis=1)


def scipy_adjacency(g):
    """A scipy matrix over the graph's own CSR arrays, for scipy's operators."""
    n = g.node_count
    return csr_array((g.data, g.indices, g.indptr), shape=(n, n))


def test_complete_graph_shape():
    g = build(Complete(4))
    assert g.node_count == 4
    assert degrees(g).sum() // 2 == 6
    assert g.diameter == 1
    assert g.max_degree == 3
    assert not neighbor_rows(g).diagonal().any()


def test_single_node():
    for g in (build(Complete(1)), build(Mesh2D(1, 1))):
        assert g.node_count == 1
        assert degrees(g).tolist() == [0]
        assert g.distance2_colouring.tolist() == [1]
        assert g.diameter == 0
        assert g.max_degree == 0


def test_complete_graph_closed_forms_match_its_csr_form():
    for n in (1, 2, 3, 8, 50):
        g, ref = build(Complete(n)), graph_from_edges(n, np.argwhere(~np.eye(n, dtype=bool)))
        assert type(g) is not type(ref)
        for graph in (g, ref):  # stored when built, not derived on each read
            assert {"node_count", "max_degree"} <= vars(graph).keys()
        assert (g.node_count, g.max_degree, g.diameter) == (
            ref.node_count,
            ref.max_degree,
            ref.diameter,
        )
        assert len(ref.indices) // 2 == n * (n - 1) // 2
        assert degrees(g).tolist() == degrees(ref).tolist() == [n - 1] * n
        assert g.distance2_colouring.tolist() == ref.distance2_colouring.tolist()
        assert g.distance2_colouring.tolist() == list(range(1, n + 1))
        assert np.array_equal(neighbor_rows(g), scipy_adjacency(ref).toarray())
        for seed in range(3):
            values = np.random.default_rng(seed).integers(1, 4, size=n)
            assert spots(g, values) == spots(ref, values)
            # the channel on (S, N) blocks and on the 1-D vector engine.step
            # sends: rows with no beeper, one beeper, every node beeping,
            # and random densities
            rng = np.random.default_rng(seed)
            block = rng.random((6, n)) < rng.random((6, 1))
            block[0] = False
            block[1] = np.arange(n) == rng.integers(n)
            block[2] = True
            for beeps in (block, *block):
                closed, csr = g.activity(beeps), ref.activity(beeps)
                assert closed.dtype == csr.dtype == bool
                assert np.array_equal(closed, csr)


def test_mesh_diameter_and_degrees():
    g = build(Mesh2D(3, 4))
    assert g.node_count == 12
    assert g.diameter == 3 + 4 - 2
    # corners have 2 neighbors, interior nodes 4
    deg = degrees(g)
    assert deg[0] == 2
    assert deg[11] == 2
    assert deg[5] == 4
    assert g.max_degree == 4


def test_mesh_matches_row_major_edge_list():
    for r in range(1, 7):
        for c in range(1, 7):
            edges = [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
            edges += [(i * c + j, (i + 1) * c + j) for i in range(r - 1) for j in range(c)]
            g, ref = build(Mesh2D(r, c)), graph_from_edges(r * c, edges)
            assert np.array_equal(g.indptr, ref.indptr)
            assert np.array_equal(g.indices, ref.indices)
            assert (g.node_count, g.diameter, g.max_degree) == (
                ref.node_count,
                ref.diameter,
                ref.max_degree,
            )


def test_mesh_row_major_edges():
    adj = scipy_adjacency(build(Mesh2D(2, 3)))
    assert adj[0, 1] and adj[1, 2] and adj[0, 3] and adj[2, 5]
    assert not adj[0, 4]
    assert not adj[2, 3]


def test_csr_channel_matches_scipys_product_and_the_rule():
    # Graph.activity calls scipy's private compiled kernel on the graph's
    # arrays; this pins it to the public operator of a scipy matrix over
    # the same arrays and to the per-node rule, on every input layout
    rng = np.random.default_rng(29)
    graphs = [
        build(Mesh2D(3, 4)),
        build(Mesh2D(16, 16)),
        build(ErdosRenyi(40, default_edge_probability(40)), rng),
        graph_from_edges(1, []),
        graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    ]
    for g in graphs:
        n = g.node_count
        near = [g.indices[g.indptr[i] : g.indptr[i + 1]] for i in range(n)]
        inputs = [rng.random(n) < 0.3, np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
        inputs += [rng.random((s, n)) < rng.random((s, 1)) for s in (0, 1, 2, 33)]
        block = rng.random((6, n)) < 0.3
        inputs += [np.asfortranarray(block), block[::2]]
        for beeps in inputs:
            before = beeps.copy()
            activity = g.activity(beeps)
            assert activity.dtype == bool and activity.shape == beeps.shape
            assert activity.flags.c_contiguous
            assert np.array_equal(beeps, before)
            assert np.array_equal(activity, (scipy_adjacency(g) @ beeps.T).T)
            rule = [[row[near[i]].any() for i in range(n)] for row in beeps.reshape(-1, n)]
            assert np.array_equal(activity, np.array(rule, dtype=bool).reshape(beeps.shape))


def test_channel_refuses_blocks_whose_width_is_not_the_node_count():
    # the compiled kernel reads x.size // N vectors and never checks the last
    # axis, so a short block read all False and a long one came back unrefused
    graphs = [
        build(Mesh2D(3, 3)),
        build(ErdosRenyi(9, default_edge_probability(9)), np.random.default_rng(0)),
        build(Complete(9)),
    ]
    for g in graphs:
        for shape in ((8,), (10,), (1, 8), (2, 10)):
            with pytest.raises(ValueError, match="must end in an axis of N = 9 nodes"):
                g.activity(np.ones(shape, dtype=bool))


def test_erdos_renyi_connected_with_default_probability():
    for seed in range(5):
        g = build(ErdosRenyi(40, default_edge_probability(40)), np.random.default_rng(seed))
        assert g.node_count == 40
        assert exact_diameter(g.indptr, g.indices) == g.diameter
    assert default_edge_probability(40) == pytest.approx(2 * np.log2(40) / 40)


def test_erdos_renyi_requires_a_generator():
    # ER draws only from the caller's stream, never from a fresh unseeded one
    with pytest.raises(ValueError, match="pass rng"):
        build(ErdosRenyi(10, 0.5))


def test_erdos_renyi_retry_exhaustion():
    with pytest.raises(ValueError):
        build(ErdosRenyi(3, 0.0), np.random.default_rng(0))


def _scipy_canonical(n, edges):
    """scipy's own canonical CSR of the undirected edges: the reference the
    numpy build must match array for array."""
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    adj = csr_array((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n))
    adj.sum_duplicates()
    return adj


def test_numpy_csr_build_matches_scipys_canonical_form():
    # seeded random edge lists with repeated and reversed pairs, each
    # stored once in sorted rows, with the index dtype scipy picks
    rng = np.random.default_rng(34)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        k = len(edges)
        edges = np.concatenate([edges, edges[: k // 3], edges[: k // 2, ::-1]])
        rng.shuffle(edges)
        indptr, indices = topology._symmetric_csr(n, *edges.T)
        ref = _scipy_canonical(n, edges)
        assert ref.has_canonical_format
        for ours, theirs in ((indptr, ref.indptr), (indices, ref.indices)):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
    g = graph_from_edges(3, [(0, 1), (1, 0), (2, 1), (0, 1)])
    assert (g.indptr.tolist(), g.indices.tolist()) == ([0, 1, 3, 4], [1, 0, 2, 1])
    assert g.data.tolist() == [True] * 4


def _exact_diameter_of(n, edges):
    adj = _scipy_canonical(n, edges)
    return exact_diameter(adj.indptr, adj.indices)


def _reference_erdos_renyi(n, p, rng):
    """The ER build with scipy's connectivity test and all-pairs diameter,
    drawing the same uniforms per attempt: (edges, diameter, attempts)."""
    from scipy.sparse.csgraph import connected_components, shortest_path

    iu = np.triu_indices(n, k=1)
    for attempt in range(1, topology.ER_RETRY_LIMIT + 1):
        mask = rng.random(len(iu[0])) < p
        edges = list(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))
        adj = _scipy_canonical(n, edges)
        if connected_components(adj, directed=False)[0] == 1:
            diameter = int(shortest_path(adj, unweighted=True, directed=False).max())
            return edges, diameter, attempt
    raise AssertionError("no connected draw")


def test_erdos_renyi_redraws_exactly_the_disconnected_draws():
    # at n = 12, p = 0.15 most draws are disconnected, so builds redraw
    # often; the diameter search must reject exactly the draws scipy does
    attempts = 0
    for seed in range(200):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        g = build(ErdosRenyi(12, 0.15), rng)
        edges, diameter, tries = _reference_erdos_renyi(12, 0.15, ref_rng)
        upper = triu(scipy_adjacency(g), format="coo")
        assert list(zip(upper.row.tolist(), upper.col.tolist())) == edges, seed
        assert g.diameter == diameter, seed
        assert rng.random() == ref_rng.random(), seed  # both took the same draws
        attempts += tries
    assert attempts > 2 * 200


def test_exact_diameter_is_none_when_disconnected():
    assert _exact_diameter_of(4, [(0, 1), (2, 3)]) is None
    assert _exact_diameter_of(3, []) is None
    path = [(i, i + 1) for i in range(299)]
    assert _exact_diameter_of(301, path) is None  # node 300 alone
    assert _exact_diameter_of(300, path) == 299


def test_graph_from_edges_rejects_disconnected():
    with pytest.raises(ValueError, match="graph not connected"):
        graph_from_edges(4, [(0, 1), (2, 3)])


def test_exact_diameter_matches_all_pairs_shortest_paths():
    # scipy's all-pairs search holds an N^2 float matrix, so only this test
    # calls it; graphs above DIAMETER_BLOCK nodes take several source blocks
    from scipy.sparse.csgraph import shortest_path

    rng = np.random.default_rng(12)
    graphs = [build(ErdosRenyi(n, default_edge_probability(n)), rng) for n in (2, 9, 64, 300, 600)]
    graphs += [build(Mesh2D(r, c)) for r, c in ((1, 7), (5, 9), (17, 17))]
    graphs += [graph_from_edges(n, [(i, i + 1) for i in range(n - 1)]) for n in (1, 2, 3, 300)]
    for g in graphs:
        dist = shortest_path(scipy_adjacency(g), unweighted=True, directed=False)
        assert exact_diameter(g.indptr, g.indices) == int(dist.max())


@pytest.mark.parametrize(
    "spec, message",
    [
        (Complete(0), "node count must be >= 1"),
        (Mesh2D(0, 3), "mesh dimensions must be >= 1"),
        (ErdosRenyi(0, 0.5), "node count must be >= 1"),
        (ErdosRenyi(5, -0.1), r"edge probability must lie in \[0, 1\]"),
        (ErdosRenyi(5, 1.5), r"edge probability must lie in \[0, 1\]"),
    ],
)
def test_build_refuses_empty_graphs_and_bad_probabilities(spec, message):
    with pytest.raises(ValueError, match=message):
        build(spec, np.random.default_rng(0))


def test_build_refuses_an_unknown_spec():
    with pytest.raises(TypeError, match="unknown topology spec: 'ring'"):
        build("ring")


def test_hop_bound_refuses_an_unknown_d_mode():
    with pytest.raises(ValueError, match=r"d_mode must be one of \('exact', 'upper_bound_n'\)"):
        hop_bound(build(Complete(3)), "diameter")


def test_spots_refuse_values_of_the_wrong_length():
    for g in (build(Complete(4)), build(Mesh2D(2, 2))):
        with pytest.raises(ValueError, match="values length must match node count"):
            spots(g, [1, 1, 2])


def test_graph_from_edges_rejects_no_nodes_and_self_loops():
    with pytest.raises(ValueError, match="node count must be >= 1"):
        graph_from_edges(0, [])
    with pytest.raises(ValueError, match="self-loops are not allowed"):
        graph_from_edges(3, [(0, 1), (1, 1), (1, 2)])


def test_graph_from_edges_refuses_fractional_and_out_of_range_endpoints():
    # refused, not truncated: (0, 1.5) and (0, 1.9) used to build edge (0, 1)
    for edges in ([(0, 1.5)], [(0, 1.9)], [(0, 1), (1, np.nan)], [(0, np.inf)]):
        with pytest.raises(ValueError, match="edge endpoints must be whole numbers"):
            graph_from_edges(2, edges)
    bad = [(3, [(0, 5)]), (3, [(-1, 0)]), (3, [(0, 3.0)]), (2, [(0, 2**40)]), (2, [(1e20, 0)])]
    for n, edges in bad:
        with pytest.raises(ValueError, match=rf"edge endpoints must lie in 0\.\.{n - 1}"):
            graph_from_edges(n, edges)
    g = graph_from_edges(3, np.array([(0.0, 1.0), (2.0, 1.0)]))
    assert g.indices.tolist() == [1, 0, 2, 1]


def test_csr_kernel_is_loaded_from_its_file_or_refused(monkeypatch, tmp_path):
    # scipy.sparse is not imported to reach the kernel, and with no such
    # file the load fails naming where it looked, with no other route
    import importlib.util
    import sys

    from scipy.sparse import _sparsetools

    assert topology._csr_matvecs() is _sparsetools.csr_matvecs
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    topology._csr_matvecs.cache_clear()
    scipy = importlib.util.spec_from_loader("scipy", loader=None, is_package=True)
    scipy.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    try:
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "sparse"))):
            topology._csr_matvecs()
    finally:
        topology._csr_matvecs.cache_clear()


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
        for j in np.flatnonzero(scipy_adjacency(g).toarray()[i]):
            if values[i] == values[j]:
                assert spot_of[i] == spot_of[int(j)]


def _bfs_spots(graph, values):
    """Reference: the per-node BFS spots was first written as."""
    neighbors = neighbor_rows(graph)
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
            for v in np.flatnonzero(neighbors[u]):
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


def test_complete_graph_spots_build_no_adjacency():
    # building an N^2 CSR here would peak near 300 MB
    g = build(Complete(3000))
    values = np.random.default_rng(4).integers(1, 4, size=3000)
    tracemalloc.start()
    try:
        parts = spots(g, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert [values[part[0]] for part in parts] == list(dict.fromkeys(values.tolist()))
    assert sorted(i for part in parts for i in part) == list(range(3000))
    assert all(len(set(values[part].tolist())) == 1 for part in parts)
    assert not hasattr(g, "indptr")


def test_complete_graph_colouring_builds_no_two_hop_matrix():
    # the two-hop CSR of complete(3000) alone would hold 9e6 entries
    g = build(Complete(3000))
    tracemalloc.start()
    try:
        ids = assign_ids(g, id_space(g.max_degree), "preassigned_unique", None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert ids.tolist() == list(range(1, 3001))
    assert not hasattr(g, "indptr")


def test_assignment_validates_levels():
    with pytest.raises(ValueError):
        LevelAssignment(np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        LevelAssignment(np.array([1, 3]), 2)
    # refused, not truncated: [1.5, 2] used to read [1, 2]
    for values in ([1.5, 2], [1, 2.0000001], [np.nan, 1], [np.inf, 1]):
        with pytest.raises(ValueError, match="levels must be whole numbers"):
            LevelAssignment(values, 2)
    assert LevelAssignment(np.array([1.0, 2.0, 2.0]), 2).values.tolist() == [1, 2, 2]
    with pytest.raises(ValueError, match="level count must be >= 1"):
        LevelAssignment([1, 1], 0)
    for values in ([[1, 2], [2, 1]], []):
        with pytest.raises(ValueError, match="values must be a non-empty 1D array"):
            LevelAssignment(values, 2)


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
    g = build(Mesh2D(1, 3))
    asg = LevelAssignment(np.array([1, 2, 1]), 2)
    for part in (g.indptr, g.indices, g.data):
        with pytest.raises(ValueError):
            part[0] = part[0]
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
    # no CSR array of the adjacency (np.indices aside) leaves topology
    storage = re.compile(r"\.(indptr|data|adj)\b|\btwo_hop\b|(?<!\bnp)\.indices\b")
    package = Path(topology.__file__).parent
    readers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "topology.py" and storage.search(path.read_text())
    ]
    assert readers == []
    assert not hasattr(topology.Graph, "two_hop")


def test_large_graphs_hold_no_dense_matrix():
    # a dense bool matrix would need 8.1 GB for the mesh and 1 TB for the complete graph
    tracemalloc.start()
    try:
        for spec, heard in ((Mesh2D(300, 300), 4), (Complete(10**6), 10**6)):
            g = build(spec)
            beeps = np.zeros(g.node_count, dtype=bool)
            beeps[[0, -1]] = True  # two opposite corners of the mesh
            assert int(g.activity(beeps).sum()) == heard
            del g
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20

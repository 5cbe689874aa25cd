"""The graph searches of solver, leaves and mass balance against reference loops.

Each reference below is the hand-written search the package used before the
searches moved onto ``component_labels``.  On seeded random dense, sparse
and forest graphs, with random branch-point flags, and on edge cases (no
nodes, isolated nodes, repeated and self pairs, a long path), the package
must give exactly what the loops give.
"""

from __future__ import annotations

import numpy as np
import pytest

from vecot import IsometryGraph, LeafDecomposition, PointCloud, transport_set
from vecot.core import component_labels
from vecot.leaves import maximal_transport_sets
from vecot.solver import _tree_engine


def reference_spanning_forest(n: int, pairs: np.ndarray):
    """Stack-based graph search: labels, visiting order, parent edges."""
    adj = [[] for _ in range(n)]
    for e, (i, j) in enumerate(pairs.tolist()):
        adj[i].append((j, e))
        adj[j].append((i, e))
    label = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    order = []
    current = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        stack = [start]
        label[start] = current
        while stack:
            v = stack.pop()
            order.append(v)
            for t, e in adj[v]:
                if label[t] < 0:
                    label[t] = current
                    parent_edge[t] = e
                    stack.append(t)
        current += 1
    return label, np.array(order, dtype=np.int64), parent_edge


def reference_tree_engine(w_hat, d_edge, pairs, order, parent_edge):
    """The tree engine node by node, in the order of the stack-based search."""
    n, m = w_hat.shape
    subtree = w_hat.copy()
    flows = np.zeros((pairs.shape[0], m))
    for v in order[::-1].tolist():
        e = parent_edge[v]
        if e < 0:
            continue
        head, tail = pairs[e]
        flows[e] = subtree[v] if head == v else -subtree[v]
        subtree[tail if head == v else head] += subtree[v]
    norms = np.linalg.norm(flows, axis=1)
    steps = flows * (d_edge / np.where(norms > 0, norms, 1.0))[:, None]
    u_raw = np.zeros((n, m))
    for v in order.tolist():
        e = parent_edge[v]
        if e < 0:
            continue
        head, tail = pairs[e]
        u_raw[v] = u_raw[tail] + steps[e] if head == v else u_raw[head] - steps[e]
    return flows, u_raw


def reference_component_of(root: int, adj: np.ndarray) -> np.ndarray:
    n = adj.shape[0]
    mark = np.zeros(n, dtype=bool)
    mark[root] = True
    frontier = [root]
    while frontier:
        nxt = adj[frontier].any(axis=0) & ~mark
        frontier = list(np.flatnonzero(nxt))
        mark[nxt] = True
    return np.flatnonzero(mark)


def reference_transport_set(decomposition: LeafDecomposition, seeds) -> np.ndarray:
    n = decomposition.graph.cloud.size
    adj = decomposition.graph.adjacency()
    flagged = np.zeros(n, dtype=bool)
    flagged[decomposition.boundary_flags] = True
    mark = np.zeros(n, dtype=bool)
    seeds = [int(s) for s in seeds]
    mark[seeds] = True
    frontier = [s for s in seeds if not flagged[s]]
    while frontier:
        reach = adj[frontier].any(axis=0) & ~mark
        mark |= reach
        frontier = [int(i) for i in np.flatnonzero(reach) if not flagged[i]]
    return np.flatnonzero(mark)


def reference_maximal_transport_sets(decomposition: LeafDecomposition) -> list[np.ndarray]:
    n = decomposition.graph.cloud.size
    flagged = np.zeros(n, dtype=bool)
    flagged[decomposition.boundary_flags] = True
    sets: list[np.ndarray] = []
    covered = np.zeros(n, dtype=bool)
    expanded = np.zeros(n, dtype=bool)
    for p in range(n):
        if flagged[p] or expanded[p]:
            continue
        members = reference_transport_set(decomposition, [p])
        expanded[members[~flagged[members]]] = True
        covered[members] = True
        sets.append(members)
    for p in np.flatnonzero(flagged & ~covered):
        sets.append(np.array([p]))
    sets.sort(key=lambda s: int(s[0]))
    return sets


def random_graph(rng, kind: str):
    """``(n, pairs)`` with unique pairs i < j in lexicographic order."""
    n = int(rng.integers(1, 40))
    if kind in ("forest", "tree"):
        # Attach each node to an earlier one or (in a forest) start a new
        # tree, then shuffle the node names so parents are not always smaller.
        perm = rng.permutation(n)
        pairs = [
            (perm[v], perm[int(rng.integers(0, v))])
            for v in range(1, n)
            if kind == "tree" or rng.random() < 0.85
        ]
    else:
        p = 0.6 if kind == "dense" else 1.5 / max(n, 1)
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < p
        pairs = list(zip(iu[keep], ju[keep]))
    pairs = np.sort(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    return n, np.unique(pairs, axis=0)


def edge_case_graphs(rng):
    """``(n, pairs)`` beyond ``random_graph``: pairs in either orientation,
    repeated and self pairs, isolated nodes, and a long path."""
    yield 0, np.zeros((0, 2), dtype=np.int64)
    yield 1, np.zeros((0, 2), dtype=np.int64)
    yield 1, np.array([[0, 0], [0, 0]])
    yield 5, np.zeros((0, 2), dtype=np.int64)
    yield 6, np.array([[4, 2], [2, 4], [2, 2], [4, 2], [5, 1]])
    for _ in range(6):
        # The k-nearest-neighbour pairs as the solver's edge generation passes
        # them: every point with itself and both orientations, on clusters far
        # enough apart that the graph splits.
        n, k = int(rng.integers(8, 40)), int(rng.integers(1, 4))
        centres = rng.uniform(-50.0, 50.0, size=(4, 2))
        pts = centres[rng.integers(0, 4, n)] + rng.normal(size=(n, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        near = np.argpartition(dist, k, axis=1)[:, : k + 1]
        yield n, np.column_stack([np.repeat(np.arange(n), k + 1), near.ravel()])
    for _ in range(4):
        # A forest on part of the nodes, the rest isolated, names shuffled.
        n = int(rng.integers(20, 60))
        perm = rng.permutation(n)
        yield n, np.array([(perm[v], perm[int(rng.integers(0, v))]) for v in range(1, n // 2)])
    perm = rng.permutation(4000)
    yield 4000, np.column_stack([perm[:-1], perm[1:]])


def decomposition(n: int, pairs: np.ndarray, flags: np.ndarray) -> LeafDecomposition:
    cloud = PointCloud(np.arange(float(n))[:, None])
    graph = IsometryGraph(cloud=cloud, edges=pairs, eps=1e-6)
    return LeafDecomposition(
        graph=graph, leaves=(), assignment=np.zeros(n, dtype=int), boundary_flags=flags
    )


KINDS = ("dense", "sparse", "forest")


@pytest.mark.parametrize("kind", KINDS + ("edge-cases",))
def test_component_labels_match_the_graph_searches(kind):
    rng = np.random.default_rng({"dense": 1, "sparse": 2, "forest": 3, "edge-cases": 8}[kind])
    if kind == "edge-cases":
        graphs = edge_case_graphs(rng)
    else:
        graphs = (random_graph(rng, kind) for _ in range(40))
    for n, pairs in graphs:
        labels = component_labels(n, pairs)
        reference, _, _ = reference_spanning_forest(n, pairs)
        np.testing.assert_array_equal(labels, reference)
        # Labels are ordered by smallest member.
        first = np.unique(labels, return_index=True)[1]
        if n == 0:  # a cloud needs at least one point
            assert labels.shape == (0,)
            continue
        assert first[0] == 0 and np.all(np.diff(first) > 0)
        # The components extract_leaves visits, in the root-by-root order, on
        # the pairs i < j an isometry graph holds (component_labels takes any).
        edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        adj = decomposition(n, edges, np.zeros(0, dtype=int)).graph.adjacency()
        seen = np.zeros(n, dtype=bool)
        components = []
        for root in range(n):
            if not seen[root]:
                comp = reference_component_of(root, adj)
                seen[comp] = True
                components.append(comp)
        assert [np.flatnonzero(labels == c).tolist() for c in range(labels.max() + 1)] == [
            c.tolist() for c in components
        ]


def test_tree_engine_matches_the_node_by_node_engine_bit_for_bit():
    rng = np.random.default_rng(4)
    for _ in range(60):
        # A path through points on a line, the points named in random order,
        # so the reference search starts at node 0 as the engine does.
        n = int(rng.integers(2, 40))
        perm = rng.permutation(n)
        x = np.sort(rng.uniform(-1.0, 1.0, n))[np.argsort(perm)]
        dist = np.abs(x[:, None] - x[None])
        pairs = np.unique(np.sort(np.column_stack([perm[:-1], perm[1:]]), axis=1), axis=0)
        _, order, parent_edge = reference_spanning_forest(n, pairs)
        w = rng.standard_normal((n, int(rng.integers(1, 4))))
        w[rng.uniform(size=n) < 0.2] = rng.choice([0.0, -0.0])
        d = dist[pairs[:, 0], pairs[:, 1]]
        new = _tree_engine(w, dist, pairs)
        ref = reference_tree_engine(w, d, pairs, order, parent_edge)
        for a, b in zip(new, ref):
            assert a.tobytes() == b.tobytes()
    # A star is a tree but not a path: the engine declines it.
    x = np.array([0.0, -1.0, 1.0, 2.0])
    dist = np.abs(x[:, None] - x[None])
    assert _tree_engine(np.ones((4, 2)), dist, np.array([[0, 1], [0, 2], [0, 3]])) is None


@pytest.mark.parametrize("kind", KINDS)
def test_transport_sets_match_the_closure_loops(kind):
    rng = np.random.default_rng({"dense": 5, "sparse": 6, "forest": 7}[kind])
    for _ in range(40):
        n, pairs = random_graph(rng, kind)
        flags = np.flatnonzero(rng.random(n) < rng.uniform(0.0, 0.5))
        dec = decomposition(n, pairs, flags)
        for p in range(n):
            np.testing.assert_array_equal(
                transport_set(dec, [p]), reference_transport_set(dec, [p])
            )
        seeds = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        np.testing.assert_array_equal(
            transport_set(dec, seeds), reference_transport_set(dec, seeds)
        )
        new = maximal_transport_sets(dec)
        ref = reference_maximal_transport_sets(dec)
        assert [s.tolist() for s in new] == [s.tolist() for s in ref]

"""The graph searches of solver, leaves and mass balance against reference loops.

Each reference below is the hand-written search the package used before the
searches moved onto ``component_labels`` (scipy's csgraph).  On seeded
random dense, sparse and forest graphs, with random branch-point flags, the
package must give exactly what the loops give.
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
    if kind == "forest":
        # Attach each node to an earlier one or start a new tree, then
        # shuffle the node names so parents are not always smaller.
        perm = rng.permutation(n)
        pairs = [
            (perm[v], perm[int(rng.integers(0, v))])
            for v in range(1, n)
            if rng.random() < 0.85
        ]
    else:
        p = 0.6 if kind == "dense" else 1.5 / max(n, 1)
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < p
        pairs = list(zip(iu[keep], ju[keep]))
    pairs = np.sort(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    return n, np.unique(pairs, axis=0)


def decomposition(n: int, pairs: np.ndarray, flags: np.ndarray) -> LeafDecomposition:
    cloud = PointCloud(np.arange(float(n))[:, None])
    graph = IsometryGraph(cloud=cloud, edges=pairs, eps=1e-6)
    return LeafDecomposition(
        graph=graph, leaves=(), assignment=np.zeros(n, dtype=int), boundary_flags=flags
    )


KINDS = ("dense", "sparse", "forest")


@pytest.mark.parametrize("kind", KINDS)
def test_component_labels_match_the_graph_searches(kind):
    rng = np.random.default_rng({"dense": 1, "sparse": 2, "forest": 3}[kind])
    for _ in range(40):
        n, pairs = random_graph(rng, kind)
        labels = component_labels(n, pairs)
        reference, _, _ = reference_spanning_forest(n, pairs)
        np.testing.assert_array_equal(labels, reference)
        # Labels are ordered by smallest member.
        first = np.unique(labels, return_index=True)[1]
        assert first[0] == 0 and np.all(np.diff(first) > 0)
        # The components extract_leaves visits, in the root-by-root order.
        adj = decomposition(n, pairs, np.zeros(0, dtype=int)).graph.adjacency()
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
        n, pairs = random_graph(rng, "forest")
        labels, order, parent_edge = reference_spanning_forest(n, pairs)
        roots = np.unique(labels, return_index=True)[1]
        w = rng.standard_normal((n, int(rng.integers(1, 4))))
        d = rng.uniform(0.1, 1.0, pairs.shape[0])
        new = _tree_engine(w, d, pairs, roots)
        ref = reference_tree_engine(w, d, pairs, order, parent_edge)
        for a, b in zip(new, ref):
            assert a.tobytes() == b.tobytes()


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

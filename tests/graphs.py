"""Small helpers that build viewpoint graphs and read them back through
their arrays."""

from __future__ import annotations

import numpy as np

from viewgraph.graph import Arcs, GraphConfig, ViewpointGraph


def toy_graph(node_ideas, pairs, config=GraphConfig()) -> ViewpointGraph:
    """Nodes ``v0, v1, ...`` of the given ideas at t=0, joined by ``(u, v,
    weight)`` pairs; an edge is intra exactly when it joins one idea."""
    return ViewpointGraph(
        idea=node_ideas,
        text=[f"v{i}" for i in range(len(node_ideas))],
        t=np.zeros(len(node_ideas)),
        u=[u for u, _, _ in pairs],
        v=[v for _, v, _ in pairs],
        weight=[w for _, _, w in pairs],
        intra=[node_ideas[u] == node_ideas[v] for u, v, _ in pairs],
        config=config,
    )


def edge_dict(graph: ViewpointGraph) -> dict[tuple[int, int], tuple[float, str]]:
    """{(u, v): (weight, kind)} with u < v."""
    return {
        (u, v): (w, "intra" if intra else "inter")
        for u, v, w, intra in zip(graph.u.tolist(), graph.v.tolist(), graph.weight.tolist(), graph.intra.tolist())
    }


def assert_same_graph(a: ViewpointGraph, b: ViewpointGraph):
    """Every node list, config, edge array and arc array equal, dtypes too."""
    assert (a.idea, a.text, a.config, a.idea_nodes) == (b.idea, b.text, b.config, b.idea_nodes)
    for x, y in zip((a.t, a.u, a.v, a.weight, a.intra, *a.arcs), (b.t, b.u, b.v, b.weight, b.intra, *b.arcs)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def kind_degree(graph: ViewpointGraph, node: int, kind: str) -> int:
    return sum(1 for (u, v), (_, k) in edge_dict(graph).items() if k == kind and node in (u, v))


def incoming(arcs: Arcs, node: int) -> dict[int, float]:
    """{neighbour: weight} of the arcs into ``node``."""
    lo, hi = arcs.indptr[node], arcs.indptr[node + 1]
    return dict(zip(arcs.src[lo:hi].tolist(), arcs.weight[lo:hi].tolist()))


def arcs_from_lists(weights) -> Arcs:
    """Directed view from per-node lists of (neighbour, weight), each in
    ascending neighbour order."""
    return Arcs(
        src=np.array([j for nbrs in weights for j, _ in nbrs], dtype=np.int64),
        dst=np.array([i for i, nbrs in enumerate(weights) for _ in nbrs], dtype=np.int64),
        weight=np.array([w for nbrs in weights for _, w in nbrs], dtype=np.float64),
        indptr=np.cumsum([0] + [len(nbrs) for nbrs in weights]),
    )

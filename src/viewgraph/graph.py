"""Viewpoint-graph construction.

Each idea contributes a subgraph: every viewpoint-node links to its
top-k most cosine-similar siblings. Subgraphs are joined by giving every
node its top-m most similar nodes from other ideas. Edges are undirected,
weighted by clamped cosine similarity, and proposals from both endpoints
of a pair are deduplicated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .dataset import IdeaViewpoints, normalize_text
from .embedding import EmbeddingMatrix

INTRA, INTER = "intra", "inter"


@dataclass(frozen=True)
class GraphConfig:
    intra_k: int = 5
    inter_m: int = 10
    weight_floor: float = 0.0

    def __post_init__(self):
        if self.intra_k < 1:
            raise ValueError(f"intra degree k must be >= 1, got {self.intra_k}")
        if self.inter_m < 0:
            raise ValueError(f"inter degree m must be >= 0, got {self.inter_m}")
        if not (0.0 <= self.weight_floor <= 1.0):
            raise ValueError(f"weight floor must be in [0, 1], got {self.weight_floor}")


@dataclass(frozen=True)
class ViewpointNode:
    id: int
    text: str
    idea_id: str
    row: int  # embedding matrix row; equals id for graphs built here
    t: float = 0.0  # normalized time in [0, 1]


@dataclass(frozen=True)
class WeightedEdge:
    u: int
    v: int
    weight: float
    kind: str
    polarity: Optional[str] = None  # hybrid mode metadata only

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"self-loop at node {self.u}")
        if self.u > self.v:
            lo, hi = self.v, self.u
            object.__setattr__(self, "u", lo)
            object.__setattr__(self, "v", hi)
        if self.kind not in (INTRA, INTER):
            raise ValueError(f"unknown edge kind {self.kind!r}")


class ViewpointGraph:
    def __init__(self, nodes: Sequence[ViewpointNode], edges: Sequence[WeightedEdge], config: GraphConfig):
        self.nodes = list(nodes)
        self.edges = sorted(edges, key=lambda e: (e.u, e.v))
        self.config = config
        self._validate()
        self.adjacency: list[list[tuple[int, float]]] = [[] for _ in self.nodes]
        for e in self.edges:
            self.adjacency[e.u].append((e.v, e.weight))
            self.adjacency[e.v].append((e.u, e.weight))
        self.idea_nodes: dict[str, list[int]] = {}
        for node in self.nodes:
            self.idea_nodes.setdefault(node.idea_id, []).append(node.id)

    def _validate(self):
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise ValueError(f"node ids not dense: position {i} holds id {node.id}")
        n = len(self.nodes)
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError(f"edge ({e.u}, {e.v}) references unknown node")
            if (e.u, e.v) in seen:
                raise ValueError(f"edge ({e.u}, {e.v}) listed more than once (asymmetric adjacency)")
            seen.add((e.u, e.v))
            same_idea = self.nodes[e.u].idea_id == self.nodes[e.v].idea_id
            if e.kind == INTRA and not same_idea:
                raise ValueError(f"intra edge ({e.u}, {e.v}) joins different ideas")
            if e.kind == INTER and same_idea:
                raise ValueError(f"inter edge ({e.u}, {e.v}) joins the same idea")
            if not (0.0 <= e.weight <= 1.0):
                raise ValueError(f"edge ({e.u}, {e.v}) weight {e.weight} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.nodes)

    def neighbors(self, node_id: int) -> list[tuple[int, float]]:
        return self.adjacency[node_id]


def _clamp(sim: float, floor: float) -> float:
    return min(1.0, max(floor, sim))


def _top_indices(sims: np.ndarray, candidates: Sequence[int], limit: int) -> list[int]:
    ranked = sorted(candidates, key=lambda j: (-sims[j], j))
    return ranked[:limit]


def _time_features(records: Sequence[IdeaViewpoints]) -> dict[str, float]:
    ts = {r.idea_id: r.timestamp for r in records}
    lo, hi = min(ts.values()), max(ts.values())
    if hi == lo:
        return {k: 0.0 for k in ts}
    return {k: (v - lo) / (hi - lo) for k, v in ts.items()}


def build_subgraph(
    node_ids: Sequence[int], matrix: EmbeddingMatrix, config: GraphConfig
) -> list[WeightedEdge]:
    """Intra edges for one idea: per node, its top-min(k, n-1) siblings."""
    edges: dict[tuple[int, int], WeightedEdge] = {}
    ids = list(node_ids)
    for i in ids:
        sims = matrix.similarities(i)
        others = [j for j in ids if j != i]
        for j in _top_indices(sims, others, min(config.intra_k, len(others))):
            key = (min(i, j), max(i, j))
            if key not in edges:
                edges[key] = WeightedEdge(
                    u=key[0], v=key[1], weight=_clamp(float(sims[j]), config.weight_floor), kind=INTRA
                )
    return list(edges.values())


def build_graph(
    records: Sequence[IdeaViewpoints],
    matrix: EmbeddingMatrix,
    config: GraphConfig = GraphConfig(),
    time_features: Optional[Mapping[str, float]] = None,
    hybrid: bool = False,
) -> ViewpointGraph:
    """Build the full viewpoint-graph over all ideas.

    Node ids are assigned in (idea order, viewpoint order) and must match
    the embedding matrix row order. With ``hybrid=True`` intra edges come
    from the records' extracted relation pairs (polarity kept as metadata)
    instead of top-k similarity; inter edges are unchanged.
    """
    total = sum(len(r.viewpoints) for r in records)
    if len(matrix) != total:
        raise ValueError(f"matrix has {len(matrix)} rows for {total} viewpoints")
    ids = {r.idea_id for r in records}
    if len(ids) != len(records):
        raise ValueError("duplicate idea ids in viewpoint records")
    tf = dict(time_features) if time_features is not None else _time_features(records)

    nodes: list[ViewpointNode] = []
    blocks: list[list[int]] = []
    for rec in records:
        block = []
        for text in rec.viewpoints:
            nid = len(nodes)
            nodes.append(
                ViewpointNode(id=nid, text=text, idea_id=rec.idea_id, row=nid, t=tf[rec.idea_id])
            )
            block.append(nid)
        blocks.append(block)

    edges: dict[tuple[int, int], WeightedEdge] = {}
    for rec, block in zip(records, blocks):
        intra = (
            _pair_edges(rec, block, matrix, config)
            if hybrid
            else build_subgraph(block, matrix, config)
        )
        for e in intra:
            edges.setdefault((e.u, e.v), e)

    idea_str = [n.idea_id for n in nodes]
    if config.inter_m > 0 and len(records) > 1:
        for i in range(len(nodes)):
            sims = matrix.similarities(i)
            foreign = [j for j in range(len(nodes)) if idea_str[j] != idea_str[i]]
            for j in _top_indices(sims, foreign, min(config.inter_m, len(foreign))):
                key = (min(i, j), max(i, j))
                if key not in edges:
                    edges[key] = WeightedEdge(
                        u=key[0], v=key[1], weight=_clamp(float(sims[j]), config.weight_floor), kind=INTER
                    )
    return ViewpointGraph(nodes=nodes, edges=list(edges.values()), config=config)


def _pair_edges(
    rec: IdeaViewpoints, block: Sequence[int], matrix: EmbeddingMatrix, config: GraphConfig
) -> list[WeightedEdge]:
    by_text: dict[str, int] = {}
    for nid, text in zip(block, rec.viewpoints):
        by_text.setdefault(normalize_text(text), nid)
    edges: dict[tuple[int, int], WeightedEdge] = {}
    for left, _connector, polarity, right in rec.pairs:
        u = by_text.get(normalize_text(left))
        v = by_text.get(normalize_text(right))
        if u is None or v is None or u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edges:
            continue
        sim = float(matrix.similarities(u)[v])
        edges[key] = WeightedEdge(
            u=key[0], v=key[1], weight=_clamp(sim, config.weight_floor), kind=INTRA, polarity=polarity
        )
    return list(edges.values())


def integrate_subgraph(
    graph: ViewpointGraph,
    record: IdeaViewpoints,
    matrix: EmbeddingMatrix,
    config: Optional[GraphConfig] = None,
    t: float = 0.0,
) -> ViewpointGraph:
    """Add one idea's subgraph to an existing graph in linear time.

    New nodes take the next ids (their matrix rows must already be
    appended). New nodes propose intra edges among themselves and inter
    edges to their top-m existing nodes; existing nodes' neighbor lists
    are only extended, never re-ranked, so the result matches a from-
    scratch rebuild exactly only when m covers all foreign nodes.
    """
    config = config or graph.config
    if record.idea_id in graph.idea_nodes:
        raise ValueError(f"idea {record.idea_id!r} already in graph")
    n_old = len(graph.nodes)
    n_new = len(record.viewpoints)
    if len(matrix) != n_old + n_new:
        raise ValueError(f"matrix has {len(matrix)} rows, expected {n_old + n_new}")

    new_ids = list(range(n_old, n_old + n_new))
    nodes = list(graph.nodes) + [
        ViewpointNode(id=nid, text=text, idea_id=record.idea_id, row=nid, t=t)
        for nid, text in zip(new_ids, record.viewpoints)
    ]
    edges: dict[tuple[int, int], WeightedEdge] = {(e.u, e.v): e for e in graph.edges}
    for e in build_subgraph(new_ids, matrix, config):
        edges.setdefault((e.u, e.v), e)
    if config.inter_m > 0 and n_old > 0:
        for i in new_ids:
            sims = matrix.similarities(i)
            for j in _top_indices(sims, range(n_old), min(config.inter_m, n_old)):
                key = (min(i, j), max(i, j))
                if key not in edges:
                    edges[key] = WeightedEdge(
                        u=key[0], v=key[1], weight=_clamp(float(sims[j]), config.weight_floor), kind=INTER
                    )
    return ViewpointGraph(nodes=nodes, edges=list(edges.values()), config=config)


def with_time_features(graph: ViewpointGraph, features: Mapping[str, float]) -> ViewpointGraph:
    """Copy of the graph with every node's temporal feature recomputed."""
    nodes = [replace(n, t=float(features[n.idea_id])) for n in graph.nodes]
    return ViewpointGraph(nodes=nodes, edges=graph.edges, config=graph.config)


def save_graph(graph: ViewpointGraph, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": {
            "k": graph.config.intra_k,
            "m": graph.config.inter_m,
            "weight_floor": graph.config.weight_floor,
        },
        "nodes": [
            {"id": n.id, "idea": n.idea_id, "text": n.text, "t": n.t} for n in graph.nodes
        ],
        "edges": [
            [e.u, e.v, e.weight, e.kind] + ([e.polarity] if e.polarity else [])
            for e in graph.edges
        ],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def load_graph(path: str | Path) -> ViewpointGraph:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    cfg = payload["config"]
    config = GraphConfig(
        intra_k=int(cfg["k"]), inter_m=int(cfg["m"]), weight_floor=float(cfg.get("weight_floor", 0.0))
    )
    nodes = [
        ViewpointNode(id=int(n["id"]), text=n["text"], idea_id=n["idea"], row=int(n["id"]), t=float(n.get("t", 0.0)))
        for n in payload["nodes"]
    ]
    edges = []
    for entry in payload["edges"]:
        u, v, w, kind = entry[0], entry[1], entry[2], entry[3]
        polarity = entry[4] if len(entry) > 4 else None
        edges.append(WeightedEdge(u=int(u), v=int(v), weight=float(w), kind=kind, polarity=polarity))
    return ViewpointGraph(nodes=nodes, edges=edges, config=config)

"""Viewpoint-graph construction.

Each idea contributes a subgraph: every viewpoint-node links to its
top-k most cosine-similar siblings. Subgraphs are joined by giving every
node its top-m most similar nodes from other ideas. Edges are undirected,
weighted by clamped cosine similarity, and proposals from both endpoints
of a pair are deduplicated.

A graph is held as arrays: per node its idea, text and time feature; per
undirected edge ``u < v`` (sorted by ``(u, v)``) its weight, intra flag
and optional hybrid polarity; and one directed view, ``arcs``, holding
each edge once per direction sorted by ``(dst, src)`` with a CSR
``indptr`` over ``dst``, which label propagation, the GNN and the
negative generator read.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .dataset import IdeaViewpoints, normalize_text
from .embedding import EmbeddingMatrix

INTRA, INTER = "intra", "inter"

# Directed view: arcs into node i are src/weight[indptr[i]:indptr[i + 1]],
# in ascending src order.
Arcs = namedtuple("Arcs", "src dst weight indptr")


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


class ViewpointGraph:
    """Nodes ``0..n-1`` and undirected weighted edges, as arrays.

    Edges may be given in any order and either orientation; they are
    stored with ``u < v`` sorted by ``(u, v)``. ``polarity`` holds one
    entry (str or None) per edge; by default every entry is None.
    """

    def __init__(
        self,
        idea: Sequence[str],
        text: Sequence[str],
        t: Sequence[float],
        u=(),
        v=(),
        weight=(),
        intra=(),
        polarity: Optional[Sequence[Optional[str]]] = None,
        config: GraphConfig = GraphConfig(),
    ):
        self.idea, self.text = list(idea), list(text)
        self.t = np.array(t, dtype=np.float64)
        self.config = config
        n = len(self.idea)
        if not len(self.text) == len(self.t) == n:
            raise ValueError(f"{n} node ideas, {len(self.text)} texts and {len(self.t)} time features")
        a, b = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
        weight = np.array(weight, dtype=np.float64)
        intra = np.array(intra, dtype=bool)
        if not len(a) == len(b) == len(weight) == len(intra):
            raise ValueError("edge arrays differ in length")
        order = np.lexsort((np.maximum(a, b), np.minimum(a, b)))
        self.u, self.v = np.minimum(a, b)[order], np.maximum(a, b)[order]
        self.weight, self.intra = weight[order], intra[order]
        self.polarity = [None if polarity is None else polarity[i] for i in order]
        self.idea_nodes: dict[str, list[int]] = {}
        for node, idea_id in enumerate(self.idea):
            self.idea_nodes.setdefault(idea_id, []).append(node)
        self._validate()

        src, dst = np.concatenate([self.v, self.u]), np.concatenate([self.u, self.v])
        order = np.lexsort((src, dst))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=indptr[1:])
        self.arcs = Arcs(src[order], dst[order], np.concatenate([self.weight, self.weight])[order], indptr)

    def _validate(self):
        n = len(self.idea)

        def fail(mask, problem):
            if mask.any():
                i = int(np.argmax(mask))
                raise ValueError(f"edge ({self.u[i]}, {self.v[i]}) {problem}")

        fail(self.u == self.v, "is a self-loop")
        fail((self.u < 0) | (self.v >= n), "references unknown node")
        fail(np.r_[False, (self.u[1:] == self.u[:-1]) & (self.v[1:] == self.v[:-1])],
             "listed more than once (asymmetric adjacency)")
        ideas = np.array(self.idea, dtype=object)
        same_idea = ideas[self.u] == ideas[self.v]
        fail(self.intra & ~same_idea, "is intra but joins different ideas")
        fail(~self.intra & same_idea, "is inter but joins the same idea")
        fail(~((self.weight >= 0.0) & (self.weight <= 1.0)), "has weight outside [0, 1]")

    def __len__(self) -> int:
        return len(self.idea)


def _time_features(records: Sequence[IdeaViewpoints]) -> dict[str, float]:
    ts = {r.idea_id: r.timestamp for r in records}
    lo, hi = min(ts.values()), max(ts.values())
    if hi == lo:
        return {k: 0.0 for k in ts}
    return {k: (v - lo) / (hi - lo) for k, v in ts.items()}


def _propose(matrix: EmbeddingMatrix, blocks, config: GraphConfig, causal: bool, top_k: bool = True):
    """Edges (u, v, weight, intra) proposed by every node of ``blocks``
    (one ``(start, stop)`` node range per idea).

    Each node ranks by (-similarity, index) its siblings, keeping the top
    k (when ``top_k``), and the nodes outside its block, keeping the top
    m. With ``causal`` those are only the nodes before its block, and the
    similarities are taken over the rows up to its block's end. A pair
    proposed more than once keeps its first proposal, intra ahead of
    inter, proposers in node order.
    """
    proposed = {True: [], False: []}  # intra? -> [(proposer, targets, their similarities)]
    for lo, hi in blocks:
        for i in range(lo, hi):
            sims = matrix.similarities(i, hi if causal else None)
            foreign = -sims
            siblings = foreign[lo:hi].copy()
            siblings[i - lo] = np.inf
            foreign[lo:hi] = np.inf
            if top_k:
                picked = lo + np.argsort(siblings, kind="stable")[: min(config.intra_k, hi - lo - 1)]
                proposed[True].append((i, picked, sims[picked]))
            # copied, or the slice would keep the whole argsort alive
            picked = np.argsort(foreign, kind="stable")[: min(config.inter_m, len(sims) - (hi - lo))].copy()
            proposed[False].append((i, picked, sims[picked]))
    found = proposed[True] + proposed[False]
    counts = [len(targets) for _, targets, _ in found]
    proposers = np.repeat(np.array([i for i, _, _ in found], dtype=np.int64), counts)
    targets = np.concatenate([np.zeros(0, np.int64)] + [targets for _, targets, _ in found])
    sims = np.concatenate([np.zeros(0)] + [sims for _, _, sims in found])
    intra = np.arange(len(sims)) < sum(counts[: len(proposed[True])])
    u, v = np.minimum(proposers, targets), np.maximum(proposers, targets)
    _, first = np.unique(u * (len(matrix) + 1) + v, return_index=True)
    return u[first], v[first], _clamp(sims[first], config.weight_floor), intra[first]


def _clamp(sims: np.ndarray, floor: float) -> np.ndarray:
    return np.minimum(1.0, np.maximum(floor, sims))


def _bounds(records: Sequence[IdeaViewpoints], start: int = 0) -> list[tuple[int, int]]:
    """The (start, stop) node range of each record's block."""
    blocks = []
    for rec in records:
        blocks.append((start, start + len(rec.viewpoints)))
        start += len(rec.viewpoints)
    return blocks


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
    blocks = _bounds(records)
    u, v, weight, intra = _propose(matrix, blocks, config, causal=False, top_k=not hybrid)
    polarity = None
    if hybrid:
        pairs = [e for rec, (lo, _) in zip(records, blocks) for e in _pair_edges(rec, lo, matrix, config)]
        pu, pv, pw, polarity = (list(c) for c in zip(*pairs)) if pairs else ([], [], [], [])
        u, v, weight = np.r_[pu, u], np.r_[pv, v], np.r_[pw, weight]
        intra = np.r_[[True] * len(pairs), intra]
        polarity += [None] * (len(u) - len(pairs))
    return ViewpointGraph(
        idea=[r.idea_id for r in records for _ in r.viewpoints],
        text=[text for r in records for text in r.viewpoints],
        t=[tf[r.idea_id] for r in records for _ in r.viewpoints],
        u=u, v=v, weight=weight, intra=intra, polarity=polarity, config=config,
    )


def _pair_edges(rec: IdeaViewpoints, start: int, matrix: EmbeddingMatrix, config: GraphConfig) -> list[tuple]:
    """(u, v, weight, polarity) of the record's relation pairs, first
    mention of a pair first; the weight is the left viewpoint's similarity
    to the right one."""
    by_text: dict[str, int] = {}
    for nid, text in enumerate(rec.viewpoints, start):
        by_text.setdefault(normalize_text(text), nid)
    edges: dict[tuple[int, int], tuple] = {}
    for left, _connector, polarity, right in rec.pairs:
        u = by_text.get(normalize_text(left))
        v = by_text.get(normalize_text(right))
        if u is None or v is None or u == v or (min(u, v), max(u, v)) in edges:
            continue
        weight = float(_clamp(matrix.similarities(u)[v], config.weight_floor))
        edges[(min(u, v), max(u, v))] = (min(u, v), max(u, v), weight, polarity)
    return list(edges.values())


def integrate_subgraph(
    graph: ViewpointGraph,
    records: Sequence[IdeaViewpoints],
    matrix: EmbeddingMatrix,
    config: Optional[GraphConfig] = None,
    t: Optional[Sequence[float]] = None,
) -> ViewpointGraph:
    """Append new ideas' subgraphs to an existing graph.

    New nodes take the next ids in record order (their matrix rows must
    already be appended). Each new node proposes intra edges among its
    siblings and inter edges to its top-m nodes among those before its
    own idea: the existing graph and earlier records. Existing nodes are
    never re-ranked, so the result matches a from-scratch rebuild exactly
    only when m covers all foreign nodes, and integrating records in one
    call equals integrating them one at a time. ``t`` gives every node's
    time feature, old and new; by default old nodes keep theirs and new
    nodes get 0.
    """
    config = config or graph.config
    seen = set(graph.idea_nodes)
    for rec in records:
        if rec.idea_id in seen:
            raise ValueError(f"idea {rec.idea_id!r} already in graph")
        seen.add(rec.idea_id)
    n_old = len(graph)
    blocks = _bounds(records, n_old)
    n = blocks[-1][1] if blocks else n_old
    if len(matrix) != n:
        raise ValueError(f"matrix has {len(matrix)} rows, expected {n}")
    u, v, weight, intra = _propose(matrix, blocks, config, causal=True)
    return ViewpointGraph(
        idea=graph.idea + [r.idea_id for r in records for _ in r.viewpoints],
        text=graph.text + [text for r in records for text in r.viewpoints],
        t=np.r_[graph.t, np.zeros(n - n_old)] if t is None else t,
        u=np.r_[graph.u, u], v=np.r_[graph.v, v],
        weight=np.r_[graph.weight, weight], intra=np.r_[graph.intra, intra],
        polarity=graph.polarity + [None] * len(u), config=config,
    )


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
            {"id": i, "idea": idea, "text": text, "t": t}
            for i, (idea, text, t) in enumerate(zip(graph.idea, graph.text, graph.t.tolist()))
        ],
        "edges": [
            [u, v, w, INTRA if intra else INTER] + ([pol] if pol else [])
            for u, v, w, intra, pol in zip(
                graph.u.tolist(), graph.v.tolist(), graph.weight.tolist(), graph.intra.tolist(), graph.polarity
            )
        ],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def load_graph(path: str | Path) -> ViewpointGraph:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    for key in ("config", "nodes", "edges"):
        if not isinstance(payload, dict) or key not in payload:
            raise ValueError(f"graph file {path} has no {key!r}")
    cfg = payload["config"]
    try:
        k, m, floor = int(cfg["k"]), int(cfg["m"]), float(cfg.get("weight_floor", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"graph file {path}: config needs numbers k, m and weight_floor, got {cfg!r}") from exc
    config = GraphConfig(intra_k=k, inter_m=m, weight_floor=floor)
    nodes = payload["nodes"]
    for i, node in enumerate(nodes):
        if not (
            isinstance(node, dict)
            and node.get("id") == i
            and isinstance(node.get("idea"), str)
            and isinstance(node.get("text"), str)
            and _is_number(node.get("t", 0.0))
        ):
            raise ValueError(f"node {i}: expected {{id: {i}, idea, text, t}}, got {node!r}")
    edges = payload["edges"]
    for i, e in enumerate(edges):
        if not (
            isinstance(e, list)
            and len(e) in (4, 5)
            and all(type(x) is int for x in e[:2])
            and _is_number(e[2])
            and e[3] in (INTRA, INTER)
            and (len(e) == 4 or isinstance(e[4], str))
        ):
            raise ValueError(f"edge {i}: expected [u, v, weight, kind] or [u, v, weight, kind, polarity], got {e!r}")
    columns = list(zip(*edges)) if edges else [()] * 4
    return ViewpointGraph(
        idea=[n["idea"] for n in nodes],
        text=[n["text"] for n in nodes],
        t=[float(n.get("t", 0.0)) for n in nodes],
        u=columns[0],
        v=columns[1],
        weight=columns[2],
        intra=[kind == INTRA for kind in columns[3]],
        polarity=[e[4] if len(e) > 4 else None for e in edges],
        config=config,
    )


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)

"""Training-free evaluation by label propagation over the viewpoint-graph.

Nodes of labeled train ideas start as one-hot vectors over the label set,
everything else starts at zero. Each iteration adds every node's
weight-normalized neighbor vectors to its own and rescales the result to
the probability simplex (all-zero vectors stay zero). An idea's label is
the argmax of its summed node vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Corpus, write_jsonl
from .graph import Arcs, ViewpointGraph


@dataclass(frozen=True)
class LpConfig:
    max_iters: int = 5
    early_stop: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class LpPrediction:
    idea_id: str
    label_index: int
    vector: list[float]
    unreached: bool = False


def init_vectors(graph: ViewpointGraph, corpus: Corpus) -> np.ndarray:
    """One row per node: one-hot for labeled train ideas, zero otherwise."""
    ideas = {idea.id: idea for idea in corpus.ideas}
    vectors = np.zeros((len(graph), len(corpus.label_set)), dtype=np.float64)
    for node, idea_id in enumerate(graph.idea):
        idea = ideas.get(idea_id)
        if idea is None:
            raise ValueError(f"node {node} belongs to unknown idea {idea_id!r}")
        if idea.split == "train":
            if idea.label is None:
                raise ValueError(f"train idea {idea.id!r} has no label")
            vectors[node, idea.label] = 1.0
    return vectors


def _slots(indptr: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per neighbour slot s: the nodes with more than s neighbours and the
    arc index of each one's s-th neighbour. Looping over the slots adds a
    node's neighbour terms one at a time in ascending neighbour order."""
    degree = np.diff(indptr)
    slots = []
    for s in range(int(degree.max(initial=0))):
        nodes = np.flatnonzero(degree > s)
        slots.append((nodes, indptr[nodes] + s))
    return slots


def normalize_weights(graph: ViewpointGraph) -> Arcs:
    """The graph's directed view with each node's incoming weights
    rescaled to sum to 1.

    Normalization is per-direction: the same undirected edge may carry a
    different normalized weight from each endpoint's perspective. Nodes
    with zero total incident weight get zero weights.
    """
    arcs = graph.arcs
    total = np.zeros(len(graph))
    for nodes, slot in _slots(arcs.indptr):
        total[nodes] += arcs.weight[slot]
    total = total[arcs.dst]
    weight = np.divide(arcs.weight, total, out=np.zeros_like(arcs.weight), where=total > 0.0)
    return arcs._replace(weight=weight)


def propagate(vectors: np.ndarray, weights: Arcs, config: LpConfig = LpConfig()) -> np.ndarray:
    """Synchronous propagation for up to max_iters iterations over the
    normalized directed view ``weights``: each node adds its neighbours'
    weighted vectors to its own.

    Each new vector is L1-normalized (zero vectors stay zero). With
    early_stop, iteration ends once no node's argmax label changes.
    """
    current = np.array(vectors, dtype=np.float64)
    labels = np.argmax(current, axis=1)
    slots = [(nodes, weights.weight[slot, None], weights.src[slot]) for nodes, slot in _slots(weights.indptr)]
    for _ in range(config.max_iters):
        updated = current.copy()
        for nodes, w, src in slots:
            updated[nodes] += w * current[src]
        norms = updated.sum(axis=1)
        nonzero = norms > 0.0
        updated[nonzero] /= norms[nonzero, None]
        current = updated
        new_labels = np.argmax(current, axis=1)
        if config.early_stop and np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return current


def predict_idea(vectors: np.ndarray, node_ids: Sequence[int]) -> tuple[int, bool]:
    """Argmax of the idea's summed node vectors; ties go to the lowest
    label index; an all-zero sum falls back to label 0 and is flagged."""
    if not node_ids:
        raise ValueError("idea has no nodes")
    summed = vectors[list(node_ids)].sum(axis=0)
    if not summed.any():
        return 0, True
    return int(np.argmax(summed)), False


def run(
    graph: ViewpointGraph,
    corpus: Corpus,
    config: LpConfig = LpConfig(),
    split: str = "test",
) -> list[LpPrediction]:
    vectors = propagate(init_vectors(graph, corpus), normalize_weights(graph), config)
    predictions = []
    for idea in corpus.split_ideas(split):
        node_ids = graph.idea_nodes.get(idea.id)
        if not node_ids:
            raise ValueError(f"idea {idea.id!r} has no nodes in the graph")
        label, unreached = predict_idea(vectors, node_ids)
        summed = vectors[node_ids].sum(axis=0)
        predictions.append(
            LpPrediction(
                idea_id=idea.id,
                label_index=label,
                vector=[float(x) for x in summed],
                unreached=unreached,
            )
        )
    return predictions


def save_predictions(
    predictions: Sequence[LpPrediction], corpus: Corpus, path: str | Path
) -> None:
    write_jsonl(
        path,
        (
            {
                "id": p.idea_id,
                "label": corpus.label_set.name_of(p.label_index),
                "vector": p.vector,
                "unreached": p.unreached,
            }
            for p in predictions
        ),
    )

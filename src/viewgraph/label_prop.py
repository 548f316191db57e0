"""Training-free evaluation by label propagation over the viewpoint-graph.

Nodes of labeled train ideas start as one-hot vectors over the label set,
everything else starts at zero. Each iteration adds every node's
weight-normalized neighbor vectors to its own and rescales the result to
the probability simplex (all-zero vectors stay zero). An idea's label is
the argmax of its summed node vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .dataset import Checked, Corpus, at_least, setting
from .graph import Arcs, ViewpointGraph, add_neighbours, neighbour_slots, padded


@dataclass(frozen=True)
class LpConfig(Checked):
    max_iters: int = setting(5, at_least(1))
    early_stop: bool = True


@dataclass
class LpPrediction:
    idea_id: str
    label_index: int
    vector: list[float]
    unreached: bool = False


def init_vectors(graph: ViewpointGraph, corpus: Corpus) -> np.ndarray:
    """One row per node: one-hot for labeled train ideas, zero otherwise.
    (A corpus holds no train idea without a label.)"""
    column = {idea.id: idea.label for idea in corpus.split_ideas("train")}
    columns = np.fromiter(map(column.get, graph.idea, repeat(-1)), np.int64, len(graph))
    rows = np.flatnonzero(columns >= 0)
    vectors = np.zeros((len(graph), len(corpus.label_set)), dtype=np.float64)
    vectors[rows, columns[rows]] = 1.0
    return vectors


def normalize_weights(graph: ViewpointGraph) -> Arcs:
    """The graph's directed view with each node's incoming weights
    rescaled to sum to 1.

    Normalization is per-direction: the same undirected edge may carry a
    different normalized weight from each endpoint's perspective. Nodes
    with zero total incident weight get zero weights.
    """
    arcs = graph.arcs
    n = len(graph)
    total = np.bincount(arcs.dst, weights=arcs.weight, minlength=n)[arcs.dst]  # in ascending src order
    weight = np.divide(arcs.weight, total, out=np.zeros_like(arcs.weight), where=total > 0.0)
    return arcs._replace(weight=weight)


def propagate(vectors: np.ndarray, weights: Arcs, config: LpConfig = LpConfig(),
              stats: Optional[dict] = None) -> np.ndarray:
    """Synchronous propagation for up to max_iters iterations over the
    normalized directed view ``weights``: each node adds its neighbours'
    weighted vectors to its own.

    Each new vector is L1-normalized (zero vectors stay zero). With
    early_stop, iteration ends once no node's argmax label changes. With
    ``stats``, ``stats["iterations"]`` is set to the iterations run.
    """
    current = np.array(vectors, dtype=np.float64)
    labels = np.argmax(current, axis=1)
    slots = neighbour_slots(weights)
    for iteration in range(1, config.max_iters + 1):
        if stats is not None:
            stats["iterations"] = iteration
        current = add_neighbours(current.copy(), slots, current)
        norms = current.sum(axis=1, keepdims=True)
        np.divide(current, norms, out=current, where=norms > 0.0)  # zero vectors stay zero
        new_labels = np.argmax(current, axis=1)
        if config.early_stop and np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return current


def run(
    graph: ViewpointGraph,
    corpus: Corpus,
    config: LpConfig = LpConfig(),
    split: str = "test",
    stats: Optional[dict] = None,
) -> list[LpPrediction]:
    """The ``split`` ideas' predictions: the argmax of each idea's summed
    node vectors, ties to the lowest label; an all-zero sum predicts label
    0 and is flagged unreached. A ``split`` idea without nodes raises a
    ValueError naming it. With ``stats``, it gets the ``iterations`` run
    and the ``unreached_nodes``: nodes whose final vector is all zero."""
    vectors = propagate(init_vectors(graph, corpus), normalize_weights(graph), config, stats)
    if stats is not None:
        stats["unreached_nodes"] = int(np.count_nonzero(~vectors.any(axis=1)))
    ideas = corpus.split_ideas(split)
    index, present = padded([graph.nodes_of(idea.id) for idea in ideas])
    summed = np.where(present[:, :, None], vectors[index], 0.0).sum(axis=1)
    labels, unreached = np.argmax(summed, axis=1).tolist(), (~summed.any(axis=1)).tolist()
    return [LpPrediction(idea.id, label, vector, flag)
            for idea, label, vector, flag in zip(ideas, labels, summed.tolist(), unreached)]

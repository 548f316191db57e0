"""Novelty support: plagiarized negative samples.

Negative samples are synthetic ideas assembled from the viewpoints of
well-rated train ideas (copied outright, or partially swapped with
random / nearest-neighbor viewpoints), stamped strictly later than
everything in the corpus and labeled with the worst label. Injected into
the graph and the training set, they teach the GNN that late
near-duplicates deserve low scores. The generator's fallback count adds
1 for each neighbor-swap slot without a differing cross-idea neighbor
and 1 for each swapped slot without a differing text of another idea.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import COUNT, TEXTS, Checked, Corpus, IdeaViewpoints, at_least, must, read_jsonl, read_records, setting, write_jsonl
from .embedding import EmbeddingMatrix
from .graph import ViewpointGraph, integrate_subgraph, time_features

STRATEGIES = ("copy", "random-swap", "neighbor-swap")
ONE_DAY = 86400


@dataclass
class NoveltyConfig(Checked):
    """The ``novelty`` config section: whether a run injects negatives,
    how many to generate, how many of them train, the lowest label a
    source idea may have, and the share of a source's viewpoints a swap
    replaces."""

    enabled: bool = False
    count: int = setting(80, at_least(1))
    train_subset: int = setting(10, kind=COUNT)
    threshold: int = setting(1, kind=COUNT)
    swap_fraction: float = setting(0.5, must(lambda v: 0.0 < v <= 1.0, "in (0, 1]"))


@dataclass(frozen=True)
class NegativeSample:
    id: str
    source_id: str
    strategy: str
    viewpoints: tuple[str, ...]
    timestamp: int
    label: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not self.viewpoints:
            raise ValueError(f"negative {self.id!r} has no viewpoints")
        object.__setattr__(self, "viewpoints", tuple(self.viewpoints))


def _even_shares(count: int, buckets: int) -> list[int]:
    base, extra = divmod(count, buckets)
    return [base + (1 if i < extra else 0) for i in range(buckets)]


def generate_negatives(
    corpus: Corpus, graph: ViewpointGraph, config: NoveltyConfig, seed: int = 0
) -> tuple[list[NegativeSample], int]:
    """Build ``config.count`` plagiarized ideas labeled 0, split as evenly
    as possible across the STRATEGIES, sourcing only train ideas (split
    ``train``) rated at or above ``config.threshold``. A
    neighbor-swap slot takes its first cross-idea neighbor, ranked by
    (-weight, id), whose text differs; a random-swap slot, or a
    neighbor-swap slot without one, a uniform draw over the differing
    texts of other ideas; a slot with neither keeps its text. Returns
    (samples, fallback count).
    """
    sources = [i for i in corpus.split_ideas("train") if i.label >= config.threshold]
    if not sources:
        raise ValueError(f"no train idea rated at or above label {config.threshold}")
    for idea in sources:
        graph.nodes_of(idea.id, "source idea")  # raises for a source without nodes

    arcs = graph.arcs
    neg_timestamp = max(i.timestamp for i in corpus.ideas) + ONE_DAY
    # each node's text coded by the first node that holds it: a swapped
    # slot's pool is the nodes of other ideas whose code differs from its text's
    first_node: dict[str, int] = {}
    text_code = np.fromiter(map(first_node.setdefault, graph.text, range(len(graph))), np.int64, len(graph))

    rng = np.random.default_rng(seed)
    samples: list[NegativeSample] = []
    fallbacks = 0
    for strategy, share in zip(STRATEGIES, _even_shares(config.count, len(STRATEGIES))):
        for _ in range(share):
            source = sources[int(rng.integers(len(sources)))]
            node_ids = graph.idea_nodes[source.id]
            texts = [graph.text[n] for n in node_ids]
            if strategy != "copy":
                n_swap = math.ceil(config.swap_fraction * len(texts))
                positions = sorted(
                    int(p) for p in rng.choice(len(texts), size=n_swap, replace=False)
                )
                for pos in positions:
                    if strategy == "neighbor-swap":
                        lo, hi = arcs.indptr[node_ids[pos]], arcs.indptr[node_ids[pos] + 1]
                        ranked = arcs.src[lo:hi][np.lexsort((arcs.src[lo:hi], -arcs.weight[lo:hi]))]
                        nbr_text = next(
                            (
                                graph.text[n]
                                for n in ranked
                                if graph.idea[n] != source.id and graph.text[n] != texts[pos]
                            ),
                            None,
                        )
                        if nbr_text is not None:
                            texts[pos] = nbr_text
                            continue
                        fallbacks += 1
                    differs = text_code != first_node[texts[pos]]
                    differs[node_ids] = False  # the source's own nodes
                    pool = np.flatnonzero(differs)
                    if len(pool):
                        texts[pos] = graph.text[pool[int(rng.integers(len(pool)))]]
                    else:
                        fallbacks += 1
            samples.append(
                NegativeSample(
                    id=f"neg-{strategy}-{len(samples):03d}",
                    source_id=source.id,
                    strategy=strategy,
                    viewpoints=tuple(texts),
                    timestamp=neg_timestamp,
                )
            )
    return samples, fallbacks


def select_training_negatives(
    samples: Sequence[NegativeSample], k: int, seed: int = 0
) -> tuple[list[NegativeSample], list[NegativeSample]]:
    """Uniformly pick k samples for training; the rest are held out."""
    if k >= len(samples):
        return list(samples), []
    rng = np.random.default_rng(seed)
    chosen = set(int(i) for i in rng.choice(len(samples), size=k, replace=False))
    train = [s for i, s in enumerate(samples) if i in chosen]
    rest = [s for i, s in enumerate(samples) if i not in chosen]
    return train, rest


def inject_negatives(
    graph: ViewpointGraph,
    matrix: EmbeddingMatrix,
    negatives: Sequence[NegativeSample],
    corpus: Corpus,
) -> tuple[ViewpointGraph, EmbeddingMatrix]:
    """Integrate the negatives as new subgraphs, in order, in one pass;
    returns the enlarged graph and embedding matrix.

    Each negative links to the existing graph and to earlier negatives
    only, under the graph's config. Each negative viewpoint takes the
    embedding row of the first graph node with the same text (copies
    therefore connect to their sources at weight 1). In a hybrid graph a
    negative's relations are its source's, read from the source's intra
    edges: those between two texts the negative holds, whatever their
    slots, so a copy keeps all of them. A text absent from the graph is
    an error, as are a label that is not an index of the corpus's label
    set, an id of a corpus idea or of an idea already in the graph, and in
    a hybrid graph a source without nodes. All temporal features are
    re-encoded over corpus plus negatives, so the negatives carry the
    latest feature and everything stays in [0, 1].
    """
    first_node = {text: node for node, text in reversed(list(enumerate(graph.text)))}  # each text's first node
    n_labels = len(corpus.label_set)
    for neg in negatives:
        if corpus.by_id(neg.id) is not None:
            raise ValueError(f"negative id {neg.id!r} collides with an existing idea")
        if not 0 <= neg.label < n_labels:
            raise ValueError(f"negative {neg.id!r} has label {neg.label}, not one of the corpus's {n_labels} labels")
        if (absent := next((text for text in neg.viewpoints if text not in first_node), None)) is not None:
            raise ValueError(f"negative {neg.id!r} has viewpoint text absent from the graph: {absent!r}")
        if graph.config.hybrid and neg.source_id not in graph.idea_nodes:
            raise ValueError(f"negative {neg.id!r} has source idea {neg.source_id!r}, which has no nodes in the graph")
    matrix = matrix.extend(matrix.rows[[first_node[text] for neg in negatives for text in neg.viewpoints]])

    relations: dict[str, list[tuple[str, str]]] = {}  # idea -> the texts its intra edges join
    if graph.config.hybrid:
        for a, b in zip(graph.u[graph.intra].tolist(), graph.v[graph.intra].tolist()):
            relations.setdefault(graph.idea[a], []).append((graph.text[a], graph.text[b]))

    timestamps = {i.id: i.timestamp for i in corpus.ideas}
    timestamps.update((n.id, n.timestamp) for n in negatives)
    features = time_features(timestamps)
    # previously injected ideas are absent from the corpus: keep their feature
    t = [features.get(idea, old) for idea, old in zip(graph.idea, graph.t.tolist())]
    t += [features[n.id] for n in negatives for _ in n.viewpoints]
    records = [IdeaViewpoints(idea_id=n.id, viewpoints=n.viewpoints, timestamp=n.timestamp,
                              pairs=[(left, "", "", right) for left, right in relations.get(n.source_id, ())
                                     if left in n.viewpoints and right in n.viewpoints])
               for n in negatives]
    return integrate_subgraph(graph, records, matrix, t), matrix


def save_negatives(samples: Sequence[NegativeSample], path: str | Path) -> None:
    write_jsonl(path, map(vars, samples))


def load_negatives(path: str | Path) -> list[NegativeSample]:
    return read_records(
        path,
        read_jsonl(path),
        NegativeSample,
        {"id": str, "source_id": str, "strategy": str, "viewpoints": TEXTS, "timestamp": COUNT},
        {"label": COUNT},
        unique="id",
    )

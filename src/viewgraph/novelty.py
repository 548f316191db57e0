"""Novelty support: temporal node features and plagiarized negative samples.

Negative samples are synthetic ideas assembled from existing viewpoints
(copied outright, or partially swapped with random / nearest-neighbor
viewpoints), stamped strictly later than everything in the corpus and
labeled with the worst label. Injected into the graph and the training
set, they teach the GNN that late near-duplicates deserve low scores.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import Corpus, IdeaViewpoints, read_jsonl, write_jsonl
from .embedding import EmbeddingMatrix, EmbeddingProvider, embed
from .graph import GraphConfig, ViewpointGraph, integrate_subgraph

STRATEGIES = ("copy", "random-swap", "neighbor-swap")
ONE_DAY = 86400


@dataclass(frozen=True)
class TemporalEncoding:
    min_timestamp: int
    max_timestamp: int

    def feature(self, timestamp: int) -> float:
        """Min-max normalized time; 0 when the corpus spans a single instant."""
        span = self.max_timestamp - self.min_timestamp
        if span == 0:
            return 0.0
        return (timestamp - self.min_timestamp) / span


def encode_time(corpus: Corpus, extra_timestamps: Sequence[int] = ()) -> TemporalEncoding:
    ts = [idea.timestamp for idea in corpus.ideas] + list(extra_timestamps)
    if not ts:
        raise ValueError("cannot encode time over an empty corpus")
    return TemporalEncoding(min_timestamp=min(ts), max_timestamp=max(ts))


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
    corpus: Corpus,
    graph: ViewpointGraph,
    count: int,
    strategies: Sequence[str] = STRATEGIES,
    threshold: int = 1,
    swap_fraction: float = 0.5,
    seed: int = 0,
    negative_label: int = 0,
) -> tuple[list[NegativeSample], int]:
    """Build ``count`` plagiarized ideas, split as evenly as possible
    across the strategies, sourcing only ideas rated at or above
    ``threshold``. Returns (samples, fallback count), where fallbacks are
    neighbor-swap slots that degraded to random-swap for lack of a
    cross-idea neighbor.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (0.0 < swap_fraction <= 1.0):
        raise ValueError(f"swap fraction must be in (0, 1], got {swap_fraction}")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    sources = [i for i in corpus.ideas if i.label is not None and i.label >= threshold]
    if not sources:
        raise ValueError(f"no idea rated at or above label {threshold}")
    for idea in sources:
        if idea.id not in graph.idea_nodes:
            raise ValueError(f"source idea {idea.id!r} has no nodes in the graph")

    arcs = graph.arcs
    neg_timestamp = max(i.timestamp for i in corpus.ideas) + ONE_DAY

    rng = np.random.default_rng(seed)
    samples: list[NegativeSample] = []
    fallbacks = 0
    serial = 0
    for strategy, share in zip(strategies, _even_shares(count, len(strategies))):
        for _ in range(share):
            source = sources[int(rng.integers(len(sources)))]
            node_ids = graph.idea_nodes[source.id]
            texts = [graph.text[n] for n in node_ids]
            if strategy != "copy":
                n_swap = math.ceil(swap_fraction * len(texts))
                positions = sorted(
                    int(p) for p in rng.choice(len(texts), size=n_swap, replace=False)
                )
                for pos in positions:
                    use_random = strategy == "random-swap"
                    if strategy == "neighbor-swap":
                        # most similar cross-idea neighbor whose text differs,
                        # ranked by (-weight, id)
                        lo, hi = arcs.indptr[node_ids[pos]], arcs.indptr[node_ids[pos] + 1]
                        ranked = arcs.src[lo:hi][np.lexsort((arcs.src[lo:hi], -arcs.weight[lo:hi]))]
                        nbr = next(
                            (
                                int(n)
                                for n in ranked
                                if graph.idea[n] != source.id and graph.text[n] != texts[pos]
                            ),
                            None,
                        )
                        if nbr is None:
                            use_random = True
                            fallbacks += 1
                        else:
                            texts[pos] = graph.text[nbr]
                    if use_random:
                        pool = [
                            text
                            for idea, text in zip(graph.idea, graph.text)
                            if idea != source.id and text != texts[pos]
                        ]
                        if not pool:
                            fallbacks += 1
                            continue
                        texts[pos] = pool[int(rng.integers(len(pool)))]
            samples.append(
                NegativeSample(
                    id=f"neg-{strategy}-{serial:03d}",
                    source_id=source.id,
                    strategy=strategy,
                    viewpoints=tuple(texts),
                    timestamp=neg_timestamp,
                    label=negative_label,
                )
            )
            serial += 1
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
    config: Optional[GraphConfig] = None,
    provider: Optional[EmbeddingProvider] = None,
) -> tuple[ViewpointGraph, EmbeddingMatrix]:
    """Integrate the negatives as new subgraphs, in order, in one pass;
    returns the enlarged graph and embedding matrix.

    Each negative links to the existing graph and to earlier negatives
    only. Negatives reuse the embedding row of any earlier node with the
    same text (copies therefore connect to their sources at weight 1).
    All temporal features are re-encoded over corpus plus negatives, so
    the negatives carry the latest feature and everything stays in [0, 1].
    """
    config = config or graph.config
    corpus_ids = {i.id for i in corpus.ideas}
    for neg in negatives:
        if neg.id in corpus_ids or neg.id in graph.idea_nodes:
            raise ValueError(f"negative id {neg.id!r} collides with an existing idea")

    by_text: dict[str, np.ndarray] = {}
    for node, text in enumerate(graph.text):
        by_text.setdefault(text, matrix.rows[node])
    rows = []
    for neg in negatives:
        for text in neg.viewpoints:
            if text not in by_text:
                if provider is None:
                    raise ValueError(
                        f"negative {neg.id!r} has viewpoint text absent from the graph "
                        "and no embedding provider was given"
                    )
                by_text[text] = embed([text], provider).rows[0]
            rows.append(by_text[text])
    if rows:
        matrix = matrix.extend(np.stack(rows))

    encoding = encode_time(corpus, [n.timestamp for n in negatives])
    features = {i.id: encoding.feature(i.timestamp) for i in corpus.ideas}
    features.update((n.id, encoding.feature(n.timestamp)) for n in negatives)
    # previously injected ideas are absent from the corpus: keep their feature
    t = [features.get(idea, old) for idea, old in zip(graph.idea, graph.t.tolist())]
    t += [features[n.id] for n in negatives for _ in n.viewpoints]
    records = [IdeaViewpoints(idea_id=n.id, viewpoints=n.viewpoints, timestamp=n.timestamp) for n in negatives]
    return integrate_subgraph(graph, records, matrix, config, t=t), matrix


def save_negatives(samples: Sequence[NegativeSample], path: str | Path) -> None:
    write_jsonl(path, map(asdict, samples))


def load_negatives(path: str | Path) -> list[NegativeSample]:
    return [
        NegativeSample(
            id=obj["id"],
            source_id=obj["source_id"],
            strategy=obj["strategy"],
            viewpoints=tuple(obj["viewpoints"]),
            timestamp=int(obj["timestamp"]),
            label=int(obj.get("label", 0)),
        )
        for obj in read_jsonl(path)
    ]

"""Seeded synthetic corpora for the benchmark.

Each idea is a short abstract of ``viewpoints`` sentences. The mock LLM
turns every sentence into one viewpoint. A ``pool_share`` of an idea's
sentences is drawn from a pool of sentences shared by all ideas with the
same label, so duplicate texts, and with the stub embeddings exact
similarity ties, occur; the rest are unique to the idea. Splits are
preassigned (70/10/20) and timestamps are spread over about ten years.
"""

from __future__ import annotations

import numpy as np

from viewgraph.dataset import Corpus, Idea, LabelSet

LABELS = LabelSet(("Reject", "Accept (Poster)", "Accept (Oral)", "Accept (Spotlight)"))
SPLIT_SHARES = (("train", 0.7), ("validation", 0.1), ("test", 0.2))
POOL_SIZE = 12  # sentences per label pool
BASE_TIME = 1_500_000_000
TEN_YEARS = 10 * 365 * 86400

_SUBJECTS = (
    "The estimator", "The proposed model", "A sparse variant", "The baseline",
    "The encoder", "The training recipe", "The search procedure", "The benchmark",
    "The ablation", "The loss", "The scheduler", "The retrieval step",
)
_VERBS = (
    "improves", "stabilizes", "degrades", "matches", "explains", "accelerates",
    "regularizes", "bounds", "tracks", "compresses", "recovers", "calibrates",
)
_OBJECTS = (
    "long-range recall", "sample efficiency", "calibration error", "the variance term",
    "worst-case regret", "memory traffic", "transfer accuracy", "the convergence rate",
    "label noise", "training cost", "out-of-domain error", "inference latency",
)


def _sentence(rng: np.random.Generator, tag: str) -> str:
    s = _SUBJECTS[int(rng.integers(len(_SUBJECTS)))]
    v = _VERBS[int(rng.integers(len(_VERBS)))]
    o = _OBJECTS[int(rng.integers(len(_OBJECTS)))]
    return f"{s} {v} {o} in {tag}."


def make_corpus(
    n_ideas: int, viewpoints: int = 6, pool_share: float = 0.5, seed: int = 0
) -> tuple[Corpus, float]:
    """Corpus of ``n_ideas`` labelled, pre-split ideas, and the share of
    viewpoint texts that repeat an earlier one. Same seed, same corpus."""
    if n_ideas < 10:
        raise ValueError(f"need at least 10 ideas, got {n_ideas}")
    if not 0.0 <= pool_share <= 1.0:
        raise ValueError(f"pool share must be in [0, 1], got {pool_share}")
    n_pool = round(pool_share * viewpoints)
    if n_pool > POOL_SIZE:
        raise ValueError(f"{n_pool} pool sentences per idea exceed the pool size {POOL_SIZE}")
    rng = np.random.default_rng(seed)
    n_labels = len(LABELS)
    pools = [
        [_sentence(rng, f"setting {label}-{j}") for j in range(POOL_SIZE)]
        for label in range(n_labels)
    ]
    labels = rng.permutation(np.arange(n_ideas) % n_labels)
    order = rng.permutation(n_ideas)
    split_of = {}
    start = 0
    for name, share in SPLIT_SHARES:
        stop = n_ideas if name == "test" else start + round(share * n_ideas)
        for i in order[start:stop]:
            split_of[int(i)] = name
        start = stop

    ideas, texts = [], []
    for i in range(n_ideas):
        label = int(labels[i])
        picks = rng.choice(POOL_SIZE, size=n_pool, replace=False)
        sentences = [pools[label][int(p)] for p in picks]
        sentences += [_sentence(rng, f"study {i} case {j}") for j in range(viewpoints - n_pool)]
        sentences = [sentences[int(p)] for p in rng.permutation(len(sentences))]
        texts += sentences
        ideas.append(
            Idea(
                id=f"idea-{i:05d}",
                title=f"Synthetic idea {i}",
                text=" ".join(sentences),
                label=label,
                timestamp=BASE_TIME + int(rng.integers(0, TEN_YEARS)),
                split=split_of[i],
            )
        )
    return Corpus(label_set=LABELS, ideas=ideas), 1.0 - len(set(texts)) / len(texts)

"""Bundled synthetic corpora for offline runs and the acceptance suite.

Ideas are assembled from per-label pools of sentences, so ideas sharing
a label share viewpoints verbatim. With the deterministic embedding stub,
shared sentences embed identically, which makes the corpora separable by
construction: a useful capacity check without any real data.

Run ``python -m viewgraph.fixtures --out data/`` to write the corpora.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .dataset import Corpus, Idea, LabelSet, save_corpus

FOUR_LABELS = LabelSet(("Reject", "Accept (Poster)", "Accept (Oral)", "Accept (Spotlight)"))
TWO_LABELS = LabelSet(("Reject", "Accept"))

_STRONG = (
    "The proposed estimator stays calibrated under covariate shift.",
    "A closed-form bound links sample size to regret.",
    "Ablations isolate the contribution of each component.",
    "The method scales linearly with corpus size.",
    "Results replicate across five public benchmarks.",
    "A short proof establishes convergence of the update rule.",
    "The approach needs no task-specific tuning.",
    "Training cost drops by an order of magnitude.",
)

_WEAK = (
    "The evaluation covers a single small dataset.",
    "No baseline comparison is reported.",
    "The derivation skips the key boundary case.",
    "Hyperparameters were tuned on the test split.",
    "The claimed speedup lacks a measurement protocol.",
    "Related work from the last decade is ignored.",
    "The ablation table contradicts the main claim.",
    "Error bars are omitted throughout.",
)

_DEMO_POOLS = (
    _WEAK[:4],
    (
        "The benchmark suite gains three new tasks.",
        "A reference implementation accompanies the dataset.",
        "Annotation guidelines are released with the corpus.",
        "The splits match prior published protocols.",
    ),
    (
        "The solver handles constraints absent from earlier work.",
        "A new identity simplifies the variance term.",
        "The bound tightens as the horizon grows.",
        "Transfer holds across unrelated domains.",
    ),
    _STRONG[:4],
)


def _pooled_corpus(label_set: LabelSet, pools, n_ideas: int, picks: int, seed: int, names: tuple[str, str, str],
                   start: int, spread: int) -> Corpus:
    """Idea ``i`` has label ``i % len(pools)``, ``picks`` distinct sentences
    of its label's pool, a sentence of its own, and a timestamp in ``[start,
    start + spread)``; ``names`` formats its id, title and own sentence."""
    rng = np.random.default_rng(seed)
    ideas = []
    for i in range(n_ideas):
        pool = pools[i % len(pools)]
        drawn = rng.choice(len(pool), size=min(picks, len(pool)), replace=False)
        text = " ".join([pool[int(p)] for p in drawn] + [names[2].format(i)])
        timestamp = start + int(rng.integers(0, spread))
        ideas.append(Idea(id=names[0].format(i), title=names[1].format(i), text=text, label=i % len(pools),
                          timestamp=timestamp))
    return Corpus(label_set=label_set, ideas=ideas)


def separable_corpus(n_ideas: int = 40, viewpoints_per_idea: int = 4, seed: int = 7) -> Corpus:
    """Two-label corpus whose ideas draw sentences from per-label pools."""
    names = ("idea-{0:02d}", "Synthetic idea {0:02d}", "Idea {0:02d} targets application area {0:02d}.")
    return _pooled_corpus(TWO_LABELS, (_WEAK, _STRONG), n_ideas, viewpoints_per_idea, seed, names,
                          1_600_000_000, 10_000_000)


def demo_corpus(seed: int = 3) -> Corpus:
    """Twelve ideas over the four-label set; three ideas per label."""
    names = ("demo-{0:02d}", "Demo idea {0:02d}", "Demo idea {0:02d} reports study {0:02d}.")
    return _pooled_corpus(FOUR_LABELS, _DEMO_POOLS, 12, 3, seed, names, 1_580_000_000, 5_000_000)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write the bundled fixture corpora")
    parser.add_argument("--out", default="data", help="output directory")
    args = parser.parse_args(argv)
    out = Path(args.out)
    save_corpus(demo_corpus(), out / "demo12.jsonl")
    save_corpus(separable_corpus(), out / "separable40.jsonl")
    print(f"wrote {out / 'demo12.jsonl'} and {out / 'separable40.jsonl'}")


if __name__ == "__main__":
    main()

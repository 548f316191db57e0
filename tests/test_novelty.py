from __future__ import annotations

import math

import pytest

from graphs import edge_dict
from viewgraph.dataset import Corpus, Idea, IdeaViewpoints, LabelSet
from viewgraph.embedding import EmbeddingMatrix
from viewgraph.graph import integrate_subgraph
from viewgraph.novelty import (
    ONE_DAY,
    NegativeSample,
    encode_time,
    generate_negatives,
    inject_negatives,
    load_negatives,
    save_negatives,
    select_training_negatives,
)


def corpus_of(timestamps, labels=None, label_set=LabelSet(("Reject", "Accept"))):
    labels = labels or [1] * len(timestamps)
    ideas = [
        Idea(id=f"i{j}", title="", text="x.", label=labels[j], timestamp=ts, split="train")
        for j, ts in enumerate(timestamps)
    ]
    return Corpus(label_set=label_set, ideas=ideas)


class TestEncodeTime:
    def test_three_points(self):
        corpus = corpus_of([2021, 2022, 2023])
        enc = encode_time(corpus)
        assert [enc.feature(t) for t in (2021, 2022, 2023)] == [0.0, 0.5, 1.0]

    def test_degenerate_range(self):
        corpus = corpus_of([5, 5, 5])
        enc = encode_time(corpus)
        assert all(enc.feature(5) == 0.0 for _ in range(3))

    def test_monotone(self):
        corpus = corpus_of([10, 700, 40, 300])
        enc = encode_time(corpus)
        ts = sorted([10, 700, 40, 300])
        feats = [enc.feature(t) for t in ts]
        assert feats == sorted(feats)
        assert all(0.0 <= f <= 1.0 for f in feats)

    def test_extra_timestamps_extend_range(self):
        corpus = corpus_of([0, 100])
        enc = encode_time(corpus, extra_timestamps=[200])
        assert enc.feature(200) == 1.0
        assert enc.feature(100) == 0.5


class TestGenerate:
    def test_even_split_of_three(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=3, seed=0)
        assert sorted(s.strategy for s in samples) == ["copy", "neighbor-swap", "random-swap"]

    def test_shares_for_eighty(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=80, seed=0)
        by = {}
        for s in samples:
            by[s.strategy] = by.get(s.strategy, 0) + 1
        assert by == {"copy": 27, "random-swap": 27, "neighbor-swap": 26}

    def test_copy_is_verbatim(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=3, seed=1)
        copy = next(s for s in samples if s.strategy == "copy")
        source_texts = [graph.text[n] for n in graph.idea_nodes[copy.source_id]]
        assert list(copy.viewpoints) == source_texts

    def test_swap_changes_exactly_ceil_rho_n_positions(self, separable):
        # fallback slots (no differing neighbor) still swap to a differing
        # random text, so the changed-position count stays exact
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=6, swap_fraction=0.5, seed=2)
        for s in samples:
            if s.strategy == "copy":
                continue
            source_texts = [graph.text[n] for n in graph.idea_nodes[s.source_id]]
            changed = sum(1 for a, b in zip(s.viewpoints, source_texts) if a != b)
            assert changed == math.ceil(0.5 * len(source_texts))
            assert len(s.viewpoints) == len(source_texts)

    def test_later_timestamp_and_worst_label(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=5, seed=3)
        latest = max(i.timestamp for i in corpus.ideas)
        for s in samples:
            assert s.timestamp == latest + ONE_DAY
            assert s.timestamp > max(i.timestamp for i in corpus.ideas)
            assert s.label == 0

    def test_sources_respect_threshold(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=10, threshold=1, seed=4)
        for s in samples:
            assert corpus.by_id(s.source_id).label >= 1

    def test_deterministic_under_seed(self, separable):
        corpus, _, _, graph = separable
        one, _ = generate_negatives(corpus, graph, count=10, seed=9)
        two, _ = generate_negatives(corpus, graph, count=10, seed=9)
        assert one == two

    def test_no_source_above_threshold_rejected(self, separable):
        corpus, _, _, graph = separable
        with pytest.raises(ValueError, match="threshold|rated"):
            generate_negatives(corpus, graph, count=2, threshold=5, seed=0)

    def test_swap_fraction_validated(self, separable):
        corpus, _, _, graph = separable
        with pytest.raises(ValueError):
            generate_negatives(corpus, graph, count=2, swap_fraction=0.0, seed=0)


class TestSelect:
    def test_ten_of_eighty(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=80, seed=5)
        train, rest = select_training_negatives(samples, 10, seed=5)
        assert len(train) == 10 and len(rest) == 70
        assert {s.id for s in train}.isdisjoint({s.id for s in rest})
        again, _ = select_training_negatives(samples, 10, seed=5)[0], None
        assert [s.id for s in again] == [s.id for s in train]


class TestInject:
    def test_copy_negative_links_to_source_at_weight_one(self, separable):
        corpus, _, matrix, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=3, seed=1)
        copy = next(s for s in samples if s.strategy == "copy")
        grown, grown_matrix = inject_negatives(graph, matrix, [copy], corpus)
        new_ids = set(grown.idea_nodes[copy.id])
        source_ids = set(grown.idea_nodes[copy.source_id])
        unit_links = {
            (u, v)
            for (u, v), (weight, _) in edge_dict(grown).items()
            if weight == pytest.approx(1.0, abs=1e-9)
            and ((u in new_ids and v in source_ids) or (v in new_ids and u in source_ids))
        }
        assert len(unit_links) >= len(new_ids)
        assert len(grown_matrix) == len(matrix) + len(copy.viewpoints)

    def test_node_count_grows_by_total_viewpoints(self, separable):
        corpus, _, matrix, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=4, seed=2)
        grown, _ = inject_negatives(graph, matrix, samples, corpus)
        assert len(grown) == len(graph) + sum(len(s.viewpoints) for s in samples)

    def test_each_new_node_has_inter_edges(self, separable):
        corpus, _, matrix, graph = separable
        sample = NegativeSample(
            id="neg-x",
            source_id="idea-01",
            strategy="copy",
            viewpoints=tuple(graph.text[n] for n in graph.idea_nodes["idea-01"][:3]),
            timestamp=max(i.timestamp for i in corpus.ideas) + ONE_DAY,
        )
        grown, _ = inject_negatives(graph, matrix, [sample], corpus)
        assert len(grown.idea_nodes["neg-x"]) == 3
        for node_id in grown.idea_nodes["neg-x"]:
            assert any(kind == "inter" and node_id in (u, v) for (u, v), (_, kind) in edge_dict(grown).items())

    def test_temporal_features_rescaled(self, separable):
        corpus, _, matrix, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=2, seed=3)
        grown, _ = inject_negatives(graph, matrix, samples, corpus)
        for t in grown.t:
            assert 0.0 <= t <= 1.0
        neg_nodes = grown.idea_nodes[samples[0].id]
        assert all(grown.t[n] == 1.0 for n in neg_nodes)  # strictly latest timestamp
        original = [n for n, idea in enumerate(grown.idea) if not idea.startswith("neg-")]
        assert all(grown.t[n] < 1.0 for n in original)

    def test_one_pass_equals_injecting_one_at_a_time(self, separable):
        # reference: the per-negative loop, each negative integrated alone
        # over the matrix rows up to its own block
        corpus, _, matrix, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=40, seed=4)
        grown, grown_matrix = inject_negatives(graph, matrix, samples, corpus)
        chain, stop = graph, len(graph)
        for neg in samples:
            stop += len(neg.viewpoints)
            record = IdeaViewpoints(idea_id=neg.id, viewpoints=neg.viewpoints, timestamp=neg.timestamp)
            chain = integrate_subgraph(chain, [record], EmbeddingMatrix(grown_matrix.rows[:stop]))
        assert grown.text == chain.text
        assert list(edge_dict(grown).items()) == list(edge_dict(chain).items())

    def test_id_collision_rejected(self, separable):
        corpus, _, matrix, graph = separable
        bad = NegativeSample(
            id="idea-00",  # collides with a corpus idea
            source_id="idea-01",
            strategy="copy",
            viewpoints=("whatever",),
            timestamp=10**10,
        )
        with pytest.raises(ValueError, match="collides"):
            inject_negatives(graph, matrix, [bad], corpus)


class TestSerialization:
    def test_round_trip(self, tmp_path, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, count=5, seed=6)
        path = tmp_path / "neg.jsonl"
        save_negatives(samples, path)
        assert load_negatives(path) == samples

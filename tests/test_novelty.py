from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from graphs import edge_dict
from viewgraph.dataset import Corpus, Idea, IdeaViewpoints
from viewgraph.embedding import EmbeddingMatrix
from viewgraph.fixtures import TWO_LABELS
from viewgraph.graph import ViewpointGraph, integrate_subgraph
from viewgraph.novelty import (
    ONE_DAY,
    STRATEGIES,
    NegativeSample,
    NoveltyConfig,
    generate_negatives,
    inject_negatives,
    load_negatives,
    save_negatives,
    select_training_negatives,
)


def per_slot_scan_reference(corpus, graph, config, seed):
    """``generate_negatives`` as it was when each swapped slot built its
    random-swap pool by scanning every node."""
    sources = [i for i in corpus.split_ideas("train") if i.label >= config.threshold]
    arcs = graph.arcs
    neg_timestamp = max(i.timestamp for i in corpus.ideas) + ONE_DAY
    rng = np.random.default_rng(seed)
    samples, fallbacks = [], 0
    shares = [config.count // 3 + (1 if i < config.count % 3 else 0) for i in range(3)]
    for strategy, share in zip(STRATEGIES, shares):
        for _ in range(share):
            source = sources[int(rng.integers(len(sources)))]
            node_ids = graph.idea_nodes[source.id]
            texts = [graph.text[n] for n in node_ids]
            if strategy != "copy":
                n_swap = math.ceil(config.swap_fraction * len(texts))
                positions = sorted(int(p) for p in rng.choice(len(texts), size=n_swap, replace=False))
                for pos in positions:
                    if strategy == "neighbor-swap":
                        lo, hi = arcs.indptr[node_ids[pos]], arcs.indptr[node_ids[pos] + 1]
                        ranked = arcs.src[lo:hi][np.lexsort((arcs.src[lo:hi], -arcs.weight[lo:hi]))]
                        nbr_text = next((graph.text[n] for n in ranked
                                         if graph.idea[n] != source.id and graph.text[n] != texts[pos]), None)
                        if nbr_text is not None:
                            texts[pos] = nbr_text
                            continue
                        fallbacks += 1
                    pool = [text for idea, text in zip(graph.idea, graph.text) if idea != source.id and text != texts[pos]]
                    if pool:
                        texts[pos] = pool[int(rng.integers(len(pool)))]
                    else:
                        fallbacks += 1
            samples.append(NegativeSample(id=f"neg-{strategy}-{len(samples):03d}", source_id=source.id,
                                          strategy=strategy, viewpoints=tuple(texts), timestamp=neg_timestamp))
    return samples, fallbacks


class TestGenerate:
    def test_even_split_of_three(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=3), seed=0)
        assert sorted(s.strategy for s in samples) == ["copy", "neighbor-swap", "random-swap"]

    def test_shares_for_eighty(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=80), seed=0)
        by = {}
        for s in samples:
            by[s.strategy] = by.get(s.strategy, 0) + 1
        assert by == {"copy": 27, "random-swap": 27, "neighbor-swap": 26}

    def test_copy_is_verbatim(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=3), seed=1)
        copy = next(s for s in samples if s.strategy == "copy")
        source_texts = [graph.text[n] for n in graph.idea_nodes[copy.source_id]]
        assert list(copy.viewpoints) == source_texts

    def test_swap_changes_exactly_ceil_rho_n_positions(self, separable):
        # fallback slots (no differing neighbor) still swap to a differing
        # random text, so the changed-position count stays exact
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=6, swap_fraction=0.5), seed=2)
        for s in samples:
            if s.strategy == "copy":
                continue
            source_texts = [graph.text[n] for n in graph.idea_nodes[s.source_id]]
            changed = sum(1 for a, b in zip(s.viewpoints, source_texts) if a != b)
            assert changed == math.ceil(0.5 * len(source_texts))
            assert len(s.viewpoints) == len(source_texts)

    def test_later_timestamp_and_worst_label(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=5), seed=3)
        latest = max(i.timestamp for i in corpus.ideas)
        for s in samples:
            assert s.timestamp == latest + ONE_DAY
            assert s.timestamp > max(i.timestamp for i in corpus.ideas)
            assert s.label == 0

    def test_sources_respect_threshold(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=10, threshold=1), seed=4)
        for s in samples:
            assert corpus.by_id(s.source_id).label >= 1

    def test_deterministic_under_seed(self, separable):
        corpus, _, _, graph = separable
        one, _ = generate_negatives(corpus, graph, NoveltyConfig(count=10), seed=9)
        two, _ = generate_negatives(corpus, graph, NoveltyConfig(count=10), seed=9)
        assert one == two

    def test_sources_are_train_ideas(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=80), seed=0)
        assert {corpus.by_id(s.source_id).split for s in samples} == {"train"}

    def test_no_source_above_threshold_rejected(self, separable):
        corpus, _, _, graph = separable
        with pytest.raises(ValueError, match="^no train idea rated at or above label 5$"):
            generate_negatives(corpus, graph, NoveltyConfig(count=2, threshold=5), seed=0)

    def test_held_out_ideas_are_not_sources(self, separable):
        corpus, _, _, graph = separable
        held_out = Corpus(corpus.label_set, [replace(i, split="test") if i.split == "train" else i for i in corpus.ideas])
        with pytest.raises(ValueError, match="^no train idea rated at or above label 1$"):
            generate_negatives(held_out, graph, NoveltyConfig(count=2), seed=0)

    def test_unsplit_rated_ideas_are_not_sources(self, separable):
        """In a corpus mixing train ideas with rated ideas of no split, only
        the train ideas are sources."""
        corpus, _, _, graph = separable
        mixed = Corpus(corpus.label_set, [i if i.split == "train" else replace(i, split=None) for i in corpus.ideas])
        assert any(i.split is None and i.label >= 1 for i in mixed.ideas)
        samples, _ = generate_negatives(mixed, graph, NoveltyConfig(count=80), seed=0)
        assert {mixed.by_id(s.source_id).split for s in samples} == {"train"}

    def test_both_fallbacks(self):
        # one source "a" with slots "p" and "q"; the other idea "b" holds
        # only "p". Slot "p": its one cross-idea neighbour has the same
        # text, and no foreign text differs, so it keeps "p". Slot "q": its
        # only neighbour is in its own idea, so it takes the foreign "p"
        corpus = Corpus(TWO_LABELS, [Idea("a", "a", "a.", label=1, timestamp=5, split="train"),
                                     Idea("b", "b", "b.", label=0, split="train")])
        graph = ViewpointGraph(
            idea=["a", "a", "b"], text=["p", "q", "p"], t=[0.0] * 3,
            u=[0, 0], v=[1, 2], weight=[0.5, 0.9], intra=[True, False],
        )
        samples, fallbacks = generate_negatives(corpus, graph, NoveltyConfig(count=3, swap_fraction=1.0), seed=0)
        assert [(s.id, s.source_id, s.viewpoints) for s in samples] == [
            ("neg-copy-000", "a", ("p", "q")),
            ("neg-random-swap-001", "a", ("p", "p")),
            ("neg-neighbor-swap-002", "a", ("p", "p")),
        ]
        # random-swap: 1 for "p" without foreign text; neighbor-swap: 2 for
        # "p" without a neighbour or foreign text, 1 for "q" without a neighbour
        assert fallbacks == 4

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("swap_fraction", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("case", ["separable", "no-pool"])
    def test_equals_the_per_slot_scan(self, separable, case, swap_fraction, seed):
        """Samples and fallbacks equal those of the generator that scanned
        every node for each swapped slot's pool; the "no-pool" graph has
        slots without a differing foreign text."""
        if case == "separable":
            corpus, _, _, graph = separable
        else:
            # source "a" holds "p" and "q", the others only "p": slot "p" has no pool
            corpus = Corpus(TWO_LABELS, [Idea("a", "a", "a.", label=1, timestamp=5, split="train"),
                                         Idea("b", "b", "b.", label=0, split="train"),
                                         Idea("c", "c", "c.", label=0, split="train")])
            graph = ViewpointGraph(idea=["a", "a", "b", "c"], text=["p", "q", "p", "p"], t=[0.0] * 4,
                                   u=[0, 0, 1], v=[1, 2, 3], weight=[0.5, 0.9, 0.4], intra=[True, False, False])
        config = NoveltyConfig(count=30, swap_fraction=swap_fraction)
        got = generate_negatives(corpus, graph, config, seed)
        assert got == per_slot_scan_reference(corpus, graph, config, seed)
        if case == "no-pool":
            assert got[1] > 0

    def test_swap_fraction_validated(self, separable):
        corpus, _, _, graph = separable
        with pytest.raises(ValueError, match=r"^swap_fraction: must be in \(0, 1\], got 0.0$"):
            generate_negatives(corpus, graph, NoveltyConfig(count=2, swap_fraction=0.0), seed=0)


class TestSelect:
    def test_ten_of_eighty(self, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=80), seed=5)
        train, rest = select_training_negatives(samples, 10, seed=5)
        assert len(train) == 10 and len(rest) == 70
        assert {s.id for s in train}.isdisjoint({s.id for s in rest})
        again, _ = select_training_negatives(samples, 10, seed=5)[0], None
        assert [s.id for s in again] == [s.id for s in train]

    @pytest.mark.parametrize("train_subset", [3, 4])
    def test_subset_of_at_least_count_trains_on_every_negative(self, separable, train_subset):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=3), seed=5)
        assert select_training_negatives(samples, train_subset, seed=5) == (samples, [])


class TestInject:
    def test_copy_negative_links_to_source_at_weight_one(self, separable):
        corpus, _, matrix, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=3), seed=1)
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
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=4), seed=2)
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
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=2), seed=3)
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
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=40), seed=4)
        grown, grown_matrix = inject_negatives(graph, matrix, samples, corpus)
        chain, stop = graph, len(graph)
        for neg in samples:
            stop += len(neg.viewpoints)
            record = IdeaViewpoints(idea_id=neg.id, viewpoints=neg.viewpoints, timestamp=neg.timestamp)
            chain = integrate_subgraph(chain, [record], EmbeddingMatrix(grown_matrix.rows[:stop]), np.zeros(stop))
        assert grown.text == chain.text
        assert list(edge_dict(grown).items()) == list(edge_dict(chain).items())

    def test_text_absent_from_graph_named(self, separable):
        corpus, _, matrix, graph = separable
        bad = NegativeSample(id="neg-x", source_id="idea-01", strategy="copy", viewpoints=("not in the graph",), timestamp=10**10)
        with pytest.raises(ValueError, match="negative 'neg-x' has viewpoint text absent from the graph: 'not in the graph'"):
            inject_negatives(graph, matrix, [bad], corpus)

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

    def test_id_of_an_injected_negative_rejected(self, separable):
        """A negative named like one injected before, which is in the
        graph but not the corpus, is refused by the graph."""
        corpus, _, matrix, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=2), seed=3)
        grown, grown_matrix = inject_negatives(graph, matrix, samples[:1], corpus)
        again = replace(samples[1], id=samples[0].id)
        with pytest.raises(ValueError, match=f"^idea '{samples[0].id}' already in graph$"):
            inject_negatives(grown, grown_matrix, [again], corpus)


class TestSerialization:
    def test_round_trip(self, tmp_path, separable):
        corpus, _, _, graph = separable
        samples, _ = generate_negatives(corpus, graph, NoveltyConfig(count=5), seed=6)
        path = tmp_path / "neg.jsonl"
        save_negatives(samples, path)
        assert load_negatives(path) == samples

    @pytest.mark.parametrize("key", ["id", "source_id", "strategy", "viewpoints", "timestamp"])
    def test_line_without_key_named(self, tmp_path, key):
        path = tmp_path / "neg.jsonl"
        save_negatives([NegativeSample("n0", "i0", "copy", ("a.",), 5), NegativeSample("n1", "i1", "copy", ("b.",), 6)], path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        del obj[key]
        path.write_text(lines[0] + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: missing key '{key}'$"):
            load_negatives(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("id", 3, "must be a str, got int"),
            ("strategy", None, "must be a str, got NoneType"),
            ("viewpoints", "b.", "must be a list, got str"),
            ("timestamp", "6", "must be an int, got str"),
            ("timestamp", True, "must be an int, got bool"),
            ("timestamp", -1, "must be >= 0, got -1"),
            ("label", False, "must be an int, got bool"),
            ("viewpoints", ["a.", 3], "must be a list of non-empty strings, got item 3"),
            ("viewpoints", ["a.", ""], "must be a list of non-empty strings, got item ''"),
        ],
    )
    def test_value_of_wrong_type_named(self, tmp_path, key, value, message):
        path = tmp_path / "neg.jsonl"
        save_negatives([NegativeSample("n0", "i0", "copy", ("a.",), 5)], path)
        obj = json.loads(path.read_text())
        obj[key] = value
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: key '{key}' {message}$"):
            load_negatives(path)

from __future__ import annotations

import numpy as np
import pytest

from graphs import arcs_from_lists, incoming, toy_graph
from oracles import dense_label_propagation, random_lp_instance
from viewgraph import label_prop
from viewgraph.dataset import Corpus, Idea, LabelSet
from viewgraph.graph import GraphConfig, add_neighbours, neighbour_slots
from viewgraph.label_prop import (
    LpConfig,
    init_vectors,
    normalize_weights,
    propagate,
    run,
)

FOUR = LabelSet(("Reject", "Accept (Poster)", "Accept (Oral)", "Accept (Spotlight)"))


def graph_from(edges, node_ideas, config=GraphConfig()):
    graph = toy_graph(node_ideas, [(u, v, w) for u, v, w, _ in edges], config)
    assert [kind == "intra" for *_, kind in edges] == graph.intra.tolist()
    return graph


def corpus_for(node_ideas, labels, label_set=FOUR):
    """One idea per distinct idea id; labels maps idea id -> (label, split)."""
    ideas = []
    for idea_id in dict.fromkeys(node_ideas):
        label, split = labels[idea_id]
        ideas.append(
            Idea(id=idea_id, title="", text="x.", label=label, timestamp=0, split=split)
        )
    return Corpus(label_set=label_set, ideas=ideas)


class TestInit:
    def test_one_hot_and_zeros(self):
        """Only train ideas seed: an unsplit rated idea and an idea the
        corpus lacks start at zero."""
        graph = graph_from([], ["a", "b", "c", "zz"], GraphConfig())
        corpus = corpus_for(["a", "b", "c"], {"a": (2, "train"), "b": (None, "test"), "c": (1, None)})
        vectors = init_vectors(graph, corpus)
        assert vectors[0].tolist() == [0.0, 0.0, 1.0, 0.0]
        assert not vectors[1:].any()

    def test_counting_nonzero_rows(self):
        node_ideas = ["a", "a", "b", "c", "d", "e"]
        graph = graph_from([], node_ideas)
        corpus = corpus_for(
            node_ideas,
            {
                "a": (0, "train"),
                "b": (1, "train"),
                "c": (None, "test"),
                "d": (None, "test"),
                "e": (3, "validation"),
            },
        )
        vectors = init_vectors(graph, corpus)
        assert int((vectors.sum(axis=1) > 0).sum()) == 3  # two "a" nodes + one "b"


class TestNormalize:
    def test_already_normalized(self):
        graph = graph_from(
            [(0, 1, 0.5, "inter"), (0, 2, 0.5, "inter")], ["a", "b", "c"]
        )
        weights = normalize_weights(graph)
        assert sorted(incoming(weights, 0).values()) == [0.5, 0.5]

    def test_hand_division(self):
        graph = graph_from(
            [(0, 1, 0.9, "inter"), (0, 2, 0.3, "inter")], ["a", "b", "c"]
        )
        weights = incoming(normalize_weights(graph), 0)
        assert weights[1] == pytest.approx(0.75)
        assert weights[2] == pytest.approx(0.25)

    def test_isolated_node_empty(self):
        graph = graph_from([], ["a"])
        assert incoming(normalize_weights(graph), 0) == {}

    def test_per_direction_normalization(self):
        # node 0 has two edges, node 1 only one: the shared edge normalizes
        # differently from each side
        graph = graph_from(
            [(0, 1, 0.5, "inter"), (0, 2, 0.5, "inter")], ["a", "b", "c"]
        )
        weights = normalize_weights(graph)
        assert incoming(weights, 0)[1] == pytest.approx(0.5)
        assert incoming(weights, 1)[0] == pytest.approx(1.0)


    @pytest.mark.parametrize("seed", range(40))
    def test_equals_slot_by_slot_sums(self, seed):
        """Each node's total is summed in ascending source order from 0.0,
        as the slot-by-slot sum of neighbour weights did: on graphs whose
        weights tie exactly, or are zero, the weights are equal bit for bit."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        ideas = [f"idea{i}" for i in rng.integers(0, max(1, n // 3), size=n)]
        ties = [0.0, 0.1, 0.2, 1 / 3, 0.7, 1.0] + rng.random(3).tolist()
        pairs = [(u, v, float(rng.choice(ties))) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        graph = toy_graph(ideas, pairs)
        assert np.array_equal(normalize_weights(graph).weight, slot_sum_normalized(graph))


def slot_sum_normalized(graph):
    """The normalized arc weights as ``normalize_weights`` made them before
    it summed with ``np.bincount``, kept as the reference: each node's total
    added up one neighbour slot at a time."""
    arcs, n = graph.arcs, len(graph)
    total = add_neighbours(np.zeros((n, 1)), neighbour_slots(arcs), np.ones((n, 1)))[arcs.dst, 0]
    return np.divide(arcs.weight, total, out=np.zeros_like(arcs.weight), where=total > 0.0)


class TestPropagate:
    def test_chain_hand_trace(self):
        graph = graph_from([(0, 1, 1.0, "inter")], ["a", "b"], GraphConfig())
        corpus = corpus_for(["a", "b"], {"a": (0, "train"), "b": (None, "test")},
                            LabelSet(("Reject", "Accept")))
        vectors = propagate(
            init_vectors(graph, corpus), normalize_weights(graph), LpConfig(max_iters=1)
        )
        assert vectors[1].tolist() == [1.0, 0.0]

    def test_star_hand_trace(self):
        edges = [(0, 1, 1.0, "inter"), (0, 2, 1.0, "inter"), (0, 3, 1.0, "inter")]
        graph = graph_from(edges, ["hub", "a", "b", "c"])
        corpus = corpus_for(
            ["hub", "a", "b", "c"],
            {
                "hub": (None, "test"),
                "a": (0, "train"),
                "b": (0, "train"),
                "c": (1, "train"),
            },
            LabelSet(("Reject", "Accept")),
        )
        vectors = propagate(
            init_vectors(graph, corpus), normalize_weights(graph), LpConfig(max_iters=1)
        )
        assert vectors[0] == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_all_zero_neighborhood_stays_zero(self):
        graph = graph_from([(0, 1, 1.0, "inter")], ["a", "b"])
        corpus = corpus_for(["a", "b"], {"a": (None, "test"), "b": (None, "test")})
        vectors = propagate(
            init_vectors(graph, corpus), normalize_weights(graph), LpConfig(max_iters=5)
        )
        assert not vectors.any()

    def test_no_train_nodes_fixed_point(self):
        _, init = random_lp_instance(np.random.default_rng(0))
        graph = graph_from([(0, 1, 0.7, "inter")], ["a", "b"])
        corpus = corpus_for(["a", "b"], {"a": (None, "test"), "b": (None, "test")})
        vectors = propagate(
            init_vectors(graph, corpus), normalize_weights(graph), LpConfig(max_iters=7)
        )
        assert not vectors.any()

    def test_nonnegative_and_simplex_invariant(self):
        rng = np.random.default_rng(42)
        adjacency, init = random_lp_instance(rng)
        weights = [
            [(j, adjacency[i, j] / adjacency[i].sum()) for j in range(len(adjacency)) if adjacency[i, j] > 0]
            if adjacency[i].sum() > 0
            else []
            for i in range(len(adjacency))
        ]
        vectors = init
        for _ in range(5):
            vectors = propagate(vectors, arcs_from_lists(weights), LpConfig(max_iters=1, early_stop=False))
            assert (vectors >= 0).all()
            sums = vectors.sum(axis=1)
            assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        adjacency, init = random_lp_instance(rng)
        n = len(adjacency)
        weights = []
        for i in range(n):
            total = adjacency[i].sum()
            weights.append(
                [(j, adjacency[i, j] / total) for j in range(n) if adjacency[i, j] > 0]
                if total > 0
                else []
            )
        for iters in range(1, 6):
            ours = propagate(init, arcs_from_lists(weights), LpConfig(max_iters=iters, early_stop=False))
            expected = dense_label_propagation(init, adjacency, iters)
            assert np.abs(ours - expected).max() < 1e-9

    def test_early_stop_freezes_once_labels_stable(self):
        # path A(label 0) - B - C: after one iteration every argmax is 0
        # (C is still the zero vector) so early stopping ends the run there
        edges = [(0, 1, 1.0, "inter"), (1, 2, 1.0, "inter")]
        graph = graph_from(edges, ["a", "b", "c"])
        corpus = corpus_for(
            ["a", "b", "c"],
            {"a": (0, "train"), "b": (None, "test"), "c": (None, "test")},
            LabelSet(("Reject", "Accept")),
        )
        init = init_vectors(graph, corpus)
        weights = normalize_weights(graph)
        stopped = propagate(init, weights, LpConfig(max_iters=5, early_stop=True))
        one_iter = propagate(init, weights, LpConfig(max_iters=1, early_stop=False))
        assert np.array_equal(stopped, one_iter)
        full = propagate(init, weights, LpConfig(max_iters=5, early_stop=False))
        assert not np.array_equal(stopped, full)

    @pytest.mark.parametrize("early_stop, stats", [(True, {"iterations": 1, "unreached_nodes": 1}),
                                                   (False, {"iterations": 5, "unreached_nodes": 0})])
    def test_stats_give_iterations_run_and_unreached_nodes(self, early_stop, stats):
        """On the path A(label 0) - B - C, early stop ends after the first
        iteration, before C is reached."""
        graph = graph_from([(0, 1, 1.0, "inter"), (1, 2, 1.0, "inter")], ["a", "b", "c"])
        corpus = corpus_for(["a", "b", "c"], {"a": (0, "train"), "b": (None, "test"), "c": (None, "test")},
                            LabelSet(("Reject", "Accept")))
        got = {}
        run(graph, corpus, LpConfig(max_iters=5, early_stop=early_stop), stats=got)
        assert got == stats

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        adjacency, init = random_lp_instance(rng, max_labels=4)
        n, n_labels = init.shape
        weights = []
        for i in range(n):
            total = adjacency[i].sum()
            weights.append(
                [(j, adjacency[i, j] / total) for j in range(n) if adjacency[i, j] > 0]
                if total > 0
                else []
            )
        perm = np.random.default_rng(1).permutation(n_labels)
        base = propagate(init, arcs_from_lists(weights), LpConfig(max_iters=4, early_stop=False))
        permuted = propagate(init[:, perm], arcs_from_lists(weights), LpConfig(max_iters=4, early_stop=False))
        assert np.allclose(base[:, perm], permuted, atol=1e-12)


class TestPredict:
    @staticmethod
    def predict(monkeypatch, vectors, node_ideas):
        """``run``'s predictions when propagation ends at ``vectors``: node i
        belongs to the test idea ``node_ideas[i]``."""
        monkeypatch.setattr(label_prop, "propagate", lambda *args: np.array(vectors, dtype=np.float64))
        corpus = corpus_for(node_ideas, dict.fromkeys(node_ideas, (None, "test")))
        return run(graph_from([], node_ideas), corpus)

    def test_argmax(self, monkeypatch):
        [p] = self.predict(monkeypatch, [[0.1, 0.7, 0.2, 0.0]], ["t"])
        assert (p.label_index, p.unreached) == (1, False)

    def test_tie_goes_to_lowest_index(self, monkeypatch):
        [p] = self.predict(monkeypatch, [[0.0, 0.5, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0]], ["t", "t"])
        assert (p.label_index, p.unreached) == (1, False)

    def test_hand_summation(self, monkeypatch):
        """Ideas of unequal size, in one run: each vector is its nodes' sum."""
        vectors = [[0.2, 0.8, 0, 0], [0.9, 0.1, 0, 0], [0, 0, 0.3, 0], [0.1, 0.2, 0.3, 0.4]]
        t, u = self.predict(monkeypatch, vectors, ["t", "t", "u", "t"])
        assert (t.idea_id, t.label_index, t.unreached) == ("t", 0, False)
        assert t.vector == [0.2 + 0.9 + 0.1, 0.8 + 0.1 + 0.2, 0.3, 0.4]
        assert (u.idea_id, u.label_index, u.vector) == ("u", 2, [0, 0, 0.3, 0])

    def test_all_zero_flagged_unreached(self, monkeypatch):
        t, u = self.predict(monkeypatch, [[0.0] * 4, [0.0] * 4, [0.0, 0.0, 0.0, 1.0]], ["t", "t", "u"])
        assert [(p.label_index, p.unreached) for p in (t, u)] == [(0, True), (3, False)]

    def test_empty_node_set_rejected(self):
        graph = toy_graph(["a", "a"], [(0, 1, 1.0)])
        corpus = corpus_for(["a", "x"], {"a": (0, "train"), "x": (None, "test")})
        with pytest.raises(ValueError, match="idea 'x' has no nodes in the graph"):
            run(graph, corpus)


class TestRun:
    def test_end_to_end_on_separable(self, separable):
        corpus, _, _, graph = separable
        predictions = run(graph, corpus)
        assert len(predictions) == len(corpus.split_ideas("test"))
        correct = sum(
            p.label_index == corpus.by_id(p.idea_id).label for p in predictions
        )
        assert correct == len(predictions)  # pools make the corpus separable
        assert not any(p.unreached for p in predictions)

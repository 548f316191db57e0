from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import finite_difference_grads, max_relative_error
from viewgraph.dataset import Corpus, Idea, LabelSet
from viewgraph.embedding import EmbeddingMatrix
from viewgraph.gnn import (
    AdamState,
    EdgeArrays,
    GnnConfig,
    GnnModel,
    adam_step,
    batch_loss_and_grads,
    edge_arrays,
    full_forward,
    init_model,
    load_model,
    loss,
    lr_schedule,
    node_features,
    pool_and_head,
    predict,
    predict_subgraphs,
    save_model,
    train,
)
from viewgraph.graph import GraphConfig, ViewpointGraph, ViewpointNode, WeightedEdge

TWO = LabelSet(("Reject", "Accept"))


def make_edges(pairs, n):
    src, dst, w = [], [], []
    for u, v, weight in pairs:
        src += [v, u]
        dst += [u, v]
        w += [weight, weight]
    deg = np.bincount(np.array(dst, dtype=int), minlength=n) if dst else np.zeros(n, dtype=int)
    return EdgeArrays(
        src=np.array(src, dtype=int),
        dst=np.array(dst, dtype=int),
        weight=np.array(w, dtype=float),
        deg=deg,
    )


def one_layer(states, edges, message_w, combine_w):
    """One message-passing layer, run by full_forward on a one-layer model."""
    h = message_w.shape[0]
    model = GnnModel(
        message_weights=[message_w],
        combine_weights=[combine_w],
        head_hidden_w=np.zeros((h, 2 * h)),
        head_hidden_b=np.zeros(h),
        head_out_w=np.zeros((2, h)),
        head_out_b=np.zeros(2),
    )
    return full_forward(model, states, edges).states[-1]


def idea_probs(model, X, edges, node_ids):
    """Full-graph message passing, then the pooled head for one idea."""
    return pool_and_head(model, full_forward(model, X, edges).states[-1], node_ids).probs


def toy_graph(node_ideas, pairs, config=GraphConfig()):
    nodes = [
        ViewpointNode(id=i, text=f"v{i}", idea_id=idea, row=i, t=0.0)
        for i, idea in enumerate(node_ideas)
    ]
    edges = [WeightedEdge(u=u, v=v, weight=w, kind="inter" if nodes[u].idea_id != nodes[v].idea_id else "intra") for u, v, w in pairs]
    return ViewpointGraph(nodes=nodes, edges=edges, config=config)


def random_labeled_graph(seed, n_ideas=2, nodes_per_idea=3, dim=4, n_labels=3):
    rng = np.random.default_rng(seed)
    node_ideas = [f"i{k}" for k in range(n_ideas) for _ in range(nodes_per_idea)]
    n = len(node_ideas)
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                pairs.append((u, v, float(rng.random())))
    graph = toy_graph(node_ideas, pairs)
    X = rng.normal(size=(n, dim))
    items = []
    for k in range(n_ideas):
        ids = [i for i, idea in enumerate(node_ideas) if idea == f"i{k}"]
        items.append((ids, int(rng.integers(n_labels))))
    return graph, X, items, n_labels


class TestForwardLayer:
    def test_hand_trace_on_path(self):
        states = np.array([[1.0, -1.0], [0.0, 1.0], [1.0, 1.0]])
        edges = make_edges([(0, 1, 0.5), (1, 2, 1.0)], 3)
        message_w = np.eye(2)
        combine_w = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        out = one_layer(states, edges, message_w, combine_w)
        assert out == pytest.approx(np.array([[0.5, 0.0], [1.25, 1.0], [1.0, 2.0]]), abs=1e-12)

    def test_isolated_node_aggregates_zero(self):
        states = np.array([[2.0, 3.0]])
        edges = make_edges([], 1)
        rng = np.random.default_rng(0)
        message_w = rng.normal(size=(4, 2))
        combine_w = rng.normal(size=(4, 6))
        out = one_layer(states, edges, message_w, combine_w)
        expected = combine_w @ np.concatenate([np.zeros(4), states[0]])
        assert out[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_weight_edge_equals_isolated(self):
        states = np.array([[2.0, 3.0], [5.0, -1.0]])
        rng = np.random.default_rng(1)
        message_w = rng.normal(size=(4, 2))
        combine_w = rng.normal(size=(4, 6))
        connected = one_layer(states, make_edges([(0, 1, 0.0)], 2), message_w, combine_w)
        isolated = one_layer(states, make_edges([], 2), message_w, combine_w)
        assert connected == pytest.approx(isolated, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            one_layer(np.zeros((2, 3)), make_edges([], 2), np.zeros((4, 2)), np.zeros((4, 6)))


class TestForwardSubgraph:
    def _model(self, seed=0, input_dim=4, hidden=6, n_labels=3):
        rng = np.random.default_rng(seed)
        return init_model(GnnConfig(hidden_dim=hidden), input_dim, n_labels, rng)

    def test_single_node_idea_pools_to_itself(self):
        model = self._model()
        X = np.random.default_rng(2).normal(size=(1, 4))
        edges = make_edges([], 1)
        cache = full_forward(model, X, edges)
        head = pool_and_head(model, cache.states[-1], [0])
        assert head.pooled[:6] == pytest.approx(head.pooled[6:], abs=1e-12)

    def test_uniform_logits_uniform_probabilities(self):
        model = self._model(n_labels=4)
        model.head_out_w[:] = 0.0
        model.head_out_b[:] = 0.0
        probs = idea_probs(model, np.ones((2, 4)), make_edges([], 2), [0, 1])
        assert probs == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_probabilities_sum_to_one(self):
        model = self._model(seed=5)
        rng = np.random.default_rng(7)
        probs = idea_probs(model, rng.normal(size=(4, 4)), make_edges([(0, 1, 0.3)], 4), [0, 1, 2])
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (probs >= 0).all()

    def test_empty_node_set_rejected(self):
        model = self._model()
        with pytest.raises(ValueError):
            idea_probs(model, np.ones((1, 4)), make_edges([], 1), [])

    def test_pooling_order_invariant(self):
        model = self._model(seed=9)
        rng = np.random.default_rng(11)
        X = rng.normal(size=(5, 4))
        edges = make_edges([(0, 1, 0.5), (2, 3, 0.8)], 5)
        a = idea_probs(model, X, edges, [0, 1, 2, 3, 4])
        b = idea_probs(model, X, edges, [4, 2, 0, 3, 1])
        assert a == pytest.approx(b, abs=1e-12)
        assert np.argmax(a) == np.argmax(b)


class TestLoss:
    def test_perfect_prediction_zero_loss(self):
        assert loss([[1.0, 0.0]], [0]) <= 1e-11

    def test_uniform_four_class(self):
        assert loss([[0.25] * 4], [2]) == pytest.approx(math.log(4), abs=1e-12)

    def test_mean_of_two(self):
        a = loss([[0.5, 0.5]], [0])
        b = loss([[0.9, 0.1]], [0])
        both = loss([[0.5, 0.5], [0.9, 0.1]], [0, 0])
        assert both == pytest.approx((a + b) / 2, abs=1e-12)

    def test_floored_probability(self):
        assert loss([[0.0, 1.0]], [0]) == pytest.approx(-math.log(1e-12))


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, seed):
        graph, X, items, n_labels = random_labeled_graph(seed)
        edges = edge_arrays(graph)
        rng = np.random.default_rng(seed + 100)
        model = init_model(GnnConfig(hidden_dim=8), X.shape[1], n_labels, rng)
        _, analytic = batch_loss_and_grads(model, X, edges, items)

        def loss_fn():
            cache = full_forward(model, X, edges)
            heads = [pool_and_head(model, cache.states[-1], ids) for ids, _ in items]
            return loss([h.probs for h in heads], [y for _, y in items])

        numeric = finite_difference_grads(model, loss_fn, epsilon=1e-4)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_zero_class_weights_zero_gradients(self):
        graph, X, items, n_labels = random_labeled_graph(3)
        edges = edge_arrays(graph)
        model = init_model(GnnConfig(hidden_dim=8), X.shape[1], n_labels, np.random.default_rng(0))
        loss_val, grads = batch_loss_and_grads(model, X, edges, items, class_weights=np.zeros(n_labels))
        assert loss_val == 0.0
        assert all(not g.any() for g in grads.values())

    def test_batch_gradient_is_mean_of_item_gradients(self):
        graph, X, items, n_labels = random_labeled_graph(4)
        edges = edge_arrays(graph)
        model = init_model(GnnConfig(hidden_dim=8), X.shape[1], n_labels, np.random.default_rng(1))
        _, g_both = batch_loss_and_grads(model, X, edges, items)
        _, g_a = batch_loss_and_grads(model, X, edges, [items[0]])
        _, g_b = batch_loss_and_grads(model, X, edges, [items[1]])
        for name in g_both:
            assert np.allclose(g_both[name], (g_a[name] + g_b[name]) / 2, atol=1e-12)


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        model = init_model(GnnConfig(hidden_dim=4), 3, 2, np.random.default_rng(0))
        before = {name: arr.copy() for name, arr in model.param_items()}
        grads = {name: np.full_like(arr, 0.5) for name, arr in model.param_items()}
        state = AdamState(model)
        lr = 1e-3
        adam_step(model, grads, state, lr)
        for name, arr in model.param_items():
            delta = arr - before[name]
            assert np.all(np.abs(delta + lr) <= 0.01 * lr)  # -lr * sign(g), g > 0

    def test_zero_learning_rate_freezes(self):
        model = init_model(GnnConfig(hidden_dim=4), 3, 2, np.random.default_rng(0))
        before = {name: arr.copy() for name, arr in model.param_items()}
        grads = {name: np.ones_like(arr) for name, arr in model.param_items()}
        adam_step(model, grads, AdamState(model), lr_schedule(1e-3, 1000, 1000))
        for name, arr in model.param_items():
            assert np.array_equal(arr, before[name])

    def test_schedule_strictly_decreasing_to_zero(self):
        values = [lr_schedule(1e-3, e, 100) for e in range(101)]
        assert values[0] == 1e-3
        assert values[-1] == 0.0
        assert all(a > b for a, b in zip(values, values[1:]))


def separable_inputs(separable):
    corpus, _, matrix, graph = separable
    return corpus, matrix, graph


class TestTrain:
    def test_deterministic_under_seed(self, separable):
        corpus, _, matrix, graph = separable
        config = GnnConfig(hidden_dim=8, max_epochs=5, seed=3)
        one = train(config, graph, matrix, corpus)
        two = train(config, graph, matrix, corpus)
        for (n1, a1), (n2, a2) in zip(one.model.param_items(), two.model.param_items()):
            assert n1 == n2
            assert np.array_equal(a1, a2)
        assert one.log == two.log

    def test_seeds_change_trajectory(self, separable):
        corpus, _, matrix, graph = separable
        one = train(GnnConfig(hidden_dim=8, max_epochs=3, seed=1), graph, matrix, corpus)
        two = train(GnnConfig(hidden_dim=8, max_epochs=3, seed=2), graph, matrix, corpus)
        assert any(
            not np.array_equal(a1, a2)
            for (_, a1), (_, a2) in zip(one.model.param_items(), two.model.param_items())
        )

    def test_no_labeled_train_ideas_rejected(self):
        ls = TWO
        ideas = [Idea(id="a", title="", text="x.", label=0, timestamp=0, split="test")]
        corpus = Corpus(label_set=ls, ideas=ideas)
        graph = toy_graph(["a"], [])
        matrix = EmbeddingMatrix(np.ones((1, 4)))
        with pytest.raises(ValueError, match="train"):
            train(GnnConfig(hidden_dim=4, max_epochs=1), graph, matrix, corpus)

    def test_log_has_loss_and_validation(self, separable):
        corpus, _, matrix, graph = separable
        result = train(GnnConfig(hidden_dim=8, max_epochs=3, seed=0), graph, matrix, corpus)
        assert len(result.log) == 3
        for entry in result.log:
            assert {"epoch", "loss", "lr", "train_accuracy", "val_macro_f1"} <= set(entry)
        assert result.best_epoch is not None


class TestPredict:
    def test_argmax_and_tie_rule(self):
        # craft logits by zeroing the head: uniform probabilities tie -> label 0
        model = init_model(GnnConfig(hidden_dim=4), 3, 2, np.random.default_rng(0))
        model.head_out_w[:] = 0.0
        model.head_out_b[:] = 0.0
        graph = toy_graph(["a"], [])
        [pred] = predict_subgraphs(model, graph, EmbeddingMatrix(np.ones((1, 2))), ["a"])
        assert pred.label_index == 0

    def test_unknown_idea_rejected(self, separable):
        corpus, _, matrix, graph = separable
        model = init_model(GnnConfig(hidden_dim=8), matrix.dimension + 1, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no nodes"):
            predict_subgraphs(model, graph, matrix, ["not-an-idea"])

    def test_relabeling_nodes_within_ideas_is_invariant(self):
        rng = np.random.default_rng(21)
        node_ideas = [f"i{k}" for k in range(5) for _ in range(3)]
        n = len(node_ideas)
        pairs = [
            (u, v, float(rng.random()))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        graph = toy_graph(node_ideas, pairs)
        rows = rng.normal(size=(n, 6))
        matrix = EmbeddingMatrix(rows)
        model = init_model(GnnConfig(hidden_dim=8), 7, 2, np.random.default_rng(2))

        # permute node ids within each idea (reverse block order)
        perm = []
        for k in range(5):
            block = [i for i in range(n) if node_ideas[i] == f"i{k}"]
            perm.extend(reversed(block))
        inv = {old: new for new, old in enumerate(perm)}
        relabeled = toy_graph(
            [node_ideas[i] for i in perm],
            [(inv[u], inv[v], w) for u, v, w in pairs],
        )
        rematrix = EmbeddingMatrix(rows[perm])
        ids = [f"i{k}" for k in range(5)]
        base = predict_subgraphs(model, graph, matrix, ids)
        moved = predict_subgraphs(model, relabeled, rematrix, ids)
        for a, b in zip(base, moved):
            assert a.label_index == b.label_index
            assert a.probabilities == pytest.approx(b.probabilities, abs=1e-9)


class TestCheckpoint:
    def test_round_trip_predictions(self, tmp_path, separable):
        corpus, _, matrix, graph = separable
        config = GnnConfig(hidden_dim=8, max_epochs=3, seed=4)
        result = train(config, graph, matrix, corpus)
        path = tmp_path / "model.ckpt"
        save_model(result.model, path, config, corpus.label_set.labels, epoch=2, validation_score=0.5)
        loaded, header = load_model(path)
        assert header["labels"] == list(corpus.label_set.labels)
        assert header["epoch"] == 2
        assert [name for name, _ in loaded.param_items()] == [
            name for name, _ in result.model.param_items()
        ]
        base = predict(result.model, graph, matrix, corpus, "test")
        back = predict(loaded, graph, matrix, corpus, "test")
        for a, b in zip(base, back):
            assert a.label_index == b.label_index
            # parameters are stored as float32
            assert a.probabilities == pytest.approx(b.probabilities, abs=1e-3)

    def test_block_order_documented(self, tmp_path):
        model = init_model(GnnConfig(hidden_dim=4), 3, 2, np.random.default_rng(0))
        path = tmp_path / "m.ckpt"
        save_model(model, path, GnnConfig(hidden_dim=4), ("a", "b"))
        import json

        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert [b[0] for b in header["blocks"]] == [
            "message_weight_1",
            "combine_weight_1",
            "message_weight_2",
            "combine_weight_2",
            "head_hidden_w",
            "head_hidden_b",
            "head_out_w",
            "head_out_b",
        ]

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from graphs import toy_graph
from oracles import finite_difference_grads, max_relative_error
from viewgraph.dataset import Corpus, Idea, IdeaViewpoints, LabelSet
from viewgraph.embedding import EmbeddingMatrix
from viewgraph.graph import GraphConfig, build_graph
from viewgraph.gnn import (
    AdamState,
    GnnConfig,
    GnnModel,
    adam_step,
    batch_loss_and_grads,
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

TWO = LabelSet(("Reject", "Accept"))


def make_edges(pairs, n):
    """Directed view of ``(u, v, weight)`` pairs over n nodes of distinct ideas."""
    return toy_graph([f"i{i}" for i in range(n)], pairs).arcs


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


def reference_forward(model, X, arcs):
    """The edge-tensor layer: one pre-activation row per arc, scattered
    with ``np.add.at`` in arc order. Returns states, pre-activations and
    the combined inputs per layer."""
    states, pres, combined = [np.asarray(X, dtype=np.float64)], [], []
    for mw, cw in zip(model.message_weights, model.combine_weights):
        messages = states[-1] @ mw.T
        pre = arcs.weight[:, None] * messages[arcs.src]
        agg = np.zeros(messages.shape)
        np.add.at(agg, arcs.dst, np.maximum(pre, 0.0))
        agg /= np.maximum(np.diff(arcs.indptr), 1)[:, None]
        combined.append(np.hstack([agg, states[-1]]))
        states.append(combined[-1] @ cw.T)
        pres.append(pre)
    return states, pres, combined


def reference_loss_and_grads(model, X, arcs, items, class_weights=None):
    """Loss and gradients through ``reference_forward``, with the per-arc
    backward pass and an ``np.add.at`` max-pool backward."""
    states, pres, combined = reference_forward(model, X, arcs)
    final = states[-1]
    heads = [pool_and_head(model, final, ids) for ids, _ in items]
    labels = [y for _, y in items]
    weights = np.array([1.0 if class_weights is None else float(class_weights[y]) for y in labels])
    total_w = weights.sum()
    loss_val = loss([h.probs for h in heads], labels, class_weights)
    grads = {name: np.zeros_like(arr) for name, arr in model.param_items()}
    n, h_dim = final.shape[0], model.hidden_dim
    d_final = np.zeros_like(final)
    if total_w > 0:
        for head, y, w in zip(heads, labels, weights):
            dlogits = (head.probs - np.eye(model.n_labels)[y]) * (w / total_w)
            grads["head_out_w"] += np.outer(dlogits, head.a1)
            grads["head_out_b"] += dlogits
            dz1 = (model.head_out_w.T @ dlogits) * (head.z1 > 0)
            grads["head_hidden_w"] += np.outer(dz1, head.pooled)
            grads["head_hidden_b"] += dz1
            dpooled = model.head_hidden_w.T @ dz1
            d_final[head.node_ids] += dpooled[:h_dim] / len(head.node_ids)
            np.add.at(d_final, (head.arg_rows, np.arange(h_dim)), dpooled[h_dim:])
    d_state = d_final
    for l in range(len(model.message_weights) - 1, -1, -1):
        grads[f"combine_weight_{l + 1}"] += d_state.T @ combined[l]
        d_combined = d_state @ model.combine_weights[l]
        d_prev = d_combined[:, h_dim:].copy()
        d_sum = d_combined[:, :h_dim] / np.maximum(np.diff(arcs.indptr), 1)[:, None]
        d_pre = d_sum[arcs.dst] * (pres[l] > 0)
        d_messages = np.zeros((n, h_dim))
        np.add.at(d_messages, arcs.src, arcs.weight[:, None] * d_pre)
        grads[f"message_weight_{l + 1}"] += d_messages.T @ states[l]
        d_prev += d_messages @ model.message_weights[l]
        d_state = d_prev
    return loss_val, grads


def tied_random_instance(seed):
    """A seeded graph with isolated nodes and zero- and unit-weight edges,
    and node features repeating a few rows (exact ties in messages and in
    max pooling)."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, size=int(rng.integers(4, 9)))
    node_ideas = [f"i{k}" for k, size in enumerate(sizes) for _ in range(size)]
    n = len(node_ideas)
    isolated = set(rng.choice(n, size=2, replace=False).tolist())
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if u not in isolated and v not in isolated and rng.random() < 0.5:
                pairs.append((u, v, float(rng.choice([0.0, 1.0, rng.random(), rng.random()]))))
    return toy_graph(node_ideas, pairs), rng.normal(size=(3, 5))[rng.integers(0, 3, size=n)]


def tied_built_instance(seed):
    """A graph built by ``build_graph`` from embedding rows repeating a few
    vectors (exact similarity ties), and its node features."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, size=6)
    records = [
        IdeaViewpoints(f"i{k}", tuple(f"i{k} v{j}" for j in range(size)), timestamp=k)
        for k, size in enumerate(sizes)
    ]
    matrix = EmbeddingMatrix(rng.normal(size=(3, 5))[rng.integers(0, 3, size=sum(sizes))])
    graph = build_graph(records, matrix, GraphConfig(intra_k=2, inter_m=seed % 3))
    return graph, node_features(graph, matrix)


class TestAgainstEdgeTensorReference:
    """The neighbour-slot aggregation is exact: forward states and
    gradients equal the edge-tensor layer's bit for bit."""

    def test_random_instances_have_isolated_nodes_and_zero_weights(self):
        for seed in range(6):
            graph, _ = tied_random_instance(seed)
            assert np.diff(graph.arcs.indptr).min() == 0 and (graph.arcs.weight == 0.0).any()

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [tied_random_instance, tied_built_instance], ids=["random", "built"])
    def test_forward_and_gradients_bit_identical(self, make, seed, layers):
        graph, X = make(seed)
        rng = np.random.default_rng(seed)
        model = init_model(GnnConfig(layers=layers, hidden_dim=6), X.shape[1], 3, rng)
        model.message_weights[0][0] = 0.0  # one message channel at the ReLU's kink
        items = [(ids, int(rng.integers(3))) for ids in graph.idea_nodes.values()]
        states, _, _ = reference_forward(model, X, graph.arcs)
        cache = full_forward(model, X, graph.arcs)
        assert len(cache.states) == len(states)
        assert all(np.array_equal(a, b) for a, b in zip(cache.states, states))
        assert (cache.messages[0] < 0).any() and (cache.messages[0] == 0).any()
        for class_weights in (None, np.array([0.5, 1.0, 2.0])):
            ref_loss, ref_grads = reference_loss_and_grads(model, X, graph.arcs, items, class_weights)
            new_loss, new_grads = batch_loss_and_grads(model, X, graph.arcs, items, class_weights)
            assert new_loss == ref_loss
            assert new_grads.keys() == ref_grads.keys()
            assert all(np.array_equal(new_grads[k], ref_grads[k]) for k in ref_grads)

    def test_forward_cache_holds_no_per_arc_array(self):
        graph, X = tied_random_instance(0)
        model = init_model(GnnConfig(hidden_dim=6), X.shape[1], 3, np.random.default_rng(0))
        n_arcs = len(graph.arcs.src)
        assert n_arcs > max(len(graph), X.shape[1] + model.hidden_dim)  # no other dimension is n_arcs
        cache = full_forward(model, X, graph.arcs)
        arrays = [a for f in dataclasses.fields(cache) for a in getattr(cache, f.name)]
        assert arrays and all(n_arcs not in a.shape for a in arrays)


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
        edges = graph.arcs
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
        edges = graph.arcs
        model = init_model(GnnConfig(hidden_dim=8), X.shape[1], n_labels, np.random.default_rng(0))
        loss_val, grads = batch_loss_and_grads(model, X, edges, items, class_weights=np.zeros(n_labels))
        assert loss_val == 0.0
        assert all(not g.any() for g in grads.values())

    def test_batch_gradient_is_mean_of_item_gradients(self):
        graph, X, items, n_labels = random_labeled_graph(4)
        edges = graph.arcs
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

from __future__ import annotations

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from graphs import toy_graph
from oracles import finite_difference_grads, max_relative_error
from viewgraph.dataset import Corpus, FileFormatError, Idea, IdeaViewpoints, LabelSet
from viewgraph.embedding import EmbeddingMatrix
from viewgraph.graph import GraphConfig, build_graph
from viewgraph import gnn
from viewgraph.gnn import (
    AdamState,
    GnnConfig,
    GnnModel,
    adam_step,
    batch_loss_and_grads,
    full_forward,
    init_model,
    inverse_frequency_weights,
    load_model,
    loss,
    lr_schedule,
    node_features,
    pool_and_head,
    predict,
    save_model,
    train,
    weighted_slots,
)
from viewgraph.metrics import macro_metrics
from viewgraph.novelty import NegativeSample

TWO = LabelSet(("Reject", "Accept"))


def make_edges(pairs, n):
    """Directed view of ``(u, v, weight)`` pairs over n nodes of distinct ideas."""
    return toy_graph([f"i{i}" for i in range(n)], pairs).arcs


def one_layer(states, edges, message_w, combine_w):
    """One message-passing layer, run by full_forward on a one-layer model."""
    h = message_w.shape[0]
    model = GnnModel(
        message_weight_1=message_w,
        combine_weight_1=combine_w,
        head_hidden_w=np.zeros((h, 2 * h)),
        head_hidden_b=np.zeros(h),
        head_out_w=np.zeros((2, h)),
        head_out_b=np.zeros(2),
    )
    return full_forward(model, states, edges).states[-1]


def idea_probs(model, X, edges, node_ids):
    """Full-graph message passing, then the pooled head for one idea."""
    return pool_and_head(model, full_forward(model, X, edges).states[-1], [node_ids]).probs[0]


def cast(model, dtype):
    """The model with every block cast to ``dtype``."""
    return GnnModel({name: arr.astype(dtype) for name, arr in model.items()})


def loss_and_grads(model, X, arcs, items, class_weights=None):
    """``batch_loss_and_grads`` at the node features ``X``."""
    slots = weighted_slots(arcs, np.result_type(X, model.dtype))
    return batch_loss_and_grads(model, full_forward(model, X, arcs, slots), slots, items, class_weights)


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
        model = init_model(GnnConfig(layers=2, hidden_dim=4), 3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="state dimension 5 does not match layer input 3"):
            full_forward(model, np.zeros((2, 5)), make_edges([(0, 1, 1.0)], 2))


def reference_forward(model, X, arcs):
    """The edge-tensor layer: one pre-activation row per arc, scattered
    with ``np.add.at`` in arc order, in the dtype of ``X`` and the model
    (the arc weights and degrees cast to it). Returns states,
    pre-activations and the combined inputs per layer."""
    dtype = np.result_type(X, *model.values())
    weight, degree = arcs.weight.astype(dtype), np.maximum(np.diff(arcs.indptr), 1).astype(dtype)
    states, pres, combined = [np.asarray(X, dtype=dtype)], [], []
    for l in range(1, model.layers + 1):
        mw, cw = model[f"message_weight_{l}"], model[f"combine_weight_{l}"]
        messages = states[-1] @ mw.T
        pre = weight[:, None] * messages[arcs.src]
        agg = np.zeros(messages.shape, dtype)
        np.add.at(agg, arcs.dst, np.maximum(pre, 0.0))
        agg /= degree[:, None]
        combined.append(np.hstack([agg, states[-1]]))
        states.append(combined[-1] @ cw.T)
        pres.append(pre)
    return states, pres, combined


def reference_pool_and_head(model, final_states, node_ids):
    """The per-idea pooled head: mean+max pooling over one idea's nodes
    (the mean adds the rows in order to zeros), MLP head and softmax, with
    1-d matrix-vector products in the states' dtype; the softmax runs in
    float64."""
    ids = list(node_ids)
    if not ids:
        raise ValueError("idea has no nodes")
    sub = final_states[ids]
    arg_local = np.argmax(sub, axis=0)  # first max wins
    mean = sum(sub, np.zeros(sub.shape[1], sub.dtype)) / len(ids)
    pooled = np.concatenate([mean, sub[arg_local, np.arange(sub.shape[1])]])
    z1 = model["head_hidden_w"] @ pooled + model["head_hidden_b"]
    a1 = np.maximum(z1, 0.0)
    logits = (model["head_out_w"] @ a1 + model["head_out_b"]).astype(np.float64)
    exp = np.exp(logits - logits.max())
    return SimpleNamespace(
        node_ids=ids,
        arg_rows=np.array([ids[j] for j in arg_local]),
        pooled=pooled,
        z1=z1,
        a1=a1,
        probs=exp / exp.sum(),
    )


def reference_loss_and_grads(model, X, arcs, items, class_weights=None):
    """Loss and gradients through ``reference_forward`` and the per-idea
    ``reference_pool_and_head``, with the per-arc backward pass and an
    ``np.add.at`` max-pool backward, in the states' dtype; the logits'
    gradient is taken in float64 and rounded to it."""
    states, pres, combined = reference_forward(model, X, arcs)
    final = states[-1]
    dtype = final.dtype
    heads = [reference_pool_and_head(model, final, ids) for ids, _ in items]
    labels = [y for _, y in items]
    weights = np.array([1.0 if class_weights is None else float(class_weights[y]) for y in labels])
    total_w = weights.sum()
    loss_val = loss([h.probs for h in heads], labels, weights.tolist())
    grads = {name: np.zeros_like(arr) for name, arr in model.items()}
    n, h_dim = final.shape[0], model.hidden_dim
    d_final = np.zeros_like(final)
    if total_w > 0:
        for head, y, w in zip(heads, labels, weights):
            dlogits = ((head.probs - np.eye(model.n_labels)[y]) * (w / total_w)).astype(dtype)
            grads["head_out_w"] += np.outer(dlogits, head.a1)
            grads["head_out_b"] += dlogits
            dz1 = (model["head_out_w"].T @ dlogits) * (head.z1 > 0)
            grads["head_hidden_w"] += np.outer(dz1, head.pooled)
            grads["head_hidden_b"] += dz1
            dpooled = model["head_hidden_w"].T @ dz1
            d_final[head.node_ids] += dpooled[:h_dim] / len(head.node_ids)
            np.add.at(d_final, (head.arg_rows, np.arange(h_dim)), dpooled[h_dim:])
    d_state = d_final
    for l in range(model.layers - 1, -1, -1):
        grads[f"combine_weight_{l + 1}"] += d_state.T @ combined[l]
        d_combined = d_state @ model[f"combine_weight_{l + 1}"]
        d_prev = d_combined[:, h_dim:].copy()
        d_sum = d_combined[:, :h_dim] / np.maximum(np.diff(arcs.indptr), 1).astype(dtype)[:, None]
        d_pre = d_sum[arcs.dst] * (pres[l] > 0)
        d_messages = np.zeros((n, h_dim), dtype)
        np.add.at(d_messages, arcs.src, arcs.weight.astype(dtype)[:, None] * d_pre)
        grads[f"message_weight_{l + 1}"] += d_messages.T @ states[l]
        d_prev += d_messages @ model[f"message_weight_{l + 1}"]
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
    graph = build_graph(records, matrix, GraphConfig(k=2, m=seed % 3))
    return graph, node_features(graph, matrix)


class TestAgainstEdgeTensorReference:
    """The neighbour-slot aggregation is exact: forward states and
    gradients equal the edge-tensor layer's bit for bit, in float64 and
    in float32."""

    def test_random_instances_have_isolated_nodes_and_zero_weights(self):
        for seed in range(6):
            graph, _ = tied_random_instance(seed)
            assert np.diff(graph.arcs.indptr).min() == 0 and (graph.arcs.weight == 0.0).any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [tied_random_instance, tied_built_instance], ids=["random", "built"])
    def test_forward_and_gradients_bit_identical(self, monkeypatch, make, seed, layers, dtype):
        """At hidden width 6 with 3 labels and at 64 with 9, also on a
        batch whose items share nodes (and so pool maxima from the same
        rows) and that holds one item twice, and on a one-item batch: each
        gradient block adds its items in batch order. Each batch also runs
        with budgets of three items' rows of either head block, so that
        batches span several chunks of ``_outer_sums``."""
        graph, X = make(seed)
        X, size = X.astype(dtype), np.dtype(dtype).itemsize
        default_budget = gnn.HEAD_BYTES
        for hidden, n_labels in ((6, 3), (64, 9)):
            rng = np.random.default_rng(seed)
            model = init_model(GnnConfig(layers=layers, hidden_dim=hidden), X.shape[1], n_labels, rng)
            model = cast(model, dtype)
            model["message_weight_1"][0] = 0.0  # one message channel at the ReLU's kink
            ideas = list(graph.idea_nodes.values())
            items = [(ids, int(rng.integers(n_labels))) for ids in ideas]
            shared = [(sorted(set(a) | set(b)), int(rng.integers(n_labels))) for a, b in zip(ideas, ideas[1:])]
            overlapping = [(items + shared)[i] for i in rng.permutation(len(items) + len(shared))] + [items[0]]
            assert len({node for ids, _ in overlapping for node in ids}) < sum(len(ids) for ids, _ in overlapping[:-1])
            states, _, _ = reference_forward(model, X, graph.arcs)
            cache = full_forward(model, X, graph.arcs)
            assert len(cache.states) == len(states)
            assert all(np.array_equal(a, b) and a.dtype == dtype for a, b in zip(cache.states, states))
            assert (cache.messages[0] < 0).any() and (cache.messages[0] == 0).any()
            assert len(overlapping) > 3
            budgets = (default_budget, 3 * size * n_labels * (hidden + 1), 3 * size * hidden * (2 * hidden + 1))
            for batch in (items, overlapping, overlapping[-1:]):
                for class_weights in (None, np.resize([0.5, 1.0, 2.0], n_labels)):
                    ref_loss, ref_grads = reference_loss_and_grads(model, X, graph.arcs, batch, class_weights)
                    for budget in budgets:
                        monkeypatch.setattr(gnn, "HEAD_BYTES", budget)
                        new_loss, new_grads = loss_and_grads(model, X, graph.arcs, batch, class_weights)
                        assert new_loss == ref_loss
                        assert new_grads.keys() == ref_grads.keys()
                        assert all(np.array_equal(new_grads[k], ref_grads[k]) for k in ref_grads), budget
                        assert all(g.dtype == dtype for g in new_grads.values())

    def test_forward_cache_holds_no_per_arc_array(self):
        graph, X = tied_random_instance(0)
        model = init_model(GnnConfig(hidden_dim=6), X.shape[1], 3, np.random.default_rng(0))
        n_arcs = len(graph.arcs.src)
        assert n_arcs > max(len(graph), X.shape[1] + model.hidden_dim)  # no other dimension is n_arcs
        cache = full_forward(model, X, graph.arcs)
        arrays = [a for f in dataclasses.fields(cache) for a in getattr(cache, f.name)]
        assert arrays and all(n_arcs not in a.shape for a in arrays)


class TestAgainstPerIdeaHead:
    """The batched pooled head equals the per-idea head bit for bit, at
    every width (one-value rows too, whose sums numpy would take pairwise
    along the padded table) and in float64 and float32."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("n_labels", [2, 3, 9])
    @pytest.mark.parametrize("hidden", [1, 2, 6, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_head_bit_identical(self, seed, hidden, n_labels, dtype):
        rng = np.random.default_rng(seed)
        n = 24
        final = rng.normal(size=(n, hidden))
        final[::2, ::2] = rng.integers(-2, 3, size=(n // 2, (hidden + 1) // 2))  # exact ties per column
        final[final == 0] = -0.0
        final[rng.integers(0, n, size=6)] = final[rng.integers(0, n, size=6)]  # repeated rows
        final[[3, 4, 5]] = final[2]  # the group [2, 3, 4, 5] ties in every column
        model = init_model(GnnConfig(hidden_dim=hidden), 4, n_labels, rng)
        model, final = cast(model, dtype), final.astype(dtype)
        groups = [[2, 3, 4, 5]] + [
            rng.choice(n, size=int(size), replace=False).tolist() for size in rng.permutation(np.r_[1:8, 1:8, 8:13])
        ]
        head = pool_and_head(model, final, groups)
        assert head.pooled.dtype == head.z1.dtype == dtype and head.probs.dtype == np.float64
        for b, ids in enumerate(groups):
            ref = reference_pool_and_head(model, final, ids)
            for name in ("arg_rows", "pooled", "z1", "a1", "probs"):
                assert np.array_equal(getattr(head, name)[b], getattr(ref, name)), name
            assert np.array_equal(np.signbit(head.pooled[b]), np.signbit(ref.pooled))


class TestPrecision:
    """The arithmetic keeps its inputs' dtype: float32 inputs give float32
    states, pooled rows and gradients, float64 ones stay float64, and the
    probabilities are float64 either way. Every aggregation, forward and
    backward, adds rows of that dtype."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_states_and_gradients_keep_the_inputs_dtype(self, monkeypatch, dtype):
        graph, X, items, n_labels = random_labeled_graph(5, n_ideas=3, nodes_per_idea=4)
        assert np.diff(graph.arcs.indptr).max() > 1  # the degree divides
        model = init_model(GnnConfig(hidden_dim=8), X.shape[1], n_labels, np.random.default_rng(0))
        model, X = cast(model, dtype), X.astype(dtype)
        added = []
        real = gnn.add_neighbours
        monkeypatch.setattr(gnn, "add_neighbours", lambda *args: added.append(real(*args)) or added[-1])
        cache = full_forward(model, X, graph.arcs)
        assert [a.dtype for a in cache.states + cache.messages + cache.combined] == [dtype] * 7
        assert cache.degree.dtype == dtype and cache.degree.shape == (len(graph), 1)
        head = pool_and_head(model, cache.states[-1], [ids for ids, _ in items])
        assert [head.sizes.dtype, head.pooled.dtype, head.z1.dtype, head.a1.dtype] == [dtype] * 4
        assert head.probs.dtype == np.float64
        _, grads = loss_and_grads(model, X, graph.arcs, items, np.array([0.5, 1.0, 2.0]))
        assert {name: g.dtype for name, g in grads.items()} == {name: dtype for name in model}
        assert len(added) == 6 and all(a.dtype == dtype for a in added)  # two forward passes, one backward, 2 layers


def reference_train(config, graph, matrix, corpus, negatives=(), seed=0):
    """The training loop with two prediction passes per epoch: after the
    epoch's steps, one full forward pass for the train predictions and one
    for the validation predictions, all through the per-arc forward pass,
    ``reference_loss_and_grads`` and the per-idea head. The node features
    and the initial parameters are cast to float32 once, as ``train``
    casts them."""
    X = node_features(graph, matrix).astype(np.float32)
    arcs = graph.arcs
    n_labels = len(corpus.label_set)
    items = [(graph.idea_nodes[i.id], i.label) for i in corpus.split_ideas("train")]
    items += [(graph.idea_nodes[neg.id], neg.label) for neg in negatives]
    val_items = [
        (graph.idea_nodes[i.id], i.label) for i in corpus.split_ideas("validation") if i.label is not None
    ]
    class_weights = None
    if config.class_weighting:
        class_weights = inverse_frequency_weights([y for _, y in items], n_labels)
    rng = np.random.default_rng(seed)
    model = cast(init_model(config, X.shape[1], n_labels, rng), np.float32)
    state = AdamState(model)
    log, best_f1, best_model, best_epoch = [], -1.0, None, None

    def predicted(some_items):
        final = reference_forward(model, X, arcs)[0][-1]
        return [int(np.argmax(reference_pool_and_head(model, final, ids).probs)) for ids, _ in some_items]

    for epoch in range(config.max_epochs):
        lr = lr_schedule(config.learning_rate, epoch, config.max_epochs)
        order = rng.permutation(len(items))
        epoch_loss, steps = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = [items[i] for i in order[start : start + config.batch_size]]
            loss_val, grads = reference_loss_and_grads(model, X, arcs, batch, class_weights)
            adam_step(model, grads, state, lr)
            epoch_loss += loss_val
            steps += 1
        entry = {"epoch": epoch, "loss": epoch_loss / steps, "lr": lr}
        preds = predicted(items)
        entry["train_accuracy"] = sum(p == y for p, (_, y) in zip(preds, items)) / len(items)
        if val_items:
            preds = predicted(val_items)
            truths = [y for _, y in val_items]
            entry["val_macro_f1"] = macro_metrics(truths, preds, corpus.label_set.labels).macro_f1
            if entry["val_macro_f1"] > best_f1:
                best_model = GnnModel({name: arr.copy() for name, arr in model.items()})
                best_f1, best_epoch = entry["val_macro_f1"], epoch
        log.append(entry)
    if best_model is not None:
        return best_model, log, best_epoch, best_f1
    return model, log, None, None


def training_instance(seed, validation, negatives):
    """A seeded three-label corpus of 1-4 node ideas on a random graph with
    zero- and unit-weight edges and repeated feature rows, and optionally
    validation ideas and negatives with their own nodes."""
    rng = np.random.default_rng(seed)
    splits = ["train"] * 7 + ["validation"] * (3 if validation else 0) + ["test"] * 2
    ideas = [
        Idea(id=f"i{k}", title="", text="x.", label=int(rng.integers(3)), timestamp=k, split=split)
        for k, split in enumerate(splits)
    ]
    negs = [
        NegativeSample(id=f"neg{k}", source_id="i0", strategy="copy", viewpoints=("x.",), timestamp=20 + k)
        for k in range(3 if negatives else 0)
    ]
    sizes = rng.integers(1, 5, size=len(ideas) + len(negs))
    node_ideas = [idea_id for idea_id, size in zip([i.id for i in ideas] + [n.id for n in negs], sizes)
                  for _ in range(size)]
    n = len(node_ideas)
    pairs = [
        (u, v, float(rng.choice([0.0, 1.0, rng.random()])))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.3
    ]
    matrix = EmbeddingMatrix(rng.normal(size=(3, 5))[rng.integers(0, 3, size=n)])
    corpus = Corpus(label_set=LabelSet(("a", "b", "c")), ideas=ideas)
    return corpus, toy_graph(node_ideas, pairs), matrix, negs


class TestAgainstTwoPassTraining:
    """Training with one forward pass per step equals the loop that runs
    two more per epoch for its predictions, bit for bit."""

    @pytest.mark.parametrize("negatives", [False, True], ids=["no-neg", "neg"])
    @pytest.mark.parametrize("class_weighting", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("validation", [False, True], ids=["no-val", "val"])
    @pytest.mark.parametrize("batch_size", [3, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_trained_model_and_log_bit_identical(self, seed, batch_size, validation, class_weighting, negatives):
        corpus, graph, matrix, negs = training_instance(seed, validation, negatives)
        config = GnnConfig(hidden_dim=6, batch_size=batch_size, max_epochs=4, learning_rate=0.05,
                           class_weighting=class_weighting)
        ref_model, ref_log, ref_epoch, ref_f1 = reference_train(config, graph, matrix, corpus, negs, seed=seed)
        result = train(config, graph, matrix, corpus, negs or None, seed=seed)
        assert list(result.model) == list(ref_model)
        assert all(np.array_equal(result.model[name], ref_model[name]) for name in ref_model)
        assert result.log == ref_log
        assert (result.best_epoch, result.best_val_f1) == (ref_epoch, ref_f1)
        assert ("val_macro_f1" in ref_log[0]) == validation

    @pytest.mark.parametrize("batch_size, steps_per_epoch", [(3, 4), (64, 1)])
    def test_one_forward_pass_per_step(self, monkeypatch, batch_size, steps_per_epoch):
        """And one pooled head per step, plus one per epoch for the train
        and validation predictions together."""
        corpus, graph, matrix, negs = training_instance(0, validation=True, negatives=True)
        assert len(corpus.split_ideas("train")) + len(negs) == 10
        calls, heads = [], []
        monkeypatch.setattr(gnn, "full_forward", lambda *args: calls.append(args) or full_forward(*args))
        monkeypatch.setattr(gnn, "pool_and_head", lambda *args: heads.append(args) or pool_and_head(*args))
        train(GnnConfig(hidden_dim=6, batch_size=batch_size, max_epochs=5), graph, matrix, corpus, negs)
        assert len(calls) == 1 + 5 * steps_per_epoch
        assert len(heads) == 5 * steps_per_epoch + 5


class TestForwardSubgraph:
    def _model(self, seed=0, input_dim=4, hidden=6, n_labels=3):
        rng = np.random.default_rng(seed)
        return init_model(GnnConfig(hidden_dim=hidden), input_dim, n_labels, rng)

    def test_single_node_idea_pools_to_itself(self):
        model = self._model()
        X = np.random.default_rng(2).normal(size=(1, 4))
        edges = make_edges([], 1)
        cache = full_forward(model, X, edges)
        head = pool_and_head(model, cache.states[-1], [[0]])
        assert head.pooled[0, :6] == pytest.approx(head.pooled[0, 6:], abs=1e-12)

    def test_uniform_logits_uniform_probabilities(self):
        model = self._model(n_labels=4)
        model["head_out_w"][:] = 0.0
        model["head_out_b"][:] = 0.0
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
        with pytest.raises(ValueError, match="idea has no nodes"):
            idea_probs(model, np.ones((1, 4)), make_edges([], 1), [])
        with pytest.raises(ValueError, match="idea has no nodes"):
            pool_and_head(model, np.ones((3, 6)), [[0, 1], [], [2]])

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
        _, analytic = loss_and_grads(model, X, edges, items)

        def loss_fn():
            cache = full_forward(model, X, edges)
            head = pool_and_head(model, cache.states[-1], [ids for ids, _ in items])
            return loss(head.probs, [y for _, y in items])

        numeric = finite_difference_grads(model, loss_fn, epsilon=1e-4)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_zero_class_weights_zero_gradients(self):
        graph, X, items, n_labels = random_labeled_graph(3)
        edges = graph.arcs
        model = init_model(GnnConfig(hidden_dim=8), X.shape[1], n_labels, np.random.default_rng(0))
        loss_val, grads = loss_and_grads(model, X, edges, items, class_weights=np.zeros(n_labels))
        assert loss_val == 0.0
        assert all(not g.any() for g in grads.values())

    def test_batch_gradient_is_mean_of_item_gradients(self):
        graph, X, items, n_labels = random_labeled_graph(4)
        edges = graph.arcs
        model = init_model(GnnConfig(hidden_dim=8), X.shape[1], n_labels, np.random.default_rng(1))
        _, g_both = loss_and_grads(model, X, edges, items)
        _, g_a = loss_and_grads(model, X, edges, [items[0]])
        _, g_b = loss_and_grads(model, X, edges, [items[1]])
        for name in g_both:
            assert np.allclose(g_both[name], (g_a[name] + g_b[name]) / 2, atol=1e-12)


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        model = init_model(GnnConfig(hidden_dim=4), 3, 2, np.random.default_rng(0))
        before = {name: arr.copy() for name, arr in model.items()}
        grads = {name: np.full_like(arr, 0.5) for name, arr in model.items()}
        state = AdamState(model)
        lr = 1e-3
        adam_step(model, grads, state, lr)
        for name, arr in model.items():
            delta = arr - before[name]
            assert np.all(np.abs(delta + lr) <= 0.01 * lr)  # -lr * sign(g), g > 0

    def test_zero_learning_rate_freezes(self):
        model = init_model(GnnConfig(hidden_dim=4), 3, 2, np.random.default_rng(0))
        before = {name: arr.copy() for name, arr in model.items()}
        grads = {name: np.ones_like(arr) for name, arr in model.items()}
        adam_step(model, grads, AdamState(model), lr_schedule(1e-3, 1000, 1000))
        for name, arr in model.items():
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
        config = GnnConfig(hidden_dim=8, max_epochs=5)
        one = train(config, graph, matrix, corpus, seed=3)
        two = train(config, graph, matrix, corpus, seed=3)
        assert list(one.model) == list(two.model)
        assert all(np.array_equal(one.model[name], two.model[name]) for name in one.model)
        assert one.log == two.log

    def test_seeds_change_trajectory(self, separable):
        corpus, _, matrix, graph = separable
        one = train(GnnConfig(hidden_dim=8, max_epochs=3), graph, matrix, corpus, seed=1)
        two = train(GnnConfig(hidden_dim=8, max_epochs=3), graph, matrix, corpus, seed=2)
        assert any(not np.array_equal(one.model[name], two.model[name]) for name in one.model)

    def test_no_labeled_train_ideas_rejected(self):
        ls = TWO
        ideas = [Idea(id="a", title="", text="x.", label=0, timestamp=0, split="test")]
        corpus = Corpus(label_set=ls, ideas=ideas)
        graph = toy_graph(["a"], [])
        matrix = EmbeddingMatrix(np.ones((1, 4)))
        with pytest.raises(ValueError, match="train"):
            train(GnnConfig(hidden_dim=4, max_epochs=1), graph, matrix, corpus)

    def test_validation_idea_without_nodes_rejected(self):
        ideas = [
            Idea(id="a", title="", text="x.", label=0, timestamp=0, split="train"),
            Idea(id="idea-00017", title="", text="x.", label=1, timestamp=0, split="validation"),
        ]
        corpus = Corpus(label_set=TWO, ideas=ideas)
        graph = toy_graph(["a"], [])
        with pytest.raises(ValueError, match="validation idea 'idea-00017' has no nodes in the graph"):
            train(GnnConfig(hidden_dim=4, max_epochs=1), graph, EmbeddingMatrix(np.ones((1, 4))), corpus)

    def test_trains_in_float32(self, separable):
        corpus, _, matrix, graph = separable
        assert matrix.rows.dtype == np.float64
        result = train(GnnConfig(hidden_dim=8, max_epochs=2), graph, matrix, corpus, seed=0)
        assert all(arr.dtype == np.float32 for arr in result.model.values())

    def test_log_has_loss_and_validation(self, separable):
        corpus, _, matrix, graph = separable
        result = train(GnnConfig(hidden_dim=8, max_epochs=3), graph, matrix, corpus, seed=0)
        assert len(result.log) == 3
        for entry in result.log:
            assert {"epoch", "loss", "lr", "train_accuracy", "val_macro_f1"} <= set(entry)
        assert result.best_epoch is not None

    @pytest.mark.parametrize("scores, best_epoch", [([0.0, 0.0, 0.0], 0), ([0.0, 0.5, 0.5], 1), ([0.3, 0.2, 0.4], 2)])
    def test_best_epoch_needs_a_strictly_higher_score(self, monkeypatch, separable, scores, best_epoch):
        corpus, _, matrix, graph = separable
        config = GnnConfig(hidden_dim=8, max_epochs=3)
        scripted = iter(scores)
        monkeypatch.setattr(gnn, "macro_metrics", lambda *args: SimpleNamespace(macro_f1=next(scripted)))
        result = train(config, graph, matrix, corpus, seed=0)
        assert [entry["val_macro_f1"] for entry in result.log] == scores
        assert (result.best_epoch, result.best_val_f1) == (best_epoch, scores[best_epoch])
        if best_epoch == 0:  # epoch 0 runs at the full learning rate whatever max_epochs is
            monkeypatch.undo()
            first = train(dataclasses.replace(config, max_epochs=1), graph, matrix, corpus, seed=0)
            assert all(np.array_equal(result.model[name], first.model[name]) for name in first.model)

    @pytest.mark.parametrize("validation", [False, True], ids=["no-val", "val"])
    def test_final_parameters_without_validation_ideas(self, monkeypatch, validation):
        corpus, graph, matrix, _ = training_instance(0, validation, negatives=False)
        stepped = []
        real = gnn.adam_step
        monkeypatch.setattr(gnn, "adam_step", lambda model, *args: stepped.append(model) or real(model, *args))
        result = train(GnnConfig(hidden_dim=6, max_epochs=3), graph, matrix, corpus, seed=0)
        assert (result.model is stepped[-1]) != validation  # the live model, or a copy of the best
        assert (result.best_epoch is None, result.best_val_f1 is None) == (not validation,) * 2


class TestPredict:
    def test_argmax_and_tie_rule(self):
        # craft logits by zeroing the head: uniform probabilities tie -> label 0
        model = init_model(GnnConfig(hidden_dim=4), 3, 2, np.random.default_rng(0))
        model["head_out_w"][:] = 0.0
        model["head_out_b"][:] = 0.0
        graph = toy_graph(["a"], [])
        [pred] = predict(model, graph, EmbeddingMatrix(np.ones((1, 2))), ["a"])
        assert pred.label_index == 0

    def test_unknown_idea_rejected(self, separable):
        corpus, _, matrix, graph = separable
        model = init_model(GnnConfig(hidden_dim=8), matrix.dimension + 1, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no nodes"):
            predict(model, graph, matrix, ["not-an-idea"])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_runs_in_the_models_dtype_with_float64_probabilities(self, monkeypatch, separable, dtype):
        """Probabilities sum to 1 within 1e-9, as perfbench's output check
        asks, also from a float32 model: a float32 softmax would miss that."""
        corpus, _, matrix, graph = separable
        model = cast(init_model(GnnConfig(hidden_dim=8), matrix.dimension + 1, 4, np.random.default_rng(3)), dtype)
        for arr in model.values():
            arr *= 3  # logits a few units apart
        features = []
        monkeypatch.setattr(gnn, "full_forward", lambda *args: features.append(args[1]) or full_forward(*args))
        preds = predict(model, graph, matrix, [idea.id for idea in corpus.ideas])
        assert [X.dtype for X in features] == [dtype]
        assert len(preds) == 40 and all(abs(sum(p.probabilities) - 1.0) <= 1e-9 for p in preds)

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
        base = predict(model, graph, matrix, ids)
        moved = predict(model, relabeled, rematrix, ids)
        for a, b in zip(base, moved):
            assert a.label_index == b.label_index
            assert a.probabilities == pytest.approx(b.probabilities, abs=1e-9)


def edit_header(data: bytes, edit) -> bytes:
    """A checkpoint's bytes with ``edit`` applied to its header."""
    line, _, blob = data.partition(b"\n")
    header = json.loads(line)
    edit(header)
    return json.dumps(header).encode() + b"\n" + blob


def drop_blocks(data: bytes) -> bytes:
    """A checkpoint's bytes with the ``blocks`` key taken out of its header."""
    return edit_header(data, lambda header: header.pop("blocks"))


def drop_last_block(data: bytes) -> bytes:
    """A checkpoint's bytes without its last block, in header and blob."""
    shape = json.loads(data.partition(b"\n")[0])["blocks"][-1][1]
    return edit_header(data, lambda header: header["blocks"].pop())[:-4 * int(np.prod(shape))]


class TestCheckpoint:
    def test_round_trip_predictions(self, tmp_path, separable):
        corpus, _, matrix, graph = separable
        config = GnnConfig(hidden_dim=8, max_epochs=3)
        result = train(config, graph, matrix, corpus, seed=4)
        path = tmp_path / "model.ckpt"
        save_model(result.model, path, config, corpus.label_set.labels, epoch=2, validation_score=0.5)
        loaded, header = load_model(path)
        assert header["labels"] == list(corpus.label_set.labels)
        assert header["epoch"] == 2
        assert list(loaded) == list(result.model)
        # trained and stored in float32: the blocks come back as they were
        assert all(loaded[name].dtype == np.float32 and np.array_equal(loaded[name], arr)
                   for name, arr in result.model.items())
        ids = [i.id for i in corpus.split_ideas("test")]
        assert predict(loaded, graph, matrix, ids) == predict(result.model, graph, matrix, ids)

    def test_block_order_documented(self, tmp_path):
        model = init_model(GnnConfig(hidden_dim=4), 3, 2, np.random.default_rng(0))
        path = tmp_path / "m.ckpt"
        save_model(model, path, GnnConfig(hidden_dim=4), ("a", "b"))
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

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data: data[:-1], "blob is"),
            (lambda data: data + b"\0\0\0\0", "blob is"),
            (drop_blocks, "header 'blocks' must be a list, got NoneType"),
            (lambda data: b"[]\n" + data.partition(b"\n")[2], "header must be an object, got list"),
            (lambda data: data.replace(b'["message_weight_1", [4, 3]]', b'["message_weight_1", [-4, 3]]'),
             "header 'blocks' must be a list of [name, shape] lists, each shape a list of ints >= 0, got item"),
            (drop_last_block, "header 'blocks' are named ['message_weight_1', "),
            (lambda data: edit_header(data, lambda header: header.pop("config")), "header 'config' must be a dict, got NoneType"),
            (lambda data: edit_header(data, lambda header: header["config"].update(layers=3)),
             "header 'blocks' are named ['message_weight_1', 'combine_weight_1', 'message_weight_2', 'combine_weight_2', "
             "'head_hidden_w', 'head_hidden_b', 'head_out_w', 'head_out_b'], not as the 10 blocks of config.layers 3"),
            # the block count is checked before any block is laid out for the layers
            (lambda data: edit_header(data, lambda header: header["config"].update(layers=10**9)),
             "header 'blocks' are named ['message_weight_1', 'combine_weight_1', 'message_weight_2', 'combine_weight_2', "
             "'head_hidden_w', 'head_hidden_b', 'head_out_w', 'head_out_b'], not as the 2000000004 blocks of "
             "config.layers 1000000000"),
            (lambda data: edit_header(data, lambda header: header["config"].update(layers=0)),
             "header 'config' must be an object whose 'layers' is an int >= 1, got"),
            # same byte count: only the shapes' fit to the header catches these
            (lambda data: data.replace(b'["head_out_w", [2, 4]]', b'["head_out_w", [4, 2]]'),
             "block 'head_out_w' has shape [4, 2], not [2, 4] (input_dim 3, config.hidden_dim 4, 2 labels)"),
            (lambda data: edit_header(data, lambda header: header.update(labels=["a", "b", "c"])),
             "block 'head_out_w' has shape [2, 4], not [3, 4] (input_dim 3, config.hidden_dim 4, 3 labels)"),
            (lambda data: edit_header(data, lambda header: header.update(input_dim=5)),
             "block 'message_weight_1' has shape [4, 3], not [4, 5] (input_dim 5, config.hidden_dim 4, 2 labels)"),
            (lambda data: edit_header(data, lambda header: header["config"].update(hidden_dim=2)),
             "block 'message_weight_1' has shape [4, 3], not [2, 3] (input_dim 3, config.hidden_dim 2, 2 labels)"),
            (lambda data: edit_header(data, lambda header: header["config"].pop("hidden_dim")),
             "header 'config' must be an object whose 'hidden_dim' is an int >= 1, got"),
            (lambda data: edit_header(data, lambda header: header.pop("labels")), "header 'labels' must be a list, got NoneType"),
            (lambda data: edit_header(data, lambda header: header.update(input_dim=0)), "header 'input_dim' must be >= 1, got 0"),
            # the last four bytes are head_out_b's last float32
            (lambda data: data[:-4] + np.array([np.nan], "<f4").tobytes(), "non-finite values in parameter block head_out_b"),
            (lambda data: data[:-4] + np.array([-np.inf], "<f4").tobytes(), "non-finite values in parameter block head_out_b"),
        ],
        ids=["truncated-blob", "one-block-more", "no-blocks", "header-a-list", "negative-shape", "last-block-dropped",
             "no-config", "three-layers-over-two", "huge-layers", "zero-layers", "head-out-transposed", "three-labels-over-two",
             "other-input-dim", "other-hidden-dim", "no-hidden-dim", "no-labels", "zero-input-dim", "nan", "minus-inf"],
    )
    def test_malformed_file_named(self, tmp_path, monkeypatch, damage, message):
        model = init_model(GnnConfig(hidden_dim=4), 3, 2, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_model(model, path, GnnConfig(hidden_dim=4), ("a", "b"))
        path.write_bytes(damage(path.read_bytes()))
        real = gnn.block_shapes  # laying out a billion layers would exhaust memory: fail at once instead
        monkeypatch.setattr(gnn, "block_shapes", lambda layers, *dims: pytest.fail("huge layers laid out")
                            if layers > 1000 else real(layers, *dims))
        with pytest.raises(FileFormatError) as err:
            load_model(path)
        assert str(err.value).startswith(f"model file {path}: {message}")

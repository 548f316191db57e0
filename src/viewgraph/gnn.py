"""Trainable weighted graph network over the viewpoint-graph.

Two message-passing layers: every node averages edge_weight * ReLU(W @
neighbor_state) over its neighbors (D^-1 A_w ReLU(H W^T); edge weights
lie in [0, 1], so this is ReLU(edge_weight * (W @ neighbor_state)) bit
for bit), concatenates the average with its own state, and maps through
a combine matrix. Idea subgraphs are pooled
(elementwise mean + max), pushed through a one-hidden-layer MLP head and
softmax; one head call pools a whole batch of ideas. Training is plain
mini-batch cross-entropy with exact hand-written reverse-mode gradients,
Adam, and a linearly decaying learning rate. Everything is numpy
float64; the seed given to ``train`` (not part of ``GnnConfig``) fixes
the initialization, the batch order, and therefore the whole trajectory.

Message passing always runs over the full graph (test nodes participate;
their labels never enter the loss). Training runs one forward pass per
optimizer step: the pass after each step serves the next step's loss
and the epoch's train and validation predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import (BLOCKS, STRINGS, Checked, Corpus, FileFormatError, at_least, must, problem, read_headed, setting,
                      write_headed, write_jsonl)
from .embedding import EmbeddingMatrix
from .graph import Arcs, ViewpointGraph, add_neighbours, neighbour_slots
from .metrics import confusion, macro_metrics

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class GnnConfig(Checked):
    layers: int = setting(2, at_least(1))
    hidden_dim: int = setting(64, at_least(1))
    batch_size: int = setting(64, at_least(1))
    max_epochs: int = setting(1000, at_least(1))
    learning_rate: float = setting(1e-3, must(lambda v: v > 0, "> 0"))
    class_weighting: bool = False


@dataclass
class SubgraphPrediction:
    idea_id: str
    probabilities: list[float]
    label_index: int


def block_names(layers: int) -> tuple[str, ...]:
    """The parameter block names of a ``layers``-layer model in the fixed
    checkpoint order: message/combine per layer, then the head."""
    per_layer = [f"{kind}_weight_{l}" for l in range(1, layers + 1) for kind in ("message", "combine")]
    return (*per_layer, "head_hidden_w", "head_hidden_b", "head_out_w", "head_out_b")


@dataclass
class GnnModel:
    """Per-layer message/combine matrices plus the pooled MLP head."""

    message_weights: list[np.ndarray]  # layer l: (hidden, d_in)
    combine_weights: list[np.ndarray]  # layer l: (hidden, hidden + d_in)
    head_hidden_w: np.ndarray  # (hidden, 2*hidden)
    head_hidden_b: np.ndarray  # (hidden,)
    head_out_w: np.ndarray  # (n_labels, hidden)
    head_out_b: np.ndarray  # (n_labels,)

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Parameters named and ordered as ``block_names``."""
        arrays = [w for pair in zip(self.message_weights, self.combine_weights) for w in pair]
        arrays += [self.head_hidden_w, self.head_hidden_b, self.head_out_w, self.head_out_b]
        return list(zip(block_names(len(self.message_weights)), arrays))

    @property
    def input_dim(self) -> int:
        return self.message_weights[0].shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.message_weights[0].shape[0]

    @property
    def n_labels(self) -> int:
        return self.head_out_w.shape[0]

    def copy(self) -> "GnnModel":
        return GnnModel(
            message_weights=[w.copy() for w in self.message_weights],
            combine_weights=[w.copy() for w in self.combine_weights],
            head_hidden_w=self.head_hidden_w.copy(),
            head_hidden_b=self.head_hidden_b.copy(),
            head_out_w=self.head_out_w.copy(),
            head_out_b=self.head_out_b.copy(),
        )

    def check_finite(self):
        for name, arr in self.param_items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in parameter block {name}")


def init_model(config: GnnConfig, input_dim: int, n_labels: int, rng: np.random.Generator) -> GnnModel:
    """Glorot-uniform matrices, zero biases, drawn in checkpoint order."""

    def glorot(out_dim: int, in_dim: int) -> np.ndarray:
        bound = math.sqrt(6.0 / (in_dim + out_dim))
        return rng.uniform(-bound, bound, size=(out_dim, in_dim))

    h = config.hidden_dim
    message_weights, combine_weights = [], []
    d = input_dim
    for _ in range(config.layers):
        message_weights.append(glorot(h, d))
        combine_weights.append(glorot(h, h + d))
        d = h
    return GnnModel(
        message_weights=message_weights,
        combine_weights=combine_weights,
        head_hidden_w=glorot(h, 2 * h),
        head_hidden_b=np.zeros(h),
        head_out_w=glorot(n_labels, h),
        head_out_b=np.zeros(n_labels),
    )


def node_features(graph: ViewpointGraph, matrix: EmbeddingMatrix) -> np.ndarray:
    """Embedding row plus the temporal scalar: input dim = embedding dim + 1."""
    if len(matrix) != len(graph):
        raise ValueError(f"matrix has {len(matrix)} rows for {len(graph)} nodes")
    return np.column_stack([matrix.rows, graph.t])


@dataclass
class ForwardCache:
    states: list[np.ndarray]  # H0..HL
    messages: list[np.ndarray]  # H W^T per layer, before the ReLU
    combined: list[np.ndarray]  # concat(aggregate, state) per layer


def full_forward(model: GnnModel, X: np.ndarray, arcs: Arcs, slots=None) -> ForwardCache:
    """Every layer over the whole graph; isolated nodes aggregate the zero
    vector. ``slots`` is ``neighbour_slots(arcs)``, built here when not
    given."""
    slots = neighbour_slots(arcs) if slots is None else slots
    degree = np.maximum(np.diff(arcs.indptr), 1)[:, None]
    states = [np.asarray(X, dtype=np.float64)]
    messages, combined = [], []
    for mw, cw in zip(model.message_weights, model.combine_weights):
        d_in, (h, d_expected) = states[-1].shape[1], mw.shape
        if d_in != d_expected:
            raise ValueError(f"state dimension {d_in} does not match layer input {d_expected}")
        if cw.shape != (h, h + d_in):
            raise ValueError(f"combine weight shape {cw.shape} != {(h, h + d_in)}")
        messages.append(states[-1] @ mw.T)  # (n, h)
        agg = add_neighbours(np.zeros_like(messages[-1]), slots, np.maximum(messages[-1], 0.0)) / degree
        combined.append(np.hstack([agg, states[-1]]))
        states.append(combined[-1] @ cw.T)
    return ForwardCache(states=states, messages=messages, combined=combined)


@dataclass
class HeadCache:
    """One row per pooled group."""

    groups: list[list[int]]
    arg_rows: np.ndarray  # (B, h): node id holding the max, per hidden dim
    pooled: np.ndarray  # (B, 2h)
    z1: np.ndarray  # (B, h)
    a1: np.ndarray  # (B, h)
    probs: np.ndarray  # (B, n_labels)


def _gemv(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``w @ row`` for each row, one matrix-vector product per row (a
    stacked ``matmul`` runs gemv per row; ``rows @ w.T`` runs one gemm,
    whose sums can differ in the last bit)."""
    return np.matmul(w[None], rows[:, :, None])[:, :, 0]


def pool_and_head(model: GnnModel, final_states: np.ndarray, groups: Sequence[Sequence[int]]) -> HeadCache:
    """Mean+max pooling over each group of node ids, MLP head, softmax.

    Groups are padded to one (B, L) gather. The mean sums the group axis
    with zeros as padding (numpy's sum starts from +0.0, so they add
    nothing) and divides by the group size; the max pads with -inf, so the
    first maximum of a group still wins.
    """
    groups = [list(ids) for ids in groups]
    sizes = np.array([len(ids) for ids in groups])
    if not sizes.all():
        raise ValueError("idea has no nodes")
    present = np.arange(sizes.max()) < sizes[:, None]
    index = np.zeros(present.shape, dtype=np.int64)
    index[present] = [i for ids in groups for i in ids]
    sub = final_states[index]  # (B, L, h)
    mean_pool = np.where(present[:, :, None], sub, 0.0).sum(axis=1) / sizes[:, None]
    arg_local = np.where(present[:, :, None], sub, -np.inf).argmax(axis=1)  # first max wins
    max_pool = np.take_along_axis(sub, arg_local[:, None, :], axis=1)[:, 0]
    pooled = np.hstack([mean_pool, max_pool])
    z1 = _gemv(model.head_hidden_w, pooled) + model.head_hidden_b
    a1 = np.maximum(z1, 0.0)
    logits = _gemv(model.head_out_w, a1) + model.head_out_b
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return HeadCache(
        groups=groups,
        arg_rows=np.take_along_axis(index, arg_local, axis=1),
        pooled=pooled,
        z1=z1,
        a1=a1,
        probs=exp / exp.sum(axis=1, keepdims=True),
    )


def loss(
    probabilities: Sequence[Sequence[float]],
    labels: Sequence[int],
    class_weights: Optional[np.ndarray] = None,
) -> float:
    """(Weighted) mean cross-entropy; probabilities floored at 1e-12."""
    total, total_w = 0.0, 0.0
    for p, y in zip(probabilities, labels):
        w = 1.0 if class_weights is None else float(class_weights[y])
        total += w * -math.log(max(float(p[y]), PROB_FLOOR))
        total_w += w
    return total / total_w if total_w > 0 else 0.0


def batch_loss_and_grads(
    model: GnnModel,
    X: np.ndarray,
    arcs: Arcs,
    items: Sequence[tuple[Sequence[int], int]],
    class_weights: Optional[np.ndarray] = None,
    cache: Optional[ForwardCache] = None,
    slots=None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients for a batch of (node set, label) items.

    ``cache`` is ``full_forward`` of the current parameters and ``slots``
    is ``neighbour_slots(arcs)``; each is computed here when not given.
    The softmax/cross-entropy gradient uses the standard p - onehot form,
    which is exact whenever p[label] is above the log floor.
    """
    slots = neighbour_slots(arcs) if slots is None else slots
    cache = full_forward(model, X, arcs, slots) if cache is None else cache
    final = cache.states[-1]
    head = pool_and_head(model, final, [ids for ids, _ in items])
    labels = [y for _, y in items]
    weights = np.array(
        [1.0 if class_weights is None else float(class_weights[y]) for y in labels]
    )
    total_w = weights.sum()
    loss_val = loss(head.probs, labels, class_weights)

    grads = {name: np.zeros_like(arr) for name, arr in model.param_items()}
    n, h_dim = final.shape[0], model.hidden_dim
    d_final = np.zeros_like(final)
    if total_w > 0:
        for b, (ids, y, w) in enumerate(zip(head.groups, labels, weights)):
            scale = w / total_w
            dlogits = (head.probs[b] - np.eye(model.n_labels)[y]) * scale
            grads["head_out_w"] += np.outer(dlogits, head.a1[b])
            grads["head_out_b"] += dlogits
            da1 = model.head_out_w.T @ dlogits
            dz1 = da1 * (head.z1[b] > 0)
            grads["head_hidden_w"] += np.outer(dz1, head.pooled[b])
            grads["head_hidden_b"] += dz1
            dpooled = model.head_hidden_w.T @ dz1
            dmean, dmax = dpooled[:h_dim], dpooled[h_dim:]
            d_final[ids] += dmean / len(ids)
            d_final[head.arg_rows[b], np.arange(h_dim)] += dmax  # one row per column: no repeats

    # A_w is symmetric, so the messages' gradient is one more aggregation.
    d_state = d_final
    for l in range(len(model.message_weights) - 1, -1, -1):
        name_m, name_c = f"message_weight_{l + 1}", f"combine_weight_{l + 1}"
        grads[name_c] += d_state.T @ cache.combined[l]
        d_combined = d_state @ model.combine_weights[l]
        d_agg = d_combined[:, :h_dim]
        d_prev = d_combined[:, h_dim:].copy()
        d_sum = d_agg / np.maximum(np.diff(arcs.indptr), 1)[:, None]
        d_messages = add_neighbours(np.zeros((n, h_dim)), slots, d_sum) * (cache.messages[l] > 0)
        grads[name_m] += d_messages.T @ cache.states[l]
        d_prev += d_messages @ model.message_weights[l]
        d_state = d_prev

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient in parameter block {name}")
    return loss_val, grads


class AdamState:
    def __init__(self, model: GnnModel, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {name: np.zeros_like(arr) for name, arr in model.param_items()}
        self.v = {name: np.zeros_like(arr) for name, arr in model.param_items()}


def adam_step(model: GnnModel, grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    state.step_count += 1
    t = state.step_count
    for name, param in model.param_items():
        g = grads[name]
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = state.m[name] / (1 - state.beta1**t)
        v_hat = state.v[name] / (1 - state.beta2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


def lr_schedule(lr0: float, epoch: int, max_epochs: int) -> float:
    """Linear decay from lr0 at epoch 0 to exactly 0 at epoch == max_epochs."""
    return lr0 * max(0.0, 1.0 - epoch / max_epochs)


def inverse_frequency_weights(labels: Sequence[int], n_labels: int) -> np.ndarray:
    counts = np.bincount(list(labels), minlength=n_labels).astype(np.float64)
    total = counts.sum()
    return total / (n_labels * np.maximum(counts, 1.0))


@dataclass
class TrainResult:
    model: GnnModel
    log: list[dict] = field(default_factory=list)
    best_epoch: Optional[int] = None
    best_val_f1: Optional[float] = None


def train(
    config: GnnConfig,
    graph: ViewpointGraph,
    matrix: EmbeddingMatrix,
    corpus: Corpus,
    negatives: Optional[Sequence] = None,
    seed: int = 0,
) -> TrainResult:
    """Mini-batch training over labeled train subgraphs (plus negatives).

    ``seed`` fixes the initialization and the batch order. Per epoch:
    seeded shuffle, batches of batch_size ideas, full-graph message
    passing per step, loss only on the batch's labeled subgraphs,
    one Adam step at the epoch's scheduled learning rate. One forward pass
    follows each step: the next step's loss and the epoch's train and
    validation predictions all read it, since the parameters do not change
    in between. Returns the parameters with the best validation macro-F1,
    or the final parameters when there is no validation split.
    """
    X = node_features(graph, matrix)
    arcs = graph.arcs
    slots = neighbour_slots(arcs)
    n_labels = len(corpus.label_set)

    items = [(_idea_nodes(graph, idea.id, "train idea"), idea.label) for idea in corpus.split_ideas("train")]
    items += [(_idea_nodes(graph, neg.id, "negative", " (inject it first)"), neg.label) for neg in negatives or ()]
    if not items:
        raise ValueError("no labeled train ideas")
    val_items = [
        (_idea_nodes(graph, idea.id, "validation idea"), idea.label)
        for idea in corpus.split_ideas("validation")
        if idea.label is not None
    ]

    class_weights = None
    if config.class_weighting:
        class_weights = inverse_frequency_weights([y for _, y in items], n_labels)

    rng = np.random.default_rng(seed)
    model = init_model(config, X.shape[1], n_labels, rng)
    state = AdamState(model)
    log: list[dict] = []
    best_f1, best_model, best_epoch = -1.0, None, None
    cache = full_forward(model, X, arcs, slots)

    for epoch in range(config.max_epochs):
        lr = lr_schedule(config.learning_rate, epoch, config.max_epochs)
        order = rng.permutation(len(items))
        epoch_loss, steps = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = [items[i] for i in order[start : start + config.batch_size]]
            loss_val, grads = batch_loss_and_grads(
                model, X, arcs, batch, class_weights, cache=cache, slots=slots
            )
            adam_step(model, grads, state, lr)
            cache = full_forward(model, X, arcs, slots)
            epoch_loss += loss_val
            steps += 1
        entry = {"epoch": epoch, "loss": epoch_loss / steps, "lr": lr}
        final = cache.states[-1]
        preds = _predicted_labels(model, final, items)
        entry["train_accuracy"] = sum(p == y for p, (_, y) in zip(preds, items)) / len(items)
        if val_items:
            preds = _predicted_labels(model, final, val_items)
            truths = [y for _, y in val_items]
            entry["val_macro_f1"] = macro_metrics(confusion(truths, preds, corpus.label_set.labels)).macro_f1
            if entry["val_macro_f1"] > best_f1:
                best_f1 = entry["val_macro_f1"]
                best_model = model.copy()
                best_epoch = epoch
        log.append(entry)

    if best_model is not None:
        return TrainResult(model=best_model, log=log, best_epoch=best_epoch, best_val_f1=best_f1)
    return TrainResult(model=model, log=log)


def _predicted_labels(model, final_states, items) -> list[int]:
    """Argmax label of each (node ids, label) item from the final node states."""
    probs = pool_and_head(model, final_states, [node_ids for node_ids, _ in items]).probs
    return np.argmax(probs, axis=1).tolist()


def _idea_nodes(graph: ViewpointGraph, idea_id: str, kind: str = "idea", hint: str = "") -> list[int]:
    """The idea's node ids; an idea without nodes raises a ValueError naming it."""
    node_ids = graph.idea_nodes.get(idea_id)
    if not node_ids:
        raise ValueError(f"{kind} {idea_id!r} has no nodes in the graph{hint}")
    return node_ids


def predict(
    model: GnnModel,
    graph: ViewpointGraph,
    matrix: EmbeddingMatrix,
    idea_ids: Sequence[str],
) -> list[SubgraphPrediction]:
    """The model's prediction for each idea of ``idea_ids``, in order."""
    groups = [_idea_nodes(graph, idea_id) for idea_id in idea_ids]
    if not groups:
        return []
    final = full_forward(model, node_features(graph, matrix), graph.arcs).states[-1]
    probs = pool_and_head(model, final, groups).probs
    return [
        SubgraphPrediction(idea_id=idea_id, probabilities=row.tolist(), label_index=int(np.argmax(row)))
        for idea_id, row in zip(idea_ids, probs)
    ]


def save_predictions(
    predictions: Sequence[SubgraphPrediction], corpus: Corpus, path: str | Path
) -> None:
    write_jsonl(
        path,
        (
            {
                "id": p.idea_id,
                "label": corpus.label_set.name_of(p.label_index),
                "probabilities": p.probabilities,
            }
            for p in predictions
        ),
    )


def save_model(
    model: GnnModel,
    path: str | Path,
    config: GnnConfig,
    labels: Sequence[str],
    seed: int = 0,
    epoch: Optional[int] = None,
    validation_score: Optional[float] = None,
) -> None:
    """JSON header line (the config with the training ``seed``, labels,
    block shapes), then little-endian float32 blocks in the param_items
    order (message/combine per layer, then the head)."""
    header = {
        "config": {
            "layers": config.layers,
            "hidden_dim": config.hidden_dim,
            "batch_size": config.batch_size,
            "max_epochs": config.max_epochs,
            "learning_rate": config.learning_rate,
            "seed": seed,
            "class_weighting": config.class_weighting,
        },
        "labels": list(labels),
        "input_dim": model.input_dim,
        "epoch": epoch,
        "validation_score": validation_score,
        "blocks": [[name, list(arr.shape)] for name, arr in model.param_items()],
    }
    write_headed(path, header, (arr.astype("<f4") for _, arr in model.param_items()))


def load_model(path: str | Path) -> tuple[GnnModel, dict]:
    """The model of a checkpoint written by ``save_model``, as float64,
    and its header. A header without a ``config`` whose ``layers`` and
    ``hidden_dim`` are ints >= 1, ``labels`` or an ``input_dim`` >= 1,
    with ``blocks`` other than ``block_names`` for those layers or of
    shapes that do not fit ``input_dim``, ``hidden_dim`` and the labels, or
    a blob of another length, raises a FileFormatError naming the file."""
    def sized(config: dict) -> Optional[str]:
        bad = next((key for key in ("layers", "hidden_dim") if problem(config.get(key), int, at_least(1))), None)
        return bad and f"must be an object whose {bad!r} is an int >= 1, got {config!r}"

    kinds = {"config": (dict, sized), "labels": (STRINGS, None), "input_dim": (int, at_least(1)), "blocks": (BLOCKS, None)}
    header, blocks = read_headed(path, "model file", kinds,
                                 lambda header: {name: ("<f4", shape) for name, shape in header["blocks"]})
    layers, names = header["config"]["layers"], [name for name, _ in header["blocks"]]
    if len(names) != 2 * layers + 4 or names != list(block_names(layers)):  # lengths first: layers may be huge
        raise FileFormatError(path, f"header 'blocks' are named {names}, not as the {2 * layers + 4} blocks of "
                                    f"config.layers {layers}", noun="model file")
    h, labels = header["config"]["hidden_dim"], len(header["labels"])
    d_in = [header["input_dim"]] + [h] * (layers - 1)
    shapes = [shape for d in d_in for shape in ([h, d], [h, h + d])] + [[h, 2 * h], [h], [labels, h], [labels]]
    for (name, shape), expected in zip(header["blocks"], shapes):
        if shape != expected:
            raise FileFormatError(path, f"block {name!r} has shape {shape}, not {expected} (input_dim "
                                        f"{header['input_dim']}, config.hidden_dim {h}, {labels} labels)", noun="model file")
    arrays = [blocks[name].astype(np.float64) for name in names]  # message/combine per layer, then the head
    model = GnnModel(arrays[0:-4:2], arrays[1:-4:2], *arrays[-4:])
    model.check_finite()
    return model, header

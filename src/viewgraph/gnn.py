"""Trainable weighted graph network over the viewpoint-graph.

Two message-passing layers: every node averages ReLU(edge_weight * (W @
neighbor_state)) over its neighbors, concatenates the average with its
own state, and maps through a combine matrix. Idea subgraphs are pooled
(elementwise mean + max), pushed through a one-hidden-layer MLP head and
softmax. Training is plain mini-batch cross-entropy with exact
hand-written reverse-mode gradients, Adam, and a linearly decaying
learning rate. Everything is numpy float64; a fixed seed fixes the
initialization, the batch order, and therefore the whole trajectory.

Message passing always runs over the full graph (test nodes participate;
their labels never enter the loss).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import Corpus, write_jsonl
from .embedding import EmbeddingMatrix
from .graph import Arcs, ViewpointGraph
from .metrics import confusion, macro_metrics

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class GnnConfig:
    layers: int = 2
    hidden_dim: int = 64
    batch_size: int = 64
    max_epochs: int = 1000
    learning_rate: float = 1e-3
    seed: int = 0
    class_weighting: bool = False

    def __post_init__(self):
        if self.layers < 1 or self.hidden_dim < 1 or self.batch_size < 1:
            raise ValueError("layers, hidden_dim and batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass
class SubgraphPrediction:
    idea_id: str
    probabilities: list[float]
    label_index: int


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
        """Parameters in the fixed checkpoint order: message/combine per
        layer, then the head."""
        items = []
        for l, (mw, cw) in enumerate(zip(self.message_weights, self.combine_weights), start=1):
            items.append((f"message_weight_{l}", mw))
            items.append((f"combine_weight_{l}", cw))
        items.append(("head_hidden_w", self.head_hidden_w))
        items.append(("head_hidden_b", self.head_hidden_b))
        items.append(("head_out_w", self.head_out_w))
        items.append(("head_out_b", self.head_out_b))
        return items

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


def _layer_with_cache(states, edges, message_weight, combine_weight):
    """One message-passing layer; isolated nodes aggregate the zero vector."""
    n, d_in = states.shape
    h, d_expected = message_weight.shape
    if d_in != d_expected:
        raise ValueError(f"state dimension {d_in} does not match layer input {d_expected}")
    if combine_weight.shape != (h, h + d_in):
        raise ValueError(
            f"combine weight shape {combine_weight.shape} != {(h, h + d_in)}"
        )
    messages = states @ message_weight.T  # (n, h)
    pre = edges.weight[:, None] * messages[edges.src]
    agg = np.zeros((n, h), dtype=np.float64)
    np.add.at(agg, edges.dst, np.maximum(pre, 0.0))
    agg /= np.maximum(np.diff(edges.indptr), 1)[:, None]
    combined = np.hstack([agg, states])
    return combined @ combine_weight.T, pre, combined


@dataclass
class ForwardCache:
    states: list[np.ndarray]  # H0..HL
    edge_pre: list[np.ndarray]  # pre-activation per directed edge, per layer
    combined: list[np.ndarray]  # concat(aggregate, state) per layer


def full_forward(model: GnnModel, X: np.ndarray, edges: Arcs) -> ForwardCache:
    states = [np.asarray(X, dtype=np.float64)]
    edge_pre, combined = [], []
    for mw, cw in zip(model.message_weights, model.combine_weights):
        new, pre, comb = _layer_with_cache(states[-1], edges, mw, cw)
        states.append(new)
        edge_pre.append(pre)
        combined.append(comb)
    return ForwardCache(states=states, edge_pre=edge_pre, combined=combined)


@dataclass
class HeadCache:
    node_ids: list[int]
    arg_rows: np.ndarray  # node id holding the max, per hidden dim
    pooled: np.ndarray  # (2h,)
    z1: np.ndarray
    a1: np.ndarray
    probs: np.ndarray


def pool_and_head(model: GnnModel, final_states: np.ndarray, node_ids: Sequence[int]) -> HeadCache:
    """Mean+max pooling over one idea's nodes, MLP head, softmax."""
    ids = list(node_ids)
    if not ids:
        raise ValueError("idea has no nodes")
    sub = final_states[ids]
    mean_pool = sub.mean(axis=0)
    arg_local = np.argmax(sub, axis=0)  # first max wins: deterministic
    max_pool = sub[arg_local, np.arange(sub.shape[1])]
    pooled = np.concatenate([mean_pool, max_pool])
    z1 = model.head_hidden_w @ pooled + model.head_hidden_b
    a1 = np.maximum(z1, 0.0)
    logits = model.head_out_w @ a1 + model.head_out_b
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    probs = exp / exp.sum()
    return HeadCache(
        node_ids=ids,
        arg_rows=np.array([ids[j] for j in arg_local]),
        pooled=pooled,
        z1=z1,
        a1=a1,
        probs=probs,
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


def zero_grads(model: GnnModel) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in model.param_items()}


def batch_loss_and_grads(
    model: GnnModel,
    X: np.ndarray,
    edges: Arcs,
    items: Sequence[tuple[Sequence[int], int]],
    class_weights: Optional[np.ndarray] = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients for a batch of (node set, label) items.

    The softmax/cross-entropy gradient uses the standard p - onehot form,
    which is exact whenever p[label] is above the log floor.
    """
    cache = full_forward(model, X, edges)
    final = cache.states[-1]
    heads = [pool_and_head(model, final, ids) for ids, _ in items]
    labels = [y for _, y in items]
    weights = np.array(
        [1.0 if class_weights is None else float(class_weights[y]) for y in labels]
    )
    total_w = weights.sum()
    loss_val = loss([h.probs for h in heads], labels, class_weights)

    grads = zero_grads(model)
    n, h_dim = final.shape[0], model.hidden_dim
    d_final = np.zeros_like(final)
    if total_w > 0:
        for head, y, w in zip(heads, labels, weights):
            scale = w / total_w
            dlogits = (head.probs - np.eye(model.n_labels)[y]) * scale
            grads["head_out_w"] += np.outer(dlogits, head.a1)
            grads["head_out_b"] += dlogits
            da1 = model.head_out_w.T @ dlogits
            dz1 = da1 * (head.z1 > 0)
            grads["head_hidden_w"] += np.outer(dz1, head.pooled)
            grads["head_hidden_b"] += dz1
            dpooled = model.head_hidden_w.T @ dz1
            dmean, dmax = dpooled[:h_dim], dpooled[h_dim:]
            d_final[head.node_ids] += dmean / len(head.node_ids)
            np.add.at(d_final, (head.arg_rows, np.arange(h_dim)), dmax)

    d_state = d_final
    for l in range(len(model.message_weights) - 1, -1, -1):
        name_m, name_c = f"message_weight_{l + 1}", f"combine_weight_{l + 1}"
        grads[name_c] += d_state.T @ cache.combined[l]
        d_combined = d_state @ model.combine_weights[l]
        d_agg = d_combined[:, :h_dim]
        d_prev = d_combined[:, h_dim:].copy()
        d_sum = d_agg / np.maximum(np.diff(edges.indptr), 1)[:, None]
        d_pre = d_sum[edges.dst] * (cache.edge_pre[l] > 0)
        d_messages = np.zeros((n, h_dim))
        np.add.at(d_messages, edges.src, edges.weight[:, None] * d_pre)
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
) -> TrainResult:
    """Mini-batch training over labeled train subgraphs (plus negatives).

    Per epoch: seeded shuffle, batches of batch_size ideas, full-graph
    message passing per step, loss only on the batch's labeled subgraphs,
    one Adam step at the epoch's scheduled learning rate. Returns the
    parameters with the best validation macro-F1, or the final parameters
    when there is no validation split.
    """
    X = node_features(graph, matrix)
    edges = graph.arcs
    n_labels = len(corpus.label_set)

    items: list[tuple[list[int], int, str]] = []
    for idea in corpus.split_ideas("train"):
        node_ids = graph.idea_nodes.get(idea.id)
        if not node_ids:
            raise ValueError(f"train idea {idea.id!r} has no nodes in the graph")
        items.append((node_ids, idea.label, idea.id))
    for neg in negatives or ():
        node_ids = graph.idea_nodes.get(neg.id)
        if not node_ids:
            raise ValueError(f"negative {neg.id!r} has no nodes in the graph (inject it first)")
        items.append((node_ids, neg.label, neg.id))
    if not items:
        raise ValueError("no labeled train ideas")

    val_items = [
        (graph.idea_nodes[idea.id], idea.label, idea.id)
        for idea in corpus.split_ideas("validation")
        if idea.label is not None
    ]

    class_weights = None
    if config.class_weighting:
        class_weights = inverse_frequency_weights([y for _, y, _ in items], n_labels)

    rng = np.random.default_rng(config.seed)
    model = init_model(config, X.shape[1], n_labels, rng)
    state = AdamState(model)
    log: list[dict] = []
    best_f1, best_model, best_epoch = -1.0, None, None

    for epoch in range(config.max_epochs):
        lr = lr_schedule(config.learning_rate, epoch, config.max_epochs)
        order = rng.permutation(len(items))
        epoch_loss, steps = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = [
                (items[i][0], items[i][1]) for i in order[start : start + config.batch_size]
            ]
            loss_val, grads = batch_loss_and_grads(model, X, edges, batch, class_weights)
            adam_step(model, grads, state, lr)
            epoch_loss += loss_val
            steps += 1
        entry = {"epoch": epoch, "loss": epoch_loss / steps, "lr": lr}
        preds = _predicted_labels(model, X, edges, items)
        entry["train_accuracy"] = sum(p == y for p, (_, y, _) in zip(preds, items)) / len(items)
        if val_items:
            preds = _predicted_labels(model, X, edges, val_items)
            truths = [y for _, y, _ in val_items]
            entry["val_macro_f1"] = macro_metrics(confusion(truths, preds, corpus.label_set.labels)).macro_f1
            if entry["val_macro_f1"] > best_f1:
                best_f1 = entry["val_macro_f1"]
                best_model = model.copy()
                best_epoch = epoch
        log.append(entry)

    if best_model is not None:
        return TrainResult(model=best_model, log=log, best_epoch=best_epoch, best_val_f1=best_f1)
    return TrainResult(model=model, log=log)


def _predicted_labels(model, X, edges, items) -> list[int]:
    """Argmax label of each (node ids, label, id) item after one full forward pass."""
    final = full_forward(model, X, edges).states[-1]
    return [int(np.argmax(pool_and_head(model, final, node_ids).probs)) for node_ids, _, _ in items]


def predict_subgraphs(
    model: GnnModel,
    graph: ViewpointGraph,
    matrix: EmbeddingMatrix,
    idea_ids: Sequence[str],
) -> list[SubgraphPrediction]:
    X = node_features(graph, matrix)
    edges = graph.arcs
    cache = full_forward(model, X, edges)
    out = []
    for idea_id in idea_ids:
        node_ids = graph.idea_nodes.get(idea_id)
        if not node_ids:
            raise ValueError(f"idea {idea_id!r} has no nodes in the graph")
        head = pool_and_head(model, cache.states[-1], node_ids)
        out.append(
            SubgraphPrediction(
                idea_id=idea_id,
                probabilities=[float(p) for p in head.probs],
                label_index=int(np.argmax(head.probs)),
            )
        )
    return out


def predict(
    model: GnnModel,
    graph: ViewpointGraph,
    matrix: EmbeddingMatrix,
    corpus: Corpus,
    split: str = "test",
) -> list[SubgraphPrediction]:
    return predict_subgraphs(model, graph, matrix, [i.id for i in corpus.split_ideas(split)])


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
    epoch: Optional[int] = None,
    validation_score: Optional[float] = None,
) -> None:
    """JSON header line, then little-endian float32 blocks in the
    param_items order (message/combine per layer, then the head)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "config": {
            "layers": config.layers,
            "hidden_dim": config.hidden_dim,
            "batch_size": config.batch_size,
            "max_epochs": config.max_epochs,
            "learning_rate": config.learning_rate,
            "seed": config.seed,
            "class_weighting": config.class_weighting,
        },
        "labels": list(labels),
        "input_dim": model.input_dim,
        "epoch": epoch,
        "validation_score": validation_score,
        "blocks": [[name, list(arr.shape)] for name, arr in model.param_items()],
    }
    with path.open("wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for _, arr in model.param_items():
            fh.write(arr.astype("<f4").tobytes())


def load_model(path: str | Path) -> tuple[GnnModel, dict]:
    with Path(path).open("rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        blob = fh.read()
    arrays = {}
    offset = 0
    for name, shape in header["blocks"]:
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        arrays[name] = arr.reshape(shape).astype(np.float64)
        offset += count * 4
    layers = header["config"]["layers"]
    model = GnnModel(
        message_weights=[arrays[f"message_weight_{l}"] for l in range(1, layers + 1)],
        combine_weights=[arrays[f"combine_weight_{l}"] for l in range(1, layers + 1)],
        head_hidden_w=arrays["head_hidden_w"],
        head_hidden_b=arrays["head_hidden_b"],
        head_out_w=arrays["head_out_w"],
        head_out_b=arrays["head_out_b"],
    )
    model.check_finite()
    return model, header

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

The parameters are named blocks; ``block_shapes`` is the one place that
lays them out (names, order and shapes), and initialization, Adam and
the checkpoint's write and read all walk its table.

Message passing always runs over the full graph (test nodes participate;
their labels never enter the loss). Training runs one forward pass per
optimizer step: the pass after each step serves the next step's loss
and the epoch's train and validation predictions, which one pooled head
call computes together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import (BLOCKS, STRINGS, Checked, Corpus, FileFormatError, at_least, must, problem, read_headed, setting,
                      write_headed)
from .embedding import EmbeddingMatrix
from .graph import HEAD_BYTES, Arcs, ViewpointGraph, add_neighbours, neighbour_slots, padded
from .metrics import macro_metrics

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


def block_shapes(layers: int, input_dim: int, hidden_dim: int, n_labels: int) -> dict[str, tuple[int, ...]]:
    """The parameter layout, name -> shape in checkpoint order: message
    ``(h, d)`` and combine ``(h, h + d)`` per layer, ``d`` being
    ``input_dim`` at layer 1 and ``h`` after, then the pooled MLP head."""
    h, d, shapes = hidden_dim, input_dim, {}
    for l in range(1, layers + 1):
        shapes[f"message_weight_{l}"], shapes[f"combine_weight_{l}"] = (h, d), (h, h + d)
        d = h
    return {**shapes, "head_hidden_w": (h, 2 * h), "head_hidden_b": (h,), "head_out_w": (n_labels, h),
            "head_out_b": (n_labels,)}


class GnnModel(dict):
    """The parameter blocks by name, as laid out by ``block_shapes``."""

    @property
    def layers(self) -> int:
        return (len(self) - 4) // 2

    @property
    def input_dim(self) -> int:
        return self["message_weight_1"].shape[1]

    @property
    def hidden_dim(self) -> int:
        return self["head_hidden_b"].shape[0]

    @property
    def n_labels(self) -> int:
        return self["head_out_b"].shape[0]


def init_model(config: GnnConfig, input_dim: int, n_labels: int, rng: np.random.Generator) -> GnnModel:
    """Glorot-uniform matrices, zero vectors, drawn in checkpoint order."""
    model = GnnModel()
    for name, shape in block_shapes(config.layers, input_dim, config.hidden_dim, n_labels).items():
        if len(shape) == 1:
            model[name] = np.zeros(shape)
        else:
            bound = math.sqrt(6.0 / sum(shape))
            model[name] = rng.uniform(-bound, bound, size=shape)
    return model


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
    for l in range(1, model.layers + 1):
        mw, cw = model[f"message_weight_{l}"], model[f"combine_weight_{l}"]
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

    index: np.ndarray  # (B, L): the group's node ids, padded with 0
    present: np.ndarray  # (B, L): which of ``index`` are the group's
    sizes: np.ndarray  # (B,): node count per group
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

    The groups are gathered through one ``padded`` table; the mean masks
    its padding to zeros and divides by the group size, the max masks it
    to -inf, so the first maximum of a group still wins."""
    index, present = padded(groups)
    sizes = present.sum(axis=1)
    if not sizes.all():
        raise ValueError("idea has no nodes")
    sub = final_states[index]  # (B, L, h)
    mean_pool = np.where(present[:, :, None], sub, 0.0).sum(axis=1) / sizes[:, None]
    arg_local = np.where(present[:, :, None], sub, -np.inf).argmax(axis=1)  # first max wins
    max_pool = np.take_along_axis(sub, arg_local[:, None, :], axis=1)[:, 0]
    pooled = np.hstack([mean_pool, max_pool])
    z1 = _gemv(model["head_hidden_w"], pooled) + model["head_hidden_b"]
    a1 = np.maximum(z1, 0.0)
    logits = _gemv(model["head_out_w"], a1) + model["head_out_b"]
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return HeadCache(
        index=index,
        present=present,
        sizes=sizes,
        arg_rows=np.take_along_axis(index, arg_local, axis=1),
        pooled=pooled,
        z1=z1,
        a1=a1,
        probs=exp / exp.sum(axis=1, keepdims=True),
    )


def loss(
    probabilities: Sequence[Sequence[float]],
    labels: Sequence[int],
    weights: Optional[Sequence[float]] = None,
) -> float:
    """Mean cross-entropy, item i weighted by ``weights[i]`` (by 1 without
    ``weights``); probabilities floored at 1e-12."""
    total, total_w = 0.0, 0.0
    for p, y, w in zip(probabilities, labels, [1.0] * len(labels) if weights is None else weights):
        total += w * -math.log(max(float(p[y]), PROB_FLOOR))
        total_w += w
    return total / total_w if total_w > 0 else 0.0


def batch_loss_and_grads(
    model: GnnModel,
    cache: ForwardCache,
    arcs: Arcs,
    slots,
    items: Sequence[tuple[Sequence[int], int]],
    class_weights: Optional[np.ndarray] = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients for a batch of (node set, label) items.

    ``cache`` is ``full_forward`` of the current parameters and ``slots``
    is ``neighbour_slots(arcs)``. The softmax/cross-entropy gradient uses
    the standard p - onehot form, which is exact whenever p[label] is
    above the log floor. The head's backward products run once per batch,
    and every gradient block adds its items in batch order, bit for bit
    the per-item sums: each head block (with its bias) through
    ``_outer_sums``, and the final states through one ``np.add.at`` taking
    item after item, each item's mean entries before its max entries, so
    that nodes shared by items or repeated add in that order. Layer 1's
    input gradient is not computed.
    """
    final = cache.states[-1]
    head = pool_and_head(model, final, [ids for ids, _ in items])
    labels = [y for _, y in items]
    weights = np.ones(len(labels)) if class_weights is None else class_weights[labels]
    total_w = weights.sum()
    loss_val = loss(head.probs, labels, weights.tolist())

    grads = {name: np.zeros_like(arr) for name, arr in model.items()}
    h_dim = model.hidden_dim
    d_final = np.zeros_like(final)
    if total_w > 0:
        dlogits = (head.probs - np.eye(model.n_labels)[labels]) * (weights / total_w)[:, None]
        dz1 = _gemv(model["head_out_w"].T, dlogits) * (head.z1 > 0)
        dpooled = _gemv(model["head_hidden_w"].T, dz1)
        ones = np.ones((len(items), 1))  # a bias is the weight of a constant 1 input
        for name, d_out, inputs in (("head_out", dlogits, head.a1), ("head_hidden", dz1, head.pooled)):
            total = _outer_sums(d_out, np.hstack([inputs, ones]))
            grads[f"{name}_w"], grads[f"{name}_b"] = total[:, :-1], total[:, -1]
        (B, L), columns = head.index.shape, np.arange(h_dim)
        cells = np.empty((B, L + 1, h_dim), dtype=np.int64)  # flat (node, column) cells of d_final
        cells[:, :L], cells[:, L] = head.index[:, :, None] * h_dim + columns, head.arg_rows * h_dim + columns
        values = np.empty(cells.shape)
        values[:, :L], values[:, L] = dpooled[:, None, :h_dim] / head.sizes[:, None, None], dpooled[:, h_dim:]
        keep = np.hstack([head.present, np.ones((B, 1), dtype=bool)])
        np.add.at(d_final.reshape(-1), cells[keep].ravel(), values[keep].ravel())

    # A_w is symmetric, so the messages' gradient is one more aggregation.
    degree = np.maximum(np.diff(arcs.indptr), 1)[:, None]
    d_state = d_final
    for l in range(model.layers - 1, -1, -1):
        name_m, name_c = f"message_weight_{l + 1}", f"combine_weight_{l + 1}"
        grads[name_c] += d_state.T @ cache.combined[l]
        d_combined = d_state @ model[name_c]
        d_sum = d_combined[:, :h_dim] / degree
        d_messages = add_neighbours(np.zeros_like(d_sum), slots, d_sum) * (cache.messages[l] > 0)
        grads[name_m] += d_messages.T @ cache.states[l]
        if l:
            d_state = d_combined[:, h_dim:] + d_messages @ model[name_m]

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient in parameter block {name}")
    return loss_val, grads


def _outer_sums(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The sum of the outer products of the rows of ``left`` and ``right``,
    added row after row to zeros: bit for bit a loop of
    ``total += np.outer(left[b], right[b])``.

    The products go in chunks of up to ``HEAD_BYTES`` into rows 1.. of a
    buffer whose row 0 holds the running sum. numpy sums along a buffer's
    leading axis row after row when some other axis is the contiguous one,
    as it is whenever ``right`` has two columns or more; along a contiguous
    axis it would sum pairwise. So each chunk takes up the order of the
    chunk before it. ``einsum`` writes each product in half the time of a
    broadcast multiply, as 0 + product: that only turns -0.0 into +0.0,
    which a sum from +0.0 cannot tell apart. The budget, 512 KiB, holds 7
    items' rows of the hidden block at width 64. On gnn-novelty's training
    inputs, larger budgets cost peak memory and no time (1 MiB added
    0.8 MB of peak RSS, and 4 MiB, one chunk per batch, 3.5 MB), and
    256 KiB was no faster.
    """
    (n, m), k = left.shape, right.shape[1]
    chunk = max(HEAD_BYTES // (8 * m * k), 1)
    buffer, total = np.empty((min(chunk, n) + 1, m, k)), np.zeros((m, k))
    for start in range(0, n, chunk):
        rows = min(chunk, n - start)
        buffer[0] = total
        np.einsum("bi,bj->bij", left[start : start + rows], right[start : start + rows], out=buffer[1 : rows + 1])
        total = buffer[: rows + 1].sum(axis=0)
    return total


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """The step count and the first and second moments, by block name."""

    def __init__(self, model: GnnModel):
        self.step_count = 0
        self.m = {name: np.zeros_like(arr) for name, arr in model.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in model.items()}


def adam_step(model: GnnModel, grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    state.step_count += 1
    t = state.step_count
    for name, param in model.items():
        g = grads[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1 - ADAM_BETA1**t)
        v_hat = state.v[name] / (1 - ADAM_BETA2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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
    in between, and one head call pools the train and validation ideas.
    Returns the parameters with the best validation macro-F1, or the final
    parameters when there is no validation split.
    """
    X = node_features(graph, matrix)
    arcs = graph.arcs
    slots = neighbour_slots(arcs)
    n_labels = len(corpus.label_set)

    items = [(graph.nodes_of(idea.id, "train idea"), idea.label) for idea in corpus.split_ideas("train")]
    items += [(graph.nodes_of(neg.id, "negative", " (inject it first)"), neg.label) for neg in negatives or ()]
    if not items:
        raise ValueError("no labeled train ideas")
    val_items = [
        (graph.nodes_of(idea.id, "validation idea"), idea.label)
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
            loss_val, grads = batch_loss_and_grads(model, cache, arcs, slots, batch, class_weights)
            adam_step(model, grads, state, lr)
            cache = full_forward(model, X, arcs, slots)
            epoch_loss += loss_val
            steps += 1
        entry = {"epoch": epoch, "loss": epoch_loss / steps, "lr": lr}
        preds = _predicted_labels(model, cache.states[-1], items + val_items)  # a pooled row reads only its group
        entry["train_accuracy"] = sum(p == y for p, (_, y) in zip(preds, items)) / len(items)
        if val_items:
            preds = preds[len(items) :]
            truths = [y for _, y in val_items]
            entry["val_macro_f1"] = macro_metrics(truths, preds, corpus.label_set.labels).macro_f1
            if entry["val_macro_f1"] > best_f1:
                best_f1 = entry["val_macro_f1"]
                best_model = GnnModel({name: arr.copy() for name, arr in model.items()})
                best_epoch = epoch
        log.append(entry)

    if best_model is not None:
        return TrainResult(model=best_model, log=log, best_epoch=best_epoch, best_val_f1=best_f1)
    return TrainResult(model=model, log=log)


def _predicted_labels(model, final_states, items) -> list[int]:
    """Argmax label of each (node ids, label) item from the final node states."""
    probs = pool_and_head(model, final_states, [node_ids for node_ids, _ in items]).probs
    return np.argmax(probs, axis=1).tolist()


def predict(
    model: GnnModel,
    graph: ViewpointGraph,
    matrix: EmbeddingMatrix,
    idea_ids: Sequence[str],
) -> list[SubgraphPrediction]:
    """The model's prediction for each idea of ``idea_ids``, in order."""
    groups = [graph.nodes_of(idea_id) for idea_id in idea_ids]
    if not groups:
        return []
    final = full_forward(model, node_features(graph, matrix), graph.arcs).states[-1]
    probs = pool_and_head(model, final, groups).probs
    return [
        SubgraphPrediction(idea_id=idea_id, probabilities=row.tolist(), label_index=int(np.argmax(row)))
        for idea_id, row in zip(idea_ids, probs)
    ]


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
    block shapes), then the little-endian float32 blocks in
    ``block_shapes`` order."""
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
        "blocks": [[name, list(arr.shape)] for name, arr in model.items()],
    }
    write_headed(path, header, (arr.astype("<f4") for arr in model.values()))


def load_model(path: str | Path) -> tuple[GnnModel, dict]:
    """The model of a checkpoint written by ``save_model``, as float64,
    and its header. A header without a ``config`` whose ``layers`` and
    ``hidden_dim`` are ints >= 1, ``labels`` or an ``input_dim`` >= 1,
    with ``blocks`` other than ``block_shapes`` of those layers, input_dim,
    hidden_dim and labels, a blob of another length, or a block holding a
    NaN or infinity raises a FileFormatError naming the file."""
    def sized(config: dict) -> Optional[str]:
        bad = next((key for key in ("layers", "hidden_dim") if problem(config.get(key), int, at_least(1))), None)
        return bad and f"must be an object whose {bad!r} is an int >= 1, got {config!r}"

    kinds = {"config": (dict, sized), "labels": (STRINGS, None), "input_dim": (int, at_least(1)), "blocks": (BLOCKS, None)}
    header, blocks = read_headed(path, "model file", kinds,
                                 lambda header: {name: ("<f4", shape) for name, shape in header["blocks"]})
    layers, h, labels = header["config"]["layers"], header["config"]["hidden_dim"], len(header["labels"])
    names = [name for name, _ in header["blocks"]]
    # the count first: block_shapes of a huge ``layers`` would not fit in memory
    if len(names) != 2 * layers + 4 or names != list(shapes := block_shapes(layers, header["input_dim"], h, labels)):
        raise FileFormatError(path, f"header 'blocks' are named {names}, not as the {2 * layers + 4} blocks of "
                                    f"config.layers {layers}", noun="model file")
    for name, shape in header["blocks"]:
        if shape != list(shapes[name]):
            raise FileFormatError(path, f"block {name!r} has shape {shape}, not {list(shapes[name])} (input_dim "
                                        f"{header['input_dim']}, config.hidden_dim {h}, {labels} labels)", noun="model file")
    model = GnnModel({name: blocks[name].astype(np.float64) for name in names})
    for name, arr in model.items():
        if not np.all(np.isfinite(arr)):
            raise FileFormatError(path, f"non-finite values in parameter block {name}", noun="model file")
    return model, header

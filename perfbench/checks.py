"""Output checks for one benchmark operation, independent of viewgraph.

Every check reads the files a run wrote and returns a list of error
strings (empty when the outputs are right). The label-propagation oracle
is a dense-matrix evaluation of the documented update over ``graph.json``;
it shares no code with ``viewgraph.label_prop``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

VECTOR_RTOL = 1e-9  # dense and per-neighbour sums differ only in summation order
TIE_TOL = 1e-9


def read_jsonl(path: Path) -> list[dict]:
    with Path(path).open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_split(path: Path) -> tuple[list[str], list[dict]]:
    """(label names, idea records) of a split corpus file."""
    rows = read_jsonl(path)
    return rows[0]["labels"], rows[1:]


def dense_lp(graph: dict, labels: list[str], ideas: list[dict], max_iters: int, early_stop: bool):
    """Per test idea: (label index or None when tied, summed vector, unreached)."""
    idea_of = [n["idea"] for n in graph["nodes"]]
    n = len(idea_of)
    adjacency = np.zeros((n, n))
    for edge in graph["edges"]:
        u, v, w = edge[0], edge[1], edge[2]
        adjacency[u, v] = adjacency[v, u] = w
    totals = adjacency.sum(axis=1)
    transition = np.divide(adjacency, totals[:, None], out=np.zeros_like(adjacency), where=totals[:, None] > 0)

    split_of = {i["id"]: i for i in ideas}
    state = np.zeros((n, len(labels)))
    for node, idea_id in enumerate(idea_of):
        idea = split_of[idea_id]
        if idea["split"] == "train":
            state[node, labels.index(idea["label"])] = 1.0
    argmax = state.argmax(axis=1)
    for _ in range(max_iters):
        state = state + transition @ state
        norms = state.sum(axis=1)
        state[norms > 0] /= norms[norms > 0, None]
        new_argmax = state.argmax(axis=1)
        if early_stop and np.array_equal(new_argmax, argmax):
            break
        argmax = new_argmax

    nodes_of: dict[str, list[int]] = {}
    for node, idea_id in enumerate(idea_of):
        nodes_of.setdefault(idea_id, []).append(node)
    out = {}
    for idea in ideas:
        if idea["split"] != "test":
            continue
        summed = state[nodes_of[idea["id"]]].sum(axis=0)
        if not summed.any():
            out[idea["id"]] = (0, summed, True)
            continue
        top = np.sort(summed)[::-1]
        tied = len(top) > 1 and top[0] - top[1] <= TIE_TOL * top[0]
        out[idea["id"]] = (None if tied else int(summed.argmax()), summed, False)
    return out


def check_lp(run_dir: Path, max_iters: int, early_stop: bool) -> list[str]:
    labels, ideas = read_split(run_dir / "split.jsonl")
    graph = json.loads((run_dir / "graph.json").read_text(encoding="utf-8"))
    expected = dense_lp(graph, labels, ideas, max_iters, early_stop)
    predictions = read_jsonl(run_dir / "predictions_lp.jsonl")
    errors = []
    if [p["id"] for p in predictions] != list(expected):
        errors.append("lp predictions do not list the test ideas in corpus order")
        return errors
    for p in predictions:
        label, vector, unreached = expected[p["id"]]
        if label is not None and p["label"] != labels[label]:
            errors.append(f"lp label of {p['id']}: got {p['label']!r}, dense oracle says {labels[label]!r}")
        if bool(p["unreached"]) != unreached:
            errors.append(f"lp unreached flag of {p['id']}: got {p['unreached']}")
        if not np.allclose(p["vector"], vector, rtol=VECTOR_RTOL, atol=1e-12):
            errors.append(f"lp vector of {p['id']} differs from the dense oracle")
    return errors


def check_gnn(run_dir: Path) -> list[str]:
    labels, ideas = read_split(run_dir / "split.jsonl")
    predictions = read_jsonl(run_dir / "predictions_gnn.jsonl")
    errors = []
    if [p["id"] for p in predictions] != [i["id"] for i in ideas if i["split"] == "test"]:
        errors.append("gnn predictions do not list the test ideas in corpus order")
    for p in predictions:
        probs = p["probabilities"]
        if len(probs) != len(labels) or not all(math.isfinite(x) and x >= 0 for x in probs):
            errors.append(f"gnn probabilities of {p['id']} are malformed")
        elif abs(sum(probs) - 1.0) > 1e-9:
            errors.append(f"gnn probabilities of {p['id']} sum to {sum(probs)}")
        elif p["label"] != labels[int(np.argmax(probs))]:
            errors.append(f"gnn label of {p['id']} is not the argmax of its probabilities")
    return errors


def macro_f1(truths: list[int], preds: list[int], n_labels: int) -> float:
    f1s = []
    for c in range(n_labels):
        tp = sum(t == c and p == c for t, p in zip(truths, preds))
        fp = sum(t != c and p == c for t, p in zip(truths, preds))
        fn = sum(t == c and p != c for t, p in zip(truths, preds))
        f1s.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return sum(f1s) / n_labels


def check_report(run_dir: Path, engine: str) -> list[str]:
    """report.json's macro-F1 must match a recount from the predictions."""
    labels, ideas = read_split(run_dir / "split.jsonl")
    label_of = {i["id"]: i["label"] for i in ideas}
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    predictions = read_jsonl(run_dir / f"predictions_{engine}.jsonl")
    truths = [labels.index(label_of[p["id"]]) for p in predictions]
    preds = [labels.index(p["label"]) for p in predictions]
    expected = macro_f1(truths, preds, len(labels))
    got = report[engine]["macro_f1"]
    if abs(got - expected) > 1e-12:
        return [f"report.json {engine} macro_f1 {got} != {expected} recounted from predictions"]
    return []

"""Acceptance suite: one test per release criterion, fixed tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live). Criteria are property-based plus small-scale behavioral
checks on the bundled synthetic corpora; expected values were produced by
the independent oracles in oracles.py and frozen here.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np
import pytest

from graphs import arcs_from_lists, edge_dict, toy_graph
from oracles import (
    brute_force_graph_edges,
    brute_force_macro,
    dense_label_propagation,
    finite_difference_grads,
    max_relative_error,
    random_lp_instance,
)
from viewgraph import gnn, label_prop, novelty
from viewgraph.dataset import IdeaViewpoints, save_corpus
from viewgraph.embedding import EmbeddingMatrix
from viewgraph.fixtures import demo_corpus
from viewgraph.graph import GraphConfig, build_graph
from viewgraph.llm import parse_viewpoint_response, render_viewpoint_response
from viewgraph.metrics import confusion, macro_metrics, normed_cost
from viewgraph.pipeline import run_pipeline, validate_config


def criterion(name: str, ok: bool, detail: str = ""):
    line = f"[criterion] {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
    print(line, file=sys.stderr)
    assert ok, line


def test_lp_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        adjacency, init = random_lp_instance(rng, max_nodes=12, max_labels=4)
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
            ours = label_prop.propagate(
                init, arcs_from_lists(weights), label_prop.LpConfig(max_iters=iters, early_stop=False)
            )
            expected = dense_label_propagation(init, adjacency, iters)
            worst = max(worst, float(np.abs(ours - expected).max()))
    elapsed = time.monotonic() - start
    criterion(
        "lp-oracle-equivalence",
        worst < 1e-9 and elapsed < 5.0,
        f"max entry error {worst:.2e}, {elapsed:.2f}s over 50 graphs x 5 iterations",
    )


def test_lp_hand_traces():
    # chain: labeled node feeds its lone neighbor its exact vector
    chain_init = np.array([[1.0, 0.0], [0.0, 0.0]])
    chain_weights = [[(1, 1.0)], [(0, 1.0)]]
    chain = label_prop.propagate(chain_init, arcs_from_lists(chain_weights), label_prop.LpConfig(max_iters=1))
    chain_ok = chain[1].tolist() == [1.0, 0.0]

    # star: zero center, leaves one-hot at labels 0, 0, 1, normalized weight 1/3
    star_init = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    star_weights = [[(1, 1 / 3), (2, 1 / 3), (3, 1 / 3)], [(0, 1.0)], [(0, 1.0)], [(0, 1.0)]]
    star = label_prop.propagate(star_init, arcs_from_lists(star_weights), label_prop.LpConfig(max_iters=1))
    star_ok = bool(np.allclose(star[0], [2 / 3, 1 / 3], atol=1e-12))
    criterion("lp-hand-traces", chain_ok and star_ok, f"chain={chain[1]}, star center={star[0]}")


def _graph_instance(seed: int, max_nodes: int = 40):
    rng = np.random.default_rng(seed)
    n_ideas = int(rng.integers(3, 9))
    records = []
    total = 0
    for i in range(n_ideas):
        size = min(int(rng.integers(1, 8)), max_nodes - total)
        if size <= 0:
            break
        records.append(
            IdeaViewpoints(
                idea_id=f"idea{i}",
                viewpoints=tuple(f"idea{i} viewpoint {j}" for j in range(size)),
                timestamp=0,
            )
        )
        total += size
    return records, EmbeddingMatrix(rng.normal(size=(total, 8))), GraphConfig()


def test_graph_construction_oracle():
    start = time.monotonic()
    checked = 0
    for seed in range(20):
        records, matrix, config = _graph_instance(seed)
        graph = build_graph(records, matrix, config)
        expected = brute_force_graph_edges(
            graph.idea, matrix.rows, config.intra_k, config.inter_m, config.weight_floor
        )
        got = edge_dict(graph)
        assert set(got) == set(expected), f"edge set mismatch at seed {seed}"
        for key, (w, kind) in expected.items():
            assert got[key][1] == kind
            assert abs(got[key][0] - w) < 1e-12
            assert 0.0 <= got[key][0] <= 1.0
        degree = Counter()
        for (u, v), (_, kind) in got.items():
            degree[u, kind] += 1
            degree[v, kind] += 1
        for node, idea in enumerate(graph.idea):
            siblings = len(graph.idea_nodes[idea]) - 1
            foreign = len(graph) - siblings - 1
            intra, inter = degree[node, "intra"], degree[node, "inter"]
            assert min(config.intra_k, siblings) <= intra <= 2 * config.intra_k
            assert min(config.inter_m, foreign) <= inter <= 2 * config.inter_m
        checked += 1
    elapsed = time.monotonic() - start
    criterion(
        "graph-construction-oracle",
        checked == 20 and elapsed < 5.0,
        f"{checked} instances, {elapsed:.2f}s",
    )


def test_gradient_check():
    start = time.monotonic()
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        node_ideas = ["a", "a", "a", "b", "b", "b"]
        pairs = [
            (u, v, float(rng.random()))
            for u in range(6)
            for v in range(u + 1, 6)
            if rng.random() < 0.6
        ]
        arrays = toy_graph(node_ideas, pairs).arcs
        X = rng.normal(size=(6, 4))
        items = [([0, 1, 2], int(rng.integers(3))), ([3, 4, 5], int(rng.integers(3)))]
        model = gnn.init_model(gnn.GnnConfig(hidden_dim=8), 4, 3, np.random.default_rng(seed + 50))
        _, analytic = gnn.batch_loss_and_grads(model, X, arrays, items)

        def loss_fn():
            cache = gnn.full_forward(model, X, arrays)
            heads = [gnn.pool_and_head(model, cache.states[-1], ids) for ids, _ in items]
            return gnn.loss([h.probs for h in heads], [y for _, y in items])

        numeric = finite_difference_grads(model, loss_fn, epsilon=1e-4)
        worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.monotonic() - start
    criterion(
        "gnn-gradient-check",
        worst < 1e-4 and elapsed < 30.0,
        f"max relative error {worst:.2e}, {elapsed:.1f}s over 3 graphs",
    )


@pytest.fixture(scope="module")
def capacity_runs(separable):
    corpus, _, matrix, graph = separable
    runs = {}
    for seed in (1, 2, 3):
        config = gnn.GnnConfig(hidden_dim=64, max_epochs=200, seed=seed)
        result = gnn.train(config, graph, matrix, corpus)
        test_preds = gnn.predict(result.model, graph, matrix, corpus, "test")
        truths = [corpus.by_id(p.idea_id).label for p in test_preds]
        guesses = [p.label_index for p in test_preds]
        report = macro_metrics(confusion(truths, guesses, corpus.label_set.labels))
        runs[seed] = {
            "train_accuracy": result.log[-1]["train_accuracy"],
            "test_accuracy": report.accuracy,
            "test_macro_f1": report.macro_f1,
        }
    return runs


def test_gnn_capacity(capacity_runs):
    start = time.monotonic()
    ok = all(
        r["train_accuracy"] == 1.0 and r["test_accuracy"] >= 0.90 for r in capacity_runs.values()
    )
    detail = ", ".join(
        f"seed {s}: train={r['train_accuracy']:.2f} test={r['test_accuracy']:.2f}"
        for s, r in capacity_runs.items()
    )
    criterion("gnn-capacity", ok and (time.monotonic() - start) < 120.0, detail)


def test_lp_vs_gnn_ordering(separable, capacity_runs):
    corpus, _, _, graph = separable
    lp_preds = label_prop.run(graph, corpus)
    truths = [corpus.by_id(p.idea_id).label for p in lp_preds]
    guesses = [p.label_index for p in lp_preds]
    lp_f1 = macro_metrics(confusion(truths, guesses, corpus.label_set.labels)).macro_f1
    gnn_f1 = min(r["test_macro_f1"] for r in capacity_runs.values())
    criterion(
        "lp-vs-gnn-ordering",
        gnn_f1 >= lp_f1 - 0.05,
        f"gnn macro-F1 {gnn_f1:.3f} vs lp {lp_f1:.3f}",
    )


def test_novelty_behavior(separable):
    start = time.monotonic()
    corpus, _, matrix, graph = separable
    samples, _ = novelty.generate_negatives(corpus, graph, count=80, swap_fraction=0.3, seed=5)
    train_negs, held = novelty.select_training_negatives(samples, 10, seed=5)
    copies = [s for s in held if s.strategy == "copy"][:10]
    randoms = [s for s in held if s.strategy == "random-swap"][:5]
    neighbors = [s for s in held if s.strategy == "neighbor-swap"][:5]
    eval_negs = copies + randoms + neighbors
    assert len(eval_negs) == 20

    config = gnn.GnnConfig(hidden_dim=64, max_epochs=200, seed=1)

    g_with, m_with = novelty.inject_negatives(graph, matrix, train_negs, corpus)
    with_model = gnn.train(config, g_with, m_with, corpus, train_negs).model
    g_we, m_we = novelty.inject_negatives(g_with, m_with, eval_negs, corpus)
    with_preds = gnn.predict_subgraphs(with_model, g_we, m_we, [s.id for s in eval_negs])
    rate_with = sum(p.label_index == 0 for p in with_preds) / len(with_preds)

    plain_model = gnn.train(config, graph, matrix, corpus).model
    g_pe, m_pe = novelty.inject_negatives(graph, matrix, eval_negs, corpus)
    plain_preds = gnn.predict_subgraphs(plain_model, g_pe, m_pe, [s.id for s in eval_negs])
    rate_plain = sum(p.label_index == 0 for p in plain_preds) / len(plain_preds)

    elapsed = time.monotonic() - start
    criterion(
        "novelty-behavior",
        rate_with >= 0.70 and rate_plain < 0.40 and elapsed < 240.0,
        f"worst-label rate {rate_with:.2f} with negatives vs {rate_plain:.2f} without, {elapsed:.0f}s",
    )


def test_metrics_oracle():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(200):
        n_labels = int(rng.integers(2, 5))
        n = int(rng.integers(1, 60))
        truths = rng.integers(0, n_labels, size=n).tolist()
        preds = rng.integers(0, n_labels, size=n).tolist()
        rep = macro_metrics(confusion(truths, preds, tuple(str(c) for c in range(n_labels))))
        expected = brute_force_macro(truths, preds, n_labels)
        worst = max(
            worst,
            abs(rep.accuracy - expected["accuracy"]),
            abs(rep.macro_precision - expected["macro_precision"]),
            abs(rep.macro_recall - expected["macro_recall"]),
            abs(rep.macro_f1 - expected["macro_f1"]),
        )
    hand = macro_metrics(confusion([0, 0, 1, 1], [0, 1, 1, 1], ("a", "b"))).macro_f1
    criterion(
        "metrics-oracle",
        worst < 1e-12 and abs(hand - 11 / 15) < 1e-12,
        f"max deviation {worst:.2e}, hand case macro-F1 {hand:.6f}",
    )


def test_parser_round_trip():
    rng = np.random.default_rng(7)
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,;:!?'- "
    failures = 0
    for _ in range(500):
        count = int(rng.integers(1, 11))
        texts = []
        for _ in range(count):
            size = int(rng.integers(1, 80))
            text = "".join(rng.choice(list(alphabet)) for _ in range(size))
            text = " ".join(text.split())
            if not text or text.lower().startswith("sentence"):
                text = "claim " + (text or "x")
            texts.append(text)
        raw = render_viewpoint_response([("Generated sentence.", texts)])
        if parse_viewpoint_response(raw) != texts:
            failures += 1
    criterion("parser-round-trip", failures == 0, f"{failures} failures out of 500 cases")


def test_pipeline_determinism(tmp_path):
    corpus_path = tmp_path / "demo.jsonl"
    save_corpus(demo_corpus(), corpus_path)
    for out in ("one", "two"):
        config = validate_config(
            {
                "corpus": str(corpus_path),
                "out_dir": str(tmp_path / out),
                "seed": 7,
                "engine": "both",
                "gnn": {"hidden_dim": 16, "max_epochs": 40},
            }
        )
        run_pipeline(config, quiet=True)
    same = all(
        (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        for name in ("predictions_lp.jsonl", "predictions_gnn.jsonl", "report.json")
    )
    criterion("pipeline-determinism", same, "predictions and report byte-identical across runs")


def test_cost_accounting():
    out = normed_cost({"a": 2.0, "b": 1.0, "c": 0.16})
    ok = (
        abs(out["a"] - 1.0) < 1e-12
        and abs(out["b"] - 0.5) < 1e-12
        and abs(out["c"] - 0.08) < 1e-12
    )
    criterion("cost-accounting", ok, f"normalized {out}")

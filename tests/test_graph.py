from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphs import assert_same_graph, edge_dict, kind_degree, toy_graph
from oracles import (brute_force_graph_edges, graph_json_arrays, graph_json_dumps, per_pair_relation_edges,
                     runs_of_blocks, runs_of_slots)
from viewgraph import graph as graph_module
from viewgraph.cli import main as cli_main
from viewgraph.dataset import IdeaViewpoints, save_corpus, split_corpus
from viewgraph.embedding import EmbeddingMatrix, EmbeddingProvider, embed
from viewgraph.fixtures import demo_corpus
from viewgraph.graph import (
    GraphConfig,
    ViewpointGraph,
    _propose,
    add_neighbours,
    build_graph,
    export_graph_json,
    integrate_subgraph,
    load_graph,
    neighbour_slots,
    padded,
    save_graph,
    time_features,
)
from viewgraph.llm import LlmBackend, extract_corpus, parse_relation_response


def records_from(spec: dict[str, list[str]], timestamps=None) -> list[IdeaViewpoints]:
    timestamps = timestamps or {}
    return [
        IdeaViewpoints(idea_id=iid, viewpoints=tuple(texts), timestamp=timestamps.get(iid, 0))
        for iid, texts in spec.items()
    ]


def stub_matrix(records) -> EmbeddingMatrix:
    texts = [v for r in records for v in r.viewpoints]
    return embed(texts, EmbeddingProvider(provider="stub", dimension=16))


def random_instance(seed: int, max_nodes: int = 40):
    """Random ideas/viewpoints with random (non-degenerate) embeddings."""
    rng = np.random.default_rng(seed)
    n_ideas = int(rng.integers(2, 8))
    spec = {}
    total = 0
    for i in range(n_ideas):
        size = int(rng.integers(1, 8))
        size = min(size, max_nodes - total)
        if size <= 0:
            break
        spec[f"idea{i}"] = [f"idea{i} viewpoint {j}" for j in range(size)]
        total += size
    records = records_from(spec)
    matrix = EmbeddingMatrix(rng.normal(size=(total, 8)))
    k = int(rng.integers(1, 7))
    m = int(rng.integers(0, 12))
    return records, matrix, GraphConfig(k=k, m=m)


def tied_instance(seed: int):
    """Four to seven ideas whose embedding rows repeat a few distinct
    vectors, so exact similarity ties occur within and across ideas."""
    rng = np.random.default_rng(seed)
    sizes = [int(x) for x in rng.integers(1, 7, size=int(rng.integers(4, 8)))]
    records = records_from(
        {f"idea{i}": [f"idea{i} viewpoint {j}" for j in range(size)] for i, size in enumerate(sizes)}
    )
    distinct = rng.normal(size=(int(rng.integers(2, 6)), 5))
    rows = distinct[rng.integers(len(distinct), size=sum(sizes))]
    config = GraphConfig(k=int(rng.integers(1, 5)), m=int(rng.integers(0, 9)))
    return records, rows, config


def assert_matches_brute_force(graph, rows):
    config = graph.config
    expected = brute_force_graph_edges(graph.idea, rows, config.k, config.m, config.weight_floor)
    got = edge_dict(graph)
    assert set(got) == set(expected)
    for key, (w, kind) in expected.items():
        assert got[key][1] == kind
        assert got[key][0] == pytest.approx(w, abs=1e-12)


class TestTimeFeatures:
    @pytest.mark.parametrize(
        "timestamps, features",
        [
            ({"a": 2021, "b": 2022, "c": 2023}, {"a": 0.0, "b": 0.5, "c": 1.0}),
            ({"a": 5, "b": 5, "c": 5}, {"a": 0.0, "b": 0.0, "c": 0.0}),  # one instant
            ({"a": 10, "b": 700, "c": 40, "d": 300}, {"a": 0.0, "b": 1.0, "c": 30 / 690, "d": 290 / 690}),
            ({"a": 0, "b": 100, "neg": 200}, {"a": 0.0, "b": 0.5, "neg": 1.0}),  # a later negative widens the range
        ],
        ids=["three-points", "degenerate-range", "unsorted", "extra-timestamp-extends-range"],
    )
    def test_min_max_normalized(self, timestamps, features):
        assert time_features(timestamps) == features


class TestBuildSubgraph:
    """Intra edges of one idea."""

    def test_single_viewpoint_no_edges(self):
        records = records_from({"a": ["only one"]})
        matrix = stub_matrix(records)
        assert edge_dict(build_graph(records, matrix, GraphConfig())) == {}

    def test_three_nodes_form_triangle(self):
        records = records_from({"a": ["va", "vb", "vc"]})
        matrix = stub_matrix(records)
        graph = build_graph(records, matrix, GraphConfig(k=5))
        assert set(edge_dict(graph)) == {(0, 1), (0, 2), (1, 2)}

    def test_negative_cosine_clamped_to_floor(self):
        rows = np.array([[1.0, 0.1], [-1.0, 0.1]])  # cosine < 0
        matrix = EmbeddingMatrix(rows)
        graph = build_graph(records_from({"a": ["x", "y"]}), matrix, GraphConfig(weight_floor=0.0))
        assert len(graph.weight) == 1
        assert graph.weight[0] == 0.0


class TestBuildGraph:
    def test_single_idea_no_inter_edges(self):
        records = records_from({"a": ["v1", "v2", "v3"]})
        graph = build_graph(records, stub_matrix(records), GraphConfig(m=10))
        assert graph.intra.all()

    def test_two_singleton_ideas_one_inter_edge(self):
        records = records_from({"a": ["va"], "b": ["vb"]})
        graph = build_graph(records, stub_matrix(records), GraphConfig(m=1))
        assert len(graph.weight) == 1
        assert not graph.intra[0]

    def test_node_ids_in_idea_then_viewpoint_order(self):
        records = records_from({"b": ["x", "y"], "a": ["z"]})
        graph = build_graph(records, stub_matrix(records))
        assert list(enumerate(zip(graph.idea, graph.text))) == [
            (0, ("b", "x")),
            (1, ("b", "y")),
            (2, ("a", "z")),
        ]

    def test_matrix_size_must_match(self):
        records = records_from({"a": ["v1", "v2"]})
        bad = EmbeddingMatrix(np.random.default_rng(0).normal(size=(3, 4)))
        with pytest.raises(ValueError):
            build_graph(records, bad)

    def test_zero_records_give_an_empty_graph(self):
        graph = build_graph([], EmbeddingMatrix(np.zeros((0, 4))))
        assert (len(graph), len(graph.weight)) == (0, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_k_and_m_beyond_int64_select_all(self, seed):
        """A k or m too large for numpy's integers means all, as one at
        the node count does."""
        records, matrix, _ = random_instance(seed)
        huge = build_graph(records, matrix, GraphConfig(k=2**70, m=2**70))
        every = build_graph(records, matrix, GraphConfig(k=len(matrix), m=len(matrix)))
        for name in ("u", "v", "weight", "intra", "t"):
            np.testing.assert_array_equal(getattr(huge, name), getattr(every, name))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        records, matrix, config = random_instance(seed)
        assert_matches_brute_force(build_graph(records, matrix, config), matrix.rows)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_with_exact_ties(self, seed):
        records, rows, config = tied_instance(seed)
        assert_matches_brute_force(build_graph(records, EmbeddingMatrix(rows), config), rows)

    def test_weights_within_bounds_and_degree_floor(self):
        records, matrix, config = random_instance(99)
        graph = build_graph(records, matrix, config)
        assert all(config.weight_floor <= w <= 1.0 for w in graph.weight)
        for node, idea in enumerate(graph.idea):
            siblings = len(graph.idea_nodes[idea]) - 1
            foreign = len(graph) - siblings - 1
            assert kind_degree(graph, node, "intra") >= min(config.k, siblings)
            assert kind_degree(graph, node, "inter") >= min(config.m, foreign)

    def test_permutation_stable(self):
        records, matrix, config = random_instance(7)
        graph = build_graph(records, matrix, config)
        # reverse idea order, remap node ids back, compare edge sets
        perm_records = list(reversed(records))
        offsets = {}
        pos = 0
        for r in records:
            offsets[r.idea_id] = pos
            pos += len(r.viewpoints)
        perm_rows, back = [], []
        for r in perm_records:
            for j in range(len(r.viewpoints)):
                perm_rows.append(matrix.rows[offsets[r.idea_id] + j])
                back.append(offsets[r.idea_id] + j)
        perm_graph = build_graph(perm_records, EmbeddingMatrix(np.array(perm_rows)), config)
        remapped = {
            (min(back[u], back[v]), max(back[u], back[v])): edge
            for (u, v), edge in edge_dict(perm_graph).items()
        }
        original = edge_dict(graph)
        assert set(remapped) == set(original)
        for key in original:
            assert remapped[key][0] == pytest.approx(original[key][0], abs=1e-9)
            assert remapped[key][1] == original[key][1]


class TestIntegrate:
    def test_into_empty_graph_equals_build(self):
        records = records_from({"a": ["v1", "v2"]})
        matrix = stub_matrix(records)
        empty = ViewpointGraph(idea=[], text=[], t=[], config=GraphConfig())
        grown = integrate_subgraph(empty, records, matrix, np.zeros(len(matrix)))
        built = build_graph(records, matrix)
        assert grown.text == built.text
        assert {(u, v, kind) for (u, v), (_, kind) in edge_dict(grown).items()} == {
            (u, v, kind) for (u, v), (_, kind) in edge_dict(built).items()
        }

    def test_new_node_inter_degree(self):
        base = records_from({"a": ["a0", "a1"], "b": ["b0", "b1", "b2"]})
        matrix5 = stub_matrix(base)
        graph = build_graph(base, matrix5, GraphConfig(m=3))
        new = IdeaViewpoints(idea_id="c", viewpoints=("c0",), timestamp=0)
        extended = embed(
            [v for r in base for v in r.viewpoints] + ["c0"],
            EmbeddingProvider(provider="stub", dimension=16),
        )
        grown = integrate_subgraph(graph, [new], extended, np.zeros(len(extended)))
        new_id = grown.idea_nodes["c"][0]
        assert kind_degree(grown, new_id, "inter") == min(graph.config.m, len(graph))

    def test_duplicate_idea_rejected(self):
        records = records_from({"a": ["v1"]})
        matrix = stub_matrix(records)
        graph = build_graph(records, matrix)
        with pytest.raises(ValueError, match="already"):
            integrate_subgraph(graph, records, matrix, np.zeros(len(matrix)))

    def test_id_repeated_among_records_rejected_by_name(self):
        empty = ViewpointGraph(idea=[], text=[], t=[], config=GraphConfig())
        with pytest.raises(ValueError, match="^idea 'a' already in graph$"):
            integrate_subgraph(empty, records_from({"a": ["v1"]}) * 2, EmbeddingMatrix(np.ones((2, 4))), np.zeros(2))

    def test_incremental_equals_scratch_when_m_covers_everything(self):
        spec = {
            "a": ["a zero", "a one"],
            "b": ["b zero"],
            "c": ["c zero", "c one", "c two"],
            "d": ["d zero", "d one"],
        }
        records = records_from(spec)
        all_texts = [v for r in records for v in r.viewpoints]
        config = GraphConfig(k=5, m=len(all_texts))
        provider = EmbeddingProvider(provider="stub", dimension=16)
        scratch = build_graph(records, embed(all_texts, provider), config)

        grown = ViewpointGraph(idea=[], text=[], t=[], config=config)
        texts_so_far: list[str] = []
        for rec in records:
            texts_so_far.extend(rec.viewpoints)
            grown = integrate_subgraph(grown, [rec], embed(texts_so_far, provider), np.zeros(len(texts_so_far)))
        assert grown.idea == scratch.idea
        assert {(u, v, kind) for (u, v), (_, kind) in edge_dict(grown).items()} == {
            (u, v, kind) for (u, v), (_, kind) in edge_dict(scratch).items()
        }

    @pytest.mark.parametrize("seed", range(8))
    def test_one_call_equals_chain_of_single_calls(self, seed):
        records, rows, config = tied_instance(seed)
        first, new = records[:1], records[1:4]
        stop = len(first[0].viewpoints)
        base = build_graph(first, EmbeddingMatrix(rows[:stop]), config)
        chain = base
        for rec in new:
            stop += len(rec.viewpoints)
            chain = integrate_subgraph(chain, [rec], EmbeddingMatrix(rows[:stop]), np.zeros(stop))
        once = integrate_subgraph(base, new, EmbeddingMatrix(rows[:stop]), np.zeros(stop))
        assert (once.idea, once.text) == (chain.idea, chain.text)
        assert list(edge_dict(once).items()) == list(edge_dict(chain).items())


def per_node_propose(matrix, blocks, config, causal, top_k=True):
    """The build's selection as it was before it ran per block, kept as
    the reference: per node one similarity matvec and one full stable
    argsort of its siblings and of the nodes outside its block."""
    rows, norms = matrix.rows, matrix.norms
    proposed = {True: [], False: []}
    for lo, hi in blocks:
        for i in range(lo, hi):
            stop = hi if causal else None
            sims = (rows[:stop] @ rows[i]) / (norms[:stop] * norms[i])
            foreign = -sims
            siblings = foreign[lo:hi].copy()
            siblings[i - lo] = np.inf
            foreign[lo:hi] = np.inf
            if top_k:
                picked = lo + np.argsort(siblings, kind="stable")[: min(config.k, hi - lo - 1)]
                proposed[True].append((i, picked, sims[picked]))
            picked = np.argsort(foreign, kind="stable")[: min(config.m, len(sims) - (hi - lo))]
            proposed[False].append((i, picked, sims[picked]))
    found = proposed[True] + proposed[False]
    counts = [len(targets) for _, targets, _ in found]
    proposers = np.repeat(np.array([i for i, _, _ in found], dtype=np.int64), counts)
    targets = np.concatenate([np.zeros(0, np.int64)] + [targets for _, targets, _ in found])
    sims = np.concatenate([np.zeros(0)] + [sims for _, _, sims in found])
    intra = np.arange(len(sims)) < sum(counts[: len(proposed[True])])
    u, v = np.minimum(proposers, targets), np.maximum(proposers, targets)
    _, first = np.unique(u * (len(matrix) + 1) + v, return_index=True)
    return u[first], v[first], np.minimum(1.0, np.maximum(config.weight_floor, sims[first])), intra[first]


def block_instance(seed: int, dim: int = 5, n_blocks=None, distinct=None, start: int = 0):
    """Rows drawn from ``distinct`` (by default 2-7) vectors, so exact
    ties occur within and across blocks, and ``n_blocks`` (by default
    2-10) blocks of 1-8 nodes from node ``start`` on, one a singleton."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 9, size=n_blocks or int(rng.integers(2, 11)))
    sizes[rng.integers(len(sizes))] = 1
    n = start + int(sizes.sum())
    vectors = rng.normal(size=(distinct or int(rng.integers(2, 8)), dim))
    rows = vectors[rng.integers(len(vectors), size=n)]
    stops = start + np.cumsum(sizes)
    return EmbeddingMatrix(rows), list(zip((stops - sizes).tolist(), stops.tolist()))


class TestAgainstPerNodeArgsort:
    """Selection over runs of blocks gives the per-node argsort's edges bit
    for bit, whether each run is one block, all blocks or fills the
    default budget. Run under a threaded BLAS too: it rests on a stacked
    matmul running one gemv per row."""

    MODES = {  # mode -> (causal, top_k, first block's start); hybrid is top_k off: no relation pairs
        "full": (False, True, 0),
        "hybrid": (False, False, 0),
        "causal": (True, True, 0),
        "causal-after-old-nodes": (True, True, 5),
    }

    def assert_same(self, matrix, blocks, config, causal, top_k):
        got = _propose(matrix, blocks, config, causal, None if top_k else [np.zeros((2, 0), np.int64)] * len(blocks))
        want = per_node_propose(matrix, blocks, config, causal, top_k)
        for name, g, w in zip(("u", "v", "weight", "intra"), got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), name

    @pytest.mark.parametrize("k, m", [(1, 0), (3, 4), (8, 1000)])  # k >= 8 and m >= n cover every node
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(8))
    def test_small_blocks_with_ties(self, seed, mode, k, m):
        causal, top_k, start = self.MODES[mode]
        matrix, blocks = block_instance(seed, start=start)
        self.assert_same(matrix, blocks, GraphConfig(k=k, m=m), causal, top_k)

    @pytest.mark.parametrize("distinct", [6, 1000])
    @pytest.mark.parametrize("mode", MODES)
    def test_hundreds_of_nodes(self, mode, distinct):
        causal, top_k, start = self.MODES[mode]
        matrix, blocks = block_instance(1, dim=32, n_blocks=100, distinct=distinct, start=start)
        self.assert_same(matrix, blocks, GraphConfig(k=5, m=10), causal, top_k)

    @pytest.mark.parametrize("budget", [8, 1 << 40], ids=["one-block-runs", "one-run"])  # RANK_BYTES
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(4))
    def test_runs_of_one_block_or_all(self, seed, mode, budget, monkeypatch):
        monkeypatch.setattr(graph_module, "RANK_BYTES", budget)
        causal, top_k, start = self.MODES[mode]
        for matrix, blocks in (block_instance(seed, start=start),
                               block_instance(seed, dim=32, n_blocks=100, distinct=6, start=start)):
            self.assert_same(matrix, blocks, GraphConfig(k=3, m=4), causal, top_k)

    def test_default_budget_ranks_hundreds_of_nodes_in_several_runs(self, monkeypatch):
        matrix, blocks = block_instance(1, dim=32, n_blocks=100)
        runs = []
        monkeypatch.setattr(graph_module, "_smallest", lambda keys, count, real=graph_module._smallest:
                            runs.append(len(keys)) or real(keys, count))
        _propose(matrix, blocks, GraphConfig(), False)
        assert 2 < len(runs) // 2 < len(blocks) and sum(runs) == 2 * len(matrix)


@pytest.mark.parametrize("seed", range(40))
def test_runs_equal_the_loops_they_replace(seed):
    """``_runs`` cuts the runs that the build and the neighbour gather each
    cut with a loop of their own, on random parts: empty ones, ones larger
    than the budget, and none at all; with budgets of 0, 1, a few, and
    more than all parts."""
    rng = np.random.default_rng(seed)
    sizes = rng.choice([0, 0, 1, 2, 5, 13], size=seed % 12)  # seeds 0, 12, 24 and 36: no parts
    start = int(rng.integers(0, 20))
    bounds = (start + np.cumsum(np.r_[0, sizes])).tolist()
    blocks = list(zip(bounds[:-1], bounds[1:]))
    for budget in (0, 1, int(rng.integers(2, 15)), bounds[-1] - start + 1):
        want = runs_of_blocks(blocks, budget)
        assert graph_module._runs(bounds, budget) == want == runs_of_slots(bounds, budget), budget


def pair_instance(seed: int):
    """Four to seven ideas whose relation pairs name their viewpoints (in
    other case and spacing too), repeated, reversed, naming one viewpoint
    twice, naming a text no viewpoint has, or naming a text two viewpoints
    share. Rows repeat a few 32-dim vectors around a common direction, so
    ties occur, most similarities are above the floor, and a gemv's
    similarity of a to b may differ in the last bit from that of b to a."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(int(rng.integers(4, 8))):
        texts = [f"idea{i} viewpoint {j}" for j in range(int(rng.integers(1, 9)))]
        if len(texts) > 2 and rng.random() < 0.5:
            texts[-1] = texts[0].upper()  # a text two viewpoints share
        names = texts + [f"  {texts[0].upper()} ", "no such viewpoint"]
        pairs = []
        for _ in range(int(rng.integers(0, 3 * len(texts) + 1))):
            left, right = (names[j] for j in rng.integers(len(names), size=2))
            pairs.append((left, "and", ["supporting", "opposing"][int(rng.integers(2))], right))
            if rng.random() < 0.3:
                pairs.append(pairs[-1] if rng.random() < 0.5 else (right, "so", "supporting", left))
        records.append(IdeaViewpoints(f"idea{i}", tuple(texts), pairs=tuple(pairs)))
    distinct = rng.normal(size=(int(rng.integers(3, 12)), 32)) + 0.5
    rows = distinct[rng.integers(len(distinct), size=sum(len(rec.viewpoints) for rec in records))]
    config = GraphConfig(k=int(rng.integers(1, 5)), m=int(rng.integers(0, 9)), hybrid=True,
                         weight_floor=float(rng.choice([0.0, 0.3])))
    return records, EmbeddingMatrix(rows), config


class TestAgainstPerPairWeights:
    """Hybrid intra edges, weighted from the build's block similarity rows,
    equal one similarity row per relation pair bit for bit, and the inter
    edges are the top-k build's."""

    def assert_same(self, records, matrix, config):
        graph = build_graph(records, matrix, config)
        pu, pv, pw = per_pair_relation_edges(records, matrix, config.weight_floor)
        top_k = build_graph(records, matrix, replace(config, hybrid=False))
        inter = ~top_k.intra
        u, v = np.r_[pu, top_k.u[inter]], np.r_[pv, top_k.v[inter]]
        order = np.lexsort((v, u))
        want = u[order], v[order], np.r_[pw, top_k.weight[inter]][order], (np.arange(len(u)) < len(pu))[order]
        for name, w in zip(("u", "v", "weight", "intra"), want):
            got = getattr(graph, name)
            assert got.dtype == w.dtype and np.array_equal(got, w), name
        return graph

    @pytest.mark.parametrize("seed", range(40))
    def test_random_records_with_ties(self, seed):
        records, matrix, config = pair_instance(seed)
        self.assert_same(records, matrix, config)

    def test_demo12(self):
        corpus = split_corpus(demo_corpus(), (0.7, 0.1, 0.2), seed=7)
        records, _ = extract_corpus(corpus.ideas, LlmBackend(relations=True), seed=7)
        graph = self.assert_same(records, stub_matrix(records), GraphConfig(k=2, m=4, hybrid=True))
        assert graph.intra.sum() > 10

    def test_build_makes_no_per_pair_similarity_call(self, monkeypatch):
        """The build takes similarities for whole blocks, at most one call
        per block, whatever the budget; integrating takes exactly one per
        new block, over the rows up to its end (a longer prefix may round
        differently)."""
        records, matrix, config = pair_instance(0)
        ends = np.cumsum([len(rec.viewpoints) for rec in records]).tolist()
        calls = []
        real = EmbeddingMatrix.similarities
        monkeypatch.setattr(EmbeddingMatrix, "similarities",
                            lambda self, lo, hi, stop=None: calls.append((lo, hi, stop)) or real(self, lo, hi, stop))
        for budget, spans in [(graph_module.RANK_BYTES, [(0, ends[-1])]),  # all blocks in one run
                              (8, list(zip([0] + ends[:-1], ends)))]:  # one block per run
            monkeypatch.setattr(graph_module, "RANK_BYTES", budget)
            calls.clear()
            build_graph(records, matrix, config)
            assert calls == [(lo, hi, None) for lo, hi in spans]

        base = build_graph(records[:1], EmbeddingMatrix(matrix.rows[:ends[0]]), replace(config, hybrid=False))
        calls.clear()
        integrate_subgraph(base, records[1:], matrix, np.zeros(len(matrix)))
        assert calls == [(lo, hi, hi) for lo, hi in zip(ends[:-1], ends[1:])]


@pytest.mark.parametrize("seed", range(6))
def test_arcs_are_each_edge_both_ways_by_dst_then_src(seed):
    """The directed view against a lexsort of both directions, on edges
    given shuffled and in either orientation."""
    records, rows, config = tied_instance(seed)
    built = build_graph(records, EmbeddingMatrix(rows), config)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(built.weight))
    flip = rng.random(len(order)) < 0.5
    u, v = np.where(flip, built.v, built.u)[order], np.where(flip, built.u, built.v)[order]
    graph = ViewpointGraph(built.idea, built.text, built.t, u, v, built.weight[order], built.intra[order])
    src, dst = np.r_[graph.u, graph.v], np.r_[graph.v, graph.u]
    want = np.lexsort((src, dst))
    assert np.array_equal(graph.arcs.src, src[want]) and np.array_equal(graph.arcs.dst, dst[want])
    assert np.array_equal(graph.arcs.weight, np.r_[graph.weight, graph.weight][want])
    assert np.array_equal(graph.arcs.indptr, np.r_[0, np.cumsum(np.bincount(dst, minlength=len(graph)))])


def random_graph(seed: int, n: int, edges: int) -> ViewpointGraph:
    """``n`` nodes, the last fifth isolated, joined by up to ``edges``
    distinct pairs, given shuffled and in either orientation, whose weights
    tie exactly; nodes form ideas of up to three."""
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, n - n // 5, size=(2, 4 * edges))
    u, v = u[u != v], v[u != v]
    _, first = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)
    u, v = u[np.sort(first)[:edges]], v[np.sort(first)[:edges]]  # in the order drawn
    idea = [f"idea{i // 3}" for i in range(n)]
    same = np.array(idea)[u] == np.array(idea)[v]
    weight = rng.choice([0.0, 0.25, 0.5, 1.0], size=len(u))
    return ViewpointGraph(idea, [f"v{i}" for i in range(n)], np.zeros(n), u, v, weight, same)


RANDOM_GRAPHS = {
    "edgeless": (0, 7, 0),
    "one-edge": (1, 3, 1),
    "sparse": (2, 40, 30),
    "dense": (3, 30, 300),
    "hundreds": (4, 600, 5000),
    "over-16-bit-node-ids": (5, 70_000, 3000),
}


@pytest.mark.parametrize("case", list(RANDOM_GRAPHS))
def test_arcs_equal_a_stable_sort_by_dst(case):
    """The arcs placed by counting against the stable argsort of both
    directions by dst that placed them before."""
    graph = random_graph(*RANDOM_GRAPHS[case])
    src, dst = np.concatenate([graph.u, graph.v]), np.concatenate([graph.v, graph.u])
    order = np.argsort(dst, kind="stable")
    indptr = np.zeros(len(graph) + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=len(graph)), out=indptr[1:])
    want = (src[order], dst[order], np.concatenate([graph.weight, graph.weight])[order], indptr)
    for got, expected in zip(graph.arcs, want):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def arc_loop_reference(out, arcs, values):
    """Each node's row of ``out`` plus ``weight * values[src]`` of each arc
    into it, added one arc at a time in ascending source order."""
    for dst, src, weight in zip(arcs.dst.tolist(), arcs.src.tolist(), arcs.weight.tolist()):
        out[dst] += weight * values[src]
    return out


@pytest.mark.parametrize("budget", ["default", "one row", "all arcs"])
@pytest.mark.parametrize("width", [1, 2, 4, 64])
@pytest.mark.parametrize("case", list(RANDOM_GRAPHS))
def test_add_neighbours_equals_the_arc_loop(case, width, budget, monkeypatch):
    """Bit for bit, whether each slot is gathered on its own, all slots
    are gathered at once, or runs of slots fill the default budget."""
    graph = random_graph(*RANDOM_GRAPHS[case])
    arcs, row_bytes = graph.arcs, width * 8
    slots = neighbour_slots(arcs)
    gathers = {"one row": int(np.diff(arcs.indptr).max(initial=0)), "all arcs": min(len(arcs.src), 1)}
    if budget != "default":
        monkeypatch.setattr(graph_module, "GATHER_BYTES", row_bytes if budget == "one row" else len(arcs.src) * row_bytes)
    rng = np.random.default_rng(width)
    values, start = rng.normal(size=(len(graph), width)), rng.normal(size=(len(graph), width))
    taken = []
    monkeypatch.setattr(np, "take", lambda *args, take=np.take, **kwargs: taken.append(1) or take(*args, **kwargs))
    got = add_neighbours(start.copy(), slots, values)
    if budget != "default":
        assert len(taken) == gathers[budget]
    assert np.array_equal(got, arc_loop_reference(start.copy(), arcs, values))
    assert np.array_equal(add_neighbours(start.copy(), slots, values), got)  # the buffer is not kept between calls


def idea_nodes_reference(idea):
    """``idea_nodes`` as the per-node loop built it."""
    nodes = {}
    for node, idea_id in enumerate(idea):
        nodes.setdefault(idea_id, []).append(node)
    return nodes


def kind_error_reference(idea, u, v, intra):
    """The first intra/inter flag error, as ``_validate`` found it from
    its own dict of idea codes; None when every flag is right."""
    code = dict(zip(idea_nodes_reference(idea), range(len(set(idea)))))
    ideas = np.fromiter(map(code.__getitem__, idea), np.int64, len(idea))
    same_idea = ideas[u] == ideas[v]
    for mask, problem in ((intra & ~same_idea, "is intra but joins different ideas"),
                          (~intra & same_idea, "is inter but joins the same idea")):
        if mask.any():
            i = int(np.argmax(mask))
            return f"edge ({u[i]}, {v[i]}) {problem}"
    return None


@pytest.mark.parametrize("interleaved", [False, True], ids=["contiguous", "interleaved"])
@pytest.mark.parametrize("case", list(RANDOM_GRAPHS))
def test_idea_nodes_and_kind_errors_equal_the_node_loop(case, interleaved):
    """``idea_nodes`` and the intra/inter flag errors, from the one pass
    over node ideas, equal the per-node loop and the dict of codes they
    replace; also with each idea's nodes spread over the node range."""
    graph = random_graph(*RANDOM_GRAPHS[case])
    idea = [f"idea{i % 7}" for i in range(len(graph))] if interleaved else graph.idea
    same = np.array(idea)[graph.u] == np.array(idea)[graph.v]
    rebuilt = ViewpointGraph(idea, graph.text, graph.t, graph.u, graph.v, graph.weight, same)
    assert rebuilt.idea_nodes == idea_nodes_reference(idea)
    assert list(rebuilt.idea_nodes) == list(dict.fromkeys(idea))
    rng = np.random.default_rng(len(graph))
    for flipped in rng.permutation(len(same))[:5]:
        intra = same.copy()
        intra[flipped] = ~intra[flipped]
        with pytest.raises(ValueError) as raised:
            ViewpointGraph(idea, graph.text, graph.t, graph.u, graph.v, graph.weight, intra)
        assert str(raised.value) == kind_error_reference(idea, graph.u, graph.v, intra)


@st.composite
def node_groups(draw):
    """Rows of 2-10 values, some all zero, and 1-6 groups of 1-59 node ids
    each, repeats allowed."""
    n, width = draw(st.integers(1, 30)), draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = rng.choice([0.0, 0.1, 1 / 3, 0.7, 1.0], (n, width))
    values = np.where(rng.random((n, width)) < 0.3, ties, rng.random((n, width)))
    values[rng.random(n) < 0.2] = 0.0
    groups = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=59), min_size=1, max_size=6))
    return values, groups


@given(node_groups())
@example((np.eye(3)[[0, 1, 1, 2]] * [0.1, 0.7, 1 / 3], [[0, 1, 2, 3, 1, 2, 0, 1, 3]]))  # one group of 9
@example((np.array([[0.1, 0.2], [0.0, 0.0], [1 / 3, 0.7]]), [[1], [0, 2, 1, 2, 0, 2, 0, 2], [2, 1]]))  # sizes 1, 8, 2
@settings(max_examples=200, deadline=None)
def test_padded_table_sums_equal_the_per_group_sums(case):
    """The padded table holds each group's nodes in order, padded with node
    0, and its masked sum equals each group's own sum bit for bit."""
    values, groups = case
    index, present = padded(groups)
    assert index[present].tolist() == [i for group in groups for i in group]
    assert present.sum(axis=1).tolist() == [len(group) for group in groups] and not index[~present].any()
    summed = np.where(present[:, :, None], values[index], 0.0).sum(axis=1)
    assert np.array_equal(summed, [values[group].sum(axis=0) for group in groups])


def test_graph_arrays_are_read_only():
    """A graph is handed from stage to stage within a run: a write into one
    of its arrays fails instead of changing what a later stage reads."""
    graph = toy_graph(["a", "a", "b"], [(0, 1, 0.5), (1, 2, 0.25)])
    for name, array in [(name, getattr(graph, name)) for name in ("t", "u", "v", "weight", "intra")] + list(
        graph.arcs._asdict().items()
    ):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
        assert not array.flags.writeable, name


@pytest.mark.parametrize("seed", range(6))
def test_flipped_or_unsorted_edges_give_the_graph_of_sorted_edges(seed):
    records, rows, config = tied_instance(seed)
    built = build_graph(records, EmbeddingMatrix(rows), config)
    rng = np.random.default_rng(seed)
    nodes = (built.idea, built.text, built.t)
    edges = (built.u, built.v, built.weight, built.intra)
    sorted_graph = ViewpointGraph(*nodes, *edges, config=config)
    in_order, by_u_alone = np.arange(len(built.weight)), np.lexsort((-built.v, built.u))
    for flip_share, order in [(0.5, in_order), (0.0, rng.permutation(in_order)), (0.5, rng.permutation(in_order)),
                              (0.0, by_u_alone)]:
        flip = rng.random(len(order)) < flip_share
        u, v = np.where(flip, built.v, built.u)[order], np.where(flip, built.u, built.v)[order]
        given = ViewpointGraph(*nodes, u, v, built.weight[order], built.intra[order], config=config)
        assert_same_graph(given, sorted_graph)


class TestConfig:
    def test_defaults(self):
        config = GraphConfig()
        assert (config.k, config.m) == (5, 10)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            GraphConfig(k=0)


BASES = ("graphs help.", "trees hurt.", "nodes link up.")


@st.composite
def spelled(draw, text: str) -> str:
    """``text`` in random case, each space a random run of whitespace."""
    return "".join(draw(st.sampled_from([" ", "  ", "\t", " \n"])) if c == " " else
                   c.upper() if draw(st.booleans()) else c for c in text)


@st.composite
def relation_case(draw) -> tuple[list[str], str]:
    """Viewpoints spelled from a few texts, some equal once normalized, and
    a relation completion whose endpoints are spelled from them or unknown."""
    views = draw(st.lists(st.sampled_from(BASES).flatmap(spelled), min_size=1, max_size=6))
    named = st.sampled_from(BASES + ("no such view.",)).flatmap(spelled)
    lines = draw(st.lists(st.tuples(named, st.sampled_from(["supporting", "opposing", "neither"]), named), max_size=8))
    return views, "\n".join(f"{{[{left}], [so], [{polarity}], [{right}]}}" for left, polarity, right in lines)


class TestHybrid:
    def test_intra_edges_from_pairs(self):
        rec = IdeaViewpoints(
            idea_id="a",
            viewpoints=("first claim", "second claim", "third claim"),
            timestamp=0,
            pairs=(("first claim", "however", "opposing", "second claim"),),
        )
        matrix = stub_matrix([rec])
        graph = build_graph([rec], matrix, GraphConfig(hybrid=True))
        intra = [(u, v) for u, v, is_intra in zip(graph.u.tolist(), graph.v.tolist(), graph.intra) if is_intra]
        assert len(graph.weight) == len(intra) == 1
        assert intra == [(0, 1)]

    def test_stored_pair_and_its_edge_name_the_same_viewpoint(self):
        """Two viewpoints equal once normalized: the parsed pair stores the
        first one's text, and the build joins the first one's node."""
        views = ("Graphs help.", "graphs  help.", "Trees hurt.")
        pairs, dropped = parse_relation_response("{[graphs help.], [therefore], [supporting], [Trees hurt.]}", views)
        assert (pairs, dropped) == ([("Graphs help.", "therefore", "supporting", "Trees hurt.")], 0)
        rec = IdeaViewpoints("a", views, pairs=tuple(pairs))
        graph = build_graph([rec], stub_matrix([rec]), GraphConfig(hybrid=True))
        intra = [(u, v) for u, v, is_intra in zip(graph.u.tolist(), graph.v.tolist(), graph.intra) if is_intra]
        assert intra == [(0, 2)]
        assert [graph.text[u] for u in intra[0]] == [pairs[0][0], pairs[0][3]]

    @given(relation_case())
    @settings(max_examples=50, deadline=None)
    def test_every_parsed_pair_is_joined_at_the_viewpoints_it_stores(self, case):
        views, raw = case
        pairs, _ = parse_relation_response(raw, views)
        rec = IdeaViewpoints("a", tuple(views), pairs=tuple(pairs))
        assert graph_module._pair_edges(rec).T.tolist() == [
            [views.index(left), views.index(right)] for left, _connector, _polarity, right in pairs]


def demo12_graph(hybrid: bool) -> ViewpointGraph:
    corpus = split_corpus(demo_corpus(), (0.7, 0.1, 0.2), seed=7)
    records, _ = extract_corpus(corpus.ideas, LlmBackend(relations=hybrid), seed=7)
    return build_graph(records, stub_matrix(records), GraphConfig(k=2, m=4, hybrid=hybrid))


def tied_graph(seed: int) -> ViewpointGraph:
    records, rows, config = tied_instance(seed)
    return build_graph(records, EmbeddingMatrix(rows), config)


def zero_edge_graph() -> ViewpointGraph:
    records = records_from({"a": ["only claim"], "b": ["other claim"]})
    return build_graph(records, stub_matrix(records), GraphConfig(m=0))


GRAPH_CASES = {
    "demo12": lambda: demo12_graph(False),
    "demo12-hybrid": lambda: demo12_graph(True),
    "zero-edges": zero_edge_graph,
    "floor-0.25": lambda: build_graph(*random_instance(3)[:2], GraphConfig(k=2, m=3, weight_floor=0.25)),
    **{f"ties-{seed}": (lambda seed=seed: tied_graph(seed)) for seed in range(4)},
}


class TestSerialization:
    """``save_graph`` writes graph.bin, which ``load_graph`` reads back
    whole, config included; ``export_graph_json`` writes the same graph as
    JSON for other tools."""

    @pytest.mark.parametrize("case", sorted(GRAPH_CASES))
    def test_round_trip(self, tmp_path, case):
        graph = GRAPH_CASES[case]()
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_graph(graph, first)
        loaded = load_graph(first)
        assert_same_graph(loaded, graph)
        assert loaded.config == graph.config and loaded.config.hybrid == (case == "demo12-hybrid")
        save_graph(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("case", sorted(GRAPH_CASES))
    def test_load_equals_the_json_export(self, tmp_path, case):
        graph = GRAPH_CASES[case]()
        save_graph(graph, tmp_path / "graph.bin")
        export_graph_json(graph, tmp_path / "graph.json")
        loaded = load_graph(tmp_path / "graph.bin")
        exported = graph_json_arrays(tmp_path / "graph.json")
        assert (loaded.idea, loaded.text) == (exported["idea"], exported["text"])
        for name in ("t", "u", "v", "weight", "intra"):
            assert np.array_equal(getattr(loaded, name), exported[name]), name
        config = loaded.config
        assert exported["config"] == {"k": config.k, "m": config.m, "weight_floor": config.weight_floor}

    def test_hybrid_export_keeps_four_entries_per_edge(self, tmp_path):
        rec = IdeaViewpoints(
            idea_id="a",
            viewpoints=("first claim", "second claim", "third claim"),
            pairs=(("first claim", "however", "opposing", "second claim"),
                   ("third claim", "so", "supporting", "first claim")),
        )
        records = [rec] + records_from({"b": ["other claim", "more claim"]})
        graph = build_graph(records, stub_matrix(records), GraphConfig(hybrid=True, m=2))
        export_graph_json(graph, tmp_path / "graph.json")
        payload = json.loads((tmp_path / "graph.json").read_text())
        assert {len(edge) for edge in payload["edges"]} == {4} and set(payload["config"]) == {"k", "m", "weight_floor"}
        assert graph.intra.sum() == 2

    def test_built_graph_loads_back_column_for_column(self, tmp_path):
        records = records_from({f"idea{i}": [f"idea {i} claim {j} on topic {(i * j) % 7}" for j in range(6)]
                                for i in range(100)})
        graph = build_graph(records, stub_matrix(records))
        path = tmp_path / "graph.bin"
        save_graph(graph, path)
        loaded = load_graph(path)
        for name in ("u", "v", "weight", "intra"):
            assert np.array_equal(getattr(loaded, name), getattr(graph, name)), name
        assert all(np.array_equal(a, b) for a, b in zip(loaded.arcs, graph.arcs))

    # The GNN computes weight * ReLU(m) for ReLU(weight * m), equal only
    # for weights in [0, 1].
    @pytest.mark.parametrize("weight", [-0.25, -1e-300, float("nan")], ids=["negative", "tiny-negative", "nan"])
    def test_weight_outside_unit_interval_rejected_at_construction(self, weight):
        with pytest.raises(ValueError, match=r"edge \(1, 2\) has weight outside \[0, 1\]"):
            toy_graph(["a", "a", "b"], [(0, 1, 0.5), (2, 1, weight)])


# texts and numbers whose JSON needs care: escapes, non-ASCII, the
# shortest float reprs, a subnormal and a negative zero
ODD_TEXTS = ['say "no"', "back\\slash", "new\nline\ttab", "nul\x00 and \x1f", "café", "图模型", "emoji 😀",
             "line\u2028separator", "plain"]
ODD_NUMBERS = [0.0, -0.0, 1.0, 1e-05, 5e-324, 0.1, 1 / 3, 2 / 3, 0.30000000000000004]
EXPORT_CASES = {"single-node": (0, 1, 0), "edgeless": (1, 7, 0), "one-edge": (2, 3, 1), "sparse": (3, 40, 30),
                "dense": (4, 30, 300), "hundreds": (5, 600, 5000)}


def export_graph(seed: int, n: int, edges: int) -> ViewpointGraph:
    """``random_graph``'s nodes and edges, with odd texts, ideas, time
    features and weights (half of them random) and a random config."""
    graph = random_graph(seed, n, edges) if n > 1 else toy_graph(["a"], [])
    rng = np.random.default_rng(seed)
    pick = lambda values, size: [values[i] for i in rng.integers(len(values), size=size)]  # noqa: E731
    weight = np.where(rng.random(len(graph.weight)) < 0.5, pick(ODD_NUMBERS, len(graph.weight)),
                      rng.random(len(graph.weight)))
    text = [f"{odd} {i}" for i, odd in enumerate(pick(ODD_TEXTS, len(graph)))]
    names = {idea: f"{ODD_TEXTS[j % len(ODD_TEXTS)]} {j}" for j, idea in enumerate(dict.fromkeys(graph.idea))}
    idea = [names[idea] for idea in graph.idea]
    t = np.where(rng.random(len(graph)) < 0.5, pick(ODD_NUMBERS, len(graph)), rng.random(len(graph)))
    config = GraphConfig(k=int(rng.integers(1, 9)), m=int(rng.integers(0, 20)), weight_floor=pick(ODD_NUMBERS[2:5], 1)[0])
    return ViewpointGraph(idea, text, t, graph.u, graph.v, weight, graph.intra, config=config)


class TestAgainstJsonDumpsExport:
    """graph.json, written from the edge columns, holds the bytes of
    ``json.dumps`` of the documented object."""

    @pytest.mark.parametrize("case", list(EXPORT_CASES))
    def test_random_graphs_with_odd_texts_and_weights(self, tmp_path, case):
        graph = export_graph(*EXPORT_CASES[case])
        export_graph_json(graph, tmp_path / "graph.json")
        assert (tmp_path / "graph.json").read_bytes() == graph_json_dumps(graph)

    @pytest.mark.parametrize("case", sorted(GRAPH_CASES))
    def test_built_graphs(self, tmp_path, case):
        graph = GRAPH_CASES[case]()
        export_graph_json(graph, tmp_path / "graph.json")
        assert (tmp_path / "graph.json").read_bytes() == graph_json_dumps(graph)


def rewrite_header(path, change):
    line, _, blob = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    change(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)


def rewrite_arrays(path, change):
    """``change`` edits graph.bin's arrays, given by name as writable copies."""
    line, _, blob = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    arrays, start = {}, 0
    for name, dtype in header["dtypes"].items():
        arrays[name] = np.frombuffer(blob, dtype, len(header["idea"]) if name == "t" else header["edges"], start).copy()
        start += arrays[name].nbytes
    change(arrays)
    path.write_bytes(line + b"\n" + b"".join(array.tobytes() for array in arrays.values()))


def set_entry(name, index, value):
    return lambda path: rewrite_arrays(path, lambda arrays: arrays[name].__setitem__(index, value))


def repeat_first_edge(arrays):
    for name in ("u", "v", "weight", "intra"):
        arrays[name][1] = arrays[name][0]


# Each damage of the demo12 graph.bin, with what the error names after
# "graph file PATH: ".
DAMAGES = {
    "empty": (lambda path: path.write_bytes(b""), "header is not JSON"),
    "header-only": (lambda path: path.write_bytes(path.read_bytes().partition(b"\n")[0]), "blob is 0 bytes"),
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:-1]), "blob is"),
    "one-byte-more": (lambda path: path.write_bytes(path.read_bytes() + b"\0"), "blob is"),
    "one-edge-fewer": (lambda path: rewrite_header(path, lambda h: h.update(edges=h["edges"] - 1)), "blob is"),
    "one-node-more": (lambda path: rewrite_header(path, lambda h: (h["idea"].append("a"), h["text"].append("x"))),
                      "blob is"),
    "header-not-json": (lambda path: path.write_bytes(b"{" + path.read_bytes()), "header is not JSON"),
    "header-a-list": (lambda path: path.write_bytes(b"[]\n" + path.read_bytes().partition(b"\n")[2]),
                      "header must be an object, got list"),
    "json-export": (lambda path: export_graph_json(load_graph(path), path),
                    "header 'dtypes' must be"),
    "float32-t": (lambda path: rewrite_header(path, lambda h: h["dtypes"].update(t="<f4")), "header 'dtypes' must be"),
    "big-endian-u": (lambda path: rewrite_header(path, lambda h: h["dtypes"].update(u=">i8")), "header 'dtypes' must be"),
    "bad-config": (lambda path: rewrite_header(path, lambda h: h["config"].update(k=0)), "config.k: must be >= 1, got 0"),
    "config-a-list": (lambda path: rewrite_header(path, lambda h: h.update(config=[5, 10])), "config: must be an object"),
    "config-missing-k": (lambda path: rewrite_header(path, lambda h: h["config"].pop("k")), "config has no k"),
    "config-empty": (lambda path: rewrite_header(path, lambda h: h.update(config={})),
                     "config has no k, m, weight_floor, hybrid"),
    "config-unknown-key": (lambda path: rewrite_header(path, lambda h: h["config"].update(polarity=True)),
                           "config.polarity: unknown key"),
    "null-edges": (lambda path: rewrite_header(path, lambda h: h.update(edges=None)),
                   "header 'edges' must be an int, got NoneType"),
    "int-idea": (lambda path: rewrite_header(path, lambda h: h["idea"].__setitem__(0, 3)),
                 "header 'idea' must be a list of strings, got item 3"),
    "texts-fewer-than-ideas": (lambda path: rewrite_header(path, lambda h: h["text"].pop()),
                               "48 node ideas, 47 texts and 48 time features"),
    "self-loop": (set_entry("v", 0, 0), "is a self-loop"),
    "endpoint-out-of-range": (set_entry("v", -1, 48), "references unknown node"),
    "negative-endpoint": (set_entry("u", 0, -1), "references unknown node"),
    "duplicate-pair": (lambda path: rewrite_arrays(path, repeat_first_edge), "listed more than once"),
    "intra-flag-flipped": (set_entry("intra", 0, 0), "is inter but joins the same idea"),
    "intra-flag-set-on-inter-edge": (
        lambda path: rewrite_arrays(path, lambda a: a["intra"].__setitem__(np.flatnonzero(a["intra"] == 0)[0], 1)),
        "is intra but joins different ideas"),
    "weight-above-one": (set_entry("weight", 0, 1.5), "has weight outside [0, 1]"),
    "nan-weight": (set_entry("weight", 0, np.nan), "has weight outside [0, 1]"),
    "nan-t": (set_entry("t", 0, np.nan), "node 0 has time feature nan"),
}


class TestMalformedFile:
    """A damaged graph file is refused, naming it; there is no other file
    to fall back on."""

    @pytest.fixture
    def damaged(self, tmp_path, request):
        path = tmp_path / "graph.bin"
        save_graph(demo12_graph(False), path)
        damage, expected = DAMAGES[request.param]
        damage(path)
        return path, expected

    @pytest.mark.parametrize("damaged", sorted(DAMAGES), indirect=True)
    def test_load_names_the_file(self, damaged):
        path, expected = damaged
        with pytest.raises(ValueError) as err:
            load_graph(path)
        assert str(err.value).startswith(f"graph file {path}: ") and expected in str(err.value)

    @pytest.mark.parametrize("damaged", sorted(DAMAGES), indirect=True)
    def test_lp_ends_in_one_error_line(self, tmp_path, capsys, damaged):
        path, expected = damaged
        split = tmp_path / "split.jsonl"
        save_corpus(split_corpus(demo_corpus(), (0.7, 0.1, 0.2), seed=7), split)
        argv = ["lp", "--graph", str(path), "--corpus", str(split), "--out", str(tmp_path / "lp.jsonl"), "--quiet"]
        assert cli_main(argv) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: graph file {path}: ") and stderr.count("\n") == 1 and expected in stderr
        assert not (tmp_path / "lp.jsonl").exists()

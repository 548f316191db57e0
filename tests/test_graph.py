from __future__ import annotations

import json

import numpy as np
import pytest

from graphs import edge_dict, kind_degree
from oracles import brute_force_graph_edges
from viewgraph.dataset import IdeaViewpoints
from viewgraph.embedding import EmbeddingMatrix, EmbeddingProvider, embed
from viewgraph.graph import (
    GraphConfig,
    ViewpointGraph,
    build_graph,
    integrate_subgraph,
    load_graph,
    save_graph,
)


def records_from(spec: dict[str, list[str]], timestamps=None) -> list[IdeaViewpoints]:
    timestamps = timestamps or {}
    return [
        IdeaViewpoints(idea_id=iid, viewpoints=tuple(texts), timestamp=timestamps.get(iid, 0))
        for iid, texts in spec.items()
    ]


def stub_matrix(records) -> EmbeddingMatrix:
    texts = [v for r in records for v in r.viewpoints]
    return embed(texts, EmbeddingProvider(kind="stub", dimension=16))


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
    return records, matrix, GraphConfig(intra_k=k, inter_m=m)


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
    config = GraphConfig(intra_k=int(rng.integers(1, 5)), inter_m=int(rng.integers(0, 9)))
    return records, rows, config


def assert_matches_brute_force(graph, rows):
    config = graph.config
    expected = brute_force_graph_edges(graph.idea, rows, config.intra_k, config.inter_m, config.weight_floor)
    got = edge_dict(graph)
    assert set(got) == set(expected)
    for key, (w, kind) in expected.items():
        assert got[key][1] == kind
        assert got[key][0] == pytest.approx(w, abs=1e-12)


class TestBuildSubgraph:
    """Intra edges of one idea."""

    def test_single_viewpoint_no_edges(self):
        records = records_from({"a": ["only one"]})
        matrix = stub_matrix(records)
        assert edge_dict(build_graph(records, matrix, GraphConfig())) == {}

    def test_three_nodes_form_triangle(self):
        records = records_from({"a": ["va", "vb", "vc"]})
        matrix = stub_matrix(records)
        graph = build_graph(records, matrix, GraphConfig(intra_k=5))
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
        graph = build_graph(records, stub_matrix(records), GraphConfig(inter_m=10))
        assert graph.intra.all()

    def test_two_singleton_ideas_one_inter_edge(self):
        records = records_from({"a": ["va"], "b": ["vb"]})
        graph = build_graph(records, stub_matrix(records), GraphConfig(inter_m=1))
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
            assert kind_degree(graph, node, "intra") >= min(config.intra_k, siblings)
            assert kind_degree(graph, node, "inter") >= min(config.inter_m, foreign)

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
        grown = integrate_subgraph(empty, records, matrix)
        built = build_graph(records, matrix)
        assert grown.text == built.text
        assert {(u, v, kind) for (u, v), (_, kind) in edge_dict(grown).items()} == {
            (u, v, kind) for (u, v), (_, kind) in edge_dict(built).items()
        }

    def test_new_node_inter_degree(self):
        base = records_from({"a": ["a0", "a1"], "b": ["b0", "b1", "b2"]})
        matrix5 = stub_matrix(base)
        graph = build_graph(base, matrix5, GraphConfig(inter_m=3))
        new = IdeaViewpoints(idea_id="c", viewpoints=("c0",), timestamp=0)
        extended = embed(
            [v for r in base for v in r.viewpoints] + ["c0"],
            EmbeddingProvider(kind="stub", dimension=16),
        )
        grown = integrate_subgraph(graph, [new], extended)
        new_id = grown.idea_nodes["c"][0]
        assert kind_degree(grown, new_id, "inter") == min(graph.config.inter_m, len(graph))

    def test_duplicate_idea_rejected(self):
        records = records_from({"a": ["v1"]})
        matrix = stub_matrix(records)
        graph = build_graph(records, matrix)
        with pytest.raises(ValueError, match="already"):
            integrate_subgraph(graph, records, matrix)

    def test_incremental_equals_scratch_when_m_covers_everything(self):
        spec = {
            "a": ["a zero", "a one"],
            "b": ["b zero"],
            "c": ["c zero", "c one", "c two"],
            "d": ["d zero", "d one"],
        }
        records = records_from(spec)
        all_texts = [v for r in records for v in r.viewpoints]
        config = GraphConfig(intra_k=5, inter_m=len(all_texts))
        provider = EmbeddingProvider(kind="stub", dimension=16)
        scratch = build_graph(records, embed(all_texts, provider), config)

        grown = ViewpointGraph(idea=[], text=[], t=[], config=config)
        texts_so_far: list[str] = []
        for rec in records:
            texts_so_far.extend(rec.viewpoints)
            grown = integrate_subgraph(grown, [rec], embed(texts_so_far, provider), config)
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
            chain = integrate_subgraph(chain, [rec], EmbeddingMatrix(rows[:stop]), config)
        once = integrate_subgraph(base, new, EmbeddingMatrix(rows[:stop]), config)
        assert (once.idea, once.text) == (chain.idea, chain.text)
        assert list(edge_dict(once).items()) == list(edge_dict(chain).items())


class TestSerialization:
    def test_round_trip(self, tmp_path):
        records, matrix, config = random_instance(3)
        graph = build_graph(records, matrix, config)
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert (loaded.idea, loaded.text, loaded.t.tolist()) == (graph.idea, graph.text, graph.t.tolist())
        assert list(edge_dict(loaded).items()) == list(edge_dict(graph).items())

    def _payload(self):
        return {
            "config": {"k": 5, "m": 10, "weight_floor": 0.0},
            "nodes": [
                {"id": 0, "idea": "a", "text": "x", "t": 0.0},
                {"id": 1, "idea": "b", "text": "y", "t": 0.0},
            ],
            "edges": [[0, 1, 0.5, "inter"]],
        }

    def test_self_loop_rejected(self, tmp_path):
        payload = self._payload()
        payload["edges"] = [[0, 0, 0.5, "intra"]]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="self-loop"):
            load_graph(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        payload = self._payload()
        payload["edges"] = [[0, 1, 0.5, "inter"], [1, 0, 0.6, "inter"]]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="asymmetric|more than once"):
            load_graph(path)

    def test_kind_must_match_idea_membership(self, tmp_path):
        payload = self._payload()
        payload["edges"] = [[0, 1, 0.5, "intra"]]  # nodes belong to different ideas
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="intra"):
            load_graph(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("edges", [[0, 1, 0.5, "inter"], [0, 1]], "edge 1"),
            ("edges", [[0.5, 1, 0.3, "intra"]], "edge 0"),
            ("nodes", None, "nodes"),
            ("config", {"k": None, "m": 10}, "config"),
            ("nodes", [{"id": 0, "idea": "a", "text": "x"}, {"id": 5, "idea": "b", "text": "y"}], "node 1"),
        ],
        ids=["short-edge", "fractional-node-index", "missing-nodes", "bad-config", "node-out-of-order"],
    )
    def test_malformed_entry_named(self, tmp_path, key, value, message):
        payload = self._payload()
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_graph(path)

    def test_weight_out_of_range_rejected(self, tmp_path):
        payload = self._payload()
        payload["edges"] = [[0, 1, 1.5, "inter"]]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="weight"):
            load_graph(path)


class TestConfig:
    def test_defaults(self):
        config = GraphConfig()
        assert (config.intra_k, config.inter_m) == (5, 10)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            GraphConfig(intra_k=0)


class TestHybrid:
    def test_intra_edges_from_pairs_with_polarity(self):
        rec = IdeaViewpoints(
            idea_id="a",
            viewpoints=("first claim", "second claim", "third claim"),
            timestamp=0,
            pairs=(("first claim", "however", "opposing", "second claim"),),
        )
        matrix = stub_matrix([rec])
        graph = build_graph([rec], matrix, GraphConfig(), hybrid=True)
        intra = [(u, v, pol) for u, v, pol in zip(graph.u, graph.v, graph.polarity) if pol]
        assert graph.intra.sum() == len(intra) == 1
        assert intra == [(0, 1, "opposing")]

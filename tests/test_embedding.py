from __future__ import annotations

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from graphs import edge_dict, incoming
from oracles import brute_force_graph_edges
from viewgraph.dataset import IdeaViewpoints
from viewgraph.embedding import (
    EmbeddingMatrix,
    EmbeddingProvider,
    embed,
    load_embeddings,
    save_embeddings,
    stub_vector,
)
from viewgraph.graph import GraphConfig, build_graph


def cosine(a, b):
    """Cosine similarity as the graph build computes it: row 0 against
    row 1 through EmbeddingMatrix.similarities."""
    return float(EmbeddingMatrix(np.stack([a, b])).similarities(0)[1])


def graph_of(rows, sizes, k, m=0):
    """build_graph over ``rows``, split into ideas of the given sizes."""
    records, start = [], 0
    for i, size in enumerate(sizes):
        records.append(
            IdeaViewpoints(idea_id=f"i{i}", viewpoints=tuple(f"v{j}" for j in range(start, start + size)))
        )
        start += size
    return build_graph(records, EmbeddingMatrix(rows), GraphConfig(intra_k=k, inter_m=m))


def assert_matches_oracle(graph, rows):
    config = graph.config
    expected = brute_force_graph_edges(graph.idea, np.asarray(rows, dtype=float), config.intra_k, config.inter_m)
    got = edge_dict(graph)
    assert set(got) == set(expected)
    for key, (w, kind) in expected.items():
        assert got[key][1] == kind
        assert got[key][0] == pytest.approx(w, abs=1e-12)


class TestStub:
    def test_identical_texts_identical_rows(self):
        m = embed(["a", "a"], EmbeddingProvider(kind="stub", dimension=8))
        assert np.array_equal(m.rows[0], m.rows[1])

    def test_distinct_texts_distinct_rows(self):
        m = embed(["a", "b"], EmbeddingProvider(kind="stub", dimension=8))
        assert not np.array_equal(m.rows[0], m.rows[1])

    def test_content_seeded_across_processes(self):
        # frozen reference values: the stub must never drift
        v = stub_vector("a viewpoint", 8)
        assert v[:3] == pytest.approx(
            [-0.181071129205, 0.50344181303, 0.225180422119], abs=1e-11
        )

    def test_unit_norm(self):
        v = stub_vector("anything at all", 32)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            embed(["ok", ""], EmbeddingProvider(kind="stub", dimension=8))


class TestRemoteProvider:
    def _fake_post(self, vectors):
        class Resp:
            def raise_for_status(self):
                pass

            def json(self):
                return {"data": [{"embedding": v} for v in vectors]}

        return lambda url, **kw: Resp()

    def test_dimension_mismatch_named(self, monkeypatch):
        monkeypatch.setattr(requests, "post", self._fake_post([[0.1] * 384]))
        provider = EmbeddingProvider(kind="remote", dimension=8, endpoint="http://x")
        with pytest.raises(ValueError) as err:
            embed(["text"], provider)
        assert "384" in str(err.value) and "8" in str(err.value)

    def test_zero_vector_named(self, monkeypatch):
        monkeypatch.setattr(requests, "post", self._fake_post([[0.0] * 8]))
        provider = EmbeddingProvider(kind="remote", dimension=8, endpoint="http://x")
        with pytest.raises(ValueError, match="zero"):
            embed(["text"], provider)


class TestMatrix:
    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            EmbeddingMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_norm_cache_matches(self):
        rows = np.random.default_rng(0).normal(size=(5, 4))
        m = EmbeddingMatrix(rows)
        assert np.allclose(m.norms, np.linalg.norm(m.rows, axis=1), rtol=1e-9)


class TestCosine:
    def test_identity(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_forty_five_degrees(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            0.70710678, abs=1e-8
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(np.array([[1.0, 0.0]])).extend(np.array([[1.0, 0.0, 0.0]]))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=4), rng.normal(size=4)
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        s = cosine(a, b)
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
        assert abs(s - cosine(b, a)) < 1e-12

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_positive_scaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert cosine(a * scale, b) == pytest.approx(cosine(a, b), abs=1e-9)


class TestTopK:
    """Top-k neighbor queries, as the graph build runs them."""

    def test_known_similarities(self):
        rows = np.array(
            [
                [1.0, 0.0],
                [0.9, np.sqrt(1 - 0.81)],
                [0.3, np.sqrt(1 - 0.09)],
            ]
        )
        graph = graph_of(rows, [3], k=1)
        [(nbr, weight)] = incoming(graph.arcs, 0).items()
        assert nbr == 1
        assert weight == pytest.approx(0.9, abs=1e-12)

    def test_tie_breaking_by_row_index(self):
        rows = np.ones((4, 3))
        graph = graph_of(rows, [4], k=2)
        assert_matches_oracle(graph, rows)
        # node 0 picks rows 1 and 2; row 3 reaches it only by picking it
        assert set(edge_dict(graph)) == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)}

    def test_tie_breaking_across_ideas(self):
        rows = np.array([[1, 0], [0, 1], [1, 0], [1, 0], [0, 1], [1, 0]])
        graph = graph_of(rows, [2, 2, 2], k=1, m=1)
        assert_matches_oracle(graph, rows)

    def test_k_truncates_to_candidates(self):
        rows = np.random.default_rng(1).normal(size=(3, 4))
        graph = graph_of(rows, [3], k=5)
        assert len(incoming(graph.arcs, 0)) == 2

    def test_empty_candidates_empty_list(self):
        rows = np.random.default_rng(1).normal(size=(3, 4))
        graph = graph_of(rows, [1, 2], k=2)
        assert incoming(graph.arcs, 0) == {}

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        cut = sorted(int(c) for c in rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
        sizes = [b - a for a, b in zip([0] + cut, cut + [n])]
        rows = rng.normal(size=(n, 5))
        graph = graph_of(rows, sizes, k=int(rng.integers(1, 8)), m=int(rng.integers(0, 8)))
        assert_matches_oracle(graph, rows)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = embed(["first", "second", "third"], EmbeddingProvider(kind="stub", dimension=16))
        path = tmp_path / "emb.bin"
        save_embeddings(m, ["a:0", "a:1", "b:0"], path)
        loaded, ids = load_embeddings(path)
        assert ids == ["a:0", "a:1", "b:0"]
        assert loaded.dimension == 16
        # stored as float32: exact at that precision
        assert np.allclose(loaded.rows, m.rows, atol=1e-6)

    def test_truncated_blob_rejected(self, tmp_path):
        m = embed(["x", "y"], EmbeddingProvider(kind="stub", dimension=8))
        path = tmp_path / "emb.bin"
        save_embeddings(m, ["a", "b"], path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="bytes"):
            load_embeddings(path)

    def test_id_count_must_match(self, tmp_path):
        m = embed(["x", "y"], EmbeddingProvider(kind="stub", dimension=8))
        with pytest.raises(ValueError):
            save_embeddings(m, ["only-one"], tmp_path / "emb.bin")

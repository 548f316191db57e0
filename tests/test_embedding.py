from __future__ import annotations

import json

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from graphs import edge_dict, incoming
from oracles import brute_force_graph_edges, stub_vector
from viewgraph import llm
from viewgraph.cli import main as cli_main
from viewgraph.dataset import IdeaViewpoints, save_viewpoints
from viewgraph.embedding import (
    EmbeddingMatrix,
    EmbeddingProvider,
    embed,
    load_embeddings,
    row_ids,
    _pcg64_states,
    save_embeddings,
    stub_rows,
)
from viewgraph.graph import GraphConfig, build_graph


def cosine(a, b):
    """Cosine similarity as the graph build computes it: row 0 against
    row 1 through EmbeddingMatrix.similarities."""
    return float(EmbeddingMatrix(np.stack([a, b])).similarities(0, 1)[0, 1])


def graph_of(rows, sizes, k, m=0):
    """build_graph over ``rows``, split into ideas of the given sizes."""
    records, start = [], 0
    for i, size in enumerate(sizes):
        records.append(
            IdeaViewpoints(idea_id=f"i{i}", viewpoints=tuple(f"v{j}" for j in range(start, start + size)))
        )
        start += size
    return build_graph(records, EmbeddingMatrix(rows), GraphConfig(k=k, m=m))


def assert_matches_oracle(graph, rows):
    config = graph.config
    expected = brute_force_graph_edges(graph.idea, np.asarray(rows, dtype=float), config.k, config.m)
    got = edge_dict(graph)
    assert set(got) == set(expected)
    for key, (w, kind) in expected.items():
        assert got[key][1] == kind
        assert got[key][0] == pytest.approx(w, abs=1e-12)


class TestStub:
    def test_identical_texts_identical_rows(self):
        m = embed(["a", "a"], EmbeddingProvider(provider="stub", dimension=8))
        assert np.array_equal(m.rows[0], m.rows[1])

    def test_distinct_texts_distinct_rows(self):
        m = embed(["a", "b"], EmbeddingProvider(provider="stub", dimension=8))
        assert not np.array_equal(m.rows[0], m.rows[1])

    def test_content_seeded_across_processes(self):
        # frozen reference values: the stub must never drift
        v = stub_rows(["a viewpoint"], 8)[0]
        assert v[:3] == pytest.approx(
            [-0.181071129205, 0.50344181303, 0.225180422119], abs=1e-11
        )

    def test_unit_norm(self):
        v = stub_rows(["anything at all"], 32)[0]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            embed(["ok", ""], EmbeddingProvider(provider="stub", dimension=8))


def many_texts(count: int, seed: int) -> list[str]:
    """``count`` distinct texts: ASCII sentences, and strings of random
    code points from the Latin-1, CJK and emoji ranges and of quotes,
    backslashes and control characters."""
    rng = np.random.default_rng(seed)
    ranges = [(0x01, 0x7F), (0xA0, 0x17F), (0x4E00, 0x9FFF), (0x1F300, 0x1FAFF)]
    texts = {f"viewpoint {i}: the model improves recall" for i in range(count // 2)}
    while len(texts) < count:
        lo, hi = ranges[int(rng.integers(len(ranges)))]
        texts.add("".join(map(chr, rng.integers(lo, hi, size=int(rng.integers(1, 12))))))
    return sorted(texts)


class TestAgainstPerTextStub:
    """The stub rows, drawn from one generator whose state is set from each
    text's seed, equal one ``default_rng`` per text bit for bit."""

    @pytest.mark.parametrize("dimension", [2, 7, 32])
    def test_rows_equal_the_per_text_reference(self, dimension):
        texts = many_texts(5000, dimension)
        assert any(not text.isascii() for text in texts)
        want = np.stack([stub_vector(text, dimension) for text in texts])
        assert np.array_equal(stub_rows(texts, dimension), want)
        repeated = texts[:50] * 2
        assert np.array_equal(embed(repeated, EmbeddingProvider(dimension=dimension)).rows, want[list(range(50)) * 2])

    def test_seed_states_equal_default_rng(self):
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeds = edges + np.random.default_rng(5).integers(0, 2**64 - 1, size=2000, dtype=np.uint64, endpoint=True).tolist()
        states = _pcg64_states(np.array(seeds, dtype=np.uint64))
        assert states == [np.random.default_rng(seed).bit_generator.state for seed in seeds]

    def test_no_texts_no_rows(self):
        assert stub_rows([], 8).shape == (0, 8)


def cli_embed(tmp_path, endpoint: str) -> int:
    """``viewgraph embed`` of one viewpoint with the remote provider at
    ``endpoint``; returns the exit code."""
    views = tmp_path / "views.jsonl"
    save_viewpoints([IdeaViewpoints("a", ("one claim",))], views)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"embedding": {"provider": "remote", "dimension": 2, "endpoint": endpoint}}))
    return cli_main(["embed", "--in", str(views), "--out", str(tmp_path / "emb.bin"), "--config", str(config), "--quiet"])


class TestRemoteProvider:
    def _fake_post(self, vectors):
        class Resp:
            status_code = 200

            def json(self):
                return {"data": [{"embedding": v} for v in vectors]}

        return lambda url, **kw: Resp()

    def test_dimension_mismatch_named(self, monkeypatch):
        monkeypatch.setattr(requests, "post", self._fake_post([[0.1] * 384]))
        provider = EmbeddingProvider(provider="remote", dimension=8, endpoint="http://x")
        with pytest.raises(ValueError) as err:
            embed(["text"], provider)
        assert "384" in str(err.value) and "8" in str(err.value)

    def test_zero_vector_named(self, monkeypatch):
        monkeypatch.setattr(requests, "post", self._fake_post([[0.0] * 8]))
        provider = EmbeddingProvider(provider="remote", dimension=8, endpoint="http://x")
        with pytest.raises(ValueError, match="zero"):
            embed(["text"], provider)

    def test_each_distinct_text_sent_once_and_rows_scattered_back(self, monkeypatch):
        sent = []

        class Resp:
            status_code = 200

            def json(self):
                return {"data": [{"embedding": [float(i + 1), 1.0]} for i in range(len(sent[0]["input"]))]}

        monkeypatch.setattr(requests, "post", lambda url, json, **kw: sent.append(json) or Resp())
        provider = EmbeddingProvider(provider="remote", dimension=2, endpoint="http://x", model="m")
        matrix = embed(["b", "a", "b", "c", "a"], provider)
        assert sent == [{"model": "m", "input": ["b", "a", "c"]}]
        assert matrix.rows.tolist() == [[1, 1], [2, 1], [1, 1], [3, 1], [2, 1]]

    def test_vector_count_must_match_distinct_texts(self, monkeypatch):
        monkeypatch.setattr(requests, "post", self._fake_post([[0.1] * 8]))
        provider = EmbeddingProvider(provider="remote", dimension=8, endpoint="http://x")
        with pytest.raises(ValueError, match="1 vectors for 2 texts"):
            embed(["a", "b", "a"], provider)

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"error": "quota"}, "response needs a 'data' list, got {'error': 'quota'}"),
            ([[0.1, 0.2]], "response needs a 'data' list, got [[0.1, 0.2]]"),
            ({"data": [{"embedding": [0.1, 0.2]}, {"vector": [0.3, 0.4]}]},
             "data item 1 needs an 'embedding' list, got {'vector': [0.3, 0.4]}"),
            ({"data": [{"embedding": None}]}, "data item 0 needs an 'embedding' list, got {'embedding': None}"),
            ({"data": [{"embedding": ["a", 1.0]}, {"embedding": [0.3, 0.4]}]},
             "data item 0 key 'embedding' must be a list of numbers, got item 'a'"),
            ({"data": [{"embedding": [0.1, 0.2]}, {"embedding": [True, 0.4]}]},
             "data item 1 key 'embedding' must be a list of numbers, got item True"),
            ({"data": [{"embedding": [[0.1], 0.2]}, {"embedding": [0.3, 0.4]}]},
             "data item 0 key 'embedding' must be a list of numbers, got item [0.1]"),
            ({"data": [{"embedding": [0.1, 0.2]}]}, "returned 1 vectors for 2 texts"),
            ({"data": [{"embedding": [0.1, 0.2]}, {"embedding": [0.3, 0.4, 0.5]}]},
             "data item 1 has dimension 3, expected 2"),
        ],
        ids=["no-data", "not-an-object", "item-without-embedding", "null-embedding", "string-item", "bool-item",
             "nested-list", "wrong-count", "wrong-dimension"],
    )
    def test_malformed_response_names_endpoint_and_key(self, monkeypatch, body, message):
        class Resp:
            status_code = 200

            def json(self):
                return body

        monkeypatch.setattr(requests, "post", lambda url, **kw: Resp())
        provider = EmbeddingProvider(provider="remote", dimension=2, endpoint="http://x/embed")
        with pytest.raises(ValueError) as err:
            embed(["a", "b"], provider)
        assert str(err.value) == f"embedding endpoint http://x/embed: {message}"

    @pytest.mark.parametrize("status, posts, failure", [(401, 1, "refused with HTTP 401, not retried: denied"),
                                                         (500, 3, "request failed after 3 attempts: HTTP 500")],
                             ids=["401", "500"])
    def test_error_status_names_endpoint_and_status(self, tmp_path, capsys, monkeypatch, status, posts, failure):
        class Resp:
            status_code = status
            text = "denied"

        calls = []
        monkeypatch.setattr(llm, "BACKOFF_S", 0.0)
        monkeypatch.setattr(requests, "post", lambda url, **kw: calls.append(url) or Resp())
        assert cli_embed(tmp_path, "http://x/embed") == 1
        err = capsys.readouterr().err
        assert err == f"error: embedding endpoint http://x/embed: {failure}\n"
        assert calls == ["http://x/embed"] * posts

    def test_connection_error_names_endpoint(self, tmp_path, capsys, monkeypatch):
        def refuse(url, **kw):
            raise requests.ConnectionError("connection refused")

        monkeypatch.setattr(llm, "BACKOFF_S", 0.0)
        monkeypatch.setattr(requests, "post", refuse)
        assert cli_embed(tmp_path, "http://x/embed") == 1
        err = capsys.readouterr().err
        assert err == "error: embedding endpoint http://x/embed: request failed after 3 attempts: connection refused\n"

    def test_refused_socket_gives_its_reason_in_one_line(self, tmp_path, capsys, monkeypatch, refused_endpoint):
        """Through the HTTP client itself: the line gives the socket's
        reason, not the client's own retry text."""
        monkeypatch.setattr(llm, "BACKOFF_S", 0.0)
        assert cli_embed(tmp_path, refused_endpoint) == 1
        err = capsys.readouterr().err
        assert err == (f"error: embedding endpoint {refused_endpoint}: request failed after 3 attempts: "
                       "[Errno 111] Connection refused\n")

    def test_body_that_is_not_json_names_endpoint(self, tmp_path, capsys, monkeypatch):
        resp = requests.models.Response()
        resp.status_code, resp.encoding, resp._content = 200, "utf-8", b"<html>gateway</html>"
        monkeypatch.setattr(requests, "post", lambda url, **kw: resp)
        assert cli_embed(tmp_path, "http://x/embed") == 2
        err = capsys.readouterr().err
        assert err == "error: embedding endpoint http://x/embed: response is not JSON: <html>gateway</html>\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_named(self, monkeypatch, bad):
        monkeypatch.setattr(requests, "post", self._fake_post([[0.1, 0.2], [bad, 1.0]]))
        provider = EmbeddingProvider(provider="remote", dimension=2, endpoint="http://x")
        with pytest.raises(ValueError, match="non-finite embedding vector at row 2"):
            embed(["a", "a", "b"], provider)


class TestMatrix:
    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            EmbeddingMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_row_rejected(self, bad):
        # 1e200 is finite, but its squared norm overflows
        with pytest.raises(ValueError, match="non-finite embedding vector at row 1"):
            EmbeddingMatrix(np.array([[1.0, 0.0], [bad, 1.0], [0.0, 1.0]]))

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
        m = embed(["first", "second", "third"], EmbeddingProvider(provider="stub", dimension=16))
        path = tmp_path / "emb.bin"
        save_embeddings(m, row_ids(["a", "a", "b"]), path)
        loaded = load_embeddings(path, ["a:0", "a:1", "b:0"])
        assert loaded.dimension == 16
        # stored as float32: exact at that precision
        assert np.allclose(loaded.rows, m.rows, atol=1e-6)

    def test_non_finite_row_rejected_on_load(self, tmp_path):
        m = embed(["x", "y", "z"], EmbeddingProvider(provider="stub", dimension=4))
        path = tmp_path / "emb.bin"
        save_embeddings(m, ["a", "b", "c"], path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8] + np.array([np.nan], dtype="<f4").tobytes() + blob[-4:])
        with pytest.raises(ValueError) as err:
            load_embeddings(path, ["a", "b", "c"])
        assert str(err.value) == f"embeddings file {path}: non-finite embedding vector at row 2"

    def test_stub_rows_of_repeated_texts(self):
        provider = EmbeddingProvider(provider="stub", dimension=8)
        rows = embed(["b", "a", "b"], provider).rows
        assert np.array_equal(rows, np.stack([stub_vector(t, 8) for t in ("b", "a", "b")]))

    @pytest.mark.parametrize(
        "header, message",
        [
            (None, "blob is 60 bytes, expected 64"),  # the saved file, last 4 bytes cut
            (b"not json", "header is not JSON"),
            (b"[2, 8]", "header must be an object, got list"),
            (b'{"count": 2, "ids": ["a", "b"]}', "header 'dimension' must be an int, got NoneType"),
            (b'{"count": "2", "dimension": 8, "ids": ["a", "b"]}', "header 'count' must be an int, got str"),
            (b'{"count": -2, "dimension": 8, "ids": ["a", "b"]}', "header 'count' must be >= 0, got -2"),
            (b'{"count": 2, "dimension": 8}', "header 'ids' must be a list, got NoneType"),
            (b'{"count": 2, "dimension": 8, "ids": ["a", 3]}', "header 'ids' must be a list of strings, got item 3"),
            (b'{"count": 2, "dimension": 8, "ids": ["a"]}', "header has 1 ids for count 2"),
        ],
        ids=["truncated-blob", "not-json", "not-object", "no-dimension", "string-count", "negative-count",
             "no-ids", "id-not-string", "id-count"],
    )
    def test_malformed_file_named(self, tmp_path, header, message):
        m = embed(["x", "y"], EmbeddingProvider(provider="stub", dimension=8))
        path = tmp_path / "emb.bin"
        save_embeddings(m, ["a", "b"], path)
        saved_header, blob = path.read_bytes().split(b"\n", 1)
        if header is None:
            path.write_bytes(saved_header + b"\n" + blob[:-4])
        else:
            path.write_bytes(header + b"\n" + blob)
        with pytest.raises(ValueError) as err:
            load_embeddings(path, ["a", "b"])
        assert str(err.value).startswith(f"embeddings file {path}: {message}")

    @pytest.mark.parametrize(
        "expected_ids, message",
        [
            (["a:0", "b:0"], "row 1 has id 'a:1', expected 'b:0'"),
            (["a:1", "a:0"], "row 0 has id 'a:0', expected 'a:1'"),
            (["a:0"], "2 rows for 1 nodes"),
        ],
        ids=["second-row", "order", "count"],
    )
    def test_row_ids_checked(self, tmp_path, expected_ids, message):
        m = embed(["x", "y"], EmbeddingProvider(provider="stub", dimension=8))
        path = tmp_path / "emb.bin"
        save_embeddings(m, row_ids(["a", "a"]), path)
        with pytest.raises(ValueError) as err:
            load_embeddings(path, expected_ids)
        assert str(err.value) == f"embeddings file {path}: {message}"

    def test_id_count_must_match(self, tmp_path):
        m = embed(["x", "y"], EmbeddingProvider(provider="stub", dimension=8))
        with pytest.raises(ValueError):
            save_embeddings(m, ["only-one"], tmp_path / "emb.bin")

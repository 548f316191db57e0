from __future__ import annotations

import socket

import pytest

from viewgraph.dataset import split_corpus
from viewgraph.embedding import EmbeddingProvider, embed
from viewgraph.fixtures import separable_corpus
from viewgraph.graph import GraphConfig, build_graph
from viewgraph.llm import LlmBackend, extract_corpus


@pytest.fixture(scope="session")
def separable():
    """Split separable corpus with its extracted records, matrix, graph."""
    corpus = split_corpus(separable_corpus(), (0.7, 0.1, 0.2), seed=11)
    records, _ = extract_corpus(corpus.ideas, LlmBackend())
    texts = [v for r in records for v in r.viewpoints]
    matrix = embed(texts, EmbeddingProvider(provider="stub", dimension=32))
    graph = build_graph(records, matrix, GraphConfig())
    return corpus, records, matrix, graph


@pytest.fixture
def refused_endpoint():
    """An http URL on a loopback port that nothing listens on: the port
    is bound, then closed, so a connection to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"

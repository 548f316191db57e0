from __future__ import annotations

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

"""Viewpoint text embeddings: pluggable encoder and row-wise cosine similarity.

The deterministic stub hashes each text into a seed and draws a unit
vector from it, so the whole pipeline runs with zero network access and
identical texts embed identically across processes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import requests

DEFAULT_STUB_DIM = 32


@dataclass
class EmbeddingProvider:
    """Encoder handle: deterministic stub or a remote JSON endpoint."""

    kind: str = "stub"  # "stub" | "remote"
    dimension: int = DEFAULT_STUB_DIM
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "VIEWGRAPH_API_KEY"

    def __post_init__(self):
        if self.kind not in ("stub", "remote"):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.dimension < 2:
            raise ValueError(f"embedding dimension must be >= 2, got {self.dimension}")


def stub_vector(text: str, dimension: int) -> np.ndarray:
    """Unit vector seeded by the text content only."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dimension)
    return vec / np.linalg.norm(vec)


def _remote_vectors(texts: Sequence[str], provider: EmbeddingProvider) -> list[list[float]]:
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(provider.api_key_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    resp = requests.post(
        provider.endpoint,
        json={"model": provider.model, "input": list(texts)},
        headers=headers,
        timeout=60,
    )
    resp.raise_for_status()
    data = resp.json()["data"]
    return [item["embedding"] for item in data]


class EmbeddingMatrix:
    """Row-per-viewpoint matrix with cached norms; rows are immutable."""

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"expected 2-d matrix, got shape {rows.shape}")
        norms = np.linalg.norm(rows, axis=1)
        zero = np.where(norms == 0)[0]
        if zero.size:
            raise ValueError(f"zero embedding vector at row {int(zero[0])}")
        self.rows = rows
        self.norms = norms
        self.rows.setflags(write=False)

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def dimension(self) -> int:
        return self.rows.shape[1]

    def similarities(self, index: int, stop: Optional[int] = None) -> np.ndarray:
        """Cosine similarity of one row against every row, or against rows
        ``[0, stop)`` only."""
        return (self.rows[:stop] @ self.rows[index]) / (self.norms[:stop] * self.norms[index])

    def extend(self, extra: np.ndarray) -> "EmbeddingMatrix":
        return EmbeddingMatrix(np.vstack([self.rows, np.asarray(extra, dtype=np.float64)]))


def embed(texts: Sequence[str], provider: EmbeddingProvider) -> EmbeddingMatrix:
    """Encode texts into an EmbeddingMatrix, one row per text, order preserved."""
    if any(not t for t in texts):
        raise ValueError("cannot embed empty text")
    if provider.kind == "stub":
        rows = np.stack([stub_vector(t, provider.dimension) for t in texts])
        return EmbeddingMatrix(rows)
    raw = _remote_vectors(texts, provider)
    for i, vec in enumerate(raw):
        if len(vec) != provider.dimension:
            raise ValueError(
                f"provider returned dimension {len(vec)} for text {i}, expected {provider.dimension}"
            )
        if not any(vec):
            raise ValueError(f"provider returned a zero vector for text {i}")
    return EmbeddingMatrix(np.array(raw, dtype=np.float64))


def save_embeddings(matrix: EmbeddingMatrix, ids: Sequence[str], path: str | Path) -> None:
    """Binary format: JSON header line {count, dimension, ids}, then
    little-endian float32 rows."""
    if len(ids) != len(matrix):
        raise ValueError(f"{len(ids)} ids for {len(matrix)} rows")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = json.dumps({"count": len(matrix), "dimension": matrix.dimension, "ids": list(ids)})
    with path.open("wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(matrix.rows.astype("<f4").tobytes())


def load_embeddings(path: str | Path) -> tuple[EmbeddingMatrix, list[str]]:
    with Path(path).open("rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        count, dim = int(header["count"]), int(header["dimension"])
        blob = fh.read()
    expected = count * dim * 4
    if len(blob) != expected:
        raise ValueError(f"embedding blob is {len(blob)} bytes, expected {expected}")
    rows = np.frombuffer(blob, dtype="<f4").reshape(count, dim).astype(np.float64)
    return EmbeddingMatrix(rows), list(header["ids"])

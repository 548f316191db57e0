"""Viewpoint text embeddings: pluggable encoder and row-wise cosine similarity.

The deterministic stub hashes each text into a seed and draws a unit
vector from it, so the whole pipeline runs with zero network access and
identical texts embed identically across processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import (COUNT, NUMBERS, STRINGS, Checked, FileFormatError, at_least, must, problem, read_headed, setting,
                      write_headed)
from .llm import ATTEMPTS, post_json

DEFAULT_STUB_DIM = 32


@dataclass
class EmbeddingProvider(Checked):
    """Encoder handle: deterministic stub or a remote JSON endpoint."""

    provider: str = setting("stub", must(lambda v: v in ("stub", "remote"), "stub or remote"))
    dimension: int = setting(DEFAULT_STUB_DIM, at_least(2))
    endpoint: str = ""
    model: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.provider == "remote" and not self.endpoint:
            raise ValueError("endpoint: must be set when provider is remote")


# numpy's seeding of ``np.random.default_rng(seed)``: SeedSequence's hash
# constants, then PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 words: each call xors the words with
    its constant, steps the constant (times ``mult``), multiplies by it and
    xorshifts."""

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    return hash_words


def _pcg64_states(seeds: np.ndarray) -> list[dict]:
    """``np.random.default_rng(seed).bit_generator.state`` for each uint64
    seed, derived for all seeds at once. SeedSequence hashes the seed's
    two 32-bit words (and two zero words) into a pool of four words, mixes
    each pool word into the others, and hashes the pool, cycled, into
    eight words: PCG64's 128-bit start state and stream. PCG64 then takes
    its two seeding steps."""
    seeds, zero = np.asarray(seeds, dtype=np.uint64), np.zeros(len(seeds), np.uint32)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zero, zero)]
    for source in range(4):
        for target in range(4):
            if source != target:
                mixed = np.uint32(_MIX_MULT_L) * pool[target] - np.uint32(_MIX_MULT_R) * hashmix(pool[source])
                pool[target] = mixed ^ mixed >> np.uint32(16)
    generate = _hasher(_INIT_B, _MULT_B)
    words = [generate(pool[i % 4]).astype(np.uint64) for i in range(8)]
    halves = [(words[i] | words[i + 1] << np.uint64(32)).tolist() for i in range(0, 8, 2)]
    states = []
    for high, low, stream_high, stream_low in zip(*halves):
        inc = ((stream_high << 64 | stream_low) << 1 | 1) & _MASK128
        state = ((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


def stub_rows(texts: Sequence[str], dimension: int) -> np.ndarray:
    """One unit row per text, seeded by the text content only: the first 8
    bytes (little-endian) of the text's UTF-8 sha256 seed
    ``np.random.default_rng``, whose ``standard_normal(dimension)`` is
    divided by its norm. One generator draws every row from its seed's
    state."""
    digests = b"".join([hashlib.sha256(text.encode("utf-8")).digest()[:8] for text in texts])
    rows = np.empty((len(texts), dimension))
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    for row, state in zip(rows, _pcg64_states(np.frombuffer(digests, "<u8"))):
        bit_generator.state = state
        generator.standard_normal(out=row)
    # each row's norm from one dot product, as np.linalg.norm takes it
    rows /= np.sqrt(np.matmul(rows[:, None], rows[:, :, None]))[:, 0]
    return rows


def _remote_vectors(texts: Sequence[str], provider: EmbeddingProvider) -> np.ndarray:
    """The endpoint's rows for ``texts``, from one ``post_json`` call of
    ``ATTEMPTS`` tries: one list of ``provider.dimension`` numbers per
    text. Any other response raises a ValueError naming the endpoint."""
    where = f"embedding endpoint {provider.endpoint}"
    body = post_json(provider.endpoint, {"model": provider.model, "input": list(texts)}, where, ATTEMPTS, 60)
    data = body.get("data") if isinstance(body, dict) else None
    if not isinstance(data, list):
        raise ValueError(f"{where}: response needs a 'data' list, got {str(body)[:200]}")
    for i, item in enumerate(data):
        if not (isinstance(item, dict) and isinstance(item.get("embedding"), list)):
            raise ValueError(f"{where}: data item {i} needs an 'embedding' list, got {str(item)[:200]}")
        if broken := problem(item["embedding"], NUMBERS):
            raise ValueError(f"{where}: data item {i} key 'embedding' {broken}")
    if len(data) != len(texts):
        raise ValueError(f"{where}: returned {len(data)} vectors for {len(texts)} texts")
    for i, item in enumerate(data):
        if len(item["embedding"]) != provider.dimension:
            raise ValueError(f"{where}: data item {i} has dimension {len(item['embedding'])}, expected {provider.dimension}")
    return np.array([item["embedding"] for item in data], dtype=np.float64)


class EmbeddingMatrix:
    """Row-per-viewpoint matrix with cached norms; rows are immutable."""

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"expected 2-d matrix, got shape {rows.shape}")
        with np.errstate(over="ignore"):  # a finite norm bounds every dot product: no NaN similarity
            norms = np.linalg.norm(rows, axis=1)
        bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
        if bad.size:
            raise ValueError(f"{'zero' if norms[bad[0]] == 0 else 'non-finite'} embedding vector at row {int(bad[0])}")
        self.rows = rows
        self.norms = norms
        self.rows.setflags(write=False)

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def dimension(self) -> int:
        return self.rows.shape[1]

    def similarities(self, lo: int, hi: int, stop: Optional[int] = None) -> np.ndarray:
        """Cosine similarity of each row in ``[lo, hi)`` against every row,
        or rows ``[0, stop)`` only. A stacked matmul runs one gemv per row,
        so result row ``i - lo`` is ``rows[:stop] @ rows[i]`` bit for bit."""
        dots = np.matmul(self.rows[:stop][None], self.rows[lo:hi, :, None])[:, :, 0]
        return dots / (self.norms[lo:hi, None] * self.norms[:stop])

    def extend(self, extra: np.ndarray) -> "EmbeddingMatrix":
        return EmbeddingMatrix(np.vstack([self.rows, np.asarray(extra, dtype=np.float64)]))


def embed(texts: Sequence[str], provider: EmbeddingProvider) -> EmbeddingMatrix:
    """Encode texts into an EmbeddingMatrix, one row per text, order
    preserved. Each distinct text is encoded once."""
    if any(not t for t in texts):
        raise ValueError("cannot embed empty text")
    distinct = {t: i for i, t in enumerate(dict.fromkeys(texts))}  # text -> its encoded row
    rows = stub_rows(list(distinct), provider.dimension) if provider.provider == "stub" else _remote_vectors(list(distinct), provider)
    return EmbeddingMatrix(rows[[distinct[t] for t in texts]])


def save_embeddings(matrix: EmbeddingMatrix, ids: Sequence[str], path: str | Path) -> None:
    """Binary format, in the headed layout: JSON header line {count,
    dimension, ids}, then little-endian float32 rows."""
    if len(ids) != len(matrix):
        raise ValueError(f"{len(ids)} ids for {len(matrix)} rows")
    write_headed(path, {"count": len(matrix), "dimension": matrix.dimension, "ids": list(ids)},
                 [matrix.rows.astype("<f4")])


def row_ids(node_ideas: Sequence[str]) -> list[str]:
    """Embedding row ids from each row's idea id: ``"{idea_id}:{j}"`` for
    the idea's j-th row."""
    seen: dict[str, int] = {}
    ids = []
    for idea in node_ideas:
        j = seen.get(idea, 0)
        seen[idea] = j + 1
        ids.append(f"{idea}:{j}")
    return ids


def load_embeddings(path: str | Path, expected_ids: Sequence[str]) -> EmbeddingMatrix:
    """Read an embeddings file whose row ids must equal ``expected_ids``,
    row for row. A malformed file or a differing row raises a
    FileFormatError naming the file."""
    noun = "embeddings file"
    kinds = {"count": (COUNT, None), "dimension": (COUNT, None), "ids": (STRINGS, None)}
    header, arrays = read_headed(path, noun, kinds,
                                 lambda header: {"rows": ("<f4", (header["count"], header["dimension"]))})
    count, ids = header["count"], header["ids"]
    if len(ids) != count:
        raise FileFormatError(path, f"header has {len(ids)} ids for count {count}", noun=noun)
    if len(expected_ids) != count:
        raise FileFormatError(path, f"{count} rows for {len(expected_ids)} nodes", noun=noun)
    if ids != list(expected_ids):
        row = next(row for row, (got, want) in enumerate(zip(ids, expected_ids)) if got != want)
        raise FileFormatError(path, f"row {row} has id {ids[row]!r}, expected {expected_ids[row]!r}", noun=noun)
    try:
        return EmbeddingMatrix(arrays["rows"].astype(np.float64))
    except ValueError as exc:  # a zero or non-finite row
        raise FileFormatError(path, str(exc), noun=noun) from exc

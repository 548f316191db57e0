"""Independent brute-force oracles the tests check the library against.

Everything here is written from the definitions directly (dense matrices,
plain loops, finite differences) and deliberately shares no ranking,
propagation, or gradient code with the package.
"""

from __future__ import annotations

import hashlib
import json
import re
from bisect import bisect_right

import numpy as np


def dense_label_propagation(init: np.ndarray, adjacency: np.ndarray, iterations: int) -> np.ndarray:
    """Dense evaluation of the propagation update.

    adjacency[i][j] is the raw (unnormalized) weight of edge i-j, zero if
    absent. Per iteration: row-normalize weights, add each node's weighted
    neighbor vectors to its own, then rescale to L1 norm 1 (zero rows stay
    zero).
    """
    d = np.array(init, dtype=np.float64)
    n = d.shape[0]
    w = np.zeros_like(adjacency, dtype=np.float64)
    for i in range(n):
        row_sum = adjacency[i].sum()
        if row_sum > 0:
            w[i] = adjacency[i] / row_sum
    for _ in range(iterations):
        nxt = np.zeros_like(d)
        for i in range(n):
            acc = d[i].copy()
            for j in range(n):
                acc += w[i, j] * d[j]
            z = acc.sum()
            nxt[i] = acc / z if z > 0 else acc
        d = nxt
    return d


def runs_of_blocks(blocks, budget: int) -> list[tuple[int, int]]:
    """The graph build's runs as its own loop cut them: consecutive
    ``(start, stop)`` blocks as ``(first, stop)`` index ranges, each
    spanning up to ``budget`` nodes, or one larger block."""
    ends, runs, first = [hi for _, hi in blocks], [], 0
    while first < len(blocks):
        stop = max(bisect_right(ends, blocks[first][0] + budget), first + 1)
        runs.append((first, stop))
        first = stop
    return runs


def runs_of_slots(starts, budget: int) -> list[tuple[int, int]]:
    """The neighbour gather's runs as its own loop cut them: slot s spans
    ``starts[s]:starts[s + 1]``, and each run of slots up to ``budget``
    rows, or one larger slot."""
    runs, first = [], 0
    while first < len(starts) - 1:
        stop = max(bisect_right(starts, starts[first] + budget) - 1, first + 1)
        runs.append((first, stop))
        first = stop
    return runs


def brute_force_graph_edges(
    viewpoint_ideas: list[str],
    vectors: np.ndarray,
    k: int,
    m: int,
    floor: float = 0.0,
) -> dict[tuple[int, int], tuple[float, str]]:
    """Full-pairwise top-k/top-m construction by exhaustive enumeration.

    Returns {(u, v): (weight, kind)} with u < v. Ranking is by raw cosine
    similarity, descending, ties to the lower index; weights are clamped
    to [floor, 1].
    """
    n = len(viewpoint_ideas)
    sims = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                sims[i, j] = np.dot(vectors[i], vectors[j]) / (
                    np.linalg.norm(vectors[i]) * np.linalg.norm(vectors[j])
                )
    edges: dict[tuple[int, int], tuple[float, str]] = {}

    def add(i: int, j: int, kind: str):
        key = (min(i, j), max(i, j))
        if key not in edges:
            weight = min(1.0, max(floor, float(sims[i, j])))
            edges[key] = (weight, kind)

    for i in range(n):
        same = [j for j in range(n) if j != i and viewpoint_ideas[j] == viewpoint_ideas[i]]
        same.sort(key=lambda j: (-sims[i, j], j))
        for j in same[: min(k, len(same))]:
            add(i, j, "intra")
    for i in range(n):
        other = [j for j in range(n) if viewpoint_ideas[j] != viewpoint_ideas[i]]
        other.sort(key=lambda j: (-sims[i, j], j))
        for j in other[: min(m, len(other))]:
            add(i, j, "inter")
    return edges


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


def per_pair_relation_edges(records, matrix, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hybrid intra edges as the graph build made them before it weighted
    them per block, kept as the reference: one similarity row per relation
    pair, ``matrix.similarities(u, u + 1)[0, v]`` from the pair's left node
    ``u`` to its right node ``v``, clamped to [floor, 1].

    A pair's texts name the first viewpoint of its idea that matches once
    normalized; a pair naming an unknown text or one node twice is
    dropped, and the first mention of an unordered pair wins. Returns
    ``u``, ``v`` and ``weight`` with u < v, sorted by (u, v).
    """
    from viewgraph.dataset import normalize_text

    edges: dict[tuple[int, int], float] = {}
    start = 0
    for rec in records:
        by_text: dict[str, int] = {}
        for node, text in enumerate(rec.viewpoints, start):
            by_text.setdefault(normalize_text(text), node)
        for left, _connector, _polarity, right in rec.pairs:
            u, v = by_text.get(normalize_text(left)), by_text.get(normalize_text(right))
            if u is None or v is None or u == v or (min(u, v), max(u, v)) in edges:
                continue
            edges[(min(u, v), max(u, v))] = min(1.0, max(floor, float(matrix.similarities(u, u + 1)[0, v])))
        start += len(rec.viewpoints)
    keys = sorted(edges)
    return (np.array([u for u, _ in keys], dtype=np.int64), np.array([v for _, v in keys], dtype=np.int64),
            np.array([edges[key] for key in keys], dtype=np.float64))


def stub_vector(text: str, dimension: int) -> np.ndarray:
    """The stub embedding of one text, as embed made it one text at a
    time, kept as the reference: the first 8 bytes (little-endian) of the
    text's UTF-8 sha256 seed ``np.random.default_rng``, whose
    ``standard_normal(dimension)`` is divided by its norm."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    vec = rng.standard_normal(dimension)
    return vec / np.linalg.norm(vec)


def graph_json_dumps(graph) -> bytes:
    """The graph.json export as ``json.dumps`` of the documented object,
    built entry by entry, kept as the reference for the bytes written."""
    config = {"k": graph.config.k, "m": graph.config.m, "weight_floor": graph.config.weight_floor}
    payload = {
        "config": config,
        "nodes": [
            {"id": i, "idea": idea, "text": text, "t": t}
            for i, (idea, text, t) in enumerate(zip(graph.idea, graph.text, graph.t.tolist()))
        ],
        "edges": [
            [u, v, w, "intra" if intra else "inter"]
            for u, v, w, intra in zip(graph.u.tolist(), graph.v.tolist(), graph.weight.tolist(), graph.intra.tolist())
        ],
    }
    return json.dumps(payload).encode("utf-8")


def graph_json_arrays(path) -> dict:
    """The graph.json export at ``path`` parsed into arrays, entry by entry:
    the config, per node its idea, text and time feature ``t``, and per
    edge ``u``, ``v``, ``weight`` and ``intra`` (kind "intra" or "inter")."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    nodes, edges = payload["nodes"], payload["edges"]
    assert [node["id"] for node in nodes] == list(range(len(nodes)))
    assert all(len(edge) == 4 and edge[3] in ("intra", "inter") for edge in edges)
    return {
        "config": payload["config"],
        "idea": [node["idea"] for node in nodes],
        "text": [node["text"] for node in nodes],
        "t": np.array([node["t"] for node in nodes], dtype=np.float64),
        "u": np.array([edge[0] for edge in edges], dtype=np.int64),
        "v": np.array([edge[1] for edge in edges], dtype=np.int64),
        "weight": np.array([edge[2] for edge in edges], dtype=np.float64),
        "intra": np.array([edge[3] == "intra" for edge in edges], dtype=bool),
    }


def brute_force_macro(truths: list[int], preds: list[int], n_labels: int) -> dict:
    """Per-class precision/recall/F1 from raw pair counts."""
    precisions, recalls, f1s = [], [], []
    correct = sum(1 for t, p in zip(truths, preds) if t == p)
    for c in range(n_labels):
        tp = sum(1 for t, p in zip(truths, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(truths, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(truths, preds) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
    return {
        "accuracy": correct / len(truths),
        "macro_precision": sum(precisions) / n_labels,
        "macro_recall": sum(recalls) / n_labels,
        "macro_f1": sum(f1s) / n_labels,
    }


def finite_difference_grads(model, loss_fn, epsilon: float = 1e-4) -> dict[str, np.ndarray]:
    """Central finite differences over every parameter of the model."""
    grads = {}
    for name, param in model.items():
        grad = np.zeros_like(param)
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + epsilon
            up = loss_fn()
            flat[idx] = original - epsilon
            down = loss_fn()
            flat[idx] = original
            gflat[idx] = (up - down) / (2 * epsilon)
        grads[name] = grad
    return grads


def max_relative_error(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    """Worst relative disagreement; entries below the finite-difference
    resolution (1e-7) on both sides are treated as agreeing zeros."""
    worst = 0.0
    for name in analytic:
        a = analytic[name].reshape(-1)
        f = numeric[name].reshape(-1)
        for x, y in zip(a, f):
            denom = max(abs(x), abs(y))
            if denom < 1e-7:
                continue
            worst = max(worst, abs(x - y) / denom)
    return worst


def random_lp_instance(rng: np.random.Generator, max_nodes: int = 12, max_labels: int = 4):
    """Random adjacency + init vectors for the propagation oracle."""
    n = int(rng.integers(2, max_nodes + 1))
    n_labels = int(rng.integers(2, max_labels + 1))
    adjacency = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                w = float(rng.random())
                adjacency[i, j] = adjacency[j, i] = w
    init = np.zeros((n, n_labels))
    for i in range(n):
        if rng.random() < 0.5:
            init[i, int(rng.integers(n_labels))] = 1.0
    return adjacency, init


# --- mock extraction, as first written: regexes throughout -----------------
# References for the mock backend, which tests markers, strips brackets
# and cuts the abstract with plain string tests where these use a regex,
# splits sentences with a pattern that has a literal prefix, and counts
# its completion's words without splitting it. Each raises what the
# package raises, with the same message.

_REF_HEADER_RE = re.compile(r"\[\s*extracted\s+viewpoints(?:\s+in\s+sentence\s+[0-9]+)?\s*\]", re.IGNORECASE)
_REF_SENTENCE_MARKER_RE = re.compile(r"\s*sentence\s+[0-9]+\s*", re.IGNORECASE)
_REF_ABSTRACT_RE = re.compile(r"\[The Start of Abstract\]\s*(.*?)\s*\[The End of Abstract\]", re.DOTALL)


def is_marker(text: str) -> bool:
    return bool(_REF_SENTENCE_MARKER_RE.fullmatch(text) or _REF_HEADER_RE.fullmatch(f"[{text}]"))


def split_sentences(text: str) -> list[str]:
    return [p.strip() for p in re.split(r"(?<=[.!?])\s+", text.strip()) if p.strip()]


def sanitize(text: str) -> str:
    return re.sub(r"[\[\]{}]", "", text).strip()


def render_viewpoint_response(groups) -> str:
    parts = []
    for i, (sentence, views) in enumerate(groups, start=1):
        if not views:
            raise ValueError(f"sentence {i} has no viewpoints")
        for v in views:
            if "[" in v or "]" in v:
                raise ValueError(f"viewpoint may not contain brackets: {v!r}")
            if not v.strip():
                raise ValueError("viewpoint may not be blank")
            if is_marker(v):
                raise ValueError(f"viewpoint collides with a marker: {v!r}")
        parts.append(f"[Sentence {i}]")
        parts.append(sentence)
        parts.append(f"[Extracted Viewpoints in Sentence {i}]")
        parts.extend(f"[{v}]" for v in views)
    return "\n".join(parts)


def mock_viewpoints(prompt: str) -> str:
    m = _REF_ABSTRACT_RE.search(prompt)
    abstract = m.group(1) if m else prompt
    sentences = [s for s in map(sanitize, split_sentences(abstract)) if s and not is_marker(s)]
    return render_viewpoint_response([(s, [s]) for s in sentences or ["empty abstract"]])

"""Viewpoint-graph construction.

Each idea contributes a subgraph: every viewpoint-node links to its
top-k (``GraphConfig.k``) most cosine-similar siblings, or with
``GraphConfig.hybrid`` to the siblings its extracted relations name.
Subgraphs are joined by giving every node its top-m (``GraphConfig.m``)
most similar nodes from other ideas. Edges are undirected, weighted by
cosine similarity clamped to ``[weight_floor, 1]``, and proposals from
both endpoints of a pair are deduplicated. Each idea block gets one similarity matrix
and one exact top-k/top-m selection (partition, then sort the few kept).

A graph is held as arrays: per node its idea, text and time feature; per
undirected edge ``u < v`` (sorted by ``(u, v)``) its weight and intra
flag; and one directed view, ``arcs``, holding each edge once per
direction sorted by ``(dst, src)`` with a CSR ``indptr`` over ``dst``,
which label propagation, the GNN and the negative generator read.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import (COUNT, STRINGS, Checked, FileFormatError, IdeaViewpoints, at_least, first_match, must,
                      normalize_text, plain, read_headed, setting, write_atomic, write_headed)
from .embedding import EmbeddingMatrix

# graph.json's text after an edge's weight, by its intra flag: its kind,
# then the next edge's opening bracket
_KIND_ENDS = (', "inter"], [', ', "intra"], [')

# Directed view: arcs into node i are src/weight[indptr[i]:indptr[i + 1]],
# in ascending src order.
Arcs = namedtuple("Arcs", "src dst weight indptr")


@dataclass(frozen=True)
class GraphConfig(Checked):
    """Top-k intra and top-m inter degrees, the weight floor, and whether
    intra edges come from extracted relations (hybrid) instead of top-k."""

    k: int = setting(5, at_least(1))
    m: int = setting(10, kind=COUNT)
    weight_floor: float = setting(0.0, must(lambda v: 0.0 <= v <= 1.0, "in [0, 1]"))
    hybrid: bool = False


class ViewpointGraph:
    """Nodes ``0..n-1`` and undirected weighted edges, as arrays.

    Edges may be given in any order and either orientation; they are
    stored with ``u < v`` sorted by ``(u, v)``, and edges given that way
    are kept in their order. Time features must be finite. The arrays are
    read-only.
    """

    def __init__(
        self,
        idea: Sequence[str],
        text: Sequence[str],
        t: Sequence[float],
        u=(),
        v=(),
        weight=(),
        intra=(),
        config: GraphConfig = GraphConfig(),
    ):
        self.idea, self.text = list(idea), list(text)
        self.t = np.array(t, dtype=np.float64)
        self.config = config
        n = len(self.idea)
        if not len(self.text) == len(self.t) == n:
            raise ValueError(f"{n} node ideas, {len(self.text)} texts and {len(self.t)} time features")
        a, b = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
        weight = np.array(weight, dtype=np.float64)
        intra = np.array(intra, dtype=bool)
        if not len(a) == len(b) == len(weight) == len(intra):
            raise ValueError("edge arrays differ in length")
        if not _canonical(a, b):
            order = np.lexsort((np.maximum(a, b), np.minimum(a, b)))
            a, b = np.minimum(a, b)[order], np.maximum(a, b)[order]
            weight, intra = weight[order], intra[order]
        self.u, self.v, self.weight, self.intra = a, b, weight, intra
        # each node's idea coded by the idea's first node; ideas in order of
        # their first nodes, each idea's nodes ascending
        first_node: dict[str, int] = {}
        code = np.fromiter(map(first_node.setdefault, self.idea, range(n)), np.int64, n)
        sizes = np.bincount(code, minlength=n)
        nodes, stops = np.argsort(code, kind="stable").tolist(), np.cumsum(sizes[sizes > 0]).tolist()
        self.idea_nodes: dict[str, list[int]] = {
            idea: nodes[start:stop] for idea, start, stop in zip(first_node, [0] + stops, stops)}
        self._validate(code)

        # Edges are sorted by (u, v) with u < v, so each node's sources are
        # two ascending runs: the lower ends of its edges, which are the
        # edges in (v, u) order (a stable sort by v alone, by radix when v
        # fits 16 bits), then the upper ends, whose edges are already
        # contiguous by u. Both runs are placed by offsets from indptr.
        below, above = np.bincount(self.v, minlength=n), np.bincount(self.u, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(below + above, out=indptr[1:])
        by_v = np.argsort(self.v.astype(np.uint16) if n <= 1 << 16 else self.v, kind="stable")
        edges = np.arange(len(self.v))
        order = np.empty(2 * len(edges), dtype=np.int64)
        order[edges + (np.cumsum(above) - above)[self.v[by_v]]] = by_v
        order[edges + np.cumsum(below)[self.u]] = edges + len(edges)
        src, dst = np.concatenate([self.u, self.v]), np.concatenate([self.v, self.u])
        self.arcs = Arcs(src[order], dst[order], np.concatenate([self.weight, self.weight])[order], indptr)
        for array in (self.t, self.u, self.v, self.weight, self.intra, *self.arcs):
            array.setflags(write=False)  # a graph may be handed from stage to stage

    def _validate(self, code: np.ndarray):
        """``code`` is each node's idea as a number."""
        n = len(self.idea)
        if (bad := np.flatnonzero(~np.isfinite(self.t))).size:
            raise ValueError(f"node {bad[0]} has time feature {self.t[bad[0]]}")

        def fail(mask, problem):
            if mask.any():
                i = int(np.argmax(mask))
                raise ValueError(f"edge ({self.u[i]}, {self.v[i]}) {problem}")

        fail(self.u == self.v, "is a self-loop")
        fail((self.u < 0) | (self.v >= n), "references unknown node")
        fail(np.r_[False, (self.u[1:] == self.u[:-1]) & (self.v[1:] == self.v[:-1])],
             "listed more than once (asymmetric adjacency)")
        same_idea = code[self.u] == code[self.v]
        fail(self.intra & ~same_idea, "is intra but joins different ideas")
        fail(~self.intra & same_idea, "is inter but joins the same idea")
        fail(~((self.weight >= 0.0) & (self.weight <= 1.0)), "has weight outside [0, 1]")

    def __len__(self) -> int:
        return len(self.idea)

    def nodes_of(self, idea_id: str, kind: str = "idea", hint: str = "") -> list[int]:
        """The idea's node ids; an idea without nodes raises a ValueError
        naming it as ``kind``, with ``hint`` after."""
        if not (nodes := self.idea_nodes.get(idea_id)):
            raise ValueError(f"{kind} {idea_id!r} has no nodes in the graph{hint}")
        return nodes


def padded(groups: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The groups of node ids as one (B, L) table, each row padded with
    node 0 to the longest group's length L, and the mask of the cells that
    hold a group's node. Gathered rows of two or more values, summed along
    L with the padding masked to +0.0, equal ``values[group].sum(axis=0)``
    bit for bit: numpy adds both a row at a time (one-value rows, pairwise)."""
    sizes = np.array([len(ids) for ids in groups], dtype=np.int64)
    present = np.arange(sizes.max(initial=0)) < sizes[:, None]
    index = np.zeros(present.shape, dtype=np.int64)
    index[present] = [i for ids in groups for i in ids]
    return index, present


def _canonical(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether every edge has ``u < v`` and the edges are sorted by ``(u, v)``."""
    du, dv = np.diff(u), np.diff(v)
    return bool(np.all(u < v) and np.all((du > 0) | ((du == 0) & (dv >= 0))))


Slots = namedtuple("Slots", "order starts weight src")

GATHER_BYTES = 1 << 17  # of neighbour rows gathered at once; ``add_neighbours`` says why
RANK_BYTES = 1 << 18  # of similarity rows ranked at once; ``_propose`` says why
HEAD_BYTES = 1 << 19  # of GNN head gradient rows summed at once; ``gnn._outer_sums`` says why


def neighbour_slots(arcs: Arcs) -> Slots:
    """The arcs in slot-major order, built in one vectorized pass. ``order``
    lists the nodes by descending degree (ties in node order). Slot s holds
    the s-th arc (by ascending source) of each node with more than s arcs,
    in that order: a prefix of ``order``. ``weight`` (a column) and ``src``
    hold slot 0's arcs, then slot 1's, and so on; slot s is
    ``[starts[s], starts[s + 1])``."""
    degree = np.diff(arcs.indptr)
    order = np.argsort(-degree, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # one arc-sized array at a time besides the result, in place: each
    # arc's slot (its rank among its node's arcs), then its place in the table
    place = np.arange(len(arcs.src))
    place -= np.repeat(arcs.indptr[:-1], degree)
    starts = np.zeros(int(degree.max(initial=0)) + 1, dtype=np.int64)
    np.cumsum(np.bincount(place, minlength=len(starts) - 1), out=starts[1:])
    np.take(starts, place, out=place)
    place += np.repeat(rank, degree)
    weight, src = np.empty_like(arcs.weight), np.empty_like(arcs.src)
    weight[place], src[place] = arcs.weight, arcs.src
    return Slots(order, starts.tolist(), weight[:, None], src)


def add_neighbours(out: np.ndarray, slots: Slots, values: np.ndarray) -> np.ndarray:
    """Add to each node's row of ``out`` its neighbours' rows of ``values``
    times the arc weights, one neighbour at a time in ascending neighbour
    order, and return ``out``. ``slots`` is ``neighbour_slots(arcs)``. The
    rows are scaled in the dtype of ``values`` and the weights together.

    Runs of whole slots, each up to ``GATHER_BYTES`` of rows or one larger
    slot, are gathered and scaled into one buffer; then each slot of the
    run adds its rows to its prefix of the degree order, slot after slot.
    The budget, 128 KiB, takes lp's rows (one value per label) for a few
    hundred nodes in two or three gathers, about as fast as one. A GNN's
    64-value rows still go one slot at a time, so its buffer stays the
    size of its largest slot. Larger budgets cost peak memory and no
    time: 256 KiB added 0.28 MB to a warm lp rescore's peak RSS (128 KiB:
    0.14 MB), and 1 MiB added 0.8-1.2 MB to gnn-novelty's."""
    order, starts, weight, src = slots
    dtype, width = np.result_type(values, weight), values.shape[1]
    runs = _runs(starts, max(GATHER_BYTES // (dtype.itemsize * max(width, 1)), 1))  # a budget in rows
    buf = np.empty((max((starts[stop] - starts[first] for first, stop in runs), default=0), width), dtype)
    sums = out[order]  # in degree order, each slot adds to a prefix
    for first, stop in runs:
        lo = starts[first]
        rows = buf[:starts[stop] - lo]  # the run's neighbour rows, gathered and scaled in place
        np.take(values, src[lo:starts[stop]], axis=0, out=rows, mode="clip")  # arc sources are valid: clip only skips the check
        rows *= weight[lo:starts[stop]]
        for s in range(first, stop):
            sums[:starts[s + 1] - starts[s]] += rows[starts[s] - lo:starts[s + 1] - lo]
    out[order] = sums
    return out


def time_features(timestamps: Mapping[str, int]) -> dict[str, float]:
    """Each idea's timestamp min-max normalized into [0, 1]; 0 for every
    idea when all timestamps are equal."""
    lo, hi = min(timestamps.values(), default=0), max(timestamps.values(), default=0)
    if hi == lo:
        return {k: 0.0 for k in timestamps}
    return {k: (v - lo) / (hi - lo) for k, v in timestamps.items()}


def _propose(matrix: EmbeddingMatrix, blocks, config: GraphConfig, causal: bool, pairs=None):
    """Edges (u, v, weight, intra) proposed by every node of ``blocks``
    (consecutive ``(start, stop)`` node ranges, one per idea), ranked a run
    of blocks at a time.

    Each node ranks by (-similarity, index) the nodes outside its block,
    keeping the top m, and its siblings, keeping the top k. With ``pairs``
    (per block, block-local ``(left, right)`` node arrays) the siblings it
    proposes are instead the ``right`` of each pair it is the ``left`` of,
    in pair order. With ``causal`` the foreign nodes are only those before
    its block, and each block's similarities are taken on their own, over
    the rows up to its block's end (a gemv over a longer prefix may round
    differently). A pair proposed more than once keeps its first proposal,
    intra ahead of inter, proposers in node order (top-k) or in pair order
    (``pairs``). Similarity rows equal per-node matvecs bit for bit, and
    ``_smallest`` equals a stable argsort cut after k or m.

    A run is up to ``RANK_BYTES`` of similarity rows, or one larger block.
    Its rows are ranked together, the siblings in a table padded to the
    run's largest block. 256 KiB ranks the 600 rows of a 100-idea build
    in a dozen runs, as fast as 128 KiB and faster than 512 KiB or 1 MiB
    (in-process A/Bs); 1 MiB ranked 6,000 nodes faster, with a larger
    buffer.
    """
    n = len(matrix)
    lo = blocks[0][0] if blocks else 0
    size = np.array([stop - start for start, stop in blocks], dtype=np.int64)
    # per node from ``lo`` on: its block's first node and size, and its
    # siblings as (row, sibling) cells, node after node
    start, width = np.repeat(np.cumsum(size) - size + lo, size), np.repeat(size, size)
    cell_row, cell_sib = np.nonzero(np.arange(size.max(initial=0)) < width[:, None])
    cell_col, cells = start[cell_row] + cell_sib, np.cumsum(np.r_[0, width]).tolist()
    # k and m clamped to the node count first: any larger value also means
    # all, and may not fit numpy's integers
    k_count = np.minimum(min(config.k, n), width - 1)
    m_count = np.minimum(min(config.m, n), start if causal else n - width)  # at most its foreign nodes
    intra, inter = [], []  # per run: (proposers, targets, similarities)
    for first, stop in _runs([lo] + [hi for _, hi in blocks], RANK_BYTES // (8 * max(n, 1))):
        r0, r1 = blocks[first][0] - lo, blocks[stop - 1][1] - lo  # the run's rows
        if causal:
            keys = np.full((r1 - r0, lo + r1), -np.inf)
            for b_lo, b_hi in blocks[first:stop]:
                keys[b_lo - lo - r0:b_hi - lo - r0, :b_hi] = matrix.similarities(b_lo, b_hi, b_hi)
        else:
            keys = matrix.similarities(lo + r0, lo + r1)
        np.negative(keys, out=keys)  # a similarity is -keys[i, j]; a causal row's later nodes are inf
        row, col = cell_row[cells[r0]:cells[r1]] - r0, cell_col[cells[r0]:cells[r1]]
        if pairs is None:
            siblings = np.full((r1 - r0, size[first:stop].max()), np.inf)
            siblings[row, cell_sib[cells[r0]:cells[r1]]] = np.where(col == lo + r0 + row, np.inf, keys[row, col])
            r, c = _smallest(siblings, k_count[r0:r1])
            c += start[r0 + r]
        else:
            local = [(b_lo - lo - r0 + left, b_lo + right)
                     for (b_lo, _), (left, right) in zip(blocks[first:stop], pairs[first:stop])]
            r, c = (np.concatenate([np.zeros(0, np.int64), *side]) for side in zip(*local))
        intra.append((lo + r0 + r, c, -keys[r, c]))
        keys[row, col] = np.inf
        r, c = _smallest(keys, m_count[r0:r1])
        inter.append((lo + r0 + r, c, -keys[r, c]))
    found = intra + inter
    proposers, targets, sims = (np.concatenate([np.zeros(0, dtype)] + [f[j] for f in found])
                                for j, dtype in enumerate((np.int64, np.int64, np.float64)))
    intra = np.arange(len(sims)) < sum(len(f[0]) for f in intra)
    u, v = np.minimum(proposers, targets), np.maximum(proposers, targets)
    _, first = np.unique(u * (n + 1) + v, return_index=True)
    return u[first], v[first], _clamp(sims[first], config.weight_floor), intra[first]


def _runs(bounds: Sequence[int], budget: int) -> list[tuple[int, int]]:
    """Consecutive parts, part i spanning ``bounds[i]:bounds[i + 1]``, cut
    into runs given as ``(first, stop)`` part ranges, each spanning up to
    ``budget`` or one larger part."""
    runs, first = [], 0
    while first < len(bounds) - 1:
        stop = max(bisect_right(bounds, bounds[first] + budget) - 1, first + 1)
        runs.append((first, stop))
        first = stop
    return runs


def _smallest(keys: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of row r's ``count[r]`` smallest keys by (key, column),
    row after row: a partition finds each row's count-th key, then keys up
    to it are sorted."""
    top = int(count.max(initial=0))
    if top <= 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    kept = np.sort(np.partition(keys, top - 1, axis=1)[:, :top], axis=1)
    t = kept[np.arange(len(keys)), np.maximum(count, 1) - 1, None]
    row, col = np.divmod(np.flatnonzero(keys <= t), keys.shape[1])  # row by row, columns ascending
    order = np.lexsort((keys[row, col], row))  # stable: equal keys stay in column order
    keep = order[np.arange(len(order)) - np.searchsorted(row, row) < count[row]]  # rank within the row
    return row[keep], col[keep]


def _clamp(sims: np.ndarray, floor: float) -> np.ndarray:
    return np.minimum(1.0, np.maximum(floor, sims))


def build_graph(
    records: Sequence[IdeaViewpoints],
    matrix: EmbeddingMatrix,
    config: GraphConfig = GraphConfig(),
) -> ViewpointGraph:
    """Build the full viewpoint-graph over all ideas.

    Node ids are assigned in (idea order, viewpoint order) and must match
    the embedding matrix row order. With ``config.hybrid`` intra edges come
    from the records' extracted relation pairs instead of top-k
    similarity, each weighted by its left viewpoint's similarity to its
    right one; inter edges are unchanged.
    """
    tf = time_features({r.idea_id: r.timestamp for r in records})
    t = [tf[r.idea_id] for r in records for _ in r.viewpoints]
    return _grow(ViewpointGraph(idea=[], text=[], t=[], config=config), records, matrix, t, causal=False)


def _pair_edges(rec: IdeaViewpoints) -> np.ndarray:
    """The record's relation pairs as block-local (left, right) node rows,
    in pair order: each text names the viewpoint ``first_match`` finds for
    it, and a pair naming an unknown text or one node twice is dropped.
    ``_propose`` keeps a pair's first mention."""
    index = first_match(rec.viewpoints)
    nodes = [(index.get(normalize_text(left)), index.get(normalize_text(right)))
             for left, _connector, _polarity, right in rec.pairs]
    kept = [(a, b) for a, b in nodes if a is not None and b is not None and a != b]
    return np.array(kept, dtype=np.int64).reshape(-1, 2).T


def integrate_subgraph(
    graph: ViewpointGraph,
    records: Sequence[IdeaViewpoints],
    matrix: EmbeddingMatrix,
    t: Sequence[float],
) -> ViewpointGraph:
    """Append new ideas' subgraphs to an existing graph, under the graph's
    own config; ``t`` gives every node's time feature, old and new.

    New nodes take the next ids in record order (their matrix rows must
    already be appended). Each new node proposes intra edges among its
    siblings as ``build_graph`` does (top-k, or in a hybrid graph the
    siblings its record's relation pairs name) and inter edges to its
    top-m nodes among those before its own idea: the existing graph and
    earlier records. Existing nodes are never re-ranked, so the result
    matches a from-scratch rebuild exactly only when m covers all foreign
    nodes, and integrating records in one call equals integrating them
    one at a time.
    """
    return _grow(graph, records, matrix, t, causal=True)


def _grow(graph: ViewpointGraph, records: Sequence[IdeaViewpoints], matrix: EmbeddingMatrix,
          t: Sequence[float], causal: bool) -> ViewpointGraph:
    """``graph`` with one block of new nodes per record appended, in record
    order, each proposing edges as ``_propose`` says; ``t`` is every
    node's time feature. This is the one place a block's intra rule is
    picked: under ``graph.config.hybrid`` its record's relation pairs
    (``_pair_edges``), for built and integrated records alike, else
    top-k. An idea id already in the graph or repeated among the records
    is refused, as is a matrix without one row per node."""
    seen = set(graph.idea_nodes)
    for rec in records:
        if rec.idea_id in seen:
            raise ValueError(f"idea {rec.idea_id!r} already in graph")
        seen.add(rec.idea_id)
    stops = np.cumsum([len(graph)] + [len(rec.viewpoints) for rec in records]).tolist()
    if len(matrix) != stops[-1]:
        raise ValueError(f"matrix has {len(matrix)} rows, expected {stops[-1]}")
    pairs = list(map(_pair_edges, records)) if graph.config.hybrid else None
    u, v, weight, intra = _propose(matrix, list(zip(stops[:-1], stops[1:])), graph.config, causal, pairs)
    return ViewpointGraph(
        idea=graph.idea + [r.idea_id for r in records for _ in r.viewpoints],
        text=graph.text + [text for r in records for text in r.viewpoints],
        t=t, u=np.r_[graph.u, u], v=np.r_[graph.v, v],
        weight=np.r_[graph.weight, weight], intra=np.r_[graph.intra, intra], config=graph.config,
    )


# graph.bin's arrays in file order, each little-endian: t has one entry per
# node, the others one per edge.
_DTYPES = {"t": "<f8", "u": "<i8", "v": "<i8", "weight": "<f8", "intra": "|u1"}
# graph.bin's header keys. The dtypes come first, so a file of another
# layout, such as the graph.json export, is refused on them.
_HEADER = {"dtypes": (dict, must(lambda dtypes: dtypes == _DTYPES, str(_DTYPES))), "config": (GraphConfig, None),
           "edges": (COUNT, None), "idea": (STRINGS, None), "text": (STRINGS, None)}


def save_graph(graph: ViewpointGraph, path: str | Path) -> None:
    """Binary format, in the headed layout: one JSON header line {config,
    edges, dtypes, idea, text} (the whole config, the edge count, the
    dtypes and the node ideas and texts), then the arrays of ``_DTYPES``
    in order."""
    header = {"config": plain(graph.config), "edges": len(graph.weight), "dtypes": _DTYPES,
              "idea": graph.idea, "text": graph.text}
    write_headed(path, header, (np.asarray(getattr(graph, name), dtype) for name, dtype in _DTYPES.items()))


def export_graph_json(graph: ViewpointGraph, path: str | Path) -> None:
    """Write ``graph`` to ``path`` as JSON: ``{"config": {k, m,
    weight_floor}, "nodes": [{id, idea, text, t}], "edges": [[u, v,
    weight, kind]]}``. An export for other tools; viewgraph never reads it.

    The bytes are ``json.dumps`` of that object. The config and nodes go
    through it; the edges are written from their columns as it writes
    them, with each node id and each distinct weight (by its bits)
    formatted once."""
    config = {"k": graph.config.k, "m": graph.config.m, "weight_floor": graph.config.weight_floor}
    nodes = [{"id": i, "idea": idea, "text": text, "t": t}
             for i, (idea, text, t) in enumerate(zip(graph.idea, graph.text, graph.t.tolist()))]
    ids = [f"{i}, " for i in range(len(graph))]
    bits, which = np.unique(graph.weight.view(np.int64), return_inverse=True)
    pieces = [""] * (4 * len(graph.weight))  # per edge "u, ", "v, ", the weight, the kind and the next edge's "["
    pieces[0::4], pieces[1::4] = map(ids.__getitem__, graph.u.tolist()), map(ids.__getitem__, graph.v.tolist())
    pieces[2::4] = map(list(map(float.__repr__, bits.view(np.float64).tolist())).__getitem__, which.tolist())
    pieces[3::4] = map(_KIND_ENDS.__getitem__, graph.intra.tolist())
    edges = "[" + "".join(pieces)[:-3] if pieces else ""  # the last edge opens none
    text = f'{json.dumps({"config": config, "nodes": nodes})[:-1]}, "edges": [{edges}]}}'
    write_atomic(path, text.encode("utf-8"))


def load_graph(path: str | Path) -> ViewpointGraph:
    """Read a graph written by ``save_graph``. A malformed file raises a
    FileFormatError naming the file, and the header key, the blob length or
    the rule of ``ViewpointGraph`` at fault."""
    header, arrays = read_headed(path, "graph file", _HEADER, lambda header: {
        name: (dtype, (len(header["idea"]) if name == "t" else header["edges"],)) for name, dtype in _DTYPES.items()})
    try:
        return ViewpointGraph(header["idea"], header["text"], config=GraphConfig(**header["config"]), **arrays)
    except ValueError as exc:  # texts and ideas of different lengths, or a node or edge that breaks a rule
        raise FileFormatError(path, str(exc), noun="graph file") from None

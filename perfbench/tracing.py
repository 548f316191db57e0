"""Run-time tracing of viewgraph's public functions, from outside the package.

``Tracer.install`` replaces each target function with a timing wrapper,
both on its defining module (or class) and on every ``viewgraph`` module
that imported the name, so ``pipeline.build_graph`` is traced as well as
``graph.build_graph``. No source file is edited; ``uninstall`` puts the
originals back. Each call records a span (op, id, parent, name, start,
end); spans stay in memory until ``write_spans``. Observers read counts
from a call's arguments and result at the same boundary.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


def _tokens(counts, args, kwargs, result):
    counts["llm.tokens"] += result[1].total


def _negatives(counts, args, kwargs, result):
    samples, fallbacks = result
    counts["novelty.generated"] += len(samples)
    counts["novelty.fallbacks"] += fallbacks


def _lp_predictions(counts, args, kwargs, result):
    counts["label_prop.predicted"] += len(result)
    counts["label_prop.unreached"] += sum(p.unreached for p in result)


def _stages(counts, args, kwargs, result):
    counts["pipeline.stages"] += len(result["stages"])
    counts["pipeline.skipped"] += sum(bool(s.get("skipped")) for s in result["stages"])


def _epochs(counts, args, kwargs, result):
    counts["gnn.epochs"] += len(result.log)


def _edge_tensor(counts, args, kwargs, result):
    # one (2E, h) float64 edge tensor per layer: the pre-activations
    model, edges = args[0], args[2]
    size = len(edges.src) * model.hidden_dim * 8
    counts["gnn.edge_tensor_bytes"] = max(counts["gnn.edge_tensor_bytes"], size)


@dataclass(frozen=True)
class Target:
    layer: str  # short module name under viewgraph
    name: str  # function, or Class.method
    observe: Optional[Callable] = None

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


TARGETS = (
    Target("pipeline", "run_pipeline", _stages),
    Target("pipeline", "file_hash"),
    Target("dataset", "load_corpus"),
    Target("llm", "extract_corpus"),
    Target("llm", "LlmBackend.complete", _tokens),
    Target("embedding", "embed"),
    Target("embedding", "save_embeddings"),
    Target("embedding", "load_embeddings"),
    Target("graph", "build_graph"),
    Target("graph", "EmbeddingMatrix.similarities"),
    Target("graph", "ViewpointGraph.__init__"),
    Target("graph", "load_graph"),
    Target("graph", "integrate_subgraph"),
    Target("novelty", "generate_negatives", _negatives),
    Target("novelty", "inject_negatives"),
    Target("label_prop", "run", _lp_predictions),
    Target("label_prop", "normalize_weights"),
    Target("label_prop", "propagate"),
    Target("gnn", "train", _epochs),
    Target("gnn", "full_forward", _edge_tensor),
    Target("gnn", "batch_loss_and_grads"),
    Target("gnn", "pool_and_head"),
    Target("gnn", "adam_step"),
    Target("gnn", "predict"),
    Target("metrics", "macro_metrics"),
)

# EmbeddingMatrix is defined in viewgraph.embedding, but the graph build
# makes nearly all similarity calls, so they are reported under graph.
_HOME = {"EmbeddingMatrix.similarities": "embedding"}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.ops = 0  # traced operations so far; a span's op is its index
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, key: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.ops, sid, parent, key, start, end)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is recorded
        in ``missing`` and reported on stderr."""
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("viewgraph") and m]
        for target in self.targets:
            owner_name, _, attr = target.name.rpartition(".")
            try:
                module = importlib.import_module("viewgraph." + _HOME.get(target.name, target.layer))
            except ModuleNotFoundError:
                module = None
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                if target.key not in self.missing:
                    self.missing.append(target.key)
                    print(f"perfbench: cannot trace {target.key}: not found", file=sys.stderr)
                continue
            wrapper = self._wrap(target.key, original, target.observe)
            if owner_name:
                owners = [(owner, attr)]
            else:
                owners = [
                    (m, name)
                    for m in loaded
                    for name, value in vars(m).items()
                    if value is original
                ]
            for where, name in owners:
                self._patched.append((where, name, original))
                setattr(where, name, wrapper)

    def uninstall(self) -> None:
        for where, name, original in reversed(self._patched):
            setattr(where, name, original)
        self._patched = []

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by its direct child spans)."""
        child = defaultdict(float)
        for _op, _sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {t.key: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for t in self.targets}
        for _op, sid, _parent, name, start, end in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["op", "id", "parent", "name", "start_s", "end_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""End-to-end pipeline: split -> extract -> embed -> build -> engines -> eval.

One JSON config file drives everything. Each stage records content hashes
of its inputs and outputs in the run manifest; a stage whose inputs are
unchanged and whose outputs still match is skipped on rerun (``--force``
overrides). All stage randomness derives from the single global seed via
``seed_for(seed, stage_name)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
import typing
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from functools import partial, reduce
from pathlib import Path
from typing import Optional

from . import __version__
from . import gnn as gnn_mod
from . import label_prop as lp_mod
from . import novelty as novelty_mod
from .dataset import (
    SPLITS,
    Corpus,
    load_corpus,
    load_viewpoints,
    read_jsonl,
    save_corpus,
    save_viewpoints,
    split_corpus,
)
from .embedding import EmbeddingMatrix, EmbeddingProvider, embed, load_embeddings, save_embeddings
from .graph import GraphConfig, ViewpointGraph, build_graph, load_graph, save_graph
from .llm import LlmBackend, extract_corpus
from .metrics import MetricReport, confusion, format_table, macro_metrics

ENGINES = ("lp", "gnn", "both")


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid config:\n" + "\n".join(f"  {e}" for e in errors))


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception, manifest: dict):
        self.stage = stage
        self.cause = cause
        self.manifest = manifest
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass
class SplitSettings:
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)


@dataclass
class LlmSettings:
    backend: str = "mock"
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.1
    max_retries: int = 3
    price_per_million: float = 0.0
    relations: bool = False
    max_inflight: int = 4


@dataclass
class EmbeddingSettings:
    provider: str = "stub"
    dimension: int = 32
    endpoint: str = ""
    model: str = ""


@dataclass
class GraphSettings:
    k: int = 5
    m: int = 10
    weight_floor: float = 0.0
    hybrid: bool = False


@dataclass
class LpSettings:
    max_iters: int = 5
    early_stop: bool = True


@dataclass
class GnnSettings:
    layers: int = 2
    hidden_dim: int = 64
    batch_size: int = 64
    max_epochs: int = 1000
    learning_rate: float = 1e-3
    class_weighting: bool = False


@dataclass
class NoveltySettings:
    enabled: bool = False
    count: int = 80
    train_subset: int = 10
    threshold: int = 1
    swap_fraction: float = 0.5


@dataclass
class RunConfig:
    corpus: str = "corpus.jsonl"
    out_dir: str = "run"
    seed: int = 0
    engine: str = "lp"
    split: SplitSettings = field(default_factory=SplitSettings)
    llm: LlmSettings = field(default_factory=LlmSettings)
    embedding: EmbeddingSettings = field(default_factory=EmbeddingSettings)
    graph: GraphSettings = field(default_factory=GraphSettings)
    lp: LpSettings = field(default_factory=LpSettings)
    gnn: GnnSettings = field(default_factory=GnnSettings)
    novelty: NoveltySettings = field(default_factory=NoveltySettings)


def _type_problem(value, hint) -> Optional[str]:
    """What ``value`` must be to fit the field type ``hint``; None if it fits."""
    if hint is bool:
        return None if isinstance(value, bool) else "a boolean"
    if hint is int:
        return None if isinstance(value, int) and not isinstance(value, bool) else "an integer"
    if hint is float:
        return None if isinstance(value, (int, float)) and not isinstance(value, bool) else "a number"
    if hint is str:
        return None if isinstance(value, str) else "a string"
    item = typing.get_args(hint)[0]  # tuple[float, ...]
    if isinstance(value, (list, tuple)) and not any(_type_problem(v, item) for v in value):
        return None
    return "a list of numbers"


def _assign(target, data: dict, prefix: str, errors: list[str]) -> None:
    """Set each value of ``data`` on the dataclass ``target`` after checking
    it against the field type; a value that does not fit keeps the default
    and is reported under its dotted path."""
    hints = typing.get_type_hints(type(target))
    for key, value in data.items():
        path = prefix + key
        hint = hints.get(key)
        if hint is None:
            errors.append(f"{path}: unknown key")
        elif dataclasses.is_dataclass(hint):
            if isinstance(value, dict):
                _assign(getattr(target, key), value, path + ".", errors)
            else:
                errors.append(f"{path}: must be an object")
        elif (problem := _type_problem(value, hint)) is not None:
            errors.append(f"{path}: must be {problem}, got {value!r}")
        else:
            setattr(target, key, value)


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


# dotted config key -> (test of the value, what the value must be)
_RULES = {
    "engine": (lambda v: v in ENGINES, f"one of {ENGINES}"),
    "llm.backend": (lambda v: v in ("mock", "remote"), "mock or remote"),
    "llm.temperature": (lambda v: 0.0 <= v <= 2.0, "in [0, 2]"),
    "llm.max_retries": _at_least(1),
    "embedding.provider": (lambda v: v in ("stub", "remote"), "stub or remote"),
    "embedding.dimension": _at_least(2),
    "graph.k": _at_least(1),
    "graph.m": _at_least(0),
    "graph.weight_floor": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "lp.max_iters": _at_least(1),
    "gnn.layers": _at_least(1),
    "gnn.hidden_dim": _at_least(1),
    "gnn.batch_size": _at_least(1),
    "gnn.max_epochs": _at_least(1),
    "gnn.learning_rate": (lambda v: v > 0, "> 0"),
    "novelty.count": _at_least(1),
    "novelty.train_subset": _at_least(0),
    "novelty.threshold": _at_least(0),
    "novelty.swap_fraction": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
}


def validate_config(source) -> RunConfig:
    """Build a RunConfig from a dict or JSON file path.

    Missing keys get the defaults; every violation, of type or of range, is
    reported with its dotted path into the config.
    """
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        data = source or {}
    if not isinstance(data, dict):
        raise ConfigError([f"config: must be an object, got {type(data).__name__}"])
    errors: list[str] = []
    config = RunConfig()
    _assign(config, data, "", errors)

    for key, (ok, what) in _RULES.items():
        value = reduce(getattr, key.split("."), config)
        if not ok(value):
            errors.append(f"{key}: must be {what}, got {value!r}")
    fractions = config.split.fractions
    if len(fractions) != 3:
        errors.append(f"split.fractions: need 3 values, got {list(fractions)}")
    elif abs(sum(fractions) - 1.0) > 1e-9:
        errors.append(f"split.fractions: must sum to 1, got {sum(fractions)}")
    elif any(f < 0 for f in fractions):
        errors.append(f"split.fractions: must be non-negative, got {list(fractions)}")
    if config.graph.hybrid and not config.llm.relations:
        errors.append("graph.hybrid: requires llm.relations to be enabled")

    if errors:
        raise ConfigError(errors)
    config.split.fractions = tuple(float(f) for f in config.split.fractions)
    return config


def seed_for(seed: int, stage: str) -> int:
    """Documented per-stage sub-seed derived from the global seed."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def file_hash(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dict_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def evaluate_predictions(pred_path: Path, corpus: Corpus) -> MetricReport:
    """Score a predictions file against the corpus labels; unlabeled ideas
    are skipped."""
    truths, preds = [], []
    for obj in read_jsonl(pred_path):
        idea = corpus.by_id(obj["id"])
        if idea.label is not None:
            truths.append(idea.label)
            preds.append(corpus.label_set.index_of(obj["label"]))
    if not truths:
        raise ValueError(f"no labeled ideas among predictions in {pred_path}")
    return macro_metrics(confusion(truths, preds, corpus.label_set.labels))


# --- stages ------------------------------------------------------------------
# Each stage is one function run(paths, config) -> summary. ``paths`` maps
# file keys (the names used in ``run_pipeline``) to files; a stage reads
# and writes only those. ``viewgraph run`` calls them through the stage
# table with hash-based skipping, and each CLI subcommand calls one
# directly with its flags applied to the config. Optional files (held-out
# negatives, training log, negatives to inject) are used when their key
# is present.


def run_split(paths: dict, config: RunConfig) -> dict:
    corpus = load_corpus(paths["corpus"])
    if all(i.split is not None for i in corpus.ideas):
        save_corpus(corpus, paths["split"])  # already split: canonicalize only
        return {"passthrough": True}
    split = split_corpus(corpus, config.split.fractions, config.seed)
    save_corpus(split, paths["split"])
    return {name: len(split.split_ideas(name)) for name in SPLITS}


def run_extract(paths: dict, config: RunConfig) -> dict:
    corpus = load_corpus(paths["split"])
    llm = config.llm
    backend = LlmBackend(
        kind=llm.backend,
        endpoint=llm.endpoint,
        model=llm.model,
        temperature=llm.temperature,
        max_retries=llm.max_retries,
        price_per_million=llm.price_per_million,
        seed=seed_for(config.seed, "extract"),
        max_inflight=llm.max_inflight,
    )
    records, summary = extract_corpus(corpus.ideas, backend, relations=llm.relations)
    save_viewpoints(records, paths["viewpoints"])
    return summary


def run_embed(paths: dict, config: RunConfig) -> dict:
    records = load_viewpoints(paths["viewpoints"])
    texts = [v for r in records for v in r.viewpoints]
    ids = [f"{r.idea_id}:{j}" for r in records for j in range(len(r.viewpoints))]
    e = config.embedding
    provider = EmbeddingProvider(kind=e.provider, dimension=e.dimension, endpoint=e.endpoint, model=e.model)
    matrix = embed(texts, provider)
    save_embeddings(matrix, ids, paths["embeddings"])
    return {"count": len(matrix), "dimension": matrix.dimension}


def run_build(paths: dict, config: RunConfig) -> dict:
    records = load_viewpoints(paths["viewpoints"])
    matrix, _ = load_embeddings(paths["embeddings"])
    g = config.graph
    graph_config = GraphConfig(intra_k=g.k, inter_m=g.m, weight_floor=g.weight_floor)
    graph = build_graph(records, matrix, graph_config, hybrid=g.hybrid)
    save_graph(graph, paths["graph"])
    return {"nodes": len(graph), "edges": len(graph.weight)}


def run_negatives(paths: dict, config: RunConfig) -> dict:
    nv, seed = config.novelty, seed_for(config.seed, "negatives")
    samples, fallbacks = novelty_mod.generate_negatives(
        load_corpus(paths["split"]),
        load_graph(paths["graph"]),
        count=nv.count,
        threshold=nv.threshold,
        swap_fraction=nv.swap_fraction,
        seed=seed,
    )
    train, rest = novelty_mod.select_training_negatives(samples, nv.train_subset, seed=seed)
    novelty_mod.save_negatives(train, paths["negatives"])
    if "negatives_holdout" in paths:
        novelty_mod.save_negatives(rest, paths["negatives_holdout"])
    return {"generated": len(samples), "training": len(train), "fallbacks": fallbacks}


def run_lp(paths: dict, config: RunConfig, split: str = "test") -> dict:
    corpus = load_corpus(paths["split"])
    graph = load_graph(paths["graph"])
    predictions = lp_mod.run(graph, corpus, lp_mod.LpConfig(**asdict(config.lp)), split=split)
    lp_mod.save_predictions(predictions, corpus, paths["lp_pred"])
    return {"predicted": len(predictions), "unreached": sum(p.unreached for p in predictions)}


def _training_inputs(paths: dict) -> tuple[ViewpointGraph, EmbeddingMatrix, Corpus, list]:
    """Load graph/matrix/corpus; inject the training negatives if given."""
    corpus = load_corpus(paths["split"])
    graph = load_graph(paths["graph"])
    matrix, _ = load_embeddings(paths["embeddings"])
    negatives = []
    if "negatives" in paths:
        negatives = novelty_mod.load_negatives(paths["negatives"])
        graph, matrix = novelty_mod.inject_negatives(graph, matrix, negatives, corpus)
    return graph, matrix, corpus, negatives


def run_train(paths: dict, config: RunConfig) -> dict:
    graph, matrix, corpus, negatives = _training_inputs(paths)
    gnn_config = gnn_mod.GnnConfig(**asdict(config.gnn), seed=seed_for(config.seed, "train"))
    result = gnn_mod.train(gnn_config, graph, matrix, corpus, negatives or None)
    gnn_mod.save_model(
        result.model,
        paths["model"],
        gnn_config,
        corpus.label_set.labels,
        epoch=result.best_epoch,
        validation_score=result.best_val_f1,
    )
    if "train_log" in paths:
        Path(paths["train_log"]).write_text(json.dumps(result.log), encoding="utf-8")
    return {
        "epochs": len(result.log),
        "final_loss": result.log[-1]["loss"],
        "best_val_f1": result.best_val_f1,
    }


def run_predict(paths: dict, config: RunConfig, split: str = "test") -> dict:
    graph, matrix, corpus, _ = _training_inputs(paths)
    model, _header = gnn_mod.load_model(paths["model"])
    predictions = gnn_mod.predict(model, graph, matrix, corpus, split=split)
    gnn_mod.save_predictions(predictions, corpus, paths["gnn_pred"])
    return {"predicted": len(predictions)}


def run_eval(paths: dict, config: RunConfig, extraction: Optional[dict] = None, say=print) -> dict:
    """Score each engine's predictions into report.json; ``extraction`` is
    the extract stage's summary, whose token and cost averages go into the
    report."""
    corpus = load_corpus(paths["split"])
    extraction = extraction or {}
    avg_tokens = extraction.get("avg_tokens_per_evaluation")
    avg_cost = extraction.get("avg_cost_per_evaluation")
    reports = {}
    for engine in ("lp", "gnn"):
        if config.engine in (engine, "both"):
            reports[engine] = evaluate_predictions(paths[f"{engine}_pred"], corpus)
            reports[engine].avg_token_cost = avg_tokens
    payload = {engine: rep.to_dict() for engine, rep in reports.items()}
    if avg_cost is not None:
        payload["extraction"] = {"avg_tokens_per_evaluation": avg_tokens, "avg_cost_per_evaluation": avg_cost}
    Path(paths["report"]).write_text(json.dumps(payload), encoding="utf-8")
    say(format_table(reports))
    return {engine: rep.macro_f1 for engine, rep in reports.items()}


# A pipeline stage: ``inputs`` and ``outputs`` are path keys, ``cfg`` is the
# config snapshot whose hash joins the input hashes, ``run`` the stage function.
Stage = namedtuple("Stage", "name inputs outputs cfg run")

FILES = {
    "split": "split.jsonl",
    "viewpoints": "viewpoints.jsonl",
    "embeddings": "embeddings.bin",
    "graph": "graph.json",
    "negatives": "negatives.jsonl",
    "negatives_holdout": "negatives_holdout.jsonl",
    "lp_pred": "predictions_lp.jsonl",
    "model": "model.ckpt",
    "train_log": "training_log.json",
    "gnn_pred": "predictions_gnn.jsonl",
    "report": "report.json",
}


def stage_table(config: RunConfig) -> list[Stage]:
    """The stages ``run`` executes for this config, in order."""
    lp = config.engine in ("lp", "both")
    gnn = config.engine in ("gnn", "both")
    novelty = config.novelty.enabled
    train_inputs = ["graph", "split", "embeddings"] + (["negatives"] if novelty else [])
    eval_inputs = ["split"] + (["lp_pred"] if lp else []) + (["gnn_pred"] if gnn else [])
    table = [
        (True, Stage("split", ["corpus"], ["split"], {"fractions": list(config.split.fractions), "seed": config.seed}, run_split)),
        (True, Stage("extract", ["split"], ["viewpoints"], {**asdict(config.llm), "seed": config.seed}, run_extract)),
        (True, Stage("embed", ["viewpoints"], ["embeddings"], asdict(config.embedding), run_embed)),
        (True, Stage("build", ["viewpoints", "embeddings"], ["graph"], asdict(config.graph), run_build)),
        (novelty, Stage("gen-negatives", ["split", "graph"], ["negatives", "negatives_holdout"], {**asdict(config.novelty), "seed": config.seed}, run_negatives)),
        (lp, Stage("lp", ["graph", "split"], ["lp_pred"], asdict(config.lp), run_lp)),
        (gnn, Stage("train", train_inputs, ["model", "train_log"], {**asdict(config.gnn), "seed": config.seed, "novelty": novelty}, run_train)),
        (gnn, Stage("predict", train_inputs + ["model"], ["gnn_pred"], {}, run_predict)),
        (True, Stage("eval", eval_inputs, ["report"], {"engine": config.engine}, run_eval)),
    ]
    return [stage for enabled, stage in table if enabled]


def run_pipeline(config: RunConfig, force: bool = False, quiet: bool = False) -> dict:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "run_manifest.json"
    previous: dict = {}
    if manifest_path.exists():
        try:
            previous = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            previous = {}
    prev_stages = {s["name"]: s for s in previous.get("stages", [])}

    manifest: dict = {
        "version": __version__,
        "config": asdict(config),
        "stages": [],
        "summary": {},
    }
    paths = {"corpus": Path(config.corpus), **{key: out / name for key, name in FILES.items()}}
    if not config.novelty.enabled:  # train and predict inject negatives only if given
        del paths["negatives"], paths["negatives_holdout"]

    def say(msg: str):
        if not quiet:
            print(msg)

    def run_stage(stage: Stage, run) -> dict:
        """The stage's manifest record: a fresh run, or the previous record
        when the input hashes, config snapshot and outputs are unchanged."""
        inputs = [paths[key] for key in stage.inputs]
        outputs = [paths[key] for key in stage.outputs]
        for p in inputs:
            if not p.exists():
                raise FileNotFoundError(f"input {p} for stage {stage.name!r} does not exist")
        input_hashes = {str(p): file_hash(p) for p in inputs}
        input_hashes["config"] = dict_hash(stage.cfg)
        prev = prev_stages.get(stage.name)
        if (
            not force
            and prev
            and prev.get("inputs") == input_hashes
            and all(p.exists() for p in outputs)
            and {str(p): file_hash(p) for p in outputs} == prev.get("outputs")
        ):
            say(f"[{stage.name}] unchanged, skipped")
            return {**prev, "skipped": True}
        start = time.monotonic()
        summary = run(paths, config)
        record = {
            "name": stage.name,
            "inputs": input_hashes,
            "outputs": {str(p): file_hash(p) for p in outputs},
            "seconds": round(time.monotonic() - start, 4),
            "skipped": False,
        }
        if summary is not None:
            record["summary"] = summary
        say(f"[{stage.name}] done in {record['seconds']}s")
        return record

    for stage in stage_table(config):
        run = stage.run
        if stage.name == "eval":  # the report carries the extraction costs
            run = partial(run_eval, extraction=manifest["summary"].get("extract"), say=say)
        try:
            record = run_stage(stage, run)
        except Exception as exc:
            manifest["failed_stage"] = {"name": stage.name, "error": str(exc)}
            manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
            raise StageError(stage.name, exc, manifest) from exc
        manifest["stages"].append(record)
        if "summary" in record:
            manifest["summary"][stage.name] = record["summary"]

    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return manifest

"""End-to-end pipeline: split -> extract -> embed -> build -> engines -> eval.

One JSON config file drives everything. Each stage records content hashes
of its inputs and outputs in the run manifest; a stage whose inputs are
unchanged and whose outputs still match is skipped on rerun (``--force``
overrides). All stage randomness derives from the single global seed:
``split`` uses the seed itself, and ``extract``, ``gen-negatives`` and
``train`` take ``seed_for(seed, name)`` under the names ``extract``,
``negatives`` and ``train``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import __version__
from . import gnn as gnn_mod
from . import label_prop as lp_mod
from . import novelty as novelty_mod
from .dataset import (
    COUNT,
    NUMBERS,
    SPLITS,
    STRING_OR_NULL,
    Checked,
    Corpus,
    FileFormatError,
    IdeaViewpoints,
    OutputError,
    check,
    field_kinds,
    fractions_problem,
    load_corpus,
    load_tokens,
    load_viewpoints,
    must,
    plain,
    problem,
    read_file,
    read_json,
    read_jsonl,
    read_records,
    recording_writes,
    save_corpus,
    save_tokens,
    save_viewpoints,
    setting,
    split_corpus,
    write_atomic,
    write_jsonl,
)
from .embedding import EmbeddingProvider, embed, load_embeddings, row_ids, save_embeddings
from .graph import GraphConfig, ViewpointGraph, build_graph, export_graph_json, load_graph, save_graph
from .llm import LlmBackend, extract_corpus
from .metrics import MetricReport, macro_metrics, normed_cost

ENGINES = ("lp", "gnn", "both")


class ConfigError(ValueError):
    def __init__(self, errors: list[str], path: Optional[Path] = None):
        where = "config" if path is None else f"config file {path}"
        super().__init__(f"invalid {where}:\n" + "\n".join(f"  {e}" for e in errors))


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass
class SplitSettings(Checked):
    fractions: tuple[float, float, float] = setting((0.7, 0.1, 0.2), fractions_problem, kind=NUMBERS)


@dataclass
class RunConfig:
    """The config file: each section is the settings type of its stage, or
    the config type of the engine it drives."""

    corpus: str = "corpus.jsonl"
    out_dir: str = "run"
    seed: int = setting(0, kind=COUNT)
    engine: str = setting("lp", must(lambda v: v in ENGINES, f"one of {ENGINES}"))
    split: SplitSettings = field(default_factory=SplitSettings)
    llm: LlmBackend = field(default_factory=LlmBackend)
    embedding: EmbeddingProvider = field(default_factory=EmbeddingProvider)
    graph: GraphConfig = field(default_factory=GraphConfig)
    lp: lp_mod.LpConfig = field(default_factory=lp_mod.LpConfig)
    gnn: gnn_mod.GnnConfig = field(default_factory=gnn_mod.GnnConfig)
    novelty: novelty_mod.NoveltyConfig = field(default_factory=novelty_mod.NoveltyConfig)


def validate_config(source) -> RunConfig:
    """Build a RunConfig from a dict or JSON file path.

    Missing keys get the defaults; every violation, of type or of range, is
    reported with its dotted path into the config.
    """
    config_file = source if isinstance(source, (str, Path)) else None
    data = read_json(config_file, "config file") if config_file else source or {}
    if not isinstance(data, dict):
        raise ConfigError([f"config: must be an object, got {type(data).__name__}"], config_file)
    kinds = field_kinds(RunConfig)
    errors = [f"{path}: {broken}" for path, broken in check(data, kinds)]
    if errors:
        raise ConfigError(errors, config_file)

    def section(key: str, value: dict):
        try:
            return kinds[key][0](**value)
        except ValueError as exc:  # a rule across the section's fields, such as llm.endpoint's
            raise ConfigError([f"{key}.{exc}"], config_file) from None

    sections = {key: section(key, value) for key, value in data.items() if isinstance(value, dict)}
    config = RunConfig(**{**data, **sections})
    config.split.fractions = tuple(float(f) for f in config.split.fractions)
    config.llm.relations |= config.graph.hybrid  # a hybrid graph's intra edges are the extracted relations
    return config


def seed_for(seed: int, stage: str) -> int:
    """Documented per-stage sub-seed derived from the global seed."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def file_hash(path: Path) -> str:
    return hashlib.sha256(read_file(path, binary=True)).hexdigest()


def dict_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def load_predictions(path: Path) -> list[tuple[int, object]]:
    """A predictions file as eval reads it: the (line number, value) pair
    of each line, from ``read_jsonl``."""
    return list(read_jsonl(path, "predictions file"))


def prediction_lines(predictions, corpus: Corpus, *keys: str) -> list[tuple[int, dict]]:
    """The (line number, row) pairs of an engine's ``predictions``, numbered
    from 1: each row holds the idea's ``id``, the name of its predicted
    ``label``, then the prediction's ``keys``."""
    labels = corpus.label_set.labels
    return [(line, {"id": p.idea_id, "label": labels[p.label_index], **{key: getattr(p, key) for key in keys}})
            for line, p in enumerate(predictions, start=1)]


def save_predictions(lines: list[tuple[int, dict]], path: Path) -> None:
    """Write the rows of the (line number, row) pairs ``lines``, numbered
    from 1, one to a line: ``load_predictions`` reads ``lines`` back."""
    write_jsonl(path, (row for _, row in lines))


def evaluate_predictions(pred_path: Path, lines: list[tuple[int, object]], corpus: Corpus) -> MetricReport:
    """Score ``lines``, the predictions file ``pred_path`` as
    ``load_predictions`` reads it, against the corpus labels; unlabeled
    ideas are skipped. An idea not in the corpus, one predicted twice, or
    a label not in the label set is refused on any line."""

    def make(id: str, label: Optional[str] = None) -> tuple[Optional[int], int]:
        if (idea := corpus.by_id(id)) is None:
            raise ValueError(f"idea id {id!r} is not in the corpus")
        return idea.label, corpus.label_set.index_of(label)

    noun = "predictions file"
    scored = [pair for pair in read_records(pred_path, lines, make, {"id": str}, {"label": STRING_OR_NULL},
                                            unique="id", noun=noun) if pair[0] is not None]
    if not scored:
        raise ValueError(f"no labeled ideas among predictions in {pred_path}")
    truths, preds = zip(*scored)
    return macro_metrics(truths, preds, corpus.label_set.labels)


# --- stages ------------------------------------------------------------------
# Each stage is one function run(paths, config, memo) -> summary. ``paths``
# maps file keys (the names used in ``run_pipeline``) to files; a stage
# reads and writes only those, and its output depends only on those files
# and its config snapshot in the stage table. ``viewgraph run`` calls them
# through the stage table with hash-based skipping, and each CLI
# subcommand calls one directly with its flags applied to the config.
# Optional files (the extraction's token counts, the graph's JSON export,
# held-out negatives, training log, negatives for train to inject, each
# engine's predictions, and token counts and costs for eval) are used when
# their key is present. ``memo`` maps file keys to objects handed on in
# memory, which ``read`` and ``write`` fill: under ``run``, the objects
# earlier stages wrote to or read from those unchanged files; the CLI
# passes an empty one. An object handed on equals what its loader reads
# from the file.


def read(paths: dict, key: str, loader, memo: dict):
    """The object in file ``paths[key]``: ``memo[key]`` if handed on, else
    ``loader(paths[key])``, then handed on."""
    if key not in memo:
        memo[key] = loader(paths[key])
    return memo[key]


def write(paths: dict, key: str, obj, saver, memo: dict) -> None:
    saver(obj, paths[key])
    memo[key] = obj


def read_viewpoints(paths: dict, memo: dict, purpose: str) -> list[IdeaViewpoints]:
    """The viewpoint records. An empty file is refused, naming it and
    ending in ``purpose``."""
    records = read(paths, "viewpoints", load_viewpoints, memo)
    if not records:
        raise ValueError(f"{paths['viewpoints']}: no viewpoint records to {purpose}")
    return records


def read_corpus_and_graph(paths: dict, memo: dict, purpose: str) -> tuple[Corpus, ViewpointGraph]:
    """The split corpus and its graph. A corpus with no labeled train
    ideas is refused, naming it and ending in ``purpose``: lp would have
    no label to propagate, train nothing to fit and the negatives no
    source. So is a graph not of exactly the corpus's ideas, naming both
    files, where an engine would name neither."""
    corpus = read(paths, "split", load_corpus, memo)
    if not corpus.split_ideas("train"):
        raise ValueError(f"{paths['split']}: no labeled train ideas to {purpose}")
    graph, ids = read(paths, "graph", load_graph, memo), {idea.id for idea in corpus.ideas}
    if graph.idea_nodes.keys() != ids:
        only = [(idea, "graph") for idea in graph.idea_nodes if idea not in ids]
        only += [(idea.id, "corpus") for idea in corpus.ideas if idea.id not in graph.idea_nodes]
        raise ValueError(f"graph file {paths['graph']} and corpus {paths['split']} name different ideas: "
                         f"{only[0][0]!r} is only in the {only[0][1]}")
    return corpus, graph


def run_split(paths: dict, config: RunConfig, memo: dict) -> dict:
    corpus = load_corpus(paths["corpus"])
    if all(i.split is not None for i in corpus.ideas):
        write(paths, "split", corpus, save_corpus, memo)  # already split: canonicalize only
        return {"passthrough": True}
    try:
        split = split_corpus(corpus, config.split.fractions, config.seed)
    except ValueError as exc:  # add the file the corpus is in
        raise ValueError(f"{paths['corpus']}: {exc}") from None
    write(paths, "split", split, save_corpus, memo)
    return {name: len(split.split_ideas(name)) for name in SPLITS}


def run_extract(paths: dict, config: RunConfig, memo: dict) -> dict:
    corpus = read(paths, "split", load_corpus, memo)
    try:
        records, summary = extract_corpus(corpus.ideas, config.llm, seed_for(config.seed, "extract"))
    except ValueError as exc:  # the message names the idea; add the file it is in
        raise ValueError(f"{paths['split']}: {exc}") from None
    write(paths, "viewpoints", records, save_viewpoints, memo)
    if "tokens" in paths:
        write(paths, "tokens", [[r.prompt_tokens, r.completion_tokens] for r in records], save_tokens, memo)
    return summary


def run_embed(paths: dict, config: RunConfig, memo: dict) -> dict:
    records = read_viewpoints(paths, memo, "embed")
    texts = [v for r in records for v in r.viewpoints]
    ids = row_ids([r.idea_id for r in records for _ in r.viewpoints])
    matrix = embed(texts, config.embedding)
    save_embeddings(matrix, ids, paths["embeddings"])
    return {"count": len(matrix), "dimension": matrix.dimension}


def run_build(paths: dict, config: RunConfig, memo: dict) -> dict:
    records = read_viewpoints(paths, memo, "build a graph from")
    ids = row_ids([r.idea_id for r in records for _ in r.viewpoints])
    matrix = read(paths, "embeddings", lambda path: load_embeddings(path, ids), memo)
    graph = build_graph(records, matrix, config.graph)
    write(paths, "graph", graph, save_graph, memo)
    if "graph_json" in paths:
        export_graph_json(graph, paths["graph_json"])
    return {"nodes": len(graph), "edges": len(graph.weight)}


def run_negatives(paths: dict, config: RunConfig, memo: dict) -> dict:
    seed = seed_for(config.seed, "negatives")
    corpus, graph = read_corpus_and_graph(paths, memo, "draw negatives from")
    samples, fallbacks = novelty_mod.generate_negatives(corpus, graph, config.novelty, seed)
    train, rest = novelty_mod.select_training_negatives(samples, config.novelty.train_subset, seed=seed)
    write(paths, "negatives", train, novelty_mod.save_negatives, memo)
    if "negatives_holdout" in paths:
        novelty_mod.save_negatives(rest, paths["negatives_holdout"])
    return {"generated": len(samples), "training": len(train), "fallbacks": fallbacks}


def run_lp(paths: dict, config: RunConfig, memo: dict, split: str = "test") -> dict:
    corpus, graph = read_corpus_and_graph(paths, memo, "propagate labels from")
    stats: dict = {}
    predictions = lp_mod.run(graph, corpus, config.lp, split=split, stats=stats)
    write(paths, "lp_pred", prediction_lines(predictions, corpus, "vector", "unreached"), save_predictions, memo)
    return {"predicted": len(predictions), "unreached": sum(p.unreached for p in predictions), **stats}


def run_train(paths: dict, config: RunConfig, memo: dict, split: str = "test") -> dict:
    """Train the GNN on the graph with the training negatives injected
    when given, save the checkpoint, then predict the ``split`` ideas on
    that graph with the model read back from the checkpoint."""
    corpus, graph = read_corpus_and_graph(paths, memo, "train the GNN on")
    matrix = read(paths, "embeddings", lambda path: load_embeddings(path, row_ids(graph.idea)), memo)
    negatives = []
    if "negatives" in paths:
        negatives = read(paths, "negatives", novelty_mod.load_negatives, memo)
        try:
            graph, matrix = novelty_mod.inject_negatives(graph, matrix, negatives, corpus)
        except ValueError as exc:  # the message names the negative; add the file it is in
            raise ValueError(f"{paths['negatives']}: {exc}") from None
    seed = seed_for(config.seed, "train")
    result = gnn_mod.train(config.gnn, graph, matrix, corpus, negatives or None, seed=seed)
    gnn_mod.save_model(
        result.model,
        paths["model"],
        config.gnn,
        corpus.label_set.labels,
        seed=seed,
        epoch=result.best_epoch,
        validation_score=result.best_val_f1,
    )
    if "train_log" in paths:
        write_atomic(paths["train_log"], json.dumps(result.log))
    model, _header = gnn_mod.load_model(paths["model"])  # predict with the saved float32 weights
    predictions = gnn_mod.predict(model, graph, matrix, [i.id for i in corpus.split_ideas(split)])
    write(paths, "gnn_pred", prediction_lines(predictions, corpus, "probabilities"), save_predictions, memo)
    return {
        "epochs": len(result.log),
        "final_loss": result.log[-1]["loss"],
        "best_val_f1": result.best_val_f1,
        "best_epoch": result.best_epoch,
        "predicted": len(predictions),
    }


def _load_costs(path: Path) -> dict[str, float]:
    """A costs file: a non-empty JSON object of method -> average cost, each
    cost a finite number >= 0."""
    noun = "costs file"
    costs = read_json(path, noun)
    if not isinstance(costs, dict) or not costs:
        raise FileFormatError(path, f"must be a non-empty object of method -> average cost, got {costs!r}", noun=noun)
    for name, cost in costs.items():
        if problem(cost, float) or not 0 <= cost <= sys.float_info.max:
            raise FileFormatError(path, f"key {name!r} must be a finite number >= 0, got {cost!r}", noun=noun)
    if not any(costs.values()):
        raise FileFormatError(path, "all costs are zero; nothing to normalize against", noun=noun)
    return costs


def run_eval(paths: dict, config: RunConfig, memo: dict) -> dict:
    """Score each engine whose predictions file is given into report.json.
    With ``tokens`` (the extraction's per-idea token counts) the report
    also gets the average tokens and cost per idea, at
    ``llm.price_per_million``; with ``costs`` (a JSON map of method ->
    average cost) the normed costs."""
    engines = [engine for engine in ("lp", "gnn") if f"{engine}_pred" in paths]
    if not engines:
        raise ValueError("eval has no predictions to score: give lp_pred or gnn_pred")
    corpus = read(paths, "split", load_corpus, memo)
    reports = {}
    for engine in engines:
        key = f"{engine}_pred"
        reports[engine] = evaluate_predictions(paths[key], read(paths, key, load_predictions, memo), corpus)
    extraction = {}
    if "tokens" in paths:
        price = config.llm.price_per_million
        tokens = [prompt + completion for prompt, completion in read(paths, "tokens", load_tokens, memo)]
        if not tokens:
            raise ValueError(f"tokens file {paths['tokens']}: no ideas to price")
        avg_tokens = sum(tokens) / len(tokens)
        avg_cost = sum(t * price / 1e6 for t in tokens) / len(tokens)
        for report in reports.values():
            report.avg_token_cost = avg_tokens
        extraction = {"extraction": {"avg_tokens_per_evaluation": avg_tokens, "avg_cost_per_evaluation": avg_cost}}
    payload = {**{engine: report.to_dict() for engine, report in reports.items()}, **extraction}
    if "costs" in paths:
        payload["normed_costs"] = normed_cost(_load_costs(paths["costs"]))
    write_atomic(paths["report"], json.dumps(payload))
    return {engine: report.macro_f1 for engine, report in reports.items()}


# A pipeline stage: ``inputs`` and ``outputs`` are path keys, ``cfg`` is the
# config snapshot whose hash joins the input hashes, ``run`` the stage function.
Stage = namedtuple("Stage", "name inputs outputs cfg run")

FILES = {
    "split": "split.jsonl",
    "viewpoints": "viewpoints.jsonl",
    "tokens": "tokens.json",
    "embeddings": "embeddings.bin",
    "graph": "graph.bin",
    "graph_json": "graph.json",
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
    novelty = gnn and config.novelty.enabled  # negatives are drawn only for train to inject
    train_inputs = ["graph", "split", "embeddings"] + (["negatives"] if novelty else [])
    eval_inputs = ["split", "tokens"] + (["lp_pred"] if lp else []) + (["gnn_pred"] if gnn else [])
    # extract's snapshot holds what changes its output: not the price, the
    # retries or the concurrency
    extract_cfg = {key: getattr(config.llm, key) for key in ("backend", "endpoint", "model", "temperature", "relations")}
    table = [
        (True, Stage("split", ["corpus"], ["split"], {"fractions": list(config.split.fractions), "seed": config.seed}, run_split)),
        (True, Stage("extract", ["split"], ["viewpoints", "tokens"], {**extract_cfg, "seed": config.seed}, run_extract)),
        (True, Stage("embed", ["viewpoints"], ["embeddings"], plain(config.embedding), run_embed)),
        (True, Stage("build", ["viewpoints", "embeddings"], ["graph", "graph_json"], plain(config.graph), run_build)),
        (novelty, Stage("gen-negatives", ["split", "graph"], ["negatives", "negatives_holdout"], {**plain(config.novelty), "seed": config.seed}, run_negatives)),
        (lp, Stage("lp", ["graph", "split"], ["lp_pred"], plain(config.lp), run_lp)),
        (gnn, Stage("train", train_inputs, ["model", "train_log", "gnn_pred"], {**plain(config.gnn), "seed": config.seed, "novelty": novelty}, run_train)),
        (True, Stage("eval", eval_inputs, ["report"], {"price_per_million": config.llm.price_per_million}, run_eval)),
    ]
    return [stage for enabled, stage in table if enabled]


def run_pipeline(config: RunConfig, force: bool = False, quiet: bool = False) -> dict:
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file where the directory, or one on the way to it, should be
        raise OutputError(f"cannot make run directory {out}: {exc.strerror}") from exc
    manifest_path = out / "run_manifest.json"
    try:
        prev_stages = {s["name"]: s for s in read_json(manifest_path)["stages"]}
    except (ValueError, TypeError, KeyError):  # no manifest, or a damaged one: every stage runs
        prev_stages = {}

    manifest: dict = {
        "version": __version__,
        "config": plain(config),
        "stages": [],
        "summary": {},
    }
    stages = stage_table(config)
    # only the enabled stages' files: train injects negatives, and eval
    # scores an engine's predictions, only if given
    keys = {key for stage in stages for key in stage.inputs + stage.outputs}
    paths = {key: Path(config.corpus) if key == "corpus" else out / FILES[key] for key in keys}

    memo: dict = {}  # file key -> (sha256, object) written or read in this run
    # Each file's sha256 by file key, taken since a stage last ran: a
    # stretch of skipped stages hashes each file once. Keys, not paths,
    # name the files in the manifest, so a moved run directory still matches.
    hashed: dict[str, str] = {}

    def sha(key: str) -> str:
        if key not in hashed:
            hashed[key] = file_hash(paths[key])
        return hashed[key]

    def write_manifest():
        # the stages not reached keep their previous records: a stage is
        # skipped only when its inputs, config and outputs all still match
        rest = [prev_stages[later.name] for later in stages[len(manifest["stages"]):] if later.name in prev_stages]
        write_atomic(manifest_path, json.dumps({**manifest, "stages": manifest["stages"] + rest}))

    def say(msg: str):
        if not quiet:
            print(msg)

    def outputs_match(keys: list[str], prev: dict) -> bool:
        try:
            return {key: sha(key) for key in keys} == prev.get("outputs")
        except FileFormatError:  # a missing output: the stage runs again
            if all(paths[key].exists() for key in keys):
                raise
            return False

    def run_stage(stage: Stage) -> dict:
        """The stage's manifest record: a fresh run, or the previous record
        when the input hashes, config snapshot and outputs are unchanged."""
        try:
            input_hashes = {key: sha(key) for key in stage.inputs}
        except FileFormatError:  # an input that cannot be read is named as missing if it is
            for key in stage.inputs:
                if not paths[key].exists():
                    raise FileNotFoundError(f"input {paths[key]} for stage {stage.name!r} does not exist") from None
            raise
        input_hashes["config"] = dict_hash(stage.cfg)
        prev = prev_stages.get(stage.name)
        if not force and prev and prev.get("inputs") == input_hashes and outputs_match(stage.outputs, prev):
            say(f"[{stage.name}] unchanged, skipped")
            return {**prev, "skipped": True}
        # an input edited since it was handed on is parsed again
        handed = {key: memo[key][1] for key in stage.inputs if memo.get(key, (None,))[0] == input_hashes[key]}
        start = time.monotonic()
        hashed.clear()  # the stage may write any file
        with recording_writes() as written:
            summary = stage.run(paths, config, handed)
        output_hashes = {key: written[paths[key]] for key in stage.outputs}  # from the bytes it wrote
        hashes = {**input_hashes, **output_hashes}
        memo.update({key: (hashes[key], obj) for key, obj in handed.items()})
        record = {
            "name": stage.name,
            "inputs": input_hashes,
            "outputs": output_hashes,
            "seconds": round(time.monotonic() - start, 4),
            "skipped": False,
        }
        if summary is not None:
            record["summary"] = summary
        say(f"[{stage.name}] done in {record['seconds']}s")
        return record

    # The manifest is rewritten after each stage that runs, and after the
    # last: a run that is stopped resumes at its first unfinished stage.
    for stage in stages:
        try:
            record = run_stage(stage)
        except Exception as exc:
            manifest["failed_stage"] = {"name": stage.name, "error": str(exc)}
            write_manifest()
            raise StageError(stage.name, exc) from exc
        manifest["stages"].append(record)
        if "summary" in record:
            manifest["summary"][stage.name] = record["summary"]
        if not record["skipped"] or stage is stages[-1]:
            write_manifest()
    return manifest

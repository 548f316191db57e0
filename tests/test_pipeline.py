from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import requests

from graphs import assert_same_graph
from viewgraph import cli, gnn, label_prop, llm, novelty, pipeline
from viewgraph.cli import PATH_FLAGS, build_parser
from viewgraph.cli import main as cli_main
from viewgraph.dataset import (TOKENS, Corpus, field_kinds, load_corpus, load_tokens, load_viewpoints, save_corpus,
                               split_corpus, write_jsonl)
from viewgraph.embedding import EmbeddingMatrix, EmbeddingProvider, load_embeddings, row_ids, save_embeddings
from viewgraph.fixtures import demo_corpus, separable_corpus
from viewgraph.gnn import GnnConfig
from viewgraph.graph import GraphConfig, load_graph
from viewgraph.label_prop import LpConfig, init_vectors, normalize_weights, propagate
from viewgraph.llm import LlmBackend
from viewgraph.metrics import MetricReport, format_table
from viewgraph.novelty import NoveltyConfig
from viewgraph.pipeline import (
    FILES,
    ConfigError,
    RunConfig,
    StageError,
    dict_hash,
    run_pipeline,
    run_train,
    seed_for,
    stage_table,
    validate_config,
)


class TestValidateConfig:
    def test_empty_config_gets_documented_defaults(self):
        config = validate_config({})
        assert config.graph.k == 5
        assert config.graph.m == 10
        assert config.llm.temperature == 0.1
        assert config.gnn.hidden_dim == 64
        assert config.gnn.batch_size == 64
        assert config.gnn.max_epochs == 1000
        assert config.gnn.learning_rate == 1e-3
        assert config.lp.max_iters == 5

    def test_zero_k_reported_at_graph_k(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"graph": {"k": 0}})
        assert "\n  graph.k: " in str(err.value)

    def test_bad_fractions_reported_at_split_fractions(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"split": {"fractions": [0.5, 0.5, 0.5]}})
        assert "\n  split.fractions: " in str(err.value)

    def test_unknown_keys_reported(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"grah": {}, "gnn": {"hiden": 3}})
        assert "grah" in str(err.value) and "gnn.hiden" in str(err.value)

    def test_multiple_errors_collected(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"graph": {"k": 0, "m": -1}, "engine": "bogus"})
        assert str(err.value).count("\n  ") == 3

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"graph": {"k": "5"}}, "graph.k"),
            ({"split": {"fractions": 5}}, "split.fractions"),
            ({"split": {"fractions": [float("nan"), 0.5, 0.5]}}, "split.fractions"),
            ({"split": {"fractions": [float("inf"), -float("inf"), 1.0]}}, "split.fractions"),
            ({"llm": {"temperature": "hot"}}, "llm.temperature"),
            ({"gnn": {"hidden_dim": True}}, "gnn.hidden_dim"),
            ({"seed": True}, "seed"),
            ({"lp": {"early_stop": "no"}}, "lp.early_stop"),
            ({"novelty": {"enabled": 1}}, "novelty.enabled"),
        ],
    )
    def test_wrong_type_reported_at_path(self, tmp_path, capsys, data, path):
        with pytest.raises(ConfigError) as err:
            validate_config(data)
        assert f"\n  {path}: must be" in str(err.value)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        assert cli_main(["run", "--config", str(config), "--quiet"]) == 2
        stderr = capsys.readouterr().err
        assert f"{path}: must be" in stderr and "Traceback" not in stderr

    def test_negative_price_reported_at_llm_price(self, tmp_path, capsys):
        data = {"llm": {"price_per_million": -1.0}}
        with pytest.raises(ConfigError) as err:
            validate_config(data)
        assert str(err.value) == "invalid config:\n  llm.price_per_million: must be >= 0.0, got -1.0"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        assert cli_main(["run", "--config", str(config), "--quiet"]) == 2
        assert "llm.price_per_million: must be >= 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"llm": {"max_inflight": 0}}, "llm.max_inflight: must be >= 1, got 0"),
            ({"llm": {"max_inflight": -3}}, "llm.max_inflight: must be >= 1, got -3"),
            ({"seed": -5}, "seed: must be >= 0, got -5"),
        ],
    )
    def test_out_of_range_reported_at_path(self, tmp_path, capsys, data, message):
        with pytest.raises(ConfigError) as err:
            validate_config(data)
        assert str(err.value) == f"invalid config:\n  {message}"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path / "run"), **data}))
        assert cli_main(["run", "--config", str(config), "--quiet"]) == 2
        stderr = capsys.readouterr().err
        assert message in stderr and "Traceback" not in stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, settings, error", [
        ("llm", {"backend": "remote"}, "llm.endpoint: must be set when backend is remote"),
        ("embedding", {"provider": "remote"}, "embedding.endpoint: must be set when provider is remote"),
    ])
    def test_remote_backend_without_endpoint_refused_at_load(self, tmp_path, capsys, monkeypatch, section, settings, error):
        monkeypatch.setattr(requests, "post", lambda *a, **kw: pytest.fail("no request may be made"))
        data = {"out_dir": str(tmp_path / "run"), section: settings}
        with pytest.raises(ConfigError) as err:
            validate_config(data)
        assert str(err.value) == f"invalid config:\n  {error}"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        assert cli_main(["run", "--config", str(config), "--quiet"]) == 2
        stderr = capsys.readouterr().err
        assert error in stderr and "Traceback" not in stderr
        assert not (tmp_path / "run").exists()

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 5, "engine": "both"}))
        config = validate_config(path)
        assert config.seed == 5 and config.engine == "both"


@pytest.mark.parametrize(
    "cls, kwargs, message",
    [
        (GraphConfig, {"k": 0}, "k: must be >= 1, got 0"),
        (GraphConfig, {"m": -1, "weight_floor": 2.0}, "m: must be >= 0, got -1; weight_floor: must be in [0, 1], got 2.0"),
        (LpConfig, {"max_iters": 0}, "max_iters: must be >= 1, got 0"),
        (GnnConfig, {"hidden_dim": 0}, "hidden_dim: must be >= 1, got 0"),
        (GnnConfig, {"learning_rate": "fast"}, "learning_rate: must be a float, got str"),
        (EmbeddingProvider, {"dimension": 1}, "dimension: must be >= 2, got 1"),
        (EmbeddingProvider, {"provider": "cloud"}, "provider: must be stub or remote, got 'cloud'"),
        (LlmBackend, {"backend": "cloud", "temperature": 3}, "backend: must be mock or remote, got 'cloud'; temperature: must be in [0, 2], got 3"),
        (LlmBackend, {"backend": "remote"}, "endpoint: must be set when backend is remote"),
        (LlmBackend, {"max_inflight": 0}, "max_inflight: must be >= 1, got 0"),
        (LlmBackend, {"max_inflight": -3}, "max_inflight: must be >= 1, got -3"),
        (NoveltyConfig, {"count": 0}, "count: must be >= 1, got 0"),
        (NoveltyConfig, {"swap_fraction": 1.5}, "swap_fraction: must be in (0, 1], got 1.5"),
    ],
)
def test_config_type_names_bad_fields(cls, kwargs, message):
    """The config file's sections are these types: building one directly
    meets the same rules, named by field."""
    with pytest.raises(ValueError) as err:
        cls(**kwargs)
    assert str(err.value) == message


class TestRunDirectoryCompatibility:
    """An existing run directory reruns a stage whose config snapshot hash
    changed, so a renamed field or a changed default reruns every stage
    that reads it. These pin the config and the stage hashes."""

    DEFAULT_CONFIG = (
        '{"corpus": "corpus.jsonl", "out_dir": "run", "seed": 0, "engine": "lp", '
        '"split": {"fractions": [0.7, 0.1, 0.2]}, '
        '"llm": {"backend": "mock", "endpoint": "", "model": "", "temperature": 0.1, "max_retries": 3, '
        '"price_per_million": 0.0, "relations": false, "max_inflight": 4}, '
        '"embedding": {"provider": "stub", "dimension": 32, "endpoint": "", "model": ""}, '
        '"graph": {"k": 5, "m": 10, "weight_floor": 0.0, "hybrid": false}, '
        '"lp": {"max_iters": 5, "early_stop": true}, '
        '"gnn": {"layers": 2, "hidden_dim": 64, "batch_size": 64, "max_epochs": 1000, "learning_rate": 0.001, '
        '"class_weighting": false}, '
        '"novelty": {"enabled": false, "count": 80, "train_subset": 10, "threshold": 1, "swap_fraction": 0.5}}'
    )
    STAGE_HASHES = {
        "split": "64fe6b337e305f6dc549663a9e5892f9290b2c4c75380efb7208e6168dced2cb",
        "extract": "abdd7387f801482acd876589a9760bc33a0f08454ad2682903d635c1e07f1c43",
        "embed": "bacd8882785755013309f2efd8f5bbe73159fff45d8fdc468d41c85e41370f98",
        "build": "3ebb60a0f1da580ae6ccd636226bd684f6c2d6a4a5bc96942e0862a93aa6b19e",
        "gen-negatives": "a3bc2d0b9d151731b241a00fad8d65e1145c328c3113755dfa234c7799114c88",
        "lp": "2913cb823541454d81af69df24115044b0f8d4438f318bdc229fc7c6ae766280",
        "train": "e432d57fedb1972fc0f2f9aa70907947a32cf1189f53cd8c0f1b55f4d079f628",
        "eval": "6ceb8cbd6f6801fad42d8fd398b6af41dd7e8ce4e8a247e417f02a314d8974fc",
    }

    def test_default_config_pinned_key_by_key_in_order(self):
        assert json.dumps(asdict(validate_config({}))) == self.DEFAULT_CONFIG
        assert validate_config({}).split.fractions == (0.7, 0.1, 0.2)

    @pytest.mark.parametrize("data", [{}, {"engine": "both", "novelty": {"enabled": True}}], ids=["default", "all-stages"])
    def test_stage_config_hashes_pinned(self, data):
        hashes = {stage.name: dict_hash(stage.cfg) for stage in stage_table(validate_config(data))}
        assert hashes == {name: self.STAGE_HASHES[name] for name in hashes}
        assert len(hashes) == (6 if not data else 8)

    def test_value_flags_name_config_keys(self):
        """Every dotted dest is a key of a config section, and ``seed`` is
        the one undotted flag that sets a config key: the rest name files,
        choose the split a stage predicts, or steer the command."""
        kinds = field_kinds(RunConfig)
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        actions = [a for p in subparsers.choices.values() for a in p._actions]
        dests = {a.dest for a in actions if "." in a.dest}
        for dest in dests:
            section, key = dest.split(".")
            assert key in field_kinds(kinds[section][0]), dest
        assert dests == {
            "split.fractions", "llm.backend", "llm.relations", "embedding.provider", "embedding.dimension",
            "graph.k", "graph.m", "graph.weight_floor", "graph.hybrid", "lp.max_iters", "lp.early_stop",
            "gnn.hidden_dim", "gnn.max_epochs", "gnn.batch_size", "gnn.learning_rate", "novelty.count",
            "novelty.train_subset", "novelty.threshold", "novelty.swap_fraction",
        }
        steering = {*PATH_FLAGS, "infile", "out", "split", "help", "config", "quiet", "force"}
        assert {a.dest for a in actions if "." not in a.dest} - steering == {"seed"}
        assert "seed" in kinds


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.jsonl"
    save_corpus(demo_corpus(), path)
    return path


def demo_config(tmp_path, demo_file, out="run", engine="lp", **over):
    data = {
        "corpus": str(demo_file),
        "out_dir": str(tmp_path / out),
        "seed": 7,
        "engine": engine,
        "gnn": {"hidden_dim": 8, "max_epochs": 10},
    }
    data.update(over)
    return validate_config(data)


class TestRunPipeline:
    def test_smoke_on_demo_corpus(self, tmp_path, demo_file):
        manifest = run_pipeline(demo_config(tmp_path, demo_file), quiet=True)
        out = tmp_path / "run"
        assert (out / "predictions_lp.jsonl").exists()
        assert (out / "report.json").exists()
        names = [s["name"] for s in manifest["stages"]]
        assert names == ["split", "extract", "embed", "build", "lp", "eval"]
        report = json.loads((out / "report.json").read_text())
        assert "lp" in report and 0.0 <= report["lp"]["macro_f1"] <= 1.0

    def test_rerun_skips_everything(self, tmp_path, demo_file):
        config = demo_config(tmp_path, demo_file)
        first = run_pipeline(config, quiet=True)
        second = run_pipeline(config, quiet=True)
        assert all(not s["skipped"] for s in first["stages"])
        assert all(s["skipped"] for s in second["stages"])
        for a, b in zip(first["stages"], second["stages"]):
            assert a["outputs"] == b["outputs"]

    @pytest.mark.parametrize(
        "damaged",
        [b"[]", b'{"stages": 5}', b'{"stages": [1]}', b'{"stages": [{}]}', b'{"stages": [{"name": ["split"]}]}',
         b'{"version": "0"}', b"\xff{}", b'{"stages": ['],
        ids=["list", "stages-int", "stage-int", "stage-unnamed", "name-list", "no-stages", "not-utf8", "not-json"],
    )
    def test_damaged_manifest_reads_as_absent(self, tmp_path, demo_file, damaged):
        config = demo_config(tmp_path, demo_file)
        run_pipeline(config, quiet=True)
        (tmp_path / "run" / "run_manifest.json").write_bytes(damaged)
        second = run_pipeline(config, quiet=True)
        assert [s["name"] for s in second["stages"] if not s["skipped"]] == [s.name for s in stage_table(config)]

    def test_deleted_output_reruns_its_stage_only(self, tmp_path, demo_file):
        """lp rewrites the same bytes, so eval is skipped by hash."""
        config = demo_config(tmp_path, demo_file)
        run_pipeline(config, quiet=True)
        preds = tmp_path / "run" / FILES["lp_pred"]
        before = preds.read_bytes()
        preds.unlink()
        second = run_pipeline(config, quiet=True)
        assert [s["name"] for s in second["stages"] if not s["skipped"]] == ["lp"]
        assert preds.read_bytes() == before

    # case -> settings over a demo12 run with both engines: a plain run, a
    # hybrid run (intra edges from the extracted relations) and a run with
    # injected negatives
    FORCED = {
        "plain": {},
        "hybrid": {"llm": {"relations": True}, "graph": {"hybrid": True}},
        "novelty": {"novelty": {"enabled": True, "count": 9, "train_subset": 4}},
    }

    @pytest.mark.parametrize("case", FORCED)
    def test_force_reruns(self, tmp_path, demo_file, case):
        """A forced rerun runs every stage and writes every run file,
        run_manifest.json aside, byte for byte as the first run did; no
        write leaves a temp file behind."""
        config = demo_config(tmp_path, demo_file, engine="both", **self.FORCED[case])
        out = tmp_path / "run"

        def run_files() -> dict[str, bytes]:
            return {path.name: path.read_bytes() for path in sorted(out.iterdir()) if path.name != "run_manifest.json"}

        run_pipeline(config, quiet=True)
        first = run_files()
        assert {"graph.bin", "predictions_lp.jsonl", "predictions_gnn.jsonl", "report.json"} <= set(first)
        forced = run_pipeline(config, force=True, quiet=True)
        assert all(not s["skipped"] for s in forced["stages"])
        again = run_files()
        assert sorted(again) == sorted(first)
        assert [name for name in first if again[name] != first[name]] == []
        assert not list(tmp_path.rglob("*.tmp"))

    def test_changed_input_invalidates_downstream(self, tmp_path, demo_file):
        config = demo_config(tmp_path, demo_file)
        run_pipeline(config, quiet=True)
        config2 = demo_config(tmp_path, demo_file, graph={"k": 2, "m": 4})
        second = run_pipeline(config2, quiet=True)
        stages = {s["name"]: s for s in second["stages"]}
        assert stages["split"]["skipped"] and stages["extract"]["skipped"]
        assert not stages["build"]["skipped"]
        assert not stages["lp"]["skipped"]

    def test_price_change_reruns_eval_only(self, tmp_path, demo_file):
        run_pipeline(demo_config(tmp_path, demo_file, llm={"price_per_million": 1.0}), quiet=True)
        second = run_pipeline(demo_config(tmp_path, demo_file, llm={"price_per_million": 5.0}), quiet=True)
        assert [s["name"] for s in second["stages"] if not s["skipped"]] == ["eval"]
        extraction = json.loads((tmp_path / "run" / "report.json").read_text())["extraction"]
        tokens = extraction["avg_tokens_per_evaluation"]
        assert tokens > 0 and extraction["avg_cost_per_evaluation"] == pytest.approx(tokens * 5.0 / 1e6)

    @pytest.mark.parametrize("llm", [{"max_inflight": 1}, {"max_retries": 7}])
    def test_transport_settings_rerun_nothing(self, tmp_path, demo_file, llm):
        run_pipeline(demo_config(tmp_path, demo_file), quiet=True)
        second = run_pipeline(demo_config(tmp_path, demo_file, llm=llm), quiet=True)
        assert all(s["skipped"] for s in second["stages"])

    def test_gnn_engine_produces_predictions(self, tmp_path, demo_file):
        config = demo_config(tmp_path, demo_file, out="gnnrun", engine="gnn")
        manifest = run_pipeline(config, quiet=True)
        names = [s["name"] for s in manifest["stages"]]
        assert names == ["split", "extract", "embed", "build", "train", "eval"]
        preds = (tmp_path / "gnnrun" / "predictions_gnn.jsonl").read_text().splitlines()
        assert len(preds) == 3  # 12 ideas * 0.2 test fraction, rounded

    @pytest.mark.parametrize("fractions, has_best", [([0.7, 0.1, 0.2], True), ([0.8, 0.0, 0.2], False)])
    def test_train_summary_gives_the_best_epoch(self, tmp_path, demo_file, fractions, has_best):
        config = demo_config(tmp_path, demo_file, engine="gnn", split={"fractions": fractions})
        summary = run_pipeline(config, quiet=True)["summary"]["train"]
        header = json.loads((tmp_path / "run" / "model.ckpt").read_bytes().partition(b"\n")[0])
        assert summary["best_epoch"] == header["epoch"]
        assert (summary["best_epoch"] is not None) == has_best

    def test_novelty_stage_runs_when_enabled(self, tmp_path, demo_file):
        config = demo_config(
            tmp_path,
            demo_file,
            out="nov",
            engine="gnn",
            novelty={"enabled": True, "count": 6, "train_subset": 2},
        )
        manifest = run_pipeline(config, quiet=True)
        assert "gen-negatives" in [s["name"] for s in manifest["stages"]]
        neg = (tmp_path / "nov" / "negatives.jsonl").read_text().splitlines()
        held = (tmp_path / "nov" / "negatives_holdout.jsonl").read_text().splitlines()
        assert len(neg) == 2 and len(held) == 4

    def test_failing_stage_names_itself_and_writes_partial_manifest(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        config = validate_config(
            {"corpus": str(missing), "out_dir": str(tmp_path / "broken"), "engine": "lp"}
        )
        with pytest.raises(StageError) as err:
            run_pipeline(config, quiet=True)
        assert str(err.value).startswith("stage 'split' failed: ")
        manifest = json.loads((tmp_path / "broken" / "run_manifest.json").read_text())
        assert manifest["failed_stage"]["name"] == "split"

    @pytest.mark.parametrize("hybrid", [False, True])
    def test_recorded_output_hashes_are_the_files_hashes(self, tmp_path, demo_file, hybrid):
        """Each stage records its outputs' hashes from the bytes it wrote:
        they are the sha256 of the files on disk."""
        over = {"llm": {"relations": True}, "graph": {"hybrid": True}} if hybrid else {}
        config = demo_config(tmp_path, demo_file, engine="both", novelty={"enabled": True, "count": 6, "train_subset": 2},
                             **over)
        manifest = run_pipeline(config, quiet=True)
        assert [s["name"] for s in manifest["stages"]] == [s.name for s in stage_table(config)]
        for stage in manifest["stages"]:
            for key, digest in stage["outputs"].items():
                assert digest == hashlib.sha256((tmp_path / "run" / FILES[key]).read_bytes()).hexdigest(), key

    def test_lp_summary_gives_iterations_and_unreached_nodes(self, tmp_path, demo_file):
        """Early stop ends lp before max_iters; the summary says after how
        many iterations, and how many nodes were left all zero."""
        summary = run_pipeline(demo_config(tmp_path, demo_file, lp={"max_iters": 50}), quiet=True)["summary"]["lp"]
        assert 1 <= summary["iterations"] < 50
        graph, corpus = load_graph(tmp_path / "run" / "graph.bin"), load_corpus(tmp_path / "run" / "split.jsonl")
        vectors = propagate(init_vectors(graph, corpus), normalize_weights(graph),
                            LpConfig(max_iters=summary["iterations"], early_stop=False))
        assert summary["unreached_nodes"] == np.count_nonzero(~vectors.any(axis=1))

    def test_same_seed_byte_identical_outputs(self, tmp_path, demo_file):
        a = demo_config(tmp_path, demo_file, out="detA", engine="both")
        b = demo_config(tmp_path, demo_file, out="detB", engine="both")
        run_pipeline(a, quiet=True)
        run_pipeline(b, quiet=True)
        for name in ("predictions_lp.jsonl", "predictions_gnn.jsonl", "report.json"):
            assert (tmp_path / "detA" / name).read_bytes() == (tmp_path / "detB" / name).read_bytes()


# The function each stage's entry in the stage table calls.
STAGE_FUNCTIONS = {
    "split": "run_split", "extract": "run_extract", "embed": "run_embed", "build": "run_build",
    "gen-negatives": "run_negatives", "lp": "run_lp", "train": "run_train", "eval": "run_eval",
}


@pytest.mark.parametrize("engine, novelty_on", [("lp", False), ("gnn", False), ("both", True)])
def test_stages_get_the_files_of_the_enabled_stages(tmp_path, demo_file, monkeypatch, engine, novelty_on):
    """Every stage gets the files of the enabled stages and no others:
    train injects negatives, and eval scores an engine, only when the stage
    that writes them runs. A run also exports graph.json."""
    seen = {}

    def recorded(name, stage):
        def run(paths, config, memo, **kwargs):
            seen[name] = dict(paths)
            return stage(paths, config, memo, **kwargs)

        return run

    for name, function in STAGE_FUNCTIONS.items():
        monkeypatch.setattr(pipeline, function, recorded(name, getattr(pipeline, function)))
    config = demo_config(tmp_path, demo_file, engine=engine, novelty={"enabled": novelty_on, "count": 6, "train_subset": 2})
    run_pipeline(config, quiet=True)
    keys = {key for stage in stage_table(config) for key in stage.inputs + stage.outputs}
    files = {key: tmp_path / "run" / FILES[key] for key in keys - {"corpus"}}
    assert seen == {stage.name: {"corpus": demo_file, **files} for stage in stage_table(config)}
    assert ("negatives" in keys, "lp_pred" in keys, "gnn_pred" in keys) == (novelty_on, engine != "gnn", engine != "lp")
    assert (tmp_path / "run" / "graph.json").is_file()


class TestStoppedRun:
    NOVELTY = {"enabled": True, "count": 6, "train_subset": 2}

    def config(self, tmp_path, demo_file, out):
        return demo_config(tmp_path, demo_file, out=out, engine="both", novelty=self.NOVELTY)

    @pytest.mark.parametrize("stopped", list(STAGE_FUNCTIONS))
    def test_rerun_skips_exactly_the_finished_stages(self, tmp_path, demo_file, monkeypatch, stopped):
        config = self.config(tmp_path, demo_file, "stopped")
        names = [stage.name for stage in stage_table(config)]
        assert names == list(STAGE_FUNCTIONS)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as patched:
            patched.setattr(pipeline, STAGE_FUNCTIONS[stopped], interrupt)
            with pytest.raises(KeyboardInterrupt):
                run_pipeline(config, quiet=True)
        rerun = run_pipeline(config, quiet=True)
        assert [s["name"] for s in rerun["stages"] if s["skipped"]] == names[: names.index(stopped)]
        run_pipeline(self.config(tmp_path, demo_file, "whole"), quiet=True)
        for path in (tmp_path / "whole").iterdir():
            if path.name != "run_manifest.json":
                assert (tmp_path / "stopped" / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("stopped", list(STAGE_FUNCTIONS))
    @pytest.mark.parametrize("cause, raised", [(KeyboardInterrupt, KeyboardInterrupt), (RuntimeError, StageError)],
                             ids=["interrupted", "failed"])
    def test_forced_run_stopped_keeps_the_later_records(self, tmp_path, demo_file, monkeypatch, stopped, cause, raised):
        config = self.config(tmp_path, demo_file, "stopped")
        run_pipeline(config, quiet=True)

        def stop(*args, **kwargs):
            raise cause

        with monkeypatch.context() as patched:
            patched.setattr(pipeline, STAGE_FUNCTIONS[stopped], stop)
            with pytest.raises(raised):
                run_pipeline(config, force=True, quiet=True)
        rerun = run_pipeline(config, quiet=True)
        assert [s["name"] for s in rerun["stages"] if s["skipped"]] == list(STAGE_FUNCTIONS)

    def test_killed_run_resumes(self, tmp_path, demo_file):
        """A ``run`` child killed by SIGKILL once its manifest records a
        finished stage resumes in-process: each recorded stage is skipped,
        and the run directory ends as an uninterrupted run's, with no
        temporary file left."""
        # 300 epochs keep the child in train, after six quick stages, for
        # well over the polling interval: the kill lands mid-run
        data = {"corpus": str(demo_file), "out_dir": str(tmp_path / "killed"), "seed": 7, "engine": "both",
                "gnn": {"hidden_dim": 8, "max_epochs": 300}, "novelty": self.NOVELTY}
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(data))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        child = subprocess.Popen([sys.executable, "-m", "viewgraph.cli", "run", "--quiet", "--config", str(config_file)], env=env)
        manifest = tmp_path / "killed" / "run_manifest.json"
        try:
            deadline = time.monotonic() + 60
            while not manifest.exists() and child.poll() is None and time.monotonic() < deadline:
                time.sleep(0.002)
        finally:
            child.kill()  # SIGKILL
        assert child.wait() == -signal.SIGKILL
        recorded = [s["name"] for s in json.loads(manifest.read_text())["stages"]]
        assert 0 < len(recorded) < len(STAGE_FUNCTIONS)

        rerun = run_pipeline(validate_config(data), quiet=True)
        assert [s["name"] for s in rerun["stages"] if s["skipped"]] == recorded
        run_pipeline(validate_config({**data, "out_dir": str(tmp_path / "whole")}), quiet=True)
        assert not list((tmp_path / "killed").glob("*.tmp"))
        assert sorted(p.name for p in (tmp_path / "killed").iterdir()) == sorted(p.name for p in (tmp_path / "whole").iterdir())
        for path in (tmp_path / "whole").iterdir():
            if path.name != "run_manifest.json":
                assert (tmp_path / "killed" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_moved_run_directory_skips_every_stage(self, tmp_path, demo_file, monkeypatch):
        """Hashes are keyed by file, not path: a finished run copied to
        another directory, named absolutely or relatively, reruns nothing."""
        run_pipeline(self.config(tmp_path, demo_file, "first"), quiet=True)
        shutil.copytree(tmp_path / "first", tmp_path / "moved")
        monkeypatch.chdir(tmp_path)
        for out_dir in (str(tmp_path / "moved"), "moved"):
            rerun = run_pipeline(replace(self.config(tmp_path, demo_file, "first"), out_dir=out_dir), quiet=True)
            assert [s["name"] for s in rerun["stages"] if s["skipped"]] == list(STAGE_FUNCTIONS), out_dir

    def test_every_file_a_run_writes_replaces_its_target(self, tmp_path, demo_file, monkeypatch):
        replaced = []
        real = os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: replaced.append(os.path.basename(dst)) or real(src, dst))
        run_pipeline(self.config(tmp_path, demo_file, "run"), quiet=True)
        written = {path.name for path in (tmp_path / "run").iterdir()}
        assert written == set(replaced) and "run_manifest.json" in written
        # the manifest after each of the eight stages, and nothing twice otherwise
        assert Counter(replaced) == {name: 8 if name == "run_manifest.json" else 1 for name in written}


def two_pass_train_and_predict(paths, config, split):
    """Reference: training and prediction as two calls, each loading the
    graph, embeddings and corpus and injecting the negatives itself, with
    the predictions made by the model read back from the checkpoint."""

    def training_inputs():
        corpus = load_corpus(paths["split"])
        graph = load_graph(paths["graph"])
        matrix = load_embeddings(paths["embeddings"], row_ids(graph.idea))
        negatives = []
        if "negatives" in paths:
            negatives = novelty.load_negatives(paths["negatives"])
            graph, matrix = novelty.inject_negatives(graph, matrix, negatives, corpus)
        return graph, matrix, corpus, negatives

    graph, matrix, corpus, negatives = training_inputs()
    seed = seed_for(config.seed, "train")
    result = gnn.train(config.gnn, graph, matrix, corpus, negatives or None, seed=seed)
    gnn.save_model(result.model, paths["model"], config.gnn, corpus.label_set.labels, seed=seed,
                   epoch=result.best_epoch, validation_score=result.best_val_f1)
    graph, matrix, corpus, _ = training_inputs()
    model, _ = gnn.load_model(paths["model"])
    predictions = gnn.predict(model, graph, matrix, [i.id for i in corpus.split_ideas(split)])
    labels = corpus.label_set.labels
    write_jsonl(paths["gnn_pred"], ({"id": p.idea_id, "label": labels[p.label_index], "probabilities": p.probabilities}
                                    for p in predictions))


class TestTrainStage:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("split", ["test", "validation"])
    @pytest.mark.parametrize("with_negatives", [True, False], ids=["novelty", "plain"])
    def test_predictions_equal_two_pass_reference(self, tmp_path, seed, split, with_negatives):
        corpus = tmp_path / "sep.jsonl"
        save_corpus(separable_corpus(), corpus)
        config = validate_config({
            "corpus": str(corpus),
            "out_dir": str(tmp_path / "run"),
            "seed": seed,
            "engine": "gnn",
            "split": {"fractions": [0.6, 0.2, 0.2]},
            "gnn": {"hidden_dim": 8, "max_epochs": 6, "batch_size": 8},
            "novelty": {"enabled": with_negatives, "count": 9, "train_subset": 4},
        })
        run_pipeline(config, quiet=True)
        keys = ["split", "graph", "embeddings"] + (["negatives"] if with_negatives else [])
        inputs = {key: tmp_path / "run" / FILES[key] for key in keys}
        new = {**inputs, "model": tmp_path / "new.ckpt", "gnn_pred": tmp_path / "new.jsonl"}
        old = {**inputs, "model": tmp_path / "old.ckpt", "gnn_pred": tmp_path / "old.jsonl"}
        summary = run_train(new, config, {}, split=split)
        two_pass_train_and_predict(old, config, split)
        assert new["model"].read_bytes() == old["model"].read_bytes()
        assert new["gnn_pred"].read_bytes() == old["gnn_pred"].read_bytes()
        assert summary["predicted"] == len(old["gnn_pred"].read_text().splitlines()) > 0

    def test_negatives_loaded_and_injected_once(self, tmp_path, demo_file, monkeypatch):
        negatives = {"enabled": True, "count": 6, "train_subset": 2}
        run_pipeline(demo_config(tmp_path, demo_file, engine="gnn", novelty=negatives), quiet=True)
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(pipeline, "load_graph")
        counted(novelty, "inject_negatives")
        config = demo_config(tmp_path, demo_file, engine="gnn", novelty=negatives, gnn={"hidden_dim": 8, "max_epochs": 3})
        second = run_pipeline(config, quiet=True)
        assert "train" in [s["name"] for s in second["stages"] if not s["skipped"]]
        assert calls == {"load_graph": 1, "inject_negatives": 1}


class TestCli:
    def run(self, *argv):
        return cli_main([str(a) for a in argv])

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["train", "--graph", "g", "--corpus", "c", "--embeddings", "e", "--out", "m", "--gnn-pred", "p",
              "--lr", "-0.5"], "gnn.learning_rate"),
            (["gen-negatives", "--corpus", "c", "--graph", "g", "--out", "n", "--train-subset", "-1"], "novelty.train_subset"),
            (["build", "--viewpoints", "v", "--embeddings", "e", "--out", "g", "--k", "0"], "graph.k"),
        ],
    )
    def test_flag_values_validated_like_config(self, tmp_path, monkeypatch, capsys, argv, path):
        monkeypatch.chdir(tmp_path)
        assert self.run(*argv, "--quiet") == 2
        stderr = capsys.readouterr().err
        assert f"{path}: must be" in stderr and "Traceback" not in stderr
        assert not any(tmp_path.iterdir())

    def test_config_file_then_given_flags_checked_once_each(self, tmp_path, monkeypatch):
        """The --config file is checked, and only when value flags are
        given, once more with all of them, --seed among them, over its keys."""
        monkeypatch.chdir(tmp_path)
        checked = []
        monkeypatch.setattr(cli, "validate_config", lambda source: checked.append(source) or validate_config(source))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"graph": {"m": 3}}))
        argv = ["build", "--viewpoints", "v", "--embeddings", "e", "--out", "g", "--config", config, "--quiet"]
        self.run(*argv)
        assert checked == [str(config)]
        self.run(*argv, "--seed", 4, "--k", 2)
        assert len(checked) == 3 and checked[1] == str(config)
        assert (checked[2]["seed"], checked[2]["graph"]["k"], checked[2]["graph"]["m"]) == (4, 2, 3)

    @pytest.mark.parametrize("command", [["split", "--in", "DEMO", "--out", "split.jsonl"], ["run"]], ids=["split", "run"])
    def test_negative_seed_flag_refused_naming_seed(self, tmp_path, monkeypatch, capsys, demo_file, command):
        monkeypatch.chdir(tmp_path)
        argv = [demo_file if arg == "DEMO" else arg for arg in command]
        assert self.run(*argv, "--seed", -1, "--quiet") == 2
        stderr = capsys.readouterr().err
        assert "seed: must be >= 0, got -1" in stderr and "Traceback" not in stderr
        assert [path.name for path in tmp_path.iterdir()] == [demo_file.name]

    @pytest.mark.parametrize("command", ["embed", "build"])
    def test_empty_viewpoints_file_refused_naming_it(self, tmp_path, capsys, command):
        views, emb, out = tmp_path / "empty.jsonl", tmp_path / "e.bin", tmp_path / "out.bin"
        views.write_text("")
        save_embeddings(EmbeddingMatrix(np.zeros((0, 8))), [], emb)
        argv = {"embed": ["embed", "--in", views, "--out", out],
                "build": ["build", "--viewpoints", views, "--embeddings", emb, "--out", out]}[command]
        assert self.run(*argv, "--quiet") == 2
        purpose = {"embed": "to embed", "build": "to build a graph from"}[command]
        assert capsys.readouterr().err == f"error: {views}: no viewpoint records {purpose}\n"
        assert not out.exists()

    def test_stagewise_flow(self, tmp_path, demo_file):
        split = tmp_path / "split.jsonl"
        views = tmp_path / "views.jsonl"
        emb = tmp_path / "emb.bin"
        graph = tmp_path / "graph.bin"
        preds = tmp_path / "preds.jsonl"
        report = tmp_path / "report.json"
        assert self.run("split", "--in", demo_file, "--out", split, "--fractions", "0.7,0.1,0.2", "--seed", 3, "--quiet") == 0
        assert self.run("extract", "--in", split, "--out", views, "--backend", "mock", "--quiet") == 0
        assert self.run("embed", "--in", views, "--out", emb, "--provider", "stub", "--dim", 16, "--quiet") == 0
        assert self.run("build", "--viewpoints", views, "--embeddings", emb, "--k", 3, "--m", 5, "--out", graph, "--quiet") == 0
        assert self.run("lp", "--graph", graph, "--corpus", split, "--max-iters", 5, "--early-stop", "--out", preds, "--quiet") == 0
        assert self.run("eval", "--lp-pred", preds, "--corpus", split, "--out", report, "--quiet") == 0
        payload = json.loads(report.read_text())
        assert {"accuracy", "macro_precision", "macro_recall", "macro_f1"} <= set(payload["lp"])

    def test_lp_refuses_an_unsplit_corpus_naming_it(self, tmp_path, capsys, demo_file):
        """The raw corpus has no train ideas, so no label to propagate: lp
        names it instead of writing predictions that eval cannot score."""
        split, views, emb, graph, preds = (tmp_path / name for name in
                                           ("split.jsonl", "views.jsonl", "emb.bin", "graph.bin", "preds.jsonl"))
        self.run("split", "--in", demo_file, "--out", split, "--seed", 3, "--quiet")
        self.run("extract", "--in", split, "--out", views, "--quiet")
        self.run("embed", "--in", views, "--out", emb, "--quiet")
        self.run("build", "--viewpoints", views, "--embeddings", emb, "--out", graph, "--quiet")
        assert self.run("lp", "--graph", graph, "--corpus", demo_file, "--out", preds, "--quiet") == 2
        assert capsys.readouterr().err == f"error: {demo_file}: no labeled train ideas to propagate labels from\n"
        assert not preds.exists()

    def test_train_refuses_an_unsplit_corpus_naming_it(self, tmp_path, capsys, demo_file):
        """As lp does: the raw corpus has no train ideas to fit, so train
        names it, before it reads the graph and embeddings (not made here),
        and writes neither a model nor predictions."""
        emb, graph, model, preds = (tmp_path / name for name in ("emb.bin", "graph.bin", "model.ckpt", "preds.jsonl"))
        argv = ["train", "--graph", graph, "--corpus", demo_file, "--embeddings", emb, "--out", model, "--gnn-pred", preds]
        assert self.run(*argv, "--quiet") == 2
        assert capsys.readouterr().err == f"error: {demo_file}: no labeled train ideas to train the GNN on\n"
        assert not model.exists() and not preds.exists()

    def test_gen_negatives_refuses_an_unsplit_corpus_naming_it(self, tmp_path, capsys, demo_file):
        """As lp and train do: the raw corpus has no train ideas to draw
        sources from, so gen-negatives names it, before it reads the graph
        (not made here), and writes nothing."""
        graph, negs, rest = (tmp_path / name for name in ("graph.bin", "negs.jsonl", "rest.jsonl"))
        argv = ["gen-negatives", "--corpus", demo_file, "--graph", graph, "--out", negs, "--holdout-out", rest]
        assert self.run(*argv, "--quiet") == 2
        assert capsys.readouterr().err == f"error: {demo_file}: no labeled train ideas to draw negatives from\n"
        assert list(tmp_path.iterdir()) == [demo_file]

    def test_force_is_a_flag_of_run_alone(self, tmp_path, capsys, demo_file):
        """``run --force`` reruns every stage; a stage subcommand always
        runs, and refuses the flag."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": str(demo_file), "out_dir": str(tmp_path / "run"), "engine": "lp"}))
        assert self.run("run", "--config", config, "--quiet") == 0
        assert self.run("run", "--config", config, "--force", "--quiet") == 0
        stages = json.loads((tmp_path / "run" / "run_manifest.json").read_text())["stages"]
        assert [s["name"] for s in stages if not s["skipped"]] == ["split", "extract", "embed", "build", "lp", "eval"]
        with pytest.raises(SystemExit) as exited:
            self.run("build", "--viewpoints", "v", "--embeddings", "e", "--out", "g", "--force")
        assert exited.value.code == 2
        assert "error: unrecognized arguments: --force" in capsys.readouterr().err

    def test_run_whose_split_gives_no_train_ideas_fails_at_lp(self, tmp_path, monkeypatch, capsys, demo_file):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": str(demo_file), "out_dir": "run", "split": {"fractions": [0, 0.5, 0.5]}}))
        assert self.run("run", "--config", config, "--quiet") == 1
        split = Path("run") / "split.jsonl"
        assert capsys.readouterr().err == (
            f"error: stage 'lp' failed: {split}: no labeled train ideas to propagate labels from\n")
        assert not (tmp_path / "run" / "predictions_lp.jsonl").exists()

    def test_extract_names_refused_remote_call(self, tmp_path, capsys, demo_file, monkeypatch):
        class Resp:
            status_code = 401
            text = "bad key"

        calls = []
        monkeypatch.setattr(requests, "post", lambda url, **kw: calls.append(url) or Resp())
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"llm": {"backend": "remote", "endpoint": "http://x", "max_inflight": 1}}))
        argv = ["extract", "--in", demo_file, "--out", tmp_path / "views.jsonl", "--config", config]
        assert self.run(*argv, "--quiet") == 1
        stderr = capsys.readouterr().err
        assert stderr == "error: idea 'demo-00': chat completion endpoint http://x: refused with HTTP 401, not retried: bad key\n"
        assert calls == ["http://x"] and not (tmp_path / "views.jsonl").exists()

    def test_extract_names_split_file_and_idea_of_failed_extraction(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(llm, "_mock_viewpoints", lambda prompt: ("[Graphs help.]", 2))
        split = tmp_path / "split.jsonl"
        split.write_text(json.dumps({"labels": ["bad", "good"]}) + "\n" + json.dumps({"id": "x", "text": "Graphs help."}) + "\n")
        assert self.run("extract", "--in", split, "--out", tmp_path / "views.jsonl", "--quiet") == 2
        assert capsys.readouterr().err == f"error: {split}: idea 'x': no '[Extracted Viewpoints ...]' marker found; raw completion: '[Graphs help.]'\n"
        assert not (tmp_path / "views.jsonl").exists()

    def test_train_predict_with_negatives(self, tmp_path):
        corpus_file = tmp_path / "sep.jsonl"
        save_corpus(separable_corpus(n_ideas=16), corpus_file)
        split = tmp_path / "split.jsonl"
        views = tmp_path / "views.jsonl"
        emb = tmp_path / "emb.bin"
        graph = tmp_path / "graph.bin"
        negs = tmp_path / "negs.jsonl"
        model = tmp_path / "model.ckpt"
        preds = tmp_path / "preds.jsonl"
        self.run("split", "--in", corpus_file, "--out", split, "--seed", 1, "--quiet")
        self.run("extract", "--in", split, "--out", views, "--quiet")
        self.run("embed", "--in", views, "--out", emb, "--quiet")
        self.run("build", "--viewpoints", views, "--embeddings", emb, "--out", graph, "--quiet")
        assert self.run("gen-negatives", "--corpus", split, "--graph", graph, "--count", 4,
                        "--train-subset", 2, "--seed", 2, "--out", negs, "--quiet") == 0
        assert self.run("train", "--graph", graph, "--corpus", split, "--embeddings", emb,
                        "--negatives", negs, "--seed", 3, "--epochs", 5, "--hidden", 8,
                        "--split", "test", "--out", model, "--gnn-pred", preds, "--quiet") == 0
        lines = [json.loads(l) for l in preds.read_text().splitlines()]
        assert all("label" in l and "probabilities" in l for l in lines)

    def test_eval_with_costs(self, tmp_path, demo_file):
        split = tmp_path / "split.jsonl"
        views = tmp_path / "views.jsonl"
        emb = tmp_path / "emb.bin"
        graph = tmp_path / "graph.bin"
        preds = tmp_path / "preds.jsonl"
        report = tmp_path / "report.json"
        costs = tmp_path / "costs.json"
        costs.write_text(json.dumps({"ours": 0.16, "baseline": 2.0, "other": 1.0}))
        self.run("split", "--in", demo_file, "--out", split, "--seed", 3, "--quiet")
        self.run("extract", "--in", split, "--out", views, "--quiet")
        self.run("embed", "--in", views, "--out", emb, "--quiet")
        self.run("build", "--viewpoints", views, "--embeddings", emb, "--out", graph, "--quiet")
        self.run("lp", "--graph", graph, "--corpus", split, "--out", preds, "--quiet")
        assert self.run("eval", "--lp-pred", preds, "--corpus", split, "--out", report, "--costs", costs, "--quiet") == 0
        payload = json.loads(report.read_text())
        assert payload["normed_costs"]["ours"] == pytest.approx(0.08)

    @pytest.mark.parametrize(
        "second_line, message",
        [
            ({"id": "nope", "label": "Reject"}, "line 2: idea id 'nope' is not in the corpus"),
            ({"label": "Reject"}, "line 2: missing key 'id'"),
            # one idea predicted twice would count twice in the confusion matrix
            ({"id": demo_corpus().ideas[0].id, "label": "Reject"},
             f"line 2: duplicate id {demo_corpus().ideas[0].id!r} (first seen on line 1)"),
        ],
        ids=["unknown-id", "missing-id", "duplicate-id"],
    )
    def test_eval_names_bad_prediction_line(self, tmp_path, capsys, demo_file, second_line, message):
        preds = tmp_path / "preds.jsonl"
        first = {"id": demo_corpus().ideas[0].id, "label": "Reject"}
        preds.write_text("".join(json.dumps(obj) + "\n" for obj in (first, second_line)))
        assert self.run("eval", "--lp-pred", preds, "--corpus", demo_file, "--out", tmp_path / "r.json", "--quiet") == 2
        stderr = capsys.readouterr().err
        assert f"predictions file {preds}: {message}" in stderr and "Traceback" not in stderr

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("[1, 2]", "must be a non-empty object of method -> average cost, got [1, 2]"),
            ("{}", "must be a non-empty object of method -> average cost, got {}"),
            ('{"a": "x", "b": 1}', "key 'a' must be a finite number >= 0, got 'x'"),
            ('{"a": true}', "key 'a' must be a finite number >= 0, got True"),
            ('{"a": NaN, "b": 1}', "key 'a' must be a finite number >= 0, got nan"),
            ('{"a": 1, "b": Infinity}', "key 'b' must be a finite number >= 0, got inf"),
            ('{"a": 1, "b": -0.5}', "key 'b' must be a finite number >= 0, got -0.5"),
            ("{1: 2}", "not JSON"),
            ('{"a": 1.5, "b": 1%s}' % ("0" * 399), "key 'b' must be a finite number >= 0, got 1%s" % ("0" * 399)),
            ('{"a": 0, "b": 0}', "all costs are zero; nothing to normalize against"),
        ],
        ids=["list", "empty", "string", "bool", "nan", "infinity", "negative", "not-json", "400-digit-int", "all-zero"],
    )
    def test_eval_names_bad_costs_file(self, tmp_path, capsys, demo_file, text, problem):
        preds, costs = tmp_path / "preds.jsonl", tmp_path / "costs.json"
        preds.write_text(json.dumps({"id": demo_corpus().ideas[0].id, "label": "Reject"}) + "\n")
        costs.write_text(text)
        argv = ["eval", "--lp-pred", preds, "--costs", costs, "--corpus", demo_file, "--out", tmp_path / "r.json"]
        assert self.run(*argv, "--quiet") == 2
        stderr = capsys.readouterr().err
        assert f"costs file {costs}: {problem}" in stderr and "Traceback" not in stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("stage", ["build", "train"])
    @pytest.mark.parametrize("rows", ["reversed", "foreign"])
    def test_embeddings_of_other_rows_named(self, tmp_path, capsys, demo_file, stage, rows):
        run_pipeline(demo_config(tmp_path, demo_file), quiet=True)
        run = tmp_path / "run"
        ids = row_ids(load_graph(run / "graph.bin").idea)
        matrix = load_embeddings(run / "embeddings.bin", ids)
        if rows == "reversed":
            bad_rows, bad_ids = matrix.rows[::-1], ids[::-1]
        else:
            bad_rows, bad_ids = matrix.rows, [f"other-{i}:0" for i in range(len(ids))]
        emb = tmp_path / "other.bin"
        save_embeddings(EmbeddingMatrix(bad_rows), bad_ids, emb)
        if stage == "build":
            argv = ["build", "--viewpoints", run / "viewpoints.jsonl", "--embeddings", emb, "--out", tmp_path / "out.bin"]
        else:
            argv = ["train", "--graph", run / "graph.bin", "--corpus", run / "split.jsonl", "--embeddings", emb,
                    "--out", tmp_path / "out.ckpt", "--gnn-pred", tmp_path / "out.jsonl"]
        assert self.run(*argv, "--quiet") == 2
        stderr = capsys.readouterr().err
        assert f"embeddings file {emb}: row 0 has id {bad_ids[0]!r}, expected {ids[0]!r}" in stderr
        assert "Traceback" not in stderr
        assert not any(p.name.startswith("out") for p in tmp_path.iterdir())

    def test_lp_from_the_run_graph_writes_the_run_predictions(self, tmp_path, capsys, demo_file):
        """And prints its summary, the run's, as one JSON line."""
        manifest = run_pipeline(demo_config(tmp_path, demo_file), quiet=True)
        run = tmp_path / "run"
        argv = ["lp", "--graph", run / "graph.bin", "--corpus", run / "split.jsonl", "--out", tmp_path / "lp.jsonl"]
        assert self.run(*argv) == 0
        assert (tmp_path / "lp.jsonl").read_bytes() == (run / "predictions_lp.jsonl").read_bytes()
        assert capsys.readouterr().out == json.dumps(manifest["summary"]["lp"]) + "\n"

    def test_eval_without_predictions_named(self, tmp_path, capsys, demo_file):
        assert self.run("eval", "--corpus", demo_file, "--out", tmp_path / "r.json", "--quiet") == 2
        stderr = capsys.readouterr().err
        assert "eval has no predictions to score" in stderr and "Traceback" not in stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "record, labeled, problem",
        [
            ({}, True, "'label' must be one of {known}, got None"),
            ({"label": "Great"}, True, "'label' must be one of {known}, got 'Great'"),
            # every line's label is checked, not only those of labeled ideas
            ({"label": "Great"}, False, "'label' must be one of {known}, got 'Great'"),
            ({"label": 3}, False, "key 'label' must be a str, got int"),
        ],
        ids=["missing", "unknown", "unknown-on-unlabeled-idea", "int-on-unlabeled-idea"],
    )
    def test_eval_names_predictions_line_with_bad_label(self, tmp_path, capsys, record, labeled, problem):
        # the demo corpus with its last idea unlabeled
        demo = demo_corpus()
        corpus, preds = tmp_path / "corpus.jsonl", tmp_path / "preds.jsonl"
        save_corpus(Corpus(demo.label_set, demo.ideas[:-1] + [replace(demo.ideas[-1], label=None)]), corpus)
        second = demo.ideas[1 if labeled else -1].id
        lines = [{"id": demo.ideas[0].id, "label": "Reject"}, {"id": second, **record}]
        preds.write_text("".join(json.dumps(line) + "\n" for line in lines))
        argv = ["eval", "--lp-pred", preds, "--corpus", corpus, "--out", tmp_path / "r.json"]
        assert self.run(*argv, "--quiet") == 2
        known = list(demo_corpus().label_set.labels)
        assert capsys.readouterr().err == f"error: predictions file {preds}: line 2: {problem.format(known=known)}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "text, problem",
        [("[]", "no ideas to price"), ("", "not JSON (Expecting value: line 1 column 1 (char 0))")],
        ids=["no-ideas", "empty-file"],
    )
    def test_eval_names_empty_tokens_file(self, tmp_path, capsys, demo_file, text, problem):
        preds, tokens = tmp_path / "preds.jsonl", tmp_path / "tokens.json"
        preds.write_text(json.dumps({"id": demo_corpus().ideas[0].id, "label": "Reject"}) + "\n")
        tokens.write_text(text)
        argv = ["eval", "--lp-pred", preds, "--tokens", tokens, "--corpus", demo_file, "--out", tmp_path / "r.json"]
        assert self.run(*argv, "--quiet") == 2
        assert capsys.readouterr().err == f"error: tokens file {tokens}: {problem}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("price", [0.0, 0.2, 2.5])
    def test_eval_cost_is_the_mean_of_per_record_costs(self, tmp_path, demo_file, price):
        preds, tokens = tmp_path / "preds.jsonl", tmp_path / "tokens.json"
        preds.write_text(json.dumps({"id": demo_corpus().ideas[0].id, "label": "Reject"}) + "\n")
        counts = np.random.default_rng(3).integers(0, 10**7, size=(25, 2)).tolist()
        tokens.write_text(json.dumps(counts))
        paths = {"split": demo_file, "lp_pred": preds, "tokens": tokens, "report": tmp_path / "r.json"}
        pipeline.run_eval(paths, demo_config(tmp_path, demo_file, llm={"price_per_million": price}), {})
        extraction = json.loads((tmp_path / "r.json").read_text())["extraction"]
        per_record = [(p + c) * price / 1e6 for p, c in counts]
        assert extraction["avg_cost_per_evaluation"] == sum(per_record) / len(per_record)
        assert extraction["avg_tokens_per_evaluation"] == sum(p + c for p, c in counts) / len(counts)

    @pytest.mark.parametrize("counts", [[[3, 4], ["12", 5]], [[3, 4], [12]], [[3, 4], [-1, 5]], {"a": [3, 4]}],
                             ids=["string-count", "one-count", "negative-count", "object"])
    def test_eval_names_token_count_of_wrong_type(self, tmp_path, capsys, demo_file, counts):
        preds, tokens = tmp_path / "preds.jsonl", tmp_path / "tokens.json"
        preds.write_text(json.dumps({"id": demo_corpus().ideas[0].id, "label": "Reject"}) + "\n")
        tokens.write_text(json.dumps(counts))
        argv = ["eval", "--lp-pred", preds, "--tokens", tokens, "--corpus", demo_file, "--out", tmp_path / "r.json"]
        assert self.run(*argv, "--quiet") == 2
        got = "must be a list, got dict" if isinstance(counts, dict) else f"must be {TOKENS}, got item {counts[1]!r}"
        assert capsys.readouterr().err == f"error: tokens file {tokens}: {got}\n"
        assert not (tmp_path / "r.json").exists()

    def test_embed_names_viewpoints_line_without_key(self, tmp_path, capsys, demo_file):
        split, views = tmp_path / "split.jsonl", tmp_path / "views.jsonl"
        assert self.run("split", "--in", demo_file, "--out", split, "--quiet") == 0
        assert self.run("extract", "--in", split, "--out", views, "--quiet") == 0
        lines = views.read_text().splitlines()
        first = json.loads(lines[0])
        del first["idea_id"]
        views.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        assert self.run("embed", "--in", views, "--out", tmp_path / "emb.bin", "--quiet") == 2
        stderr = capsys.readouterr().err
        assert f"{views}: line 1: missing key 'idea_id'" in stderr and "Traceback" not in stderr
        assert not (tmp_path / "emb.bin").exists()

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"viewpoints": 5}, "key 'viewpoints' must be a list, got int"),
            ({"viewpoints": ["x y", 3]}, "key 'viewpoints' must be a list of non-empty strings, got item 3"),
            ({"viewpoints": ["x y", ""]}, "key 'viewpoints' must be a list of non-empty strings, got item ''"),
            ({"timestamp": True}, "key 'timestamp' must be an int, got bool"),
            ({"timestamp": -5}, "key 'timestamp' must be >= 0, got -5"),
            ({"prompt_tokens": 1.5}, "key 'prompt_tokens' must be an int, got float"),
            ({"completion_tokens": -1}, "key 'completion_tokens' must be >= 0, got -1"),
            ({"pairs": "x y"}, "key 'pairs' must be a list, got str"),
            ({"pairs": [["x y", "and", "supporting"]]},
             "key 'pairs' must be a list of [left, connector, polarity, right] string lists, got item ['x y', 'and', 'supporting']"),
        ],
    )
    def test_embed_names_viewpoints_value_of_wrong_type(self, tmp_path, capsys, record, message):
        views = tmp_path / "views.jsonl"
        views.write_text(json.dumps({"idea_id": "a", "viewpoints": ["x y"], **record}) + "\n")
        assert self.run("embed", "--in", views, "--out", tmp_path / "emb.bin", "--quiet") == 2
        stderr = capsys.readouterr().err
        assert f"{views}: line 1: {message}" in stderr and "Traceback" not in stderr
        assert not (tmp_path / "emb.bin").exists()

    def test_build_names_non_finite_embedding_row(self, tmp_path, capsys, demo_file):
        split, views, emb = tmp_path / "split.jsonl", tmp_path / "views.jsonl", tmp_path / "emb.bin"
        assert self.run("split", "--in", demo_file, "--out", split, "--quiet") == 0
        assert self.run("extract", "--in", split, "--out", views, "--quiet") == 0
        assert self.run("embed", "--in", views, "--out", emb, "--quiet") == 0
        header, blob = emb.read_bytes().split(b"\n", 1)
        emb.write_bytes(header + b"\n" + np.array([np.inf], dtype="<f4").tobytes() + blob[4:])
        assert self.run("build", "--viewpoints", views, "--embeddings", emb, "--out", tmp_path / "g.json", "--quiet") == 2
        stderr = capsys.readouterr().err
        assert "non-finite embedding vector at row 0" in stderr and "Traceback" not in stderr
        assert not (tmp_path / "g.json").exists()

    def test_run_subcommand(self, tmp_path, demo_file):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"corpus": str(demo_file), "out_dir": str(tmp_path / "clirun"), "engine": "lp"})
        )
        assert self.run("run", "--config", config, "--quiet") == 0
        assert (tmp_path / "clirun" / "report.json").exists()

    @pytest.mark.parametrize("case", ["out-under-a-file", "out-is-a-directory", "run-dir-under-a-file"])
    def test_unwritable_output_named_in_one_error_line(self, tmp_path, capsys, demo_file, monkeypatch, case):
        """An output that cannot be written ends in exit 2 and one error
        line naming it, and leaves no temp file."""
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("a regular file\n")
        Path("adir").mkdir()
        out = {"out-under-a-file": "afile/x.jsonl", "out-is-a-directory": "adir", "run-dir-under-a-file": "afile/run"}[case]
        if case == "run-dir-under-a-file":
            Path("config.json").write_text(json.dumps({"corpus": str(demo_file), "out_dir": out}))
            argv = ["run", "--config", "config.json"]
        else:
            argv = ["split", "--in", str(demo_file), "--out", out]
        code = cli_main(argv)
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 2 and len(errors) == 1 and out in errors[0], err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.tmp"))
        assert Path("afile").read_text() == "a regular file\n" and not list(Path("adir").iterdir())

    def test_split_passes_an_already_split_corpus_through(self, tmp_path, capsys, demo_file):
        split, resplit = tmp_path / "split.jsonl", tmp_path / "resplit.jsonl"
        save_corpus(split_corpus(demo_corpus(), (0.7, 0.1, 0.2), seed=3), split)
        assert self.run("split", "--in", split, "--out", resplit) == 0
        assert capsys.readouterr().out == '{"passthrough": true}\n'
        assert resplit.read_bytes() == split.read_bytes()

    def test_run_prints_each_stage_and_the_metrics_table(self, tmp_path, capsys, demo_file):
        data = {"corpus": str(demo_file), "out_dir": str(tmp_path / "run"), "engine": "both",
                "gnn": {"hidden_dim": 8, "max_epochs": 4}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        names = [stage.name for stage in stage_table(validate_config(data))]
        for status in (r"done in [0-9.]+s", "unchanged, skipped"):
            assert self.run("run", "--config", config) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [re.fullmatch(rf"\[([a-z-]+)\] {status}", line).group(1) for line in lines[:len(names)]] == names
            report = json.loads((tmp_path / "run" / "report.json").read_text())
            table = format_table({engine: MetricReport(**report[engine]) for engine in ("lp", "gnn")})
            assert lines[len(names):] == table.splitlines()

    CORPUS = '{"labels": ["bad", "good"]}\n'
    OTHER_IDEAS = CORPUS + '{"id": "idea-00", "text": "A.", "label": "bad", "split": "train"}\n'
    # case -> (files to write, argv, the whole stderr). A file's content is
    # text or bytes; None makes a directory. An argv naming a path under
    # run/ gets a demo12 run there first.
    REFUSALS = {
        # pathlib drops the trailing slash of data/
        "corpus-is-a-directory": ({"data": None}, ["split", "--in", "data/", "--out", "out.jsonl"],
                                  "error: data: Is a directory\n"),
        "corpus-not-utf8": ({"not-utf8.jsonl": b"\xff" + CORPUS.encode()},
                            ["split", "--in", "not-utf8.jsonl", "--out", "out.jsonl"],
                            "error: not-utf8.jsonl: not UTF-8 ('utf-8' codec can't decode byte 0xff in position 0: "
                            "invalid start byte)\n"),
        "graph-json-as-graph": ({}, ["lp", "--graph", "run/graph.json", "--corpus", "run/split.jsonl", "--out", "out.jsonl"],
                                "error: graph file run/graph.json: header 'dtypes' must be a dict, got NoneType\n"),
        "two-fractions": ({"config.json": '{"split": {"fractions": [0.5, 0.5]}}'},
                          ["split", "--in", "corpus.jsonl", "--out", "out.jsonl", "--config", "config.json"],
                          "error: invalid config file config.json:\n  split.fractions: must be 3 values, got [0.5, 0.5]\n"),
        "negative-fraction": ({"config.json": '{"split": {"fractions": [1.2, -0.2, 0.0]}}'},
                              ["split", "--in", "corpus.jsonl", "--out", "out.jsonl", "--config", "config.json"],
                              "error: invalid config file config.json:\n"
                              "  split.fractions: must be non-negative, got [1.2, -0.2, 0.0]\n"),
        "hybrid-without-relations": ({"config.json": '{"graph": {"hybrid": true}}'},
                                     ["split", "--in", "corpus.jsonl", "--out", "out.jsonl", "--config", "config.json"],
                                     "error: invalid config file config.json:\n"
                                     "  graph.hybrid: requires llm.relations to be enabled\n"),
        "rounded-fractions-overflow": (
            {"corpus.jsonl": CORPUS + "".join(f'{{"id": "{i}", "text": "{i}.", "label": "good"}}\n' for i in "abc")},
            ["split", "--in", "corpus.jsonl", "--out", "out.jsonl", "--fractions", "0.5,0.5,0"],
            "error: corpus.jsonl: rounded fractions overflow corpus of size 3\n"),
        "unlabeled-ideas-overflow-test": (
            {"corpus.jsonl": CORPUS + "".join(f'{{"id": "{i}", "text": "{i}."}}\n' for i in "abc")},
            ["split", "--in", "corpus.jsonl", "--out", "out.jsonl", "--fractions", "0.4,0.3,0.3"],
            "error: corpus.jsonl: 3 unlabeled ideas cannot fit the test split of size 1\n"),
        "no-viewpoints": ({"views.jsonl": '{"idea_id": "a", "viewpoints": []}\n'},
                          ["embed", "--in", "views.jsonl", "--out", "out.bin"],
                          "error: views.jsonl: line 1: idea 'a' has no viewpoints\n"),
        "unknown-strategy": (
            {"negs.jsonl": '{"id": "n0", "source_id": "demo-00", "strategy": "paste", "viewpoints": ["x"], "timestamp": 0}\n'},
            ["train", "--graph", "run/graph.bin", "--corpus", "run/split.jsonl", "--embeddings", "run/embeddings.bin",
             "--negatives", "negs.jsonl", "--out", "out.ckpt", "--gnn-pred", "out.jsonl"],
            "error: negs.jsonl: line 1: unknown strategy 'paste'\n"),
        "negative-without-viewpoints": (
            {"negs.jsonl": '{"id": "neg-copy-000", "source_id": "demo-00", "strategy": "copy", "viewpoints": [], '
                           '"timestamp": 0}\n'},
            ["train", "--graph", "run/graph.bin", "--corpus", "run/split.jsonl", "--embeddings", "run/embeddings.bin",
             "--negatives", "negs.jsonl", "--out", "out.ckpt", "--gnn-pred", "out.jsonl"],
            "error: negs.jsonl: line 1: negative 'neg-copy-000' has no viewpoints\n"),
        # the demo corpus has 4 labels: a negative's label indexes them
        "negative-label-out-of-range": (
            {"negs.jsonl": '{"id": "neg-copy-000", "source_id": "demo-00", "strategy": "copy", "viewpoints": ["x"], '
                           '"timestamp": 0, "label": 9}\n'},
            ["train", "--graph", "run/graph.bin", "--corpus", "run/split.jsonl", "--embeddings", "run/embeddings.bin",
             "--negatives", "negs.jsonl", "--out", "out.ckpt", "--gnn-pred", "out.jsonl"],
            "error: negs.jsonl: negative 'neg-copy-000' has label 9, not one of the corpus's 4 labels\n"),
        "trailing-text": ({"corpus.jsonl": CORPUS + '{"id": "a", "text": "A."} and more\n'},
                          ["split", "--in", "corpus.jsonl", "--out", "out.jsonl"],
                          "error: corpus.jsonl: line 2: invalid JSON (Extra data): "
                          "'{\"id\": \"a\", \"text\": \"A.\"} and more'\n"),
        "unknown-split": ({"corpus.jsonl": CORPUS + '{"id": "a", "text": "A.", "label": "bad", "split": "holdout"}\n'},
                          ["split", "--in", "corpus.jsonl", "--out", "out.jsonl"],
                          "error: corpus.jsonl: line 2: idea 'a' has unknown split 'holdout'\n"),
        "unlabeled-train-idea": ({"corpus.jsonl": CORPUS + '{"id": "a", "text": "A.", "split": "train"}\n'},
                                 ["split", "--in", "corpus.jsonl", "--out", "out.jsonl"],
                                 "error: corpus.jsonl: line 2: train idea 'a' has no label\n"),
        "unknown-label": ({"corpus.jsonl": CORPUS + '{"id": "a", "text": "A.", "label": "nope"}\n'},
                          ["split", "--in", "corpus.jsonl", "--out", "out.jsonl"],
                          "error: corpus.jsonl: line 2: 'label' must be one of ['bad', 'good'], got 'nope'\n"),
        # the demo12 run's graph, and a corpus of other ideas
        "lp-graph-of-other-ideas": (
            {"corpus.jsonl": OTHER_IDEAS},
            ["lp", "--graph", "run/graph.bin", "--corpus", "corpus.jsonl", "--out", "out.jsonl"],
            "error: graph file run/graph.bin and corpus corpus.jsonl name different ideas: "
            "'demo-00' is only in the graph\n"),
        "train-graph-of-other-ideas": (
            {"corpus.jsonl": OTHER_IDEAS},
            ["train", "--graph", "run/graph.bin", "--corpus", "corpus.jsonl", "--embeddings", "run/embeddings.bin",
             "--out", "out.ckpt", "--gnn-pred", "out.jsonl"],
            "error: graph file run/graph.bin and corpus corpus.jsonl name different ideas: "
            "'demo-00' is only in the graph\n"),
        "gen-negatives-graph-of-other-ideas": (
            {"corpus.jsonl": OTHER_IDEAS},
            ["gen-negatives", "--corpus", "corpus.jsonl", "--graph", "run/graph.bin", "--out", "out.jsonl"],
            "error: graph file run/graph.bin and corpus corpus.jsonl name different ideas: "
            "'demo-00' is only in the graph\n"),
    }

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refused_input_in_one_error_line(self, tmp_path, monkeypatch, capsys, demo_file, case):
        """Exit 2, one ``error:`` line naming what is wrong, and no output."""
        files, argv, stderr = self.REFUSALS[case]
        monkeypatch.chdir(tmp_path)
        if any(arg.startswith("run/") for arg in argv):
            run_pipeline(validate_config({"corpus": str(demo_file), "out_dir": "run"}), quiet=True)
        for name, content in {"corpus.jsonl": self.CORPUS, **files}.items():
            if content is None:
                Path(name).mkdir()
            elif isinstance(content, bytes):
                Path(name).write_bytes(content)
            else:
                Path(name).write_text(content)
        assert self.run(*argv) == 2
        assert capsys.readouterr().err == stderr
        assert not list(tmp_path.glob("out.*"))

    @pytest.mark.parametrize("command", ["lp", "train", "gen-negatives"])
    def test_corpus_idea_missing_from_the_graph_named(self, tmp_path, monkeypatch, capsys, demo_file, command):
        """The run's own split with one more idea: the graph has no nodes
        for it, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        run_pipeline(validate_config({"corpus": str(demo_file), "out_dir": "run"}), quiet=True)
        Path("corpus.jsonl").write_text(Path("run/split.jsonl").read_text()
                                        + '{"id": "extra", "text": "E.", "split": "test"}\n')
        argv = {"lp": ["lp", "--graph", "run/graph.bin", "--corpus", "corpus.jsonl", "--out", "out.jsonl"],
                "train": ["train", "--graph", "run/graph.bin", "--corpus", "corpus.jsonl", "--embeddings",
                          "run/embeddings.bin", "--out", "out.ckpt", "--gnn-pred", "out.jsonl"],
                "gen-negatives": ["gen-negatives", "--corpus", "corpus.jsonl", "--graph", "run/graph.bin",
                                  "--out", "out.jsonl"]}[command]
        assert self.run(*argv) == 2
        assert capsys.readouterr().err == ("error: graph file run/graph.bin and corpus corpus.jsonl name different "
                                           "ideas: 'extra' is only in the corpus\n")
        assert not list(tmp_path.glob("out.*"))

    @pytest.mark.parametrize("command", ["lp", "train"])
    def test_unknown_split_refused_before_any_stage_runs(self, tmp_path, monkeypatch, capsys, demo_file, command):
        """The parser refuses a --split that names no split, so neither
        engine propagates or trains first, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        run_pipeline(validate_config({"corpus": str(demo_file), "out_dir": "run"}), quiet=True)

        def never(*args, **kwargs):
            raise AssertionError("an engine ran")

        monkeypatch.setattr(gnn, "train", never)
        monkeypatch.setattr(label_prop, "propagate", never)
        argv = {"lp": ["lp", "--graph", "run/graph.bin", "--corpus", "run/split.jsonl", "--out", "out.jsonl"],
                "train": ["train", "--graph", "run/graph.bin", "--corpus", "run/split.jsonl", "--embeddings",
                          "run/embeddings.bin", "--out", "out.ckpt", "--gnn-pred", "out.jsonl"]}[command]
        with pytest.raises(SystemExit) as stopped:
            self.run(*argv, "--split", "bogus")
        assert stopped.value.code == 2
        stderr = capsys.readouterr().err
        # Python 3.12 dropped the quotes around the choices
        assert re.fullmatch(rf"viewgraph {command}: error: argument --split: invalid choice: 'bogus' "
                            r"\(choose from '?train'?, '?validation'?, '?test'?\)", stderr.splitlines()[-1])
        assert stderr.startswith(f"usage: viewgraph {command}") and "Traceback" not in stderr
        assert not list(tmp_path.glob("out.*"))

    def test_bad_config_exit_code(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"graph": {"k": 0}}))
        assert self.run("run", "--config", config, "--quiet") == 2

    def test_missing_input_exit_code(self, tmp_path):
        assert self.run("split", "--in", tmp_path / "missing.jsonl", "--out", tmp_path / "x.jsonl", "--quiet") == 2


# Settings chosen away from the defaults, so a subcommand that ignores a
# config section writes a different file than ``run``.
PARITY_CASES = {
    "demo12": (
        demo_corpus,
        {
            "engine": "both",
            "llm": {"relations": True},
            "graph": {"k": 2, "m": 4, "hybrid": True},
            "lp": {"max_iters": 3, "early_stop": False},
            "gnn": {"hidden_dim": 8, "max_epochs": 6, "learning_rate": 0.01},
        },
    ),
    "separable40": (
        separable_corpus,
        {
            "engine": "gnn",
            "split": {"fractions": [0.6, 0.2, 0.2]},
            "embedding": {"dimension": 16},
            "gnn": {"hidden_dim": 8, "max_epochs": 6, "batch_size": 8},
            "novelty": {"enabled": True, "count": 9, "train_subset": 4, "swap_fraction": 0.4},
        },
    ),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_subcommands_write_what_run_writes(tmp_path, case):
    """The stage subcommands, given the config ``run`` used, write the same
    bytes as ``run``."""
    make_corpus, settings = PARITY_CASES[case]
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(make_corpus(), corpus)
    config = tmp_path / "config.json"
    run_dir, cli_dir = tmp_path / "run", tmp_path / "cli"
    config.write_text(json.dumps({"corpus": str(corpus), "out_dir": str(run_dir), "seed": 7, **settings}))
    assert cli_main(["run", "--config", str(config), "--quiet"]) == 0

    def cli(*argv):
        assert cli_main([str(a) for a in argv] + ["--config", str(config), "--quiet"]) == 0

    split, views = cli_dir / "split.jsonl", cli_dir / "viewpoints.jsonl"
    emb, graph = cli_dir / "embeddings.bin", cli_dir / "graph.bin"
    cli("split", "--in", corpus, "--out", split)
    cli("extract", "--in", split, "--out", views, "--tokens", cli_dir / "tokens.json")
    cli("embed", "--in", views, "--out", emb)
    cli("build", "--viewpoints", views, "--embeddings", emb, "--out", graph)
    inputs = ["--graph", graph, "--corpus", split, "--embeddings", emb]
    if settings.get("novelty", {}).get("enabled"):
        negs = cli_dir / "negatives.jsonl"
        cli("gen-negatives", "--corpus", split, "--graph", graph, "--out", negs,
            "--holdout-out", cli_dir / "negatives_holdout.jsonl")
        inputs += ["--negatives", negs]
    if settings["engine"] == "both":
        cli("lp", "--graph", graph, "--corpus", split, "--out", cli_dir / "predictions_lp.jsonl")
    model = cli_dir / "model.ckpt"
    cli("train", *inputs, "--log", cli_dir / "training_log.json", "--out", model,
        "--gnn-pred", cli_dir / "predictions_gnn.jsonl")
    preds = ["--gnn-pred", cli_dir / "predictions_gnn.jsonl"]
    if settings["engine"] == "both":
        preds += ["--lp-pred", cli_dir / "predictions_lp.jsonl"]
    cli("eval", "--corpus", split, "--tokens", cli_dir / "tokens.json", *preds, "--out", cli_dir / "report.json")

    written = sorted(p.name for p in cli_dir.iterdir())
    assert {"graph.bin", "model.ckpt", "predictions_gnn.jsonl", "report.json", "tokens.json"} <= set(written)
    for name in written:
        assert (cli_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


def load_run_embeddings(path: Path) -> EmbeddingMatrix:
    """An embeddings file, its rows checked against the viewpoints file beside it."""
    records = load_viewpoints(path.with_name(FILES["viewpoints"]))
    return load_embeddings(path, row_ids([r.idea_id for r in records for _ in r.viewpoints]))


# What each file a run hands on in memory is read back with.
LOADERS = {"split": load_corpus, "viewpoints": load_viewpoints, "tokens": load_tokens,
           "embeddings": load_run_embeddings, "graph": load_graph, "negatives": novelty.load_negatives,
           "lp_pred": pipeline.load_predictions, "gnn_pred": pipeline.load_predictions}


class TestHandOn:
    """Within one ``run`` a stage gets the corpus, viewpoints, token counts,
    embeddings, graph, negatives and each engine's predictions an earlier
    stage wrote or read, while the file is unchanged."""

    def count_parses(self, monkeypatch) -> Counter:
        """Parses per file name, counted on the loaders the stages call."""
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(path, *args, **kwargs):
                calls[Path(path).name] += 1
                return fn(path, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("load_corpus", "load_viewpoints", "load_tokens", "load_embeddings", "load_graph",
                     "load_predictions"):
            counted(pipeline, name)
        counted(novelty, "load_negatives")
        return calls

    @pytest.mark.parametrize("case", ["demo12", "demo12-hybrid", "separable40"])
    def test_handed_object_equals_the_file_read_back(self, tmp_path, monkeypatch, case):
        plain = (demo_corpus, {"engine": "both", "gnn": {"hidden_dim": 8, "max_epochs": 6}})
        cases = {"demo12": plain, "demo12-hybrid": PARITY_CASES["demo12"], "separable40": PARITY_CASES["separable40"]}
        make_corpus, settings = cases[case]
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(make_corpus(), corpus)
        config = validate_config({"corpus": str(corpus), "out_dir": str(tmp_path / "run"), "seed": 7, **settings})
        handed = set()

        def checked(stage):
            def run(paths, config, memo, **kwargs):
                summary = stage(paths, config, memo, **kwargs)
                for key, obj in memo.items():
                    handed.add(key)
                    read_back = LOADERS[key](paths[key])
                    if key == "graph":
                        assert_same_graph(obj, read_back)
                    elif key == "embeddings":
                        assert np.array_equal(obj.rows, read_back.rows)
                    else:
                        assert obj == read_back, key
                return summary

            return run

        for name in STAGE_FUNCTIONS.values():
            monkeypatch.setattr(pipeline, name, checked(getattr(pipeline, name)))
        run_pipeline(config, quiet=True)
        engines = {"lp": {"lp_pred"}, "gnn": {"gnn_pred"}, "both": {"lp_pred", "gnn_pred"}}[config.engine]
        assert handed == (set(LOADERS) - {"lp_pred", "gnn_pred"} - (set() if config.novelty.enabled else {"negatives"})) | engines

    @pytest.mark.parametrize("engine, novelty_on", [("lp", False), ("gnn", True)])
    def test_cold_run_parses_only_the_raw_corpus(self, tmp_path, demo_file, monkeypatch, engine, novelty_on):
        """And the embeddings once: build reads them, and train takes build's matrix."""
        calls = self.count_parses(monkeypatch)
        config = demo_config(tmp_path, demo_file, engine=engine, novelty={"enabled": novelty_on, "count": 6, "train_subset": 2})
        run_pipeline(config, quiet=True)
        assert calls == {demo_file.name: 1, "embeddings.bin": 1}

    def test_lp_rerun_parses_graph_and_split_once(self, tmp_path, demo_file, monkeypatch):
        """eval prices the extraction from tokens.json: viewpoints.jsonl is
        not parsed; and it scores the predictions lp handed on:
        predictions_lp.jsonl is not parsed."""
        run_pipeline(demo_config(tmp_path, demo_file), quiet=True)
        calls = self.count_parses(monkeypatch)
        second = run_pipeline(demo_config(tmp_path, demo_file, lp={"max_iters": 3, "early_stop": False}), quiet=True)
        assert [s["name"] for s in second["stages"] if not s["skipped"]][0] == "lp"
        assert calls == {"graph.bin": 1, "split.jsonl": 1, "tokens.json": 1}
        assert calls["predictions_lp.jsonl"] == 0

    def test_lp_rerun_hashes_each_file_once_before_lp(self, tmp_path, demo_file, monkeypatch):
        """The skipped stages share each file's hash; lp, the first stage
        that runs, forgets them, so eval hashes its inputs again. A stage's
        outputs are hashed from the bytes it wrote, not read back."""
        run_pipeline(demo_config(tmp_path, demo_file), quiet=True)
        hashes, before_lp = Counter(), Counter()
        real_hash, real_lp = pipeline.file_hash, pipeline.run_lp
        monkeypatch.setattr(pipeline, "file_hash", lambda path: hashes.update([Path(path).name]) or real_hash(path))
        monkeypatch.setattr(pipeline, "run_lp", lambda *args, **kwargs: before_lp.update(hashes) or real_lp(*args, **kwargs))
        second = run_pipeline(demo_config(tmp_path, demo_file, lp={"max_iters": 3, "early_stop": False}), quiet=True)
        assert [s["name"] for s in second["stages"] if not s["skipped"]] == ["lp", "eval"]
        files = [demo_file.name, "split.jsonl", "viewpoints.jsonl", "tokens.json", "embeddings.bin", "graph.bin", "graph.json"]
        assert before_lp == Counter(files)
        assert hashes == Counter(files) + Counter(["split.jsonl", "tokens.json", "predictions_lp.jsonl"])
        assert sum(hashes.values()) == 10

    def test_split_edited_between_stages_is_read_again(self, tmp_path, demo_file, monkeypatch):
        """The edit lands after the split stage's manifest write, before
        extract hashes its input: extract parses the edited file."""
        out = tmp_path / "run"
        real_write = pipeline.write_atomic

        def write_then_edit(path, data):
            real_write(path, data)
            if Path(path).name == "run_manifest.json" and [s["name"] for s in json.loads(data)["stages"]] == ["split"]:
                lines = (out / "split.jsonl").read_text().splitlines(keepends=True)
                lines[1] = json.dumps({**json.loads(lines[1]), "text": "Edited by hand. Twice over."}) + "\n"
                (out / "split.jsonl").write_text("".join(lines))

        monkeypatch.setattr(pipeline, "write_atomic", write_then_edit)
        calls = self.count_parses(monkeypatch)
        run_pipeline(demo_config(tmp_path, demo_file), quiet=True)
        assert calls == {demo_file.name: 1, "split.jsonl": 1, "embeddings.bin": 1}
        assert load_viewpoints(out / "viewpoints.jsonl")[0].viewpoints == ("Edited by hand.", "Twice over.")

    @pytest.mark.parametrize("engine", ["lp", "gnn"])
    def test_predictions_edited_between_engine_and_eval_are_read_again(self, tmp_path, demo_file, monkeypatch, engine):
        """The edit lands after the engine stage's manifest write, before
        eval hashes its inputs: eval parses and scores the edited file."""
        out, name = tmp_path / "run", f"predictions_{engine}.jsonl"
        stage = {"lp": "lp", "gnn": "train"}[engine]
        real_write = pipeline.write_atomic

        def write_then_edit(path, data):
            real_write(path, data)
            if Path(path).name == "run_manifest.json" and json.loads(data)["stages"][-1]["name"] == stage:
                lines = (out / name).read_text().splitlines(keepends=True)
                row = json.loads(lines[0])
                lines[0] = json.dumps({**row, "label": "Accept (Oral)" if row["label"] == "Reject" else "Reject"}) + "\n"
                (out / name).write_text("".join(lines))

        monkeypatch.setattr(pipeline, "write_atomic", write_then_edit)
        calls = self.count_parses(monkeypatch)
        config = demo_config(tmp_path, demo_file, engine=engine, gnn={"hidden_dim": 8, "max_epochs": 3})
        run_pipeline(config, quiet=True)
        assert calls == {demo_file.name: 1, "embeddings.bin": 1, name: 1}
        edited = pipeline.evaluate_predictions(out / name, pipeline.load_predictions(out / name), load_corpus(out / "split.jsonl"))
        report = json.loads((out / "report.json").read_text())[engine]
        assert report == {**edited.to_dict(), "avg_token_cost": report["avg_token_cost"]}

    def test_split_edited_between_runs_is_rewritten_not_reused(self, tmp_path, demo_file):
        config = demo_config(tmp_path, demo_file, engine="both")
        run_pipeline(config, quiet=True)
        out = tmp_path / "run"
        written = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"}
        (out / "split.jsonl").write_text((out / "split.jsonl").read_text().replace("train", "test"))
        second = run_pipeline(config, quiet=True)
        assert not second["stages"][0]["skipped"]
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"} == written


def test_package_imports_no_scipy():
    """scipy.sparse would add about 22 MB of peak RSS; the package keeps to
    numpy. The heap policy finds the C library without ``ctypes.util``,
    whose ``find_library`` starts processes, and nothing loads
    ``subprocess``."""
    code = ("import sys, viewgraph.cli, viewgraph.gnn, viewgraph.label_prop; "
            "print(sorted({'scipy', 'subprocess', 'ctypes.util'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class FakeLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.mark.parametrize("libc", ["glibc", "other C library", "no C library", "no mallopt"])
def test_heap_policy_sets_both_thresholds_on_glibc_only(monkeypatch, libc):
    """Two ``mallopt`` calls on glibc: blocks of 32 MiB and up mapped on
    their own, the heap top trimmed past 64 MiB free. Elsewhere, nothing,
    and no error."""
    import viewgraph

    fake, opened = FakeLibc(), []

    def confstr(name):
        assert name == "CS_GNU_LIBC_VERSION"
        if libc == "other C library":
            raise ValueError("unrecognized configuration name")
        return "glibc 2.36"

    def cdll(name):
        opened.append(name)
        if libc == "no C library":
            raise OSError("cannot open the C library")
        return object() if libc == "no mallopt" else fake

    monkeypatch.setattr(viewgraph.os, "confstr", confstr)
    monkeypatch.setattr(viewgraph.ctypes, "CDLL", cdll)
    viewgraph.heap_policy()
    assert fake.calls == ([(-3, 32 << 20), (-1, 64 << 20)] if libc == "glibc" else [])
    assert opened == ([] if libc == "other C library" else [None])


REMOTE_ONLY = ("requests", "urllib3", "ssl", "concurrent.futures")


def test_offline_run_never_imports_the_http_client(tmp_path, demo_file):
    """requests, with urllib3 and ssl, adds about 10 MB of RSS that only the
    remote LLM backend and embedding provider use; the thread pool only runs
    remote calls concurrently."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = f"import sys, viewgraph.cli; print([m for m in {REMOTE_ONLY!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus": str(demo_file), "out_dir": str(tmp_path / "run"), "seed": 7, "engine": "both",
        "gnn": {"hidden_dim": 8, "max_epochs": 10},
    }))
    code = (
        f"import sys; sys.modules.update(dict.fromkeys({REMOTE_ONLY!r}))  # a None entry blocks the import\n"
        "from viewgraph.pipeline import run_pipeline, validate_config\n"
        f"run_pipeline(validate_config({str(config)!r}), quiet=True)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert {"lp", "gnn"} <= set(json.loads((tmp_path / "run" / "report.json").read_text()))


def test_benchmark_tracer_finds_every_target(monkeypatch):
    """The benchmark traces viewgraph's functions by module and name, so a
    renamed or moved target would leave its figures empty; uninstalling
    puts every original back."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert not hasattr(pipeline.run_pipeline, "__wrapped__")

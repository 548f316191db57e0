from __future__ import annotations

import json

import pytest

from viewgraph.cli import main as cli_main
from viewgraph.dataset import save_corpus
from viewgraph.fixtures import demo_corpus, separable_corpus
from viewgraph.pipeline import ConfigError, StageError, run_pipeline, validate_config


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
        assert any("graph.k" in e for e in err.value.errors)

    def test_bad_fractions_reported_at_split_fractions(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"split": {"fractions": [0.5, 0.5, 0.5]}})
        assert any("split.fractions" in e for e in err.value.errors)

    def test_unknown_keys_reported(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"grah": {}, "gnn": {"hiden": 3}})
        joined = "\n".join(err.value.errors)
        assert "grah" in joined and "gnn.hiden" in joined

    def test_multiple_errors_collected(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"graph": {"k": 0, "m": -1}, "engine": "bogus"})
        assert len(err.value.errors) == 3

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"graph": {"k": "5"}}, "graph.k"),
            ({"split": {"fractions": 5}}, "split.fractions"),
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
        assert any(e.startswith(f"{path}: must be") for e in err.value.errors)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        assert cli_main(["run", "--config", str(config), "--quiet"]) == 2
        stderr = capsys.readouterr().err
        assert f"{path}: must be" in stderr and "Traceback" not in stderr

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 5, "engine": "both"}))
        config = validate_config(path)
        assert config.seed == 5 and config.engine == "both"


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

    def test_force_reruns(self, tmp_path, demo_file):
        config = demo_config(tmp_path, demo_file)
        run_pipeline(config, quiet=True)
        forced = run_pipeline(config, force=True, quiet=True)
        assert all(not s["skipped"] for s in forced["stages"])

    def test_changed_input_invalidates_downstream(self, tmp_path, demo_file):
        config = demo_config(tmp_path, demo_file)
        run_pipeline(config, quiet=True)
        config2 = demo_config(tmp_path, demo_file, graph={"k": 2, "m": 4})
        second = run_pipeline(config2, quiet=True)
        stages = {s["name"]: s for s in second["stages"]}
        assert stages["split"]["skipped"] and stages["extract"]["skipped"]
        assert not stages["build"]["skipped"]
        assert not stages["lp"]["skipped"]

    def test_gnn_engine_produces_predictions(self, tmp_path, demo_file):
        config = demo_config(tmp_path, demo_file, out="gnnrun", engine="gnn")
        manifest = run_pipeline(config, quiet=True)
        names = [s["name"] for s in manifest["stages"]]
        assert names == ["split", "extract", "embed", "build", "train", "predict", "eval"]
        preds = (tmp_path / "gnnrun" / "predictions_gnn.jsonl").read_text().splitlines()
        assert len(preds) == 3  # 12 ideas * 0.2 test fraction, rounded

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
        assert err.value.stage == "split"
        manifest = json.loads((tmp_path / "broken" / "run_manifest.json").read_text())
        assert manifest["failed_stage"]["name"] == "split"

    def test_same_seed_byte_identical_outputs(self, tmp_path, demo_file):
        a = demo_config(tmp_path, demo_file, out="detA", engine="both")
        b = demo_config(tmp_path, demo_file, out="detB", engine="both")
        run_pipeline(a, quiet=True)
        run_pipeline(b, quiet=True)
        for name in ("predictions_lp.jsonl", "predictions_gnn.jsonl", "report.json"):
            assert (tmp_path / "detA" / name).read_bytes() == (tmp_path / "detB" / name).read_bytes()


class TestCli:
    def run(self, *argv):
        return cli_main([str(a) for a in argv])

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["train", "--graph", "g", "--corpus", "c", "--embeddings", "e", "--out", "m", "--lr", "-0.5"], "gnn.learning_rate"),
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

    def test_stagewise_flow(self, tmp_path, demo_file):
        split = tmp_path / "split.jsonl"
        views = tmp_path / "views.jsonl"
        emb = tmp_path / "emb.bin"
        graph = tmp_path / "graph.json"
        preds = tmp_path / "preds.jsonl"
        report = tmp_path / "report.json"
        assert self.run("split", "--in", demo_file, "--out", split, "--fractions", "0.7,0.1,0.2", "--seed", 3, "--quiet") == 0
        assert self.run("extract", "--in", split, "--out", views, "--backend", "mock", "--quiet") == 0
        assert self.run("embed", "--in", views, "--out", emb, "--provider", "stub", "--dim", 16, "--quiet") == 0
        assert self.run("build", "--viewpoints", views, "--embeddings", emb, "--k", 3, "--m", 5, "--out", graph, "--quiet") == 0
        assert self.run("lp", "--graph", graph, "--corpus", split, "--max-iters", 5, "--early-stop", "--out", preds, "--quiet") == 0
        assert self.run("eval", "--pred", preds, "--corpus", split, "--out", report, "--quiet") == 0
        payload = json.loads(report.read_text())
        assert {"accuracy", "macro_precision", "macro_recall", "macro_f1"} <= set(payload)

    def test_train_predict_with_negatives(self, tmp_path):
        corpus_file = tmp_path / "sep.jsonl"
        save_corpus(separable_corpus(n_ideas=16), corpus_file)
        split = tmp_path / "split.jsonl"
        views = tmp_path / "views.jsonl"
        emb = tmp_path / "emb.bin"
        graph = tmp_path / "graph.json"
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
                        "--out", model, "--quiet") == 0
        assert self.run("predict", "--model", model, "--graph", graph, "--corpus", split,
                        "--embeddings", emb, "--negatives", negs, "--split", "test",
                        "--out", preds, "--quiet") == 0
        lines = [json.loads(l) for l in preds.read_text().splitlines()]
        assert all("label" in l and "probabilities" in l for l in lines)

    def test_eval_with_costs(self, tmp_path, demo_file):
        split = tmp_path / "split.jsonl"
        views = tmp_path / "views.jsonl"
        emb = tmp_path / "emb.bin"
        graph = tmp_path / "graph.json"
        preds = tmp_path / "preds.jsonl"
        report = tmp_path / "report.json"
        costs = tmp_path / "costs.json"
        costs.write_text(json.dumps({"ours": 0.16, "baseline": 2.0, "other": 1.0}))
        self.run("split", "--in", demo_file, "--out", split, "--seed", 3, "--quiet")
        self.run("extract", "--in", split, "--out", views, "--quiet")
        self.run("embed", "--in", views, "--out", emb, "--quiet")
        self.run("build", "--viewpoints", views, "--embeddings", emb, "--out", graph, "--quiet")
        self.run("lp", "--graph", graph, "--corpus", split, "--out", preds, "--quiet")
        assert self.run("eval", "--pred", preds, "--corpus", split, "--out", report, "--costs", costs, "--quiet") == 0
        payload = json.loads(report.read_text())
        assert payload["normed_costs"]["ours"] == pytest.approx(0.08)

    def test_run_subcommand(self, tmp_path, demo_file):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"corpus": str(demo_file), "out_dir": str(tmp_path / "clirun"), "engine": "lp"})
        )
        assert self.run("run", "--config", config, "--quiet") == 0
        assert (tmp_path / "clirun" / "report.json").exists()

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
    emb, graph = cli_dir / "embeddings.bin", cli_dir / "graph.json"
    cli("split", "--in", corpus, "--out", split)
    cli("extract", "--in", split, "--out", views)
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
    cli("train", *inputs, "--log", cli_dir / "training_log.json", "--out", model)
    cli("predict", "--model", model, *inputs, "--out", cli_dir / "predictions_gnn.jsonl")

    written = sorted(p.name for p in cli_dir.iterdir())
    assert {"graph.json", "model.ckpt", "predictions_gnn.jsonl"} <= set(written)
    for name in written:
        assert (cli_dir / name).read_bytes() == (run_dir / name).read_bytes(), name

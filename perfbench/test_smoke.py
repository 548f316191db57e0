"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_viewgraph()

from tracing import TARGETS, Target, Tracer  # noqa: E402
from viewgraph import pipeline  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 16  # ideas


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    tiny = {name: dataclasses.replace(spec, ideas=TINY) for name, spec in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", tiny)


def run_cli(capsys, workload: str, trace: int) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_every_metric_prints_with_its_unit(capsys):
    for workload in run.WORKLOADS:
        lines, result = run_cli(capsys, workload, 0)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]
        }
        printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) > 2}
        for name, unit in [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] + [
            ("lp_macro_f1", "ratio"),
            ("gnn_macro_f1", "ratio"),
            ("failed_ops", "ratio"),
        ]:
            assert printed.get(name) == unit, (workload, name)


def test_traced_runs_span_every_listed_function(capsys):
    seen = set()
    for workload in run.WORKLOADS:
        out = run.run(workload, seed=3, seconds=0.1, trace=True)
        assert out["tracer"].missing == []
        assert out["result"]["correct"]
        assert set(out["result"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        seen |= {span[3] for span in out["tracer"].spans}
    assert seen == {t.key for t in TARGETS}
    # tracing is removed again after the run
    assert not hasattr(pipeline.run_pipeline, "__wrapped__")


def test_missing_traced_function_is_reported(capsys):
    tracer = Tracer(TARGETS + (Target("graph", "no_such_function"), Target("no_such_module", "run")))
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["graph.no_such_function", "no_such_module.run"]
    err = capsys.readouterr().err
    assert "graph.no_such_function" in err and "no_such_module.run" in err


def _garbage(path: Path) -> None:
    path.write_text("{not json\n", encoding="utf-8")


def _flip_first_label(path: Path) -> None:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    labels = json.loads((path.parent / "split.jsonl").read_text(encoding="utf-8").splitlines()[0])["labels"]
    rows[0]["label"] = next(l for l in labels if l != rows[0]["label"])
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


@pytest.mark.parametrize("corrupt", [_garbage, _flip_first_label])
def test_corrupted_prediction_file_counts_as_failed_op(capsys, monkeypatch, corrupt):
    real = pipeline.run_pipeline
    calls = []

    def corrupting(config, force=False, quiet=False):
        manifest = real(config, force=force, quiet=quiet)
        calls.append(config)
        if len(calls) == 2:  # the second timed operation; set-ups run in forked children
            corrupt(Path(config.out_dir) / "predictions_lp.jsonl")
        return manifest

    monkeypatch.setattr(pipeline, "run_pipeline", corrupting)
    lines, result = run_cli(capsys, "lp-cold", 0)
    assert result["failed"] == 1 and result["correct"] is False
    assert result["attempted"] >= run.MIN_OPS
    assert any(line.startswith("error: op 2:") for line in lines)


def test_scaled_times_follow_the_calibrations_around_them():
    ref = run.REFERENCE_CAL_S
    # a step between two reference-speed calibrations keeps its wall time;
    # one between calibrations twice as slow is halved
    assert run.scaled([1.0, 1.0], [ref, ref, 3 * ref]) == pytest.approx([1.0, 0.5])
    assert run.calibrate() > 0

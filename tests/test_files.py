"""Every file a subcommand reads, damaged in each common way: the command
either succeeds or ends in one ``error:`` line naming the file."""

from __future__ import annotations

import json
import re

import pytest

from viewgraph.cli import main as cli_main
from viewgraph.dataset import save_corpus
from viewgraph.fixtures import demo_corpus
from viewgraph.pipeline import run_pipeline, validate_config

# file -> the command that reads it, with PATH for the damaged copy, RUN for
# an intact run directory and OUT for a scratch directory
READERS = {
    "config": "run --config PATH",
    "corpus": "split --in PATH --out OUT/split.jsonl",
    "split": "extract --in PATH --out OUT/viewpoints.jsonl",
    "viewpoints": "embed --in PATH --out OUT/embeddings.bin",
    "embeddings": "build --viewpoints RUN/viewpoints.jsonl --embeddings PATH --out OUT/graph.bin",
    "graph": "lp --graph PATH --corpus RUN/split.jsonl --out OUT/lp.jsonl",
    "negatives": "train --graph RUN/graph.bin --corpus RUN/split.jsonl --embeddings RUN/embeddings.bin"
    " --negatives PATH --epochs 2 --hidden 8 --out OUT/model.ckpt --gnn-pred OUT/gnn.jsonl",
    "predictions": "eval --corpus RUN/split.jsonl --lp-pred PATH --out OUT/report.json",
    "costs": "eval --corpus RUN/split.jsonl --lp-pred RUN/predictions_lp.jsonl --costs PATH --out OUT/report.json",
}
INTACT = {
    "corpus": "corpus.jsonl",
    "split": "split.jsonl",
    "viewpoints": "viewpoints.jsonl",
    "embeddings": "embeddings.bin",
    "graph": "graph.bin",
    "negatives": "negatives.jsonl",
    "predictions": "predictions_lp.jsonl",
}
FIRST_NUMBER = re.compile(rb'(": |\[)-?\d+(?:\.\d+)?')


def with_lines(data: bytes, change) -> bytes:
    lines = data.split(b"\n")
    return b"\n".join(change(lines, [i for i, line in enumerate(lines) if line.strip()]))


MUTATIONS = {
    "missing": None,
    "directory": None,
    "empty": lambda data: b"",
    "half": lambda data: data[: len(data) // 2],
    "seven-bytes": lambda data: data[:7],
    "leading-0xff": lambda data: b"\xff" + data,
    "top-level-list": lambda data: with_lines(
        data, lambda lines, kept: [b"[" + line + b"]" if i in kept else line for i, line in enumerate(lines)]
    ),
    "nan": lambda data: FIRST_NUMBER.sub(lambda m: m.group(1) + b"NaN", data, count=1),
    "400-digit-int": lambda data: FIRST_NUMBER.sub(lambda m: m.group(1) + b"1" + b"0" * 399, data, count=1),
    "duplicated-line": lambda data: with_lines(data, lambda lines, kept: lines[: kept[-1] + 1] + lines[kept[-1]:]),
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """An lp run with negatives on the demo corpus."""
    run = tmp_path_factory.mktemp("intact")
    save_corpus(demo_corpus(), run / "corpus.jsonl")
    data = {"corpus": str(run / "corpus.jsonl"), "out_dir": str(run), "seed": 3, "engine": "lp",
            "novelty": {"enabled": True, "count": 6, "train_subset": 3}}
    run_pipeline(validate_config(data), quiet=True)
    return run


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_damaged_file_fails_naming_it(tmp_path, capsys, run_dir, reader, mutation):
    out, path = tmp_path / "out", tmp_path / f"damaged-{reader}"
    out.mkdir()
    if reader == "config":
        intact = json.dumps({"corpus": str(run_dir / "corpus.jsonl"), "out_dir": str(out), "seed": 3}).encode()
    elif reader == "costs":
        intact = b'{"lp": 1.5, "gnn": 3}'
    else:
        intact = (run_dir / INTACT[reader]).read_bytes()
    if mutation == "directory":
        path.mkdir()
    elif mutation != "missing":
        path.write_bytes(MUTATIONS[mutation](intact))
    command = READERS[reader].replace("PATH", str(path)).replace("RUN", str(run_dir)).replace("OUT", str(out))
    code = cli_main(command.split() + ["--quiet"])
    stderr = capsys.readouterr().err
    if code != 0:
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert code in (1, 2) and len(errors) == 1 and str(path) in errors[0], stderr
        assert "Traceback" not in stderr

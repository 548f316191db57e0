"""Every run file's bytes, pinned: the sha256 of each file a small matrix
of runs writes, checked against ``run_hashes.json``.

The matrix is demo12 and separable40, engine ``both``, novelty on and off,
plain and hybrid graphs, run in one child process with one BLAS thread
(the GNN's float32 files are byte-identical at a fixed thread count
only). ``run_manifest.json`` is left out: it holds timings and paths.
The table records the platform it was written on; on another platform
the test skips and names what differs. A second test runs one case with
one BLAS thread and with two, and checks that the files up to lp's
predictions do not depend on the thread count.

A change that alters a run file's bytes on purpose rewrites the table
with

    PYTHONPATH=src python tests/test_run_hashes.py --write

and names in CHANGES.md the entries it prints: each changed entry's run
and file, with its old and new hash prefixes (``added`` or ``removed``
for an entry only one of the tables has).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

TABLE = Path(__file__).with_name("run_hashes.json")
EPOCHS = 20


def cases() -> dict[str, dict]:
    """Run name -> config, less the corpus and out_dir. A name is the
    corpus, ``novelty`` or ``plain`` (negatives injected or not), and
    ``hybrid`` or ``similarity`` (the graph's edges)."""
    novelty = {"demo12": {"count": 6, "train_subset": 2}, "separable40": {"count": 9, "train_subset": 4}}
    out = {}
    for corpus in ("demo12", "separable40"):
        for negatives in (False, True):
            for hybrid in (False, True):
                name = f"{corpus}-{'novelty' if negatives else 'plain'}-{'hybrid' if hybrid else 'similarity'}"
                out[name] = {
                    "seed": 7,
                    "engine": "both",
                    "llm": {"relations": hybrid},
                    "graph": {"hybrid": hybrid},
                    "gnn": {"max_epochs": EPOCHS, "learning_rate": 0.01},
                    "novelty": {"enabled": negatives, **novelty[corpus]},
                }
    return out


# A separable40 run with negatives and 384-dim stub embeddings, and the
# files it writes whose bytes must not depend on the BLAS thread count: all
# up to lp's predictions. The GNN's float32 files may (``measure``).
THREAD_CASE = {"separable40-novelty-384": {**cases()["separable40-novelty-similarity"], "embedding": {"dimension": 384}}}
THREAD_FREE = ["split.jsonl", "viewpoints.jsonl", "tokens.json", "embeddings.bin", "graph.bin", "graph.json",
               "negatives.jsonl", "negatives_holdout.jsonl", "predictions_lp.jsonl"]


def platform_block() -> dict:
    """Python, numpy and the BLAS numpy was built with, as the benchmark's
    provenance reads them, and the machine."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its build config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "machine": platform.machine(),
    }


def run_matrix(root: Path, runs: dict[str, dict]) -> dict[str, dict[str, str]]:
    """Run every case of ``runs`` (as ``cases``) under ``root``: run name
    -> file name -> sha256."""
    from viewgraph.dataset import save_corpus
    from viewgraph.fixtures import demo_corpus, separable_corpus
    from viewgraph.pipeline import run_pipeline, validate_config

    corpora = {"demo12": demo_corpus, "separable40": separable_corpus}
    for name, make in corpora.items():
        save_corpus(make(), root / f"{name}.jsonl")
    hashes = {}
    for name, settings in runs.items():
        out = root / name
        corpus = root / f"{name.split('-')[0]}.jsonl"
        run_pipeline(validate_config({"corpus": str(corpus), "out_dir": str(out), **settings}), quiet=True)
        hashes[name] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in sorted(out.iterdir()) if path.name != "run_manifest.json"}
    return hashes


def measure(threads: str = "1", *flags: str) -> dict:
    """The platform and the run hashes, from a child process with
    ``threads`` BLAS threads: of ``cases``, or with ``--threads`` of
    ``THREAD_CASE``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, __file__, *flags], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def changes(old: dict, new: dict) -> list[tuple[str, str, str | None, str | None]]:
    """The (run, file, old hash, new hash) of each entry that differs
    between two tables' runs, sorted; a hash is None where its table has
    no such entry."""
    return [(run, name, old.get(run, {}).get(name), new.get(run, {}).get(name))
            for run in sorted(old.keys() | new.keys())
            for name in sorted(old.get(run, {}).keys() | new.get(run, {}).keys())
            if old.get(run, {}).get(name) != new.get(run, {}).get(name)]


def test_run_files_match_the_table():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    got = measure()
    differs = [f"{key} {table['platform'].get(key)!r} here {value!r}"
               for key, value in got["platform"].items() if table["platform"].get(key) != value]
    if differs:
        pytest.skip(f"{TABLE.name} was written on another platform: " + "; ".join(differs))
    changed = [f"{run}/{name}" for run, name, _, _ in changes(table["runs"], got["runs"])]
    assert not changed, f"run files whose bytes differ from {TABLE.name}: {changed}"


def test_files_up_to_lp_do_not_depend_on_the_blas_thread_count():
    """One BLAS thread or two: the split, extraction, embeddings, graph,
    negatives and lp predictions are byte-identical. Nothing is asserted
    of the GNN's files."""
    one, two = (measure(threads, "--threads")["runs"]["separable40-novelty-384"] for threads in ("1", "2"))
    differs = [name for name in THREAD_FREE if one[name] != two[name]]
    assert not differs, f"run files whose bytes depend on the BLAS thread count: {differs}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        old = json.loads(TABLE.read_text(encoding="utf-8"))["runs"] if TABLE.exists() else {}
        got = measure()
        for run, name, before, after in changes(old, got["runs"]):
            print(f"{run}/{name}: {(before or 'added')[:12]} -> {(after or 'removed')[:12]}")
        TABLE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {TABLE}")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            runs = THREAD_CASE if sys.argv[1:] == ["--threads"] else cases()
            print(json.dumps({"platform": platform_block(), "runs": run_matrix(Path(tmp), runs)}))

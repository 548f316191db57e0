"""End-to-end benchmark of the offline viewgraph pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload lp-cold --seed 1 --seconds 30 --trace 0
    python3 -m pytest -q perfbench      # smoke test at tiny sizes

One operation is one call of ``pipeline.run_pipeline`` on a seeded
synthetic corpus (mock LLM, stub embeddings), timed with tracing off.
Every operation's outputs are checked; an operation fails if it raises or
if a check fails. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 1`` operations alternate
between untraced and traced, the metrics are the per-layer numbers from
the traced ones, and the spans are written under ``perfbench/_out``.

Scaled seconds: on a small shared host the processor's speed drifts by up
to 1.6x within seconds, with no steal time recorded and CPU time tracking
wall time. So every timed step sits between two runs of a fixed
calibration kernel (``calibrate``, which runs no viewgraph code), and its
wall seconds are multiplied by REFERENCE_CAL_S over the mean of those two
calibrations: the end-to-end timings read as seconds at the reference
host's usual speed. The raw wall-clock median (``op_wall_s.p50``) and the
host speed (REFERENCE_CAL_S / calibration seconds) are printed beside
them. Per-layer self times are wall seconds.

End-to-end metrics: ``op_s.p50`` (median scaled seconds of one operation),
``op_s.tail`` (the 11th slowest operation: the highest rank with ten
samples beyond it; its percentile is printed), ``ideas_per_s`` (corpus
size / ``op_s.p50``), ``peak_rss_mb`` (ru_maxrss of this process) and
``setup_s`` (median scaled seconds of SETUP_REPEATS set-ups, each
generating the corpus and making one cold run). Set-ups and output checks
run in forked children, so ``peak_rss_mb`` is the peak of the timed
operations alone and ``setup_s`` leaves out the checks of the set-up run.
The macro-F1 of the set-up run (``lp_macro_f1``, ``gnn_macro_f1``; nan
for the engine that does not run) and ``failed_ops`` are printed too,
but stay out of the JSON metrics: the F1 of a tiny test split moves with
the seed far more than any timing bound, and ``failed_ops`` is already
the JSON's ``failed`` / ``attempted``.

Workloads (sizes are chosen so that one run of ``--seconds`` yields a
few dozen operations on a 2-core machine):

* ``lp-cold``: forced cold ``run`` with engine lp. The graph build
  dominates; gnn and novelty code never runs.
* ``gnn-novelty``: forced cold ``run`` with engine gnn and plagiarism
  negatives. GNN epochs and negative injection dominate.
* ``lp-rescore``: warm run directory on the lp-cold corpus; each operation
  reruns ``run`` with only the lp settings changed, so split, extract,
  embed and build are skipped by hash and lp reads the graph back.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"
SETUP_REPEATS = 5
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
VIEWPOINTS = 6  # per idea
POOL_SHARE = 0.5  # of each idea's viewpoints drawn from its label's shared pool
RESCORE_ITERS = (3, 5, 7)  # odd count: the median falls inside one setting's cluster
CALIBRATION_REPEATS = 10  # runs of the calibration kernel timed as one calibration
# Median seconds of one calibration on the reference host (2-vCPU x86-64,
# Python 3.11, numpy with OpenBLAS on one thread).
REFERENCE_CAL_S = 0.054


@dataclass(frozen=True)
class Workload:
    ideas: int
    config: dict
    rescore: bool = False

    @property
    def engine(self) -> str:
        return self.config["engine"]


WORKLOADS = {
    "lp-cold": Workload(ideas=100, config={"engine": "lp"}),
    "gnn-novelty": Workload(
        ideas=40,
        config={
            "engine": "gnn",
            "gnn": {"hidden_dim": 64, "max_epochs": 4, "learning_rate": 0.01},
            "novelty": {"enabled": True, "count": 40, "train_subset": 20},
        },
    ),
    "lp-rescore": Workload(ideas=100, config={"engine": "lp"}, rescore=True),
}

PER_LAYER_TIMES = (
    "graph.build_graph",
    "graph.load_graph",
    "graph.integrate_subgraph",
    "novelty.generate_negatives",
    "novelty.inject_negatives",
    "label_prop.normalize_weights",
    "label_prop.propagate",
    "gnn.train",
    "gnn.full_forward",
    "gnn.batch_loss_and_grads",
    "gnn.adam_step",
    "gnn.predict",
    "llm.extract_corpus",
    "embedding.embed",
    "embedding.save_embeddings",
    "embedding.load_embeddings",
    "pipeline.file_hash",
    "dataset.load_corpus",
    "metrics.macro_metrics",
)
PER_LAYER_CALLS = {
    "graph.similarities.calls": "graph.EmbeddingMatrix.similarities",
    "graph.ViewpointGraph.constructions": "graph.ViewpointGraph.__init__",
    "graph.integrate_subgraph.calls": "graph.integrate_subgraph",
    "novelty.inject_negatives.calls": "novelty.inject_negatives",
    "gnn.full_forward.calls": "gnn.full_forward",
    "gnn.pool_and_head.calls": "gnn.pool_and_head",
    "llm.complete.calls": "llm.LlmBackend.complete",
    "dataset.load_corpus.calls": "dataset.load_corpus",
}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_viewgraph():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "viewgraph" / "__init__.py").is_file():
        fail(f"no viewgraph sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import viewgraph

    if Path(viewgraph.__file__).resolve().parent != (src / "viewgraph").resolve():
        fail(f"imported viewgraph from {viewgraph.__file__}, not from {src}")
    sys.path.insert(0, str(ROOT / "perfbench"))


def in_child(fn):
    """Return ``fn()`` computed in a forked child, so the memory it touches
    stays out of this process's peak RSS. Raises RuntimeError if the child
    raised or died."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = (True, fn())
            except BaseException as exc:
                payload = (False, f"{type(exc).__name__}: {exc}")
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        done, value = pickle.loads(data)
    except Exception:
        raise RuntimeError(f"child process ended with status {status} and no result") from None
    if not done:
        raise RuntimeError(value)
    return value


def _calibration_work(matrix) -> float:
    """A fixed mix like the pipeline's: interpreter loops over dicts and
    strings, and numpy calls on small arrays."""
    counts: dict[int, int] = {}
    for i in range(20000):
        key = i % 61
        counts[key] = counts.get(key, 0) + i
    text = ",".join(f"{v}:{k}" for v, k in sorted((v, k) for k, v in counts.items()))
    row = matrix[0].copy()
    for j in range(1400):
        row += 0.01 * matrix[j % len(matrix)]
    for _ in range(70):
        row = matrix @ row
        row /= row.sum()
    return len(text) + float(row[0])


def calibrate() -> float:
    """Seconds of one calibration: CALIBRATION_REPEATS runs of
    ``_calibration_work``, timed together. No viewgraph code runs in it."""
    import numpy as np

    matrix = np.random.default_rng(0).random((48, 48))
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        _calibration_work(matrix)
    return time.perf_counter() - start


def scaled(seconds: list[float], calibrations: list[float]) -> list[float]:
    """Each time in seconds at the reference host speed; ``calibrations``
    has one more entry than ``seconds``, taken before and after each."""
    return [
        t * REFERENCE_CAL_S * 2 / (before + after)
        for t, before, after in zip(seconds, calibrations, calibrations[1:])
    ]


def percentile_tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with ten samples beyond it;
    the maximum (p100) when there are fewer than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < MIN_OPS:
        return ordered[-1], 100.0
    return ordered[n - MIN_OPS], 100.0 * (n - 10) / n


def provenance(workload: str, seed: int, seconds: float, trace: bool, sizes: dict) -> dict:
    import numpy as np

    revision = "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            revision = out[1]
    except (OSError, subprocess.SubprocessError):
        revision = "unknown (git unavailable)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "viewgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
    }


class Bench:
    """One workload in one process: set-up, timed operations, checks."""

    def __init__(self, name: str, seed: int):
        from viewgraph import pipeline

        self.pipeline = pipeline
        self.name = name
        self.seed = seed
        self.spec = WORKLOADS[name]
        self.ideas = self.spec.ideas
        self.work = OUT / f"{name}-s{seed}"
        self.references: dict[tuple, tuple[str, str]] = {}  # lp settings -> output digests
        self.errors: list[str] = []
        self.op_index = 0
        self.sizes: dict = {}
        self.macro_f1 = None  # of the set-up run, default lp settings

    # -- inputs --------------------------------------------------------------
    def config(self, run_dir: Path, lp: dict | None = None):
        cfg = copy.deepcopy(self.spec.config)
        cfg.update(corpus=str(self.work / "corpus.jsonl"), out_dir=str(run_dir), seed=self.seed)
        if lp is not None:
            cfg["lp"] = lp
        return self.pipeline.validate_config(cfg)

    def setup_once(self, run_dir: Path) -> dict:
        """Generate and save the corpus, then one cold run to warm up (for
        lp-rescore this is the build the later operations reuse). Only
        these two steps are timed, between two calibrations, and the time
        is scaled; the outputs are checked afterwards."""
        from corpus import make_corpus
        from viewgraph.dataset import save_corpus

        shutil.rmtree(run_dir, ignore_errors=True)
        gc.collect()
        calibrations = [calibrate()]
        start = time.perf_counter()
        corpus, duplicate_share = make_corpus(self.ideas, VIEWPOINTS, POOL_SHARE, seed=self.seed)
        save_corpus(corpus, self.work / "corpus.jsonl")
        self.pipeline.run_pipeline(self.config(run_dir), force=True, quiet=True)
        seconds = time.perf_counter() - start
        calibrations.append(calibrate())
        errors, digests = check_outputs(run_dir, self.spec.engine, self.lp_settings(None))
        graph = json.loads((run_dir / "graph.json").read_text(encoding="utf-8"))
        kinds = [e[3] for e in graph["edges"]]
        sizes = {
            "ideas": self.ideas,
            "viewpoints_per_idea": VIEWPOINTS,
            "pool_share": POOL_SHARE,
            "duplicate_share": round(duplicate_share, 4),
            "nodes": len(graph["nodes"]),
            "edges.intra": kinds.count("intra"),
            "edges.inter": kinds.count("inter"),
        }
        return {
            "seconds": scaled([seconds], calibrations)[0],
            "errors": errors,
            "digests": digests,
            "sizes": sizes,
        }

    def setup(self) -> list[float]:
        """SETUP_REPEATS set-ups, each in a forked child; returns their
        scaled times."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        run_dir = self.work / "run"
        times = []
        for _ in range(SETUP_REPEATS):
            out = in_child(lambda: self.setup_once(run_dir))
            errors = out["errors"] + self.compare(self.lp_settings(None), out["digests"])
            if errors:
                raise RuntimeError(f"set-up outputs fail their checks: {errors[0]}")
            times.append(out["seconds"])
            self.sizes = out["sizes"]
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        self.macro_f1 = report[self.spec.engine]["macro_f1"]
        return times

    # -- one operation -------------------------------------------------------
    def lp_settings(self, index: int | None) -> dict:
        if index is None or not self.spec.rescore:
            return {"max_iters": 5, "early_stop": True}
        return {"max_iters": RESCORE_ITERS[index % len(RESCORE_ITERS)], "early_stop": False}

    def operation(self) -> tuple[float, list[str]]:
        """Run one operation; returns (seconds, errors)."""
        lp = self.lp_settings(self.op_index)
        self.op_index += 1
        run_dir = self.work / "run"
        cfg = self.config(run_dir, lp if self.spec.rescore else None)
        gc.collect()
        start = time.perf_counter()
        try:
            manifest = self.pipeline.run_pipeline(cfg, force=not self.spec.rescore, quiet=True)
        except Exception as exc:  # a failed operation is counted, not fatal
            return time.perf_counter() - start, [f"run raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
        errors = []
        if self.spec.rescore:
            ran = [s["name"] for s in manifest["stages"] if not s.get("skipped")]
            if ran[:1] != ["lp"]:
                errors.append(f"warm rescore reran stages {ran}, expected lp onwards only")
        try:
            found, digests = in_child(lambda: check_outputs(run_dir, self.spec.engine, lp))
        except RuntimeError as exc:
            return seconds, errors + [f"checking outputs failed: {exc}"]
        return seconds, errors + found + self.compare(lp, digests)

    def compare(self, lp: dict, digests: tuple[str, str] | None) -> list[str]:
        """Outputs must be byte-identical to the first run with the same settings."""
        if digests is None:
            return []
        reference = self.references.setdefault(tuple(sorted(lp.items())), digests)
        errors = []
        if digests[0] != reference[0]:
            errors.append("report.json differs from an earlier operation with the same settings")
        if digests[1] != reference[1]:
            errors.append("predictions differ from an earlier operation with the same settings")
        return errors


def check_outputs(run_dir: Path, engine: str, lp: dict) -> tuple[list[str], tuple[str, str] | None]:
    """(errors, sha256 of report.json and of the predictions) of one run;
    digests are None when the outputs cannot be read."""
    import checks

    try:
        errors = checks.check_lp(run_dir, **lp) if engine == "lp" else checks.check_gnn(run_dir)
        errors += checks.check_report(run_dir, engine)
        digests = (
            hashlib.sha256((run_dir / "report.json").read_bytes()).hexdigest(),
            hashlib.sha256((run_dir / f"predictions_{engine}.jsonl").read_bytes()).hexdigest(),
        )
    except Exception as exc:  # unreadable or malformed outputs are a failed check
        return [f"checking outputs raised {type(exc).__name__}: {exc}"], None
    return errors, digests


@dataclass
class Measured:
    """Times of one run's operations, in the order they ran."""

    wall: list[float]  # seconds of every operation
    calibrations: list[float]  # one before the first operation and one after each
    traced: list[bool]
    passed: list[bool]
    failed: int

    def times(self, traced: bool = False, scale: bool = True) -> list[float]:
        """Seconds of the operations that passed, untraced or traced; scaled
        to the reference host speed unless ``scale`` is false."""
        times = scaled(self.wall, self.calibrations) if scale else self.wall
        return [t for t, tr, ok in zip(times, self.traced, self.passed) if ok and tr == traced]


def measure(bench: Bench, seconds: float, tracer=None) -> Measured:
    """Timed operations until ``seconds`` have passed and at least MIN_OPS
    were attempted, each followed by a calibration. With a tracer, blocks
    of len(RESCORE_ITERS) operations alternate between untraced and traced,
    so both sides see every lp setting equally often."""
    out = Measured([], [calibrate()], [], [], 0)
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and (len(out.wall) // len(RESCORE_ITERS)) % 2 == 1
        if use_trace:
            tracer.install()
        try:
            op_s, errors = bench.operation()
        finally:
            if use_trace:
                tracer.uninstall()
                tracer.ops += 1
        out.calibrations.append(calibrate())
        out.wall.append(op_s)
        out.traced.append(use_trace)
        out.passed.append(not errors)
        if errors:
            out.failed += 1
            bench.errors.append(f"op {len(out.wall)}: " + "; ".join(errors[:3]))
        if len(out.wall) >= MIN_OPS and time.perf_counter() - start >= seconds:
            return out


def per_layer(tracer, traced_ops: list[float], plain_ops: list[float], bench: Bench) -> dict:
    totals = tracer.totals()
    n = max(tracer.ops, 1)
    counts = tracer.counts
    metrics = {}
    for key in PER_LAYER_TIMES:
        metrics[f"{key}.self_s"] = (totals[key]["self_s"] / n, "s")
    for name, key in PER_LAYER_CALLS.items():
        metrics[name] = (totals[key]["calls"] / n, "count")
    epochs = counts["gnn.epochs"]
    metrics["gnn.epoch_s"] = (totals["gnn.train"]["total_s"] / epochs if epochs else 0.0, "s")
    metrics["gnn.edge_tensor_bytes"] = (counts["gnn.edge_tensor_bytes"], "bytes")
    metrics["llm.tokens"] = (counts["llm.tokens"] / n, "count")
    generated = counts["novelty.generated"]
    metrics["novelty.fallback_share"] = (counts["novelty.fallbacks"] / generated if generated else 0.0, "ratio")
    predicted = counts["label_prop.predicted"]
    metrics["label_prop.unreached_share"] = (counts["label_prop.unreached"] / predicted if predicted else 0.0, "ratio")
    stages = counts["pipeline.stages"]
    metrics["pipeline.skipped_share"] = (counts["pipeline.skipped"] / stages if stages else 0.0, "ratio")
    for key in ("nodes", "edges.intra", "edges.inter"):
        metrics[f"graph.{key}"] = (bench.sizes[key], "count")
    f1 = bench.macro_f1
    metrics["metrics.lp_macro_f1"] = (f1 if bench.spec.engine == "lp" else 0.0, "ratio")
    metrics["metrics.gnn_macro_f1"] = (f1 if bench.spec.engine == "gnn" else 0.0, "ratio")
    overhead = statistics.median(traced_ops) - statistics.median(plain_ops) if traced_ops and plain_ops else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def layer_table(tracer, traced_ops: list[float]) -> list[str]:
    n = max(tracer.ops, 1)
    op_s = statistics.median(traced_ops) if traced_ops else 0.0
    lines = [f"{'span':40s} {'calls/op':>10s} {'self s/op':>10s} {'self share':>10s}"]
    rows = sorted(tracer.totals().items(), key=lambda kv: -kv[1]["self_s"])
    for key, row in rows:
        self_s = row["self_s"] / n
        share = self_s / op_s if op_s else 0.0
        lines.append(f"{key:40s} {row['calls'] / n:10.1f} {self_s:10.4f} {share:10.1%}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload, seed)
    setup_times = bench.setup()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    measured = measure(bench, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = len(measured.wall), measured.failed
    prov = provenance(workload, seed, seconds, trace, bench.sizes)

    lines = [f"perfbench {workload} seed={seed} trace={int(trace)}", "provenance: " + json.dumps(prov)]
    lines.append("inputs: " + " ".join(f"{k}={v}" for k, v in bench.sizes.items()))
    plain = measured.times()
    # with no passing operation the result is not correct anyway
    ok = plain or scaled(measured.wall, measured.calibrations)
    p50 = statistics.median(ok)
    tail, tail_pct = percentile_tail(ok)
    speeds = [REFERENCE_CAL_S / c for c in measured.calibrations]
    f1 = {"lp": float("nan"), "gnn": float("nan"), bench.spec.engine: bench.macro_f1}
    human = [
        ("op_s.p50", p50, "s", f"median of {len(plain)} untraced operations, scaled"),
        ("op_s.tail", tail, "s", f"p{tail_pct:.1f}, n={len(plain)}, 10 beyond, scaled"),
        ("ideas_per_s", bench.ideas / p50, "ideas/s", f"{bench.ideas} ideas / op_s.p50"),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of this process, set-ups and checks excluded"),
        ("setup_s", statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups, scaled"),
        ("lp_macro_f1", f1["lp"], "ratio", "report.json, deterministic for a seed; nan if not run"),
        ("gnn_macro_f1", f1["gnn"], "ratio", "report.json, deterministic for a seed; nan if not run"),
        ("failed_ops", failed / attempted, "ratio", f"{failed} failed of {attempted} attempted"),
        ("op_wall_s.p50", statistics.median(measured.times(scale=False) or measured.wall), "s",
         "median wall-clock seconds, not scaled"),
        ("host_speed", statistics.median(speeds), "x",
         f"REFERENCE_CAL_S / calibration seconds, median (range {min(speeds):.3f}-{max(speeds):.3f})"),
    ]
    for name, value, unit, note in human:
        lines.append(f"{name:14s} {value:12.6g} {unit:8s} {note}")
    lines.append("op_s samples: " + " ".join(f"{t:.6f}" for t in plain))
    lines += [f"error: {e}" for e in bench.errors[:5]]

    if tracer is not None:
        metrics = per_layer(tracer, measured.times(traced=True), plain, bench)
        lines += layer_table(tracer, measured.times(traced=True, scale=False))
        lines.append(f"trace overhead: {metrics['trace.overhead_s'][0]:+.4f} s per operation (traced p50 - untraced p50)")
        spans_path = bench.work / "spans.jsonl"
        tracer.write_spans(spans_path)
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        if tracer.missing:
            lines.append("missing traced functions: " + ", ".join(tracer.missing))
    else:
        metrics = {name: (value, unit) for name, value, unit, _ in human[:5]}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"lines": lines, "result": result, "tracer": tracer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_viewgraph()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    # single-threaded BLAS: steadier timings on a small shared machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())

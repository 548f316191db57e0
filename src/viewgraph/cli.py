"""Command line entry point.

Subcommands mirror the pipeline stages (split, extract, embed, build, lp,
train, predict, gen-negatives, eval) plus ``run`` for the whole pipeline
driven by one config file. Remote backends read the API key from the
VIEWGRAPH_API_KEY environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from . import pipeline
from .dataset import load_corpus
from .metrics import format_table, normed_cost
from .pipeline import ConfigError, RunConfig, StageError, evaluate_predictions, run_pipeline, validate_config


def _load_config(args) -> RunConfig:
    config = validate_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    return config


# Every flag name means the same thing in each subcommand that has it.
# Value flags override one key of the --config file:
SETTINGS = {
    "fractions": "split.fractions",
    "backend": "llm.backend",
    "relations": "llm.relations",
    "provider": "embedding.provider",
    "dim": "embedding.dimension",
    "k": "graph.k",
    "m": "graph.m",
    "weight_floor": "graph.weight_floor",
    "hybrid": "graph.hybrid",
    "max_iters": "lp.max_iters",
    "early_stop": "lp.early_stop",
    "hidden": "gnn.hidden_dim",
    "epochs": "gnn.max_epochs",
    "batch_size": "gnn.batch_size",
    "lr": "gnn.learning_rate",
    "count": "novelty.count",
    "train_subset": "novelty.train_subset",
    "threshold": "novelty.threshold",
    "swap_fraction": "novelty.swap_fraction",
}
# Path flags name a file of the stage (keys as in pipeline.FILES); --in
# and --out differ per stage and are given to stage_command.
PATH_FLAGS = {
    "corpus": "split",
    "viewpoints": "viewpoints",
    "embeddings": "embeddings",
    "graph": "graph",
    "negatives": "negatives",
    "holdout_out": "negatives_holdout",
    "model": "model",
    "log": "train_log",
}


def stage_command(run, out: str, infile: str = "", options: tuple[str, ...] = ()):
    """Subcommand body for one pipeline stage: the path flags fill the
    stage's paths, the value flags that were given override their
    ``--config`` keys and are validated with them, and the function
    ``viewgraph run`` uses for the stage runs, with ``options`` passed
    through as keyword arguments."""

    def command(args):
        config = asdict(_load_config(args))
        flags = vars(args)
        for flag, key in SETTINGS.items():
            if flags.get(flag) is not None:
                section, name = key.split(".")
                config[section][name] = flags[flag]
        config = validate_config(config)  # flags meet the config file's checks
        path_flags = {**PATH_FLAGS, "infile": infile, "out": out}
        paths = {key: Path(flags[flag]) for flag, key in path_flags.items() if flags.get(flag)}
        summary = run(paths, config, **{name: flags[name] for name in options})
        if not args.quiet:
            print(json.dumps(summary))

    return command


def _fractions(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def cmd_eval(args):
    corpus = load_corpus(args.corpus)
    report = evaluate_predictions(args.pred, corpus)
    payload = report.to_dict()
    if args.costs:
        costs = json.loads(Path(args.costs).read_text(encoding="utf-8"))
        payload["normed_costs"] = normed_cost(costs)
    Path(args.out).write_text(json.dumps(payload), encoding="utf-8")
    if not args.quiet:
        print(format_table({"predictions": report}))


def cmd_run(args):
    config = _load_config(args)
    run_pipeline(config, force=args.force, quiet=args.quiet)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="global random seed")
    common.add_argument("--force", action="store_true", help="ignore cached stage outputs")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(prog="viewgraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"viewgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", parents=[common], help="assign train/validation/test tags")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fractions", type=_fractions, help="train,validation,test (default 0.7,0.1,0.2)")
    p.set_defaults(fn=stage_command(pipeline.run_split, out="split", infile="corpus"))

    p = sub.add_parser("extract", parents=[common], help="extract viewpoints via the LLM backend")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", choices=["mock", "remote"])
    p.add_argument("--relations", action="store_true", default=None, help="also extract viewpoint relations")
    p.set_defaults(fn=stage_command(pipeline.run_extract, out="viewpoints", infile="split"))

    p = sub.add_parser("embed", parents=[common], help="embed viewpoint texts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--provider", choices=["stub", "remote"])
    p.add_argument("--dim", type=int)
    p.set_defaults(fn=stage_command(pipeline.run_embed, out="embeddings", infile="viewpoints"))

    p = sub.add_parser("build", parents=[common], help="build the viewpoint graph")
    p.add_argument("--viewpoints", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--weight-floor", type=float)
    p.add_argument("--hybrid", action="store_true", default=None, help="intra edges from extracted relations")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=stage_command(pipeline.run_build, out="graph"))

    p = sub.add_parser("lp", parents=[common], help="label propagation predictions")
    p.add_argument("--graph", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--early-stop", action=argparse.BooleanOptionalAction)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=stage_command(pipeline.run_lp, out="lp_pred", options=("split",)))

    p = sub.add_parser("train", parents=[common], help="train the GNN engine")
    p.add_argument("--graph", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--negatives", default=None)
    p.add_argument("--hidden", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--log", default=None, help="write the per-epoch training log here")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=stage_command(pipeline.run_train, out="model"))

    p = sub.add_parser("predict", parents=[common], help="predict with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--negatives", default=None, help="re-inject training negatives")
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=stage_command(pipeline.run_predict, out="gnn_pred", options=("split",)))

    p = sub.add_parser("gen-negatives", parents=[common], help="construct plagiarized negatives")
    p.add_argument("--corpus", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--count", type=int)
    p.add_argument("--train-subset", type=int)
    p.add_argument("--threshold", type=int)
    p.add_argument("--swap-fraction", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--holdout-out", default=None)
    p.set_defaults(fn=stage_command(pipeline.run_negatives, out="negatives"))

    p = sub.add_parser("eval", parents=[common], help="score predictions against labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--costs", default=None, help="JSON map of method -> avg cost for normed costs")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("run", parents=[common], help="run the whole pipeline from a config file")
    p.set_defaults(fn=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

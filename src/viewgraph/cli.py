"""Command line entry point.

Subcommands mirror the pipeline stages (split, extract, embed, build,
gen-negatives, lp, train, eval) plus ``run`` for the whole pipeline
driven by one config file. Each stage subcommand runs the stage function
``run`` uses, so with the same inputs and ``--config`` it writes the same
bytes. A value flag overrides the config key named by its dest (``--k``
sets ``graph.k``, a field of ``GraphConfig``) and is checked like the
config file. Remote backends read the API key from the VIEWGRAPH_API_KEY
environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from . import pipeline
from .dataset import SPLITS, OutputError, plain, read_json
from .llm import LlmTransportError
from .metrics import MetricReport, format_table
from .pipeline import ConfigError, RunConfig, StageError, run_pipeline, validate_config


def _load_config(args) -> RunConfig:
    """The --config file, or the defaults, with each given value flag
    (``--seed`` and the dotted dests) over its key, checked once."""
    config = validate_config(args.config) if args.config else RunConfig()
    given = {dest: value for dest, value in vars(args).items() if value is not None and (dest == "seed" or "." in dest)}
    if not given:
        return config
    data = plain(config)
    for dest, value in given.items():
        section, _, name = dest.rpartition(".")
        (data[section] if section else data)[name] = value
    return validate_config(data)


# Every flag name means the same thing in each subcommand that has it.
# A value flag's dest is the dotted --config key it overrides.
# Path flags name a file of the stage (keys as in pipeline.FILES, or eval's
# costs); --in and --out differ per stage and are given to stage_command.
PATH_FLAGS = {
    "corpus": "split",
    "viewpoints": "viewpoints",
    "tokens": "tokens",
    "embeddings": "embeddings",
    "graph": "graph",
    "negatives": "negatives",
    "holdout_out": "negatives_holdout",
    "log": "train_log",
    "lp_pred": "lp_pred",
    "gnn_pred": "gnn_pred",
    "costs": "costs",
}


def stage_command(run, out: str, infile: str = "", options: tuple[str, ...] = ()):
    """Subcommand body for one pipeline stage: the path flags fill the
    stage's paths, the value flags that were given override their
    ``--config`` keys and are validated with them, and the function
    ``viewgraph run`` uses for the stage runs, with an empty memo (nothing
    is handed on) and ``options`` passed through as keyword arguments."""

    def command(args):
        config, flags = _load_config(args), vars(args)
        path_flags = {**PATH_FLAGS, "infile": infile, "out": out}
        paths = {key: Path(flags[flag]) for flag, key in path_flags.items() if flags.get(flag)}
        summary = run(paths, config, {}, **{name: flags[name] for name in options})
        if not args.quiet:
            print(json.dumps(summary))

    return command


def _fractions(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def cmd_run(args):
    config = _load_config(args)
    run_pipeline(config, force=args.force, quiet=args.quiet)
    if not args.quiet:
        report = read_json(Path(config.out_dir) / pipeline.FILES["report"], "report file")
        print(format_table({engine: MetricReport(**report[engine]) for engine in ("lp", "gnn") if engine in report}))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="global random seed")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(prog="viewgraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"viewgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", parents=[common], help="assign train/validation/test tags")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fractions", dest="split.fractions", type=_fractions, help="train,validation,test (default 0.7,0.1,0.2)")
    p.set_defaults(fn=stage_command(pipeline.run_split, out="split", infile="corpus"))

    p = sub.add_parser("extract", parents=[common], help="extract viewpoints via the LLM backend")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", dest="llm.backend", choices=["mock", "remote"])
    p.add_argument("--relations", dest="llm.relations", action="store_true", default=None, help="also extract viewpoint relations")
    p.add_argument("--tokens", default=None, help="also write each idea's prompt and completion token counts here")
    p.set_defaults(fn=stage_command(pipeline.run_extract, out="viewpoints", infile="split"))

    p = sub.add_parser("embed", parents=[common], help="embed viewpoint texts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--provider", dest="embedding.provider", choices=["stub", "remote"])
    p.add_argument("--dim", dest="embedding.dimension", type=int)
    p.set_defaults(fn=stage_command(pipeline.run_embed, out="embeddings", infile="viewpoints"))

    p = sub.add_parser("build", parents=[common], help="build the viewpoint graph")
    p.add_argument("--viewpoints", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", dest="graph.k", type=int)
    p.add_argument("--m", dest="graph.m", type=int)
    p.add_argument("--weight-floor", dest="graph.weight_floor", type=float)
    p.add_argument("--hybrid", dest="graph.hybrid", action="store_true", default=None, help="intra edges from extracted relations")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=stage_command(pipeline.run_build, out="graph"))

    p = sub.add_parser("lp", parents=[common], help="label propagation predictions")
    p.add_argument("--graph", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--max-iters", dest="lp.max_iters", type=int)
    p.add_argument("--early-stop", dest="lp.early_stop", action=argparse.BooleanOptionalAction)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=stage_command(pipeline.run_lp, out="lp_pred", options=("split",)))

    p = sub.add_parser("train", parents=[common], help="train the GNN engine and predict with it")
    p.add_argument("--graph", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--negatives", default=None, help="inject these training negatives")
    p.add_argument("--hidden", dest="gnn.hidden_dim", type=int)
    p.add_argument("--epochs", dest="gnn.max_epochs", type=int)
    p.add_argument("--batch-size", dest="gnn.batch_size", type=int)
    p.add_argument("--lr", dest="gnn.learning_rate", type=float)
    p.add_argument("--log", default=None, help="write the per-epoch training log here")
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--out", required=True, help="model checkpoint")
    p.add_argument("--gnn-pred", required=True, help="predictions for the --split ideas")
    p.set_defaults(fn=stage_command(pipeline.run_train, out="model", options=("split",)))

    p = sub.add_parser("gen-negatives", parents=[common], help="construct plagiarized negatives")
    p.add_argument("--corpus", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--count", dest="novelty.count", type=int)
    p.add_argument("--train-subset", dest="novelty.train_subset", type=int)
    p.add_argument("--threshold", dest="novelty.threshold", type=int)
    p.add_argument("--swap-fraction", dest="novelty.swap_fraction", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--holdout-out", default=None)
    p.set_defaults(fn=stage_command(pipeline.run_negatives, out="negatives"))

    p = sub.add_parser("eval", parents=[common], help="score predictions against labels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lp-pred", default=None, help="label propagation predictions")
    p.add_argument("--gnn-pred", default=None, help="GNN predictions")
    p.add_argument("--tokens", default=None, help="report the average tokens and cost of the extraction that wrote this")
    p.add_argument("--costs", default=None, help="JSON map of method -> avg cost for normed costs")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=stage_command(pipeline.run_eval, out="report"))

    p = sub.add_parser("run", parents=[common], help="run the whole pipeline from a config file")
    p.add_argument("--force", action="store_true", help="ignore cached stage outputs")
    p.set_defaults(fn=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except (StageError, LlmTransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, FileNotFoundError, KeyError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

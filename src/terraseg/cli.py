"""Command line entry point.

    terraseg ingest   --config cfg.yaml
    terraseg split    --config cfg.yaml [--seed N]
    terraseg train    --config cfg.yaml [--seed N] [--out DIR] [--checkpoint P]
    terraseg evaluate --config cfg.yaml [--out DIR] [--checkpoint P]
    terraseg predict  --config cfg.yaml [--out DIR] [--checkpoint P]
    terraseg query    --config cfg.yaml [--out DIR]

Exit codes: 0 success, 2 configuration error, 3 data error, 4 anything else.
Set TERRASEG_LOG=info (or debug, with tracebacks) for logging on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from . import pipeline
from .config import PipelineConfig, parse_config
from .errors import ConfigError, TerrasegError, exit_code_for, read_input, write_output

log = logging.getLogger("terraseg")


def _setup_logging() -> None:
    name = os.environ.get("TERRASEG_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terraseg",
        description="desk-scale segmentation pipeline over a chunked raster store")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("ingest", "rasterize labels and tile imagery into the store"),
        ("split", "assign stratified cross-validation folds"),
        ("train", "train the configured topology"),
        ("evaluate", "score a checkpoint on held-out tiles"),
        ("predict", "write argmax class masks for one week"),
        ("query", "print the catalog search URL"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="YAML pipeline config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name in ("train", "evaluate", "predict", "query"):  # query.txt only given --out
            p.add_argument("--out", default=None if name == "query" else ".",
                           help="directory for relative output paths")
        if name in ("train", "evaluate", "predict"):
            p.add_argument("--checkpoint", default=None,
                           help="override the checkpoint path")
    return parser


def _load_config(args) -> PipelineConfig:
    raw = read_input(args.config, "config file", ConfigError)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {args.config} is not UTF-8 text "
                          f"(byte {exc.start}: {exc.reason})") from None
    config = parse_config(text)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    ckpt = getattr(args, "checkpoint", None)
    if ckpt is not None:
        section = pipeline._section(config, args.command)
        config = dataclasses.replace(
            config, **{args.command: dataclasses.replace(section, checkpoint=ckpt)})
    return config


def _dispatch(args) -> int:
    config = _load_config(args)
    if args.command == "ingest":
        store = pipeline.cmd_ingest(config)
        for path, kind, shape in store.list_tree(config.base_group or ""):
            print(f"{kind:5s} {path}" + (f" {list(shape)}" if shape else ""))
    elif args.command == "split":
        assignment = pipeline.cmd_split(config)
        print(f"fold sizes: {assignment.sizes()}")
    elif args.command == "train":
        history = pipeline.cmd_train(config, out_dir=args.out)
        print(history.table(), end="")
        if history.stopped_early:
            print("stopped early")
    elif args.command == "evaluate":
        from .metrics import render_report

        values = pipeline.cmd_evaluate(config, out_dir=args.out)
        print(render_report(values), end="")
    elif args.command == "predict":
        base = pipeline.cmd_predict(config, out_dir=args.out)
        print(f"{base}.pgm")
    elif args.command == "query":
        url = pipeline.cmd_query(config)
        out = None if args.out is None else pipeline._output_path("query.txt", args.out, "query")
        print(url)
        if out is not None:
            write_output(out, url + "\n", "query")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except TerrasegError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except Exception as exc:  # a safety net for the CLI
        log.debug("unexpected failure", exc_info=True)
        print(f"error[runtime]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

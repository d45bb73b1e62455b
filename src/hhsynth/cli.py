"""Command line pipeline: simulate | fit | synthesize | evaluate | risk.

Every subcommand takes --config (the YAML run configuration), --out (the
working directory) and --seed (overrides the config seed).  Exit codes: 0
success, 1 usage or config problem (found before the command writes a file),
2 runtime failure.

This module needs only the standard library, so ``--help`` and argument
errors never load numpy: the commands live in ``hhsynth.commands``, which
``main`` imports once the arguments parse.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

COMMANDS = ("simulate", "fit", "synthesize", "evaluate", "risk")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hhsynth",
        description="Household synthesis: fit, synthesize, evaluate, risk, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in COMMANDS:
        p = sub.add_parser(name, help=None)  # a help keyword lists the command in --help
        p.add_argument("--config", required=True, type=Path, help="YAML run configuration")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s %(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # Imported here, not at the top, and never the other way round: under
    # ``python -m hhsynth.cli`` this module is __main__, and a module that
    # imported it would get a second copy of it.
    from . import commands

    try:
        cfg = commands.load_config(args.config.resolve(), args.seed)
        out_dir = args.out.resolve()
        out_dir.mkdir(parents=True, exist_ok=True)
        getattr(commands, f"cmd_{args.command}")(cfg, out_dir)
        return 0
    except commands.UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

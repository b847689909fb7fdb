"""What the experiment modules build their one ``cli(argv)`` from.

``python -m repro <command>`` and ``python -m repro.experiments.<module>``
run that same callable, so a flag a command does not read is an
argparse error, not a silent no-op.
"""

from __future__ import annotations

import argparse
from collections.abc import Callable

__all__ = ["add_flow_argument", "add_trace_argument", "command_parser", "flagless_cli"]


def command_parser(command: str, description: str) -> argparse.ArgumentParser:
    """The parser of ``python -m repro <command>``."""
    return argparse.ArgumentParser(prog=f"python -m repro {command}", description=description)


def flagless_cli(command: str, description: str, main: Callable[[], object]) -> Callable:
    """``cli(argv)`` for a command without options: ``--help`` works, stray flags exit 2."""

    def cli(argv: list[str] | None = None) -> None:
        command_parser(command, description).parse_args(argv)
        main()

    return cli


def add_trace_argument(parser: argparse.ArgumentParser, command: str) -> None:
    """``--trace [PATH]``: the path handed to :meth:`repro.obs.Observability.report`."""
    parser.add_argument(
        "--trace", nargs="?", const=f"{command}_trace.json", default=None, metavar="PATH",
        help=f"write a Chrome trace (default PATH: {command}_trace.json) "
             "plus a .jsonl sidecar and a metrics summary",
    )


def add_flow_argument(parser: argparse.ArgumentParser) -> None:
    """``--flow [FRACTION]``: the ``flow_fraction`` of the staged runs."""
    parser.add_argument(
        "--flow", nargs="?", const=0.25, default=None, type=float, metavar="FRACTION",
        help="enable flow control; cap each staging node's buffer pool "
             "at FRACTION of its per-step working set (default 0.25)",
    )

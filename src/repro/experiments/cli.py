"""What the experiment modules build their one ``cli(argv)`` from.

``python -m repro <command>`` and ``python -m repro.experiments.<module>``
run that same callable, so a flag a command does not read is an
argparse error, not a silent no-op.
"""

from __future__ import annotations

import argparse
from collections.abc import Callable

__all__ = ["command_parser", "flagless_cli"]


def command_parser(command: str, description: str) -> argparse.ArgumentParser:
    """The parser of ``python -m repro <command>``."""
    return argparse.ArgumentParser(prog=f"python -m repro {command}", description=description)


def flagless_cli(command: str, description: str, main: Callable[[], object]) -> Callable:
    """``cli(argv)`` for a command without options: ``--help`` works, stray flags exit 2."""

    def cli(argv: list[str] | None = None) -> None:
        command_parser(command, description).parse_args(argv)
        main()

    return cli

"""The CLI's option surface, pinned.

``cli_parser_table.json`` is :func:`parser_table` of the parser as it
stood before the single-run flags were declared once and shared: every
subcommand's accepted option strings and, per option, its ``dest``,
``default``, ``type``, ``choices``, ``nargs`` and action (help text is
not pinned). Regenerate it only for a deliberate change of the surface:

    PYTHONPATH=src python -m tests.test_cli_parser > tests/cli_parser_table.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import _build_parser, main

TABLE = Path(__file__).with_name("cli_parser_table.json")

#: Options whose pinned fields changed on purpose since the table was
#: generated: the comma lists of ``sweep`` parse through argparse
#: ``type=`` functions, so a bad element is a usage error (exit 2).
CHANGED = {
    ("sweep", "--m"): {"type": "_int_list"},
    ("sweep", "--etas"): {"type": "_float_list"},
}


def _subcommands(parser: argparse.ArgumentParser, prefix: str = ""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, f"{prefix}{name} ")
    if prefix:
        yield prefix.strip(), parser


def _describe(action: argparse.Action) -> dict:
    return {
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", action.type),
        "choices": list(action.choices) if action.choices is not None else None,
        "nargs": action.nargs,
        "action": type(action).__name__,
    }


def parser_table(parser: argparse.ArgumentParser | None = None) -> dict:
    """``{subcommand: {option: fields}}``; a positional is keyed by its
    ``dest``. JSON-normal (tuples become lists)."""
    parser = parser or _build_parser()
    table = {
        command: {
            (" ".join(action.option_strings) or action.dest): _describe(action)
            for action in sub._actions
            if not isinstance(action, argparse._SubParsersAction)
        }
        for command, sub in _subcommands(parser)
    }
    return json.loads(json.dumps(table, sort_keys=True))


def test_option_surface_matches_the_pinned_table():
    expected = json.loads(TABLE.read_text())
    for (command, option), fields in CHANGED.items():
        expected[command][option].update(fields)
    actual = parser_table()
    assert sorted(actual) == sorted(expected)
    for command in expected:
        assert actual[command] == expected[command], command


@pytest.mark.parametrize("command", sorted(json.loads(TABLE.read_text())))
def test_every_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exited:
        main([*command.split(), "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {command}")


if __name__ == "__main__":  # pragma: no cover
    print(json.dumps(parser_table(), indent=1, sort_keys=True))

"""README drift guards: the documented spec keys and `gsample run` flags
are the ones the code accepts."""

import argparse
import re
from pathlib import Path

from gsample import bench
from gsample.cli import _build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_spec_block_lists_exactly_the_parser_keys():
    block = README.split("### Spec files", 1)[1].split("```", 2)[1]
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line.split("#", 1)[0]}
    assert keys == set(bench._SPEC_KEYS)


def test_flags_paragraph_lists_exactly_the_run_options():
    paragraph = README.split("Flags:", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z-]+)`", paragraph))
    parser = _build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    options = {opt for action in commands.choices["run"]._actions
               for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
    assert documented == options

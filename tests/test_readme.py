"""README drift guards: the documented spec keys, methods, studies and
`gsample run` flags are the ones the code accepts."""

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


def test_method_names_are_the_methods_table_in_order():
    sentence = README.split("Method names:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`([a-z-]+)`", sentence) == list(bench.METHODS)


def test_study_comment_names_exactly_the_studies_table():
    block = README.split("### Spec files", 1)[1].split("```", 2)[1]
    lines = block.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("study ="))
    # the study line and the comment lines that continue it
    text = lines[start]
    for line in lines[start + 1:]:
        if not line.lstrip().startswith("#"):
            break
        text += " " + line
    # names are split by `|` and the comment marks; a remark is in brackets
    text = re.sub(r"\([^)]*\)", "", text.split("=", 1)[1].replace("#", "|"))
    named = [name.strip() for name in text.split("|") if name.strip()]
    assert sorted(named) == sorted(bench.STUDIES)


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

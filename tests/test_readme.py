"""The README's contracts, checked against the code: its subcommand table
against the argument parser, both ways; its exit-code table against the
``EXIT_*`` constants of :mod:`sunflower.cli`; and its library quick start
against what each block prints."""

from __future__ import annotations

import argparse
import contextlib
import io
import re
from pathlib import Path

import pytest

from sunflower import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title: str) -> list[str]:
    """The lines under the heading ``title``, up to the next heading of
    its level or above; lines in fenced code are never headings."""
    out, level, fenced = None, 0, False
    for line in README.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith("#"):
            hashes = len(line) - len(line.lstrip("#"))
            if out is not None and hashes <= level:
                break
            if line == title:
                out, level = [], hashes
                continue
        if out is not None:
            out.append(line)
    assert out is not None, f"README has no heading {title!r}"
    return out


def table_rows(title: str) -> list[list[str]]:
    """The cells of the body rows of the table under ``title``; ``\\|``
    inside a cell is a literal bar."""
    return [[cell.strip().replace("\\|", "|")
             for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in section(title) if line.startswith("| `")]


def readme_usage(cell: str) -> tuple[str, tuple]:
    """``(command, (positionals, options))`` of a usage cell such as
    ``split FAMILY [--mode exhaustive|random]``: positionals come before
    the first option, an option's value is the token after it (None for
    a flag), and an option inside brackets is optional."""
    name, *tokens = re.findall(r"\[|\]|[^\s\[\]]+", cell.strip("`"))
    positionals: list[str] = []
    options: dict[str, list] = {}
    depth, last = 0, None
    for token in tokens:
        if token in ("[", "]"):
            depth += 1 if token == "[" else -1
        elif token.startswith("--"):
            options[token] = [None, depth > 0]
            last = token
        elif last is None:
            positionals.append(token)
        else:
            options[last][0] = token
            last = None
    return name, (positionals, options)


def parser_usage() -> dict[str, tuple]:
    """The same shape for every subcommand of ``build_parser()``, ``-h``
    aside: a positional or an option value shows its metavar, else its
    choices joined by ``|``, else its dest in upper case."""
    parser = cli.build_parser()
    sub, = (action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction))
    usage = {}
    for name, command in sub.choices.items():
        positionals: list[str] = []
        options: dict[str, list] = {}
        for action in command._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            shown = action.metavar or (
                "|".join(action.choices) if action.choices
                else action.dest.upper())
            if not action.option_strings:
                positionals.append(shown)
            else:
                options[action.option_strings[0]] = [
                    None if action.nargs == 0 else shown,
                    not action.required]
        usage[name] = (positionals, options)
    return usage


def test_subcommand_table_matches_the_parser():
    rows = [readme_usage(usage) for usage, _ in table_rows("### Subcommands")]
    readme = dict(rows)
    assert len(readme) == len(rows), "a subcommand is listed twice"
    parser = parser_usage()
    assert sorted(readme) == sorted(parser)
    for name in parser:
        assert readme[name] == parser[name], name


def test_exit_code_table_matches_the_cli_constants(capsys):
    rows = {int(code.strip("`")): name.strip("`")
            for code, name, _ in table_rows("### Exit codes")}
    named = {code: name for code, name in rows.items() if name != "none"}
    constants = [name for name in dir(cli) if name.startswith("EXIT_")]
    assert named == {getattr(cli, name): name for name in constants}
    assert len(named) == len(constants), "two constants share a code"
    # the one code with no constant is argparse's usage error
    assert set(rows) - set(named) == {2}
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def python_blocks(title: str) -> list[list[str]]:
    blocks, block = [], None
    for line in section(title):
        if line == "```python":
            block = []
        elif line == "```" and block is not None:
            blocks.append(block)
            block = None
        elif block is not None:
            block.append(line)
    return blocks


def expected_output(block: list[str]) -> list[str]:
    """Each one-line ``print(...)`` call's output comment: the ``# ...``
    after it on its line, or else the comment line right below it."""
    want = []
    for i, line in enumerate(block):
        call = re.fullmatch(r"print\(.*?\)\s*(?:# (.*))?", line)
        if call is None:
            continue
        if call.group(1) is not None:
            want.append(call.group(1))
        else:
            below = block[i + 1] if i + 1 < len(block) else ""
            assert below.startswith("# "), f"no output comment for {line}"
            want.append(below[2:])
    return want


LIBRARY_BLOCKS = python_blocks("## Quick start (library)")


def test_library_quick_start_has_blocks():
    assert len(LIBRARY_BLOCKS) == 2
    assert all(expected_output(block) for block in LIBRARY_BLOCKS)


@pytest.mark.parametrize("block", LIBRARY_BLOCKS,
                         ids=[f"block{i}" for i in range(len(LIBRARY_BLOCKS))])
def test_library_quick_start_prints_its_comments(block):
    # each block runs alone, in a fresh namespace
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile("\n".join(block), "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected_output(block)

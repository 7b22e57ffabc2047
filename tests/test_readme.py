"""README's library example runs as written: it guards the public signatures
it calls (`decompose`, the campaign stages). Its shell examples name exactly
the CLI's subcommands and long options."""

import argparse
import re
import shlex
from pathlib import Path

from earforge.cli import _parser

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text,
                      flags=re.MULTILINE | re.DOTALL)


def cli_lines():
    """Each `earforge ...` line of README's sh blocks, split as a shell would."""
    return [shlex.split(line, comments=True) for block in fenced("sh")
            for line in block.splitlines() if line.startswith("earforge ")]


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = fenced("python")
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    state = scope["state"]
    assert state.stage == "verified"
    assert scope["coords"].lambdas.shape == (5,)
    assert (tmp_path / "demo" / "campaign.json").is_file()
    printed = capsys.readouterr().out.split()
    assert str(state.optimum.f_value) in printed
    assert str(state.verification.reduction_factor) == printed[-1]
    assert state.verification.reduction_factor > 10


def test_cli_examples_match_the_parser():
    # every README command line parses, and together they use each
    # subcommand and each long option of the parser, --help aside
    parser = _parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for p in (parser, *sub.choices.values()) for a in p._actions
               for o in a.option_strings if o.startswith("--")} - {"--help"}
    lines = cli_lines()
    assert {parser.parse_args(argv[1:]).command for argv in lines} \
        == set(sub.choices)
    assert {t for argv in lines for t in argv if t.startswith("--")} \
        == options

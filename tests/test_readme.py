"""README's library example runs as written: it guards the public signatures
it calls (`build_modal_basis`, `decompose`, the campaign stages)."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text,
                      flags=re.MULTILINE | re.DOTALL)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = python_blocks()
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

"""The README's library example and CLI block run as written."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from tritile.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert "[graph-audit]" in out.getvalue()
    assert "w_routes_agree = " in out.getvalue()


def test_cli_block_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks if "tritile generate" in block
             for line in block.splitlines() if line.startswith("tritile ")]
    assert len(lines) == 12
    monkeypatch.chdir(tmp_path)
    for line in lines:
        with redirect_stdout(io.StringIO()):
            code = main(shlex.split(line, comments=True)[1:])
        assert code == 0, line

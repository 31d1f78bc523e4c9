"""The README's library example runs as written."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert "[graph-audit]" in out.getvalue()
    assert "w_routes_agree = " in out.getvalue()

"""The README's library quick start runs as written and prints what it shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == (
        "[0, 2, 4, 5] [1, 3] []\n"
        "2 4 2\n"
        "[0, 2, 4, 5]\n"
        "II 0 2 2\n"
        "frozenset({0, 4}) frozenset({(0, 1), (3, 4)})\n"
    )

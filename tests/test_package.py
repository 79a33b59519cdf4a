import contextlib
import io
import re
from pathlib import Path

import dicke_battery

README = Path(__file__).resolve().parents[1] / "README.md"


def test_version_is_a_string():
    assert isinstance(dicke_battery.__version__, str)


def test_readme_quick_start_prints_what_its_comment_states():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (Python)"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    # the block ends in `print(...)  # a..., b...`: each printed value starts with its prefix
    comment = re.search(r"print\(.*\)\s*#\s*(.*)$", block.rstrip(), re.MULTILINE).group(1)
    prefixes = [part.strip().rstrip(".") for part in comment.split(",")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == len(prefixes) == 2
    for value, prefix in zip(printed, prefixes):
        assert value.startswith(prefix), (value, prefix)

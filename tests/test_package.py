import ast
import contextlib
import io
import re
from pathlib import Path

import dicke_battery

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(dicke_battery.__file__).resolve().parent
# every module a simulate, sweep or compare run goes through
RUN_PATH = ("hilbert", "operators", "spectra", "dynamics", "observables", "analysis")


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


def _imported_modules(tree: ast.AST) -> set[str]:
    """Dotted names of everything a module imports, relative imports without their dots."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return names


def test_run_path_modules_do_not_import_the_oracle():
    # the references stay outside the code they check
    for module in RUN_PATH:
        source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        imported = _imported_modules(ast.parse(source))
        leaks = sorted(name for name in imported if "oracle" in name.split("."))
        assert not leaks, (module, leaks)

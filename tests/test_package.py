"""The public names: every export resolves, and the README imports only exports."""

import ast
import re
from pathlib import Path

import seqlate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves():
    missing = [name for name in seqlate.__all__ if not hasattr(seqlate, name)]
    assert missing == []
    assert len(set(seqlate.__all__)) == len(seqlate.__all__)


def test_readme_imports_only_exported_names():
    names = set()
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "seqlate":
                names.update(alias.name for alias in node.names)
    assert names, "the README's python blocks import nothing from seqlate"
    assert sorted(names - set(seqlate.__all__)) == []

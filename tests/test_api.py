"""The exported API: every ``__all__`` name resolves, and the README's
library example runs as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import terraseg

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(terraseg.__path__))


@pytest.mark.parametrize("name", ["terraseg"] + [f"terraseg.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert "epoch" in capsys.readouterr().out

"""Every name a kleinnet module lists in `__all__` must resolve, so a
deleted function cannot leave a stale export behind."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import kleinnet

# importing kleinnet.__main__ runs the CLI
MODULES = ["kleinnet"] + [
    f"kleinnet.{info.name}"
    for info in pkgutil.iter_modules(kleinnet.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    """README's "Library" code block runs against the current API and
    prints what its comments say."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if "print(" in line]
    assert printed == expected

"""Guards against drift of the README examples and the module exports."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mixcap

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)

# Every module but the command-line entry point declares its public names.
LIBRARY_MODULES = sorted(
    f"mixcap.{info.name}" for info in pkgutil.iter_modules(mixcap.__path__) if info.name != "cli"
)


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names undefined {missing}"

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import maxboot

# every module but the CLI declares its public names in __all__
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(maxboot.__path__, "maxboot.")
    if info.name != "maxboot.cli"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_module_all_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_resolve_and_are_exported_by_their_module():
    tree = ast.parse(Path(maxboot.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(node.module)
        for alias in node.names:
            assert alias.name in source.__all__, f"{node.module}.{alias.name}"
            assert getattr(maxboot, alias.name) is getattr(source, alias.name)

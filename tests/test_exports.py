import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import curereg

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(curereg.__path__)
                    if not m.name.startswith("_"))


@pytest.mark.parametrize("name", ["curereg"] + [f"curereg.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_no_module_imports_a_private_name_from_a_sibling():
    crossing = []
    for path in sorted(Path(curereg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "curereg":
                continue
            crossing += [f"{path.name}: {node.module}.{alias.name}"
                         for alias in node.names if alias.name.startswith("_")]
    assert crossing == []


# Imported only so that perfbench/tracer.py can replace them on the module.
TRACER_ONLY_IMPORTS = {
    "deflation.py: ThreadPoolExecutor": "the tracer swaps in its own pool class",
    "deflation.py: information_criterion": "the tracer counts calls through it",
}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(curereg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert sorted(set(unused) - set(TRACER_ONLY_IMPORTS)) == []

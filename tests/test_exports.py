import ast
import importlib
import importlib.util
import pkgutil
import re
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
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
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
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert sorted(set(unused) - set(TRACER_ONLY_IMPORTS)) == []


def test_every_tracer_only_import_is_one_the_tracer_replaces():
    tracer_path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    replaced = set(tracer.targets())
    exempt = {(path.removesuffix(".py"), name)
              for path, name in (key.split(": ") for key in TRACER_ONLY_IMPORTS)}
    assert sorted(exempt - replaced) == []


# Names in the package's or a submodule's ``__all__`` that no code of the
# package, the demos or the benchmark calls.  The guard below fails once one
# of them gains a caller, so this list can only shrink.
UNCALLED_EXPORTS = {
    "initialize_path": "the README's step API, which the acceptance suite drives",
}


def _names_read(tree):
    """Every name that ``tree`` reads as a variable or an attribute, except
    inside the definition of a function or class of that name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller_or_a_stated_reason():
    root = Path(__file__).resolve().parent.parent
    scripts = [*root.glob("demos/*.py"), *root.glob("perfbench/*.py")]
    assert scripts  # the checkout's, not those of an installed copy
    sources = [*Path(curereg.__file__).parent.glob("*.py"), *scripts]
    used = set().union(*(_names_read(ast.parse(path.read_text(encoding="utf-8"),
                                               filename=str(path)))
                         for path in sources))
    shell = (root / "demos" / "cli_pipeline.sh").read_text(encoding="utf-8")
    used |= set(re.findall(r"\w+", shell))
    exported = {*curereg.__all__}.union(*(
        getattr(importlib.import_module(f"curereg.{m}"), "__all__", ()) for m in SUBMODULES))
    uncalled = {name for name in exported if name not in used}
    assert sorted(uncalled) == sorted(UNCALLED_EXPORTS)

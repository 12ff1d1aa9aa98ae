"""The benchmark tracer's hooks must all exist on the package.

``perfbench/tracer.py`` replaces curereg module attributes by name, so a
refactor that drops or renames one of them breaks ``--trace 1``.  The
benchmark's own self-test is not part of this suite; this guard is.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves_on_curereg():
    tracer = _load_tracer()
    hooks = list(tracer.targets()) + [(m, a) for m, a, *_ in tracer.SETUP_SPANS]
    assert hooks
    missing = [
        f"curereg.{mod}.{attr}" for mod, attr in hooks
        if not hasattr(importlib.import_module(f"curereg.{mod}"), attr)
    ]
    assert not missing, f"tracer hooks absent from curereg: {missing}"

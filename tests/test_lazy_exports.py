import subprocess
import sys


def test_names_resolve_on_first_use():
    code = (
        "import sys, curereg\n"
        "def loaded(): return {m for m in sys.modules if m.startswith('curereg.')}\n"
        "print(sorted(loaded()))\n"
        "from curereg import run_path\n"
        "print(sorted(loaded()))\n"
        "print(curereg.stagewise.run_path is run_path, curereg.deflation.__name__)\n"
        "print(set(curereg.__all__) <= set(dir(curereg)), hasattr(curereg, 'bogus'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    bare, after_run_path, resolved, listed = proc.stdout.splitlines()
    assert bare == "[]"
    assert "'curereg.stagewise'" in after_run_path
    for module in ("baselines", "deflation", "metrics", "simgen"):
        assert f"'curereg.{module}'" not in after_run_path
    assert resolved == "True curereg.deflation"
    assert listed == "True False"


def test_each_package_export_is_in_its_modules_all():
    import importlib

    import curereg

    for module, names in curereg._EXPORTS.items():
        listed = importlib.import_module(f"curereg.{module}").__all__
        assert set(names) <= set(listed), module

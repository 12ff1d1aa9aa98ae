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


def test_traced_names_are_called_by_a_masked_cv_fit(tmp_path, monkeypatch):
    # The benchmark's selftest reads tuning.cv_s and tuning.cv_paths_per_layer
    # from spans of deflation.kfold_cv_select and deflation.run_path, and the
    # step counts from stagewise.propose_backward / propose_forward.  If a
    # refactor stops calling one of these names they would read 0 silently.
    import numpy as np

    from curereg import cli, deflation, stagewise
    from curereg.io import write_matrix_csv
    from curereg.simgen import SimSpec, gen_dataset

    calls = {}

    def count(module, name):
        orig = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((deflation, "run_path"), (deflation, "kfold_cv_select"),
                         (deflation, "_fit_unit_rank"),
                         (stagewise, "propose_backward"), (stagewise, "propose_forward")):
        count(module, name)
    truth = gen_dataset(SimSpec(model="II", n=40, p=12, q=8, r_star=2, snr=2.0, seed=3))
    mask = np.random.default_rng(4).random(truth.Y.shape) >= 0.2
    write_matrix_csv(tmp_path / "X.csv", truth.X)
    write_matrix_csv(tmp_path / "Y.csv", truth.Y, mask=mask)
    argv = ["fit", "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv",
            "--method", "seqstl", "--rank", "2", "--epsilon", "0.2",
            "--criterion", "cv", "--max-steps", "300", "--out-dir", tmp_path / "out"]
    assert cli.main([str(a) for a in argv]) == 0
    assert calls["_fit_unit_rank"] == 2
    assert calls["run_path"] == calls["kfold_cv_select"] == 2
    assert calls["propose_backward"] > 0 and calls["propose_forward"] > 0

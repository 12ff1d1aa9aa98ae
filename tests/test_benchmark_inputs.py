"""The benchmark's inputs must still parse.

``perfbench/workloads.py`` lists the command lines the benchmark runs and
the ``StagewiseConfig`` keyword arguments of its memory probes.  A refactor
that drops a flag or a config field those use would make every benchmark
run exit 2, and the benchmark's own self-test is not part of this suite.
This guard reads the workload list, at both scales, without running it.
"""

import sys
import types
from pathlib import Path

import pytest

from curereg import cli
from curereg.stagewise import StagewiseConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    """``perfbench/workloads.py`` as a module, compiled from its source so
    that no bytecode is written beside it."""
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module  # dataclasses look the module up
    code = compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec")
    exec(code, module.__dict__)
    return module


_WL = _load_workloads()
_ALL = [(scale, wl) for scale in _WL.SCALES for wl in _WL.workloads(scale).values()]
COMMANDS = [pytest.param(cmd, id=f"{scale}-{wl.name}-{cmd.metric}")
            for scale, wl in _ALL for cmd in wl.commands]
PROBES = [pytest.param(wl.memory_probe[1], id=f"{scale}-{wl.name}")
          for scale, wl in _ALL if wl.memory_probe is not None]


@pytest.mark.parametrize("cmd", COMMANDS)
def test_every_benchmark_command_parses(tmp_path, cmd):
    # The argv perfbench/worker.py's run_command builds.
    inst = tmp_path / "inst"
    argv = [cmd.kind, "--x", str(inst / "X.csv"), "--y", str(inst / "Y.csv"),
            *cmd.args, "--seed", "1", "--out-dir", str(tmp_path / "out")]
    if cmd.truth:
        argv += ["--truth", str(inst / "truth.json")]
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"curereg {' '.join(argv)} exits {exc.code}")


@pytest.mark.parametrize("kwargs", PROBES)
def test_every_memory_probe_config_builds(kwargs):
    StagewiseConfig(**kwargs)

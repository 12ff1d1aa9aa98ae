"""Every demo runs to completion: the scripts in demos/ use the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py")) + ["cli_pipeline.sh"]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_0(script, tmp_path):
    path = ROOT / "demos" / script
    command = ["sh", path] if script.endswith(".sh") else [sys.executable, path]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr

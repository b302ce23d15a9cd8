"""Every narrative script in demos/ runs to completion and prints the
stdout recorded for it in tests/demo_output/ (one ``<script stem>.txt``
each); rerecord a file there only when a demo's story changes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUTPUT = Path(__file__).resolve().parent / "demo_output"


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (OUTPUT / f"{demo.stem}.txt").read_text()

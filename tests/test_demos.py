"""Every demo script and the README's Python quick start run to completion against ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_fresh(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = run_fresh([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) == 1, "the README should hold exactly one Python block"
    proc = run_fresh(["-c", blocks[0].split("```", 1)[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

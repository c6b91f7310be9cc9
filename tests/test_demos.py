"""Every script under demos/, and README's "Quick start" block, runs to
completion and cleans up after itself."""
import glob
import os
import subprocess
import sys

import pytest

import taghash

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 6


def run_script(path, tmp_path):
    src = os.path.dirname(os.path.dirname(taghash.__file__))
    tmpdir, cwd = tmp_path / "tmp", tmp_path / "cwd"
    tmpdir.mkdir()
    cwd.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, path], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not any(tmpdir.iterdir()), "demo left temporary files behind"


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path, tmp_path):
    run_script(path, tmp_path)


def test_readme_quick_start_runs(tmp_path):
    # documented API that no longer exists fails here
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quick_start.py"
    script.write_text(block)
    run_script(str(script), tmp_path)

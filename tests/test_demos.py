"""Every script under demos/ runs to completion and cleans up after itself."""
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


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path, tmp_path):
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

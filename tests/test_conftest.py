"""The shared conftest keeps hypothesis's storage out of the directory pytest runs in."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

MODULE_LEVEL_GIVEN = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_any_integer(x):
    assert x != 48611 or x == 48611
'''


def test_module_level_given_writes_no_hypothesis_dir(tmp_path):
    pytest.importorskip("hypothesis")
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_given.py").write_text(MODULE_LEVEL_GIVEN)
    env = {k: v for k, v in os.environ.items() if k != "HYPOTHESIS_STORAGE_DIRECTORY"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "."],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not (tmp_path / ".hypothesis").exists()

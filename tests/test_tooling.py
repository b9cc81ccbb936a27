"""The test run's own settings, and the compiled kernel's build and signature."""

import ctypes
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hbtm import sampler

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
KERNEL_SOURCE = Path(sampler.__file__).with_name("_sweep.c")

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_prop.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        ["cc", *sampler._CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "k.so"), str(KERNEL_SOURCE)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_prototype_matches_its_argtypes():
    # ctypes passes whatever argtypes say: a parameter added or dropped on one
    # side only shifts every later argument without an error
    kernel = sampler._sweep_kernel()
    assert kernel is not None
    prototype = re.search(r"\bhbtm_sweep\s*\(([^)]*)\)", KERNEL_SOURCE.read_text()).group(1)
    params = prototype.split(",")
    scalars = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    expected = [ctypes.c_void_p if "*" in p else scalars[p.split()[0]] for p in params]
    assert len(params) == len(kernel.argtypes)
    assert list(kernel.argtypes) == expected

"""The test run's own settings, and the compiled kernel's build and signature."""

import ctypes
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hbtm import Corpus, FitConfig, Token, Trace, fit, sampler, synthetic_schema
from hbtm.core import save_json

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
    library = sampler._library()
    assert library is not None
    scalars = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    for name in ("hbtm_sweep", "hbtm_scan"):
        function = getattr(library, name)
        prototype = re.search(rf"\bint64_t {name}\s*\(([^)]*)\)", KERNEL_SOURCE.read_text()).group(1)
        params = prototype.split(",")
        expected = [ctypes.c_void_p if "*" in p else scalars[p.split()[0]] for p in params]
        assert len(params) == len(function.argtypes), name
        assert list(function.argtypes) == expected, name
        assert function.restype is ctypes.c_int64, name


def _libasan() -> str | None:
    if shutil.which("cc") is None:
        return None
    done = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True, text=True)
    path = done.stdout.strip()
    return path if done.returncode == 0 and Path(path).is_file() else None


# Runs under libasan: every span is copied into its own malloc block of exactly
# its length, so a read one byte past the span, or a write past the output
# buffer, stops the process
SANITIZED_SCAN = r"""
import ctypes, random, sys
lib = ctypes.CDLL(sys.argv[1])
libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.malloc.argtypes = [ctypes.c_size_t]
libc.free.argtypes = [ctypes.c_void_p]
scan = lib.hbtm_scan
scan.restype = ctypes.c_int64
scan.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
block = open(sys.argv[2], "rb").read()
spans = [block[:n] for n in range(len(block) + 1)]
rng = random.Random(7)
alphabet = b"[],.-+eE0123456789 \n\r\t"
for _ in range(3000):
    pool = alphabet if rng.random() < 0.8 else bytes(range(256))
    spans.append(bytes(rng.choice(pool) for _ in range(rng.randrange(40))))
accepted = 0
for span in spans:
    # the numbers' count, and a random smaller capacity the scanner must respect
    for capacity in (span.count(b",") + 1, rng.randrange(span.count(b",") + 1)):
        text = libc.malloc(max(len(span), 1))
        ctypes.memmove(text, span, len(span))
        shape = libc.malloc(32 * 8)
        out = libc.malloc(max(capacity, 1) * 8)
        accepted += scan(text, len(span), shape, out, capacity) > 0
        for pointer in (text, shape, out):
            libc.free(pointer)
print(len(spans), accepted)
"""


def test_scanner_stays_inside_its_buffers_under_address_and_undefined_sanitizers(tmp_path):
    libasan = _libasan()
    if libasan is None:
        pytest.skip("no C compiler or no libasan")
    library = tmp_path / "sanitized.so"
    done = subprocess.run(
        ["cc", *sampler._CFLAGS, "-g", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-o", str(library), str(KERNEL_SOURCE)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    # a small model's psi block, as core.save_json writes it
    corpus = Corpus(synthetic_schema(3, 2, 2), (
        Trace("a", (Token(0, 0, 0), Token(1, 1, 1), Token(2, 0, 1))),
        Trace("b", (Token(2, 1, 0), Token(0, 0, 1))),
    ))
    model = tmp_path / "model.json"
    save_json(fit(corpus, FitConfig(num_traits=2, sweeps=4, burn_in=1, sample_stride=1))
              .to_json_dict(), model)
    text = model.read_text()
    block = tmp_path / "psi.json"
    block.write_text(text[text.index('"psi": ') + len('"psi": '):text.index(',\n    "tau": ')])
    script = tmp_path / "scan.py"
    script.write_text(SANITIZED_SCAN)
    env = dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0")
    done = subprocess.run([sys.executable, str(script), str(library), str(block)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    spans, accepted = map(int, done.stdout.split())
    assert spans > 3000 and accepted >= 1  # the whole block, at least

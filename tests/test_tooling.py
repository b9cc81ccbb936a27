"""The test run's settings, the package's extent, and the compiled kernel's build and signature."""

import ast
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
PACKAGE = Path(sampler.__file__).parent
KERNEL_SOURCE = PACKAGE / "_sweep.c"
PERFBENCH = PYPROJECT.with_name("perfbench")

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


def _names_read(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _attributes_loaded(path: Path) -> set[str]:
    """Attribute names ``path`` loads, plus its string constants (``getattr(state, name)``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_the_package_ships_only_what_the_package_or_perfbench_reaches():
    # an import is not a use: a name that only __init__ re-exports, or that
    # only tests call, belongs in the tests; nor is a store a use: an
    # instance attribute that only tests load belongs in the tests
    modules = sorted(PACKAGE.glob("*.py"))
    readers = modules + sorted(PERFBENCH.glob("*.py"))
    read = set().union(*map(_names_read, readers))
    defined = {node.name for path in modules for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    exported = {alias.name for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted((defined | exported) - read) == []
    stored = {node.attr for path in modules for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert sorted(stored - set().union(*map(_attributes_loaded, readers))) == []


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
    prototypes = re.findall(r"^int64_t (hbtm_\w+)\s*\(([^)]*)\)", KERNEL_SOURCE.read_text(), re.M)
    assert {"hbtm_sweep", "hbtm_scan", "hbtm_lloyd"} <= {name for name, _ in prototypes}
    for name, prototype in prototypes:
        function = getattr(library, name)
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


def _sanitized_library(tmp_path) -> tuple[Path, dict]:
    """The kernel built with address and undefined-behaviour checks, and the env that runs it."""
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
    return library, dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0")


def test_scanner_stays_inside_its_buffers_under_address_and_undefined_sanitizers(tmp_path):
    library, env = _sanitized_library(tmp_path)
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
    done = subprocess.run([sys.executable, str(script), str(library), str(block)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    spans, accepted = map(int, done.stdout.split())
    assert spans > 3000 and accepted >= 1  # the whole block, at least


# Runs under libasan: every array is its own malloc block of exactly its size,
# so a read or write past any of them stops the process
SANITIZED_LLOYD = r"""
import ctypes, random, sys
lib = ctypes.CDLL(sys.argv[1])
libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.malloc.argtypes = [ctypes.c_size_t]
libc.free.argtypes = [ctypes.c_void_p]
lloyd = lib.hbtm_lloyd
lloyd.restype = ctypes.c_int64
lloyd.argtypes = [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 7
rng = random.Random(11)
shapes = [(1, 1, 1, 0), (5, 3, 5, 100), (7, 1, 7, 0), (40, 140, 3, 100), (300, 1, 2, 100),
          (9, 129, 9, 5), (12, 2, 6, 100)]
for _ in range(60):
    n = rng.randrange(1, 200)
    shapes.append((n, rng.choice([1, 2, 7, 8, 9, 20, 127, 128, 129, 200]),
                   rng.randrange(1, min(n, 6) + 1), rng.choice([0, 1, 3, 100])))
iterations = reseeded = 0
for case, (n, d, k, max_iters) in enumerate(shapes):
    if case % 3 == 0:
        # duplicate points and k equal starts: every cluster but the first
        # empties in the first iteration and is reseeded
        pool = [[float(rng.randrange(2)) for _ in range(d)] for _ in range(max(1, k - 1))]
        rows = [rng.choice(pool) for _ in range(n)]
        starts = rows[0] * k
        reseeded += k > 1 and max_iters > 0
    else:
        rows = [[rng.random() for _ in range(d)] for _ in range(n)]
        starts = [x for i in rng.sample(range(n), k) for x in rows[i]]
    values = [x for row in rows for x in row]
    blocks = [libc.malloc(max(size, 1) * 8) for size in (n * d, k * d, n, k * d, n, k, n)]
    points, centroids = blocks[:2]
    ctypes.memmove(points, (ctypes.c_double * (n * d))(*values), n * d * 8)
    ctypes.memmove(centroids, (ctypes.c_double * (k * d))(*starts), k * d * 8)
    iterations += lloyd(n, d, k, max_iters, *blocks)
    labels = (ctypes.c_int64 * n).from_address(blocks[2])
    assert all(0 <= label < k for label in labels)
    for block in blocks:
        libc.free(block)
print(len(shapes), iterations, reseeded)
"""


def test_lloyd_kernel_stays_inside_its_buffers_under_address_and_undefined_sanitizers(tmp_path):
    library, env = _sanitized_library(tmp_path)
    script = tmp_path / "lloyd.py"
    script.write_text(SANITIZED_LLOYD)
    done = subprocess.run([sys.executable, str(script), str(library)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    cases, iterations, reseeded = map(int, done.stdout.split())
    assert cases > 60 and iterations > cases and reseeded >= 10

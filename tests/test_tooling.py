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
    done = subprocess.run(sampler._cc(KERNEL_SOURCE, tmp_path / "k.so", "-Wall", "-Wextra",
                                      "-Werror"), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_kernel_prototype_matches_its_argtypes():
    # ctypes passes whatever argtypes say: a parameter added or dropped on one
    # side only shifts every later argument without an error
    source = KERNEL_SOURCE.read_text()
    scalars = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    prototypes = dict(re.findall(r"^int64_t (hbtm_\w+)\s*\(([^)]*)\)", source, re.M))
    assert sorted(prototypes) == sorted(name for name, _ in sampler._KERNELS)
    for name, params in sampler._KERNELS:
        expected = [ctypes.c_void_p if "*" in p else scalars[p.split()[0]]
                    for p in prototypes[name].split(",")]
        assert params == expected, name
    assert f"\n#define SCAN_MAX_NDIM {sampler._SCAN_MAX_NDIM}\n" in source


@pytest.fixture(scope="module")
def sanitized(tmp_path_factory):
    """Run drivers on the kernel built once under ASan and UBSan: ``sanitized(driver, *args)``."""
    libasan = shutil.which("cc") and subprocess.run(
        ["cc", "-print-file-name=libasan.so"], capture_output=True, text=True).stdout.strip()
    if not libasan or not Path(libasan).is_file():
        pytest.skip("no C compiler or no libasan")
    work = tmp_path_factory.mktemp("sanitized")
    library = work / "sanitized.so"
    done = subprocess.run(sampler._cc(KERNEL_SOURCE, library, "-g", "-fsanitize=address,undefined",
                                      "-fno-sanitize-recover=all"), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    env = dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0")

    def run(driver: str, *args) -> str:
        script = work / "driver.py"
        script.write_text(PRELUDE + driver)
        done = subprocess.run([sys.executable, str(script), str(library), *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr[-3000:]
        return done.stdout

    return run


# Runs under libasan ahead of every driver: lib is the sanitized library, each
# kernel typed by sampler's table, and libc.malloc gives each array its own
# block of exactly its size, so a read or write past any of them stops the process
PRELUDE = r"""
import ctypes, sys
from hbtm import sampler
lib = sampler._open(sys.argv[1])
assert all(getattr(lib, name).restype is ctypes.c_int64 for name, _ in sampler._KERNELS)
libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.malloc.argtypes = [ctypes.c_size_t]
libc.free.argtypes = [ctypes.c_void_p]
"""


# every span is copied into its own block of exactly its length, so a read one
# byte past the span stops the process
SANITIZED_SCAN = r"""
import random
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
        shape = libc.malloc(sampler._SCAN_MAX_NDIM * 8)
        out = libc.malloc(max(capacity, 1) * 8)
        accepted += lib.hbtm_scan(text, len(span), shape, out, capacity) > 0
        for pointer in (text, shape, out):
            libc.free(pointer)
print(len(spans), accepted)
"""


def test_scanner_stays_inside_its_buffers_under_address_and_undefined_sanitizers(
        sanitized, tmp_path):
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
    spans, accepted = map(int, sanitized(SANITIZED_SCAN, block).split())
    assert spans > 3000 and accepted >= 1  # the whole block, at least


SANITIZED_LLOYD = r"""
import random
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
    iterations += lib.hbtm_lloyd(n, d, k, max_iters, *blocks)
    labels = (ctypes.c_int64 * n).from_address(blocks[2])
    assert all(0 <= label < k for label in labels)
    for block in blocks:
        libc.free(block)
print(len(shapes), iterations, reseeded)
"""


def test_lloyd_kernel_stays_inside_its_buffers_under_address_and_undefined_sanitizers(sanitized):
    cases, iterations, reseeded = map(int, sanitized(SANITIZED_LLOYD).split())
    assert cases > 60 and iterations > cases and reseeded >= 10


SANITIZED_ROWS = r"""
import random
from datetime import datetime, timezone


def block(values, size=8):
    pointer = libc.malloc(max(len(values) * size, 1))
    for i, value in enumerate(values):
        ctypes.c_int64.from_address(pointer + 8 * i).value = value
    return pointer


def call(text, columns, n_mouse, capacity, need=None, n_slots=None, max_line=1 << 17):
    need = need or max(columns) + 1
    n_slots = n_slots or 1 << (6 * capacity).bit_length()
    buffer = libc.malloc(max(len(text), 1))
    ctypes.memmove(buffer, text, len(text))
    arrays = [block(columns), libc.malloc(max(2 * need * ctypes.sizeof(ctypes.c_void_p), 1)),
              libc.malloc(max(n_slots, 1) * 8), libc.malloc(max(6 * capacity, 1) * 8),
              libc.malloc(max(6 * capacity, 1) * 8), libc.malloc(max(2 * capacity, 1) * 8)]
    index, fields, slots, bounds, out, stamps = arrays
    distinct = lib.hbtm_rows(buffer, len(text), need, max_line, index, len(columns) - 5, n_mouse,
                             fields, capacity, slots, n_slots, bounds, out, stamps)
    status = [ctypes.c_int64.from_address(out + 8 * j).value for j in range(capacity)]
    ends = [ctypes.c_double.from_address(stamps + 8 * (capacity + j)).value
            for j in range(capacity)]
    for pointer in [buffer] + arrays:
        libc.free(pointer)
    return distinct, status, ends


GOOD = b"1,s1,Deeds,02.10.2019 09:00:17,02.10.2019 09:00:27,1,2,3,4"
# (line, status): 1 answered, 2 blank, 0 declined
CASES = [
    (GOOD, 1), (b"", 2), (b",,,,,,,,", 0), (b",,,,,,,,,,,,,,,,,,,,,,,,", 0),
    (GOOD + b",extra,fields,,beyond,need,9", 1),
    (GOOD[:-1] + b"999999999999999", 1), (GOOD[:-1] + b"9999999999999999", 0),
    (b"1,s1,Deeds,01.01.0000 00:00:00,31.12.9999 23:59:59,1,2,3,4", 0),
    (b"1,s1,Deeds,01.01.0001 00:00:00,31.12.9999 23:59:59,1,2,3,4", 1),
    (b"1,s1,Deeds,01.01.2019 00:00:00,29.02.2020 12:00:00,1,2,3,4", 1),
    (b"1,s1,Deeds,01.01.2019 00:00:00,29.02.2019 12:00:00,1,2,3,4", 0),
    (b"1,s1,Deeds,01.01.2019 00:00:00,29.02.1900 12:00:00,1,2,3,4", 0),
    (GOOD.replace(b"Deeds", b"De\tds"), 0), (GOOD.replace(b"Deeds", b'"Deeds"'), 0),
]
text = b"\n".join(line for line, _ in CASES)  # no final newline
columns = list(range(9))
distinct, status, ends = call(text, columns, 3, len(CASES))
assert status == [want for _, want in CASES], status
assert ends[8] == datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp()
assert call(b"", columns, 3, 0)[:2] == (0, [])
assert call(text, columns, 3, 3)[1] == [1, 2, 0]  # capacity caps the lines read
assert call(text, columns, 3, 4, n_slots=12)[0] == -1  # not a power of two above 3 * 4
assert call(text, [0, 1, 2, 3, 4], 0, len(CASES), need=5)[1][2] == 0
rng = random.Random(13)
alphabet = b"0123456789.,/: \n-s\t\"\x7f\xe9"
answered = 0
for _ in range(3000):
    pool = alphabet if rng.random() < 0.7 else GOOD + b"\n"
    text = bytes(rng.choice(pool) for _ in range(rng.randrange(120)))
    if rng.random() < 0.3:
        text = GOOD + b"\n" + text
    columns = (list(range(9)) if rng.random() < 0.5
               else [rng.randrange(10) for _ in range(5 + rng.randrange(4))])
    lines = text.count(b"\n") + (not text.endswith(b"\n") and text != b"")
    capacity = lines if rng.random() < 0.7 else rng.randrange(lines + 1)
    distinct, status, _ = call(text, columns, rng.randrange(len(columns) - 4), capacity,
                               need=max(columns) + 1 + rng.randrange(3),
                               max_line=rng.choice([1 << 17, 40]))
    assert 0 <= distinct <= 3 * capacity and set(status) <= {0, 1, 2}
    answered += status.count(1)
print(answered)
"""


def test_row_reader_stays_inside_its_buffers_under_address_and_undefined_sanitizers(sanitized):
    # random blocks led by GOOD answer some rows
    assert int(sanitized(SANITIZED_ROWS)) >= 20


SANITIZED_FORMAT = r"""
import json, random, struct


def call(values, shape, level, capacity):
    blocks = [libc.malloc(max(8 * len(values), 1)), libc.malloc(8 * len(shape)),
              libc.malloc(max(capacity, 1))]
    data, dims, out = blocks
    ctypes.memmove(data, struct.pack(f"{len(values)}d", *values), 8 * len(values))
    ctypes.memmove(dims, struct.pack(f"{len(shape)}q", *shape), 8 * len(shape))
    written = lib.hbtm_format(data, len(shape), dims, level, out, capacity)
    text = ctypes.string_at(out, written).decode() if written > 0 else None
    for block in blocks:
        libc.free(block)
    return text


def nest(values, shape):
    if len(shape) == 1:
        return list(values)
    step = len(values) // shape[0]
    return [nest(values[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


rng = random.Random(19)
pool = [0.0, -0.0, 0.1, 1e-05, 1e16, 123456.789, 2.0 ** -49, 2.0 ** 126 * (1 - 2 ** -53),
        1.7976931348623157e308, 5e-324, float("nan"), float("-inf")]
written = declined = 0
for case in range(400):
    shape = [rng.randrange(1, 5) for _ in range(1 + case % 3)]
    size = 1
    for side in shape:
        size *= side
    values = [rng.choice(pool) if rng.random() < 0.1
              else rng.uniform(-1, 1) * 10.0 ** rng.randrange(-14, 20) for _ in range(size)]
    level = rng.randrange(4)
    exact = json.dumps(nest(values, shape), indent=2).replace("\n", "\n" + "  " * level)
    ok = all(v == 0.0 or 2.0 ** -49 <= abs(v) < 2.0 ** 126 for v in values)
    assert call(values, shape, level, len(exact)) == (exact if ok else None)
    assert call(values, shape, level, len(exact) - 1) is None
    assert call(values, shape, level, rng.randrange(len(exact))) is None
    written += ok
    declined += not ok
assert call([1.0], [1], 0, 1 << 20) == "[\n  1.0\n]"
for shape, level in (([0], 0), ([2, 0], 0), ([1], -1), ([1] * 33, 0), ([1], 1 << 21)):
    assert call([1.0], shape, level, 1 << 20) is None
print(written, declined)
"""


def test_format_kernel_stays_inside_its_buffers_under_address_and_undefined_sanitizers(sanitized):
    written, declined = map(int, sanitized(SANITIZED_FORMAT).split())
    assert written >= 100 and declined >= 50


SANITIZED_GAMMALN = r"""
import math, random, struct
rng = random.Random(11)
special = [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, sys.float_info.min,
           2.0, 3.0, 13.0, 1000.0, 1e8, 2.556348e305, sys.float_info.max]
def draw():
    if rng.random() < 0.05:
        return rng.choice(special)
    return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(63)))[0]
answered = declined = 0
for _ in range(3000):
    values = [draw() for _ in range(rng.randrange(40))]
    n = len(values)
    x, out = libc.malloc(max(n, 1) * 8), libc.malloc(max(n, 1) * 8)
    ctypes.memmove(x, struct.pack(f"<{n}d", *values), n * 8)
    failed = lib.hbtm_gammaln(x, n, out)
    good = [v > 0 and v != math.inf for v in values]
    assert failed == (good.index(False) + 1 if False in good else 0), (values, failed)
    written = struct.unpack(f"<{n}d", ctypes.string_at(out, n * 8))
    assert not any(math.isnan(v) for v in written[:failed - 1 if failed else n])
    answered += failed == 0
    declined += failed > 0
    libc.free(x)
    libc.free(out)
print(answered, declined)
"""


def test_gammaln_kernel_stays_inside_its_buffers_under_address_and_undefined_sanitizers(sanitized):
    answered, declined = map(int, sanitized(SANITIZED_GAMMALN).split())
    assert answered >= 100 and declined >= 100


# Each case plants its return code: 0; j + 1 when token j's event is its own, so
# a denominator underflows to 0 (K=1, concentrations 1e-200); or -(j + 1) for a
# trait outside [0, K). The tables must then match a recount, token j unmoved.
SANITIZED_SWEEP = r"""
import random, struct
rng = random.Random(23)


def block(code, values):
    pointer = libc.malloc(max(8 * len(values), 1))
    ctypes.memmove(pointer, struct.pack(f"<{len(values)}{code}", *values), 8 * len(values))
    return pointer

def tally(z, m_idx, e_idx, t_idx, i_idx, m_n, k_n, e_n, t_n, i_n):
    tables = [[0] * size for size in (m_n * k_n, k_n * e_n, k_n * e_n * t_n, k_n * e_n * i_n, k_n)]
    for k, m, e, t, i in zip(z, m_idx, e_idx, t_idx, i_idx):
        ke = k * e_n + e
        for table, at in zip(tables, (m * k_n + k, ke, ke * t_n + t, ke * i_n + i, k)):
            table[at] += 1
    return tables

counts = [0, 0, 0]  # answered, degenerate, outside
for case in range(400):
    k_n = (1, 20)[case % 2] if case % 5 < 2 else rng.randrange(1, 21)
    lengths = ([1] * rng.randrange(1, 6) if case % 3 == 0
               else [rng.randrange(1, 9) for _ in range(rng.randrange(1, 6))])
    n = sum(lengths)
    dims = (len(lengths), k_n, rng.randrange(2, 5), rng.randrange(1, 4), rng.randrange(1, 4))
    m_idx = [m for m, length in enumerate(lengths) for _ in range(length)]
    e_idx, t_idx, i_idx = ([rng.randrange(side) for _ in range(n)] for side in dims[2:])
    z = [rng.randrange(k_n) for _ in range(n)]
    alpha, beta, gamma, delta = (rng.uniform(0.01, 2.0) for _ in range(4))
    want = 0
    if k_n == 1 and n >= 3 and rng.random() < 0.5:
        # every other token shares (0, 0, 0), so each of its weights keeps one
        # tiny factor at most; token j's event 1 is its own
        alpha = beta = gamma = delta = 1e-200
        e_idx, t_idx, i_idx = [0] * n, [0] * n, [0] * n
        j = rng.randrange(n)
        e_idx[j] = 1
        want = j + 1
    tables = tally(z, m_idx, e_idx, t_idx, i_idx, *dims)
    old = list(z)
    if rng.random() < 0.25:
        j = rng.randrange(n)
        z[j] = rng.choice([-1, k_n, k_n + 5])
        if want == 0 or j < want:
            want = -(j + 1)
    u = [rng.choice([0.0, 1 - 2 ** -53]) if rng.random() < 0.1 else rng.random()
         for _ in range(n)]
    arrays = [m_idx, e_idx, t_idx, i_idx, z, *tables]
    blocks = [block("q", a) for a in arrays] + [block("d", u), libc.malloc(8 * k_n)]
    e_n, t_n, i_n = dims[2:]
    got = lib.hbtm_sweep(n, k_n, e_n, t_n, i_n, alpha, beta, e_n * beta, gamma, t_n * gamma,
                         delta, i_n * delta, *blocks)
    assert got == want, (case, got, want)
    after = [list(struct.unpack(f"<{len(a)}q", ctypes.string_at(p, 8 * len(a))))
             for a, p in zip(arrays, blocks)]
    z = [k if 0 <= k < k_n else k_old for k, k_old in zip(after[4], old)]
    assert after[5:] == tally(z, m_idx, e_idx, t_idx, i_idx, *dims), case
    counts[(want > 0) + 2 * (want < 0)] += 1
    for pointer in blocks:
        libc.free(pointer)
print(*counts)
"""


def test_sweep_kernel_stays_inside_its_buffers_under_address_and_undefined_sanitizers(sanitized):
    answered, degenerate, outside = map(int, sanitized(SANITIZED_SWEEP).split())
    assert answered >= 200 and degenerate >= 20 and outside >= 50

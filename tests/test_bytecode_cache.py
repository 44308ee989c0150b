"""sctest's own modules keep their bytecode beside them even while
PYTHONDONTWRITEBYTECODE is set, and nothing else's does.

Each test imports a copy of src/sctest in a fresh interpreter with
PYTHONDONTWRITEBYTECODE=1.  The copy takes the Keccak build along, so it
does not compile keccak.c again, but no bytecode.
"""

import importlib.machinery
import importlib.util
import json
import marshal
import os
import py_compile
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sctest._kernels.keccak  # noqa: F401  (builds the kernel the copies take along)

SRC = Path(__file__).resolve().parent.parent / "src"
IMPORT = "import sctest.fuzzing, sctest.concolic"
# the .py files of the sctest modules the importing process holds
LIST_MODULES = (
    "import json, sys; print(json.dumps(sorted(m.__file__ for n, m in"
    " list(sys.modules.items()) if n.split('.')[0] == 'sctest'"
    " and (getattr(m, '__file__', None) or '').endswith('.py'))))"
)


@pytest.fixture
def src(tmp_path) -> Path:
    """A copy of src/sctest with its Keccak build and no bytecode."""
    out = tmp_path / "src"
    shutil.copytree(SRC / "sctest", out / "sctest", ignore=shutil.ignore_patterns("__pycache__"))
    cache = out / "sctest" / "_kernels" / "__pycache__"
    cache.mkdir()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    for build in (SRC / "sctest" / "_kernels" / "__pycache__").glob(f"keccak-*{suffix}"):
        shutil.copy2(build, cache)
    return out


def _python(code: str, *path: Path, verbose: bool = False) -> subprocess.CompletedProcess:
    env = {
        **os.environ,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.pathsep.join(map(str, path)),
    }
    cmd = [sys.executable, *(["-v"] if verbose else []), "-c", code]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def _cold_import(src: Path) -> dict[Path, Path]:
    """Import sctest.fuzzing and sctest.concolic from src; the .pyc each
    imported module's source should have, sctest/__init__.py left out."""
    out = _python(f"{IMPORT}; {LIST_MODULES}", src).stdout
    sources = [Path(f) for f in json.loads(out) if Path(f) != src / "sctest" / "__init__.py"]
    assert len(sources) > 20
    return {s: Path(importlib.util.cache_from_source(str(s))) for s in sources}


def _pycs(root: Path) -> set[Path]:
    return set(root.rglob("*.pyc"))


def _compiled_as_py_compile_would(pyc: Path, source: Path, tmp: Path) -> bool:
    """Whether pyc holds the timestamp header and the code py_compile
    writes for source.  The code is compared unmarshalled: on Python 3.10
    marshal flags an object for back-reference by its reference count,
    so two processes can write one code object as different bytes."""
    out = tmp / "reference.pyc"
    py_compile.compile(
        str(source), cfile=str(out), doraise=True,
        invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP,
    )
    ours, ref = pyc.read_bytes(), out.read_bytes()
    return ours[:16] == ref[:16] and marshal.loads(ours[16:]) == marshal.loads(ref[16:])


def test_a_cold_import_writes_the_standard_pyc_of_each_module(src, tmp_path):
    pycs = _cold_import(src)
    assert _pycs(src) == set(pycs.values())
    for source, pyc in pycs.items():
        assert _compiled_as_py_compile_would(pyc, source, tmp_path), source
    # byte for byte the files Python writes itself without the flag
    written = {p: p.read_bytes() for p in pycs.values()}
    for pyc in written:
        pyc.unlink()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-c", IMPORT], env={**env, "PYTHONPATH": str(src)}, check=True)
    assert {p: p.read_bytes() for p in written} == written


def test_a_second_import_loads_every_pyc_and_leaves_it_as_it_was(src):
    pycs = _cold_import(src)
    before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in pycs.values()}
    log = _python(IMPORT, src, verbose=True).stderr
    for source, pyc in pycs.items():
        assert f"code object from {str(pyc)!r}" in log, source
        assert f"code object from {source}\n" not in log, source
    assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in pycs.values()} == before
    assert _pycs(src) == set(pycs.values())


def test_an_edited_source_runs_and_rewrites_its_pyc(src, tmp_path):
    pycs = _cold_import(src)
    source = src / "sctest" / "errors.py"
    source.write_text(source.read_text() + "\nEDITED = 'yes'\n")
    out = _python(f"{IMPORT}; import sctest.errors; print(sctest.errors.EDITED)", src)
    assert out.stdout == "yes\n"
    assert _compiled_as_py_compile_would(pycs[source], source, tmp_path)


def test_an_unwritable_cache_is_silent(src):
    # a regular file where __pycache__ should be: writing fails even as root
    blocked = [
        d / "__pycache__" for d in [src / "sctest", *(src / "sctest").rglob("*")]
        if d.is_dir() and d.name not in ("__pycache__", "_kernels")
    ]
    assert len(blocked) > 1
    for path in blocked:
        path.write_text("not a directory")
    proc = _python(f"{IMPORT}; print(sctest.fuzzing.Corpus.__name__)", src)
    assert (proc.stdout, proc.stderr) == ("Corpus\n", "")
    assert all(path.read_text() == "not a directory" for path in blocked)


def test_a_module_outside_sctest_gets_no_pyc(src, tmp_path):
    other = tmp_path / "other"
    other.mkdir()
    (other / "outside.py").write_text("VALUE = 1\n")
    proc = _python(f"{IMPORT}; import outside; print(outside.VALUE)", src, other)
    assert proc.stdout == "1\n"
    assert _pycs(other) == set()
    assert _pycs(src)

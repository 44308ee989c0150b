"""Build and load the compiled Keccak-256 sponge, keccak.c.

keccak256(buffer) -> bytes uses the legacy 0x01 padding, takes any length
and any contiguous buffer, and caches nothing between calls.

Importing this module compiles keccak.c with the C compiler sysconfig
names (CC, -O2 -shared -fPIC, Python's include directory) into
__pycache__/ beside it, unless that build is there already, and loads it:
- The file name carries a hash of the source and the flags, plus the
  interpreter's extension suffix (sysconfig's EXT_SUFFIX), so an edited
  source or another Python ABI gets its own build.
- The compiler writes a temporary name that is then renamed into place,
  so concurrent first imports never load a half-written file.
- The build is kept whether or not PYTHONDONTWRITEBYTECODE is set: it is
  not bytecode, and without it every fresh process would compile again.
  sctest's own modules keep their bytecode by the same rule (see the
  sctest package docstring), except that a failed bytecode write is
  silent.
- A new build deletes the builds of older keys for the same suffix, so
  edits of the source do not pile up files.
- Only a build imports subprocess, shlex and sysconfig; loading an
  existing build needs none of them.
There is no second implementation to fall back to.  A missing compiler or
missing Python headers fail the import with an ImportError that names the
command and its stderr; a __pycache__ that cannot be made or written fails
it with one that names the directory.
"""

import hashlib
import importlib.machinery
import importlib.util
import os
from pathlib import Path

SOURCE = Path(__file__).with_suffix(".c")
FLAGS = ("-O2", "-shared", "-fPIC")
# the first extension suffix is sysconfig's EXT_SUFFIX, without sysconfig
SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def build(cache: Path, cc: str | None = None) -> Path:
    """Compile keccak.c into `cache` unless this source was built there
    with these flags already; return the path of the built module.

    `cc` defaults to sysconfig's CC.  Raises ImportError when the cache
    directory cannot be made or written, or the compiler cannot run or
    fails.
    """
    key = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode())
    out = cache / f"keccak-{key.hexdigest()[:16]}{SUFFIX}"
    if out.exists():
        return out
    import shlex
    import subprocess
    import sysconfig

    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    cmd = [
        *shlex.split(cc or sysconfig.get_config_var("CC")), *FLAGS,
        f"-I{sysconfig.get_paths()['include']}", str(SOURCE), "-o", str(tmp),
    ]
    try:
        cache.mkdir(exist_ok=True)
    except OSError as exc:
        raise ImportError(f"cannot build Keccak kernel: cannot create {cache}: {exc}") from exc
    if not os.access(cache, os.W_OK):
        raise ImportError(f"cannot build Keccak kernel: {cache} is not writable")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise ImportError(f"cannot build Keccak kernel: {shlex.join(cmd)}: {exc}") from exc
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise ImportError(
            f"cannot build Keccak kernel: {shlex.join(cmd)} exited "
            f"{proc.returncode}:\n{proc.stderr}"
        )
    os.replace(tmp, out)
    for stale in cache.glob(f"keccak-*{SUFFIX}"):
        if stale != out:
            stale.unlink(missing_ok=True)
    return out


def _load(path: Path):
    spec = importlib.util.spec_from_file_location("sctest._kernels._keccak", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


keccak256 = _load(build(SOURCE.parent / "__pycache__")).keccak256

"""sctest: hybrid smart-contract testing engine.

Coverage-guided fuzzing over an EVM-subset interpreter, plus a concolic
engine (shadow execution, path constraints and a built-in word-level
solver) that tries to flip the branches fuzzing leaves uncovered.

Importing this package makes sctest's own modules keep their bytecode
beside them even while sys.dont_write_bytecode is set (python -B or
PYTHONDONTWRITEBYTECODE), as sctest._kernels.keccak keeps its build, so
a fresh process loads them instead of compiling them again:
- It seeds sys.path_importer_cache with a finder for each directory of
  the package, whose source loader writes the bytecode of every module it
  compiles.  No other module's bytecode is written, and the flag itself
  is never changed.
- The file is the standard timestamp .pyc at cache_from_source(path),
  the one Python writes without the flag, so runs with and without it
  share one cache and an edited source invalidates it as usual.
- It is written through SourceFileLoader.set_data: under a temporary
  name renamed into place, so concurrent first imports never load a
  half-written file.  A write that fails (a read-only checkout) is
  silent, and the module runs from the code just compiled.
This file itself is compiled in every process, so it stays small.
"""

import importlib.machinery
import importlib.util
import marshal
import os
import sys

__version__ = "0.1.0"


class _CachingLoader(importlib.machinery.SourceFileLoader):
    # the import system calls source_to_code only when no valid .pyc exists
    def source_to_code(self, data, path, *, _optimize=-1):
        code = super().source_to_code(data, path, _optimize=_optimize)
        if not sys.dont_write_bytecode:
            return code  # get_code writes the file itself
        try:
            mtime = int(self.path_stats(path)["mtime"])
        except OSError:
            return code
        # the size is that of the source compiled, so an edit between its
        # read and the stat above leaves a file that does not validate
        header = [0, mtime, len(data)]
        self.set_data(
            importlib.util.cache_from_source(path),
            importlib.util.MAGIC_NUMBER
            + b"".join((n & 0xFFFFFFFF).to_bytes(4, "little") for n in header)
            + marshal.dumps(code),
        )
        return code


def _install(path: str) -> None:
    # a subpackage's __path__ is its name joined to its parent finder's path
    finder = importlib.machinery.FileFinder(
        path, (_CachingLoader, importlib.machinery.SOURCE_SUFFIXES)
    )
    sys.path_importer_cache[path] = finder
    for entry in os.scandir(finder.path):
        if entry.is_dir() and entry.name != "__pycache__":
            _install(os.path.join(finder.path, entry.name))


for _path in __path__:
    _install(_path)

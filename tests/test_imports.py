"""Import hygiene: subpackages load in any order, every module-level
import is read, every definition is read or kept on purpose, every
console script resolves, and every binding the traced benchmark wraps
exists.

coverage.bottleneck imports concolic.shadow, and the concolic package
imports drive, which imports coverage.covmap.  That works only while
each side imports the other's submodules, not its package names.  A
fresh interpreter per subpackage keeps a cycle from hiding behind the
import order of the test session.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (module, name) -> why a module-level import the module never reads stays
UNREAD_ALLOWED = {
    ("sctest.concolic.solve", "keccak256"): (
        "perfbench/layers.py counts Keccak calls per binding site and"
        " wraps this binding in every traced round"
    ),
    ("sctest.evm.snapshots", "keccak256"): (
        "perfbench/layers.py counts Keccak calls per binding site and"
        " wraps this binding in every traced round"
    ),
}

# (module, definition) -> why a top-level function or class, or a method,
# that nothing in src/, perfbench/ or scripts/ reads stays
UNCALLED_ALLOWED = {
    ("sctest.coverage.report", "render_report"): (
        "ROADMAP item 4: `sctest run` writes coverage.cov through it"
    ),
    ("sctest.coverage.uncovered", "extract_uncovered_functions"): (
        "ROADMAP item 2: the router reads which functions stay uncovered"
    ),
    ("sctest.evm.world", "EvmWorld.storage_view"): (
        "ROADMAP item 3: the slots a call writes are a storage diff around it"
    ),
    ("sctest.fuzzing.campaign", "run_campaign"): (
        "README's example: one campaign to a budget, minimized and reported"
    ),
    ("sctest.fuzzing.corpus", "Corpus.save"): (
        "ROADMAP item 4: `sctest run` writes corpus/ through it"
    ),
    ("sctest.fuzzing.corpus", "Corpus.load"): (
        "ROADMAP item 4: `sctest replay` reads a saved corpus through it"
    ),
    ("sctest.fuzzing.target", "CompileError.render"): (
        "ROADMAP item 4: each repair step of item 3 is logged with its E-code"
    ),
    ("sctest.fuzzing.target", "parse_target"): (
        "the public .ft entry point; ROADMAP item 3's repair loop parses with it"
    ),
    ("sctest.fuzzing.target", "render_target"): (
        "ROADMAP item 3: prints proposed targets"
    ),
}

# (importing module, imported module, name) -> why a `_`-private name
# crosses from one subpackage into another
PRIVATE_ALLOWED = {
    ("sctest.concolic.shadow", "sctest._kernels.interp_py", "_ensure"): (
        "the shadow grows memory through the kernel's own helper, so the"
        " two share one memory cap"
    ),
    ("sctest.concolic.shadow", "sctest.evm.engine", "_route"): (
        "the shadow enters a frame at the pc the engine's fallback rule picks"
    ),
    ("sctest.concolic.shadow", "sctest.evm.engine", "_TxCtx"): (
        "the shadow starts its transaction as the engine does: block, value"
        " transfer and storage overlay"
    ),
}


@pytest.mark.parametrize(
    "module", ["sctest.coverage", "sctest.concolic", "sctest.fuzzing", "sctest.evm"]
)
def test_subpackage_imports_first_in_a_fresh_interpreter(module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_sctest_generates_no_code():
    # dataclasses compiles each decorated class's methods from source in
    # every process; sctest's records are written out instead (record.py)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; import sctest.fuzzing, sctest.concolic, sctest.coverage,"
        " sctest.evm; print('dataclasses' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _module_level_imports(body):
    """Names bound by the imports in body, outside functions and classes."""
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "handlers", "finalbody"):
                yield from _module_level_imports(getattr(node, field, ()))


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _modules(root: Path) -> list[Path]:
    """The .py files under root, package __init__.py files left out."""
    return [p for p in sorted(root.rglob("*.py")) if p.name != "__init__.py"]


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _names_read(tree) -> set[str]:
    return {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def test_every_module_level_import_is_read():
    unread = set()
    for path in _modules(SRC / "sctest"):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), str(path))
        read = _exported(tree) | _names_read(tree)
        unread |= {
            (module, name)
            for name in _module_level_imports(tree.body)
            if name not in read
        }
    assert unread - UNREAD_ALLOWED.keys() == set()
    # an entry whose name is read now, or no longer imported, must go
    assert UNREAD_ALLOWED.keys() <= unread


def _definitions(tree):
    """(qualified name, name) of each top-level function and class, and
    of each method of a top-level class that is not a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, defs[:2]) and not (
                    m.name.startswith("__") and m.name.endswith("__")
                ):
                    yield f"{node.name}.{m.name}", m.name


def test_every_definition_is_read_or_kept_on_purpose():
    # a name counts as read where it is loaded as a name or an attribute
    read = set()
    for path in [p for d in ("src", "perfbench", "scripts") for p in _modules(ROOT / d)]:
        tree = ast.parse(path.read_text(), str(path))
        read |= _names_read(tree) | {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        }
    uncalled = set()
    for path in _modules(SRC / "sctest"):
        tree = ast.parse(path.read_text(), str(path))
        uncalled |= {
            (_module_name(path), qualified)
            for qualified, name in _definitions(tree)
            if name not in read
        }
    assert uncalled - UNCALLED_ALLOWED.keys() == set()
    # an entry that something reads now, or that no longer exists, must go
    assert UNCALLED_ALLOWED.keys() <= uncalled


def _subpackage(module: str) -> str:
    """sctest.<subpackage> of a dotted module name (a top-level module
    such as sctest.errors is its own)."""
    return ".".join(module.split(".")[:2])


def test_no_module_imports_a_private_name_from_another_subpackage():
    crossing = set()
    for path in sorted((SRC / "sctest").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if path.name == "__init__.py" else parts)
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package
            )
            crossing |= {
                (module, source, alias.name)
                for alias in node.names
                if alias.name.startswith("_")
                and not alias.name.startswith("__")
                and _subpackage(source) != _subpackage(module)
            }
    assert crossing - PRIVATE_ALLOWED.keys() == set()
    # an entry no longer imported must go
    assert PRIVATE_ALLOWED.keys() <= crossing


def _project_scripts() -> dict[str, str]:
    """name -> "module:attr" for each [project.scripts] entry of
    pyproject.toml (read by hand: tomllib is new in Python 3.11)."""
    scripts, section = {}, None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, _, ref = line.partition("=")
            scripts[name.strip().strip("\"'")] = ref.strip().strip("\"'")
    return scripts


def test_every_console_script_imports_to_a_callable():
    for name, ref in _project_scripts().items():
        module, _, attr = ref.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{name} = {ref} is not callable"


def test_every_benchmark_binding_resolves():
    # perfbench/layers.py wraps these names where they are bound; a name
    # gone from its module would crash every traced benchmark round
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py"
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.BINDINGS
    for module, name, _, _ in layers.BINDINGS:
        obj = getattr(importlib.import_module(module), name, None)
        assert callable(obj), f"{module}.{name} is not callable"
    from sctest.fuzzing.campaign import Campaign

    assert callable(Campaign.run)

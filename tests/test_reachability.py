"""Every module under ``src/repro`` is imported from an entry point.

The static import closure starts at the CLI (``repro.cli``,
``repro.__main__``), the ``repro`` package itself, and the scripts in
``examples/``, ``benchmarks/`` and ``perfbench/``. It follows every
``import``/``from`` statement, including those inside functions. A
module outside it is code only its own tests reach, and should be
deleted with those tests rather than carried along.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRIPT_DIRS = ("examples", "benchmarks", "perfbench")
ROOT_MODULES = ("repro", "repro.cli", "repro.__main__")

#: modules no entry point imports, each with the reason it stays
TEST_ONLY = {
    "repro.workloads.characterize":
        "the measuring tool of tests/test_characterize.py, which checks "
        "workload-generator behaviour every experiment relies on",
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def source_of(name: str) -> Optional[Path]:
    base = SRC.joinpath(*name.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def imported_names(path: Path) -> Iterator[str]:
    """Every dotted name an import in ``path`` may load as a module."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            assert node.level == 0, f"relative import in {path}"
            yield node.module
            # ``from package import submodule`` loads the submodule
            yield from (f"{node.module}.{alias.name}"
                        for alias in node.names)


def import_closure() -> Set[str]:
    pending = [source_of(name) for name in ROOT_MODULES]
    for directory in SCRIPT_DIRS:
        pending.extend(sorted((ROOT / directory).glob("*.py")))
    reached: Set[str] = set(ROOT_MODULES)
    parsed: Set[Path] = set()
    while pending:
        path = pending.pop()
        if path in parsed:
            continue
        parsed.add(path)
        for name in imported_names(path):
            parts = name.split(".")
            if parts[0] != "repro":
                continue
            # importing a.b.c runs a, a.b and a.b.c
            for depth in range(1, len(parts) + 1):
                prefix = ".".join(parts[:depth])
                source = source_of(prefix)
                if source is not None and prefix not in reached:
                    reached.add(prefix)
                    pending.append(source)
    return reached


def test_every_module_is_reached_from_an_entry_point():
    modules = {module_name(path) for path in (SRC / "repro").rglob("*.py")}
    reached = import_closure()
    unreached = sorted(modules - reached - set(TEST_ONLY))
    assert not unreached, (
        f"modules no entry point imports: {unreached}; delete them with "
        f"their tests, or wire them into an entry point")
    # an exception that an entry point now imports is no longer one
    assert set(TEST_ONLY) <= modules - reached

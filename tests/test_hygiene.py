"""Static scan of the package and its tests: no unused imports, no
__all__ entry that the module does not define, and no private top-level
name that nothing in the package reads.  The package root re-exports
every module's __all__."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import cesarobench

PACKAGE = sorted(Path(cesarobench.__file__).parent.glob("*.py"))
MODULES = PACKAGE + sorted(Path(__file__).parent.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree: ast.Module) -> list[str]:
    """A literal __all__; one built from other lists (the package root's)
    is checked by test_root_exports instead."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return list(ast.literal_eval(node.value))
            except ValueError:
                return []
    return []


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every import anywhere in the module."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((alias.asname or alias.name, node.lineno))
    return bound


def _defined(tree: ast.Module) -> set[str]:
    """Names bound by the module's top-level statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(name for name, _ in _imported(node))
    return names


def _reads(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names, attributes and import aliases."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_no_unread_module_names() -> None:
    trees = {path: _parse(path) for path in PACKAGE}
    exported = set().union(*(_exported(tree) for tree in trees.values()))
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unread = [
        f"{path.name}: {name}"
        for path, tree in trees.items()
        for name in sorted(_defined(tree) - exported - read)
        if not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unread, "defined but never read in the package:\n" + "\n".join(
        unread
    )


def test_no_unused_imports() -> None:
    unused = []
    for path in MODULES:
        tree = _parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(_exported(tree))
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _imported(tree)
            if name not in used
        ]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_all_names_defined() -> None:
    missing = []
    for path in MODULES:
        tree = _parse(path)
        defined = _defined(tree)
        missing += [
            f"{path.name}: {name}" for name in _exported(tree) if name not in defined
        ]
    assert not missing, "__all__ names not defined in their module:\n" + "\n".join(
        missing
    )


def test_root_exports() -> None:
    missing = [name for name in cesarobench.__all__ if not hasattr(cesarobench, name)]
    assert not missing, f"root __all__ names that do not resolve: {missing}"
    for module in ("analysis", "measures", "operators", "spaces"):
        names = importlib.import_module(f"cesarobench.{module}").__all__
        absent = sorted(set(names) - set(cesarobench.__all__))
        assert not absent, f"{module}.__all__ names missing from the root: {absent}"


def test_no_private_cross_module_imports() -> None:
    # Modules share only public names, so a module's private helpers stay
    # free to change.
    private = []
    for path in PACKAGE:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("cesarobench")
            ):
                private += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not private, "private names imported across modules:\n" + "\n".join(
        private
    )

"""Source hygiene: no module of the package imports a name it never uses,
and every definition in it is referenced somewhere."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "regulab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REPO = SRC.parent.parent
# Definitions that are called from outside the repository's code.
EXTERNAL_HOOKS = {"_Parser.error"}  # argparse calls it on a usage error


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A quoted annotation such as "IterationTrace" uses the names inside it.
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level function or class and
    each non-dunder method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs + (ast.ClassDef,)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree: ast.AST) -> Counter:
    """Names read, attributes accessed, and strings equal to an identifier
    (``getattr`` names, the benchmark's traced-function table)."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs[node.value] += 1
    return refs


def test_every_definition_is_referenced():
    refs = Counter()
    for top in ("src", "tests", "scripts", "bench"):
        for path in (REPO / top).rglob("*.py"):
            refs += _references(ast.parse(path.read_text()))
    unreferenced = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, name, node in _definitions(ast.parse(path.read_text())):
            # References inside the definition itself (recursion) do not count.
            if refs[name] - _references(node)[name] <= 0 and qualname not in EXTERNAL_HOOKS:
                unreferenced.append(f"{path.name}: {qualname}")
    assert not unreferenced, f"definitions nothing references: {', '.join(unreferenced)}"

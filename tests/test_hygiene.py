"""Source hygiene: no module of the package imports a name it never uses,
and every definition in it is referenced by the program, or is a listed
entry point that the tests reference."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "regulab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REPO = SRC.parent.parent
# Definitions that are called from outside the repository's code.
EXTERNAL_HOOKS = {"_Parser.error"}  # argparse calls it on a usage error
# Definitions whose references from tests/ count, each with its reason: an
# acceptance criterion exercises it, the package exports it as public API,
# or tests build their inputs with it.  References from tests/ to any
# other definition do not count, so test-only code shows up.
ENTRY_POINTS = {
    "restrict_chain": "criterion 3: chain restriction",
    "refines_edge": "criterion 3: refinement predicates",
    "refines_cylinder_chain": "criterion 3: refinement predicates",
    "markov_split_check": "criterion 5: Markov preservation",
    "IterationTrace.step_count": "criterion 7: step-count bound",
    "neighborhood_system": "criterion 8: public export, neighbourhood set systems",
    "vc_dimension": "criterion 8: public export, shattering dimension",
    "fps_packing_partition": "criterion 10: public export, FPS packing",
    "twr": "public export: the tower function of the paper schedule",
    "load_report": "public export of regulab.report: the reader of saved reports",
    "parse_fraction": "public export of regulab.report: the inverse of fraction_str",
    "BipartiteGraph.empty": "test fixture: empty pair graphs",
    "BipartiteGraph.from_edges": "test fixture: pair graphs from edge lists",
    "MultipartiteGraph.complete": "test fixture: complete t-partite hosts",
    "ThreeGraph.from_triples": "test fixture: 3-graphs from unsorted triples",
    "PartiteThreeGraph.from_triples": "test fixture: partite 3-graphs from unsorted triples",
    "PartiteThreeGraph.triples_of_parts": "test fixture: global triples of one part triple",
    "DeviationFunction2.from_rows": "test fixture: deviation tables for the c4 kernels",
    "random_chain_partition": "test fixture: random chain partitions for the audit oracles",
}


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


def _class_level(node: ast.AST) -> bool:
    """A classmethod or staticmethod."""
    return any(
        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
        for d in getattr(node, "decorator_list", ())
    )


def _references(tree: ast.AST, strings: bool = False, owner: str | None = None) -> Counter:
    """Names read, attributes accessed, ``Class.attr`` reads under that
    qualified key (``cls.attr`` inside class ``Class`` counting as
    ``Class.attr``), and, with ``strings``, strings equal to an identifier.
    ``owner`` is the class enclosing ``tree``, if any."""
    refs = Counter()
    stack = [(tree, owner)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
            if isinstance(node.value, ast.Name):
                base = owner if node.value.id == "cls" and owner else node.value.id
                refs[f"{base}.{node.attr}"] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs[node.value] += 1
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return refs


def _tree_references(*tops: str) -> Counter:
    """References from every module under ``tops``.  Strings count only in
    bench/ (the traced-function table) and in ``__init__.py`` (``__all__``):
    elsewhere a report key or message spelled like a definition is no use
    of it."""
    refs = Counter()
    for top in tops:
        for path in (REPO / top).rglob("*.py"):
            strings = top == "bench" or path.name == "__init__.py"
            refs += _references(ast.parse(path.read_text()), strings)
    return refs


def test_every_definition_is_referenced():
    refs = _tree_references("src", "scripts", "bench")
    test_refs = _tree_references("tests")
    unreferenced = []
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        for qualname, name, node in _definitions(ast.parse(path.read_text())):
            defined.add(qualname)
            # A classmethod or staticmethod is referenced only through its
            # own class, so a same-named definition elsewhere hides nothing.
            key, owner = (qualname, qualname.split(".")[0]) if _class_level(node) else (name, None)
            # References inside the definition itself (recursion) do not count.
            count = refs[key] - _references(node, owner=owner)[key]
            if qualname in ENTRY_POINTS:
                count += test_refs[key]
            if count <= 0 and qualname not in EXTERNAL_HOOKS:
                unreferenced.append(f"{path.name}: {qualname}")
    assert not unreferenced, f"definitions nothing references: {', '.join(unreferenced)}"
    assert not set(ENTRY_POINTS) - defined, "entry points that are not defined"

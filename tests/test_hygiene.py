"""Source hygiene: no module of the package imports a name it never uses,
every definition in it is referenced by the program, or is a listed
entry point that the tests reference, and every defaulted parameter is set
by some caller in the program, or is a listed part of the API."""

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
    "PartiteThreeGraph.triples_of_parts": "test fixture: global triples of one part triple",
    "DeviationFunction2.from_rows": "test fixture: deviation tables for the c4 kernels",
    "random_chain_partition": "test fixture: random chain partitions for the audit oracles",
}
# Defaulted parameters that no caller in src/, scripts/ or bench/ sets, each
# with its reason.  Any other default that nothing sets is a knob that does
# nothing: its default belongs in the code.
API_DEFAULTS = {
    "restrict_chain.vertex_subsets": "criterion 3: chain restriction keeps every vertex by default",
    "restrict_chain.edge_subsets": "criterion 3: chain restriction keeps every edge by default",
    "twr.cap": "public export: the tower's saturation cap, DEFAULT_CAP unless a caller asks",
    "neighborhood_system.side": "criterion 8: public export, either side of a bipartite graph",
    "vc_dimension.cap_d": "criterion 8: public export, no dimension cap unless a caller asks",
    "vc_dimension.cap_n": "criterion 8: public export, the shattering search's universe cap",
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


def _defaults(tree: ast.Module):
    """(qualified parameter name, called name, index, name) of each defaulted
    parameter of a top-level function or of a method that a call names:
    ``__init__`` is called through its class, and a method's positional
    index skips its self or cls.  The index is None for keyword-only ones."""
    funcs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs.append((node.name, node.name, 0, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                called = node.name if item.name == "__init__" else item.name
                if called.startswith("__"):
                    continue  # other dunders are called by the language
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                funcs.append((f"{node.name}.{item.name}", called, 0 if static else 1, item))
    for qualname, called, offset, node in funcs:
        args = node.args
        positional = args.posonlyargs + args.args
        for i, a in enumerate(positional[len(positional) - len(args.defaults) :]):
            index = len(positional) - len(args.defaults) + i - offset
            yield f"{qualname}.{a.arg}", called, index, a.arg
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield f"{qualname}.{a.arg}", called, None, a.arg


def _calls(*tops: str) -> dict[str, list[ast.Call]]:
    """Every call under ``tops``, by the name it calls (a plain name or the
    attribute called)."""
    calls: dict[str, list[ast.Call]] = {}
    for top in tops:
        for path in (REPO / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether ``call`` sets the parameter ``name`` at positional ``index``;
    ``*args`` and ``**kwargs`` count as setting it."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    )


def test_every_default_is_set_by_a_caller():
    """A default that no program caller sets is a knob that does nothing,
    unless it is listed in API_DEFAULTS; a listed one must stay unset."""
    calls = _calls("src", "scripts", "bench")
    unset, listed_but_set, defined = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        for key, called, index, name in _defaults(ast.parse(path.read_text())):
            defined.add(key)
            is_set = any(_sets(call, index, name) for call in calls.get(called, ()))
            if key in API_DEFAULTS and is_set:
                listed_but_set.append(key)
            elif key not in API_DEFAULTS and not is_set:
                unset.append(f"{path.name}: {key}")
    assert not unset, f"defaults that no caller sets: {', '.join(unset)}"
    assert not listed_but_set, f"listed defaults the program sets: {', '.join(listed_but_set)}"
    assert not set(API_DEFAULTS) - defined, "listed defaults that are not defined"


def test_partite_3graphs_are_built_only_in_core():
    """The bare ``PartiteThreeGraph(...)`` constructor is called only in
    core.py; everything else builds through ``from_triples`` or a loader,
    so the one placement loop, which checks every triple, builds every
    partite 3-graph."""
    callers = []
    for top in ("src", "scripts", "bench", "tests"):
        for path in sorted((REPO / top).rglob("*.py")):
            if path == SRC / "core.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name == "PartiteThreeGraph":
                        callers.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert not callers, f"bare PartiteThreeGraph(...) calls outside core.py: {', '.join(callers)}"


# Fast paths with no ``mode="naive"`` twin, each with the oracle that
# checks it: the certified bounds and the bulk paths with a line-loop twin.
UNMODED_FAST_PATHS = {
    "regulab.quasirandom.pair_bound_scaled": "the c4 kernel's bound, against c4_sum",
    "regulab.quasirandom.chain_first_pass": (
        "the octahedral kernel's counts, planes and bound, against oct_sum and literal_bound"
    ),
    "regulab.core._bulk_scan": "scan's bulk path, against its line loop",
    "regulab.generators.SplitMix64.accepted": "the bulk draw, against per-draw bernoulli",
}


def _naive_twins() -> set[str]:
    """Public functions of the package whose ``mode`` defaults to "fast"."""
    twins = set()
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            defaulted = args.args[len(args.args) - len(args.defaults) :]
            if any(a.arg == "mode" and getattr(d, "value", None) == "fast"
                   for a, d in zip(defaulted, args.defaults)):
                twins.add(f"regulab.{path.stem}.{node.name}")
    return twins


def test_every_fast_path_is_named_by_an_oracle_case():
    """Each public function with a ``mode="naive"`` twin, each certified
    bound and each bulk path with a line-loop twin is among the fast paths
    of some case of the oracle registry."""
    from regulab.oracles import CASES

    named = {f"{f.__module__}.{f.__qualname__}" for case in CASES for f in case.fast}
    twins = _naive_twins()
    assert {"regulab.quasirandom.pair_quasirandomness", "regulab.partitions.q_partition"} <= twins
    missing = sorted((twins | set(UNMODED_FAST_PATHS)) - named)
    assert not missing, f"fast paths no oracle case names: {', '.join(missing)}"

"""Every public name in `src/wazz` is reached: referenced from another place
in the package, exported in `__all__`, or timed by the benchmark's tracer
(`bench/tracing.py`'s `TRACED`).  A name only the tests use belongs in
`tests/`, as an oracle or a helper.  And every name a module imports is
read in it, as there is no linter to find a stale import."""

import ast
import importlib.util
from pathlib import Path

import wazz

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wazz"
TRACING = ROOT / "bench" / "tracing.py"

# Kept although only the tests call them.
ALLOWED = set()


def public_definitions(tree):
    """(qualified name, short name, def node) of every public top-level
    function and class and every public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def references(tree, owners):
    """(name, owner) for each name read in the tree as a name or an
    attribute, owner being the innermost node of owners around it, or None."""
    found = set()

    def walk(node, owner):
        owner = node if node in owners else owner
        if isinstance(node, ast.Name):
            found.add((node.id, owner))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, owner))
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    walk(tree, None)
    return found


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {name for _, name in tracing.TRACED}


def definitions():
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))]
    return trees, [(f"{module}.{qualified}", short, node) for module, tree in trees
                   for qualified, short, node in public_definitions(tree)]


def unreached():
    """The public names referenced nowhere outside their own definition."""
    trees, defined = definitions()
    owners = {node for _, _, node in defined}
    refs = set().union(*(references(tree, owners) for _, tree in trees))
    exempt = set(wazz.__all__) | traced_names()
    return [name for name, short, node in defined
            if short not in exempt and name not in ALLOWED
            and not any(ref == short and owner is not node for ref, owner in refs)]


def test_every_public_name_is_reached():
    assert unreached() == []


def test_allowlist_names_are_defined():
    # an allowed name that leaves the package leaves the list too
    assert ALLOWED <= {name for name, _, _ in definitions()[1]}


def unused_imports(tree):
    """The names a module imports and never reads, a name listed in its
    `__all__` counting as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != \
                "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_import_is_used():
    unused = {path.name: found for path in sorted(SRC.glob("*.py"))
              if (found := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert unused == {}


def test_an_unused_import_is_found():
    tree = ast.parse("from math import gcd, lcm\nimport os.path\n__all__ = ['os']\nlcm(1)\n")
    assert unused_imports(tree) == [(1, "gcd")]

"""Where `Fraction` may appear in `src/wazz`.

The scaled vector (d, ints) is the one vector format of the kernel, so a
`Fraction` is named only where a rational is read or printed as one
(`formats.parse_rat`, `formats.fmt_rat`) or is the answer itself
(`automata.trace`, `polyhedra.gauge`), and `linalg` imports nothing from
`fractions`.  The scan reads the source, so a name bound by an import under
another name, or reached as an attribute of the module, is caught too."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wazz"

# (module, top-level function) that may name `Fraction`
ALLOWED = {("formats", "parse_rat"), ("formats", "fmt_rat"), ("automata", "trace"),
           ("polyhedra", "gauge")}


def fraction_imports(tree):
    """(line, bound name, whether the name is the module) of each import
    from or of `fractions`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found += [(node.lineno, a.asname or a.name, False) for a in node.names]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.asname or a.name, True) for a in node.names
                      if a.name == "fractions"]
    return found


def fraction_uses(tree):
    """(top-level function or class, or None, line) of each read of
    `Fraction`, under any name an import gave it, outside the imports."""
    imports = fraction_imports(tree)
    names = {"Fraction"} | {name for _, name, module in imports if not module}
    modules = {name for _, name, module in imports if module}
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id in names
                    or isinstance(node, ast.Attribute) and node.attr == "Fraction"
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                found.append((owner, node.lineno))
    return found


def sources():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_fraction_is_named_only_at_the_boundary():
    outside = {(module, owner, line) for module, tree in sources().items()
               for owner, line in fraction_uses(tree) if (module, owner) not in ALLOWED}
    assert outside == set()


def test_every_allowed_place_names_fraction():
    # an allowed place that stops building one leaves the list too
    used = {(module, owner) for module, tree in sources().items()
            for owner, _ in fraction_uses(tree)}
    assert used == ALLOWED


def test_linalg_imports_no_fractions():
    assert fraction_imports(sources()["linalg"]) == []


def test_the_scan_finds_every_spelling():
    tree = ast.parse("from fractions import Fraction as F\nimport fractions as fr\n"
                     "def f():\n    return F(1)\n"
                     "class C:\n    x = fr.Fraction\n"
                     "y = Fraction\n")
    assert fraction_imports(tree) == [(1, "F", False), (2, "fr", True)]
    assert fraction_uses(tree) == [("f", 4), ("C", 6), (None, 7)]

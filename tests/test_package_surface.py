"""The package holds no public function or class that only tests, demos or
the benchmark reach: each one is loaded by name somewhere in package code.
No module imports a name it never uses."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rljp"

# module.name of public definitions that only code outside the package calls
OUTSIDE_ENTRY_POINTS = {
    "synthetic.write_corpus",  # writes the benchmark's corpora and the fixture
}


def test_every_public_definition_is_loaded_by_package_code():
    defined = set()
    loaded = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add((path.stem, node.name))
        for node in ast.walk(tree):
            # a bare name, or an attribute such as `opt_tree.save_tree`;
            # an import alone does not count
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in loaded and f"{module}.{name}" not in OUTSIDE_ENTRY_POINTS
    )
    assert unused == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}  # bound name -> line
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    # `import a.b` binds `a`
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []

"""Every public function, class and method in ``src/hodgediv`` has a caller
in the package or in the demos, not only in its own test.

The check is by name: a definition counts as used when its name occurs as a
variable, an attribute or an imported name anywhere in ``src/hodgediv`` or
``demos`` outside the definition itself.  Every name a module binds by a
top-level import is read in that module, too.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "hodgediv").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Public names whose callers all lie outside the package and the demos.
ALLOWED = {
    "DivisorClass.is_zero": "acceptance criterion 2 checks the genus-2 residual with it",
    "QMatrix.mul_vector": "acceptance criterion 10 checks the solver's answers with it",
    "psi_degree": "acceptance criterion 6 checks the cotangent degrees with it",
    "QMatrix.from_rows": "the benchmark and acceptance criterion 10 build systems with it",
}


def _names(tree: ast.AST) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
    return found


def _is_click_command(node) -> bool:
    """Registered on a click group by ``@<group>.command(...)``/``.group(...)``
    or made a group by ``@click.group(...)``."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function or class and
    each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE + DEMOS}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path in PACKAGE:
        for qualname, node in _public_definitions(trees[path]):
            if qualname in ALLOWED or _is_click_command(node):
                continue
            if used[node.name] - _names(node)[node.name] <= 0:
                unused.append(f"{path.name}: {qualname}")
    assert unused == []


def test_allowed_exceptions_still_exist():
    defined = {qualname for path in PACKAGE
               for qualname, _ in _public_definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined


def _private_definitions(tree: ast.Module):
    """(qualified name, node) of each private top-level function and each
    private method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                        and not item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def test_every_private_function_has_a_caller_in_the_package():
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [f"{path.name}: {qualname}" for path in PACKAGE
              for qualname, node in _private_definitions(trees[path])
              if used[node.name] - _names(node)[node.name] <= 0]
    assert unused == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by a top-level import that the module never reads; a name
    listed in ``__all__`` counts as read, and ``from __future__`` is exempt."""
    bound = []
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_every_import_is_used():
    unused = [f"{path.name}: {name}" for path in PACKAGE
              for name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []

"""The package's import structure: every nisqc module imports its siblings at
the top, takes only their public names, uses every name it imports, and the
layers below the exact search never import it. Every public name in the
package has a reader outside the tests."""

import ast
import time
from pathlib import Path

import nisqc.optimal
from nisqc.optimal import solve_exact

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nisqc"
# Modules the exact search builds on, so none of them may import it.
BELOW_OPTIMAL = ("schedule", "heuristic", "codegen", "smtlib")


def _sibling_imports(tree: ast.Module):
    """(node, sibling module, imported names) for every import of a nisqc
    module, relative or absolute, anywhere in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nisqc")):
            path = (node.module or "").removeprefix("nisqc").lstrip(".")
            names = [a.name for a in node.names]
            if path:   # from .module import names
                yield node, path.split(".")[0], names
            else:      # from . import modules
                yield from ((node, name, [name]) for name in names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("nisqc."):
                    yield node, a.name.split(".")[1], []


def _offences(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    top_level = {id(node) for node in tree.body}
    name = path.stem
    found = []
    for node, module, names in _sibling_imports(tree):
        where = f"{name}.py:{node.lineno}"
        if id(node) not in top_level:
            found.append(f"{where}: imports nisqc.{module} inside a function or class")
        found += [f"{where}: imports the private name {module}.{n}"
                  for n in names if n.startswith("_")]
        if name in BELOW_OPTIMAL and module == "optimal":
            found.append(f"{where}: imports optimal from a layer below it")
    return found


def test_modules_import_only_public_names_at_the_top():
    found = [o for path in sorted(SRC.glob("*.py")) for o in _offences(path)]
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    """The names path's imports bind that nothing in the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or \
                isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.stem}.py:{line}: imports {name} and never uses it"
            for name, line in bound.items() if name not in read]


def test_modules_use_every_name_they_import():
    """__init__.py is exempt: it imports names to export them."""
    found = [u for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for u in _unused_imports(path)]
    assert found == []


def _names_read(paths) -> set[str]:
    """Every name and attribute the files read (load, not store)."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_reader_outside_the_tests():
    """Each public top-level def and class is read in the package (not
    counting __init__.py's re-export), in demos/ or in perfbench/. A name
    that only tests read belongs in the tests."""
    read = _names_read([p for p in SRC.glob("*.py") if p.name != "__init__.py"]
                       + sorted((ROOT / "demos").glob("*.py"))
                       + sorted((ROOT / "perfbench").rglob("*.py")))
    unread = [f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
              for node in ast.parse(path.read_text(), filename=str(path)).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in read]
    assert unread == []


def test_only_the_circuit_module_calls_the_dependency_rule():
    """Every other module reads a circuit's lists from Circuit.dag, which
    builds them once per circuit."""
    found = [f"{path.stem}.py:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "circuit.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).rsplit(".", 1)[-1] == "predecessor_lists"]
    assert found == []


def test_perfbench_clock_hook_is_the_solvers():
    """perfbench swaps nisqc.optimal.time for a read-counting clock, so the
    solver must read its clock through that module attribute."""
    assert nisqc.optimal.time is time
    assert solve_exact.__module__ == "nisqc.optimal"

"""The package's own import graph has no cycle."""

import ast
from pathlib import Path

import pbpstate

PACKAGE = Path(pbpstate.__file__).resolve().parent


def _imported_modules(path, modules):
    """The package modules that ``path`` imports relatively, at any depth
    (inside a function or an ``if TYPE_CHECKING`` block too)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module:
            found.add(node.module.split(".")[0])
        else:
            # ``from . import x``: x is a module, or a name of __init__.
            found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def _import_graph():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    return {name: _imported_modules(path, modules) for name, path in modules.items()}


def _cycle(graph):
    """One import cycle as a list of modules, first repeated last, or None."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for imported in sorted(graph.get(module, ())):
            cycle = visit(imported)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return None


def test_the_graph_holds_imports_at_any_depth():
    graph = _import_graph()
    assert {"cli", "models", "pipeline", "records", "slots"} <= set(graph)
    # cli imports the command modules inside its command functions.
    assert {"pipeline", "records", "evaluation"} <= graph["cli"]


def test_no_import_cycle_among_the_package_modules():
    cycle = _cycle(_import_graph())
    assert cycle is None, " -> ".join(cycle)

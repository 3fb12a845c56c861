"""Import rules of the package, mostly read from the source with ``ast``.

Every import sits at module level, so a module's dependencies show at its
top; ``yaml`` is the one exception, imported only when a config file is
read. The package-internal ``from .x import`` graph has no cycle, and the
CLI's start-up imports no thread pool or logging.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lidarseq"
LATE_IMPORTS = {"yaml"}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree: ast.AST, function=None):
    """(innermost enclosing function name or None, node) for every import."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield function, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _imports(child, inner)


def _local_targets(node: ast.ImportFrom, modules) -> list[str]:
    if node.level != 1:
        return []
    # "from . import a, b" names modules; "from .a import x" names one
    names = [alias.name for alias in node.names] if node.module is None else [node.module]
    return [name for name in names if name in modules]


def _find_cycle(graph: dict[str, set[str]]) -> list[str]:
    state: dict[str, str] = {}
    path: list[str] = []

    def visit(node):
        state[node] = "open"
        path.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        state[node] = "done"
        path.pop()
        return []

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return []


def test_the_package_sources_are_found():
    assert {"__init__", "imaging", "sequence", "voxels"} <= set(_modules())


def test_no_import_inside_a_function():
    late = [
        f"{name}.{function} line {node.lineno}"
        for name, tree in _modules().items()
        for function, node in _imports(tree)
        if function is not None
        and not (isinstance(node, ast.Import) and {a.name for a in node.names} <= LATE_IMPORTS)
    ]
    assert late == []


def test_module_level_imports_form_no_cycle():
    modules = _modules()
    graph = {name: set() for name in modules}
    for name, tree in modules.items():
        for function, node in _imports(tree):
            if function is None and isinstance(node, ast.ImportFrom):
                graph[name].update(_local_targets(node, modules))
    assert _find_cycle(graph) == []


def test_a_cycle_is_found():
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


def test_the_cli_loads_no_executor_or_logging():
    # concurrent.futures, which loads logging, adds about 8 ms to every CLI start (-X importtime)
    probe = "import sys, lidarseq.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"

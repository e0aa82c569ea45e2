"""The modules of src/cqedkit import each other without a cycle.

Every import between them counts, at module level or inside a function,
read from the source with ast as test_dead_code does.  A cycle means a
lower layer reaches back up into one above it.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cqedkit"


def _targets(node, package):
    """Package-relative dotted names an import statement may load: for
    `from .a import b` both "a" and "a.b", since b may be a module."""
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[2] for alias in node.names
                if alias.name.split(".")[0] == package]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 1:
        base = node.module or ""
    elif node.level == 0 and (node.module or "").split(".")[0] == package:
        base = node.module.partition(".")[2]
    else:
        return []
    return [base] + [f"{base}.{alias.name}".lstrip(".")
                     for alias in node.names]


def import_graph(src_dir):
    """{module: set of the package's modules it imports} for every module
    under src_dir, the package's __init__ included."""
    modules = {path.stem for path in src_dir.glob("*.py")}
    graph = {}
    for name in modules:
        path = src_dir / f"{name}.py"
        graph[name] = {
            first for node in ast.walk(ast.parse(path.read_text(), str(path)))
            for target in _targets(node, src_dir.name)
            if (first := target.split(".")[0]) in modules and first != name}
    return graph


def find_cycle(graph):
    """The depth-first import path that first closes a cycle, ending at
    the module it returns to, or None.  Modules and imports are visited in
    sorted order, so the answer is stable."""
    state = {}  # module -> "open" while on the path, "done" after

    def visit(module, path):
        state[module] = "open"
        path.append(module)
        for dep in sorted(graph[module]):
            if state.get(dep) == "open":
                return path + [dep]
            if dep not in state:
                cycle = visit(dep, path)
                if cycle:
                    return cycle
        path.pop()
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module, [])
            if cycle:
                return cycle
    return None


def test_graph_reads_every_form_of_import(tmp_path):
    pkg = tmp_path / "cqedkit"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("from . import b, c as cc\n")
    (pkg / "b.py").write_text("def f():\n    from .c import x\n")
    (pkg / "c.py").write_text("import cqedkit.d\nimport numpy\n")
    (pkg / "d.py").write_text("from cqedkit.a import y\n")
    graph = import_graph(pkg)
    assert graph == {"__init__": set(), "a": {"b", "c"}, "b": {"c"},
                     "c": {"d"}, "d": {"a"}}
    assert find_cycle(graph) == ["a", "b", "c", "d", "a"]


def test_package_has_no_import_cycle():
    cycle = find_cycle(import_graph(SRC))
    assert cycle is None, "import cycle: " + " -> ".join(cycle)

"""Every function, method and class in src/cqedkit is used by the program.

A name counts as used when src/cqedkit refers to it anywhere but at its
own definition, or when perfbench/ reaches it as a module attribute or
by its name in a string (perfbench wraps layer entry points by name).
Code that only a test calls belongs in tests/, next to the test.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: names that no command runs but that stay in src on purpose
ALLOWED = {
    # the spectrum-file writer and the report reader are the other halves
    # of read_spectrum and format_report: they define the formats the
    # CLI reads and writes, so they live beside them
    "write_spectrum",
    "parse_report",
}


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def _references(tree, bare_names=True):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif bare_names and isinstance(node, ast.Name):
            yield node.id


def unreferenced(src_dir, bench_dir):
    """(file name, line, name) of each definition under src_dir that
    nothing under src_dir, and no attribute or string under bench_dir,
    refers to."""
    defs, used = [], set()
    for path in sorted(src_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs += [(path.name, node.lineno, node.name)
                 for node in _definitions(tree)]
        used.update(_references(tree))
    for path in sorted(bench_dir.glob("*.py")):
        # perfbench's own functions may share a name with cqedkit's
        used.update(_references(ast.parse(path.read_text(), str(path)),
                                bare_names=False))
    return [d for d in defs if d[2] not in used]


def test_every_definition_in_src_is_used_by_the_program():
    unused = [d for d in unreferenced(ROOT / "src" / "cqedkit",
                                      ROOT / "perfbench")
              if d[2] not in ALLOWED]
    assert unused == [], ("defined in src/cqedkit but used only by tests "
                          f"or nothing: {unused}")


def test_allowlist_names_existing_definitions():
    defined = {node.name for path in (ROOT / "src" / "cqedkit").glob("*.py")
               for node in _definitions(ast.parse(path.read_text()))}
    assert ALLOWED <= defined

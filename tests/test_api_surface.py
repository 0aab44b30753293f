"""The package's API surface: no dead imports, no export only tests reach,
no dataclass field that nothing reads.

Every check reads the source with ``ast``, so they need no linter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperseries"
#: Trees whose code may reach an export: the package, demos, perfbench.
CALLER_TREES = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

#: Exports that no caller tree reaches, with the reason each stays.
_TEST_ONLY_EXPORTS = {
    "taylor_coeffs": "the paper's Taylor extraction, tested directly; "
                     "making the suite reach it would move report_hash",
}

#: Dataclass fields that no caller tree reads, with the reason each stays.
_WRITE_ONLY_FIELDS = {
    "DerivativeNet.label": "perfbench/execute.py builds a DerivativeNet "
                           "with label=, and perfbench is the benchmark",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    """Names an import binds at any depth, except ``__future__`` features."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
    return names


def _references(tree, skip=None):
    """Identifiers read as names or attributes, outside any function or
    class definition called ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_every_import_is_used(module):
    tree = _parse(PACKAGE / module)
    used = _references(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []


def test_every_export_is_reached_outside_tests():
    trees = [_parse(path) for top in CALLER_TREES for path in top.rglob("*.py")
             if path != PACKAGE / "__init__.py"]
    exports = _imported_names(_parse(PACKAGE / "__init__.py"))
    unreached = [name for name in exports
                 if not any(name in _references(tree, skip=name)
                            for tree in trees)]
    assert sorted(unreached) == sorted(_TEST_ONLY_EXPORTS)


def _dataclass_fields(tree):
    """(class, field) for every annotated field of a ``@dataclass``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
               for d in decorators):
            yield from ((node.name, stmt.target.id) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign))


def test_every_dataclass_field_is_read():
    """By attribute name only: a field whose name another class also reads
    (``label``, ``expr``) passes unseen."""
    loaded = {node.attr for top in CALLER_TREES for path in top.rglob("*.py")
              for node in ast.walk(_parse(path))
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    unread = ["%s.%s" % pair for path in PACKAGE.glob("*.py")
              for pair in _dataclass_fields(_parse(path))
              if pair[1] not in loaded]
    assert sorted(unread) == sorted(_WRITE_ONLY_FIELDS)

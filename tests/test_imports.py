"""No stale imports: every name a source module imports is read or exported."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def exported(tree):
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source):
    """(line, name) of each imported name the module never reads nor lists
    in ``__all__``; ``ast.walk`` also sees imports inside functions."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    read |= exported(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    found.append((node.lineno, name))
    return found


def test_every_import_is_read():
    files = sorted((SRC / "uncertain").rglob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in files
             for line, name in unused_imports(path.read_text())]
    assert not found, "imported but never read:\n" + "\n".join(found)


def test_the_scan_finds_stale_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nfrom math import pi, tau\n"
              "__all__ = ['tau']\n\n"
              "def f():\n    import sys\n    return pi\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (8, "sys")]

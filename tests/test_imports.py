"""No stale imports: every name a source module imports is read or exported.
And no needless ones: a command that calls no scipy function loads no scipy.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

from uncertain import cli

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


def run_child(code, *args):
    """Run ``code`` in a fresh interpreter that sees the package only
    through the absolute ``src`` on its ``PYTHONPATH``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_commands_that_call_no_scipy_function_load_no_scipy(tmp_path):
    bnn = tmp_path / "bnn.ckpt"
    assert cli.main(["train-bnn", "--steps", "2", "--checkpoint",
                     str(bnn)]) == 0
    run_child("""
import contextlib, io, sys
import uncertain.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert scipy_modules() == [], scipy_modules()
bnn, flow = sys.argv[1:]
for argv in (["train-flow", "--steps", "3", "--checkpoint", flow],
             ["sample", "--task", "flow", "--checkpoint", flow],
             ["predict", "--task", "bnn", "--checkpoint", bnn]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert scipy_modules() == [], (argv, scipy_modules())
""", bnn, tmp_path / "flow.ckpt")


def test_first_call_of_each_scipy_function_is_scipy_s_result():
    run_child("""
import sys
import numpy as np
from uncertain import tensor as T

assert "scipy" not in sys.modules
x = np.linspace(-4.0, 4.0, 37)
l = np.asfortranarray(np.tril(np.arange(1.0, 17.0).reshape(4, 4)))
b = np.arange(8.0).reshape(4, 2) - 3.0

def softplus_grad():
    with T.Tape() as tape:
        a = tape.watch(T.Tensor(x))
        grads = tape.backward(T.tensor_sum(T.softplus(a)))
    return grads[a.node_id].data

calls = {
    "sigmoid": lambda: T.sigmoid(x).data,
    "erf": lambda: T.erf(x).data,
    "solve_triangular": lambda: T.solve_triangular(l, b, 0),
    "softplus_grad": softplus_grad,
}
first = {name: call().tobytes() for name, call in calls.items()}

from scipy.linalg.lapack import dtrtrs
from scipy.special import erf, expit
want = {
    "sigmoid": expit(x), "erf": erf(x),
    "solve_triangular": dtrtrs(l, b, 1, 0)[0], "softplus_grad": expit(x),
}
for name, call in calls.items():
    assert first[name] == want[name].tobytes() == call().tobytes(), name
# after the first call the module globals are scipy's own functions
assert (T.dtrtrs, T._erf, T._expit) == (dtrtrs, erf, expit)
""")

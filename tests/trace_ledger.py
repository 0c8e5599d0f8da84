"""The trace ledger: sha256 digests of every demo output at CLI defaults.

The ledger, ``tests/trace_ledger.json``, holds for seeds 0 and 1 the digest
of the stdout and checkpoint of each ``train-*`` demo, of ``predict --task
bnn|deep-gp`` and of ``sample --task flow|lstm``: 24 outputs.  It also holds
each training run's ``step=0`` line, the op histogram of each training
run's step 5 (the count of each tape op in that step, leaves included, taken
in the same run) and the environment the digests were made on (python,
numpy, scipy, the BLAS build and the BLAS thread variables, read as
``perfbench/run.py`` reads them, numpy's enabled SIMD dispatch targets and
the OpenBLAS core that numpy's and scipy's bundled libraries each chose at
run time).  ``tests/test_trace_ledger.py`` recomputes
the outputs in-process and compares them with the ledger.

Regenerate it, only when a change moves a trace on purpose, with

    PYTHONPATH=src python tests/trace_ledger.py

and name each changed entry, and why it changed, in CHANGES.md.
"""
import collections
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from uncertain import cli, training

LEDGER = Path(__file__).resolve().with_name("trace_ledger.json")
SEEDS = (0, 1)
HISTOGRAM_STEP = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# (demo, training subcommand, the query that reads its checkpoint)
DEMOS = (
    ("bnn", "train-bnn", ["predict", "--task", "bnn"]),
    ("deep-gp", "train-deep-gp", ["predict", "--task", "deep-gp"]),
    ("flow", "train-flow", ["sample", "--task", "flow"]),
    ("lstm", "train-lstm", ["sample", "--task", "lstm"]),
)


def _simd_targets():
    """numpy's SIMD dispatch targets that this process enabled: the entries
    of ``__cpu_dispatch__`` that are on in ``__cpu_features__``, which
    ``NPY_DISABLE_CPU_FEATURES`` turns off."""
    # numpy < 2 keeps the module in numpy.core
    for module in ("numpy._core._multiarray_umath",
                   "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(module)
            return [name for name in umath.__cpu_dispatch__
                    if umath.__cpu_features__.get(name)]
        except (ImportError, AttributeError):
            continue
    return "unknown"


def _openblas_core(package, symbol):
    """The core that the OpenBLAS bundled in the wheel's ``<package>.libs``
    chose when it loaded (``OPENBLAS_CORETYPE`` overrides it), read through
    its ``symbol``, or "unknown" where the wheel bundles no such library."""
    libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = getattr(ctypes.CDLL(str(path)), symbol)
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def environment():
    """What the bytes of a float64 trace can depend on besides the code."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = (f"{blas.get('name')} {blas.get('version')} "
                f"{blas.get('openblas configuration', '')}").strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy_simd": _simd_targets(),
        # numpy's library serves matmul, scipy's serves dtrtrs
        "numpy_openblas_core": _openblas_core(
            numpy, "scipy_openblas_get_corename64_"),
        "scipy_openblas_core": _openblas_core(
            scipy, "scipy_openblas_get_corename"),
    }


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"uncertain {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


@contextlib.contextmanager
def op_histograms():
    """Within the block, each ``training.fit`` step ``HISTOGRAM_STEP`` puts
    its op histogram, ``{op: count}`` read off its tape before ``fit``
    releases it, in the yielded list."""
    real, histograms = training.elbo_step, []

    def recording(model, batch_x, batch_y, cfg, step, **kwargs):
        result = real(model, batch_x, batch_y, cfg, step, **kwargs)
        if step == HISTOGRAM_STEP:
            histograms.append(dict(collections.Counter(
                op for op, _, _ in result[0].tape.nodes)))
        return result

    training.elbo_step = recording
    try:
        yield histograms
    finally:
        training.elbo_step = real


def demo_outputs(workdir):
    """Every ledger output by name, such as ``seed0/train-bnn.ckpt``, as
    bytes, and the op histogram of each training run by the run's name,
    such as ``seed0/train-bnn``; checkpoints are written under
    ``workdir``."""
    outputs, ops = {}, {}
    with op_histograms() as histograms:
        for seed in SEEDS:
            for demo, train, query in DEMOS:
                ckpt = os.path.join(workdir, f"{demo}-seed{seed}.ckpt")
                common = ["--seed", str(seed), "--checkpoint", ckpt]
                outputs[f"seed{seed}/{train}.stdout"] = _run([train, *common])
                (ops[f"seed{seed}/{train}"],) = histograms
                histograms.clear()
                outputs[f"seed{seed}/{train}.ckpt"] = Path(ckpt).read_bytes()
                outputs[f"seed{seed}/{query[0]}-{demo}.stdout"] = _run(
                    [*query, *common])
    return outputs, ops


def digests(outputs):
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()}


def step0_lines(outputs):
    """The ``step=0`` line of each training run's stdout."""
    return {name: next(line for line in data.decode().splitlines()
                       if line.startswith("step=0 "))
            for name, data in outputs.items()
            if name.endswith(".stdout") and "/train-" in name}


def main():
    with tempfile.TemporaryDirectory() as workdir:
        outputs, ops = demo_outputs(workdir)
    ledger = {"environment": environment(), "sha256": digests(outputs),
              "step0": step0_lines(outputs), "ops": ops}
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} digests to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The trace ledger: sha256 digests of every demo output at CLI defaults.

The ledger, ``tests/trace_ledger.json``, holds for seeds 0 and 1 the digest
of the stdout and checkpoint of each ``train-*`` demo, of ``predict --task
bnn|deep-gp`` and of ``sample --task flow|lstm``: 24 outputs.  It also holds
each training run's ``step=0`` line and the environment the digests were
made on (python, numpy, scipy, the BLAS build and the BLAS thread variables,
read as ``perfbench/run.py`` reads them).  ``tests/test_trace_ledger.py``
recomputes the outputs in-process and compares them with the ledger.

Regenerate it, only when a change moves a trace on purpose, with

    PYTHONPATH=src python tests/trace_ledger.py

and name each changed entry, and why it changed, in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from uncertain import cli

LEDGER = Path(__file__).resolve().with_name("trace_ledger.json")
SEEDS = (0, 1)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# (demo, training subcommand, the query that reads its checkpoint)
DEMOS = (
    ("bnn", "train-bnn", ["predict", "--task", "bnn"]),
    ("deep-gp", "train-deep-gp", ["predict", "--task", "deep-gp"]),
    ("flow", "train-flow", ["sample", "--task", "flow"]),
    ("lstm", "train-lstm", ["sample", "--task", "lstm"]),
)


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
    }


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"uncertain {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def demo_outputs(workdir):
    """Every ledger output by name, such as ``seed0/train-bnn.ckpt``, as
    bytes; checkpoints are written under ``workdir``."""
    outputs = {}
    for seed in SEEDS:
        for demo, train, query in DEMOS:
            ckpt = os.path.join(workdir, f"{demo}-seed{seed}.ckpt")
            common = ["--seed", str(seed), "--checkpoint", ckpt]
            outputs[f"seed{seed}/{train}.stdout"] = _run([train, *common])
            outputs[f"seed{seed}/{train}.ckpt"] = Path(ckpt).read_bytes()
            outputs[f"seed{seed}/{query[0]}-{demo}.stdout"] = _run(
                [*query, *common])
    return outputs


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
        outputs = demo_outputs(workdir)
    ledger = {"environment": environment(), "sha256": digests(outputs),
              "step0": step0_lines(outputs)}
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} digests to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

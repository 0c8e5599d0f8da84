"""Every function and method that the benchmark tracer wraps still exists.

``perfbench/tracer.py`` wraps named targets in ``uncertain`` from outside,
and a traced benchmark run exits 1 when one of them is gone.  Resolving the
names here, without patching anything, catches a renamed target in a second
instead of in the benchmark run.
"""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from uncertain.tensor import Tape, Tensor, conv2d, square, tensor_sum

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(span, module, target)
           for span, module, target, _ in tracer_module().TARGETS]


def test_tracer_has_targets():
    assert len(TARGETS) >= 20
    assert ("training.adam_update", "uncertain.training",
            "adam_update") in TARGETS


@pytest.mark.parametrize("span, module_name, target", TARGETS,
                         ids=[f"{m}.{t}" for _, m, t in TARGETS])
def test_target_resolves(span, module_name, target):
    module = importlib.import_module(module_name)
    owner, _, attr = target.rpartition(".")
    if owner == "*":  # a method of at least one class the module defines
        found = [cls for cls in vars(module).values()
                 if isinstance(cls, type) and cls.__module__ == module_name
                 and attr in vars(cls)]
    elif owner:
        cls = getattr(module, owner, None)
        found = isinstance(cls, type) and callable(vars(cls).get(attr))
    else:
        found = callable(getattr(module, attr, None))
    assert found, f"tracer span {span!r}: {module_name}.{target} is gone"


def test_traced_conv2d_records_one_span_per_kernel():
    # a kernel inlined into tensor.py would read as 0 ms in the traced
    # per-layer metrics: the tracer would wrap a function no one calls
    rng = np.random.default_rng(0)
    with tracer_module().Tracer() as tracer:
        with Tape() as tape:
            x = tape.watch(Tensor(rng.normal(size=(2, 5, 5, 3))))
            k = tape.watch(Tensor(rng.normal(size=(3, 3, 3, 4))))
            tape.backward(tensor_sum(square(conv2d(x, k, stride=2))))
    spans = Counter(tracer.names)
    for kernel in ("forward", "grad_input", "grad_kernel"):
        assert spans[f"backend.conv2d_{kernel}"] == 1, kernel

"""Span tracer that wraps uncertain's public functions and methods from outside.

While active, every target below records one span (name, start, end, parent)
per call.  A function is patched in every ``uncertain`` module that bound it
under the same name (``rng_from`` is bound in five of them), so calls through
any alias are seen.  Spans stay in memory; :meth:`Tracer.summary` derives
each name's call count and self time (duration minus the time its child spans
cover) and :meth:`Tracer.write` dumps the raw spans when the run ends.
"""
from __future__ import annotations

import bisect
import functools
import importlib
import os
import sys
import time
from collections import Counter


_FILE_BYTES = ("checkpoint.bytes", lambda args, result: os.path.getsize(args[0]))

# (span name, module, attribute or Class.method, hook).  A hook is a
# (counter, fn) pair, fn mapping a call's (args, result) to the amount charged
# to that counter; "iterator" times each item a generator yields instead of
# the call.  A target missing from the code is recorded in Tracer.missing.
TARGETS = (
    ("tensor.backward", "uncertain.tensor", "Tape.backward",
     ("tensor.tape.nodes", lambda args, result: len(args[0].nodes))),
    ("tensor.cholesky", "uncertain.tensor", "chol_with_jitter",
     ("tensor.cholesky.jittered", lambda args, result: int(result[1] > 0))),
    ("tensor.solve_triangular", "uncertain.tensor", "solve_triangular", None),
    ("backend.conv2d_forward", "uncertain.backend", "conv2d_forward", None),
    ("backend.conv2d_grad_input", "uncertain.backend", "conv2d_grad_input", None),
    ("backend.conv2d_grad_kernel", "uncertain.backend", "conv2d_grad_kernel", None),
    ("layers.gp.sparse_gp.call", "uncertain.layers.gp",
     "SparseGaussianProcess.call", None),
    ("layers.reversible.conditioner", "uncertain.layers.reversible", "MADE.call", None),
    ("layers.reversible.conditioner", "uncertain.layers.reversible",
     "DenseConditioner.call", None),
    ("layers.reversible.coupling.call", "uncertain.layers.reversible",
     "CouplingLayer.call", None),
    ("layers.reversible.coupling.reverse", "uncertain.layers.reversible",
     "CouplingLayer.reverse", None),
    ("layers.reversible.coupling.log_det_jacobian", "uncertain.layers.reversible",
     "CouplingLayer.log_det_jacobian", None),
    ("layers.output.categorical.call", "uncertain.layers.output",
     "CategoricalOutput.call", None),
    ("layers.base.sequential.call", "uncertain.layers.base", "Sequential.call", None),
    ("distributions.kl_divergence", "uncertain.distributions", "kl_divergence", None),
    ("distributions.log_prob", "uncertain.distributions", "*.log_prob", None),
    ("rng.rng_from", "uncertain.rng", "rng_from", None),
    ("training.elbo_step", "uncertain.training", "elbo_step", None),
    ("training.adam_update", "uncertain.training", "adam_update", None),
    ("data.batch_wait", "uncertain.data", "batch_indices", "iterator"),
    ("checkpoint.load", "uncertain.checkpoint", "load_checkpoint", _FILE_BYTES),
    ("checkpoint.save", "uncertain.checkpoint", "save_checkpoint", _FILE_BYTES),
)
SPANS = frozenset(name for name, _, _, _ in TARGETS)
COUNTERS = frozenset(hook[0] for _, _, _, hook in TARGETS
                     if isinstance(hook, tuple))


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "uncertain" or n.startswith("uncertain."))]


class Tracer:
    """Context manager: patches the targets on entry and restores them on exit.

    Spans accumulate across activations, so one tracer covers a whole phase
    of a run.  Single-threaded: the parent of a span is the innermost span
    open on the stack when it starts.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[tuple] = []  # (span index, counter, amount)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, fn, hook=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                counter, amount = hook
                self.counts.append((idx, counter, amount(args, result)))
            return result

        return traced

    def _wrap_iterator(self, name, fn):
        """Each ``next`` on the returned iterator is one span."""
        timed_next = self._wrap(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                try:
                    item = timed_next(it)
                except StopIteration:
                    return
                yield item

        return traced

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _install(self, name, module_name, target, hook):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.add(f"{module_name}.{target}")
            return
        owner_name, _, attr = target.rpartition(".")
        if owner_name == "*":
            owners = [cls for cls in vars(module).values()
                      if isinstance(cls, type) and cls.__module__ == module_name
                      and attr in vars(cls)]
        elif owner_name:
            cls = getattr(module, owner_name, None)
            owners = [cls] if cls is not None and attr in vars(cls) else []
        else:
            owners = []
            original = getattr(module, attr, None)
            if original is not None:
                owners = [m for m in _package_modules()
                          if vars(m).get(attr) is original]
        if not owners:
            self.missing.add(f"{module_name}.{target}")
        for owner in owners:
            fn = vars(owner)[attr]
            if hook == "iterator":
                wrapped = self._wrap_iterator(name, fn)
            else:
                wrapped = self._wrap(name, fn, hook)
            self._patch(owner, attr, wrapped)

    def __enter__(self):
        for name, module_name, target, hook in TARGETS:
            self._install(name, module_name, target, hook)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- results -----------------------------------------------------------
    def summary(self, windows):
        """Totals over the spans that start inside one of the sorted
        ``(start, end)`` windows: ``{span name: (calls, self seconds)}`` and
        ``{counter: amount}``."""
        lows = [w[0] for w in windows]

        def inside(i):
            k = bisect.bisect_right(lows, self.starts[i]) - 1
            return k >= 0 and self.starts[i] < windows[k][1]

        covered = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, name in enumerate(self.names):
            if inside(i):
                calls[name] += 1
                self_s[name] += self.ends[i] - self.starts[i] - covered[i]
        counters: Counter = Counter()
        for i, counter, amount in self.counts:
            if inside(i):
                counters[counter] += amount
        return {name: (calls[name], self_s[name]) for name in calls}, counters

    def write(self, path):
        """Spans as CSV: name, start and end in seconds from the first span,
        and the row index of the parent span (-1 for none)."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in zip(
                    self.names, self.starts, self.ends, self.parents):
                fh.write(f"{name},{start - origin!r},{end - origin!r},{parent}\n")

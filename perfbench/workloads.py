"""The benchmark's workloads: what one invocation runs and how its output is checked.

An invocation is the unit the runner repeats until its time is up:

* ``train-deep-gp`` / ``train-flow``: one in-process ``uncertain`` CLI training
  run at CLI defaults.  Each ``step=`` line on the captured stdout is
  timestamped, so one op is one training step, timed from the previous line.
* ``train-conv``: the same for ``training.fit`` on a two-layer conv2d
  classifier defined here from public API only.
* ``predict-deep-gp``: one in-process ``uncertain predict --task deep-gp``
  call; one op is the whole call.

Every invocation at one seed must print the same bytes, which the runner
checks.  The program receives only inputs derived from the seed.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import re
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from uncertain import cli, layers
from uncertain.checkpoint import load_checkpoint
from uncertain.rng import mix
from uncertain.tensor import Tensor, as_tensor, conv2d, relu, reshape
from uncertain.training import ElboConfig, fit

_STEP = re.compile(r"step=(\d+) loss=(\S+) kl=(\S+)$")
_EDGE = 50  # losses averaged at each end of a training run


@dataclass
class Invocation:
    """What one invocation did: op times, planned ops and output checks."""

    planned: int                      # ops the invocation set out to run
    op_s: list = field(default_factory=list)  # timed ops, warm-up excluded
    op_end: list = field(default_factory=list)  # perf_counter at each op's end
    output: str = ""                  # step lines or CSV, compared across runs
    first_op_end: float = 0.0         # perf_counter when the first op ended
    window: tuple = (0.0, 0.0)        # perf_counter span of the timed ops
    quality: float = math.nan         # final_loss or predictive_nll
    errors: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.errors


_CAL_SMALL = np.linspace(0.0, 1.0, 64)
_CAL_LARGE = np.linspace(0.0, 1.0, 32768)
_CAL_SPD = np.eye(8) + 0.1 * np.outer(np.arange(8.0), np.arange(8.0)) / 64.0


def _calibration_kernel():
    """Fixed work in the workloads' mix: interpreted Python, small numpy ops,
    small Cholesky factors and triangular solves, and a pass over arrays
    larger than L1.  Touches no uncertain code."""
    acc = 0
    for i in range(200):
        acc += i * i
    x = _CAL_SMALL
    for _ in range(20):
        x = np.tanh(x * 0.5 + _CAL_SMALL)
    for _ in range(5):
        low = np.linalg.cholesky(_CAL_SPD)
        solve_triangular(low, _CAL_SPD, lower=True)
    y = _CAL_LARGE
    for _ in range(4):
        y = y * 0.5 + _CAL_LARGE
    return acc, x, y


class Calibration:
    """Times a fixed kernel next to the ops, to take machine drift out.

    On a shared host the speed of the same code drifts by tens of percent
    over minutes, far more than the regressions the benchmark must catch.
    The kernel drifts with it, so each op's wall time times NOMINAL_S over
    the median kernel time within WINDOW_S of the op is the op's time at a
    fixed machine speed.  A change to the program moves the op but not the
    kernel, so it shows in full.
    """

    NOMINAL_S = 200e-6  # kernel time the normalized op times are scaled to
    WINDOW_S = 1.0
    MIN_GAP_S = 0.05    # between training steps, tick at most this often

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def due(self):
        return not self.at or time.perf_counter() - self.at[-1] >= self.MIN_GAP_S

    def tick(self, runs=2):
        """Run the kernel once to warm caches, then time it ``runs`` times."""
        _calibration_kernel()
        for _ in range(runs):
            start = time.perf_counter()
            _calibration_kernel()
            end = time.perf_counter()
            self.at.append(end)
            self.took.append(end - start)

    def slowness(self):
        """Median kernel time over NOMINAL_S: above 1 is a slow machine."""
        return float(np.median(self.took)) / self.NOMINAL_S

    def normalize(self, op_s, op_end):
        at, took = np.array(self.at), np.array(self.took)
        ends = np.array(op_end)
        lo = np.searchsorted(at, ends - self.WINDOW_S)
        hi = np.searchsorted(at, ends + self.WINDOW_S)
        return [t * self.NOMINAL_S / float(np.median(took[a:b]))
                for t, a, b in zip(op_s, lo, hi)]


class _StampedLines(io.TextIOBase):
    """Stdout replacement that records each completed line with its time.

    With a calibration, a ``step=`` line may be followed by a kernel tick;
    ``resumes`` holds when the next op started, after any tick.
    """

    def __init__(self, calibration=None):
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self.resumes: list[float] = []
        self._calibration = calibration
        self._partial = ""

    def writable(self):
        return True

    def write(self, text):
        now = time.perf_counter()
        parts = (self._partial + text).split("\n")
        self._partial = parts.pop()
        for line in parts:
            self.lines.append(line)
            self.stamps.append(now)
            cal = self._calibration
            if cal is not None and line.startswith("step=") and cal.due():
                cal.tick()
                now = time.perf_counter()
            self.resumes.append(now)
        return len(text)


def _capture(fn, tracer, calibration=None):
    """Run ``fn`` with stdout captured; returns (exit code, stamped lines).

    Any exception counts as exit code 1 and is reported, never swallowed.
    """
    out = _StampedLines(calibration)
    try:
        with contextlib.redirect_stdout(out), (tracer or contextlib.nullcontext()):
            rc = fn()
    except Exception:  # the benchmark keeps running and counts the failure
        traceback.print_exc()
        rc = 1
    return rc, out


def _print_step(step, loss, kl):
    print(f"step={step} loss={loss:.17g} kl={kl:.17g}")


class _Training:
    """Shared step timing and loss checks of the training workloads."""

    steps: int

    def setup(self):
        pass

    def _train(self):
        raise NotImplementedError

    def invoke(self, tracer=None, calibration=None):
        rc, out = _capture(self._train, tracer, calibration)
        inv = Invocation(planned=self.steps)
        steps = [(m, t, r) for line, t, r in zip(out.lines, out.stamps, out.resumes)
                 if (m := _STEP.match(line))]
        if rc != 0:
            inv.errors.append(f"exit code {rc}")
        if len(steps) != self.steps:
            inv.errors.append(f"{len(steps)} step lines, expected {self.steps}")
        if not steps:
            return inv
        stamps = [t for _, t, _ in steps]
        resumes = [r for _, _, r in steps]
        inv.first_op_end = stamps[0]
        inv.op_end = stamps[1:]
        inv.op_s = [end - start for start, end in zip(resumes, stamps[1:])]
        inv.window = (resumes[0], stamps[-1])
        inv.output = "\n".join(m.group(0) for m, _, _ in steps)
        losses = np.array([float(m.group(2)) for m, _, _ in steps])
        if not np.all(np.isfinite(losses)):
            inv.errors.append("non-finite loss")
        if self.steps > 1:
            head, tail = float(losses[:_EDGE].mean()), float(losses[-_EDGE:].mean())
            inv.quality = tail
            if not tail < head:
                inv.errors.append(
                    f"loss did not fall: first {_EDGE} mean {head!r}, "
                    f"last {_EDGE} mean {tail!r}")
        if rc == 0:
            inv.errors.extend(self._check_model())
        return inv

    def _check_model(self):
        return []

    def probe(self):
        """Set up and run one step; returns when that step ended."""
        self.setup()
        self.steps = 1
        return self.invoke().first_op_end


class CliTraining(_Training):
    """``uncertain <command>`` at CLI defaults, in process."""

    def __init__(self, command, steps, seed, outdir):
        self.command = command
        self.steps = steps
        self.seed = seed
        self.checkpoint = os.path.join(outdir, f"{command}.ckpt")

    def _train(self):
        return cli.main([self.command, "--seed", str(self.seed),
                         "--steps", str(self.steps),
                         "--checkpoint", self.checkpoint])


class FlowTraining(CliTraining):
    """train-flow, plus a round trip through the trained flow."""

    def _check_model(self):
        model = cli.build_flow(4, 32)
        model.load_state_dict(load_checkpoint(self.checkpoint))
        x = np.random.default_rng(self.seed).standard_normal((64, 2))
        back = as_tensor(model.reverse(as_tensor(model(Tensor(x), seed=0)))).data
        err = float(np.max(np.abs(back - x)))
        return [] if err <= 1e-9 else [f"flow round trip error {err!r} > 1e-9"]


class ConvClassifier(layers.Layer):
    """3x3 conv (8 filters, stride 1) -> relu -> 3x3 conv (16, stride 2)
    -> relu -> flatten -> categorical head."""

    def __init__(self, in_channels, classes, seed):
        super().__init__()
        self.k1 = self.add_param("k1", layers.glorot_uniform(
            (3, 3, in_channels, 8), mix(seed, "k1")))
        self.k2 = self.add_param("k2", layers.glorot_uniform(
            (3, 3, 8, 16), mix(seed, "k2")))
        self.head = self.add_child("head", layers.CategoricalOutput(units=classes))

    def call(self, x, seed):
        h = relu(conv2d(x, self.k1, stride=1))
        h = relu(conv2d(h, self.k2, stride=2))
        flat = reshape(h, (h.shape[0], h.shape[1] * h.shape[2] * h.shape[3]))
        return self.head(flat, seed=seed)


def conv_images(seed, n=2048, size=16, channels=3, classes=4, flip=0.2):
    """Noisy images whose class is the quadrant holding a brighter patch,
    with a share ``flip`` of labels redrawn so the loss cannot reach 0."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, n)
    images = rng.standard_normal((n, size, size, channels))
    half = size // 2
    for i, c in enumerate(labels):
        r, col = divmod(int(c), 2)
        images[i, r * half:(r + 1) * half, col * half:(col + 1) * half, :] += 0.5
    redraw = rng.uniform(size=n) < flip
    labels = np.where(redraw, rng.integers(0, classes, n), labels)
    return images, labels.astype(np.float64)


class ConvTraining(_Training):
    """``training.fit`` on :class:`ConvClassifier`, batch 32."""

    def __init__(self, steps, seed):
        self.steps = steps
        self.seed = seed

    def setup(self):
        self.x, self.y = conv_images(self.seed)

    def _train(self):
        layers.reset_layer_indices()
        model = ConvClassifier(self.x.shape[3], 4, self.seed)
        model(Tensor(self.x[:1]), seed=mix(self.seed, "build"))
        cfg = ElboConfig(num_train_examples=self.x.shape[0], batch_size=32,
                         learning_rate=0.01, max_steps=self.steps,
                         seed=self.seed)
        fit(model, self.x, self.y, cfg, log_fn=_print_step)
        return 0


class DeepGpPredict:
    """Repeated ``uncertain predict --task deep-gp`` against one checkpoint.

    Set-up writes the checkpoint with a short training run at a fixed seed,
    so every seed queries the same model and the cost of a query does not
    depend on it, and makes the first (warm-up) query.
    """

    TRAIN_SEED = 0
    TRAIN_STEPS = 30
    GRID = 61
    NOISE = 0.1  # observation noise the demo trains with

    def __init__(self, seed, outdir):
        self.seed = seed
        self.checkpoint = os.path.join(outdir, "predict-deep-gp.ckpt")
        self.first_op_end = 0.0

    def setup(self):
        rc, _ = _capture(lambda: cli.main([
            "train-deep-gp", "--seed", str(self.TRAIN_SEED),
            "--steps", str(self.TRAIN_STEPS), "--checkpoint", self.checkpoint]),
            None)
        if rc != 0:
            raise RuntimeError(f"checkpoint training exited {rc}")
        warm = self.invoke()
        if not warm.ok:
            raise RuntimeError(f"warm-up query failed: {warm.errors}")
        self.first_op_end = time.perf_counter()

    def probe(self):
        self.setup()
        return self.first_op_end

    def invoke(self, tracer=None, calibration=None):
        argv = ["predict", "--task", "deep-gp", "--seed", str(self.seed),
                "--checkpoint", self.checkpoint]
        start = time.perf_counter()
        rc, out = _capture(lambda: cli.main(argv), tracer)
        end = time.perf_counter()
        if calibration is not None:
            calibration.tick(runs=8)  # one tick per long op: sample it well
        inv = Invocation(planned=1, op_s=[end - start], op_end=[end],
                         window=(start, end))
        inv.output = "\n".join(out.lines)
        if rc != 0:
            inv.errors.append(f"exit code {rc}")
            return inv
        try:
            rows = np.array([[float(v) for v in line.split(",")]
                             for line in out.lines[1:]])
        except ValueError as exc:
            inv.errors.append(f"unparsable CSV: {exc}")
            return inv
        if out.lines[:1] != ["x,mean,stddev"] or rows.shape != (self.GRID, 3):
            inv.errors.append(f"expected {self.GRID} x,mean,stddev rows")
            return inv
        if not np.all(np.isfinite(rows)):
            inv.errors.append("non-finite CSV value")
        x, mean, std = rows.T
        if not np.all(std > 0):
            inv.errors.append("stddev not positive")
        inside = (x >= -1.0) & (x <= 1.0)
        var = std[inside] ** 2 + self.NOISE ** 2
        resid = np.sin(2.0 * math.pi * x[inside]) - mean[inside]
        inv.quality = float(np.mean(
            0.5 * np.log(2.0 * math.pi * var) + 0.5 * resid ** 2 / var))
        return inv


def make(name, seed, outdir):
    if name == "train-deep-gp":
        return CliTraining("train-deep-gp", 300, seed, outdir)
    if name == "train-flow":
        return FlowTraining("train-flow", 400, seed, outdir)
    if name == "train-conv":
        return ConvTraining(300, seed)
    if name == "predict-deep-gp":
        return DeepGpPredict(seed, outdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("train-deep-gp", "train-flow", "predict-deep-gp", "train-conv")

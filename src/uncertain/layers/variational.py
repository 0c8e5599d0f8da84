"""Bayesian counterparts of dense, conv2d and LSTM layers.

A Bayesian layer is its deterministic layer with two differences: the
initializer of each weight returns a trainable distribution, and the
regularizer is that distribution's KL to a prior.  Each weight is a
:class:`~uncertain.layers.base.VariationalParameter`, so ``VariationalDense``
is ``Dense`` with ``trainable_normal()`` initializers, and each weight here
but Flipout's kernel takes a point initializer.  A call samples posteriors by
reparameterization, runs the deterministic computation on the samples, then
appends one loss per regularized weight; the LSTM draws and appends once
per sequence, before its time steps.
"""
from __future__ import annotations

import numpy as np

from ..distributions import RandomVariable
from ..errors import LayerError, ShapeError
from ..tensor import (
    Tensor,
    active_tape,
    as_tensor,
    concat,
    conv2d,
    matmul,
    reshape,
    sigmoid,
    slice_last,
    softplus,
    take,
    tanh,
)
from ..rng import rademacher
from .base import (
    Dense,
    Layer,
    VariationalParameter,
    resolve_activation,
    trainable_normal,
)


class VariationalDense(Dense):
    """Dense with reparameterized weight and bias posteriors by default."""

    def __init__(self, units, activation=None, kernel_initializer=None,
                 kernel_regularizer="default", bias_initializer=None,
                 bias_regularizer="default", name=None):
        super().__init__(
            units, activation, kernel_initializer or trainable_normal(),
            kernel_regularizer,
            bias_initializer or trainable_normal(mean_stddev=0.0),
            bias_regularizer, name)


class FlipoutDense(VariationalDense):
    """VariationalDense with pseudo-independent per-example perturbations.

    One Gaussian kernel perturbation is shared across the batch; Rademacher
    sign vectors on the input and output sides decorrelate it per example:

        out_n = x_n @ mu + ((x_n * s_n) @ (sigma * eps)) * r_n + b

    The per-example marginal matches plain reparameterization while the
    batch-mean gradient variance drops.  The bias is sampled the ordinary
    way; the rank-one trick only applies to the matrix.
    """

    sample_axis = False

    def build(self, x, seed):
        super().build(x, seed)
        if self.kernel.point is not None:
            raise TypeError(f"{type(self).__name__} needs a distribution "
                            "kernel initializer, got a Tensor")

    def call(self, x, seed):
        batch = x.shape[0]
        if batch < 1:
            raise ShapeError("Flipout needs a batch of at least one example")
        sigma = softplus(self.kernel.rho)
        eps = Tensor(self.rng(seed, "kernel").standard_normal(self.kernel.mu.shape))
        signs_in = Tensor(rademacher(self.rng(seed, "signs-in"), (batch, x.shape[1])))
        signs_out = Tensor(rademacher(self.rng(seed, "signs-out"), (batch, self.units)))
        b = self.bias.sample(seed)
        perturbation = matmul(x * signs_in, sigma * eps) * signs_out
        out = self.activation(matmul(x, self.kernel.mu) + perturbation + b)
        kernel_rv = RandomVariable(self.kernel.posterior(),
                                   self.kernel.mu + sigma * eps)
        self.kernel.regularize(kernel_rv)
        self.bias.regularize(b)
        return out


class VariationalConv2D(Layer):
    """2-D convolution whose kernel and bias are posteriors by default."""

    input_rank = 4  # [batch, h, w, channels]

    def __init__(self, filters, kernel_size, stride=1, padding="same",
                 activation=None, kernel_initializer=None,
                 kernel_regularizer="default", bias_initializer=None,
                 bias_regularizer="default", name=None):
        super().__init__(name)
        if filters < 1:
            raise ValueError(f"filters must be >= 1, got {filters}")
        self.filters = int(filters)
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.kernel_size = tuple(kernel_size)
        if min(self.kernel_size) < 1:
            raise ValueError(
                f"kernel_size entries must be >= 1, got {self.kernel_size}")
        if stride < 1 or stride != int(stride):
            raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
        if padding not in ("same", "valid"):
            raise ValueError(
                f"padding must be 'same' or 'valid', got {padding!r}")
        self.stride = int(stride)
        self.padding = padding
        self.activation = resolve_activation(activation)
        self.kernel = VariationalParameter("kernel", kernel_initializer,
                                           kernel_regularizer)
        self.bias = VariationalParameter(
            "bias", bias_initializer or trainable_normal(mean_stddev=0.0),
            bias_regularizer)

    def build(self, x, seed):
        self.kernel.build(self, self.kernel_size + (x.shape[3], self.filters),
                          seed)
        self.bias.build(self, (self.filters,), seed)

    def call(self, x, seed):
        w = self.kernel.sample(seed)
        b = self.bias.sample(seed)
        out = conv2d(x, w, stride=self.stride, padding=self.padding)
        out = self.activation(out + b)
        self.kernel.regularize(w)
        self.bias.regularize(b)
        return out


class VariationalLSTMCell(Layer):
    """LSTM over a [batch, time, features] sequence whose input kernel,
    recurrent kernel and bias are posteriors by default.

    Weights sit outside the time plate: a call draws one sample of each per
    sequence, appends their losses once, reuses the draw at every
    step and returns the hidden states [batch, time, units].  To step by
    hand, as when generating token by token, draw once with :meth:`draw`
    and feed each step's output state to the next :meth:`step`.

    A draw gives the weights a gradient only on the tape that recorded it:
    :meth:`step` raises ``LayerError`` when the active tape watches the
    cell's parameters but the draw is not on that tape.
    """

    input_rank = 3  # [batch, time, features]

    def __init__(self, units, kernel_initializer=None,
                 kernel_regularizer="default", recurrent_initializer=None,
                 recurrent_regularizer="default", bias_initializer=None,
                 bias_regularizer="default", name=None):
        super().__init__(name)
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.units = int(units)
        self.kernel = VariationalParameter("kernel", kernel_initializer,
                                           kernel_regularizer)
        self.recurrent = VariationalParameter("recurrent", recurrent_initializer,
                                              recurrent_regularizer)
        self.bias = VariationalParameter(
            "bias", bias_initializer or trainable_normal(mean_stddev=0.0),
            bias_regularizer)

    def build(self, x, seed):
        self.kernel.build(self, (x.shape[-1], 4 * self.units), seed)
        self.recurrent.build(self, (self.units, 4 * self.units), seed)
        self.bias.build(self, (4 * self.units,), seed)

    def call(self, xs, seed):
        weights = self.draw(seed)
        batch, steps, _ = xs.shape
        state, outputs = None, []
        for t in range(steps):
            state = self.step(take(xs, t, axis=1), state, weights)
            outputs.append(reshape(state[0], (batch, 1, self.units)))
        return concat(outputs, axis=1)

    def draw(self, seed):
        """Sample ``(kernel, recurrent, bias)`` for one sequence; the cell's
        losses become the regularizer losses of this draw."""
        seed = self._check_seed(seed)
        self._check_built()
        self._losses = []
        weights = (self.kernel, self.recurrent, self.bias)
        draws = tuple(weight.sample(seed) for weight in weights)
        for weight, drawn in zip(weights, draws):
            weight.regularize(drawn)
        return draws

    def step(self, x_t, state, weights):
        """One time step on a [batch, features] input; ``state`` is the
        previous ``(h, c)``, None for zeros.  Returns the new ``(h, c)``."""
        x_t = as_tensor(x_t)
        if x_t.ndim != 2:
            raise ShapeError(
                f"LSTM step expects rank-2 input [batch, features], "
                f"got {list(x_t.shape)}"
            )
        w, u, b = weights
        tape = active_tape()
        if (tape is not None and getattr(w, "tape", None) is not tape
                and any(p.tape is tape for p in self._params.values())):
            raise LayerError(
                f"{self.path or self.name}: weights drawn off the recording "
                "tape would get no gradient; draw them on this tape")
        if state is None:
            state = (Tensor(np.zeros((x_t.shape[0], self.units))),) * 2
        h, c = as_tensor(state[0]), as_tensor(state[1])
        if h.shape != (x_t.shape[0], self.units):
            raise ShapeError(
                f"hidden state shape {list(h.shape)} does not match "
                f"[batch={x_t.shape[0]}, units={self.units}]"
            )
        z = matmul(x_t, w) + matmul(h, u) + b
        n = self.units
        gate_i = sigmoid(slice_last(z, 0, n))
        gate_f = sigmoid(slice_last(z, n, 2 * n))
        gate_g = tanh(slice_last(z, 2 * n, 3 * n))
        gate_o = sigmoid(slice_last(z, 3 * n, 4 * n))
        c_next = gate_f * c + gate_i * gate_g
        h_next = gate_o * tanh(c_next)
        return h_next, c_next

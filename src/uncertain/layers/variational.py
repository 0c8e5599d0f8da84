"""Bayesian counterparts of dense, conv2d and LSTM layers.

A Bayesian layer is its deterministic layer with two differences: the
initializer of each weight returns a trainable distribution, and the
regularizer is that distribution's KL to a prior.  :class:`VariationalParameter`
is the one path each variational weight takes: a mean-field normal posterior
(a trainable mean and a trainable pre-softplus scale), standard normal prior
by default.  A call samples the weights by reparameterization, runs the
deterministic computation on the sample, and then appends one KL loss per
variational parameter.  Constructor signatures match the deterministic
layers, so swapping a layer for its Bayesian version changes nothing else in
the model.
"""
from __future__ import annotations

import numpy as np

from ..distributions import Distribution, Normal, RandomVariable
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
    softplus_inverse,
    take,
    tanh,
)
from ..rng import rademacher
from .base import (
    Layer,
    normal_kl,
    resolve_activation,
    rng_seed,
    trainable_normal,
)


class VariationalParameter:
    """Mean-field posterior over one weight tensor of a layer.

    Made in the layer's ``__init__`` from the weight's name, its
    distribution initializer (``trainable_normal()`` when None) and its
    regularizer: a callable from the drawn RandomVariable to a scalar loss,
    ``"default"`` for ``normal_kl()``, or None for no loss.  The name keys
    everything: :meth:`build` adds ``<name>_mu`` and ``<name>_rho`` to the
    layer, seeded by ``rng_seed(seed, layer, name)``, and :meth:`sample`
    draws from ``layer.rng(seed, name)``.
    """

    def __init__(self, name, initializer=None, regularizer="default"):
        self.name = name
        self.initializer = initializer or trainable_normal()
        self.regularizer = normal_kl() if regularizer == "default" else regularizer

    def build(self, layer: Layer, shape, seed):
        init = self.initializer(shape, rng_seed(seed, layer, self.name))
        if not isinstance(init, Distribution):
            raise TypeError(
                f"variational parameter {self.name!r} needs a distribution "
                f"initializer, got {type(init).__name__}"
            )
        loc = np.broadcast_to(init.loc.data, shape).copy()
        scale = np.broadcast_to(init.scale.data, shape).copy()
        self.layer = layer
        self.mu = layer.add_param(f"{self.name}_mu", loc)
        self.rho = layer.add_param(f"{self.name}_rho", softplus_inverse(scale))

    def posterior(self) -> Normal:
        return Normal(self.mu, softplus(self.rho))

    def sample(self, seed) -> RandomVariable:
        """Reparameterized draw; a tuple of S seeds stacks S draws, one per
        seed, on a new leading axis."""
        return self.posterior().sample(self.layer.rng(seed, self.name))

    def regularize(self, rv):
        """Append the regularizer's loss on a draw to the layer's losses."""
        if self.regularizer is not None:
            self.layer.add_loss(self.regularizer(rv))


class VariationalDense(Layer):
    """Dense layer with reparameterized weight and bias posteriors.

    With S seeds it stacks S weight draws, one per seed, and the regularizers
    see the stacked draws once.
    """

    sample_axis = True
    input_rank = 2

    def __init__(self, units, activation=None, kernel_initializer=None,
                 kernel_regularizer="default", bias_initializer=None,
                 bias_regularizer="default", name=None):
        super().__init__(name)
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.units = int(units)
        self.activation = resolve_activation(activation)
        self.kernel = VariationalParameter("kernel", kernel_initializer,
                                           kernel_regularizer)
        self.bias = VariationalParameter(
            "bias", bias_initializer or trainable_normal(mean_stddev=0.0),
            bias_regularizer)

    def build(self, x, seed):
        self.kernel.build(self, (x.shape[-1], self.units), seed)
        self.bias.build(self, (self.units,), seed)

    def call(self, x, seed):
        w = self.kernel.sample(seed)
        b = self.bias.sample(seed)
        bias = (reshape(b.value, (len(seed), 1, self.units))
                if isinstance(seed, tuple) else b.value)
        out = self.activation(matmul(x, w.value) + bias)
        self.kernel.regularize(w)
        self.bias.regularize(b)
        return out


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
        out = self.activation(matmul(x, self.kernel.mu) + perturbation + b.value)
        kernel_rv = RandomVariable(self.kernel.posterior(),
                                   self.kernel.mu + sigma * eps)
        self.kernel.regularize(kernel_rv)
        self.bias.regularize(b)
        return out


class VariationalConv2D(Layer):
    """2-D convolution with variational kernel and bias."""

    input_rank = 4  # [batch, h, w, channels]

    def __init__(self, filters, kernel_size, stride=1, padding="same",
                 activation=None, kernel_initializer=None,
                 kernel_regularizer="default", bias_initializer=None,
                 bias_regularizer="default", name=None):
        super().__init__(name)
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
        out = conv2d(x, w.value, stride=self.stride, padding=self.padding)
        out = self.activation(out + b.value)
        self.kernel.regularize(w)
        self.bias.regularize(b)
        return out


class VariationalLSTMCell(Layer):
    """LSTM cell whose input kernel, recurrent kernel and bias are variational.

    Weights sit outside the time plate: one sample is drawn per sequence and
    reused at every step, and the three KL losses are appended once per
    sequence.  Call :meth:`start_sequence` at each sequence boundary (or use
    :func:`unroll`); the per-call loss clearing of plain layers happens there
    instead of in ``__call__``.

    A draw belongs to the tape that recorded it, or to none: a step taken
    while another ``Tape`` records raises ``LayerError``, since the stale
    draw would give the weights no gradient.  So every tape (each training
    step's included) starts its sequences with :meth:`start_sequence` or
    :func:`unroll`; the first step of a cell that never drew draws itself.
    """

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
        self._samples = None
        self._drawn_on = None  # the Tape recording when _samples was drawn

    def build(self, input_dim, seed=0):
        if not self.built:
            with self._undone_on_error():
                self.kernel.build(self, (input_dim, 4 * self.units), seed)
                self.recurrent.build(self, (self.units, 4 * self.units), seed)
                self.bias.build(self, (4 * self.units,), seed)
            self.built = True

    def start_sequence(self, input_dim, seed):
        """Sample weights for one sequence and append their KL losses."""
        seed = self._check_seed(seed)
        self.build(input_dim, seed)
        self._losses = []
        w = self.kernel.sample(seed)
        u = self.recurrent.sample(seed)
        b = self.bias.sample(seed)
        self._samples = (w.value, u.value, b.value)
        self._drawn_on = active_tape()
        self.kernel.regularize(w)
        self.recurrent.regularize(u)
        self.bias.regularize(b)

    def init_state(self, batch):
        zeros = np.zeros((batch, self.units))
        return Tensor(zeros), Tensor(zeros.copy())

    def __call__(self, x_t, state=None, seed=0):
        seed = self._check_seed(seed)
        x_t = as_tensor(x_t)
        if x_t.ndim != 2:
            raise ShapeError(
                f"LSTM step expects rank-2 input [batch, features], "
                f"got {list(x_t.shape)}"
            )
        if self._samples is None:
            self.start_sequence(x_t.shape[1], seed)
        elif active_tape() not in (None, self._drawn_on):
            raise LayerError(
                f"{self.path or self.name}: weights drawn on another tape; "
                "call start_sequence or unroll on this tape first")
        if state is None:
            state = self.init_state(x_t.shape[0])
        h, c = state
        h, c = as_tensor(h), as_tensor(c)
        if h.shape != (x_t.shape[0], self.units):
            raise ShapeError(
                f"hidden state shape {list(h.shape)} does not match "
                f"[batch={x_t.shape[0]}, units={self.units}]"
            )
        w, u, b = self._samples
        z = matmul(x_t, w) + matmul(h, u) + b
        n = self.units
        gate_i = sigmoid(slice_last(z, 0, n))
        gate_f = sigmoid(slice_last(z, n, 2 * n))
        gate_g = tanh(slice_last(z, 2 * n, 3 * n))
        gate_o = sigmoid(slice_last(z, 3 * n, 4 * n))
        c_next = gate_f * c + gate_i * gate_g
        h_next = gate_o * tanh(c_next)
        return h_next, c_next


def unroll(cell: VariationalLSTMCell, xs, seed, state=None):
    """Run a cell over a [batch, time, features] sequence.

    Samples the weights once at the sequence start and returns the stacked
    hidden states [batch, time, units] plus the final state.
    """
    xs = as_tensor(xs)
    if xs.ndim != 3:
        raise ShapeError(
            f"unroll expects [batch, time, features], got {list(xs.shape)}"
        )
    batch, steps, dim = xs.shape
    cell.start_sequence(dim, seed)
    if state is None:
        state = cell.init_state(batch)
    outputs = []
    for t in range(steps):
        h, c = cell(take(xs, t, axis=1), state, seed=seed)
        state = (h, c)
        outputs.append(reshape(h, (batch, 1, cell.units)))
    return concat(outputs, axis=1), state

"""Bayesian counterparts of dense, conv2d and LSTM layers.

Each trainable weight gets a mean-field normal posterior: a trainable mean
and a trainable pre-softplus scale, with a standard normal prior by default.
A call samples the weights by reparameterization, runs the deterministic
computation on the sample, and appends one KL loss per variational parameter.
Constructor signatures match the deterministic layers, so swapping a layer
for its Bayesian version changes nothing else in the model.
"""
from __future__ import annotations

import numpy as np

from ..distributions import Distribution, Normal, RandomVariable
from ..errors import ShapeError
from ..tensor import (
    Tensor,
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
    sample_lead,
    trainable_normal,
)


class VariationalParameter:
    """Mean-field posterior over one weight tensor.

    Stores a trainable mean and a trainable pre-softplus scale on the owning
    layer.  The prior lives in the layer's regularizer (``normal_kl(prior)``,
    standard normal by default), not here.
    """

    def __init__(self, layer: Layer, name: str, shape, initializer, seed):
        init = initializer(shape, seed)
        if not isinstance(init, Distribution):
            raise TypeError(
                f"variational parameter {name!r} needs a distribution "
                f"initializer, got {type(init).__name__}"
            )
        loc = np.broadcast_to(init.loc.data, shape).copy()
        scale = np.broadcast_to(init.scale.data, shape).copy()
        self.mu = layer.add_param(f"{name}_mu", loc)
        self.rho = layer.add_param(f"{name}_rho", softplus_inverse(scale))
        self.shape = tuple(shape)

    def posterior(self) -> Normal:
        return Normal(self.mu, softplus(self.rho))

    def sample(self, rng) -> RandomVariable:
        """Reparameterized draw; a list of S generators stacks S draws, one
        per generator, on a new leading axis."""
        return self.posterior().sample(rng)


def _regularizer_or_default(value):
    """``"default"`` means KL to a standard normal prior."""
    return normal_kl() if value == "default" else value


class _VariationalMixin:
    """Shared wiring for layers with variational parameters.

    ``<name>_initializer`` builds each posterior; ``<name>_regularizer`` turns
    a posterior sample into a KL loss against its prior, or is None.
    """

    def _make_param(self, name, shape, seed, salt):
        initializer = getattr(self, f"{name}_initializer")
        return VariationalParameter(self, name, shape, initializer,
                                    rng_seed(seed, self, salt))

    def _regularize(self, which, rv):
        regularizer = getattr(self, f"{which}_regularizer")
        if regularizer is not None:
            self.add_loss(regularizer(rv))


class VariationalDense(Layer, _VariationalMixin):
    """Dense layer with reparameterized weight and bias posteriors.

    With S seeds it stacks S weight draws, one per seed, and the regularizers
    see the stacked draws once.
    """

    sample_axis = True

    def __init__(self, units, activation=None, kernel_initializer=None,
                 kernel_regularizer="default", bias_initializer=None,
                 bias_regularizer="default", name=None):
        super().__init__(name)
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.units = int(units)
        self.activation = resolve_activation(activation)
        self.kernel_initializer = kernel_initializer or trainable_normal()
        self.bias_initializer = bias_initializer or trainable_normal(mean_stddev=0.0)
        self.kernel_regularizer = _regularizer_or_default(kernel_regularizer)
        self.bias_regularizer = _regularizer_or_default(bias_regularizer)
        self.kernel = None
        self.bias = None

    def _build(self, input_dim, seed):
        self.kernel = self._make_param("kernel", (input_dim, self.units), seed, "kernel")
        self.bias = self._make_param("bias", (self.units,), seed, "bias")

    def call(self, x, seed):
        x = as_tensor(x)
        lead = sample_lead(self, x, seed)
        if self.kernel is None:
            self._build(x.shape[-1], self._build_seed(seed))
        w = self.kernel.sample(self.rng(seed, "kernel"))
        b = self.bias.sample(self.rng(seed, "bias"))
        bias = reshape(b.value, lead + (1, self.units)) if lead else b.value
        out = self.activation(matmul(x, w.value) + bias)
        self._regularize("kernel", w)
        self._regularize("bias", b)
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
        x = as_tensor(x)
        if x.ndim != 2:
            raise ShapeError(
                f"{type(self).__name__} expects rank-2 input [batch, features], "
                f"got {list(x.shape)}; flatten first"
            )
        if self.kernel is None:
            self._build(x.shape[1], seed)
        batch = x.shape[0]
        if batch < 1:
            raise ShapeError("Flipout needs a batch of at least one example")
        sigma = softplus(self.kernel.rho)
        eps = Tensor(self.rng(seed, "kernel").standard_normal(self.kernel.shape))
        signs_in = Tensor(rademacher(self.rng(seed, "signs-in"), (batch, x.shape[1])))
        signs_out = Tensor(rademacher(self.rng(seed, "signs-out"), (batch, self.units)))
        b = self.bias.sample(self.rng(seed, "bias"))
        perturbation = matmul(x * signs_in, sigma * eps) * signs_out
        out = self.activation(matmul(x, self.kernel.mu) + perturbation + b.value)
        kernel_rv = RandomVariable(self.kernel.posterior(),
                                   self.kernel.mu + sigma * eps)
        self._regularize("kernel", kernel_rv)
        self._regularize("bias", b)
        return out


class VariationalConv2D(Layer, _VariationalMixin):
    """2-D convolution with variational kernel and bias."""

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
        self.kernel_initializer = kernel_initializer or trainable_normal()
        self.bias_initializer = bias_initializer or trainable_normal(mean_stddev=0.0)
        self.kernel_regularizer = _regularizer_or_default(kernel_regularizer)
        self.bias_regularizer = _regularizer_or_default(bias_regularizer)
        self.kernel = None
        self.bias = None

    def _build(self, in_channels, seed):
        kh, kw = self.kernel_size
        self.kernel = self._make_param(
            "kernel", (kh, kw, in_channels, self.filters), seed, "kernel")
        self.bias = self._make_param("bias", (self.filters,), seed, "bias")

    def call(self, x, seed):
        x = as_tensor(x)
        if x.ndim != 4:
            raise ShapeError(
                f"{type(self).__name__} expects rank-4 input [batch, h, w, c], "
                f"got {list(x.shape)}"
            )
        if self.kernel is None:
            self._build(x.shape[3], seed)
        w = self.kernel.sample(self.rng(seed, "kernel"))
        b = self.bias.sample(self.rng(seed, "bias"))
        out = conv2d(x, w.value, stride=self.stride, padding=self.padding)
        out = self.activation(out + b.value)
        self._regularize("kernel", w)
        self._regularize("bias", b)
        return out


class VariationalLSTMCell(Layer, _VariationalMixin):
    """LSTM cell whose input kernel, recurrent kernel and bias are variational.

    Weights sit outside the time plate: one sample is drawn per sequence and
    reused at every step, and the three KL losses are appended once per
    sequence.  Call :meth:`start_sequence` at each sequence boundary (or use
    :func:`unroll`); the per-call loss clearing of plain layers happens there
    instead of in ``__call__``.
    """

    def __init__(self, units, kernel_initializer=None,
                 kernel_regularizer="default", recurrent_initializer=None,
                 recurrent_regularizer="default", bias_initializer=None,
                 bias_regularizer="default", name=None):
        super().__init__(name)
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.units = int(units)
        self.kernel_initializer = kernel_initializer or trainable_normal()
        self.recurrent_initializer = recurrent_initializer or trainable_normal()
        self.bias_initializer = bias_initializer or trainable_normal(mean_stddev=0.0)
        self.kernel_regularizer = _regularizer_or_default(kernel_regularizer)
        self.recurrent_regularizer = _regularizer_or_default(recurrent_regularizer)
        self.bias_regularizer = _regularizer_or_default(bias_regularizer)
        self.kernel = None
        self.recurrent = None
        self.bias = None
        self._samples = None

    def build(self, input_dim, seed=0):
        if self.kernel is None:
            self.kernel = self._make_param(
                "kernel", (input_dim, 4 * self.units), seed, "kernel")
            self.recurrent = self._make_param(
                "recurrent", (self.units, 4 * self.units), seed, "recurrent")
            self.bias = self._make_param("bias", (4 * self.units,), seed, "bias")

    def start_sequence(self, input_dim, seed):
        """Sample weights for one sequence and append their KL losses."""
        seed = self._check_seed(seed)
        self.build(input_dim, seed)
        self._losses = []
        w = self.kernel.sample(self.rng(seed, "kernel"))
        u = self.recurrent.sample(self.rng(seed, "recurrent"))
        b = self.bias.sample(self.rng(seed, "bias"))
        self._samples = (w.value, u.value, b.value)
        self._regularize("kernel", w)
        self._regularize("recurrent", u)
        self._regularize("bias", b)

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

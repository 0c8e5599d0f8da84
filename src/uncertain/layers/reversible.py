"""Reversible layers: exact inverses and log-det-Jacobians for flows.

A reversible layer adds to the ordinary layer contract:

* ``call(x, seed)``: the forward map y = f(x);
* ``reverse(y)``: its exact inverse x = f^-1(y);
* ``log_det_jacobian(x)`` (optional): log |det J_f(x)| at a point;
* ``inverse_and_log_det(y)``: (f^-1(y), log |det J_f(f^-1(y))|), the one
  primitive densities use.  The default runs ``reverse`` and then
  ``log_det_jacobian``; a coupling computes both from one conditioner pass,
  and its ``reverse`` is this pass too.

Called on a Distribution, a reversible layer returns the pushforward
TransformedDistribution and draws nothing, so a Sequential of reversibles
turns a base density into a flow density (a layer not yet built raises
LayerError).  On a RandomVariable or a tensor it is called as any layer is,
and returns the forward map, bound to that pushforward or plain.

``log_det_jacobian`` is optional for pure round-trip use: layers without it
still invert, and a density query raises NotReversibleError at that point.
"""
from __future__ import annotations

import warnings

import numpy as np

from ..distributions import (
    Discretized,
    Distribution,
    RandomVariable,
    TransformedDistribution,
)
from ..errors import NotReversibleError, ShapeError
from ..rng import mix
from ..tensor import (
    Tensor,
    as_tensor,
    coupling_inverse,
    coupling_scale,
    exp,
    matmul,
    relu,
    reshape,
    slice_last,
    tensor_sum,
)
from .base import Layer, glorot_uniform, zeros_init

_SCALE_BOUND = 3.0  # a coupling's log-scales lie in (-3, 3)


class ReversibleLayer(Layer):
    """Layer with an exact inverse.

    Subclasses define ``call`` and ``reverse`` (one without ``reverse`` is
    not reversible: ``Reverse`` and ``Sequential`` raise NotReversibleError),
    and ``log_det_jacobian`` for density use; ``inverse_and_log_det``
    defaults to one ``reverse`` and one ``log_det_jacobian`` and may be
    overridden by a single fused pass.  These passes call inner layers with
    ``seed=None`` (see :meth:`Layer.rng`).  ``__call__`` adds only the
    pushforward to :meth:`Layer.__call__`.
    """

    def __call__(self, x, seed=None):
        if isinstance(x, RandomVariable):
            return RandomVariable(TransformedDistribution(x.distribution, self),
                                  super().__call__(x.value, seed))
        if not isinstance(x, Distribution):
            return super().__call__(x, seed)
        self._losses = []
        self._check_seed(seed)
        self._check_built()
        return TransformedDistribution(x, self)

    def log_det_jacobian(self, x):
        raise NotReversibleError(
            f"{type(self).__name__} does not implement log_det_jacobian; "
            "density propagation through it is unavailable"
        )

    def inverse_and_log_det(self, y):
        x = self.reverse(y)
        return x, self.log_det_jacobian(x)


class CouplingLayer(ReversibleLayer):
    """Affine coupling: the masked coordinates condition an elementwise
    affine update of the complementary coordinates.

        y = m*x + (1-m) * (x * exp(s(m*x)) + t(m*x))

    The conditioner maps the masked input to a (shift, raw log-scale) pair;
    raw log-scales pass through tanh times 3, so exp stays tame.  The
    log-det-Jacobian is the sum of the active log-scales.  The bounded
    log-scale and the inverse map are one tape op each
    (``tensor.coupling_scale``, ``tensor.coupling_inverse``), bitwise equal
    to the elementwise composites they replace.  A conditioner that declares
    ``dims`` must match the mask's width.
    """

    def __init__(self, mask, conditioner, name=None):
        super().__init__(name)
        mask = np.asarray(mask, dtype=np.float64)
        if mask.ndim != 1 or not set(np.unique(mask)) <= {0.0, 1.0}:
            raise ValueError("mask must be a binary vector")
        if mask.min() == mask.max():
            raise ValueError("mask must have both zeros and ones")
        dims = getattr(conditioner, "dims", None)
        if dims is not None and dims != mask.shape[0]:
            raise ValueError(
                f"conditioner dims {dims} does not match the mask's width "
                f"{mask.shape[0]}"
            )
        self.mask = self.add_buffer("mask", mask)
        self.conditioner = self.add_child("conditioner", conditioner)

    def _affine(self, x, seed=None):
        """One conditioner pass: (x, anchored part, shift, scale), the shift
        unmasked and the scale already zero on the anchored coordinates.
        Inverses and densities give no seed: the conditioner runs with
        ``seed=None``, so one that draws from a layer's ``rng`` raises."""
        x = as_tensor(x)
        if x.shape[-1] != self.mask.shape[0]:
            raise ShapeError(
                f"coupling expects last axis {self.mask.shape[0]}, "
                f"got {list(x.shape)}"
            )
        anchored = x * self.mask
        shift, raw_scale = self.conditioner(anchored, seed=seed)
        scale = coupling_scale(raw_scale, _SCALE_BOUND, 1.0 - self.mask)
        return x, anchored, shift, scale

    def call(self, x, seed):
        x, anchored, shift, scale = self._affine(x, seed)
        active = 1.0 - self.mask
        return anchored + active * (x * exp(scale) + shift * active)

    def reverse(self, y):
        return self.inverse_and_log_det(y)[0]

    def log_det_jacobian(self, x):
        return tensor_sum(self._affine(x)[3], axis=-1)

    def inverse_and_log_det(self, y):
        # y's anchored part equals x's, so one conditioner pass gives both
        y, anchored, shift, scale = self._affine(y)
        x = coupling_inverse(anchored, y, shift, scale, 1.0 - self.mask)
        return x, tensor_sum(scale, axis=-1)


class Reverse(ReversibleLayer):
    """Swap a layer's forward and reverse computations.

    Construction accepts any layer; by ducktyping, calling the wrapper of a
    layer without ``reverse`` is what raises.  The first call builds an
    unbuilt inner layer with one forward call on that same-shaped input.
    """

    def __init__(self, layer, name=None):
        super().__init__(name)
        self.inner = self.add_child("inner", layer)
        self.built = layer.built  # nothing to build around a built layer

    def build(self, x, seed):
        if not self.inner.built:
            self.inner(x, seed=seed)

    def call(self, x, seed):
        if not hasattr(self.inner, "reverse"):
            raise NotReversibleError(
                f"{type(self.inner).__name__} does not implement reverse"
            )
        return self.inner.reverse(as_tensor(x))

    def reverse(self, y):
        return as_tensor(self.inner(y, seed=None))

    def log_det_jacobian(self, x):
        if not hasattr(self.inner, "inverse_and_log_det"):
            raise NotReversibleError(
                f"{type(self.inner).__name__} has no inverse_and_log_det"
            )
        return -self.inner.inverse_and_log_det(as_tensor(x))[1]


def _hidden_sizes(hidden_sizes):
    """A conditioner's hidden widths as a tuple of ints, each at least 1."""
    sizes = tuple(int(h) for h in hidden_sizes)
    if any(h < 1 for h in sizes):
        raise ValueError(f"hidden widths must be >= 1, got {list(sizes)}")
    return sizes


def _made_degrees(dims, hidden_sizes):
    """Input degrees 1..d; hidden degrees cycle 1..d-1 sequentially."""
    degrees = [np.arange(1, dims + 1)]
    for width in hidden_sizes:
        if width < dims - 1:
            warnings.warn(
                f"MADE hidden width {width} is below {dims - 1}; some "
                "autoregressive conditionals lose all capacity",
                stacklevel=3,
            )
        degrees.append(np.arange(width) % max(dims - 1, 1) + 1)
    return degrees


class MADE(Layer):
    """Masked dense stack producing one (shift, log-scale) pair per input.

    Masks enforce the strict autoregressive property: output i depends only
    on inputs with degree below i, so the Jacobian of either output with
    respect to the input is strictly lower triangular.  Masks are binary
    buffers fixed at construction; the two output heads start at zero so a
    fresh flow is the identity map.  Hidden weight i is seeded by its
    position alone, so same-shaped conditioners start equal; in a flow they
    diverge from the first step, as each coupling sees a different input.
    """

    def __init__(self, dims, hidden_sizes=(32,), activation=relu,
                 kernel_initializer=None, name=None):
        super().__init__(name)
        if dims < 2:
            raise ValueError(f"MADE needs dims >= 2, got {dims}")
        self.dims = int(dims)
        self.hidden_sizes = _hidden_sizes(hidden_sizes)
        self.activation = activation
        init = kernel_initializer or glorot_uniform
        degrees = _made_degrees(self.dims, self.hidden_sizes)
        widths = [self.dims, *self.hidden_sizes]
        self._masks = []
        for i in range(len(self.hidden_sizes)):
            mask = (degrees[i][:, None] <= degrees[i + 1][None, :])
            self._masks.append(self.add_buffer(f"mask{i}", mask))
            self.add_param(f"w{i}", init((widths[i], widths[i + 1]),
                                         mix("made", i)))
            self.add_param(f"b{i}", np.zeros(widths[i + 1]))
        out_mask = (degrees[-1][:, None] < degrees[0][None, :])
        self._out_mask = self.add_buffer("mask_out", out_mask)
        last = widths[-1]
        for head in ("shift", "scale"):
            self.add_param(f"w_{head}", zeros_init((last, self.dims), 0))
            self.add_param(f"b_{head}", np.zeros(self.dims))

    def call(self, x, seed):
        x = as_tensor(x)
        if x.shape[-1] != self.dims:
            raise ShapeError(
                f"MADE expects last axis {self.dims}, got {list(x.shape)}"
            )
        h = x if x.ndim == 2 else reshape(x, (-1, self.dims))
        for i in range(len(self.hidden_sizes)):
            w = self._params[f"w{i}"] * self._masks[i]
            h = self.activation(matmul(h, w) + self._params[f"b{i}"])
        shift = matmul(h, self._params["w_shift"] * self._out_mask) \
            + self._params["b_shift"]
        raw_scale = matmul(h, self._params["w_scale"] * self._out_mask) \
            + self._params["b_scale"]
        if x.ndim != 2:
            shift = reshape(shift, x.shape)
            raw_scale = reshape(raw_scale, x.shape)
        return shift, raw_scale


class DenseConditioner(Layer):
    """Plain MLP conditioner: hidden stack plus a zero-initialized affine
    head split into (shift, raw log-scale).  Hidden weights are seeded by
    position, as in :class:`MADE`; ``dims`` must be at least 1."""

    def __init__(self, dims, hidden_sizes=(32,), activation=relu, name=None):
        super().__init__(name)
        if dims < 1:
            raise ValueError(f"DenseConditioner needs dims >= 1, got {dims}")
        self.dims = int(dims)
        self.hidden_sizes = _hidden_sizes(hidden_sizes)
        self.activation = activation
        widths = [self.dims, *self.hidden_sizes]
        for i in range(len(self.hidden_sizes)):
            self.add_param(f"w{i}", glorot_uniform(
                (widths[i], widths[i + 1]), mix("dense-conditioner", i)))
            self.add_param(f"b{i}", np.zeros(widths[i + 1]))
        self.add_param("w_out", np.zeros((widths[-1], 2 * self.dims)))
        self.add_param("b_out", np.zeros(2 * self.dims))

    def call(self, x, seed):
        x = as_tensor(x)
        h = x if x.ndim == 2 else reshape(x, (-1, self.dims))
        for i in range(len(self.hidden_sizes)):
            h = self.activation(matmul(h, self._params[f"w{i}"])
                                + self._params[f"b{i}"])
        out = matmul(h, self._params["w_out"]) + self._params["b_out"]
        shift = slice_last(out, 0, self.dims)
        raw_scale = slice_last(out, self.dims, 2 * self.dims)
        if x.ndim != 2:
            shift = reshape(shift, x.shape)
            raw_scale = reshape(raw_scale, x.shape)
        return shift, raw_scale


def alternating_mask(dims, parity=0):
    """Binary mask fixing the even (parity 0) or odd coordinates."""
    mask = np.arange(dims) % 2 == parity
    return mask.astype(np.float64)


class Discretize(Layer):
    """Bin a continuous RandomVariable onto integers low..high.

    pmf(k) integrates the base density over (k - 1/2, k + 1/2]; the edge
    bins absorb the tails.  The base distribution must expose a cdf.
    """

    def __init__(self, low=0, high=255, name=None):
        super().__init__(name)
        self.low = int(low)
        self.high = int(high)
        if self.low >= self.high:  # one bin would be both edges
            raise ValueError(f"low {self.low} must be below high {self.high}")

    def call(self, x, seed):
        if not isinstance(x, RandomVariable):
            raise TypeError(
                "Discretize needs a continuous RandomVariable input, got "
                f"{type(x).__name__}"
            )
        dist = Discretized(x.distribution, self.low, self.high)
        value = Tensor(np.clip(np.rint(x.value.data), self.low, self.high))
        return RandomVariable(dist, value)

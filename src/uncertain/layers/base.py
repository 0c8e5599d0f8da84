"""The layer contract shared by every layer in the package.

A layer maps tensors (or RandomVariables) to tensors (or RandomVariables),
owns named parameters, and side-effects a list of scalar regularizer losses
during each call: returning regularizers explicitly would break composition,
so callers read ``layer.losses``, a fresh list, after the call.
The loss list is cleared at the start of each call, which keeps repeated
calls from double-counting KL terms.

Initializers are callables ``(shape, seed) -> Tensor | Distribution``; a
weight (:class:`VariationalParameter`) whose initializer returns a
Distribution is a posterior sampled at each call, which is how Bayesian
layers differ from deterministic ones.  Regularizers are callables from a
weight's sample to a scalar tensor.

Building: :meth:`Layer.__call__` is the one call protocol.  It clears the
losses, checks the seed and, for a class that declares ``input_rank``, the
input's rank, then runs ``build(x, seed)`` once, on the first call, before
``call``.  Those are the two things a custom layer declares beyond ``call``:
``input_rank``, the rank of a one-seed input (None, the default, leaves the
input unchecked and unconverted), and ``build``, which creates the
parameters that depend on the first input.  No layer bypasses the protocol:
``ReversibleLayer`` alone overrides ``__call__``, to add a pushforward
only, and ``VariationalLSTMCell`` takes a whole [batch, time, features]
sequence, its ``draw`` and ``step`` public for stepping by hand.  A layer
without its own ``build`` is built from the start; ``built`` turns True
only after a ``build`` returns, so one that raises is retried on the next
call, and it leaves no parameter, buffer or child of its own registered.
No build succeeds while a ``Tape`` is recording: a parameter created there is
not watched and would silently get no gradient, so :meth:`Layer.add_param`
raises ``LayerError``.  ``training.fit`` makes that first call before its
first step; call a model once yourself before recording your own tape.

Randomness: a layer derives every sample from (call seed, its ``path``, a
per-site salt).  The path is the chain of child names from the root, such as
``layer1/conditioner``, and ``""`` for a root; :meth:`Layer.add_child` sets
it.  A layer's streams therefore depend on where it sits in its model, not
on what else the process built, and a model rebuilt from the same
constructor calls reproduces its streams bitwise.  Two root layers composed
by hand, as in ``b(a(x, seed=5), seed=5)``, both have path ``""``: same-shaped
ones start from equal parameters and draw equal noise.  Register them as
children of one model (``Sequential([a, b])``) to give them distinct paths.

Monte-Carlo sample axis: ``layer(x, seed=seeds)`` with a sequence of S seeds
draws S samples in one call and returns them along a new leading axis of
length S.  ``x`` is either rank 2, shared by every sample, or carries that
leading axis.  Sample s is bitwise equal to ``layer(x_s, seed=seeds[s])``
and is drawn from the same Philox streams; regularizer losses are appended
once per call, not once per sample.  ``Dense`` (a posterior weight stacks
S draws, a point weight is shared), ``Sequential``, ``VariationalDense`` and
``SparseGaussianProcess`` have the axis (``sample_axis = True``).  Every
other layer, and a layer that is not yet built, raises ``LayerError`` naming
itself when given a seed sequence.
"""
from __future__ import annotations

import contextlib
import math

import numpy as np

from ..distributions import Distribution, Normal, kl_divergence
from ..errors import LayerError, NotReversibleError, ShapeError
from ..rng import mix, rng_from, rng_streams
from ..tensor import (
    Tensor,
    active_tape,
    as_tensor,
    broadcast_to,
    matmul,
    relu,
    reshape,
    sigmoid,
    softplus,
    softplus_inverse,
    tanh,
)


def reset_layer_indices():
    """No-op, kept for old callers: streams are keyed by layer path, so no
    global state needs resetting between builds."""


ACTIVATIONS = {
    None: lambda x: x,
    "linear": lambda x: x,
    "relu": relu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "softplus": softplus,
}


def resolve_activation(activation):
    if callable(activation):
        return activation
    try:
        return ACTIVATIONS[activation]
    except KeyError:
        raise ValueError(
            f"unknown activation {activation!r}; "
            f"known: {sorted(k for k in ACTIVATIONS if k)}"
        ) from None


class Layer:
    """Base class: parameter registry, loss side channel, seed splitting."""

    #: whether ``call`` takes a tuple of seeds (see the module docstring)
    sample_axis = False
    #: rank of a one-seed input; None leaves the input unchecked
    input_rank = None

    def __init__(self, name=None):
        self.name = name or type(self).__name__.lower()
        self.built = type(self).build is Layer.build  # no build, none needed
        self.path = ""  # chain of child names from the root; set by add_child
        self._params: dict[str, Tensor] = {}  # trained; buffers are not
        self._buffers: dict[str, Tensor] = {}
        self._children: dict[str, Layer] = {}
        self._losses: list[Tensor] = []

    # -- registry ----------------------------------------------------------
    def add_param(self, name, values) -> Tensor:
        if active_tape() is not None:  # it would never be watched
            raise LayerError(f"{self.path or self.name}/{name} created while "
                             "a Tape records; call the model once before")
        t = values if isinstance(values, Tensor) else Tensor(values)
        self._params[name] = t
        return t

    def add_buffer(self, name, values) -> Tensor:
        t = Tensor(values)
        self._buffers[name] = t
        return t

    def add_child(self, name, layer: "Layer") -> "Layer":
        self._children[name] = layer
        layer._set_path(f"{self.path}/{name}" if self.path else name)
        return layer

    def _set_path(self, path):
        self.path = path
        for name, child in self._children.items():
            child._set_path(f"{path}/{name}")

    def add_loss(self, value: Tensor):
        self._losses.append(value)

    # -- call protocol -----------------------------------------------------
    def build(self, x, seed):
        """Create the parameters from the first input; runs once, with an
        int seed, before the first ``call``."""

    def call(self, x, seed):
        raise NotImplementedError

    def __call__(self, x, seed=0):
        self._losses = []
        seed = self._check_seed(seed)
        if self.input_rank is not None:
            x = as_tensor(x)
            self._check_rank(x, seed)
        if not self.built:
            if isinstance(seed, tuple):
                raise LayerError(
                    f"{self.name} ({type(self).__name__}) is not built; call "
                    "it once with an int seed before passing a seed sequence"
                )
            with self._undone_on_error():
                self.build(x, seed)
            self.built = True
        return self.call(x, seed)

    @contextlib.contextmanager
    def _undone_on_error(self):
        """Unregister every parameter, buffer and child the block added if
        it raises, so a failed build leaves nothing behind."""
        registry = self._params, self._buffers, self._children
        before = [dict(table) for table in registry]
        try:
            yield
        except BaseException:
            for table, entries in zip(registry, before):
                table.clear()
                table.update(entries)
            raise

    def _check_seed(self, seed):
        """An int seed as given, or a seed sequence as a tuple of ints."""
        if not isinstance(seed, (list, tuple)):
            return seed
        if not self.sample_axis:
            raise LayerError(
                f"{self.name} ({type(self).__name__}) has no Monte-Carlo "
                "sample axis; call it once per seed"
            )
        if len(seed) == 0:
            raise ValueError("a seed sequence needs at least one seed")
        return tuple(int(s) for s in seed)

    def _check_rank(self, x, seed):
        """One seed takes rank ``input_rank``; S seeds take that shared
        input or one with S as a new leading axis."""
        rank = self.input_rank
        if not isinstance(seed, tuple):
            if x.ndim != rank:
                raise ShapeError(f"{type(self).__name__} expects rank-{rank} "
                                 f"input, got {list(x.shape)}")
        elif x.ndim != rank and (x.ndim != rank + 1
                                 or x.shape[0] != len(seed)):
            raise ShapeError(
                f"{type(self).__name__} with {len(seed)} seeds expects rank-"
                f"{rank} input or rank {rank + 1} with leading axis "
                f"{len(seed)}, got {list(x.shape)}"
            )

    @property
    def losses(self) -> list:
        """Regularizer scalars accumulated during the most recent call."""
        collected = []
        for child in self._children.values():
            collected.extend(child.losses)
        collected.extend(self._losses)
        return collected

    def rng(self, seed, *salts):
        """Philox generator keyed by (seed, layer path, salts).  A tuple of
        seeds gives a list with one generator per seed, each bitwise the
        one-seed generator; ``rng_streams`` derives their keys together."""
        if isinstance(seed, tuple):
            return rng_streams(seed, self.path, *salts)
        return rng_from(seed, self.path, *salts)

    # -- state -------------------------------------------------------------
    def named_state(self, trainable_only=False):
        """Yield (path, tensor) over params (and buffers) of the whole tree."""
        yield from self._params.items()
        if not trainable_only:
            for name, t in self._buffers.items():
                yield name, t
        for child_name, child in self._children.items():
            for name, t in child.named_state(trainable_only):
                yield f"{child_name}/{name}", t

    def trainable_variables(self) -> dict[str, Tensor]:
        """Trainable tensors by path; one that two paths reach (a shared
        kernel, say) is listed once, under the first."""
        unique = {}
        for name, t in self.named_state(trainable_only=True):
            unique.setdefault(id(t), (name, t))
        return dict(unique.values())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_state()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Copy ``state`` in; its entry names and shapes must be exactly the
        model's, and a mismatch raises before any entry is written."""
        own = dict(self.named_state())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        problems = [f"is missing entries: {missing}"] if missing else []
        if unexpected:
            problems.append(f"has unexpected entries: {unexpected}")
        if problems:
            raise KeyError("state " + "; ".join(problems))
        values = {name: np.asarray(state[name], dtype=np.float64)
                  for name in own}
        for name, t in own.items():  # check every shape before writing any
            if values[name].shape != t.shape:
                raise ShapeError(
                    f"state entry {name!r} has shape "
                    f"{list(values[name].shape)}, expected {list(t.shape)}"
                )
        for name, t in own.items():
            t.data[...] = values[name]

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------------
# initializers and regularizers
# ---------------------------------------------------------------------------

def _fans(shape):
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[:-2]))
    return receptive * shape[-2], receptive * shape[-1]


def glorot_uniform(shape, seed):
    """Scaled uniform with bound sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng_from(seed, "glorot").uniform(-bound, bound, shape))


def zeros_init(shape, seed):
    return Tensor(np.zeros(shape))


def trainable_normal(mean_stddev=0.1, stddev=0.1):
    """Variational-posterior initializer: a normal whose mean is drawn at
    fan-adjusted small scale and whose scale starts at ``stddev``."""

    def initializer(shape, seed):
        fan_in, fan_out = _fans(shape)
        loc_scale = mean_stddev * math.sqrt(2.0 / (fan_in + fan_out))
        loc = rng_from(seed, "posterior-mean").normal(0.0, loc_scale, shape)
        return Normal(Tensor(loc), Tensor(np.full(shape, stddev)))

    return initializer


def normal_kl(prior=None):
    """Default regularizer: KL from the parameter's posterior to its prior
    (standard normal unless given)."""
    prior = prior or Normal(0.0, 1.0)

    def regularizer(rv):
        return kl_divergence(rv.distribution, prior)

    return regularizer


class VariationalParameter:
    """One weight of a layer, made in its ``__init__`` from the weight's
    name, initializer (``trainable_normal()`` when None) and regularizer
    (``"default"``: ``normal_kl()`` for a posterior, no loss for a point).

    :meth:`build` seeds the initializer with ``rng_seed(seed, layer, name)``.
    A Tensor becomes the point parameter ``<name>``; a Normal the mean-field
    posterior ``<name>_mu`` and ``<name>_rho`` (pre-softplus scale), which
    :meth:`sample` draws from ``layer.rng(seed, name)``.
    """

    def __init__(self, name, initializer=None, regularizer="default"):
        self.name = name
        self.initializer = initializer or trainable_normal()
        self.regularizer = regularizer

    def build(self, layer: Layer, shape, seed):
        init = self.initializer(shape, rng_seed(seed, layer, self.name))
        self.layer = layer
        self.point = self.mu = self.rho = None
        if isinstance(init, Distribution):
            loc = np.broadcast_to(init.loc.data, shape).copy()
            scale = np.broadcast_to(init.scale.data, shape).copy()
            self.mu = layer.add_param(f"{self.name}_mu", loc)
            self.rho = layer.add_param(f"{self.name}_rho",
                                       softplus_inverse(scale))
        else:
            self.point = layer.add_param(self.name, init)
        self.loss = self.regularizer
        if self.regularizer == "default":
            self.loss = normal_kl() if self.point is None else None

    def posterior(self) -> Normal:
        return Normal(self.mu, softplus(self.rho))

    def sample(self, seed) -> Tensor:
        """The point tensor, or a reparameterized draw (a RandomVariable);
        a tuple of S seeds stacks S draws, one per seed, on a new leading
        axis."""
        if self.point is not None:
            return self.point
        return self.posterior().sample(self.layer.rng(seed, self.name))

    def regularize(self, value):
        """Append the regularizer's loss on a sample to the layer's losses."""
        if self.loss is not None:
            self.layer.add_loss(self.loss(value))


# ---------------------------------------------------------------------------
# dense and sequential layers
# ---------------------------------------------------------------------------

class Dense(Layer):
    """Feedforward layer activation(x @ kernel + bias); kernel and bias are
    :class:`VariationalParameter` weights, point estimates by default."""

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
        self.kernel = VariationalParameter(
            "kernel", kernel_initializer or glorot_uniform, kernel_regularizer)
        self.bias = VariationalParameter(
            "bias", bias_initializer or zeros_init, bias_regularizer)

    def build(self, x, seed):
        self.kernel.build(self, (x.shape[-1], self.units), seed)
        self.bias.build(self, (self.units,), seed)

    def call(self, x, seed):
        w = self.kernel.sample(seed)
        b = self.bias.sample(seed)
        bias = reshape(b, (len(seed), 1, self.units)) if b.ndim == 2 else b
        out = self.activation(matmul(x, w) + bias)
        if out.ndim == 2 and isinstance(seed, tuple):
            # point weights and a shared x give every sample one output
            out = broadcast_to(out, (len(seed),) + out.shape)
        self.kernel.regularize(w)
        self.bias.regularize(b)
        return out


class Sequential(Layer):
    """Composition of layers in list order; losses concatenate after a call.

    A seed sequence goes to every layer, so each must have the sample axis.
    """

    sample_axis = True

    def __init__(self, layers, name=None):
        super().__init__(name)
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            self.add_child(f"layer{i}", layer)

    def call(self, x, seed):
        out = x
        for i, layer in enumerate(self.layers):
            try:
                out = layer(out, seed=seed)
            except LayerError:
                raise
            except Exception as exc:
                raise LayerError(
                    f"layer {i} ({layer.name}): {exc}"
                ) from exc
        return out

    # flows compose inside Sequential: reverse runs right to left, and so
    # does inverse_and_log_det, summing the log-det terms of the pieces
    def reverse(self, y):
        out = y
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            if not hasattr(layer, "reverse"):
                raise NotReversibleError(
                    f"layer {i} ({layer.name}) does not implement reverse"
                )
            out = layer.reverse(out)
        return out

    def log_det_jacobian(self, x):
        return self.inverse_and_log_det(self(x, seed=0))[1]

    def inverse_and_log_det(self, y):
        total = None
        out = y
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            if not hasattr(layer, "inverse_and_log_det"):
                raise NotReversibleError(
                    f"layer {i} ({layer.name}) has no inverse_and_log_det"
                )
            out, term = layer.inverse_and_log_det(out)
            total = term if total is None else total + term
        return out, total


def rng_seed(seed, layer, *salts) -> int:
    """Derive a child seed from (call seed, layer path, salts)."""
    return mix(seed, layer.path, *salts)

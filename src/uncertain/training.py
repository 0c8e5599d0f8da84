"""ELBO training: the per-step objective, Adam, and the fit loop.

The per-step loss is

    -(1/S) sum_s mean_batch log p(y | f(x; sample s)) + kl_scale * sum(losses)

where the KL regularizers come from the model's loss side channel after the
call.  ``kl_scale`` defaults to 1/N so the minibatch objective is an unbiased
estimate of the full-data ELBO divided by N; the unscaled-sum convention of
full-batch training corresponds to a constant kl_scale of 1.0 with
batch_size == N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import batch_indices
from .distributions import Distribution, RandomVariable
from .errors import ConfigError, TrainingError
from .layers.base import Layer
from .rng import mix
from .tensor import Tape, Tensor, tensor_mean

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class ElboConfig:
    num_train_examples: int
    batch_size: int
    learning_rate: float = 1e-2
    max_steps: int = 1000
    mc_samples: int = 1
    kl_scale: object = "one_over_N"  # or a numeric constant
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.batch_size > self.num_train_examples:
            raise ConfigError(
                f"batch_size {self.batch_size} exceeds "
                f"num_train_examples {self.num_train_examples}"
            )
        if self.mc_samples < 1:
            raise ConfigError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.kl_scale != "one_over_N":
            try:
                value = float(self.kl_scale)
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value) or value < 0.0:
                raise ConfigError(
                    f"kl_scale must be 'one_over_N' or a finite number >= 0, "
                    f"got {self.kl_scale!r}"
                )
            self.kl_scale = value

    def kl_factor(self) -> float:
        if self.kl_scale == "one_over_N":
            return 1.0 / self.num_train_examples
        return float(self.kl_scale)


def _blame_non_finite(layer: Layer) -> str:
    """``path (name)`` of the first layer, children before their parent,
    whose last call left a non-finite loss; "" when none did."""
    for child in layer._children.values():
        blame = _blame_non_finite(child)
        if blame:
            return blame
    if any(not np.all(np.isfinite(loss.data)) for loss in layer._losses):
        return f"{layer.path} ({layer.name})" if layer.path else layer.name
    return ""


def _check_children_registered(layer: Layer):
    """Raise when a layer holds a Layer, directly or as a value of a list,
    tuple or dict attribute, that is not one of its registered children: such
    a layer is never trained, gives no KL term and shares its parent's random
    streams."""
    registered = {id(child) for child in layer._children.values()}
    for attr, value in vars(layer).items():
        if isinstance(value, dict):
            value = list(value.values())
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, Layer) and id(item) not in registered:
                raise TrainingError(
                    f"{layer.path or layer.name}.{attr} holds an unregistered "
                    f"{type(item).__name__}; register it with add_child")
    for child in layer._children.values():
        _check_children_registered(child)


def pack_parameters(params: dict) -> np.ndarray:
    """Copy ``params`` into one contiguous float64 vector, one after another
    in dict order, and make each parameter's ``data`` a reshaped view of its
    slice; returns the vector.

    The vector is what Adam updates, so code that changes a packed parameter
    must write into ``p.data[...]``: rebinding ``p.data`` detaches the
    parameter from the vector, and training then never moves it.
    """
    flat = np.concatenate([p.data.ravel() for p in params.values()]
                          or [np.zeros(0)])
    offset = 0
    for p in params.values():
        p.data = flat[offset:offset + p.size].reshape(p.shape)
        offset += p.size
    return flat


def elbo_step(model, batch_x, batch_y, cfg: ElboConfig, step,
              likelihood=None, params=None):
    """One ELBO evaluation with gradients.

    The model must be built (``fit`` builds it): a layer that creates a
    parameter on this step's tape raises :class:`LayerError`.  ``params``
    defaults to ``model.trainable_variables()``.  The model's output must
    be a RandomVariable or a Distribution (its ``log_prob`` is the
    likelihood) unless a ``likelihood(output, y) -> per-element log prob``
    is supplied.  Returns (loss Tensor, kl value, gradient): the loss is
    tracked on this step's tape, ``loss.tape``, and the gradient is a flat
    float64 vector laid out as :func:`pack_parameters` lays out ``params``.
    Raises :class:`TrainingError` when the loss or a parameter's gradient
    is not finite.
    """
    if params is None:
        params = model.trainable_variables()
    grad = np.empty(sum(p.size for p in params.values()))
    tape = Tape()
    with tape:
        for p in params.values():
            tape.watch(p)
        log_lik = None
        # a density pushed from a Distribution draws nothing: score it once
        samples = 1 if isinstance(batch_x, Distribution) else cfg.mc_samples
        for s in range(samples):
            out = model(batch_x, seed=mix(cfg.seed, "step", step, "mc", s))
            if likelihood is not None:
                lp = likelihood(out, batch_y)
            elif isinstance(out, (RandomVariable, Distribution)):
                lp = out.log_prob(batch_y)
            else:
                raise TrainingError(
                    "model output is a plain tensor and no likelihood was "
                    "supplied; end the model with a stochastic output layer "
                    "or pass likelihood="
                )
            term = tensor_mean(lp)
            log_lik = term if log_lik is None else log_lik + term
        log_lik = log_lik * (1.0 / samples)
        kl_terms = model.losses
        kl_value = 0.0
        loss = -log_lik
        if kl_terms:
            total = kl_terms[0]
            for term in kl_terms[1:]:
                total = total + term
            kl_value = cfg.kl_factor() * total.item()
            loss = loss + cfg.kl_factor() * total
        if not np.isfinite(loss.data):
            blame = _blame_non_finite(model) or model.name
            raise TrainingError(
                f"non-finite loss at step {step}; first offending layer: "
                f"{blame} (log-lik={log_lik.item()!r})"
            )
        if loss.node_id is None:
            grad[...] = 0.0
        else:
            tape.backward(loss, out=grad)
    finite = np.isfinite(grad)
    if not finite.all():
        ends = np.cumsum([p.size for p in params.values()])
        first = int(np.searchsorted(ends, np.argmin(finite), side="right"))
        raise TrainingError(
            f"non-finite gradient at step {step} for parameter "
            f"{list(params)[first]!r} (loss {loss.item()!r} is finite)"
        )
    return loss, kl_value, grad


def adam_update(flat, grad, m, v, t, lr,
                beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
    """Adam step ``t`` (from 1) with bias correction, in place on the flat
    vectors: the parameters ``flat`` (see :func:`pack_parameters`) and the
    moment estimates ``m`` and ``v``, which start at zero."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    flat -= lr * m_hat / (np.sqrt(v_hat) + eps)


def fit(model, features, targets, cfg: ElboConfig, likelihood=None,
        log_fn=None):
    """Run the training loop; returns the [(step, loss, kl)] trace.

    ``features`` is batched along with ``targets``, unless it is a
    Distribution: then it is the model input at every step (a flow is fed
    its base Distribution, and its output density scores the data batch,
    once per step whatever ``mc_samples`` is).

    Before the first step, ``fit`` builds the model by calling it on the
    first row of ``features`` (or on one draw of the Distribution) with seed
    ``mix(cfg.seed, "build")``, raises :class:`TrainingError` if a layer
    holds a sub-layer it did not register with ``add_child``, and then
    trains every one of ``model.trainable_variables()``, packed by
    :func:`pack_parameters` into one vector that each step's gradient and
    Adam update work on whole.  Adam's moments start at zero on each call.

    Each step's tape, with the forward arrays it saved, is released after
    the next batch's tensors are made and before the next step's
    ``elbo_step``, and the last one when the loop ends, so the whole next
    step reuses that memory.  Released at the end of its own step, or after
    the next step's backward pass, a tape's memory joins the step's freed
    temporaries at the top of the heap, where glibc returns it to the
    kernel and the next step faults it back in.
    """
    density = isinstance(features, Distribution)
    features = features if density else np.asarray(features, np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    build_seed = mix(cfg.seed, "build")
    # a Distribution pushed through a flow would build no layer below it
    model(features.sample(build_seed, sample_shape=(1,)) if density
          else Tensor(features[:1]), seed=build_seed)
    _check_children_registered(model)
    params = model.trainable_variables()
    flat = pack_parameters(params)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    trace = []
    held = None
    for step, idx in enumerate(batch_indices(
            cfg.num_train_examples, cfg.batch_size, cfg.max_steps, cfg.seed)):
        batch_x = features if density else Tensor(features[idx])
        batch_y = Tensor(targets[idx])
        if held is not None:
            held.release()
        loss, kl, grad = elbo_step(model, batch_x, batch_y, cfg, step,
                                   likelihood=likelihood, params=params)
        held = loss.tape
        adam_update(flat, grad, m, v, step + 1, cfg.learning_rate)
        trace.append((step, loss.item(), kl))
        if log_fn is not None:
            log_fn(step, loss.item(), kl)
    if held is not None:
        held.release()
    return trace


# ---------------------------------------------------------------------------
# config files: "key = value" lines, # comments
# ---------------------------------------------------------------------------

def parse_config(path) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{line_no}: expected 'key = value', got {raw!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ConfigError(
                    f"{path}:{line_no}: empty key or value in {raw!r}"
                )
            values[key] = value
    return values


def config_get(values: dict, key, cast, default):
    if key not in values:
        return default
    try:
        return cast(values[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None

"""Stochastic output layers: deterministic computation in, RandomVariable out.

These give a model a tractable likelihood (or entropy, or KL) at its output.
They carry no regularizers, so they never append losses; an optional
``units`` argument adds a trainable linear projection to the parameter count
the head needs, and without it the input's own last axis must supply the
parameters (so the event shape matches the input shape minus the packing).
"""
from __future__ import annotations

from ..distributions import (
    Categorical,
    DiscretizedLogisticMixture,
    Normal,
)
from ..errors import ShapeError
from ..tensor import as_tensor, reshape, slice_last, softplus
from .base import Dense, Layer

_SCALE_FLOOR = 1e-5


class _Head(Layer):
    """Optional projection plumbing shared by the output heads."""

    width_per_unit = 1  # distribution parameters per unit of the projection

    def __init__(self, units=None, name=None):
        super().__init__(name)
        if units is not None and units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.units = None if units is None else int(units)
        self.projection = None if units is None else self.add_child(
            "projection", Dense(self.units * self.width_per_unit))

    def _project(self, x, seed):
        """Project to units*width parameters, or pass the input through."""
        x = as_tensor(x)
        if self.projection is None:
            return x
        flat = x if x.ndim == 2 else reshape(x, (-1, x.shape[-1]))
        out = self.projection(flat, seed=seed)
        if x.ndim != 2:
            out = reshape(out, x.shape[:-1] + (self.projection.units,))
        return out


class NormalOutput(_Head):
    """Normal head: the last axis packs [loc || raw scale] halves.

    The scale is softplus(raw) + 1e-5; the floor keeps likelihoods from
    blowing up when the optimizer drives the raw scale far negative.
    """

    width_per_unit = 2

    def call(self, x, seed):
        params = self._project(x, seed)
        width = params.shape[-1]
        if width % 2:
            raise ShapeError(
                f"normal head needs an even last axis to split into "
                f"loc and scale, got {width}"
            )
        half = width // 2
        loc = slice_last(params, 0, half)
        raw = slice_last(params, half, width)
        dist = Normal(loc, softplus(raw) + _SCALE_FLOOR)
        return dist.sample(self.rng(seed, "sample"))


class CategoricalOutput(_Head):
    """Categorical head over the logits on the last axis."""

    def call(self, x, seed):
        logits = self._project(x, seed)
        dist = Categorical(logits)
        return dist.sample(self.rng(seed, "sample"))


class MixtureLogisticOutput(_Head):
    """Discretized-logistic-mixture head over integers 0..num_bins-1.

    Needs 3*num_components parameters per output element: mixture logits,
    means, and log-scales.
    """

    def __init__(self, units=None, num_components=5, num_bins=256, name=None):
        if num_components < 1:
            raise ValueError(
                f"num_components must be >= 1, got {num_components}")
        if num_bins < 2:
            raise ValueError(f"num_bins must be >= 2, got {num_bins}")
        self.num_components = int(num_components)
        self.num_bins = int(num_bins)
        self.width_per_unit = 3 * self.num_components  # sizes the projection
        super().__init__(units, name)

    def call(self, x, seed):
        k = self.num_components
        params = self._project(x, seed)
        if self.units is not None:
            params = reshape(params, params.shape[:-1] + (self.units, 3 * k))
        if params.shape[-1] != 3 * k:
            raise ShapeError(
                f"mixture head needs 3*{k} parameters on the last axis, "
                f"got {params.shape[-1]}"
            )
        dist = DiscretizedLogisticMixture(
            slice_last(params, 0, k),
            slice_last(params, k, 2 * k),
            slice_last(params, 2 * k, 3 * k),
            num_bins=self.num_bins,
        )
        return dist.sample(self.rng(seed, "sample"))

"""Layers: deterministic, variational, Gaussian-process, output, reversible."""

from .base import (
    Dense,
    Layer,
    Sequential,
    glorot_uniform,
    normal_kl,
    reset_layer_indices,
    trainable_normal,
    zeros_init,
)
from .gp import (
    GaussianProcess,
    RandomFourierFeatures,
    SparseGaussianProcess,
    SquaredExponential,
)
from .output import CategoricalOutput, MixtureLogisticOutput, NormalOutput
from .reversible import (
    MADE,
    CouplingLayer,
    DenseConditioner,
    Discretize,
    Reverse,
    ReversibleLayer,
    alternating_mask,
)
from .variational import (
    FlipoutDense,
    VariationalConv2D,
    VariationalDense,
    VariationalLSTMCell,
    VariationalParameter,
)

__all__ = [
    "MADE",
    "CategoricalOutput",
    "CouplingLayer",
    "Dense",
    "DenseConditioner",
    "Discretize",
    "FlipoutDense",
    "GaussianProcess",
    "Layer",
    "MixtureLogisticOutput",
    "NormalOutput",
    "RandomFourierFeatures",
    "Reverse",
    "ReversibleLayer",
    "Sequential",
    "SparseGaussianProcess",
    "SquaredExponential",
    "VariationalConv2D",
    "VariationalDense",
    "VariationalLSTMCell",
    "VariationalParameter",
    "alternating_mask",
    "glorot_uniform",
    "normal_kl",
    "reset_layer_indices",
    "trainable_normal",
    "zeros_init",
]

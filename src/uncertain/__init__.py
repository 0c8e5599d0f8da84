"""Uncertainty-aware neural network building blocks.

Layers that carry uncertainty in their weights (variational dense, conv and
LSTM layers), in the function itself (Gaussian process layers), in their
outputs (stochastic output heads), or that transport densities exactly
(reversible flow layers), all composable through one layer contract and
trained by maximizing an evidence lower bound on a small reverse-mode
autodiff core.
"""

from .tensor import Tape, Tensor, as_tensor
from . import distributions, layers, tensor, training

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "as_tensor",
    "distributions",
    "layers",
    "tensor",
    "training",
    "__version__",
]

"""Shared finite-difference oracles for gradient checks, the inputs of the
kernel and whitened sparse-GP ops, and a sparse GP layer's moved state."""
import math

import numpy as np

from uncertain.tensor import Tensor


def finite_diff_grad(f, x0, h=1e-5):
    """Central-difference gradient of a scalar function of one flat array."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = grad.reshape(-1)
    xf = x0.reshape(-1)
    for i in range(xf.size):
        bump = np.zeros_like(xf)
        bump[i] = h
        flat[i] = (f((xf + bump).reshape(x0.shape))
                   - f((xf - bump).reshape(x0.shape))) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def whitened_case(lead, seed=30, units=3, m=4, batch=5):
    """(kdiag, proj, scale_raw, whitened_mean) arrays for a layer of 3 units
    and 4 inducing points on a batch of 5, ``proj`` [M, batch] or, with
    ``lead`` (S,), an [S, M, batch] stack.  The upper triangle of
    ``scale_raw`` holds values the ops must ignore.  Every variance is at
    least 1 except at column 0, where kdiag puts every unit's unclamped
    variance at -0.5 or below, so the clamp bites there."""
    rng = np.random.default_rng(seed)
    proj = 0.5 * rng.standard_normal(lead + (m, batch))
    raw = 0.5 * rng.standard_normal((units, m, m))
    mean = rng.standard_normal((m, units))
    scale = (np.tril(raw, -1)
             + np.log1p(np.exp(np.diagonal(raw, 0, 1, 2)))[..., None] * np.eye(m))
    sq = np.sum(proj * proj, axis=-2)
    kept = np.max(np.sum((np.swapaxes(scale, 1, 2) @ proj[..., None, :, :]) ** 2,
                         axis=-2), axis=-2)
    kdiag = sq + 1.0
    kdiag[..., 0] = sq[..., 0] - kept[..., 0] - 0.5
    return kdiag, proj, raw, mean


def kernel_inputs(case):
    """(x, x2, log_amplitude, log_lengthscale) tensors; ``x2`` is ``x``
    itself in the "same" case, as in K_zz.  The rows of each input are
    distinct points of a 3 x 3 grid of spacing 0.5, jittered by 0.05, so
    like well-placed inducing inputs no two of them nearly coincide."""
    rng = np.random.default_rng({"rank2": 20, "rank3": 21, "same": 22}[case])
    grid = np.stack(np.meshgrid(np.arange(3.0), np.arange(3.0)), -1).reshape(-1, 2)

    def points(n):
        rows = rng.permutation(len(grid))[:n]
        return 0.5 * grid[rows] + 0.05 * rng.standard_normal((n, 2)) - 0.5

    x = Tensor(points(5))
    if case == "same":
        x2 = x
    elif case == "rank2":
        x2 = Tensor(points(6))
    else:
        x2 = Tensor(np.stack([points(6) for _ in range(3)]))
    return x, x2, Tensor(math.log(1.3)), Tensor(math.log(0.7))


KERNEL_CASES = ["rank2", "rank3", "same"]


def random_whitened_state(layer, rng):
    """Move every variational parameter of a built layer off its initial value."""
    layer.inducing_mean.data[...] = rng.standard_normal(layer.inducing_mean.shape)
    # one [U, M, M] draw fills in C order: unit after unit
    raw = layer.scale_raw
    raw.data[...] = np.tril(0.5 * rng.standard_normal(raw.shape))

"""Shared finite-difference oracles for gradient checks, and the inputs of
the whitened sparse-GP ops."""
import numpy as np


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

"""Distributions and the RandomVariable they sample.

A RandomVariable is a Tensor, the realized sample, bound to its
distribution, so stochastic values compose with deterministic layers
unchanged.  Sampling always takes an explicit seed (or an existing
Generator) and Normal/MultivariateNormal sampling is reparameterized, so
gradients flow from a sample back to the distribution parameters.

Scale and covariance parameters are taken at face value; positivity
constraints (softplus on a raw parameter, Cholesky factors) are the calling
layer's job.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ShapeError
from .rng import Streams, rng_from
from .tensor import (
    LOG_2PI,
    Tensor,
    as_tensor,
    cholesky,
    diag_part,
    erf,
    exp,
    log,
    log_softmax,
    logsumexp,
    matmul,
    reshape,
    sigmoid,
    softplus,
    square,
    take_last,
    tensor_sum,
    triangular_solve,
    where,
)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return rng_from(seed)


class RandomVariable(Tensor):
    """A sample tensor bound to the distribution it was drawn from.

    It is its sample: it shares the sample Tensor's array and tape node, so
    every op sees the sample.  ``value`` is that plain sample Tensor.
    """

    __slots__ = ("distribution", "value")

    def __init__(self, distribution, value: Tensor):
        value = as_tensor(value)
        self.data, self.tape, self.node_id = value.data, value.tape, value.node_id
        self.distribution = distribution
        self.value = value

    def log_prob(self, x):
        return self.distribution.log_prob(x)

    def __repr__(self):
        return (f"RandomVariable({type(self.distribution).__name__}, "
                f"shape={self.shape})")


class Distribution:
    """Common surface: sample(seed) -> RandomVariable, log_prob(x) -> Tensor."""

    def sample(self, seed, sample_shape=()):
        raise NotImplementedError

    def log_prob(self, x):
        raise NotImplementedError


class Normal(Distribution):
    """Elementwise normal with broadcastable loc and scale."""

    def __init__(self, loc, scale):
        self.loc = as_tensor(loc)
        self.scale = as_tensor(scale)
        if (self.scale.data < 0).any():
            raise DomainError("Normal scale must be non-negative")

    @property
    def batch_shape(self):
        return np.broadcast_shapes(self.loc.shape, self.scale.shape)

    def sample(self, seed, sample_shape=(), noise_shape=None):
        """Reparameterized draw loc + scale * eps.

        ``seed`` may be the S ``rng.Streams`` of a sample axis: they draw
        eps of ``noise_shape`` (default: the batch shape) for each sample
        into one [S, ...] array, so draw s is the one a call with stream s
        alone makes.
        """
        shape = tuple(sample_shape) + (
            self.batch_shape if noise_shape is None else tuple(noise_shape))
        if isinstance(seed, Streams):
            eps = seed.standard_normal(shape)
        else:
            eps = _as_rng(seed).standard_normal(shape)
        value = self.loc + self.scale * Tensor(eps)
        return RandomVariable(self, value)

    def log_prob(self, x):
        z = (as_tensor(x) - self.loc) / self.scale
        return -0.5 * square(z) - log(self.scale) - 0.5 * LOG_2PI

    def cdf(self, x):
        z = (as_tensor(x) - self.loc) / (self.scale * math.sqrt(2.0))
        return 0.5 * (1.0 + erf(z))

    @property
    def mean(self):
        return self.loc

    @property
    def stddev(self):
        return self.scale


class Logistic(Distribution):
    """Elementwise logistic; cdf is a sigmoid, sampling by inverse transform."""

    def __init__(self, loc, scale):
        self.loc = as_tensor(loc)
        self.scale = as_tensor(scale)
        if np.any(self.scale.data <= 0):
            raise DomainError("Logistic scale must be positive")

    @property
    def batch_shape(self):
        return np.broadcast_shapes(self.loc.shape, self.scale.shape)

    def sample(self, seed, sample_shape=()):
        rng = _as_rng(seed)
        u = rng.uniform(1e-12, 1.0 - 1e-12,
                        tuple(sample_shape) + self.batch_shape)
        noise = Tensor(np.log(u) - np.log1p(-u))
        return RandomVariable(self, self.loc + self.scale * noise)

    def log_prob(self, x):
        z = (as_tensor(x) - self.loc) / self.scale
        return -z - 2.0 * softplus(-z) - log(self.scale)

    def cdf(self, x):
        return sigmoid((as_tensor(x) - self.loc) / self.scale)


class Categorical(Distribution):
    """Finite distribution over class indices, parameterized by logits."""

    def __init__(self, logits):
        self.logits = as_tensor(logits)
        if not np.all(np.isfinite(self.logits.data)):
            raise DomainError("Categorical logits must be finite")

    @property
    def num_classes(self):
        return self.logits.shape[-1]

    def sample(self, seed, sample_shape=()):
        # Gumbel argmax; class indices are not differentiable, so detach
        rng = _as_rng(seed)
        shape = tuple(sample_shape) + self.logits.shape
        gumbel = -np.log(-np.log(rng.uniform(1e-12, 1.0, shape)))
        idx = np.argmax(self.logits.data + gumbel, axis=-1)
        return RandomVariable(self, Tensor(idx.astype(np.float64)))

    def log_prob(self, x):
        idx = as_tensor(x).data.astype(np.int64)
        if np.any(idx < 0) or np.any(idx >= self.num_classes):
            raise DomainError(
                f"Categorical outcome outside 0..{self.num_classes - 1}"
            )
        normalized = log_softmax(self.logits, axis=-1)
        if idx.shape != normalized.shape[:-1]:
            idx = np.broadcast_to(idx, normalized.shape[:-1])
        return take_last(normalized, idx)


class DiscretizedLogisticMixture(Distribution):
    """Mixture of logistics binned onto the integers 0..num_bins-1.

    Parameters live per component on the last axis: mixture logits, means and
    log-scales of logistics on the rescaled domain [-1, 1].  Interior bins
    integrate the density over one bin width; the edge bins absorb the tails.
    """

    def __init__(self, logits, means, log_scales, num_bins=256):
        self.logits = as_tensor(logits)
        self.means = as_tensor(means)
        self.log_scales = as_tensor(log_scales)
        self.num_bins = int(num_bins)
        if self.num_bins < 2:
            raise ValueError(f"num_bins must be >= 2, got {self.num_bins}")
        if not (self.logits.shape == self.means.shape == self.log_scales.shape):
            raise ShapeError(
                "mixture parameter shapes disagree: "
                f"{list(self.logits.shape)}, {list(self.means.shape)}, "
                f"{list(self.log_scales.shape)}"
            )

    def log_prob(self, x):
        x = as_tensor(x)
        values = x.data
        if np.any(values < 0) or np.any(values > self.num_bins - 1):
            raise DomainError(f"value outside 0..{self.num_bins - 1}")
        half = 1.0 / (self.num_bins - 1)
        rescaled = Tensor((2.0 * values / (self.num_bins - 1) - 1.0)[..., None])
        inv_scale = exp(-self.log_scales)
        plus_in = (rescaled + half - self.means) * inv_scale
        min_in = (rescaled - half - self.means) * inv_scale
        cdf_plus = sigmoid(plus_in)
        cdf_min = sigmoid(min_in)
        # interior mass, floored to keep the log finite under extreme params
        delta = cdf_plus - cdf_min
        log_interior = log(where(delta.data > 1e-12, delta, 1e-12))
        log_left = -softplus(-plus_in)   # log cdf from -inf
        log_right = -softplus(min_in)    # log survival to +inf
        is_left = (values == 0)[..., None]
        is_right = (values == self.num_bins - 1)[..., None]
        per_component = where(is_left, log_left,
                              where(is_right, log_right, log_interior))
        log_weights = log_softmax(self.logits, axis=-1)
        return logsumexp(log_weights + per_component, axis=-1)

    def sample(self, seed, sample_shape=()):
        rng = _as_rng(seed)
        logits = self.logits.data
        shape = tuple(sample_shape) + logits.shape[:-1]
        gumbel = -np.log(-np.log(rng.uniform(1e-12, 1.0,
                                             tuple(sample_shape) + logits.shape)))
        comp = np.argmax(logits + gumbel, axis=-1)
        means = np.broadcast_to(self.means.data, comp.shape + logits.shape[-1:])
        scales = np.exp(np.broadcast_to(self.log_scales.data,
                                        comp.shape + logits.shape[-1:]))
        mu = np.take_along_axis(means, comp[..., None], axis=-1)[..., 0]
        s = np.take_along_axis(scales, comp[..., None], axis=-1)[..., 0]
        u = rng.uniform(1e-5, 1.0 - 1e-5, shape)
        cont = mu + s * (np.log(u) - np.log1p(-u))
        pixels = np.clip(np.rint((cont + 1.0) * (self.num_bins - 1) / 2.0),
                         0, self.num_bins - 1)
        return RandomVariable(self, Tensor(pixels))


class MultivariateNormal(Distribution):
    """Full-covariance normal over the first axis of the mean.

    The mean may be a vector ``[n]`` or a matrix ``[n, k]`` of k independent
    columns sharing one ``[n, n]`` covariance.

    The covariance is factored at most once, on first use: :meth:`factor`
    caches its lower Cholesky factor L and sum(log diag L), and ``sample``,
    ``log_prob`` and :func:`kl_divergence` read only that pair.
    """

    def __init__(self, mean, covariance):
        self.mean = as_tensor(mean)
        self.covariance = as_tensor(covariance)
        n = self.covariance.shape[0]
        if self.covariance.ndim != 2 or self.covariance.shape != (n, n):
            raise ShapeError(
                f"covariance must be square, got {list(self.covariance.shape)}"
            )
        if self.mean.ndim not in (1, 2) or self.mean.shape[0] != n:
            raise ShapeError(
                f"mean shape {list(self.mean.shape)} does not match "
                f"covariance {list(self.covariance.shape)}"
            )
        if not np.allclose(self.covariance.data, self.covariance.data.T,
                           atol=1e-8):
            raise DomainError("covariance must be symmetric")
        self._factor = None

    def factor(self):
        """``(L, sum(log diag L))`` for the lower Cholesky factor L of the
        covariance; log det = 2 sum(log diag L)."""
        if self._factor is None:
            scale = cholesky(self.covariance)
            self._factor = (scale, tensor_sum(log(diag_part(scale))))
        return self._factor

    @property
    def dim(self):
        return self.covariance.shape[0]

    def _mean2d(self):
        if self.mean.ndim == 1:
            return reshape(self.mean, (self.dim, 1))
        return self.mean

    def sample(self, seed, sample_shape=()):
        if sample_shape != ():
            raise ValueError("MultivariateNormal supports single draws only")
        rng = _as_rng(seed)
        mean2 = self._mean2d()
        eps = Tensor(rng.standard_normal(mean2.shape))
        scale, _ = self.factor()
        value = mean2 + matmul(scale, eps)
        if self.mean.ndim == 1:
            value = reshape(value, (self.dim,))
        return RandomVariable(self, value)

    def log_prob(self, x):
        x = as_tensor(x)
        if x.shape != self.mean.shape:
            raise ShapeError(
                f"log_prob input shape {list(x.shape)} does not match mean "
                f"{list(self.mean.shape)}"
            )
        diff = x - self.mean
        diff2 = reshape(diff, (self.dim, 1)) if diff.ndim == 1 else diff
        scale, half_logdet = self.factor()
        quad = tensor_sum(square(triangular_solve(scale, diff2)), axis=0)
        out = -0.5 * (quad + 2.0 * half_logdet + self.dim * LOG_2PI)
        if self.mean.ndim == 1:
            out = reshape(out, ())
        return out


class TransformedDistribution(Distribution):
    """Pushforward of a base distribution through a reversible transform.

    Sampling pushes a base draw through the transform's forward call.
    ``log_prob(y)`` makes one ``transform.inverse_and_log_det(y)`` call, which
    returns x = f^-1(y) and log |det J_f(x)|, the log absolute Jacobian
    determinant of the forward map.  For elementwise base distributions the
    base log density is summed over the last axis.
    """

    def __init__(self, base, transform):
        self.base = base
        self.transform = transform

    def sample(self, seed, sample_shape=()):
        rv = self.base.sample(seed, sample_shape)
        return RandomVariable(self, self.transform(rv.value))

    def log_prob(self, y):
        x, log_det = self.transform.inverse_and_log_det(as_tensor(y))
        lp = self.base.log_prob(x)
        if isinstance(self.base, (Normal, Logistic)):
            lp = tensor_sum(lp, axis=-1)
        return lp - log_det


class Discretized(Distribution):
    """Integer distribution from integrating a continuous base over unit bins.

    pmf(k) = cdf(k + 1/2) - cdf(k - 1/2) on low..high, with the edge bins
    absorbing the tails.
    """

    def __init__(self, base, low=0, high=255):
        if not hasattr(base, "cdf"):
            raise DomainError(
                f"{type(base).__name__} has no cdf; cannot discretize"
            )
        self.base = base
        self.low = int(low)
        self.high = int(high)
        if self.low >= self.high:  # one bin would be both edges
            raise ValueError(f"low {self.low} must be below high {self.high}")

    def log_prob(self, x):
        values = as_tensor(x).data
        if np.any(values < self.low) or np.any(values > self.high):
            raise DomainError(f"value outside {self.low}..{self.high}")
        cdf_hi = self.base.cdf(Tensor(values + 0.5))
        cdf_lo = self.base.cdf(Tensor(values - 0.5))
        interior = cdf_hi - cdf_lo
        left = cdf_hi
        right = 1.0 - cdf_lo
        mass = where(values == self.low, left,
                     where(values == self.high, right, interior))
        return log(where(mass.data > 1e-300, mass, 1e-300))

    def sample(self, seed, sample_shape=()):
        rv = self.base.sample(seed, sample_shape)
        pixels = np.clip(np.rint(rv.value.data), self.low, self.high)
        return RandomVariable(self, Tensor(pixels))


def kl_divergence(q, p):
    """Closed-form KL(q || p) for matching normal families.

    For multivariate normals it reads only the cached factors Lq and Lp (see
    :meth:`MultivariateNormal.factor`): tr(Sp^-1 Sq) = ||Lp^-1 Lq||_F^2, the
    mean term is ||Lp^-1 (mq - mp)||^2 and log det S = 2 sum(log diag L).
    No matrix is inverted or factored twice.
    """
    if isinstance(q, Normal) and isinstance(p, Normal):
        var_ratio = square(q.scale / p.scale)
        mean_term = square((q.loc - p.loc) / p.scale)
        per_dim = 0.5 * (var_ratio + mean_term - 1.0 - log(var_ratio))
        return tensor_sum(per_dim)
    if isinstance(q, MultivariateNormal) and isinstance(p, MultivariateNormal):
        if q.dim != p.dim or q.mean.shape != p.mean.shape:
            raise ShapeError(
                f"KL operands disagree: mean {list(q.mean.shape)} vs "
                f"{list(p.mean.shape)}"
            )
        n = q.dim
        cols = 1 if q.mean.ndim == 1 else q.mean.shape[1]
        scale_q, half_logdet_q = q.factor()
        scale_p, half_logdet_p = p.factor()
        tr = tensor_sum(square(triangular_solve(scale_p, scale_q)))
        quad = tensor_sum(square(triangular_solve(scale_p,
                                                  q._mean2d() - p._mean2d())))
        logdets = 2.0 * (half_logdet_p - half_logdet_q)
        return 0.5 * (cols * (tr - n + logdets) + quad)
    raise TypeError(
        f"kl_divergence supports Normal||Normal and MultivariateNormal pairs, "
        f"got {type(q).__name__}||{type(p).__name__}"
    )

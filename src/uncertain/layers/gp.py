"""Gaussian-process layers in three estimator classes.

``GaussianProcess`` integrates exactly (prior or posterior predictive from
one Cholesky factor), ``SparseGaussianProcess`` uses whitened inducing
variables (Hensman et al. 2015): a variational q(v) over v = L^-1 u with
L L^T = K_zz, so each call factors K_zz once and its KL against the N(0, I)
prior is closed form, and ``RandomFourierFeatures`` projects onto fixed
cosine features with a variational readout (a ``VariationalParameter``,
the same path as the variational layers' weights).  All default to a zero mean
function and a squared exponential kernel, output one independent GP per unit
sharing the kernel, and return RandomVariables so deep stacks compose by
feeding samples forward.  ``SquaredExponential`` records one tape node per
Gram matrix and one per diagonal (``tensor.se_kernel`` and
``tensor.se_kernel_diag``), whose adjoints in the inputs and the log
hyperparameters are closed form.  ``SparseGaussianProcess`` computes its
marginal variances and its KL as one tape op each
(``tensor.whitened_variance`` and ``tensor.whitened_kl``), so a call records
14 nodes besides its mean function's, and a train-deep-gp step 72.

``SparseGaussianProcess`` has the Monte-Carlo sample axis of ``layers.base``.
With S seeds and an input [S, batch, d], the kernel, mean function and
matrix products act on each sample as a stacked slice, so sample s sees
the same BLAS calls as a one-seed call; a kernel (and mean function) used
there must accept that rank-3 input in its second argument.
"""
from __future__ import annotations

import math

import numpy as np

from ..distributions import MultivariateNormal, Normal
from ..errors import ShapeError
from ..tensor import (
    Tensor,
    as_tensor,
    cholesky,
    cos,
    exp,
    matmul,
    se_kernel,
    se_kernel_diag,
    softplus_inverse,
    sqrt,
    transpose,
    triangular_solve,
    whitened_kl,
    whitened_variance,
)
from .base import Layer, VariationalParameter

_KZZ_FLOOR = 1e-10  # diagonal added to K_zz before its factorization
_VAR_FLOOR = 1e-10  # lower clamp on predictive variances


class SquaredExponential:
    """k(x, x') = a^2 exp(-||x - x'||^2 / (2 l^2)) with log-space trainables.

    A Gram matrix is one ``se_kernel`` op and a diagonal one
    ``se_kernel_diag`` op, each with closed-form adjoints, so a call adds
    one node to the tape.
    """

    def __init__(self, amplitude=1.0, lengthscale=1.0):
        if amplitude <= 0 or lengthscale <= 0:
            raise ValueError("amplitude and lengthscale must be positive")
        self.log_amplitude = Tensor(math.log(amplitude))
        self.log_lengthscale = Tensor(math.log(lengthscale))

    def variables(self):
        return {"log_amplitude": self.log_amplitude,
                "log_lengthscale": self.log_lengthscale}

    def __call__(self, x, x2):
        """Gram matrix [n, m] of x [n, d] against x2 [m, d], or [S, n, m]
        against a stack x2 [S, m, d]."""
        x, x2 = as_tensor(x), as_tensor(x2)
        if x.ndim != 2 or x2.ndim not in (2, 3) or x.shape[1] != x2.shape[-1]:
            raise ShapeError(
                f"kernel inputs need matching feature dims, got "
                f"{list(x.shape)} and {list(x2.shape)}"
            )
        return se_kernel(x, x2, self.log_amplitude, self.log_lengthscale)

    def diag(self, x):
        """k(x_i, x_i) over the rows of x [..., d]: shape x.shape[:-1]."""
        return se_kernel_diag(x, self.log_amplitude)


def _matrix_transpose(t):
    """Swap the last two axes: the transpose of each stacked matrix."""
    return transpose(t, tuple(range(t.ndim - 2)) + (t.ndim - 1, t.ndim - 2))


class _GPLayer(Layer):
    """Shared units check, kernel parameters and mean function of the three
    estimators.  ``RandomFourierFeatures`` uses the kernel's amplitude and
    lengthscale and no mean function."""

    def __init__(self, units, mean_fn=None, kernel=None, amplitude=1.0,
                 lengthscale=1.0, name=None):
        super().__init__(name)
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.units = int(units)
        self.mean_fn = mean_fn
        self.kernel = kernel or SquaredExponential(amplitude, lengthscale)
        for k, v in self.kernel.variables().items():
            self.add_param(f"kernel_{k}", v)

    def _mean(self, x):
        shape = x.shape[:-1] + (self.units,)
        if self.mean_fn is None:
            return Tensor(np.zeros(shape))
        out = as_tensor(self.mean_fn(x))
        if out.shape != shape:
            raise ShapeError(
                f"mean_fn returned {list(out.shape)}, expected {list(shape)}"
            )
        return out


class GaussianProcess(_GPLayer):
    """Exact GP layer: the nonparametric counterpart of a dense layer.

    Without conditioning data the call returns the prior at the inputs; with
    ``conditional_inputs/outputs`` it returns the exact posterior predictive
    under Gaussian observation noise.  Exact integration needs no variational
    state, so no regularizer loss is ever appended.
    """

    def __init__(self, units, mean_fn=None, kernel=None,
                 conditional_inputs=None, conditional_outputs=None,
                 observation_noise=1e-3, amplitude=1.0, lengthscale=1.0,
                 train_noise=False, name=None):
        super().__init__(units, mean_fn, kernel, amplitude, lengthscale, name)
        if (conditional_inputs is None) != (conditional_outputs is None):
            raise ValueError(
                "conditional_inputs and conditional_outputs come together"
            )
        self.conditional_inputs = None
        self.conditional_outputs = None
        if conditional_inputs is not None:
            cx = as_tensor(conditional_inputs)
            cy = as_tensor(conditional_outputs)
            if cx.ndim != 2 or cy.ndim != 2 or cx.shape[0] != cy.shape[0]:
                raise ShapeError(
                    f"conditioning data shapes disagree: {list(cx.shape)} vs "
                    f"{list(cy.shape)}"
                )
            if cy.shape[1] != self.units:
                raise ShapeError(
                    f"conditioning outputs have {cy.shape[1]} columns, "
                    f"expected units={self.units}"
                )
            self.conditional_inputs = self.add_buffer("conditional_inputs", cx.data)
            self.conditional_outputs = self.add_buffer("conditional_outputs", cy.data)
        add = self.add_param if train_noise else self.add_buffer
        self.log_noise = add("log_noise", math.log(observation_noise))

    def predictive(self, x):
        """Posterior (or prior) predictive as a MultivariateNormal."""
        x = as_tensor(x)
        if x.ndim != 2:
            raise ShapeError(
                f"GP input must be rank 2 [batch, features], got {list(x.shape)}"
            )
        mean = self._mean(x)
        k_xx = self.kernel(x, x)
        if self.conditional_inputs is None:
            return MultivariateNormal(mean, k_xx)
        cx, cy = self.conditional_inputs, self.conditional_outputs
        k_nn = self.kernel(cx, cx)
        noise = exp(2.0 * self.log_noise)
        gram = k_nn + noise * Tensor(np.eye(cx.shape[0]))
        chol = cholesky(gram)
        cross = transpose(triangular_solve(chol, self.kernel(cx, x)))  # K_xn L^-T
        residual = cy - self._mean(cx)
        post_mean = mean + matmul(cross, triangular_solve(chol, residual))
        post_cov = k_xx - matmul(cross, transpose(cross))
        return MultivariateNormal(post_mean, post_cov)

    def call(self, x, seed):
        return self.predictive(as_tensor(x)).sample(self.rng(seed, "function"))


class SparseGaussianProcess(_GPLayer):
    """Inducing-variable GP with a whitened variational posterior.

    The inducing outputs are u = L v with L = chol(K_zz + 1e-10 I), so the
    prior on the whitened v is N(0, I).  Unit u keeps q(v_u) = N(m_v, L_v L_v^T)
    with L_v lower triangular, its diagonal passed through softplus.  The
    parameters are ``whitened_mean`` [M, units], column u for unit u, and
    ``whitened_scale_raw`` [units, M, M], slice u the raw L_v of unit u (its
    upper triangle is unused), so every unit's L_v is one stack.  The call
    returns per-point marginals sampled by reparameterization (the doubly
    stochastic estimator, which is what lets deep stacks train), and appends
    one loss: the sum over units of KL(q(v_u) || N(0, I)).

    Each call factors K_zz once and solves once, proj = L^-1 K_zx.  The
    predictive mean is mean_fn(x) + proj^T m_v, unit u's variance is
    k(x, x) - ||proj||^2 + ||L_v^T proj||^2 per column, and unit u's KL is the
    closed form 0.5 (||L_v||_F^2 + ||m_v||^2 - M) - sum(log diag L_v), which
    needs no further factor or solve.  The variances of every unit, clamped
    below at 1e-10, are one ``tensor.whitened_variance`` node and the summed
    KL one ``tensor.whitened_kl`` node, each building the L_v stack from
    ``whitened_scale_raw`` itself, with closed-form adjoints.  A call records
    14 nodes besides the mean function's: two kernel Gram matrices, the
    floored K_zz, its factor, the solve, the mean's transpose, product and
    sum, the kernel diagonal, the two whitened ops, the standard deviation's
    square root and the draw's scale and shift.

    The variational state starts at m_v = 0, L_v = I (zero KL, the prior).
    Inducing inputs start on a centered Latin hypercube over the bounding box
    of the first batch: in each dimension the M inputs take the centres of M
    equal strata, in an order drawn per dimension, so no two start closer
    than a stratum apart along any axis and K_zz starts well conditioned.

    With S seeds, K_zz is factored once for all samples and the one solve
    takes K_zx as an [S, M, batch] stack.  Sample s draws its noise from the
    stream of a one-seed call with seeds[s], and the KL is appended once.
    """

    sample_axis = True
    input_rank = 2

    def __init__(self, units, num_inducing, mean_fn=None, kernel=None,
                 amplitude=1.0, lengthscale=1.0, name=None):
        super().__init__(units, mean_fn, kernel, amplitude, lengthscale, name)
        if num_inducing < 1:
            raise ValueError(f"num_inducing must be >= 1, got {num_inducing}")
        self.num_inducing = int(num_inducing)

    def build(self, x, seed):
        m = self.num_inducing
        rng = self.rng(seed, "inducing")
        lo = x.data.min(axis=0)
        hi = x.data.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        strata = np.stack([rng.permutation(m) for _ in range(x.shape[1])],
                          axis=1)
        z0 = (strata + 0.5) / m * span + lo
        self.inducing_inputs = self.add_param("inducing_inputs", z0)
        self.inducing_mean = self.add_param("whitened_mean",
                                            np.zeros((m, self.units)))
        raw0 = softplus_inverse(1.0) * np.eye(m)
        self.scale_raw = self.add_param(
            "whitened_scale_raw", np.broadcast_to(raw0, (self.units, m, m)).copy())

    def call(self, x, seed):
        z = self.inducing_inputs
        eye = Tensor(np.eye(self.num_inducing))
        chol = cholesky(self.kernel(z, z) + _KZZ_FLOOR * eye)
        proj = triangular_solve(chol, self.kernel(z, x))      # L^-1 K_zx
        mean = self._mean(x) + matmul(_matrix_transpose(proj),
                                      self.inducing_mean)
        variance = whitened_variance(self.kernel.diag(x), proj,
                                     self.scale_raw, _VAR_FLOOR)
        self.add_loss(whitened_kl(self.scale_raw, self.inducing_mean))
        dist = Normal(mean, sqrt(variance))
        return dist.sample(self.rng(seed, "function"),
                           noise_shape=(x.shape[-2], self.units))


class RandomFourierFeatures(_GPLayer):
    """Kernel approximation by fixed random cosines with a variational readout.

    phi(x) = sqrt(2 a^2 / D) cos(x Omega / l + beta) with Omega ~ N(0, I) and
    beta ~ U[0, 2pi) frozen at build; the output is phi(x) @ W with W the
    ``readout`` weight, by default a mean-field posterior (``readout_mu``,
    ``readout_rho``) whose KL is the single loss; ``kernel_initializer`` and
    ``kernel_regularizer`` are its initializer and regularizer.
    """

    input_rank = 2

    def __init__(self, units, num_features, kernel_initializer=None,
                 kernel_regularizer="default", amplitude=1.0, lengthscale=1.0,
                 kernel=None, name=None):
        super().__init__(units, None, kernel, amplitude, lengthscale, name)
        if num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {num_features}")
        self.num_features = int(num_features)
        self.readout = VariationalParameter("readout", kernel_initializer,
                                            kernel_regularizer)

    def build(self, x, seed):
        rng = self.rng(seed, "features")
        self.directions = self.add_buffer(
            "directions", rng.standard_normal((x.shape[1], self.num_features)))
        self.phases = self.add_buffer(
            "phases", rng.uniform(0.0, 2.0 * math.pi, self.num_features))
        self.readout.build(self, (self.num_features, self.units), seed)

    def features(self, x):
        """The cosine feature map phi(x), shape [batch, num_features]."""
        if not self.built:
            raise RuntimeError("layer must be called once before features()")
        amp2 = exp(2.0 * self.kernel.log_amplitude)
        inv_ell = exp(-self.kernel.log_lengthscale)
        gain = sqrt(2.0 * amp2 * (1.0 / self.num_features))
        return gain * cos(matmul(x, self.directions) * inv_ell + self.phases)

    def call(self, x, seed):
        phi = self.features(x)
        w = self.readout.sample(seed)
        out = matmul(phi, w)
        self.readout.regularize(w)
        return out

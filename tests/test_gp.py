"""GP layers: kernel math, exact/sparse/feature estimators, deep stacks."""
import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import uncertain.layers.gp as gp_module
import uncertain.tensor as tensor_mod
from uncertain.distributions import Normal
from uncertain.layers import (
    GaussianProcess,
    RandomFourierFeatures,
    Sequential,
    SparseGaussianProcess,
    SquaredExponential,
)
from uncertain.tensor import (
    Tape,
    Tensor,
    cholesky,
    exp,
    log,
    matmul,
    reshape,
    se_kernel,
    se_kernel_diag,
    softplus,
    softplus_inverse,
    sqrt,
    square,
    tensor_sum,
    transpose,
    triangular_solve,
    where,
    whitened_kl,
    whitened_variance,
)

from conftest import finite_diff_grad, max_rel_err, whitened_case


def se_oracle(a, b, amplitude=1.0, lengthscale=1.0):
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    return amplitude**2 * np.exp(-d2 / (2.0 * lengthscale**2))


class TestSquaredExponential:
    def test_diagonal_is_amplitude_squared(self):
        k = SquaredExponential(amplitude=1.7, lengthscale=0.3)
        x = np.random.default_rng(0).normal(size=(6, 2))
        gram = k(Tensor(x), Tensor(x)).data
        np.testing.assert_allclose(np.diag(gram), 1.7**2, rtol=1e-12)

    def test_closed_form_at_sqrt2_lengthscale(self):
        ell = 0.8
        k = SquaredExponential(amplitude=1.3, lengthscale=ell)
        x = np.array([[0.0]])
        x2 = np.array([[ell * math.sqrt(2.0)]])
        got = k(Tensor(x), Tensor(x2)).item()
        assert got == pytest.approx(1.3**2 * math.exp(-1.0), rel=1e-12)

    def test_gram_symmetric_and_psd(self):
        # eigen-decomposition oracle on 10 random points
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 3))
        k = SquaredExponential(amplitude=0.9, lengthscale=1.1)
        gram = k(Tensor(x), Tensor(x)).data
        assert np.abs(gram - gram.T).max() < 1e-12
        assert np.linalg.eigvalsh(gram).min() >= -1e-10

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        x, x2 = rng.normal(size=(5, 2)), rng.normal(size=(7, 2))
        k = SquaredExponential(amplitude=1.2, lengthscale=0.6)
        np.testing.assert_allclose(k(Tensor(x), Tensor(x2)).data,
                                   se_oracle(x, x2, 1.2, 0.6), atol=1e-12)

    def test_feature_dim_mismatch(self):
        from uncertain.errors import ShapeError

        k = SquaredExponential()
        with pytest.raises(ShapeError):
            k(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


def matrix_transpose(t):
    return transpose(t, tuple(range(t.ndim - 2)) + (t.ndim - 1, t.ndim - 2))


def composite_se_kernel(x, x2, log_amplitude, log_lengthscale):
    """``se_kernel`` spelled out in elementwise, reduction and matmul tape
    ops, in the order of its forward pass: the oracle of the fused op."""
    sq_x = tensor_sum(x * x, axis=1, keepdims=True)
    sq_x2 = tensor_sum(x2 * x2, axis=-1, keepdims=True)
    sq_dist = (sq_x + matrix_transpose(sq_x2)
               - 2.0 * matmul(x, matrix_transpose(x2)))
    sq_dist = where(sq_dist.data > 0.0, sq_dist, 0.0)
    amp2 = exp(2.0 * log_amplitude)
    inv_2ell2 = 0.5 * exp(-2.0 * log_lengthscale)
    return amp2 * exp(-sq_dist * inv_2ell2)


def composite_se_kernel_diag(x, log_amplitude):
    return exp(2.0 * log_amplitude) * Tensor(np.ones(x.shape[:-1]))


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


def kernel_grads(op, inputs, weights):
    """The adjoints of sum(weights * op(*inputs)) in each input, zero for
    an input the op does not depend on."""
    with Tape() as tape:
        for t in inputs:
            tape.watch(t)
        grads = tape.backward(tensor_sum(Tensor(weights) * op(*inputs)))
    return [grads[t.node_id].data if t.node_id in grads else np.zeros(t.shape)
            for t in inputs]


class TestSeKernelOp:
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_forward_is_bitwise_the_composite(self, case):
        inputs = kernel_inputs(case)
        np.testing.assert_array_equal(se_kernel(*inputs).data,
                                      composite_se_kernel(*inputs).data)
        x, _, log_amplitude, _ = inputs
        np.testing.assert_array_equal(
            se_kernel_diag(x, log_amplitude).data,
            composite_se_kernel_diag(x, log_amplitude).data)

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_adjoints_match_the_composite(self, case):
        inputs = kernel_inputs(case)
        weights = np.random.default_rng(23).standard_normal(
            se_kernel(*inputs).shape)
        got = kernel_grads(se_kernel, inputs, weights)
        want = kernel_grads(composite_se_kernel, inputs, weights)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
        x, _, log_amplitude, _ = inputs
        diag_weights = weights[..., 0, :x.shape[0]]
        got = kernel_grads(se_kernel_diag, (x, log_amplitude), diag_weights)
        want = kernel_grads(composite_se_kernel_diag, (x, log_amplitude),
                            diag_weights)
        assert abs(got[1] - want[1]) <= 1e-12 * abs(want[1])

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_adjoints_match_central_differences(self, case):
        inputs = kernel_inputs(case)
        weights = np.random.default_rng(24).standard_normal(
            se_kernel(*inputs).shape)
        grads = kernel_grads(se_kernel, inputs, weights)
        distinct = list({id(t): t for t in inputs}.values())
        assert len(distinct) == len(grads) - (case == "same")
        worst = []
        for t in distinct:
            base = t.data.copy()

            def f(values):
                t.data[...] = values
                out = float(np.sum(weights * se_kernel(*inputs).data))
                t.data[...] = base
                return out

            numeric = finite_diff_grad(f, base, h=1e-6)
            worst.append(max_rel_err(grads[inputs.index(t)], numeric))
        assert max(worst) < 1e-7, worst

    def test_clamped_distance_has_zero_gradient(self):
        # 1e8 and 1e8 + 1 are one apart, but 1e16 + (1e8 + 1)^2 - 2e8 (1e8 + 1)
        # rounds to 0, which the clamp keeps
        x, x2 = Tensor([[1e8]]), Tensor([[1e8 + 1.0]])
        log_amplitude, log_lengthscale = Tensor(math.log(1.3)), Tensor(0.0)
        inputs = (x, x2, log_amplitude, log_lengthscale)
        assert se_kernel(*inputs).item() == math.exp(2.0 * math.log(1.3))
        got = kernel_grads(se_kernel, inputs, np.ones((1, 1)))
        want = kernel_grads(composite_se_kernel, inputs, np.ones((1, 1)))
        assert got[0].item() == got[1].item() == got[3].item() == 0.0
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestTapeNodeCounts:
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_each_kernel_and_diag_call_records_one_node(self, case):
        x, x2, _, _ = kernel_inputs(case)
        kernel = SquaredExponential(amplitude=1.3, lengthscale=0.7)
        with Tape() as tape:
            for t in (x, x2, *kernel.variables().values()):
                tape.watch(t)
            before = len(tape.nodes)
            kernel(x, x2)
            assert len(tape.nodes) == before + 1
            kernel.diag(x2)
            assert len(tape.nodes) == before + 2

    def test_deep_gp_elbo_step_records_72_nodes(self):
        # 150 unfused: in each of the three layers the two whitened ops
        # replace 28 nodes
        assert deep_gp_step()[2] == 72


def composite_sparse_gp_call(self, x, seed):
    """``SparseGaussianProcess.call`` as it was before the whitened ops: the
    variance and the KL in elementwise, reduction, structural and matmul
    tape ops, with one L_v stack shared by both."""
    z = self.inducing_inputs
    m, units = self.num_inducing, self.units
    rows = x.shape[:-1]
    eye = Tensor(np.eye(m))
    chol = cholesky(self.kernel(z, z) + gp_module._KZZ_FLOOR * eye)
    proj = triangular_solve(chol, self.kernel(z, x))
    mean = self._mean(x) + matmul(matrix_transpose(proj), self.inducing_mean)
    base_var = self.kernel.diag(x) - tensor_sum(square(proj), axis=-2)
    diag = softplus(self.scale_raw) * eye
    scale = self.scale_raw * Tensor(np.tril(np.ones((m, m)), -1)) + diag
    half = matmul(reshape(transpose(scale, (0, 2, 1)), (units * m, m)), proj)
    extra = tensor_sum(
        reshape(square(half), rows[:-1] + (units, m, rows[-1])), axis=-2)
    variance = matrix_transpose(extra) + reshape(base_var, rows + (1,))
    variance = where(variance.data > gp_module._VAR_FLOOR, variance,
                     gp_module._VAR_FLOOR)
    log_diag = log(tensor_sum(diag, axis=2))
    kl = 0.5 * (tensor_sum(square(scale))
                + tensor_sum(square(self.inducing_mean))
                - units * m) - tensor_sum(log_diag)
    self.add_loss(kl)
    dist = Normal(mean, sqrt(variance))
    return dist.sample(self.rng(seed, "function"),
                       noise_shape=(rows[-1], units))


def deep_gp_step(moved=False):
    """Loss, flat gradient, tape-node count and the parameter name of each
    gradient entry of one ELBO step of train-deep-gp at its CLI defaults
    (64 examples, batches of 32); ``moved`` first draws every layer's
    variational state off its prior-matched start."""
    from uncertain.cli import build_deep_gp, gaussian_likelihood
    from uncertain.data import toy_regression
    from uncertain.rng import mix
    from uncertain.training import ElboConfig, elbo_step

    x, y = toy_regression(64, 0, 0.05)
    model = build_deep_gp(4, 8)
    model(Tensor(x), seed=mix(0, "build"))
    if moved:
        rng = np.random.default_rng(31)
        for layer in model.layers:
            random_whitened_state(layer, rng)
    cfg = ElboConfig(num_train_examples=64, batch_size=32,
                     learning_rate=0.02, max_steps=300)
    loss, _, grad = elbo_step(model, Tensor(x[:32]), Tensor(y[:32]), cfg,
                              0, likelihood=gaussian_likelihood(0.1))
    names = np.concatenate([[name] * p.size for name, p
                            in model.trainable_variables().items()])
    return loss.data, grad, len(loss.tape.nodes), names


@pytest.mark.parametrize("moved", [False, True],
                         ids=["cli-defaults", "moved-state"])
def test_deep_gp_step_matches_the_unfused_composite(monkeypatch, moved):
    # whitened_scale_raw feeds both ops, and the tape adds their adjoints in
    # the raw space where the composite added them in L_v's, so the diagonal
    # entries of its gradient may differ in the last bits; all else is bitwise
    loss, grad, _, names = deep_gp_step(moved)
    monkeypatch.setattr(SparseGaussianProcess, "call", composite_sparse_gp_call)
    want_loss, want_grad, nodes, _ = deep_gp_step(moved)
    assert nodes == 150
    assert loss.tobytes() == want_loss.tobytes()
    shared = np.char.endswith(names.astype(str), "/whitened_scale_raw")
    assert np.count_nonzero(shared) == 4 * 8 * 8 + 4 * 8 * 8 + 8 * 8
    assert grad[~shared].tobytes() == want_grad[~shared].tobytes()
    for name in np.unique(names[shared]):
        g, w = grad[names == name], want_grad[names == name]
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name


class TestExactGP:
    def test_prior_marginals(self):
        gp = GaussianProcess(2, amplitude=1.4)
        x = np.random.default_rng(0).normal(size=(4, 1))
        dist = gp.predictive(Tensor(x))
        assert np.all(dist.mean.data == 0.0)
        np.testing.assert_allclose(np.diag(dist.covariance.data), 1.4**2,
                                   rtol=1e-12)
        gp(Tensor(x), seed=0)
        assert gp.losses == []  # exact integration has no regularizer

    @pytest.mark.parametrize("train_noise", [False, True])
    def test_noise_is_trained_only_on_request(self, train_noise):
        gp = GaussianProcess(1, conditional_inputs=np.zeros((2, 1)),
                             conditional_outputs=np.ones((2, 1)),
                             train_noise=train_noise)
        assert "log_noise" in gp.state_dict()
        assert ("log_noise" in gp.trainable_variables()) == train_noise

    def test_noise_free_interpolation(self):
        x0 = np.array([[0.4]])
        y0 = np.array([[2.5]])
        gp = GaussianProcess(1, conditional_inputs=x0, conditional_outputs=y0,
                             observation_noise=1e-8)
        dist = gp.predictive(Tensor(x0))
        assert dist.mean.data[0, 0] == pytest.approx(2.5, abs=1e-6)
        assert abs(dist.covariance.data[0, 0]) < 1e-6

    def test_posterior_matches_direct_solve_oracle(self):
        rng = np.random.default_rng(3)
        amp, ell, noise = 1.2, 0.7, 0.15
        x_train = rng.uniform(-1, 1, (5, 1))
        y_train = np.sin(2.0 * x_train) + 0.1 * rng.standard_normal((5, 1))
        x_test = rng.uniform(-1, 1, (3, 1))
        gp = GaussianProcess(1, conditional_inputs=x_train,
                             conditional_outputs=y_train,
                             observation_noise=noise, amplitude=amp,
                             lengthscale=ell)
        dist = gp.predictive(Tensor(x_test))
        gram = se_oracle(x_train, x_train, amp, ell) + noise**2 * np.eye(5)
        k_sn = se_oracle(x_test, x_train, amp, ell)
        inv = np.linalg.inv(gram)  # direct inverse on purpose
        want_mean = k_sn @ inv @ y_train
        want_cov = se_oracle(x_test, x_test, amp, ell) - k_sn @ inv @ k_sn.T
        assert np.abs(dist.mean.data - want_mean).max() < 1e-8
        assert np.abs(dist.covariance.data - want_cov).max() < 1e-8

    def test_mismatched_conditioning_shapes(self):
        from uncertain.errors import ShapeError

        with pytest.raises(ShapeError):
            GaussianProcess(2, conditional_inputs=np.zeros((3, 1)),
                            conditional_outputs=np.zeros((3, 1)))

    def test_mean_function_shifts_predictions(self):
        from uncertain.tensor import Tensor as T

        def mean_fn(x):
            return T(np.full((x.shape[0], 1), 2.0))

        gp = GaussianProcess(1, mean_fn=mean_fn)
        dist = gp.predictive(Tensor(np.zeros((3, 1))))
        np.testing.assert_allclose(dist.mean.data, 2.0)

    def test_multi_output_conditioning_is_per_column(self):
        rng = np.random.default_rng(11)
        amp, ell, noise = 1.0, 0.8, 0.1
        x_train = rng.uniform(-1, 1, (5, 1))
        y_train = rng.normal(size=(5, 2))
        x_test = rng.uniform(-1, 1, (3, 1))
        gp = GaussianProcess(2, conditional_inputs=x_train,
                             conditional_outputs=y_train,
                             observation_noise=noise, amplitude=amp,
                             lengthscale=ell)
        dist = gp.predictive(Tensor(x_test))
        gram = se_oracle(x_train, x_train, amp, ell) + noise**2 * np.eye(5)
        k_sn = se_oracle(x_test, x_train, amp, ell)
        for col in range(2):
            want = k_sn @ np.linalg.solve(gram, y_train[:, col])
            np.testing.assert_allclose(dist.mean.data[:, col], want,
                                       atol=1e-10)

    def test_jitter_perturbs_results_below_tolerance(self, monkeypatch):
        # force the ladder to start at 1e-6 as if the clean attempt failed
        rng = np.random.default_rng(4)
        x_train = np.linspace(-1, 1, 6)[:, None]
        y_train = np.cos(x_train)
        x_test = rng.uniform(-1, 1, (4, 1))

        def predict_stddev():
            gp = GaussianProcess(1, conditional_inputs=x_train,
                                 conditional_outputs=y_train,
                                 observation_noise=0.1, lengthscale=0.5)
            cov = gp.predictive(Tensor(x_test)).covariance.data
            return np.sqrt(np.diag(cov))

        clean = predict_stddev()
        monkeypatch.setattr(tensor_mod, "_JITTERS", (1e-6, 1e-5, 1e-2))
        jittered = predict_stddev()
        assert np.abs(clean - jittered).max() < 1e-4


def sparse_optimum(kernel_fn, x, y, noise):
    """Closed-form optimal q(u) when the inducing inputs sit on the data."""
    gram = kernel_fn(x, x)
    shifted = gram + noise**2 * np.eye(len(x))
    m_star = gram @ np.linalg.solve(shifted, y)
    s_star = noise**2 * gram @ np.linalg.inv(shifted)
    return m_star, 0.5 * (s_star + s_star.T)


def set_sparse_state(layer, z, m_u, s):
    """Set q(u) = N(m_u, s) through the whitening v = L^-1 u, L = chol(K_zz)."""
    layer.inducing_inputs.data[...] = z
    k_zz = layer.kernel(Tensor(z), Tensor(z)).data + 1e-10 * np.eye(len(z))
    chol = np.linalg.cholesky(k_zz)
    layer.inducing_mean.data[...] = solve_triangular(chol, m_u, lower=True)
    half = solve_triangular(chol, np.linalg.cholesky(s), lower=True)
    scale = np.linalg.cholesky(half @ half.T)  # chol(L^-1 s L^-T)
    raw = np.tril(scale, -1)
    raw[np.diag_indices(len(z))] = softplus_inverse(np.diag(scale))
    layer.scale_raw.data[...] = raw


class TestSparseGP:
    @pytest.mark.parametrize("x, num_inducing, kernel_args", [
        (np.linspace(-2, 2, 9), 5, dict(lengthscale=0.5, amplitude=1.3)),
        # 8 inducing points on [-1, 1] at the default lengthscale: K_zz has
        # condition number ~6e10, so a trace formed by solving against K_zz
        # itself rather than its factor leaves a KL of ~3e-7
        (np.linspace(-1, 1, 32), 8, {}),
    ], ids=["well_conditioned", "ill_conditioned"])
    def test_prior_matched_state_is_prior_with_zero_kl(self, x, num_inducing,
                                                       kernel_args):
        layer = SparseGaussianProcess(2, num_inducing=num_inducing,
                                      **kernel_args)
        rv = layer(Tensor(x[:, None]), seed=0)
        assert len(layer.losses) == 1
        assert abs(layer.losses[0].item()) <= 1e-10
        assert np.abs(rv.distribution.mean.data).max() == 0.0
        amplitude = kernel_args.get("amplitude", 1.0)
        np.testing.assert_allclose(rv.distribution.stddev.data**2,
                                   amplitude**2, rtol=1e-10)

    def test_collapse_to_exact_gp_at_optimum(self):
        amp, ell, noise = 1.1, 0.6, 0.2
        rng = np.random.default_rng(5)
        x_train = rng.uniform(-1, 1, (5, 1))
        y_train = np.sin(3.0 * x_train)
        x_test = rng.uniform(-1, 1, (4, 1))
        layer = SparseGaussianProcess(1, num_inducing=5, amplitude=amp,
                                      lengthscale=ell)
        layer(Tensor(x_train), seed=0)  # build
        kern = lambda a, b: se_oracle(a, b, amp, ell)
        m_star, s_star = sparse_optimum(kern, x_train, y_train, noise)
        set_sparse_state(layer, x_train, m_star, s_star)
        rv = layer(Tensor(x_test), seed=1)
        gram = kern(x_train, x_train) + noise**2 * np.eye(5)
        want_mean = kern(x_test, x_train) @ np.linalg.solve(gram, y_train)
        want_var = (np.diag(kern(x_test, x_test))
                    - np.sum(kern(x_test, x_train)
                             * np.linalg.solve(gram, kern(x_train, x_test)).T,
                             axis=1))
        assert np.abs(rv.distribution.mean.data[:, 0] - want_mean[:, 0]).max() < 1e-6
        assert np.abs(rv.distribution.stddev.data[:, 0]**2 - want_var).max() < 1e-6

    def test_losses_length_one(self):
        layer = SparseGaussianProcess(3, num_inducing=4)
        layer(Tensor(np.linspace(-1, 1, 8)[:, None]), seed=0)
        assert len(layer.losses) == 1

    def test_sampling_is_reparameterized(self):
        x = np.linspace(-1, 1, 6)[:, None]
        layer = SparseGaussianProcess(1, num_inducing=4)
        layer(Tensor(x), seed=0)  # build before recording
        with Tape() as tape:
            for p in layer.trainable_variables().values():
                tape.watch(p)
            rv = layer(Tensor(x), seed=3)
            grads = tape.backward(tensor_sum(rv.value))
        mean_grad = grads[layer.inducing_mean.node_id]
        assert np.any(mean_grad.data != 0.0)


def random_whitened_state(layer, rng):
    """Move every variational parameter of a built layer off its initial value."""
    layer.inducing_mean.data[...] = rng.standard_normal(layer.inducing_mean.shape)
    # one [U, M, M] draw fills in C order: unit after unit
    raw = layer.scale_raw
    raw.data[...] = np.tril(0.5 * rng.standard_normal(raw.shape))


class TestWhitenedSparseGP:
    def test_closed_form_kl_matches_multivariate_normal_kl(self):
        from uncertain.distributions import MultivariateNormal, kl_divergence

        layer = SparseGaussianProcess(3, num_inducing=6)
        x = Tensor(np.linspace(-1, 1, 8)[:, None])
        layer(x, seed=0)  # build
        random_whitened_state(layer, np.random.default_rng(12))
        layer(x, seed=1)
        m = layer.num_inducing
        want = 0.0
        for u, raw in enumerate(layer.scale_raw.data):
            scale = np.tril(raw, -1) + np.diag(
                softplus(Tensor(np.diag(raw))).data)
            q = MultivariateNormal(layer.inducing_mean.data[:, u:u + 1],
                                   scale @ scale.T)
            p = MultivariateNormal(np.zeros((m, 1)), np.eye(m))
            want += kl_divergence(q, p).item()
        got = layer.losses[0].item()
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_mean_variance_and_kl_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        layer = SparseGaussianProcess(2, num_inducing=4, lengthscale=0.8)
        x = np.linspace(-1, 1, 5)[:, None] + 0.05 * rng.standard_normal((5, 1))
        layer(Tensor(x), seed=0)  # build
        # spread out on purpose: near-coincident inducing inputs make K_zz so
        # ill-conditioned that the central difference, not the adjoint, loses
        # digits; this also frees the test from the global layer index
        layer.inducing_inputs.data[...] = np.array([[-0.9], [-0.3], [0.35], [0.9]])
        random_whitened_state(layer, rng)
        w_mean = rng.standard_normal((5, 2))
        w_var = rng.standard_normal((5, 2))

        def loss_fn():
            dist = layer(Tensor(x), seed=3).distribution
            return (tensor_sum(Tensor(w_mean) * dist.mean)
                    + tensor_sum(Tensor(w_var) * square(dist.stddev))
                    + layer.losses[0])

        params = {"whitened_mean": layer.inducing_mean,
                  "whitened_scale_raw": layer.scale_raw,
                  "inducing_inputs": layer.inducing_inputs}
        with Tape() as tape:
            for p in params.values():
                tape.watch(p)
            grads = tape.backward(loss_fn())
        worst = {}
        for name, p in params.items():
            base = p.data.copy()

            def f(values):
                p.data[...] = values
                out = loss_fn().item()
                p.data[...] = base
                return out

            numeric = finite_diff_grad(f, base)
            worst[name] = max_rel_err(grads[p.node_id].data, numeric,
                                      floor=1e-4)
        assert max(worst.values()) < 1e-6, worst

    def test_old_parameter_names_do_not_load(self):
        layer = SparseGaussianProcess(1, num_inducing=4)
        layer(Tensor(np.linspace(-1, 1, 6)[:, None]), seed=0)
        state = layer.state_dict()
        fresh = SparseGaussianProcess(1, num_inducing=4)
        fresh(Tensor(np.linspace(-1, 1, 6)[:, None]), seed=0)
        unwhitened = dict(state)
        unwhitened["inducing_mean"] = unwhitened.pop("whitened_mean")
        unwhitened["inducing_scale_raw0"] = unwhitened.pop("whitened_scale_raw")[0]
        per_unit = dict(state)
        per_unit["whitened_scale_raw0"] = per_unit.pop("whitened_scale_raw")[0]
        for old in (unwhitened, per_unit):
            with pytest.raises(KeyError, match="whitened_scale_raw"):
                fresh.load_state_dict(old)


def op_grads_and_central_differences(op, arrays, weights, h=1e-6):
    """The adjoints of sum(weights * op(*arrays)) in each array, from a tape
    and from central differences."""
    tensors = [Tensor(a.copy()) for a in arrays]
    with Tape() as tape:
        for t in tensors:
            tape.watch(t)
        grads = tape.backward(tensor_sum(Tensor(weights) * op(*tensors)))
    analytic = [grads[t.node_id].data for t in tensors]
    numeric = []
    for t in tensors:
        base = t.data.copy()

        def f(values):
            t.data[...] = values
            out = float(np.sum(weights * op(*tensors).data))
            t.data[...] = base
            return out

        numeric.append(finite_diff_grad(f, base, h=h))
    return analytic, numeric


class TestWhitenedOps:
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["rank2", "stack"])
    def test_variance_adjoints_match_central_differences(self, lead):
        kdiag, proj, raw, _ = whitened_case(lead)
        weights = np.random.default_rng(32).standard_normal(lead + (5, 3))

        def op(kdiag, proj, raw):
            return whitened_variance(kdiag, proj, raw, gp_module._VAR_FLOOR)

        analytic, numeric = op_grads_and_central_differences(
            op, (kdiag, proj, raw), weights)
        # column 0 is clamped for every unit: no adjoint reaches its kdiag
        assert np.all(analytic[0][..., 0] == 0.0)
        assert np.all(numeric[0][..., 0] == 0.0)
        # the upper triangle of scale_raw is unused
        upper = np.triu_indices(4, 1)
        assert np.all(analytic[2][:, upper[0], upper[1]] == 0.0)
        worst = [max_rel_err(a, n) for a, n in zip(analytic, numeric)]
        assert max(worst) < 1e-7, worst

    def test_kl_adjoints_match_central_differences(self):
        _, _, raw, mean = whitened_case(())
        # the weighted KL is about 7.5 and some raw entries move it by only
        # 2e-3 per unit, which at h = 1e-6 the differences' rounding blurs
        analytic, numeric = op_grads_and_central_differences(
            whitened_kl, (raw, mean), np.array(0.7), h=1e-5)
        worst = [max_rel_err(a, n) for a, n in zip(analytic, numeric)]
        assert max(worst) < 1e-7, worst

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["rank2", "stack"])
    def test_variance_output_is_held_without_a_copy(self, monkeypatch, lead):
        """The clamp's output is C-contiguous, so the returned Tensor holds
        that very array instead of a contiguous copy of it."""
        made = []
        real_where = np.where

        def where(*args):
            made.append(real_where(*args))
            return made[-1]

        kdiag, proj, raw, _ = (Tensor(a) for a in whitened_case(lead))
        monkeypatch.setattr(np, "where", where)
        out = whitened_variance(kdiag, proj, raw, gp_module._VAR_FLOOR)
        assert len(made) == 1 and made[0].flags.c_contiguous
        assert out.data is made[0]
        assert out.shape == lead + (5, 3)

    def test_each_op_records_one_node(self):
        kdiag, proj, raw, mean = (Tensor(a) for a in whitened_case((2,)))
        with Tape() as tape:
            for t in (kdiag, proj, raw, mean):
                tape.watch(t)
            before = len(tape.nodes)
            whitened_variance(kdiag, proj, raw, gp_module._VAR_FLOOR)
            whitened_kl(raw, mean)
            assert [node[0] for node in tape.nodes[before:]] == [
                "whitened_variance", "whitened_kl"]


def count_factorizations(monkeypatch):
    """Route ``tensor.chol_with_jitter`` through a counter; returns the count."""
    calls = [0]
    real = tensor_mod.chol_with_jitter

    def counting(a):
        calls[0] += 1
        return real(a)

    monkeypatch.setattr(tensor_mod, "chol_with_jitter", counting)
    return calls


class TestFactorizationCount:
    @pytest.mark.parametrize("units", [1, 2, 4])
    def test_sparse_call_factors_k_zz_once(self, monkeypatch, units):
        # K_zz once, shared by the predictive of every unit; the whitened
        # KL is closed form and factors nothing
        layer = SparseGaussianProcess(units, num_inducing=5)
        x = Tensor(np.linspace(-1, 1, 7)[:, None])
        layer(x, seed=0)  # build
        calls = count_factorizations(monkeypatch)
        layer(x, seed=1)
        assert calls[0] == 1

    def test_exact_predictive_factors_gram_once(self, monkeypatch):
        rng = np.random.default_rng(6)
        gp = GaussianProcess(2, conditional_inputs=rng.uniform(-1, 1, (5, 1)),
                             conditional_outputs=rng.normal(size=(5, 2)))
        calls = count_factorizations(monkeypatch)
        gp.predictive(Tensor(rng.uniform(-1, 1, (3, 1))))
        assert calls[0] == 1


class TestRandomFourierFeatures:
    def _approx_error(self, num_features, num_pairs=100, seed=0):
        rng = np.random.default_rng(seed)
        layer = RandomFourierFeatures(1, num_features=num_features)
        x = rng.normal(size=(2 * num_pairs, 2))
        layer(Tensor(x), seed=7)  # build
        phi = layer.features(Tensor(x)).data
        exact = se_oracle(x, x)
        approx = phi @ phi.T
        left = np.arange(num_pairs)
        right = num_pairs + left
        return np.abs(approx[left, right] - exact[left, right]).max()

    def test_error_decreases_with_feature_count(self):
        coarse = self._approx_error(100)
        fine = self._approx_error(10_000)
        assert fine < coarse
        assert fine < 0.05

    def test_features_are_bounded(self):
        layer = RandomFourierFeatures(1, num_features=64, amplitude=1.5)
        x = np.random.default_rng(1).normal(size=(20, 3))
        layer(Tensor(x), seed=0)
        phi = layer.features(Tensor(x)).data
        bound = math.sqrt(2.0 * 1.5**2 / 64)
        assert np.all(np.abs(phi) <= bound + 1e-12)

    def test_sigma_zero_is_deterministic(self):
        layer = RandomFourierFeatures(2, num_features=32)
        x = Tensor(np.random.default_rng(2).normal(size=(5, 1)))
        layer(x, seed=0)
        layer._params["readout_rho"].data[...] = -np.inf
        first = layer(x, seed=11).data
        second = layer(x, seed=999).data
        assert np.array_equal(first, second)

    def test_one_kl_loss(self):
        layer = RandomFourierFeatures(2, num_features=16)
        layer(Tensor(np.zeros((3, 1))), seed=0)
        assert len(layer.losses) == 1


class TestDeepGP:
    def _stack(self):
        return Sequential([
            SparseGaussianProcess(2, num_inducing=4, lengthscale=0.8),
            SparseGaussianProcess(2, num_inducing=4, lengthscale=0.8),
            SparseGaussianProcess(1, num_inducing=4, lengthscale=0.8),
        ])

    def test_end_to_end_gradients_match_finite_differences(self):
        model = self._stack()
        x = np.linspace(-1, 1, 6)[:, None]
        model(Tensor(x), seed=0)  # build all layers
        # nudge the variational state off the KL-zero point so every term is live
        for position, layer in enumerate(model.layers):
            rng = np.random.default_rng(position)
            layer.inducing_mean.data[...] += 0.3 * rng.standard_normal(
                layer.inducing_mean.shape)

        def loss_fn():
            rv = model(Tensor(x), seed=5)
            loss = tensor_sum(rv.value)
            for kl in model.losses:
                loss = loss + 0.1 * kl
            return loss

        params = model.trainable_variables()
        with Tape() as tape:
            for p in params.values():
                tape.watch(p)
            grads = tape.backward(loss_fn())
        worst = {}
        for name, p in params.items():
            base = p.data.copy()

            def f(values):
                p.data[...] = values
                out = loss_fn().item()
                p.data[...] = base
                return out

            numeric = finite_diff_grad(f, base)
            grad_t = grads.get(p.node_id)
            analytic = grad_t.data if grad_t is not None else np.zeros(p.shape)
            worst[name] = max_rel_err(analytic, numeric, floor=1e-4)
        assert max(worst.values()) < 1e-3, worst

    def test_training_decreases_loss_with_finite_kl(self):
        from uncertain.cli import gaussian_likelihood
        from uncertain.data import toy_regression
        from uncertain.training import ElboConfig, fit

        model = self._stack()
        x, y = toy_regression(32, seed=4)
        model(Tensor(x), seed=0)
        cfg = ElboConfig(num_train_examples=32, batch_size=32,
                         learning_rate=0.02, max_steps=60, seed=4)
        trace = fit(model, x, y, cfg, likelihood=gaussian_likelihood(0.1))
        assert trace[-1][1] < trace[0][1]
        assert all(np.isfinite(kl) for _, _, kl in trace)

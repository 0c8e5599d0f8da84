"""Distributions: densities, sampling, KL, and the RandomVariable wrapper."""
import math

import numpy as np
import pytest

from uncertain.distributions import (
    Categorical,
    Discretized,
    DiscretizedLogisticMixture,
    Logistic,
    MultivariateNormal,
    Normal,
    RandomVariable,
    TransformedDistribution,
    kl_divergence,
)
from uncertain.errors import DomainError, NotPositiveDefiniteError
from uncertain.rng import rng_from, rng_streams
from uncertain.tensor import Tape, Tensor, matmul, tensor_sum, transpose

from conftest import finite_diff_grad, max_rel_err


class TestNormal:
    def test_log_prob_standard_at_zero(self):
        got = Normal(0.0, 1.0).log_prob(0.0).item()
        assert got == pytest.approx(-0.9189385, abs=1e-6)

    def test_degenerate_scale_samples_loc(self):
        rv = Normal(5.0, 0.0).sample(seed=0)
        assert rv.value.item() == 5.0

    def test_negative_scale_rejected(self):
        with pytest.raises(DomainError):
            Normal(0.0, -1.0)

    def test_sample_mean_monte_carlo(self):
        rv = Normal(0.0, 1.0).sample(seed=42, sample_shape=(1_000_000,))
        # 4 standard errors of the MC mean
        assert abs(float(rv.value.data.mean())) < 4e-3

    def test_reparameterized_gradients(self):
        loc0 = np.array([0.3, -0.7])
        scale0 = np.array([0.5, 1.5])
        with Tape() as tape:
            loc = tape.watch(Tensor(loc0))
            scale = tape.watch(Tensor(scale0))
            rv = Normal(loc, scale).sample(seed=7)
            grads = tape.backward(tensor_sum(rv.value))
        # pathwise derivative wrt loc is exactly 1
        assert np.array_equal(grads[loc.node_id].data, [1.0, 1.0])
        # wrt scale it is the drawn epsilon; check against finite differences
        def sample_sum(s):
            return float(np.sum(
                Normal(Tensor(loc0), Tensor(s)).sample(seed=7).value.data))

        fd = finite_diff_grad(sample_sum, scale0)
        assert max_rel_err(grads[scale.node_id].data, fd) < 1e-6

    def test_cdf_matches_erf_oracle(self):
        xs = np.linspace(-3, 3, 7)
        got = Normal(0.5, 2.0).cdf(Tensor(xs)).data
        want = 0.5 * (1 + np.vectorize(math.erf)((xs - 0.5) / (2.0 * math.sqrt(2))))
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestLogistic:
    def test_log_prob_integrates_to_one(self):
        # trapezoid quadrature oracle over a wide grid
        xs = np.linspace(-60, 60, 20001)
        dist = Logistic(0.3, 1.7)
        dens = np.exp(dist.log_prob(Tensor(xs)).data)
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)

    def test_sample_median(self):
        rv = Logistic(2.0, 0.5).sample(seed=3, sample_shape=(200_000,))
        assert float(np.median(rv.value.data)) == pytest.approx(2.0, abs=2e-2)


class TestCategorical:
    def test_uniform_log_prob(self):
        dist = Categorical([0.0, 0.0])
        for outcome in (0, 1):
            assert dist.log_prob(float(outcome)).item() == pytest.approx(
                -0.6931472, abs=1e-6)

    def test_log_prob_sums_to_one(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5,))
        dist = Categorical(logits)
        total = sum(math.exp(dist.log_prob(float(i)).item()) for i in range(5))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sampling_frequencies(self):
        dist = Categorical([0.0, math.log(3.0)])  # probabilities 1/4, 3/4
        rv = dist.sample(seed=11, sample_shape=(100_000,))
        freq = float(np.mean(rv.value.data == 1))
        assert freq == pytest.approx(0.75, abs=0.01)

    def test_outcome_outside_support(self):
        with pytest.raises(DomainError):
            Categorical([0.0, 0.0]).log_prob(2.0)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(DomainError):
            Categorical([np.inf, 0.0])


class TestDiscretizedLogisticMixture:
    def _random_dist(self, seed, k=5):
        rng = np.random.default_rng(seed)
        return DiscretizedLogisticMixture(
            logits=rng.normal(size=(k,)),
            means=rng.uniform(-1, 1, size=(k,)),
            log_scales=rng.uniform(-4, 0, size=(k,)),
        )

    def test_total_mass_is_one(self):
        for seed in range(10):
            dist = self._random_dist(seed)
            bins = np.arange(256.0)
            total = float(np.sum(np.exp(dist.log_prob(Tensor(bins)).data)))
            assert abs(total - 1.0) < 1e-6

    def test_flat_limit_is_near_uniform(self):
        # with a huge scale the density is flat across the support: every
        # interior bin gets the same mass, sigma'(0) * binwidth / s, and the
        # two edge bins absorb the remaining tails
        s = 1e4
        dist = DiscretizedLogisticMixture(
            logits=[0.7], means=[0.0], log_scales=[math.log(s)])
        interior = np.arange(1.0, 255.0)
        mass = np.exp(dist.log_prob(Tensor(interior)).data)
        np.testing.assert_allclose(mass, mass[127], rtol=1e-6)  # uniform
        np.testing.assert_allclose(mass, 0.25 * (2.0 / 255.0) / s, rtol=1e-4)
        edge = math.exp(dist.log_prob(Tensor(0.0)).item())
        assert edge == pytest.approx(0.5, abs=1e-3)

    def test_left_edge_absorbs_tail(self):
        dist = DiscretizedLogisticMixture(
            logits=[0.0], means=[-4.0], log_scales=[0.0])
        mass0 = math.exp(dist.log_prob(Tensor(0.0)).item())
        mass1 = math.exp(dist.log_prob(Tensor(1.0)).item())
        assert mass0 >= mass1

    def test_log_prob_finite_everywhere(self):
        dist = self._random_dist(99)
        lp = dist.log_prob(Tensor(np.arange(256.0))).data
        assert np.all(np.isfinite(lp))

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            self._random_dist(1).log_prob(Tensor(256.0))

    @pytest.mark.parametrize("num_bins", [1, 0])
    def test_fewer_than_two_bins_rejected_at_construction(self, num_bins):
        # one bin would divide by num_bins - 1 = 0 in log_prob
        with pytest.raises(ValueError, match="num_bins must be >= 2"):
            DiscretizedLogisticMixture([0.0], [0.0], [0.0], num_bins=num_bins)

    def test_two_bins_split_the_mass(self):
        dist = DiscretizedLogisticMixture([0.0], [0.0], [-1.0], num_bins=2)
        mass = np.exp(dist.log_prob(Tensor([0.0, 1.0])).data)
        np.testing.assert_allclose(mass, [0.5, 0.5], rtol=1e-15)


def spd(a):
    """Covariance A A^T + n I built on the tape from a square ``a``."""
    n = a.shape[0]
    return matmul(a, transpose(a)) + n * Tensor(np.eye(n))


def gradient_errors(loss, arrays):
    """Worst relative error of the tape gradient of ``loss(*tensors)``
    against central differences, one entry per argument."""
    with Tape() as tape:
        watched = [tape.watch(Tensor(a)) for a in arrays]
        grads = tape.backward(loss(*watched))
    errors = []
    for i, a in enumerate(arrays):
        def f(v, i=i):
            args = [Tensor(b) for b in arrays]
            args[i] = Tensor(v)
            return loss(*args).item()

        errors.append(max_rel_err(grads[watched[i].node_id].data,
                                  finite_diff_grad(f, a)))
    return errors


class TestMultivariateNormal:
    def _spd(self, rng, n):
        m = rng.normal(size=(n, n))
        return m @ m.T + n * np.eye(n)

    def test_log_prob_gradients_vs_central_differences(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(4,)))

        def loss(mean, a):
            return MultivariateNormal(mean, spd(a)).log_prob(x)

        errors = gradient_errors(loss, [rng.normal(size=(4,)),
                                        rng.normal(size=(4, 4))])
        assert max(errors) < 1e-6, errors

    def test_log_prob_matches_direct_formula(self):
        rng = np.random.default_rng(21)
        cov = self._spd(rng, 4)
        mean = rng.normal(size=(4,))
        x = rng.normal(size=(4,))
        got = MultivariateNormal(mean, cov).log_prob(Tensor(x)).item()
        diff = x - mean
        want = -0.5 * (diff @ np.linalg.solve(cov, diff)
                       + np.linalg.slogdet(cov)[1] + 4 * math.log(2 * math.pi))
        assert got == pytest.approx(want, rel=1e-12)

    def test_sample_moments(self):
        rng = np.random.default_rng(22)
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        mean = np.array([1.0, -1.0])
        draws = np.stack([
            MultivariateNormal(mean, cov).sample(seed=s).value.data
            for s in range(4000)
        ])
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.1)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.15)

    def test_jitter_rescues_semidefinite(self):
        cov = np.ones((3, 3))  # rank one
        rv = MultivariateNormal(np.zeros(3), cov).sample(seed=1)
        assert rv.value.shape == (3,)

    def test_hopeless_matrix_raises(self):
        cov = -np.eye(2)
        with pytest.raises(DomainError):
            MultivariateNormal(np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            MultivariateNormal(np.zeros(2), cov).sample(seed=0)

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(DomainError):
            MultivariateNormal(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestKL:
    def test_identical_normals_exactly_zero(self):
        d = Normal([0.3, -1.0], [0.7, 2.0])
        assert kl_divergence(d, d).item() == 0.0

    def test_unit_mean_shift_is_half(self):
        assert kl_divergence(Normal(1.0, 1.0), Normal(0.0, 1.0)).item() == \
            pytest.approx(0.5, abs=1e-12)

    def test_diag_closed_form_vs_monte_carlo(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q = Normal(rng.normal(), math.exp(rng.uniform(-1, 0.5)))
            p = Normal(rng.normal(), math.exp(rng.uniform(-1, 0.5)))
            closed = kl_divergence(q, p).item()
            draws = q.loc.item() + q.scale.item() * rng.standard_normal(1_000_000)
            diffs = (q.log_prob(Tensor(draws)).data
                     - p.log_prob(Tensor(draws)).data)
            se = diffs.std() / math.sqrt(diffs.size)
            assert abs(closed - diffs.mean()) < 3 * se + 1e-9

    def test_full_covariance_self_kl_near_zero(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4))
        cov = m @ m.T + 4 * np.eye(4)
        d = MultivariateNormal(rng.normal(size=(4,)), cov)
        assert abs(kl_divergence(d, d).item()) <= 1e-10

    def test_full_covariance_vs_monte_carlo(self):
        rng = np.random.default_rng(9)
        mq = rng.normal(size=(3, 3))
        mp = rng.normal(size=(3, 3))
        q = MultivariateNormal(rng.normal(size=(3,)), mq @ mq.T + 3 * np.eye(3))
        p = MultivariateNormal(rng.normal(size=(3,)), mp @ mp.T + 3 * np.eye(3))
        closed = kl_divergence(q, p).item()
        L = np.linalg.cholesky(q.covariance.data)
        draws = q.mean.data + (L @ rng.standard_normal((3, 200_000))).T
        diffs = np.array([
            q.log_prob(Tensor(x)).item() - p.log_prob(Tensor(x)).item()
            for x in draws[:4000]
        ])
        se = diffs.std() / math.sqrt(diffs.size)
        assert abs(closed - diffs.mean()) < 4 * se

    def test_full_covariance_gradients_vs_central_differences(self):
        # matrix means: two columns sharing each covariance
        rng = np.random.default_rng(10)

        def loss(mean_q, a_q, mean_p, a_p):
            return kl_divergence(MultivariateNormal(mean_q, spd(a_q)),
                                 MultivariateNormal(mean_p, spd(a_p)))

        errors = gradient_errors(loss, [rng.normal(size=(3, 2)),
                                        rng.normal(size=(3, 3)),
                                        rng.normal(size=(3, 2)),
                                        rng.normal(size=(3, 3))])
        assert max(errors) < 1e-6, errors

    def test_unsupported_pair(self):
        with pytest.raises(TypeError, match="kl_divergence supports"):
            kl_divergence(Normal(0.0, 1.0), Categorical([0.0, 0.0]))

    def test_kl_is_differentiable(self):
        loc0 = np.array([0.4])
        with Tape() as tape:
            loc = tape.watch(Tensor(loc0))
            grads = tape.backward(kl_divergence(Normal(loc, 1.0), Normal(0.0, 1.0)))
        # d/dmu of mu^2/2 is mu
        assert grads[loc.node_id].data[0] == pytest.approx(0.4, abs=1e-12)


class TestDiscretized:
    def test_total_mass_one(self):
        for base in (Normal(40.0, 13.0), Logistic(100.0, 25.0)):
            dist = Discretized(base, 0, 255)
            mass = np.exp(dist.log_prob(Tensor(np.arange(256.0))).data)
            assert abs(float(mass.sum()) - 1.0) < 1e-9

    def test_tight_base_concentrates(self):
        dist = Discretized(Normal(3.0, 1e-4), 0, 255)
        assert math.exp(dist.log_prob(Tensor(3.0)).item()) > 1.0 - 1e-12

    @pytest.mark.parametrize("low, high", [(5, 2), (4, 4)])
    def test_fewer_than_two_bins_rejected(self, low, high):
        with pytest.raises(ValueError, match=f"low {low} must be below "
                           f"high {high}"):
            Discretized(Normal(0.0, 1.0), low, high)

    def test_base_without_cdf_rejected(self):
        with pytest.raises(DomainError, match="cdf"):
            Discretized(Categorical([0.0, 0.0]))


class TestRandomVariable:
    def test_numeric_ops_hit_the_sample(self):
        rv = Normal(5.0, 0.0).sample(seed=0)
        assert (rv + 1.0).item() == 6.0
        assert (2.0 * rv).item() == 10.0
        assert (rv / 5.0).item() == 1.0
        assert (-rv).item() == -5.0
        assert (1.0 - rv).item() == -4.0

    def test_matmul_delegation(self):
        rv = RandomVariable(Normal(0.0, 1.0), Tensor(np.eye(2)))
        out = rv @ Tensor([[1.0], [2.0]])
        assert np.array_equal(out.data, [[1.0], [2.0]])
        back = Tensor([[1.0, 2.0]]) @ rv
        assert np.array_equal(back.data, [[1.0, 2.0]])

    def test_log_prob_delegates(self):
        rv = Normal(0.0, 1.0).sample(seed=0)
        assert rv.log_prob(0.0).item() == pytest.approx(-0.9189385, abs=1e-6)


class TestTransformedDistribution:
    class Doubler:
        """y = 2x; log|det J| = d * log 2 per event."""

        def __call__(self, x):
            return x * 2.0

        def reverse(self, y):
            return y * 0.5

        def log_det_jacobian(self, x):
            return tensor_sum(Tensor(np.full(x.shape, math.log(2.0))), axis=-1)

        def inverse_and_log_det(self, y):
            x = self.reverse(y)
            return x, self.log_det_jacobian(x)

    def test_change_of_variables(self):
        dist = TransformedDistribution(Normal(np.zeros(1), np.ones(1)),
                                       self.Doubler())
        got = dist.log_prob(Tensor(np.zeros(1))).item()
        assert got == pytest.approx(-0.9189385 - math.log(2.0), abs=1e-6)

    def test_sample_applies_transform(self):
        dist = TransformedDistribution(Normal(np.full(3, 4.0), np.zeros(3)),
                                       self.Doubler())
        rv = dist.sample(seed=0)
        assert np.array_equal(rv.value.data, [8.0, 8.0, 8.0])

    def test_density_integrates_to_one(self):
        dist = TransformedDistribution(Normal(np.zeros(1), np.ones(1)),
                                       self.Doubler())
        xs = np.linspace(-12, 12, 4001)
        dens = np.exp(np.array([
            dist.log_prob(Tensor([x])).item() for x in xs]))
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)


class TestSeeding:
    def test_same_seed_same_draw(self):
        a = Normal(0.0, 1.0).sample(seed=5, sample_shape=(10,))
        b = Normal(0.0, 1.0).sample(seed=5, sample_shape=(10,))
        assert np.array_equal(a.value.data, b.value.data)

    def test_different_seeds_differ(self):
        a = Normal(0.0, 1.0).sample(seed=5, sample_shape=(10,))
        b = Normal(0.0, 1.0).sample(seed=6, sample_shape=(10,))
        assert not np.array_equal(a.value.data, b.value.data)

    def test_generator_accepted(self):
        rv = Normal(0.0, 1.0).sample(rng_from(1, 2, "site"), sample_shape=(3,))
        assert rv.value.shape == (3,)

    @pytest.mark.parametrize("noise_shape", [(), (3,), (61, 4)],
                             ids=["0d", "1d", "2d"])
    def test_stream_draws_are_the_stacked_lone_draws(self, noise_shape):
        # the streams of S seeds fill one [S, ...] array whose slice s is
        # the draw of a lone generator keyed by seed s
        seeds = tuple(range(5))
        rv = Normal(0.0, 1.0).sample(rng_streams(seeds, "site"),
                                     noise_shape=noise_shape)
        want = np.stack([rng_from(s, "site").standard_normal(noise_shape)
                         for s in seeds])
        assert rv.value.data.shape == want.shape == (5,) + noise_shape
        assert rv.value.data.tobytes() == want.tobytes()
        assert rv.value.data.tobytes() == np.stack([
            Normal(0.0, 1.0).sample(rng_from(s, "site"),
                                    noise_shape=noise_shape).value.data
            for s in seeds]).tobytes()

"""Reversible layers: round trips, Jacobians, density propagation, MADE."""
import math

import numpy as np
import pytest

from uncertain.distributions import (
    DiscretizedLogisticMixture,
    Logistic,
    Normal,
    TransformedDistribution,
)
from uncertain.errors import LayerError, NotReversibleError, ShapeError
from uncertain.layers import (
    MADE,
    CouplingLayer,
    Dense,
    DenseConditioner,
    Discretize,
    Layer,
    Reverse,
    ReversibleLayer,
    Sequential,
    VariationalDense,
    alternating_mask,
)
from uncertain.tensor import Tape, Tensor, exp, slice_last, tensor_sum


def random_coupling(dims, seed, parity=0, hidden=16, conditioner="made",
                    weight_scale=0.3):
    rng = np.random.default_rng(seed)
    cond = (MADE(dims, hidden_sizes=(hidden,)) if conditioner == "made"
            else DenseConditioner(dims, (hidden,)))
    for p in cond._params.values():
        p.data[...] = weight_scale * rng.standard_normal(p.shape)
    return CouplingLayer(alternating_mask(dims, parity), cond)


class ZeroConditioner(DenseConditioner):
    pass  # fresh DenseConditioner heads start at zero: identity flow


class TestCoupling:
    def test_zero_conditioner_is_identity(self):
        layer = CouplingLayer(alternating_mask(4), ZeroConditioner(4))
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        y = layer(x, seed=0)
        assert np.array_equal(y.data, x.data)
        assert np.all(layer.log_det_jacobian(x).data == 0.0)

    def test_round_trip(self):
        layer = random_coupling(4, seed=1)
        x = Tensor(np.random.default_rng(2).normal(size=(64, 4)))
        back = layer.reverse(layer(x, seed=0))
        assert np.abs(back.data - x.data).max() < 1e-10

    def test_forward_of_reverse(self):
        layer = random_coupling(4, seed=3)
        y = Tensor(np.random.default_rng(4).normal(size=(16, 4)))
        forth = layer(layer.reverse(y), seed=0)
        assert np.abs(forth.data - y.data).max() < 1e-10

    def test_log_det_vs_numerical_jacobian(self):
        layer = random_coupling(4, seed=5)
        x0 = np.random.default_rng(6).normal(size=(4,))

        def fwd(v):
            return layer(Tensor(v[None, :]), seed=0).data[0]

        jac = np.zeros((4, 4))
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            jac[:, j] = (fwd(x0 + e) - fwd(x0 - e)) / (2 * h)
        want = math.log(abs(np.linalg.det(jac)))
        got = layer.log_det_jacobian(Tensor(x0[None, :])).data[0]
        assert abs(got - want) < 1e-5

    def test_log_det_antisymmetry(self):
        layer = random_coupling(6, seed=7)
        x = Tensor(np.random.default_rng(8).normal(size=(3, 6)))
        y = layer(x, seed=0)
        forward = layer.log_det_jacobian(x).data
        backward = Reverse(layer).log_det_jacobian(y).data
        np.testing.assert_allclose(forward, -backward, atol=1e-12)

    def test_degenerate_masks_rejected(self):
        with pytest.raises(ValueError, match="zeros and ones"):
            CouplingLayer(np.ones(4), DenseConditioner(4))
        with pytest.raises(ValueError, match="zeros and ones"):
            CouplingLayer(np.zeros(4), DenseConditioner(4))

    @pytest.mark.parametrize("conditioner", [MADE, DenseConditioner])
    def test_conditioner_width_must_match_the_mask(self, conditioner):
        # caught at construction, not at the first call's matmul
        with pytest.raises(ValueError, match="conditioner dims 3 does not "
                           "match the mask's width 4"):
            CouplingLayer(alternating_mask(4), conditioner(3))

    def test_conditioner_without_dims_is_accepted(self):
        class Halves(Layer):
            def call(self, x, seed):
                return x * 0.5, x * 0.0

        layer = CouplingLayer(alternating_mask(4), Halves())
        x = Tensor(np.random.default_rng(9).normal(size=(3, 4)))
        back = layer.reverse(layer(x, seed=0))
        assert np.abs(back.data - x.data).max() < 1e-12


class TestReverseWrapper:
    def test_double_wrap_is_identity_on_samples(self):
        layer = random_coupling(4, seed=9)
        twice = Reverse(Reverse(layer))
        x = Tensor(np.random.default_rng(10).normal(size=(8, 4)))
        np.testing.assert_allclose(twice(x, seed=0).data,
                                   layer(x, seed=0).data, atol=1e-12)

    def test_wrapping_dense_fails_only_at_call(self):
        wrapped = Reverse(Dense(3))  # construction must succeed
        with pytest.raises(NotReversibleError):
            wrapped(Tensor(np.zeros((1, 3))), seed=0)

    def test_reversible_layer_without_reverse_is_not_reversible(self):
        class ForwardOnly(ReversibleLayer):
            def call(self, x, seed):
                return x

        x = Tensor(np.zeros((1, 2)))
        with pytest.raises(NotReversibleError, match="ForwardOnly does not "
                           "implement reverse"):
            Reverse(ForwardOnly())(x, seed=0)
        with pytest.raises(NotReversibleError,
                           match=r"layer 0 \(forwardonly\) does not"):
            Sequential([ForwardOnly()]).reverse(x)

    def test_wrapped_call_is_inner_reverse(self):
        layer = random_coupling(4, seed=11)
        wrapped = Reverse(layer)
        y = Tensor(np.random.default_rng(12).normal(size=(6, 4)))
        np.testing.assert_array_equal(wrapped(y, seed=0).data,
                                      layer.reverse(y).data)


class Scale(ReversibleLayer):
    """y = x * exp(log_s), its log-scales created from the first input."""

    def __init__(self, name=None):
        super().__init__(name)
        self.builds = 0

    def build(self, x, seed):
        self.builds += 1
        self.log_s = self.add_param(
            "log_s", np.linspace(-0.5, 0.5, x.shape[-1]))

    def call(self, x, seed):
        return x * exp(self.log_s)

    def reverse(self, y):
        return y * exp(-self.log_s)

    def log_det_jacobian(self, x):
        return tensor_sum(self.log_s) + Tensor(np.zeros(x.shape[:-1]))


class RankTwoDoubler(ReversibleLayer):
    input_rank = 2

    def call(self, x, seed):
        return x * 2.0

    def reverse(self, y):
        return y * 0.5


class TestCallProtocol:
    """Reversible layers are called through ``Layer.__call__``: a tensor, or
    a RandomVariable's value, is checked and builds the layer once."""

    @pytest.mark.parametrize("first", ["tensor", "random_variable"])
    def test_build_runs_once_on_the_first_call(self, first):
        layer = Scale()
        base = Normal(np.zeros(3), np.ones(3))
        x = base.sample(seed=0, sample_shape=(5,))
        assert not layer.built
        out = layer(x if first == "random_variable" else x.value, seed=0)
        assert layer.built and layer.builds == 1
        assert list(layer.trainable_variables()) == ["log_s"]
        if first == "random_variable":
            assert isinstance(out.distribution, TransformedDistribution)
            assert out.distribution.transform is layer
        y = layer(x.value, seed=1)
        assert layer.builds == 1
        np.testing.assert_array_equal(out.data, y.data)
        assert np.abs(layer.reverse(y).data - x.data).max() < 1e-15
        want = (tensor_sum(base.log_prob(x.value), axis=-1).data
                - np.linspace(-0.5, 0.5, 3).sum())
        np.testing.assert_allclose(layer(base).log_prob(y).data, want,
                                   rtol=1e-14)

    def test_declared_input_rank_is_checked(self):
        layer = RankTwoDoubler()
        rv = Normal(np.zeros(3), np.ones(3)).sample(seed=0)
        for x in (rv.value, rv):
            with pytest.raises(ShapeError, match="expects rank-2 input"):
                layer(x, seed=0)
        assert layer(rv.value.data[None], seed=0).shape == (1, 3)

    def test_distribution_through_an_unbuilt_layer_raises(self):
        base = Normal(np.zeros(2), np.ones(2))
        with pytest.raises(LayerError, match=r"^scale \(Scale\) is not "
                           "built"):
            Scale()(base)
        flow = Sequential([random_coupling(2, seed=1), Scale()])
        with pytest.raises(LayerError, match=r"^layer1 \(Scale\) is not "
                           "built"):
            flow(base)
        flow(Tensor(np.zeros((1, 2))), seed=0)
        assert isinstance(flow(base), TransformedDistribution)

    def test_reverse_builds_its_inner_layer(self):
        inner = Scale()
        wrapped = Reverse(inner)
        x = Tensor(np.random.default_rng(13).normal(size=(4, 3)))
        assert not wrapped.built
        y = wrapped(x, seed=0)  # inner's reverse, after one forward build
        assert inner.built and inner.builds == 1
        np.testing.assert_array_equal(
            y.data, x.data * np.exp(-np.linspace(-0.5, 0.5, 3)))
        assert np.abs(wrapped.reverse(y).data - x.data).max() < 1e-15
        assert inner.builds == 1
        # a wrapper of a built layer is built
        assert Reverse(inner).built


class VariationalConditioner(Layer):
    """A stochastic conditioner: one VariationalDense split in halves."""

    def __init__(self, dims):
        super().__init__()
        self.dims = dims
        self.dense = self.add_child("dense", VariationalDense(2 * dims))

    def call(self, x, seed):
        out = self.dense(x, seed=seed)
        return (slice_last(out, 0, self.dims),
                slice_last(out, self.dims, 2 * self.dims))


class TestStochasticConditioner:
    def test_seed_zero_passes_raise_naming_the_coupling(self):
        flow = Sequential([CouplingLayer(alternating_mask(2),
                                         VariationalConditioner(2))])
        x = Tensor(np.random.default_rng(14).normal(size=(3, 2)))
        flow(x, seed=0)  # the forward map draws per seed, as any layer
        coupling = flow.layers[0]
        for run in (lambda: coupling.log_det_jacobian(x),
                    lambda: coupling.reverse(x),
                    lambda: flow(Normal(np.zeros(2), np.ones(2))).log_prob(x)):
            with pytest.raises(LayerError, match="^layer0: a conditioner "
                               "that appends a loss would be run at seed 0"):
                run()


class TestPropagate:
    def test_identity_flow_preserves_log_prob(self):
        layer = CouplingLayer(alternating_mask(3), ZeroConditioner(3))
        base = Normal(np.zeros(3), np.ones(3))
        rv = base.sample(seed=0)
        out = layer(rv)
        pts = Tensor(np.random.default_rng(1).normal(size=(5, 3)))
        base_lp = tensor_sum(base.log_prob(pts), axis=-1)
        np.testing.assert_allclose(out.log_prob(pts).data, base_lp.data,
                                   atol=1e-12)

    def test_scalar_affine_change_of_variables(self):
        class Doubler(ReversibleLayer):
            def call(self, x, seed):
                return x * 2.0

            def reverse(self, y):
                return y * 0.5

            def log_det_jacobian(self, x):
                return Tensor(np.full(x.shape[:-1], math.log(2.0)))

        base = Normal(np.zeros(1), np.ones(1))
        out = Doubler()(base.sample(seed=0))
        got = out.log_prob(Tensor([[0.0]])).data[0]
        assert got == pytest.approx(-0.9189385 - math.log(2.0), abs=1e-6)

    def test_three_layer_flow_density_integrates_to_one(self):
        # mild weights: the grid must both cover the mass and resolve it
        flow = Sequential([
            random_coupling(2, seed=20, parity=0, conditioner="dense",
                            weight_scale=0.1),
            random_coupling(2, seed=21, parity=1, conditioner="dense",
                            weight_scale=0.1),
            random_coupling(2, seed=22, parity=0, conditioner="dense",
                            weight_scale=0.1),
        ])
        base = Normal(np.zeros(2), np.ones(2))
        out = flow(base.sample(seed=0), seed=0)
        span = np.linspace(-8.0, 8.0, 200)
        cell = span[1] - span[0]
        xx, yy = np.meshgrid(span, span)
        pts = Tensor(np.stack([xx.ravel(), yy.ravel()], axis=1))
        density = np.exp(out.log_prob(pts).data)
        assert abs(density.sum() * cell * cell - 1.0) < 1e-2

    def test_density_rides_through_sequential_chaining(self):
        layer_a = random_coupling(2, seed=30, parity=0)
        layer_b = random_coupling(2, seed=31, parity=1)
        flow = Sequential([layer_a, layer_b])
        base = Normal(np.zeros(2), np.ones(2))
        out = flow(base.sample(seed=0), seed=0)
        pts = Tensor(np.random.default_rng(32).normal(size=(7, 2)))
        # manual change of variables through both layers
        mid = layer_b.reverse(pts)
        start = layer_a.reverse(mid)
        want = (tensor_sum(base.log_prob(start), axis=-1)
                - layer_a.log_det_jacobian(start)
                - layer_b.log_det_jacobian(mid))
        np.testing.assert_allclose(out.log_prob(pts).data, want.data,
                                   atol=1e-12)
        # one distribution over the whole Sequential gives the same density
        whole = TransformedDistribution(base, flow)
        np.testing.assert_allclose(whole.log_prob(pts).data, want.data,
                                   atol=1e-12)

    def test_log_prob_makes_one_conditioner_pass_per_coupling(
            self, monkeypatch):
        flow = Sequential([random_coupling(2, seed=60 + i, parity=i % 2)
                           for i in range(4)])
        base = Normal(np.zeros(2), np.ones(2))
        pts = Tensor(np.random.default_rng(64).normal(size=(5, 2)))
        calls = []
        made_call = MADE.call

        def counting(self, x, seed):
            calls.append(1)
            return made_call(self, x, seed)

        monkeypatch.setattr(MADE, "call", counting)
        flow(base, seed=0).log_prob(pts)
        assert len(calls) == 4

    def test_distribution_input_matches_sample_input(self):
        flow = Sequential([random_coupling(2, seed=65 + i, parity=i % 2)
                           for i in range(3)])
        base = Normal(np.zeros(2), np.ones(2))
        pts = Tensor(np.random.default_rng(68).normal(size=(6, 2)))
        pushforward = flow(base, seed=0)
        assert isinstance(pushforward, TransformedDistribution)
        np.testing.assert_array_equal(
            pushforward.log_prob(pts).data,
            flow(base.sample(seed=0), seed=0).log_prob(pts).data)

    def test_reversed_sequential_density(self):
        # Reverse(flow) maps y to flow^-1(y): log p(y) = log p_base(flow(y))
        # + the forward log-det of the flow at y
        layer_a = random_coupling(2, seed=39, parity=0)
        layer_b = random_coupling(2, seed=40, parity=1)
        base = Normal(np.zeros(2), np.ones(2))
        dist = Reverse(Sequential([layer_a, layer_b]))(base)
        pts = Tensor(np.random.default_rng(41).normal(size=(7, 2)))
        mid = layer_a(pts, seed=0)
        want = (tensor_sum(base.log_prob(layer_b(mid, seed=0)), axis=-1)
                + layer_a.log_det_jacobian(pts)
                + layer_b.log_det_jacobian(mid))
        np.testing.assert_allclose(dist.log_prob(pts).data, want.data,
                                   atol=1e-12)

    def test_sequential_log_det_sums(self):
        layer_a = random_coupling(2, seed=33, parity=0)
        layer_b = random_coupling(2, seed=34, parity=1)
        flow = Sequential([layer_a, layer_b])
        x = Tensor(np.random.default_rng(35).normal(size=(4, 2)))
        total = flow.log_det_jacobian(x).data
        first = layer_a.log_det_jacobian(x)
        second = layer_b.log_det_jacobian(layer_a(x, seed=0))
        np.testing.assert_allclose(total, (first + second).data, atol=1e-12)

    def test_density_request_without_log_det_raises(self):
        class Swap(ReversibleLayer):
            def call(self, x, seed):
                return x

            def reverse(self, y):
                return y

        base = Normal(np.zeros(2), np.ones(2))
        out = Swap()(base.sample(seed=0))
        with pytest.raises(NotReversibleError, match="log_det_jacobian"):
            out.log_prob(Tensor(np.zeros((1, 2))))


class TestMADE:
    def test_jacobian_is_strictly_autoregressive(self):
        dims = 5
        made = MADE(dims, hidden_sizes=(24, 24))
        rng = np.random.default_rng(40)
        for p in made._params.values():
            p.data[...] = 0.4 * rng.standard_normal(p.shape)
        x0 = rng.normal(size=(dims,))
        h = 1e-6
        for which in (0, 1):
            jac = np.zeros((dims, dims))
            for j in range(dims):
                e = np.zeros(dims)
                e[j] = h
                up = made(Tensor((x0 + e)[None, :]), seed=0)[which].data[0]
                dn = made(Tensor((x0 - e)[None, :]), seed=0)[which].data[0]
                jac[:, j] = (up - dn) / (2 * h)
            for i in range(dims):
                for j in range(dims):
                    if j >= i:
                        assert abs(jac[i, j]) < 1e-9, (which, i, j)

    def test_zero_initialized_heads_give_identity_flow(self):
        made = MADE(3, hidden_sizes=(8,))
        x = Tensor(np.random.default_rng(41).normal(size=(4, 3)))
        shift, raw_scale = made(x, seed=0)
        assert np.all(shift.data == 0.0)
        assert np.all(raw_scale.data == 0.0)

    def test_masks_are_binary_and_fixed(self):
        made = MADE(4, hidden_sizes=(10,))
        before = {n: b.data.copy() for n, b in made._buffers.items()}
        x = Tensor(np.random.default_rng(42).normal(size=(2, 4)))
        made(x, seed=0)
        made(x, seed=1)
        for name, buf in made._buffers.items():
            assert set(np.unique(buf.data)) <= {0.0, 1.0}
            assert np.array_equal(buf.data, before[name])

    def test_narrow_hidden_warns(self):
        with pytest.warns(UserWarning, match="hidden width"):
            MADE(8, hidden_sizes=(3,))

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            MADE(1)

    @pytest.mark.parametrize("dims", [0, -1])
    def test_dense_conditioner_dims_validation(self, dims):
        with pytest.raises(ValueError,
                           match=f"DenseConditioner needs dims >= 1, got {dims}"):
            DenseConditioner(dims)

    @pytest.mark.parametrize("conditioner", [MADE, DenseConditioner])
    def test_empty_hidden_width_rejected(self, conditioner):
        with pytest.raises(ValueError, match="hidden widths must be >= 1"):
            conditioner(2, hidden_sizes=(8, 0))

    @pytest.mark.parametrize("conditioner", [MADE, DenseConditioner])
    def test_hidden_weights_seeded_by_position(self, conditioner):
        # same-shaped conditioners start equal wherever they sit
        a, b = conditioner(3, hidden_sizes=(6,)), conditioner(3, hidden_sizes=(6,))
        CouplingLayer(alternating_mask(3), b)
        assert a._params["w0"].data.tobytes() == b._params["w0"].data.tobytes()


class TestDiscretize:
    def test_total_pmf_is_one(self):
        base = Normal(100.0, 30.0)
        out = Discretize()(base.sample(seed=0))
        mass = np.exp(out.log_prob(Tensor(np.arange(256.0))).data)
        assert abs(mass.sum() - 1.0) < 1e-9

    def test_tight_base_concentrates_on_nearest_bin(self):
        base = Normal(3.0, 1e-5)
        out = Discretize()(base.sample(seed=0))
        assert math.exp(out.log_prob(Tensor(3.0)).item()) > 1 - 1e-12
        assert out.value.item() == 3.0

    def test_matches_discretized_logistic_mixture_formula(self):
        # a single-component mixture on the rescaled domain is the same
        # distribution as a logistic discretized on the pixel domain
        mu_tilde, log_s = -0.2, -2.5
        mixture = DiscretizedLogisticMixture(
            logits=[0.0], means=[mu_tilde], log_scales=[log_s])
        loc = 127.5 * (mu_tilde + 1.0)
        scale = 127.5 * math.exp(log_s)
        base = Logistic(loc, scale)
        out = Discretize(0, 255)(base.sample(seed=0))
        bins = Tensor(np.arange(256.0))
        got = out.log_prob(bins).data
        want = mixture.log_prob(bins).data
        assert np.abs(got - want).max() < 1e-10

    def test_plain_tensor_rejected(self):
        with pytest.raises(TypeError, match="RandomVariable"):
            Discretize()(Tensor(np.zeros(3)))

    @pytest.mark.parametrize("low, high", [(5, 2), (4, 4)])
    def test_fewer_than_two_bins_rejected_at_construction(self, low, high):
        # low > high puts every value out of range, and a lone bin, both
        # edges at once, would get mass cdf(low + 1/2) instead of 1
        with pytest.raises(ValueError, match=f"low {low} must be below "
                           f"high {high}"):
            Discretize(low=low, high=high)

    def test_two_bins_hold_all_mass(self):
        out = Discretize(4, 5)(Normal(4.5, 1.0).sample(seed=0))
        mass = np.exp(out.log_prob(Tensor([4.0, 5.0])).data)
        np.testing.assert_allclose(mass, [0.5, 0.5], rtol=1e-15)

    def test_base_without_cdf_rejected(self):
        from uncertain.distributions import Categorical
        from uncertain.errors import DomainError

        rv = Categorical([0.0, 0.0]).sample(seed=0)
        with pytest.raises(DomainError, match="cdf"):
            Discretize()(rv)


class TestFlowGradients:
    def test_nll_gradients_flow_to_conditioner(self):
        flow = Sequential([
            random_coupling(2, seed=50, parity=0),
            random_coupling(2, seed=51, parity=1),
        ])
        base = Normal(np.zeros(2), np.ones(2))
        data = Tensor(np.random.default_rng(52).normal(size=(16, 2)))
        params = flow.trainable_variables()
        with Tape() as tape:
            for p in params.values():
                tape.watch(p)
            out = flow(base.sample(seed=0), seed=0)
            nll = -tensor_sum(out.log_prob(data)) * (1.0 / 16.0)
            grads = tape.backward(nll)
        nonzero = sum(
            1 for p in params.values()
            if p.node_id in grads and np.any(grads[p.node_id].data != 0.0)
        )
        assert nonzero >= len(params) - 4  # first-degree MADE heads stay zero

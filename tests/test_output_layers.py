"""Stochastic output heads: likelihood access, projections, no side losses."""
import math

import numpy as np
import pytest

from uncertain.distributions import (
    DiscretizedLogisticMixture,
    Normal,
    kl_divergence,
)
from uncertain.errors import ShapeError
from uncertain.layers import (
    CategoricalOutput,
    Dense,
    MixtureLogisticOutput,
    NormalOutput,
    Sequential,
    VariationalDense,
)
from uncertain.tensor import Tape, Tensor, softplus_inverse, tensor_mean


@pytest.mark.parametrize("head", [NormalOutput, CategoricalOutput])
def test_empty_projection_rejected(head):
    with pytest.raises(ValueError, match="units must be >= 1, got 0"):
        head(units=0)


class TestNormalOutput:
    def test_standard_normal_from_packed_input(self):
        head = NormalOutput()
        raw = softplus_inverse(np.array([1.0 - 1e-5]))[0]
        rv = head(Tensor([[0.0, raw]]), seed=0)
        assert rv.log_prob(Tensor([[0.0]])).data[0, 0] == pytest.approx(
            -0.9189385, abs=1e-6)

    def test_tiny_raw_scale_degenerates_to_loc(self):
        head = NormalOutput()
        rv = head(Tensor([[3.0, -1e6]]), seed=1)
        # softplus(-1e6) is exactly 0, leaving only the 1e-5 floor
        assert rv.distribution.stddev.data[0, 0] == pytest.approx(1e-5)
        assert rv.value.data[0, 0] == pytest.approx(3.0, abs=1e-4)

    def test_odd_last_axis_without_units(self):
        with pytest.raises(ShapeError, match="even"):
            NormalOutput()(Tensor(np.zeros((2, 3))), seed=0)

    def test_units_projection_shapes(self):
        head = NormalOutput(units=3)
        rv = head(Tensor(np.random.default_rng(0).normal(size=(5, 7))), seed=0)
        assert rv.value.shape == (5, 3)

    def test_kl_against_unit_normal_delegates(self):
        head = NormalOutput()
        x = Tensor(np.random.default_rng(1).normal(size=(4, 6)))
        rv = head(x, seed=0)
        direct = kl_divergence(rv.distribution, Normal(0.0, 1.0))
        assert np.isfinite(direct.item())

    def test_event_shape_matches_input_minus_packing(self):
        head = NormalOutput()
        rv = head(Tensor(np.zeros((2, 8))), seed=0)
        assert rv.value.shape == (2, 4)


class TestCategoricalOutput:
    def test_uniform_logits(self):
        head = CategoricalOutput()
        rv = head(Tensor(np.zeros((1, 4))), seed=0)
        assert rv.log_prob(Tensor([2.0])).data[0] == pytest.approx(
            -math.log(4.0), abs=1e-12)

    def test_dominant_logit_sampling_frequency(self):
        head = CategoricalOutput()
        logits = np.zeros((10_000, 3))
        logits[:, 1] = 30.0
        rv = head(Tensor(logits), seed=5)
        assert float(np.mean(rv.value.data == 1)) > 0.999

    def test_log_prob_equals_independent_cross_entropy(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, 6)
        head = CategoricalOutput()
        rv = head(Tensor(logits), seed=0)
        got = -rv.log_prob(Tensor(labels.astype(np.float64))).data
        # independent softmax cross-entropy
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        want = log_z - shifted[np.arange(6), labels]
        assert np.abs(got - want).max() < 1e-10

    def test_projection_to_units(self):
        head = CategoricalOutput(units=7)
        rv = head(Tensor(np.random.default_rng(3).normal(size=(4, 3))), seed=0)
        assert rv.distribution.num_classes == 7
        assert rv.value.shape == (4,)


class TestMixtureLogisticOutput:
    def test_pmf_sums_to_one(self):
        # exhaustive summation over the 256 bins of the single batch row
        head = MixtureLogisticOutput(num_components=4)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 12)))
        rv = head(x, seed=0)
        total = sum(
            math.exp(rv.log_prob(Tensor([float(k)])).data[0])
            for k in range(256)
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_single_tight_component_concentrates(self):
        head = MixtureLogisticOutput(num_components=1)
        mean_128 = 2.0 * 128 / 255 - 1.0
        params = Tensor([[0.0, mean_128, -12.0]])
        rv = head(params, seed=0)
        assert math.exp(rv.log_prob(Tensor([[128.0]])).data[0, 0]) > 0.999

    def test_log_prob_finite_for_all_bins(self):
        head = MixtureLogisticOutput(num_components=3)
        params = Tensor(np.random.default_rng(4).normal(size=(1, 9)))
        rv = head(params, seed=0)
        values = rv.log_prob(Tensor(np.arange(256.0).reshape(256, 1))).data
        assert np.all(np.isfinite(values))

    def test_packed_parameters_split_into_logits_means_log_scales(self):
        rng = np.random.default_rng(5)
        k = 3
        packed = rng.normal(size=(4, 3 * k))
        x = rng.integers(0, 256, size=(4,)).astype(np.float64)
        rv = MixtureLogisticOutput(num_components=k)(Tensor(packed), seed=0)
        want = DiscretizedLogisticMixture(
            packed[:, :k], packed[:, k:2 * k], packed[:, 2 * k:]).log_prob(Tensor(x))
        np.testing.assert_array_equal(rv.log_prob(Tensor(x)).data, want.data)

    def test_units_projection(self):
        head = MixtureLogisticOutput(units=2, num_components=3)
        rv = head(Tensor(np.random.default_rng(5).normal(size=(4, 6))), seed=0)
        assert rv.value.shape == (4, 2)
        assert np.all((rv.value.data >= 0) & (rv.value.data <= 255))

    @pytest.mark.parametrize("units", [None, 2])
    def test_no_components_is_rejected(self, units):
        with pytest.raises(ValueError, match="num_components must be >= 1"):
            MixtureLogisticOutput(units=units, num_components=0)


class TestLossDiscipline:
    @pytest.mark.parametrize("factory", [
        lambda: NormalOutput(units=2),
        lambda: CategoricalOutput(units=3),
        lambda: MixtureLogisticOutput(units=2, num_components=2),
    ])
    def test_heads_append_no_losses(self, factory):
        head = factory()
        head(Tensor(np.random.default_rng(0).normal(size=(3, 5))), seed=0)
        assert head.losses == []

    def test_model_loss_count_unchanged_by_head(self):
        body = VariationalDense(4)
        model = Sequential([body, NormalOutput(units=1)])
        model(Tensor(np.random.default_rng(1).normal(size=(2, 3))), seed=0)
        assert len(model.losses) == 2

    def test_stochastic_output_composes_downstream(self):
        # RandomVariables act as tensors, so layers after a head keep working
        model = Sequential([NormalOutput(units=2), Dense(3)])
        out = model(Tensor(np.random.default_rng(2).normal(size=(4, 6))),
                    seed=0)
        assert out.shape == (4, 3)


class TestTrainingEquivalence:
    def test_fixed_scale_normal_gradient_is_proportional_to_mse(self):
        # maximizing the head log-likelihood with a frozen scale must push the
        # projection weights along the same direction as minimizing MSE
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 1))

        def gradient(loss_builder):
            layer = Dense(1, kernel_initializer=lambda s, _: Tensor(w0.copy()),
                          bias_initializer=lambda s, _: Tensor(b0.copy()))
            layer(Tensor(x), seed=0)
            with Tape() as tape:
                for p in layer._params.values():
                    tape.watch(p)
                out = layer(Tensor(x), seed=0)
                grads = tape.backward(loss_builder(out))
            return np.concatenate([
                grads[layer._params["kernel"].node_id].data.ravel(),
                grads[layer._params["bias"].node_id].data.ravel(),
            ])

        w0 = rng.normal(size=(3, 1))
        b0 = rng.normal(size=(1,))
        scale = 0.37
        nll = gradient(lambda out: -tensor_mean(
            Normal(out, scale).log_prob(Tensor(y))))
        mse = gradient(lambda out: tensor_mean(
            (out - Tensor(y)) * (out - Tensor(y))))
        # nll = mse / (2 scale^2) + const, so gradients align exactly
        np.testing.assert_allclose(nll, mse / (2.0 * scale**2), rtol=1e-12)

    def test_categorical_nll_equals_cross_entropy_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 2))
        labels = Tensor(rng.integers(0, 3, 5).astype(np.float64))

        head = CategoricalOutput(units=3)
        head(Tensor(x), seed=0)
        with Tape() as tape:
            proj = head.projection._params["kernel"]
            tape.watch(proj)
            rv = head(Tensor(x), seed=0)
            nll = -tensor_mean(rv.log_prob(labels))
            grads = tape.backward(nll)
        got = grads[proj.node_id].data
        # independent softmax-gradient oracle
        logits = x @ proj.data + head.projection._params["bias"].data
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        one_hot = np.zeros_like(probs)
        one_hot[np.arange(5), labels.data.astype(int)] = 1.0
        want = x.T @ (probs - one_hot) / 5.0
        assert np.abs(got - want).max() < 1e-12

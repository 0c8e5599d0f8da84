"""Monte-Carlo sample axis: one call with S seeds equals S one-seed calls."""
import tracemalloc

import numpy as np
import pytest

from uncertain.cli import copy_columns_mean
from uncertain.errors import JitterWarning, LayerError, ShapeError
from uncertain.layers import (
    MADE,
    CategoricalOutput,
    CouplingLayer,
    Dense,
    Discretize,
    FlipoutDense,
    GaussianProcess,
    NormalOutput,
    RandomFourierFeatures,
    Sequential,
    SparseGaussianProcess,
    SquaredExponential,
    VariationalConv2D,
    VariationalDense,
    VariationalLSTMCell,
    alternating_mask,
    trainable_normal,
)
from uncertain.rng import mix
from uncertain.tensor import (
    Tape,
    Tensor,
    as_tensor,
    se_kernel,
    tensor_sum,
    triangular_solve,
    whitened_variance,
)

SEEDS = [mix(5, "sample", s) for s in range(4)]


def perturb_gp(layer, seed):
    """Move a sparse GP's whitened state off the prior."""
    rng = np.random.default_rng(seed)
    layer.inducing_mean.data[...] = rng.normal(size=layer.inducing_mean.shape)
    # one [U, M, M] draw fills in C order: unit after unit
    layer.scale_raw.data[...] += 0.3 * rng.normal(size=layer.scale_raw.shape)


def sparse_gp(units, mean_fn=None):
    return SparseGaussianProcess(units, 5, mean_fn=mean_fn,
                                 kernel=SquaredExponential(lengthscale=0.7))


# (name, factory, input features); each layer is built at the first call
LAYERS = [
    ("dense", lambda: Dense(3, "tanh"), 2),
    ("variational_dense", lambda: VariationalDense(3, "relu"), 2),
    ("mixed_dense_posterior_kernel", lambda: Dense(
        3, "relu", kernel_initializer=trainable_normal()), 2),
    ("mixed_dense_posterior_bias", lambda: Dense(
        3, "relu", bias_initializer=trainable_normal()), 2),
    ("sparse_gp", lambda: sparse_gp(3), 2),
    ("sparse_gp_linear_mean",
     lambda: sparse_gp(3, mean_fn=copy_columns_mean(3)), 2),
    ("sequential_dense", lambda: Sequential([
        Dense(4, "relu"), VariationalDense(3, "relu"), Dense(1)]), 2),
    ("sequential_sparse_gp", lambda: Sequential([
        sparse_gp(3, mean_fn=copy_columns_mean(3)), sparse_gp(1)]), 1),
]


def built(factory, dim, batch):
    layer = factory()
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (batch, dim))
    layer(Tensor(x), seed=3)
    for position, sub in enumerate(getattr(layer, "layers", [layer])):
        if isinstance(sub, SparseGaussianProcess):
            perturb_gp(sub, position)
    return layer


def out_data(out):
    return as_tensor(out).data


@pytest.mark.parametrize("batch", [1, 6])
@pytest.mark.parametrize("name,factory,dim", LAYERS)
class TestBatchedEqualsLoop:
    def test_shared_rank2_input(self, name, factory, dim, batch):
        layer = built(factory, dim, batch)
        x = Tensor(np.random.default_rng(1).uniform(-2.0, 2.0, (batch, dim)))
        got = out_data(layer(x, seed=SEEDS))
        assert got.shape[:2] == (len(SEEDS), batch)
        for s, seed in enumerate(SEEDS):
            assert got[s].tobytes() == out_data(layer(x, seed=seed)).tobytes()

    def test_rank3_input(self, name, factory, dim, batch):
        layer = built(factory, dim, batch)
        xs = np.random.default_rng(2).uniform(-2.0, 2.0,
                                              (len(SEEDS), batch, dim))
        got = out_data(layer(Tensor(xs), seed=SEEDS))
        assert got.shape[:2] == (len(SEEDS), batch)
        for s, seed in enumerate(SEEDS):
            want = out_data(layer(Tensor(xs[s]), seed=seed))
            assert got[s].tobytes() == want.tobytes()

    def test_losses_once_per_call(self, name, factory, dim, batch):
        layer = built(factory, dim, batch)
        x = Tensor(np.zeros((batch, dim)))
        layer(x, seed=SEEDS[0])
        want = [loss.data.tobytes() for loss in layer.losses]
        layer(x, seed=SEEDS)
        assert [loss.data.tobytes() for loss in layer.losses] == want


class TestBatchedGradients:
    def test_sparse_gp_gradient_is_sum_over_samples(self):
        # the stacked kernel, solve and products carry the same adjoints
        layer = built(lambda: sparse_gp(2, mean_fn=copy_columns_mean(2)), 2, 5)
        xs = np.random.default_rng(3).uniform(-1.0, 1.0, (len(SEEDS), 5, 2))
        params = [layer.inducing_inputs, layer.inducing_mean,
                  layer.scale_raw, layer.kernel.log_lengthscale]

        def grads(x, seed):
            with Tape() as tape:
                for p in params:
                    tape.watch(p)
                out = layer(Tensor(x), seed=seed)
                g = tape.backward(tensor_sum(out.value * out.value))
            return [g[p.node_id].data for p in params]

        batched = grads(xs, SEEDS)
        looped = [grads(xs[s], seed) for s, seed in enumerate(SEEDS)]
        for i, got in enumerate(batched):
            want = sum(g[i] for g in looped)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def stacked_op_cases():
    """The three sample-axis ops of a predict query, each with its operands,
    at its shapes: S = 100 samples, M = 8 inducing inputs, a batch of
    B = 61 and U = 4 units."""
    s, m, b, u = 100, 8, 61, 4
    rng = np.random.default_rng(0)
    a = rng.normal(size=(m, m))
    factor = Tensor(np.linalg.cholesky(a @ a.T + m * np.eye(m)))
    proj = Tensor(rng.normal(size=(s, m, b)))
    return {
        "se_kernel": (se_kernel, Tensor(rng.normal(size=(m, u))),
                      Tensor(rng.normal(size=(s, b, u))), Tensor(0.1),
                      Tensor(-0.2)),
        "triangular_solve": (triangular_solve, factor, proj),
        "whitened_variance": (whitened_variance, Tensor(np.full((s, b), 1.3)),
                              proj, Tensor(0.3 * rng.normal(size=(u, m, m))),
                              1e-10),
    }


# the most memory an op holds at once, its output included, in multiples of
# the output's nbytes: the output and the distance array (plus masks) for
# the kernel, the output alone for the solve, and for the variances the
# [S, U * M, B] square of L_v^T proj (8x) beside the output-sized sum
TRANSIENT_BOUND = {"se_kernel": 2.75, "triangular_solve": 1.25,
                   "whitened_variance": 10.5}


@pytest.mark.parametrize("name", sorted(TRANSIENT_BOUND))
def test_stacked_op_transient_peak(name):
    op, *args = stacked_op_cases()[name]
    op(*args)  # warm: first-call caches are not the op's transients
    tracemalloc.start()
    try:
        out = op(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak >= out.data.nbytes  # the output itself is traced
    assert peak <= TRANSIENT_BOUND[name] * out.data.nbytes


def coupling():
    return CouplingLayer(alternating_mask(2), MADE(2, hidden_sizes=(4,)))


# layers without the axis, each called once with one seed so it is built
WITHOUT_AXIS = [
    ("flipout", lambda: FlipoutDense(2), (3, 2)),
    ("coupling", coupling, (3, 2)),
    ("made", lambda: MADE(2, hidden_sizes=(4,)), (3, 2)),
    ("categorical", lambda: CategoricalOutput(units=3), (3, 2)),
    ("normal_output", lambda: NormalOutput(units=1), (3, 2)),
    ("exact_gp", lambda: GaussianProcess(1), (3, 2)),
    ("rff", lambda: RandomFourierFeatures(1, 8), (3, 2)),
    ("conv", lambda: VariationalConv2D(2, 3), (1, 4, 4, 1)),
]


class TestLoudFailures:
    @pytest.mark.parametrize("name,factory,shape", WITHOUT_AXIS)
    def test_layer_without_axis_names_itself(self, name, factory, shape):
        layer = factory()
        x = Tensor(np.zeros(shape))
        if name == "exact_gp":  # its prior covariance at 3 equal inputs
            with pytest.warns(JitterWarning):  # is singular
                layer(x, seed=0)
        else:
            layer(x, seed=0)
        with pytest.raises(LayerError, match="no Monte-Carlo sample axis") as err:
            layer(x, seed=SEEDS)
        assert layer.name in str(err.value)

    def test_lstm_cell_call_and_draw(self):
        cell = VariationalLSTMCell(3)
        cell(Tensor(np.zeros((2, 4, 2))), seed=0)
        for run in (lambda: cell(Tensor(np.zeros((2, 4, 2))), seed=SEEDS),
                    lambda: cell.draw(SEEDS)):
            with pytest.raises(LayerError, match=cell.name):
                run()

    def test_discretize(self):
        layer = Discretize()
        with pytest.raises(LayerError, match=layer.name):
            layer(Tensor(np.zeros((2, 1))), seed=SEEDS)

    def test_sequential_names_the_layer_without_axis(self):
        flipout = FlipoutDense(2)
        model = Sequential([Dense(2), flipout])
        model(Tensor(np.zeros((3, 2))), seed=0)
        with pytest.raises(LayerError, match=flipout.name):
            model(Tensor(np.zeros((3, 2))), seed=SEEDS)

    @pytest.mark.parametrize("name,factory,dim", LAYERS)
    def test_unbuilt_layer_rejects_seed_sequence(self, name, factory, dim):
        layer = factory()
        with pytest.raises(LayerError, match="not built"):
            layer(Tensor(np.zeros((3, dim))), seed=SEEDS)

    @pytest.mark.parametrize("name,factory,dim", LAYERS)
    def test_leading_axis_must_match_seeds(self, name, factory, dim):
        layer = built(factory, dim, 3)
        # Sequential wraps its child's ShapeError in a LayerError
        with pytest.raises((ShapeError, LayerError), match="4 seeds"):
            layer(Tensor(np.zeros((2, 3, dim))), seed=SEEDS)

    def test_empty_seed_sequence_rejected(self):
        layer = built(lambda: Dense(2), 2, 3)
        with pytest.raises(ValueError, match="at least one seed"):
            layer(Tensor(np.zeros((3, 2))), seed=[])

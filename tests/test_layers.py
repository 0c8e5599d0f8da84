"""Layer contract: dense, sequential, loss side channel, state handling."""
import numpy as np
import pytest

from uncertain import layers
from uncertain.errors import LayerError, ShapeError
from uncertain.layers import (
    Dense,
    FlipoutDense,
    Layer,
    RandomFourierFeatures,
    ReversibleLayer,
    Sequential,
    SparseGaussianProcess,
    VariationalConv2D,
    VariationalDense,
    VariationalLSTMCell,
    trainable_normal,
)
from uncertain.tensor import Tape, Tensor


def make_identity_dense():
    d = Dense(2, kernel_initializer=lambda shape, seed: Tensor(np.eye(*shape)),
              bias_initializer=lambda shape, seed: Tensor(np.zeros(shape)))
    return d


class TestDense:
    def test_identity_weights(self):
        d = make_identity_dense()
        out = d(Tensor([[1.0, 2.0]]), seed=0)
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_hand_sum(self):
        d = Dense(1,
                  kernel_initializer=lambda s, _: Tensor([[1.0], [1.0]]),
                  bias_initializer=lambda s, _: Tensor([1.0]))
        out = d(Tensor([[2.0, 3.0]]), seed=0)
        assert np.array_equal(out.data, [[6.0]])

    def test_relu_clips_negative_preactivation(self):
        d = Dense(1, activation="relu",
                  kernel_initializer=lambda s, _: Tensor([[1.0]]),
                  bias_initializer=lambda s, _: Tensor([-5.0]))
        out = d(Tensor([[1.0]]), seed=0)
        assert np.array_equal(out.data, [[0.0]])

    def test_rank_check(self):
        with pytest.raises(ShapeError, match="rank-2"):
            Dense(3)(Tensor(np.zeros((2, 2, 2))), seed=0)

    def test_units_validation(self):
        with pytest.raises(ValueError):
            Dense(0)

    def test_distribution_initializers_make_variational_dense(self):
        # a weight is a posterior by what its initializer returns, so Dense
        # with VariationalDense's initializers is VariationalDense, byte for
        # byte: its state, its outputs and its KL losses
        d = Dense(3, kernel_initializer=trainable_normal(),
                  bias_initializer=trainable_normal(mean_stddev=0.0))
        vd = VariationalDense(3)
        x = Tensor(np.random.default_rng(4).normal(size=(5, 2)))
        for seed in (0, 7, (1, 2, 3)):
            got, want = d(x, seed=seed), vd(x, seed=seed)
            assert got.data.tobytes() == want.data.tobytes()
            assert ([loss.data.tobytes() for loss in d.losses]
                    == [loss.data.tobytes() for loss in vd.losses])
            assert len(d.losses) == 2
        state, want_state = d.state_dict(), vd.state_dict()
        assert list(state) == ["kernel_mu", "kernel_rho", "bias_mu",
                               "bias_rho"]
        assert list(state) == list(want_state)
        for name in state:
            assert state[name].tobytes() == want_state[name].tobytes()

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="unknown activation"):
            Dense(2, activation="swishish")

    def test_deterministic_given_seed(self):
        d = Dense(4)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        first = d(x, seed=9).data
        second = d(x, seed=9).data
        assert np.array_equal(first, second)


class TestSequential:
    def test_single_identity(self):
        seq = Sequential([make_identity_dense()])
        x = Tensor([[3.0, -1.0]])
        assert np.array_equal(seq(x, seed=0).data, x.data)

    def test_matches_manual_nesting(self):
        rng = np.random.default_rng(4)
        a, b = Dense(5, "tanh"), Dense(2)
        seq = Sequential([a, b])
        x = Tensor(rng.normal(size=(3, 4)))
        composed = seq(x, seed=7).data
        manual = b(a(x, seed=7), seed=7).data
        assert np.array_equal(composed, manual)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_error_carries_layer_index(self):
        seq = Sequential([Dense(3), Dense(2)])
        x = Tensor(np.zeros((1, 4)))
        seq(x, seed=0)
        bad = Tensor(np.zeros((1, 7)))  # second layer now expects 3 features
        with pytest.raises(LayerError, match="layer 0"):
            seq(bad, seed=0)

    def test_loss_concatenation_order_and_count(self):
        seq = Sequential([VariationalDense(3), Dense(2), VariationalDense(1)])
        out = seq(Tensor(np.zeros((2, 4))), seed=0)
        losses = seq.losses
        assert len(losses) == 4  # kernel+bias for each variational layer
        per_layer = [len(sub.losses) for sub in seq.layers]
        assert per_layer == [2, 0, 2]
        assert sum(per_layer) == len(losses)

    def test_output_shape_folds(self):
        seq = Sequential([Dense(7), Dense(5), Dense(2)])
        out = seq(Tensor(np.zeros((3, 11))), seed=0)
        assert out.shape == (3, 2)


class TestLossSideChannel:
    def test_deterministic_model_has_no_losses(self):
        seq = Sequential([Dense(3), Dense(1)])
        seq(Tensor(np.zeros((2, 2))), seed=0)
        assert seq.losses == []

    def test_variational_dense_appends_two(self):
        layer = VariationalDense(4)
        layer(Tensor(np.zeros((2, 3))), seed=0)
        assert len(layer.losses) == 2

    def test_losses_before_any_call_empty(self):
        assert VariationalDense(4).losses == []

    def test_repeated_calls_keep_length_stable(self):
        layer = VariationalDense(4)
        x = Tensor(np.zeros((2, 3)))
        for seed in range(5):
            layer(x, seed=seed)
            assert len(layer.losses) == 2

    def test_loss_values_are_finite_scalars(self):
        layer = VariationalDense(4)
        layer(Tensor(np.random.default_rng(0).normal(size=(2, 3))), seed=0)
        for loss in layer.losses:
            assert loss.shape == ()
            assert np.isfinite(loss.data)


class TestSwap:
    """Bayesian layers are drop-in replacements for deterministic ones."""

    @pytest.mark.parametrize("factory", [
        lambda: Dense(6, "relu"),
        lambda: VariationalDense(6, "relu"),
    ])
    def test_same_signature_same_shapes(self, factory):
        layer = factory()
        out = layer(Tensor(np.random.default_rng(1).normal(size=(4, 3))), seed=2)
        assert out.shape == (4, 6)

    def test_swap_inside_sequential(self):
        x = Tensor(np.random.default_rng(2).normal(size=(5, 3)))
        deterministic = Sequential([Dense(4, "tanh"), Dense(2)])
        bayesian = Sequential([VariationalDense(4, "tanh"), Dense(2)])
        assert deterministic(x, seed=0).shape == bayesian(x, seed=0).shape


class TestState:
    def test_state_roundtrip(self):
        seq = Sequential([Dense(3), VariationalDense(2)])
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4)))
        seq(x, seed=1)
        state = seq.state_dict()
        out_before = seq(x, seed=5).data
        for t in seq.trainable_variables().values():
            t.data[...] = t.data + 1.0
        assert not np.array_equal(seq(x, seed=5).data, out_before)
        seq.load_state_dict(state)
        assert np.array_equal(seq(x, seed=5).data, out_before)

    def test_load_missing_key(self):
        d = Dense(2)
        d(Tensor(np.zeros((1, 2))), seed=0)
        with pytest.raises(KeyError, match="kernel"):
            d.load_state_dict({"bias": np.zeros(2)})

    def test_load_unexpected_key(self):
        d = Dense(2)
        d(Tensor(np.zeros((1, 2))), seed=0)
        state = d.state_dict()
        state["extra/kernel"] = np.zeros((2, 2))
        before = d.kernel.point.data.copy()
        state["kernel"] = before + 1.0
        with pytest.raises(KeyError,
                           match=r"unexpected entries: \['extra/kernel'\]"):
            d.load_state_dict(state)
        assert np.array_equal(d.kernel.point.data, before)  # nothing loaded

    def test_load_shape_mismatch(self):
        d = Dense(2)
        d(Tensor(np.zeros((1, 2))), seed=0)
        state = d.state_dict()
        state["kernel"] = np.zeros((5, 5))
        with pytest.raises(ShapeError):
            d.load_state_dict(state)

    def test_load_shape_mismatch_loads_nothing(self):
        model = Sequential([Dense(3), Dense(2)])
        model(Tensor(np.zeros((1, 2))), seed=0)
        before = model.state_dict()
        state = {name: values + 1.0 for name, values in before.items()}
        state["layer1/kernel"] = np.zeros((5, 5))
        with pytest.raises(ShapeError, match="layer1/kernel"):
            model.load_state_dict(state)
        after = model.state_dict()
        for name, values in before.items():  # layer0 entries come first
            assert after[name].tobytes() == values.tobytes(), name

    def test_rebuild_reproduces_without_reset(self):
        def build():
            model = Sequential([VariationalDense(4, "relu"), Dense(1)])
            out = model(x, seed=3).data
            return out, model.state_dict()

        x = Tensor(np.random.default_rng(5).normal(size=(3, 2)))
        first_out, first_state = build()
        Dense(4)(x, seed=3)  # an unrelated layer built in between
        second_out, second_state = build()
        assert first_out.tobytes() == second_out.tobytes()
        assert first_state.keys() == second_state.keys()
        for name, values in first_state.items():
            assert values.tobytes() == second_state[name].tobytes(), name


class Probe(Layer):
    """Records the order of its build and call hooks."""

    sample_axis = True

    def __init__(self):
        super().__init__()
        self.events = []

    def build(self, x, seed):
        self.events.append(("build", seed))

    def call(self, x, seed):
        self.events.append(("call", seed))
        return x


# every layer that declares input_rank, with that rank
RANKED = {
    "dense": (lambda: Dense(2), 2),
    "variational_dense": (lambda: VariationalDense(2), 2),
    "flipout": (lambda: FlipoutDense(2), 2),
    "variational_conv2d": (lambda: VariationalConv2D(2, 3), 4),
    "sparse_gp": (lambda: SparseGaussianProcess(1, num_inducing=3), 2),
    "rff": (lambda: RandomFourierFeatures(1, num_features=4), 2),
    "variational_lstm_cell": (lambda: VariationalLSTMCell(2), 3),
}


class TestCallProtocol:
    def test_build_runs_once_with_the_first_seed_before_call(self):
        layer = Probe()
        assert not layer.built
        x = Tensor(np.zeros((1, 2)))
        layer(x, seed=7)
        layer(x, seed=8)
        layer(x, seed=(1, 2))
        assert layer.built
        assert layer.events == [("build", 7), ("call", 7), ("call", 8),
                                ("call", (1, 2))]

    def test_layer_without_build_is_built_from_the_start(self):
        assert Sequential([Dense(2)]).built
        assert not Dense(2).built

    @pytest.mark.parametrize("name", RANKED)
    def test_rank_rejected_first_call_creates_nothing(self, name):
        factory, rank = RANKED[name]
        layer = factory()
        assert layer.input_rank == rank
        before = list(layer.named_state())
        with pytest.raises(ShapeError, match=type(layer).__name__):
            layer(Tensor(np.zeros((2,) * (rank + 1))), seed=0)
        assert not layer.built
        assert list(layer.named_state()) == before
        layer(Tensor(np.ones((2,) * rank)), seed=0)
        assert layer.built

    def test_failed_build_leaves_the_layer_unbuilt(self):
        layer = Dense(2)
        x = Tensor(np.zeros((1, 3)))
        with Tape():  # a parameter created here would get no gradient
            with pytest.raises(LayerError, match="created while"):
                layer(x, seed=0)
        assert not layer.built
        assert dict(layer.named_state()) == {}
        layer(x, seed=0)
        assert layer.built
        assert layer.kernel.point.shape == (3, 2)

    @pytest.mark.parametrize("factory, shape", [
        (Dense, (1, 3)),
        (VariationalDense, (1, 3)),
        (lambda units, **kw: VariationalConv2D(units, 3, **kw), (1, 4, 4, 2)),
        (VariationalLSTMCell, (1, 2, 3)),
    ], ids=["dense", "variational_dense", "variational_conv2d",
            "variational_lstm_cell"])
    def test_failed_build_registers_nothing(self, factory, shape):
        # the kernels build before the bias, whose initializer raises
        def failing(shape, seed):
            raise RuntimeError("no bias today")

        layer = factory(2, bias_initializer=failing)
        with pytest.raises(RuntimeError, match="no bias today"):
            layer(Tensor(np.zeros(shape)), seed=0)
        assert not layer.built
        assert layer.state_dict() == {}

    def test_no_exported_layer_but_the_bases_defines_call(self):
        # every other layer goes through Layer.__call__'s seed, rank and
        # build checks; a private base in between counts as the layer's own
        bases = (Layer, ReversibleLayer)
        exported = [getattr(layers, name) for name in layers.__all__]
        own = sorted(
            f"{cls.__name__} ({klass.__name__})"
            for cls in exported
            if isinstance(cls, type) and issubclass(cls, Layer)
            for klass in cls.__mro__
            if issubclass(klass, Layer) and klass not in bases
            and "__call__" in vars(klass))
        assert own == []

    def test_sequential_of_built_layers_takes_seeds_on_first_call(self):
        x = Tensor(np.random.default_rng(4).normal(size=(5, 2)))
        first, second = VariationalDense(3), Dense(2)
        second(first(x, seed=0), seed=0)
        model = Sequential([first, second])
        seeds = (1, 2, 3)
        out = model(x, seed=seeds)
        assert out.shape == (3, 5, 2)
        for s, seed in enumerate(seeds):
            assert out.data[s].tobytes() == model(x, seed=seed).data.tobytes()


class TestPaths:
    def test_root_path_is_empty(self):
        assert Dense(1).path == ""

    def test_add_child_repaths_the_subtree(self):
        inner = Dense(2)
        mid = Sequential([inner])
        assert inner.path == "layer0"
        outer = Sequential([Dense(3), mid])
        assert mid.path == "layer1"
        assert inner.path == "layer1/layer0"
        assert outer.path == ""

    def test_siblings_draw_from_different_streams(self):
        a, b = Dense(3), Dense(3)
        Sequential([a, b])
        assert a.rng(0, "site").random() != b.rng(0, "site").random()

    def test_streams_follow_the_path_not_the_object(self):
        a = Sequential([Dense(3)]).layers[0]
        b = Sequential([Dense(3)]).layers[0]
        assert a.rng(0, "site").random() == b.rng(0, "site").random()

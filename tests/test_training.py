"""Training loop, Adam, ELBO semantics, checkpoints, CSV, determinism."""
import gc
import weakref

import numpy as np
import pytest

from uncertain.checkpoint import load_checkpoint, save_checkpoint
from uncertain.cli import build_flow
from uncertain.data import (
    batch_indices,
    load_csv,
    toy_flow_data,
    toy_regression,
)
from uncertain.distributions import Distribution, Normal
from uncertain.errors import (
    CheckpointError,
    ConfigError,
    DataError,
    LayerError,
    TrainingError,
)
from uncertain.layers import (
    Dense,
    Layer,
    NormalOutput,
    Sequential,
    SparseGaussianProcess,
    SquaredExponential,
    VariationalDense,
)
from uncertain.rng import mix
import uncertain.tensor as tensor_module
from uncertain.tensor import Tape, Tensor, as_tensor, tensor_sum
from uncertain.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ElboConfig,
    adam_update,
    config_get,
    elbo_step,
    fit,
    pack_parameters,
    parse_config,
)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor([1.0, -2.0])
        flat = pack_parameters({"p": p})
        adam_update(flat, np.zeros(2), np.zeros(2), np.zeros(2), 1, lr=0.1)
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_first_step_moves_by_lr_times_sign(self):
        p = Tensor([3.0, -4.0])
        flat = pack_parameters({"p": p})
        with Tape() as tape:
            tape.watch(p)
            grad = tape.backward(tensor_sum(p * Tensor([2.0, -7.0])),
                                 out=np.empty(2))
        before = p.data.copy()
        adam_update(flat, grad, np.zeros(2), np.zeros(2), 1, lr=0.05)
        step = p.data - before
        np.testing.assert_allclose(step, [-0.05, 0.05], rtol=1e-6)

    def test_quadratic_bowl_converges(self):
        target = np.array([1.5, -0.7, 0.2])
        p = Tensor(np.zeros(3))
        flat = pack_parameters({"p": p})
        grad, m, v = np.empty(3), np.zeros(3), np.zeros(3)
        for t in range(1, 2001):
            with Tape() as tape:
                tape.watch(p)
                diff = p - Tensor(target)
                tape.backward(tensor_sum(diff * diff), out=grad)
            adam_update(flat, grad, m, v, t, lr=0.05)
        assert np.abs(p.data - target).max() < 1e-6


class TestCsv:
    def test_single_row_roundtrip(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x,y\n0.25,-1.5\n")
        ds = load_csv(path, ["x"], ["y"])
        assert ds.features.tolist() == [[0.25]]
        assert ds.targets.tolist() == [[-1.5]]

    def test_missing_column_lists_available(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match=r"no column 'z'.*'a', 'b'"):
            load_csv(path, ["z"], ["b"])

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=":3:"):
            load_csv(path, ["a"], ["b"])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match=":3:"):
            load_csv(path, ["a"], ["b"])


class TestCheckpoint:
    def _state(self):
        rng = np.random.default_rng(1)
        return {
            "layer0/kernel": rng.normal(size=(3, 4)),
            "layer0/bias": rng.normal(size=(4,)),
            "scalar": np.asarray(rng.normal()),
        }

    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "model.ckpt"
        state = self._state()
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert sorted(loaded) == sorted(state)
        for name in state:
            assert np.array_equal(loaded[name], np.asarray(state[name]))
            assert loaded[name].shape == np.asarray(state[name]).shape

    def test_save_load_save_byte_identical(self, tmp_path):
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, self._state())
        save_checkpoint(second, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._state())
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


class TestElboStep:
    def test_deterministic_model_gives_plain_nll(self):
        model = Sequential([Dense(3, "tanh"), Dense(2), NormalOutput()])
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(6, 2)))
        y = Tensor(rng.normal(size=(6, 1)))
        cfg = ElboConfig(num_train_examples=6, batch_size=6, seed=1)
        model(x, seed=0)
        loss, kl, grads = elbo_step(model, x, y, cfg, step=0)
        assert kl == 0.0
        out = model(x, seed=loss_seed(cfg, 0))
        nll = -out.log_prob(y).data.mean()
        assert loss.item() == pytest.approx(nll, rel=1e-12)

    def test_posterior_pinned_to_prior_contributes_zero_kl(self):
        from uncertain.tensor import softplus_inverse

        model = VariationalDense(2)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        y = Tensor(np.random.default_rng(2).normal(size=(4, 2)))
        model(x, seed=0)
        for name, p in model._params.items():
            if name.endswith("_mu"):
                p.data[...] = 0.0
            else:
                p.data[...] = softplus_inverse(np.ones(p.shape))
        cfg = ElboConfig(num_train_examples=4, batch_size=4, seed=0)
        _, kl, _ = elbo_step(
            model, x, y, cfg, step=0,
            likelihood=lambda out, t: Normal(as_tensor(out), 1.0).log_prob(t))
        assert kl == 0.0

    def test_missing_likelihood_raises(self):
        model = Dense(2)
        x = Tensor(np.zeros((2, 2)))
        model(x, seed=0)
        cfg = ElboConfig(num_train_examples=2, batch_size=2)
        with pytest.raises(TrainingError, match="likelihood"):
            elbo_step(model, x, Tensor(np.zeros((2, 2))), cfg, step=0)

    def test_non_finite_loss_names_offending_layer(self):
        model = Sequential([VariationalDense(2, name="culprit"), Dense(1)])
        x = Tensor(np.random.default_rng(3).normal(size=(3, 2)))
        y = Tensor(np.zeros((3, 1)))
        model(x, seed=0)
        model.layers[0]._params["kernel_rho"].data[...] = -np.inf  # KL -> inf
        cfg = ElboConfig(num_train_examples=3, batch_size=3)
        with pytest.raises(TrainingError, match=r"layer: layer0 \(culprit\)"):
            elbo_step(model, x, y, cfg, step=0,
                      likelihood=lambda out, t: Normal(as_tensor(out), 1.0)
                      .log_prob(t))

    def test_one_over_n_scaling_is_unbiased_for_full_objective(self):
        # enumerate every single-example batch: N * mean(step losses) must
        # equal the full-data negative ELBO computed directly
        n = 6
        rng = np.random.default_rng(4)
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 1))
        model = VariationalDense(1)
        model(Tensor(x), seed=0)
        cfg = ElboConfig(num_train_examples=n, batch_size=1, seed=9)
        likelihood = lambda out, t: Normal(as_tensor(out), 1.0).log_prob(t)
        step_losses = []
        for i in range(n):
            loss, _, _ = elbo_step(
                model, Tensor(x[i:i + 1]), Tensor(y[i:i + 1]), cfg, step=0,
                likelihood=likelihood)
            step_losses.append(loss.item())
        # full objective with the same weight sample (same seed, same step)
        out = model(Tensor(x), seed=loss_seed(cfg, 0))
        full = (-likelihood(out, Tensor(y)).data.sum()
                + sum(l.item() for l in model.losses))
        assert n * np.mean(step_losses) == pytest.approx(full, rel=1e-9)

    def test_mc_samples_average(self):
        model = VariationalDense(1)
        x = Tensor(np.random.default_rng(5).normal(size=(4, 2)))
        y = Tensor(np.zeros((4, 1)))
        model(x, seed=0)
        likelihood = lambda out, t: Normal(as_tensor(out), 1.0).log_prob(t)
        cfg1 = ElboConfig(num_train_examples=4, batch_size=4, mc_samples=1)
        cfg4 = ElboConfig(num_train_examples=4, batch_size=4, mc_samples=4)
        loss1, _, _ = elbo_step(model, x, y, cfg1, 0, likelihood=likelihood)
        loss4, _, _ = elbo_step(model, x, y, cfg4, 0, likelihood=likelihood)
        assert loss1.item() != loss4.item()
        assert np.isfinite(loss4.item())


def loss_seed(cfg, step, sample=0):
    from uncertain.rng import mix

    return mix(cfg.seed, "step", step, "mc", sample)


class TestFit:
    def _model(self):
        return Sequential([VariationalDense(8, "relu"), Dense(1)])

    def _run(self, steps=40, model=None, log_fn=None):
        x, y = toy_regression(32, seed=0)
        cfg = ElboConfig(num_train_examples=32, batch_size=8,
                         learning_rate=0.02, max_steps=steps, seed=3)
        trace = fit(model or self._model(), x, y, cfg,
                    likelihood=lambda out, t: Normal(as_tensor(out), 0.1)
                    .log_prob(t), log_fn=log_fn)
        return trace

    def test_identical_seed_identical_trace_bitwise(self):
        first = self._run()
        second = self._run()
        assert first == second  # exact float equality, not approximate

    def test_loss_decreases(self):
        trace = self._run(steps=150)
        assert trace[-1][1] < trace[0][1]

    @pytest.mark.parametrize("fail_after", [0, 2])
    def test_failing_batch_source_raises(self, monkeypatch, fail_after):
        import uncertain.training as training

        real = training.batch_indices
        error = DataError("batch source failed")

        def failing(*args):
            batches = real(*args)
            for _ in range(fail_after):
                yield next(batches)
            raise error

        monkeypatch.setattr(training, "batch_indices", failing)
        with pytest.raises(DataError) as excinfo:
            self._run()
        assert excinfo.value is error

    def test_tapes_freed_without_the_cyclic_gc(self, monkeypatch):
        """Every step's tracked forward arrays but the last two steps' are
        freed by reference counting alone."""
        steps = 20
        recorded, per_step = [], []
        real_apply = tensor_module._apply

        def recording_apply(op, out_data, parents, backward):
            out = real_apply(op, out_data, parents, backward)
            if out.node_id is not None:
                recorded.append(weakref.ref(out.data))
            return out

        def close_step(step, loss, kl):
            per_step.append(list(recorded))
            recorded.clear()

        monkeypatch.setattr(tensor_module, "_apply", recording_apply)
        model = self._model()
        gc.collect()
        gc.disable()
        try:
            self._run(steps=steps, model=model, log_fn=close_step)
            alive = [sum(ref() is not None for ref in refs) for refs in per_step]
        finally:
            gc.enable()
        assert len(per_step) == steps
        assert all(per_step)
        assert alive[:-2] == [0] * (steps - 2)

    def test_non_finite_gradient_raises_before_any_update(self, monkeypatch):
        model = self._model()
        self._run(steps=2, model=model)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        real_backward = Tape.backward
        poisoned = []

        def backward_with_nan(tape, root, out=None):
            grad = real_backward(tape, root, out)
            grad[-1] = np.nan  # the last watched leaf: the output bias
            poisoned.append(tape.leaves[-1][0])
            return grad

        monkeypatch.setattr(Tape, "backward", backward_with_nan)
        with pytest.raises(TrainingError, match="step 0") as excinfo:
            self._run(steps=5, model=model)
        assert "non-finite gradient" in str(excinfo.value)
        assert "'layer1/bias'" in str(excinfo.value)
        assert len(poisoned) == 1
        after = model.state_dict()
        assert before.keys() == after.keys()
        for key in before:
            assert np.array_equal(before[key], after[key]), key

    @pytest.mark.parametrize("overrides, key", [
        (dict(batch_size=8), "batch_size"),
        (dict(batch_size=0), "batch_size"),
        (dict(batch_size=-3), "batch_size"),
        (dict(kl_scale="half"), "kl_scale"),
        (dict(kl_scale=-1), "kl_scale"),
        (dict(kl_scale="inf"), "kl_scale"),
        (dict(max_steps=-1), "max_steps"),
    ], ids=["exceeds_examples", "zero", "negative", "kl_scale_word",
            "kl_scale_negative", "kl_scale_inf", "max_steps_negative"])
    def test_batch_size_validation(self, overrides, key):
        with pytest.raises(ConfigError, match=key):
            ElboConfig(**{"num_train_examples": 4, "batch_size": 2,
                          **overrides})


class EagerWeightModel(Layer):
    """A weight made in ``__init__`` ahead of a head built on first call."""

    def __init__(self):
        super().__init__()
        self.gain = self.add_param("gain", np.ones(1))
        self.head = self.add_child("head", NormalOutput(units=1))

    def call(self, x, seed):
        return self.head(as_tensor(x) * self.gain, seed=seed)


class Unregistered(Layer):
    """Sub-layers kept as plain attributes instead of through add_child."""

    def __init__(self, as_list=False):
        super().__init__()
        if as_list:
            self.parts = [VariationalDense(8, "relu"), Dense(1)]
        else:
            self.hidden = VariationalDense(8, "relu")
            self.out = Dense(1)

    def call(self, x, seed):
        hidden, out = getattr(self, "parts", None) or (self.hidden, self.out)
        return out(hidden(x, seed=seed), seed=seed)


class UnregisteredDict(Layer):
    """Sub-layers kept as the values of a dict attribute."""

    def __init__(self):
        super().__init__()
        self.parts = {"hidden": VariationalDense(4, "relu"), "out": Dense(1)}

    def call(self, x, seed):
        return self.parts["out"](self.parts["hidden"](x, seed=seed), seed=seed)


class TestBuild:
    """``fit`` builds every model once, off the tape, and trains every
    parameter the build created."""

    def _fit(self, model, steps=50):
        x, y = toy_regression(32, seed=0)
        cfg = ElboConfig(num_train_examples=32, batch_size=8,
                         learning_rate=0.02, max_steps=steps, seed=1)
        return fit(model, x, y, cfg,
                   likelihood=lambda out, t: Normal(as_tensor(out), 0.1)
                   .log_prob(t))

    def test_lone_sparse_gp_trains_its_variational_state(self):
        # the kernel's parameters exist at construction, the rest on the
        # first call: all of them must be trained
        layer = SparseGaussianProcess(1, 8)
        self._fit(layer)
        assert np.any(layer.inducing_mean.data != 0.0)
        initial_raw = np.eye(8) * tensor_module.softplus_inverse(1.0)
        assert np.any(layer.scale_raw.data[0] != initial_raw)

    def test_head_behind_an_eager_weight_is_trained(self):
        model = EagerWeightModel()
        self._fit(model, steps=20)
        assert np.all(model.head.projection.bias.point.data != 0.0)

    def test_parameter_created_on_a_tape_raises(self):
        model = Sequential([Dense(2)])
        with Tape():
            with pytest.raises(LayerError, match="layer0/kernel"):
                model(Tensor(np.ones((3, 2))), seed=0)
        assert model.trainable_variables() == {}

    def test_shared_kernel_is_listed_once(self):
        kernel = SquaredExponential()
        model = Sequential([SparseGaussianProcess(2, 4, kernel=kernel),
                            SparseGaussianProcess(1, 4, kernel=kernel)])
        model(Tensor(np.linspace(-1.0, 1.0, 6)[:, None]), seed=0)
        params = model.trainable_variables()
        assert len({id(t) for t in params.values()}) == len(params)
        hypers = [name for name in params if "kernel_log" in name]
        assert hypers == ["layer0/kernel_log_amplitude",
                          "layer0/kernel_log_lengthscale"]

    @pytest.mark.parametrize("make, where", [
        (lambda: Unregistered(), "unregistered.hidden"),
        (lambda: Unregistered(as_list=True), "unregistered.parts"),
        (lambda: Sequential([Unregistered()]), "layer0.hidden"),
    ], ids=["attribute", "list", "nested"])
    def test_unregistered_sub_layer_raises(self, make, where):
        with pytest.raises(TrainingError, match=where):
            self._fit(make(), steps=20)

    def test_sub_layers_in_a_dict_attribute_raise(self):
        with pytest.raises(TrainingError, match=r"unregistereddict\.parts"):
            self._fit(UnregisteredDict(), steps=5)


def looped_adam_fit(model, features, targets, cfg, likelihood=None):
    """Reference for ``fit``: Adam as a loop over parameters with per-name
    moment dicts, on gradients read from ``Tape.backward``'s node-id map,
    and no parameter packed.  ``fit`` must match it bitwise: every Adam op
    is elementwise.  A Distribution ``features`` is every step's input."""
    density = isinstance(features, Distribution)
    model(features if density else Tensor(features[:1]),
          seed=mix(cfg.seed, "build"))
    params = model.trainable_variables()
    state = {"t": 0, "m": {}, "v": {}}
    trace = []
    for step, idx in enumerate(batch_indices(
            cfg.num_train_examples, cfg.batch_size, cfg.max_steps, cfg.seed)):
        batch_x = features if density else Tensor(features[idx])
        loss, kl, _ = elbo_step(model, batch_x, Tensor(targets[idx]), cfg,
                                step, likelihood=likelihood, params=params)
        grads = loss.tape.backward(loss)
        state["t"] += 1
        t = state["t"]
        beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        for name, p in params.items():
            grad_t = grads.get(p.node_id)
            g = grad_t.data if grad_t is not None else np.zeros(p.shape)
            m = state["m"].get(name)
            v = state["v"].get(name)
            if m is None:
                m = np.zeros(p.shape)
                v = np.zeros(p.shape)
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            state["m"][name] = m
            state["v"][name] = v
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            p.data[...] = p.data - cfg.learning_rate * m_hat / (
                np.sqrt(v_hat) + eps)
        trace.append((step, loss.item(), kl))
    return trace


class GainWithIdleLeaf(Layer):
    """A scalar gain, and a weight that no output depends on."""

    def __init__(self):
        super().__init__()
        self.gain = self.add_param("gain", np.asarray(1.5))
        self.idle = self.add_param("idle", np.arange(6.0).reshape(2, 3))

    def call(self, x, seed):
        return as_tensor(x) * self.gain


def regression_case():
    x, y = toy_regression(32, seed=0)
    cfg = ElboConfig(num_train_examples=32, batch_size=8,
                     learning_rate=0.02, max_steps=40, seed=3)
    return (lambda: Sequential([VariationalDense(8, "relu"),
                                GainWithIdleLeaf(), Dense(1)]),
            x, y, cfg,
            dict(likelihood=lambda out, t: Normal(as_tensor(out), 0.1)
                 .log_prob(t)))


def flow_case():
    data = toy_flow_data(64, seed=0)
    cfg = ElboConfig(num_train_examples=64, batch_size=16,
                     learning_rate=0.005, max_steps=40, seed=0)
    base = Normal(np.zeros(2), np.ones(2))
    return lambda: build_flow(4, 8), base, data, cfg, {}


def packed_buffer(model):
    """The one vector that every trainable parameter of ``model`` views,
    checked to hold them one after another in listing order."""
    params = model.trainable_variables()
    first = next(iter(params.values()))
    flat = first.data.base
    assert flat is not None and flat.ndim == 1
    assert flat.size == sum(p.size for p in params.values())
    offset = 0
    for name, p in params.items():
        assert p.data.base is flat, name
        assert np.shares_memory(p.data, flat), name
        assert np.array_equal(flat[offset:offset + p.size], p.data.ravel())
        offset += p.size
    return flat


class TestFlatParameters:
    """``fit`` packs the parameters into one vector and runs Adam on it whole,
    bitwise as the per-parameter loop did."""

    @pytest.mark.parametrize("case, leaves", [(flow_case, 16),
                                              (regression_case, 8)],
                             ids=["flow", "idle_leaf"])
    def test_fit_matches_per_parameter_loop_bitwise(self, case, leaves):
        make, x, y, cfg, kwargs = case()
        packed, looped = make(), make()
        trace = fit(packed, x, y, cfg, **kwargs)
        want = looped_adam_fit(looped, x, y, cfg, **kwargs)
        assert len(packed.trainable_variables()) == leaves
        assert trace == want
        got_state, want_state = packed.state_dict(), looped.state_dict()
        assert got_state.keys() == want_state.keys()
        for name in got_state:
            assert np.array_equal(got_state[name], want_state[name]), name

    def test_leaf_without_gradient_stays_and_others_move(self):
        make, x, y, cfg, kwargs = regression_case()
        model = make()
        model(Tensor(x[:1]), seed=mix(cfg.seed, "build"))
        before = model.state_dict()
        fit(model, x, y, cfg, **kwargs)
        after = model.state_dict()
        assert np.array_equal(after["layer1/idle"], before["layer1/idle"])
        moved = [k for k in before
                 if not np.array_equal(after[k], before[k])]
        assert sorted(moved) == sorted(
            k for k in model.trainable_variables() if k != "layer1/idle")

    def test_parameters_view_the_buffer_after_a_step(self):
        make, x, y, cfg, kwargs = flow_case()
        cfg.max_steps = 1
        model = make()
        fit(model, x, y, cfg, **kwargs)
        packed_buffer(model)

    def test_load_state_dict_writes_into_the_buffer(self):
        make, x, y, cfg, kwargs = regression_case()
        cfg.max_steps = 1
        model, other = make(), make()
        fit(model, x, y, cfg, **kwargs)
        flat = packed_buffer(model)
        other(Tensor(x[:1]), seed=7)
        model.load_state_dict(other.state_dict())
        assert packed_buffer(model) is flat
        for name, values in other.state_dict().items():
            assert np.array_equal(model.state_dict()[name], values), name

    def test_second_fit_continues_training(self):
        make, x, y, cfg, kwargs = flow_case()
        cfg.max_steps = 20
        model = make()
        model(x, seed=mix(cfg.seed, "build"))
        initial = model.state_dict()
        first = fit(model, x, y, cfg, **kwargs)
        trained = model.state_dict()
        second = fit(model, x, y, cfg, **kwargs)
        packed_buffer(model)
        # the same as resuming from a checkpoint of the first call
        resumed = make()
        resumed(x, seed=mix(cfg.seed, "build"))
        resumed.load_state_dict(trained)
        assert fit(resumed, x, y, cfg, **kwargs) == second
        assert second[0][1] != first[0][1]
        final = model.state_dict()
        for name, values in resumed.state_dict().items():
            assert np.array_equal(final[name], values), name
        # a leaf the first call moved moves again in the second (8 of the
        # 24 get no gradient: the odd couplings' conditioners see zeros)
        trains = [name for name in model.trainable_variables()
                  if not np.array_equal(trained[name], initial[name])]
        assert len(trains) >= 16
        for name in trains:
            assert not np.array_equal(final[name], trained[name]), name


def test_distribution_features_are_the_input_of_every_call(monkeypatch):
    # the build probe and each step get the base itself; targets are batched
    make, base, data, cfg, _ = flow_case()
    cfg.max_steps = 3
    model = make()
    seen = []
    monkeypatch.setattr(model, "call", lambda x, seed: (
        seen.append(x), Sequential.call(model, x, seed))[1])
    trace = fit(model, base, data, cfg)
    assert len(trace) == 3
    assert len(seen) == 4 and all(x is base for x in seen)


class TestConfigFile:
    def test_parse_values_comments_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "steps = 25\n"
            "\n"
            "learning_rate = 0.5  # trailing comment\n"
            "kl_scale = one_over_N\n"
        )
        values = parse_config(path)
        assert config_get(values, "steps", int, 0) == 25
        assert config_get(values, "learning_rate", float, 0.0) == 0.5
        assert config_get(values, "kl_scale", str, "") == "one_over_N"
        assert config_get(values, "missing", int, 7) == 7

    def test_malformed_line_has_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps = 5\nbogus line\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config(path)

    def test_bad_cast_mentions_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps = soon\n")
        with pytest.raises(ConfigError, match="steps"):
            config_get(parse_config(path), "steps", int, 0)

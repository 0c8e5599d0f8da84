"""Variational layers: collapse to deterministic, KL wiring, estimators."""
import numpy as np
import pytest
from scipy.special import expit

from uncertain.distributions import Normal, kl_divergence
from uncertain.errors import LayerError
from uncertain.layers import (
    Dense,
    FlipoutDense,
    Layer,
    NormalOutput,
    RandomFourierFeatures,
    VariationalConv2D,
    VariationalDense,
    VariationalLSTMCell,
)
from uncertain.rng import mix
from uncertain.training import ElboConfig, fit
from uncertain.tensor import (
    Tape,
    Tensor,
    as_tensor,
    conv2d,
    reshape,
    slice_last,
    softplus_inverse,
    tensor_mean,
    tensor_sum,
)

from conftest import finite_diff_grad, max_rel_err


def collapse(layer):
    """Pin every posterior scale to exactly zero."""
    for name, p in layer._params.items():
        if name.endswith("_rho"):
            p.data[...] = -np.inf


def pin_to_prior(layer):
    """Posterior = standard normal, so every KL loss is exactly zero."""
    for name, p in layer._params.items():
        if name.endswith("_mu"):
            p.data[...] = 0.0
        if name.endswith("_rho"):
            p.data[...] = softplus_inverse(np.ones(p.shape))


class TestVariationalDense:
    def test_sigma_zero_matches_dense_bitwise(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 3)))
        vd = VariationalDense(4, "tanh", kernel_regularizer=None,
                              bias_regularizer=None)
        vd(x, seed=0)
        collapse(vd)
        d = Dense(4, "tanh",
                  kernel_initializer=lambda s, _: Tensor(
                      vd._params["kernel_mu"].data.copy()),
                  bias_initializer=lambda s, _: Tensor(
                      vd._params["bias_mu"].data.copy()))
        assert np.array_equal(vd(x, seed=17).data, d(x, seed=17).data)

    def test_prior_matched_posterior_has_zero_kl(self):
        vd = VariationalDense(3)
        x = Tensor(np.zeros((2, 2)))
        vd(x, seed=0)
        pin_to_prior(vd)
        vd(x, seed=1)
        assert [loss.item() for loss in vd.losses] == [0.0, 0.0]

    def test_losses_equal_module_kl(self):
        vd = VariationalDense(3)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 2)))
        vd(x, seed=0)
        kernel_kl = kl_divergence(vd.kernel.posterior(), Normal(0.0, 1.0))
        bias_kl = kl_divergence(vd.bias.posterior(), Normal(0.0, 1.0))
        assert vd.losses[0].item() == kernel_kl.item()
        assert vd.losses[1].item() == bias_kl.item()

    def test_custom_prior_changes_loss(self):
        from uncertain.layers import normal_kl

        wide = VariationalDense(3, kernel_regularizer=normal_kl(Normal(0.0, 10.0)))
        narrow = VariationalDense(3)
        x = Tensor(np.zeros((1, 2)))
        wide(x, seed=0)
        narrow(x, seed=0)
        assert wide.losses[0].item() != narrow.losses[0].item()

    def test_conjugate_linear_regression_recovers_posterior_mean(self):
        # y = w x + b + eps with known noise and standard normal priors has a
        # Gaussian posterior; mean-field VI matches its mean exactly, so the
        # trained mu must land on the analytic posterior mean
        from uncertain.training import ElboConfig, fit

        rng = np.random.default_rng(3)
        n, sigma = 48, 0.3
        x = rng.uniform(-1, 1, (n, 1))
        y = 1.3 * x - 0.4 + sigma * rng.standard_normal((n, 1))
        phi = np.concatenate([x, np.ones_like(x)], axis=1)
        precision = np.eye(2) + phi.T @ phi / sigma**2
        target = np.linalg.solve(precision, phi.T @ y / sigma**2).ravel()

        model = VariationalDense(1)
        iterates = []

        def likelihood(out, targets):
            return Normal(as_tensor(out), sigma).log_prob(targets)

        def record(step, loss, kl):  # called after each Adam update
            iterates.append((model._params["kernel_mu"].data[0, 0],
                             model._params["bias_mu"].data[0]))

        # coarse phase to reach the basin, fine low-noise phase to sit on it;
        # the mean of the fine phase's last 1,000 iterates averages out the
        # Monte-Carlo jitter that any single iterate keeps
        for lr, steps, mc in ((0.02, 2000, 1), (0.001, 2000, 4)):
            cfg = ElboConfig(num_train_examples=n, batch_size=n,
                             learning_rate=lr, max_steps=steps, seed=0,
                             mc_samples=mc)
            fit(model, x, y, cfg, likelihood=likelihood, log_fn=record)
        got = np.mean(iterates[-1000:], axis=0)
        assert np.abs(got - target).max() < 1e-2


class TestFlipout:
    def _pair(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 3))
        flip = FlipoutDense(4)
        rep = VariationalDense(4)
        flip(Tensor(x), seed=0)
        rep(Tensor(x), seed=0)
        state = {n: p.data.copy() for n, p in flip._params.items()}
        for n, p in rep._params.items():
            p.data[...] = state[n]
        return x, flip, rep

    def test_sigma_zero_reduces_to_mean_weights(self):
        x, flip, _ = self._pair()
        collapse(flip)
        out = flip(Tensor(x), seed=33)
        want = x @ flip._params["kernel_mu"].data + flip._params["bias_mu"].data
        assert np.array_equal(out.data, want)

    def test_same_kl_losses_as_variational(self):
        x, flip, rep = self._pair()
        flip(Tensor(x), seed=1)
        rep(Tensor(x), seed=1)
        assert len(flip.losses) == len(rep.losses) == 2
        for a, b in zip(flip.losses, rep.losses):
            assert a.item() == pytest.approx(b.item(), rel=1e-12)

    def test_marginal_means_match_reparameterization(self):
        x, flip, rep = self._pair(seed=5)
        reps = 4000
        tiled = Tensor(np.tile(x, (reps, 1)))
        f_draws = np.stack([
            flip(tiled, seed=s).data.reshape(reps, 8, 4).mean(axis=0)
            for s in range(25)
        ])
        r_draws = np.stack([
            rep(tiled, seed=1000 + s).data.reshape(reps, 8, 4).mean(axis=0)
            for s in range(25)
        ])
        n_total = reps * 25
        gap = f_draws.mean(axis=0) - r_draws.mean(axis=0)
        spread = np.sqrt(f_draws.std(axis=0) ** 2 / 25
                         + r_draws.std(axis=0) ** 2 / 25)
        assert np.all(np.abs(gap) < 4 * spread + 1e-12)
        assert n_total == 100_000

    def test_gradient_variance_not_larger(self):
        # paired trials: sample variance of the batch-mean-loss gradient wrt
        # the posterior mean, flipout vs shared-perturbation reparameterization
        x, flip, rep = self._pair(seed=7)
        y = np.random.default_rng(8).normal(size=(8, 4))

        def grad_draw(layer, seed):
            with Tape() as tape:
                for p in layer._params.values():
                    tape.watch(p)
                out = layer(Tensor(x), seed=seed)
                loss = tensor_mean((out - Tensor(y)) * (out - Tensor(y)))
                grads = tape.backward(loss)
            return grads[layer._params["kernel_mu"].node_id].data.ravel()

        wins = 0
        trials = 40
        draws_per_trial = 12
        counter = iter(range(10**6))
        for _ in range(trials):
            f = np.stack([grad_draw(flip, mix("f", next(counter)))
                          for _ in range(draws_per_trial)])
            r = np.stack([grad_draw(rep, mix("r", next(counter)))
                          for _ in range(draws_per_trial)])
            if f.var(axis=0, ddof=1).sum() <= r.var(axis=0, ddof=1).sum():
                wins += 1
        assert wins >= int(0.9 * trials)


class TestVariationalConv2D:
    def test_sigma_zero_matches_direct_convolution(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 5, 5, 2)))
        layer = VariationalConv2D(3, kernel_size=3, kernel_regularizer=None,
                                  bias_regularizer=None)
        layer(x, seed=0)
        collapse(layer)
        got = layer(x, seed=9).data
        want = conv2d(x, Tensor(layer._params["kernel_mu"].data)).data \
            + layer._params["bias_mu"].data
        assert np.array_equal(got, want)

    def test_two_losses_after_call(self):
        layer = VariationalConv2D(2, kernel_size=2)
        layer(Tensor(np.zeros((1, 4, 4, 1))), seed=0)
        assert len(layer.losses) == 2

    def test_stride_and_padding_shapes(self):
        layer = VariationalConv2D(2, kernel_size=3, stride=2, padding="valid")
        out = layer(Tensor(np.zeros((1, 7, 7, 1))), seed=0)
        assert out.shape == (1, 3, 3, 2)

    @pytest.mark.parametrize("kwargs,name", [
        ({"kernel_size": 0}, "kernel_size"),
        ({"kernel_size": (3, 0)}, "kernel_size"),
        ({"kernel_size": 3, "stride": 0}, "stride"),
        ({"kernel_size": 3, "stride": -1}, "stride"),
        ({"kernel_size": 3, "stride": 1.5}, "stride"),
        ({"kernel_size": 3, "padding": "full"}, "padding"),
    ])
    def test_bad_geometry_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            VariationalConv2D(2, **kwargs)

    def test_no_filters_rejected_when_made(self):
        with pytest.raises(ValueError, match=r"^filters must be >= 1, got 0$"):
            VariationalConv2D(0, 3)


def lstm_oracle_step(x, h, c, w, u, b, n):
    z = x @ w + h @ u + b
    gate_i = expit(z[:, :n])
    gate_f = expit(z[:, n:2 * n])
    gate_g = np.tanh(z[:, 2 * n:3 * n])
    gate_o = expit(z[:, 3 * n:])
    c2 = gate_f * c + gate_i * gate_g
    h2 = gate_o * np.tanh(c2)
    return h2, c2


def built_cell(cell, features, seed=0):
    """The cell after its first call, on a one-step sequence."""
    cell(Tensor(np.zeros((1, 1, features))), seed=seed)
    return cell


def step_by_hand(cell, xs, seed):
    """The per-step Bayesian-LSTM loop: one draw, then a step per column."""
    weights = cell.draw(seed)
    state, hs = None, []
    for t in range(xs.shape[1]):
        state = cell.step(xs[:, t], state, weights)
        hs.append(state[0].data)
    return np.stack(hs, axis=1), state


class TestVariationalLSTMCell:
    def test_zero_weights_keep_state_at_zero(self):
        cell = built_cell(VariationalLSTMCell(3, kernel_regularizer=None,
                                              recurrent_regularizer=None,
                                              bias_regularizer=None), 2)
        collapse(cell)
        for name in ("kernel_mu", "recurrent_mu", "bias_mu"):
            cell._params[name].data[...] = 0.0
        xs = np.random.default_rng(0).normal(size=(4, 6, 2))
        assert np.all(cell(Tensor(xs), seed=0).data == 0.0)
        hs, (h, c) = step_by_hand(cell, xs, seed=0)
        assert np.all(hs == 0.0)
        assert np.all(c.data == 0.0)

    def test_single_step_matches_hand_oracle(self):
        rng = np.random.default_rng(1)
        cell = built_cell(VariationalLSTMCell(2), 3)
        collapse(cell)
        x = rng.normal(size=(4, 3))
        h, c = cell.step(Tensor(x), None, cell.draw(0))
        want_h, want_c = lstm_oracle_step(
            x, np.zeros((4, 2)), np.zeros((4, 2)),
            cell._params["kernel_mu"].data,
            cell._params["recurrent_mu"].data,
            cell._params["bias_mu"].data, 2)
        assert np.array_equal(h.data, want_h)
        assert np.array_equal(c.data, want_c)
        assert np.array_equal(
            cell(Tensor(x[:, None]), seed=0).data[:, 0], want_h)

    def test_three_losses_regardless_of_length(self):
        cell = VariationalLSTMCell(3)
        for steps in (1, 4, 9):
            xs = Tensor(np.zeros((2, steps, 2)))
            cell(xs, seed=steps)
            assert len(cell.losses) == 3
            step_by_hand(cell, xs.data, seed=steps)
            assert len(cell.losses) == 3

    def test_one_sample_per_sequence(self):
        # a draw depends on the seed alone, so redrawing a seed gives the
        # same weights, and a sequence reuses its draw at every step
        cell = built_cell(VariationalLSTMCell(3), 2)
        w_first = cell.draw(0)[0].data.copy()
        w_second = cell.draw(1)[0].data.copy()
        assert not np.array_equal(w_first, w_second)
        assert np.array_equal(cell.draw(0)[0].data, w_first)

    def test_call_is_one_draw_then_a_step_per_time_step(self):
        cell = VariationalLSTMCell(3)
        xs = np.random.default_rng(2).normal(size=(2, 5, 4))
        for seed in (0, 1):
            hs = cell(Tensor(xs), seed=seed)
            losses = [loss.data.tobytes() for loss in cell.losses]
            want, _ = step_by_hand(cell, xs, seed)
            assert hs.data.tobytes() == want.tobytes()
            assert [loss.data.tobytes() for loss in cell.losses] == losses

    def test_call_takes_each_step_with_one_node(self):
        cell = built_cell(VariationalLSTMCell(3), 4)
        xs0 = np.random.default_rng(3).normal(size=(2, 5, 4))
        with Tape() as tape:
            xs = tape.watch(Tensor(xs0))
            hs = cell(xs, seed=0)
            grads = tape.backward(tensor_sum(hs))
        readers = [op for op, parents, _ in tape.nodes
                   if xs.node_id in parents]
        assert readers == ["take"] * 5
        assert grads[xs.node_id].shape == xs0.shape

    def test_state_shape_mismatch(self):
        from uncertain.errors import ShapeError

        cell = built_cell(VariationalLSTMCell(3), 2)
        with pytest.raises(ShapeError, match="hidden state"):
            cell.step(Tensor(np.zeros((2, 2))),
                      (Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5)))),
                      cell.draw(0))

    def test_step_takes_rank_2_and_draw_needs_a_built_cell(self):
        from uncertain.errors import ShapeError

        cell = VariationalLSTMCell(3)
        with pytest.raises(LayerError, match="not built"):
            cell.draw(0)
        built_cell(cell, 2)
        with pytest.raises(ShapeError, match="rank-2"):
            cell.step(Tensor(np.zeros((2, 1, 2))), None, cell.draw(0))


class StepLoop(Layer):
    """The Bayesian-LSTM loop stepped by hand, one input column per time
    step, with a normal head on the last hidden state.  With ``reuse`` it
    keeps its first draw and steps every later call with it."""

    def __init__(self, reuse):
        super().__init__()
        self.reuse = reuse
        self.weights = None
        self.cell = self.add_child("cell", VariationalLSTMCell(3))
        self.head = self.add_child("head", NormalOutput(units=1))

    def build(self, x, seed):
        self.cell(reshape(x, x.shape + (1,)), seed=seed)

    def call(self, x, seed):
        x = as_tensor(x)
        if self.weights is None or not self.reuse:
            self.weights = self.cell.draw(seed)
        state = None
        for t in range(x.shape[1]):
            state = self.cell.step(slice_last(x, t, t + 1), state,
                                   self.weights)
        return self.head(state[0], seed=seed)


class TestLSTMDrawPerTape:
    """A weight draw serves only the tape that recorded it."""

    def _fit(self, model):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(16, 4))
        y = x.sum(axis=1, keepdims=True)
        cfg = ElboConfig(num_train_examples=16, batch_size=8,
                         learning_rate=0.05, max_steps=20, seed=0)
        fit(model, x, y, cfg)

    def test_stepping_a_draw_from_another_tape_raises(self):
        with pytest.raises(LayerError, match="cell: .*draw them on this tape"):
            self._fit(StepLoop(reuse=True))

    def test_a_draw_per_step_trains_the_cell(self):
        model = StepLoop(reuse=False)
        model(Tensor(np.zeros((1, 4))), seed=0)
        before = {k: v.data.copy() for k, v in model.cell._params.items()}
        self._fit(model)
        for name, value in model.cell._params.items():
            assert not np.array_equal(value.data, before[name]), name

    def test_a_draw_without_a_tape_serves_steps_without_one(self):
        cell = built_cell(VariationalLSTMCell(2), 3)
        weights = cell.draw(0)
        state = None
        for _ in range(3):
            state = cell.step(Tensor(np.ones((1, 3))), state, weights)
        with Tape() as tape:  # watches only the input: nothing is lost
            x_t = tape.watch(Tensor(np.ones((1, 3))))
            h, _ = cell.step(x_t, state, weights)
            assert h.tape is tape
        arrays = tuple(w.data for w in weights)  # on no tape at all
        with Tape() as tape:
            tape.watch(cell.kernel.mu)
            for stale in (weights, arrays):
                with pytest.raises(LayerError, match="draw them on this tape"):
                    cell.step(Tensor(np.ones((1, 3))), state, stale)


class TestElboGradients:
    """One-sample ELBO gradients match finite differences, rel err < 1e-4."""

    def _check_layer(self, build, x, target_shape, seed):
        layer = build()
        rng = np.random.default_rng(seed)
        y = rng.normal(size=target_shape)
        layer(Tensor(x), seed=seed)  # create parameters

        def loss_fn():
            out = as_tensor(layer(Tensor(x), seed=seed))
            err = out - Tensor(y)
            loss = tensor_mean(err * err)
            for kl in layer.losses:
                loss = loss + 0.05 * kl
            return loss

        params = layer.trainable_variables()
        with Tape() as tape:
            for p in params.values():
                tape.watch(p)
            grads = tape.backward(loss_fn())
        for name, p in params.items():
            base = p.data.copy()

            def f(values):
                p.data[...] = values
                out = loss_fn().item()
                p.data[...] = base
                return out

            numeric = finite_diff_grad(f, base)
            analytic = grads[p.node_id].data
            assert max_rel_err(analytic, numeric) < 1e-4, name

    def test_variational_dense(self):
        rng = np.random.default_rng(0)
        self._check_layer(lambda: VariationalDense(3, "tanh"),
                          rng.normal(size=(4, 2)), (4, 3), seed=1)

    def test_flipout_dense(self):
        rng = np.random.default_rng(1)
        self._check_layer(lambda: FlipoutDense(3), rng.normal(size=(4, 2)),
                          (4, 3), seed=2)

    def test_variational_conv(self):
        rng = np.random.default_rng(2)
        self._check_layer(
            lambda: VariationalConv2D(2, kernel_size=2, padding="valid"),
            rng.normal(size=(1, 3, 3, 2)), (1, 2, 2, 2), seed=3)


def _rank2(layer, seed):
    layer(Tensor(np.linspace(-1.0, 1.0, 8).reshape(4, 2)), seed=seed)


# layer factory from a regularizer per weight, its weights in declaration
# order, and one call (one sequence for the LSTM cell)
VARIATIONAL_WEIGHTS = {
    "dense": (lambda reg: VariationalDense(
        3, kernel_regularizer=reg["kernel"], bias_regularizer=reg["bias"]),
        ("kernel", "bias"), _rank2),
    "flipout": (lambda reg: FlipoutDense(
        3, kernel_regularizer=reg["kernel"], bias_regularizer=reg["bias"]),
        ("kernel", "bias"), _rank2),
    "conv2d": (lambda reg: VariationalConv2D(
        2, kernel_size=2, kernel_regularizer=reg["kernel"],
        bias_regularizer=reg["bias"]),
        ("kernel", "bias"),
        lambda layer, seed: layer(
            Tensor(np.linspace(-1.0, 1.0, 18).reshape(1, 3, 3, 2)), seed=seed)),
    "lstm": (lambda reg: VariationalLSTMCell(
        3, kernel_regularizer=reg["kernel"],
        recurrent_regularizer=reg["recurrent"], bias_regularizer=reg["bias"]),
        ("kernel", "recurrent", "bias"),
        lambda layer, seed: layer(
            Tensor(np.linspace(-1.0, 1.0, 12).reshape(2, 3, 2)), seed=seed)),
    "rff": (lambda reg: RandomFourierFeatures(
        3, 5, kernel_regularizer=reg["readout"]),
        ("readout",), _rank2),
}


@pytest.mark.parametrize("name", sorted(VARIATIONAL_WEIGHTS))
def test_each_weight_is_regularized_once_per_call_in_order(name):
    make, weights, run = VARIATIONAL_WEIGHTS[name]
    seen = []

    def counting(rv):
        seen.append(rv)
        return Tensor(float(len(seen)))

    layer = make(dict.fromkeys(weights, counting))
    for seed in (0, 1):
        seen.clear()
        run(layer, seed)
        assert len(seen) == len(weights)
        for rv, weight in zip(seen, weights):
            param = getattr(layer, weight)
            # a draw from this weight's posterior, not its mean
            assert rv.distribution.loc is param.mu
            assert rv.value.shape == param.mu.shape
            assert not np.array_equal(rv.value.data, param.mu.data)
        assert [loss.item() for loss in layer.losses] == [
            float(i + 1) for i in range(len(weights))]
    silent = make(dict.fromkeys(weights))
    run(silent, 0)
    assert silent.losses == []


def _point(shape, seed):
    """A point initializer: fixed small weights, no distribution."""
    return Tensor(np.linspace(-0.3, 0.3, int(np.prod(shape))).reshape(shape))


# every weight of each layer point-initialized, with its rank of input
POINT_WEIGHTS = {
    "conv2d": (lambda: VariationalConv2D(
        2, kernel_size=2, kernel_initializer=_point,
        bias_initializer=_point), (1, 3, 3, 2), ("kernel", "bias")),
    "lstm": (lambda: VariationalLSTMCell(
        3, kernel_initializer=_point, recurrent_initializer=_point,
        bias_initializer=_point), (2, 3, 2), ("kernel", "recurrent", "bias")),
    "rff": (lambda: RandomFourierFeatures(3, 5, kernel_initializer=_point),
            (4, 2), ("readout",)),
}


@pytest.mark.parametrize("name", sorted(POINT_WEIGHTS))
def test_point_initialized_weights_append_no_loss(name):
    make, shape, weights = POINT_WEIGHTS[name]
    layer = make()
    x = Tensor(np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape))
    first = as_tensor(layer(x, seed=0)).data
    assert layer.losses == []
    # each weight is the one parameter of its name, used as it is
    names = set(layer.trainable_variables())
    assert set(weights) <= names
    assert not any(n.endswith(("_mu", "_rho")) for n in names)
    assert as_tensor(layer(x, seed=1)).data.tobytes() == first.tobytes()
    assert layer.losses == []


def test_flipout_rejects_a_point_kernel():
    layer = FlipoutDense(2, kernel_initializer=_point)
    with pytest.raises(TypeError, match="FlipoutDense needs a distribution "
                       "kernel initializer"):
        layer(Tensor(np.zeros((3, 2))), seed=0)
    assert not layer.built
    assert layer.state_dict() == {}

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""
import csv
import io
import math
import time

import numpy as np

from uncertain import layers
from uncertain.checkpoint import load_checkpoint, save_checkpoint
from uncertain.cli import gaussian_likelihood, main as cli_main
from uncertain.data import toy_regression
from uncertain.distributions import (
    DiscretizedLogisticMixture,
    Logistic,
    Normal,
    kl_divergence,
)
from uncertain.rng import mix
from uncertain.tensor import Tape, Tensor, as_tensor, conv2d, tensor_mean
from uncertain.training import ElboConfig, fit

from conftest import finite_diff_grad, max_rel_err
from test_gp import se_oracle, set_sparse_state, sparse_optimum
from test_variational import lstm_oracle_step


def report(number, label, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient suite over every layer type
# ---------------------------------------------------------------------------

def _fd_worst(layer, loss_fn, h=1e-5):
    params = layer.trainable_variables()
    with Tape() as tape:
        for p in params.values():
            tape.watch(p)
        grads = tape.backward(loss_fn())
    worst = 0.0
    for p in params.values():
        base = p.data.copy()

        def f(values):
            p.data[...] = values
            out = loss_fn().item()
            p.data[...] = base
            return out

        numeric = finite_diff_grad(f, base, h=h)
        grad_t = grads.get(p.node_id)
        analytic = grad_t.data if grad_t is not None else np.zeros(p.shape)
        # relative to the FD value with a floor for near-zero entries
        worst = max(worst, max_rel_err(analytic, numeric, floor=1e-3))
    return worst


def _mse_plus_kl(layer, x, y, seed):
    def loss_fn():
        out = as_tensor(layer(Tensor(x), seed=seed))
        err = out - Tensor(y)
        loss = tensor_mean(err * err)
        for kl in layer.losses:
            loss = loss + 0.1 * kl
        return loss

    return loss_fn


def _nll(layer, x, y, seed):
    def loss_fn():
        rv = layer(Tensor(x), seed=seed)
        return -tensor_mean(rv.log_prob(Tensor(y)))

    return loss_fn


def _case_dense(rng, seed):
    layer = layers.Dense(3, "tanh")
    x = rng.uniform(-1, 1, (4, 2))
    layer(Tensor(x), seed=seed)
    return layer, _mse_plus_kl(layer, x, rng.normal(size=(4, 3)), seed)


def _case_variational_dense(rng, seed):
    layer = layers.VariationalDense(3, "tanh")
    x = rng.uniform(-1, 1, (4, 2))
    layer(Tensor(x), seed=seed)
    return layer, _mse_plus_kl(layer, x, rng.normal(size=(4, 3)), seed)


def _case_flipout(rng, seed):
    layer = layers.FlipoutDense(3)
    x = rng.uniform(-1, 1, (4, 2))
    layer(Tensor(x), seed=seed)
    return layer, _mse_plus_kl(layer, x, rng.normal(size=(4, 3)), seed)


def _case_conv(rng, seed):
    layer = layers.VariationalConv2D(2, kernel_size=2, padding="valid")
    x = rng.uniform(-1, 1, (1, 3, 3, 2))
    layer(Tensor(x), seed=seed)
    return layer, _mse_plus_kl(layer, x, rng.normal(size=(1, 2, 2, 2)), seed)


def _case_lstm(rng, seed):
    cell = layers.VariationalLSTMCell(2)
    xs = rng.uniform(-1, 1, (2, 3, 2))
    cell(Tensor(xs), seed=seed)
    return cell, _mse_plus_kl(cell, xs, rng.normal(size=(2, 3, 2)), seed)


def _case_exact_gp(rng, seed):
    layer = layers.GaussianProcess(
        1, conditional_inputs=rng.uniform(-1, 1, (4, 1)),
        conditional_outputs=rng.normal(size=(4, 1)),
        observation_noise=0.2, lengthscale=0.7, train_noise=True)
    x = rng.uniform(-1, 1, (3, 1))

    def loss_fn():
        rv = layer(Tensor(x), seed=seed)
        return tensor_mean(rv.value * rv.value)

    return layer, loss_fn


def _case_sparse_gp(rng, seed):
    layer = layers.SparseGaussianProcess(1, num_inducing=3, lengthscale=0.8)
    x = np.linspace(-1, 1, 4)[:, None] + 0.05 * rng.standard_normal((4, 1))
    layer(Tensor(x), seed=seed)
    layer.inducing_mean.data[...] += 0.4 * rng.standard_normal((3, 1))

    def loss_fn():
        rv = layer(Tensor(x), seed=seed)
        loss = tensor_mean(rv.value * rv.value)
        for kl in layer.losses:
            loss = loss + 0.1 * kl
        return loss

    return layer, loss_fn


def _case_rff(rng, seed):
    layer = layers.RandomFourierFeatures(2, num_features=8)
    x = rng.uniform(-1, 1, (4, 2))
    layer(Tensor(x), seed=seed)
    return layer, _mse_plus_kl(layer, x, rng.normal(size=(4, 2)), seed)


def _case_normal_head(rng, seed):
    layer = layers.NormalOutput(units=2)
    x = rng.uniform(-1, 1, (3, 4))
    layer(Tensor(x), seed=seed)
    return layer, _nll(layer, x, rng.normal(size=(3, 2)), seed)


def _case_categorical_head(rng, seed):
    layer = layers.CategoricalOutput(units=3)
    x = rng.uniform(-1, 1, (4, 2))
    labels = rng.integers(0, 3, 4).astype(np.float64)
    layer(Tensor(x), seed=seed)
    return layer, _nll(layer, x, labels, seed)


def _case_mixture_head(rng, seed):
    layer = layers.MixtureLogisticOutput(units=1, num_components=2)
    x = rng.uniform(-1, 1, (3, 4))
    targets = rng.integers(1, 255, (3, 1)).astype(np.float64)
    layer(Tensor(x), seed=seed)
    return layer, _nll(layer, x, targets, seed)


def _case_made(rng, seed):
    layer = layers.MADE(3, hidden_sizes=(6,))
    for p in layer._params.values():
        p.data[...] = 0.3 * rng.standard_normal(p.shape)
    x = rng.uniform(-1, 1, (4, 3))
    y = rng.normal(size=(4, 3))

    def loss_fn():
        shift, raw_scale = layer(Tensor(x), seed=seed)
        err = shift + raw_scale - Tensor(y)
        return tensor_mean(err * err)

    return layer, loss_fn


def _case_coupling(rng, seed):
    conditioner = layers.MADE(4, hidden_sizes=(6,))
    for p in conditioner._params.values():
        p.data[...] = 0.3 * rng.standard_normal(p.shape)
    layer = layers.CouplingLayer(layers.alternating_mask(4), conditioner)
    x = rng.uniform(-1, 1, (4, 4))
    y = rng.normal(size=(4, 4))

    def loss_fn():
        out = layer(Tensor(x), seed=seed)
        err = out - Tensor(y)
        return (tensor_mean(err * err)
                - 0.1 * tensor_mean(layer.log_det_jacobian(Tensor(x))))

    return layer, loss_fn


def _case_flow_log_prob(rng, seed):
    # differentiates through inverse_and_log_det: the inverse and the log-det
    # adjoints meet in one conditioner pass per coupling
    flow = layers.Sequential([
        layers.CouplingLayer(layers.alternating_mask(3, parity=i),
                             layers.MADE(3, hidden_sizes=(6,)))
        for i in range(2)
    ])
    for p in flow.trainable_variables().values():
        p.data[...] = 0.3 * rng.standard_normal(p.shape)
    base = Normal(np.zeros(3), np.ones(3))
    x = rng.normal(size=(4, 3))

    def loss_fn():
        return -tensor_mean(flow(base, seed=seed).log_prob(Tensor(x)))

    return flow, loss_fn


_GRADIENT_CASES = [
    ("dense", _case_dense),
    ("variational_dense", _case_variational_dense),
    ("flipout_dense", _case_flipout),
    ("variational_conv2d", _case_conv),
    ("variational_lstm_cell", _case_lstm),
    ("gaussian_process", _case_exact_gp),
    ("sparse_gaussian_process", _case_sparse_gp),
    ("random_fourier_features", _case_rff),
    ("normal_output", _case_normal_head),
    ("categorical_output", _case_categorical_head),
    ("mixture_logistic_output", _case_mixture_head),
    ("made_conditioner", _case_made),
    ("coupling_layer", _case_coupling),
    ("flow_log_prob", _case_flow_log_prob),
]


def test_criterion_01_gradient_suite():
    start = time.time()
    worst = {}
    for name, case in _GRADIENT_CASES:
        worst_case = 0.0
        for seed in range(20):
            rng = np.random.default_rng(mix("grad-suite", name, seed))
            layer, loss_fn = case(rng, seed)
            worst_case = max(worst_case, _fd_worst(layer, loss_fn))
        worst[name] = worst_case
    elapsed = time.time() - start
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < 60.0
    report(1, "gradient suite", ok,
           f"max rel err {peak:.2e} over {len(worst)} layer types x 20 seeds "
           f"in {elapsed:.1f}s (worst: {max(worst, key=worst.get)})")


# ---------------------------------------------------------------------------
# criterion 2: KL closed form vs Monte-Carlo
# ---------------------------------------------------------------------------

def test_criterion_02_kl_oracle():
    worst_sigma = 0.0
    for trial in range(50):
        rng = np.random.default_rng(mix("kl-oracle", trial))
        dim = int(rng.integers(1, 4))
        q = Normal(rng.uniform(-2, 2, dim), np.exp(rng.uniform(-1, 1, dim)))
        p = Normal(rng.uniform(-2, 2, dim), np.exp(rng.uniform(-1, 1, dim)))
        closed = kl_divergence(q, p).item()
        eps = rng.standard_normal((1_000_000, dim))
        draws = q.loc.data + q.scale.data * eps
        diffs = (q.log_prob(Tensor(draws)).data
                 - p.log_prob(Tensor(draws)).data).sum(axis=1)
        se = diffs.std() / math.sqrt(len(diffs))
        worst_sigma = max(worst_sigma, abs(closed - diffs.mean()) / se)
    d = Normal([0.3, -1.2], [0.4, 2.0])
    self_kl = kl_divergence(d, d).item()
    ok = worst_sigma < 3.0 and self_kl == 0.0
    report(2, "KL oracle", ok,
           f"worst |closed - MC| = {worst_sigma:.2f} std errors over 50 "
           f"parameterizations; KL(d||d) = {self_kl}")


# ---------------------------------------------------------------------------
# criterion 3: sigma=0 drop-in equivalence, bit-exact
# ---------------------------------------------------------------------------

def _collapse(layer):
    for name, p in layer._params.items():
        if name.endswith("_rho"):
            p.data[...] = -np.inf


def test_criterion_03_dropin_equivalence():
    rng = np.random.default_rng(30)
    failures = []

    x = rng.normal(size=(5, 3))
    vd = layers.VariationalDense(4, "tanh", kernel_regularizer=None,
                                 bias_regularizer=None)
    vd(Tensor(x), seed=0)
    _collapse(vd)
    dense = layers.Dense(
        4, "tanh",
        kernel_initializer=lambda s, _: Tensor(vd._params["kernel_mu"].data.copy()),
        bias_initializer=lambda s, _: Tensor(vd._params["bias_mu"].data.copy()))
    if not np.array_equal(vd(Tensor(x), seed=3).data,
                          dense(Tensor(x), seed=3).data):
        failures.append("variational_dense")

    fl = layers.FlipoutDense(4, kernel_regularizer=None, bias_regularizer=None)
    fl(Tensor(x), seed=0)
    _collapse(fl)
    want = x @ fl._params["kernel_mu"].data + fl._params["bias_mu"].data
    if not np.array_equal(fl(Tensor(x), seed=5).data, want):
        failures.append("flipout_dense")

    img = rng.normal(size=(2, 4, 4, 2))
    vc = layers.VariationalConv2D(3, kernel_size=3, kernel_regularizer=None,
                                  bias_regularizer=None)
    vc(Tensor(img), seed=0)
    _collapse(vc)
    conv_want = conv2d(Tensor(img), Tensor(vc._params["kernel_mu"].data)).data \
        + vc._params["bias_mu"].data
    if not np.array_equal(vc(Tensor(img), seed=7).data, conv_want):
        failures.append("variational_conv2d")

    cell = layers.VariationalLSTMCell(3, kernel_regularizer=None,
                                      recurrent_regularizer=None,
                                      bias_regularizer=None)
    x_t = rng.normal(size=(4, 2))
    cell(Tensor(x_t[:, None]), seed=0)
    _collapse(cell)
    h, c = cell.step(Tensor(x_t), None, cell.draw(0))
    want_h, want_c = lstm_oracle_step(
        x_t, np.zeros((4, 3)), np.zeros((4, 3)),
        cell._params["kernel_mu"].data, cell._params["recurrent_mu"].data,
        cell._params["bias_mu"].data, 3)
    if not (np.array_equal(h.data, want_h) and np.array_equal(c.data, want_c)):
        failures.append("variational_lstm_cell")

    ok = not failures
    report(3, "drop-in equivalence", ok,
           "bit-exact for variational dense/flipout/conv2d/lstm at sigma=0"
           if ok else f"mismatches: {failures}")


# ---------------------------------------------------------------------------
# criterion 4: sparse GP collapse onto the exact GP
# ---------------------------------------------------------------------------

def test_criterion_04_sparse_gp_collapse():
    amp, ell, noise = 1.1, 0.6, 0.2
    rng = np.random.default_rng(40)
    x_train = np.linspace(-1.0, 1.0, 5)[:, None]
    y_train = np.sin(3.0 * x_train)
    x_test = rng.uniform(-1, 1, (6, 1))
    layer = layers.SparseGaussianProcess(1, num_inducing=5, amplitude=amp,
                                         lengthscale=ell)
    layer(Tensor(x_train), seed=0)
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
    mean_err = np.abs(rv.distribution.mean.data[:, 0] - want_mean[:, 0]).max()
    var_err = np.abs(rv.distribution.stddev.data[:, 0]**2 - want_var).max()
    ok = mean_err < 1e-6 and var_err < 1e-6
    report(4, "sparse-GP collapse", ok,
           f"mean err {mean_err:.2e}, variance err {var_err:.2e} vs "
           "direct-solve oracle at the optimal variational state")


# ---------------------------------------------------------------------------
# criterion 5: random-feature kernel approximation converges
# ---------------------------------------------------------------------------

def _rff_error(num_features, num_pairs=100):
    rng = np.random.default_rng(mix("rff", num_features))
    layer = layers.RandomFourierFeatures(1, num_features=num_features)
    x = rng.normal(size=(2 * num_pairs, 2))
    layer(Tensor(x), seed=5)
    phi = layer.features(Tensor(x)).data
    exact = se_oracle(x, x)
    approx = phi @ phi.T
    left = np.arange(num_pairs)
    return np.abs(approx[left, num_pairs + left]
                  - exact[left, num_pairs + left]).max()


def test_criterion_05_rff_convergence():
    errors = {d: _rff_error(d) for d in (100, 1000, 10_000)}
    ok = (errors[100] > errors[1000] > errors[10_000]
          and errors[10_000] < 0.05)
    report(5, "RFF convergence", ok,
           "max |phi phi^T - k| over 100 pairs: "
           + ", ".join(f"D={d}: {e:.4f}" for d, e in errors.items()))


# ---------------------------------------------------------------------------
# criterion 6: flow suite
# ---------------------------------------------------------------------------

def _random_flow_coupling(dims, seed, parity=0, weight_scale=0.3):
    rng = np.random.default_rng(seed)
    conditioner = layers.MADE(dims, hidden_sizes=(16,))
    for p in conditioner._params.values():
        p.data[...] = weight_scale * rng.standard_normal(p.shape)
    return layers.CouplingLayer(layers.alternating_mask(dims, parity),
                                conditioner)


def test_criterion_06_flow_suite():
    worst_rt = 0.0
    worst_ldj = 0.0
    for dims in (2, 4, 6):
        layer = _random_flow_coupling(dims, seed=mix("flow", dims))
        rng = np.random.default_rng(dims)
        x = rng.normal(size=(32, dims))
        back = layer.reverse(layer(Tensor(x), seed=0))
        worst_rt = max(worst_rt, np.abs(back.data - x.data).max())
        x0 = rng.normal(size=(dims,))
        jac = np.zeros((dims, dims))
        h = 1e-6
        for j in range(dims):
            e = np.zeros(dims)
            e[j] = h
            up = layer(Tensor((x0 + e)[None, :]), seed=0).data[0]
            dn = layer(Tensor((x0 - e)[None, :]), seed=0).data[0]
            jac[:, j] = (up - dn) / (2 * h)
        want = math.log(abs(np.linalg.det(jac)))
        got = layer.log_det_jacobian(Tensor(x0[None, :])).data[0]
        worst_ldj = max(worst_ldj, abs(got - want))

    flow = layers.Sequential([
        _random_flow_coupling(2, seed=60, parity=0, weight_scale=0.1),
        _random_flow_coupling(2, seed=61, parity=1, weight_scale=0.1),
        _random_flow_coupling(2, seed=62, parity=0, weight_scale=0.1),
    ])
    base = Normal(np.zeros(2), np.ones(2))
    out = flow(base.sample(seed=0), seed=0)
    span = np.linspace(-8.0, 8.0, 200)
    cell = span[1] - span[0]
    xx, yy = np.meshgrid(span, span)
    pts = Tensor(np.stack([xx.ravel(), yy.ravel()], axis=1))
    integral = float(np.exp(out.log_prob(pts).data).sum() * cell * cell)
    ok = worst_rt < 1e-8 and worst_ldj < 1e-5 and abs(integral - 1.0) < 1e-2
    report(6, "flow suite", ok,
           f"round-trip {worst_rt:.1e}, log-det err {worst_ldj:.1e}, "
           f"200x200 grid integral {integral:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: discretized likelihoods
# ---------------------------------------------------------------------------

def test_criterion_07_discretized_likelihoods():
    worst_total = 0.0
    for draw in range(100):
        rng = np.random.default_rng(mix("dlm", draw))
        k = int(rng.integers(1, 6))
        dist = DiscretizedLogisticMixture(
            logits=rng.normal(size=k),
            means=rng.uniform(-1, 1, k),
            log_scales=rng.uniform(-4, 0, k))
        mass = np.exp(dist.log_prob(Tensor(np.arange(256.0))).data)
        worst_total = max(worst_total, abs(float(mass.sum()) - 1.0))

    mu_tilde, log_s = 0.35, -2.2
    mixture = DiscretizedLogisticMixture([0.0], [mu_tilde], [log_s])
    base = Logistic(127.5 * (mu_tilde + 1.0), 127.5 * math.exp(log_s))
    out = layers.Discretize(0, 255)(base.sample(seed=0))
    bins = Tensor(np.arange(256.0))
    mixture_lp = mixture.log_prob(bins).data
    assert np.exp(mixture_lp).min() > 1e-11  # clear of the stability clamp
    cross_err = np.abs(out.log_prob(bins).data - mixture_lp).max()
    ok = worst_total < 1e-6 and cross_err < 1e-10
    report(7, "discretized likelihoods", ok,
           f"worst |sum pmf - 1| = {worst_total:.1e} over 100 draws; "
           f"cross-implementation gap {cross_err:.1e}")


# ---------------------------------------------------------------------------
# criterion 8: conjugate recovery by ELBO training
# ---------------------------------------------------------------------------

def test_criterion_08_conjugate_recovery():
    start = time.time()
    rng = np.random.default_rng(3)
    n, sigma = 48, 0.3
    x = rng.uniform(-1, 1, (n, 1))
    y = 1.3 * x - 0.4 + sigma * rng.standard_normal((n, 1))
    phi = np.concatenate([x, np.ones_like(x)], axis=1)
    precision = np.eye(2) + phi.T @ phi / sigma**2
    post_mean = np.linalg.solve(precision, phi.T @ y / sigma**2).ravel()

    model = layers.VariationalDense(1)
    likelihood = gaussian_likelihood(sigma)
    iterates = []

    def record(step, loss, kl):  # called after each Adam update
        iterates.append((model._params["kernel_mu"].data[0, 0],
                         model._params["bias_mu"].data[0]))

    total_steps = 0
    for lr, steps, mc in ((0.02, 2000, 1), (0.001, 2000, 4)):
        cfg = ElboConfig(num_train_examples=n, batch_size=n, learning_rate=lr,
                         max_steps=steps, seed=0, mc_samples=mc)
        fit(model, x, y, cfg, likelihood=likelihood, log_fn=record)
        total_steps += steps
    # the mean of the fine phase's last 1,000 iterates: any single iterate
    # keeps a Monte-Carlo jitter of the order of the bound
    got = np.mean(iterates[-1000:], axis=0)
    mean_err = np.abs(got - post_mean).max()
    grid = np.linspace(-1, 1, 21)[:, None]
    predictive = got[0] * grid[:, 0] + got[1]
    analytic = np.concatenate([grid, np.ones_like(grid)], axis=1) @ post_mean
    pred_err = np.abs(predictive - analytic).max()
    elapsed = time.time() - start
    ok = (mean_err < 1e-2 and pred_err < 1e-2 and total_steps <= 5000
          and elapsed < 30.0)
    report(8, "conjugate recovery", ok,
           f"posterior-mean err {mean_err:.4f}, predictive-mean err "
           f"{pred_err:.4f} after {total_steps} Adam steps in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: epistemic uncertainty grows away from the data (via the CLI)
# ---------------------------------------------------------------------------

def test_criterion_09_epistemic_uncertainty(tmp_path, capsys):
    wins = 0
    for seed in range(10):
        ckpt = tmp_path / f"bnn{seed}.ckpt"
        code = cli_main(["train-bnn", "--steps", "800", "--seed", str(seed),
                         "--checkpoint", str(ckpt)])
        assert code == 0
        code = cli_main(["predict", "--task", "bnn", "--seed", str(seed),
                         "--checkpoint", str(ckpt), "--grid=-3:3:7",
                         "--mc-samples", "100"])
        assert code == 0
        out = capsys.readouterr().out
        table = out[out.index("x,mean,stddev"):]
        rows = {float(r["x"]): float(r["stddev"])
                for r in csv.DictReader(io.StringIO(table))}
        if rows[-3.0] > rows[0.0] and rows[3.0] > rows[0.0]:
            wins += 1
    ok = wins >= 8
    with capsys.disabled():
        report(9, "epistemic uncertainty", ok,
               f"stddev(+-3) > stddev(0) for {wins}/10 seeds")


# ---------------------------------------------------------------------------
# criterion 10: Flipout matches marginals and reduces gradient variance
# ---------------------------------------------------------------------------

def test_criterion_10_flipout():
    rng = np.random.default_rng(100)
    batch, d_in, units = 32, 3, 4
    x = rng.normal(size=(batch, d_in))
    flip = layers.FlipoutDense(units)
    rep = layers.VariationalDense(units)
    flip(Tensor(x), seed=0)
    rep(Tensor(x), seed=0)
    state = {n: p.data.copy() for n, p in flip._params.items()}
    for n, p in rep._params.items():
        p.data[...] = state[n]

    # marginal means over 1e5 resamplings per estimator
    reps = 500
    tiled = Tensor(np.tile(x, (reps, 1)))
    rounds = 200
    f_means = np.stack([
        flip(tiled, seed=mix("fm", s)).data.reshape(reps, batch, units).mean(0)
        for s in range(rounds // 2)
    ])
    r_means = np.stack([
        rep(tiled, seed=mix("rm", s)).data.reshape(reps, batch, units).mean(0)
        for s in range(rounds // 2)
    ])
    gap = np.abs(f_means.mean(0) - r_means.mean(0))
    spread = np.sqrt(f_means.std(0)**2 / f_means.shape[0]
                     + r_means.std(0)**2 / r_means.shape[0])
    means_ok = bool(np.all(gap < 4 * spread + 1e-12))

    y = rng.normal(size=(batch, units))

    def grad_draw(layer, seed):
        with Tape() as tape:
            for p in layer._params.values():
                tape.watch(p)
            out = layer(Tensor(x), seed=seed)
            err = out - Tensor(y)
            grads = tape.backward(tensor_mean(err * err))
        return grads[layer._params["kernel_mu"].node_id].data.ravel()

    wins = 0
    trials = 200
    draws_per_trial = 12
    counter = iter(range(10**6))
    for _ in range(trials):
        f = np.stack([grad_draw(flip, mix("fg", next(counter)))
                      for _ in range(draws_per_trial)])
        r = np.stack([grad_draw(rep, mix("rg", next(counter)))
                      for _ in range(draws_per_trial)])
        if f.var(axis=0, ddof=1).sum() <= r.var(axis=0, ddof=1).sum():
            wins += 1
    variance_ok = wins >= int(0.9 * trials)
    ok = means_ok and variance_ok
    report(10, "flipout", ok,
           f"marginal means within 4 SE: {means_ok}; variance wins "
           f"{wins}/{trials} paired trials at batch {batch}")


# ---------------------------------------------------------------------------
# criterion 11: determinism and checkpoint persistence
# ---------------------------------------------------------------------------

def test_criterion_11_determinism_and_persistence(tmp_path):
    def run_trace():
        x, y = toy_regression(32, seed=2)
        model = layers.Sequential([layers.VariationalDense(8, "relu"),
                                   layers.Dense(1)])
        cfg = ElboConfig(num_train_examples=32, batch_size=16,
                         learning_rate=0.02, max_steps=60, seed=11)
        trace = fit(model, x, y, cfg, likelihood=gaussian_likelihood(0.1))
        return trace, model.state_dict()

    first_trace, state = run_trace()
    second_trace, _ = run_trace()
    traces_ok = first_trace == second_trace  # bit-exact float equality

    first_path = tmp_path / "a.ckpt"
    second_path = tmp_path / "b.ckpt"
    save_checkpoint(first_path, state)
    save_checkpoint(second_path, load_checkpoint(first_path))
    bytes_ok = first_path.read_bytes() == second_path.read_bytes()
    ok = traces_ok and bytes_ok
    report(11, "determinism & persistence", ok,
           f"loss traces bit-identical: {traces_ok}; save/load/save "
           f"byte-identical: {bytes_ok}")


# ---------------------------------------------------------------------------
# criterion 12: deep GP trains end to end
# ---------------------------------------------------------------------------

def test_criterion_12_deep_gp():
    decreased = 0
    all_finite = True
    for seed in range(10):
        model = layers.Sequential([
            layers.SparseGaussianProcess(2, num_inducing=4, lengthscale=0.8),
            layers.SparseGaussianProcess(2, num_inducing=4, lengthscale=0.8),
            layers.SparseGaussianProcess(1, num_inducing=4, lengthscale=0.8),
        ])
        x, y = toy_regression(32, seed=seed)
        model(Tensor(x), seed=0)
        cfg = ElboConfig(num_train_examples=32, batch_size=32,
                         learning_rate=0.02, max_steps=80, seed=seed)
        trace = fit(model, x, y, cfg, likelihood=gaussian_likelihood(0.1))
        if trace[-1][1] < trace[0][1]:
            decreased += 1
        if not all(np.isfinite(kl) for _, _, kl in trace):
            all_finite = False
    ok = decreased == 10 and all_finite
    report(12, "deep GP end-to-end", ok,
           f"final loss < initial loss for {decreased}/10 seeds; "
           f"KL losses finite throughout: {all_finite}")

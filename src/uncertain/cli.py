"""Command-line surface: desk-scale training demos, prediction, sampling.

Subcommands: train-bnn, train-deep-gp, train-flow, train-lstm, predict,
sample.  Every run is reproducible from (--config, --seed); per-step loss
lines go to stdout as ``step=<k> loss=<v> kl=<v>``.  Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import layers
from .checkpoint import load_checkpoint, save_checkpoint
from .data import load_csv, one_hot, toy_flow_data, toy_regression, toy_sequences
from .distributions import Normal
from .errors import ConfigError, UncertainError
from .rng import mix, rng_from
from .tensor import Tensor, as_tensor, matmul, reshape
from .training import ElboConfig, config_get, fit, parse_config

_FMT = "%.17g"


def _print_step(step, loss, kl):
    print(f"step={step} loss={_FMT % loss} kl={_FMT % kl}")


def _resolve(args, cfg, key, cast, default):
    """Flag beats config file beats default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    return config_get(cfg, key, cast, default)


# every key a subcommand reads through _resolve or config_get
_CONFIG_KEYS = frozenset({
    "batch_size", "conditioner_hidden", "data_noise", "features", "hidden",
    "hidden_units", "kl_scale", "learning_rate", "mc_samples",
    "num_couplings", "num_examples", "num_inducing", "obs_noise", "seed",
    "seq_len", "steps", "targets", "units", "vocab",
})


class UsageError(ConfigError):
    """A config key that no subcommand reads, or a model size that a layer
    rejects: a usage error (exit 2)."""


def _load_config(args):
    if not args.config:
        return {}
    values = parse_config(args.config)
    for key in values:
        if key not in _CONFIG_KEYS:
            raise UsageError(
                f"{args.config}: unknown config key {key!r}; known keys: "
                f"{', '.join(sorted(_CONFIG_KEYS))}"
            )
    return values


def _elbo_config(args, cfg, n, defaults):
    return ElboConfig(
        num_train_examples=n,
        batch_size=min(_resolve(args, cfg, "batch_size", int,
                                defaults.get("batch_size", 32)), n),
        learning_rate=_resolve(args, cfg, "learning_rate", float,
                               defaults.get("learning_rate", 1e-2)),
        max_steps=_resolve(args, cfg, "steps", int, defaults.get("steps", 1000)),
        mc_samples=_resolve(args, cfg, "mc_samples", int, 1),
        kl_scale=config_get(cfg, "kl_scale", str, "one_over_N"),
        seed=_resolve(args, cfg, "seed", int, 0),
    )


def _regression_data(args, cfg):
    if args.data:
        feature_cols = _resolve(args, cfg, "features", str, "x").split(",")
        target_cols = _resolve(args, cfg, "targets", str, "y").split(",")
        ds = load_csv(args.data, feature_cols, target_cols)
        return ds.features, ds.targets
    n = config_get(cfg, "num_examples", int, 64)
    noise = config_get(cfg, "data_noise", float, 0.05)
    seed = _resolve(args, cfg, "seed", int, 0)
    return toy_regression(n, seed, noise)


# ---------------------------------------------------------------------------
# model builders (shared by train / predict / sample)
# ---------------------------------------------------------------------------

def _model_builder(build):
    """Turn the ``ValueError`` of a layer constructor that rejects a size,
    such as ``--hidden 0``, into a :class:`UsageError` naming the builder
    and its arguments."""

    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            call = ", ".join([repr(a) for a in args]
                             + [f"{k}={v!r}" for k, v in kwargs.items()])
            raise UsageError(f"{build.__name__}({call}): {exc}") from exc

    return wrapper


@_model_builder
def build_bnn(hidden):
    # relu hiddens: slope uncertainty keeps growing with |x|, so the bands
    # widen away from the data (saturating activations would pinch them)
    layers.reset_layer_indices()
    return layers.Sequential([
        layers.VariationalDense(hidden, "relu"),
        layers.VariationalDense(hidden, "relu"),
        layers.Dense(1),
    ])


def copy_columns_mean(units):
    """Fixed linear mean x @ W with W[j mod d_in, j] = 1: output column j
    copies input column j mod d_in.

    Inner layers of a deep GP use it so that each layer starts near the
    identity map and learns a residual (Salimbeni & Deisenroth 2017,
    arXiv:1705.08933); W holds no trainable state.
    """

    def mean_fn(x):
        d_in = x.shape[-1]
        w = np.zeros((d_in, units))
        w[np.arange(units) % d_in, np.arange(units)] = 1.0
        return matmul(x, Tensor(w))

    return mean_fn


@_model_builder
def build_deep_gp(hidden_units, num_inducing):
    layers.reset_layer_indices()
    inner_mean = copy_columns_mean(hidden_units)
    return layers.Sequential([
        layers.SparseGaussianProcess(hidden_units, num_inducing,
                                     mean_fn=inner_mean),
        layers.SparseGaussianProcess(hidden_units, num_inducing,
                                     mean_fn=inner_mean),
        layers.SparseGaussianProcess(1, num_inducing),
    ])


@_model_builder
def build_flow(num_couplings, hidden, dims=2):
    layers.reset_layer_indices()
    couplings = [
        layers.CouplingLayer(
            layers.alternating_mask(dims, parity=i % 2),
            layers.MADE(dims, hidden_sizes=(hidden,)),
        )
        for i in range(num_couplings)
    ]
    return layers.Sequential(couplings)


class SequenceModel(layers.Layer):
    """Bayesian LSTM over one-hot tokens with a categorical output head.

    The output projection stays deterministic; the recurrence carries the
    weight uncertainty.
    """

    def __init__(self, units, vocab):
        super().__init__()
        self.units = units
        self.vocab = vocab
        self.cell = self.add_child("cell", layers.VariationalLSTMCell(units))
        self.head = self.add_child("head",
                                   layers.CategoricalOutput(units=vocab))

    def call(self, x, seed):
        x = as_tensor(x)
        states, _ = layers.unroll(self.cell, x, seed)
        batch, steps, units = states.shape
        flat = reshape(states, (batch * steps, units))
        return self.head(flat, seed=seed)


@_model_builder
def build_lstm(units, vocab):
    layers.reset_layer_indices()
    return SequenceModel(units, vocab)


def gaussian_likelihood(noise):
    def likelihood(out, y):
        return Normal(as_tensor(out), noise).log_prob(y)

    return likelihood


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_train_bnn(args):
    cfg_file = _load_config(args)
    x, y = _regression_data(args, cfg_file)
    cfg = _elbo_config(args, cfg_file, x.shape[0],
                       {"steps": 1500, "learning_rate": 0.02, "batch_size": 32})
    hidden = _resolve(args, cfg_file, "hidden", int, 16)
    noise = config_get(cfg_file, "obs_noise", float, 0.1)
    model = build_bnn(hidden)
    fit(model, x, y, cfg, likelihood=gaussian_likelihood(noise),
        log_fn=_print_step)
    save_checkpoint(args.checkpoint, model.state_dict())
    return 0


def run_train_deep_gp(args):
    cfg_file = _load_config(args)
    x, y = _regression_data(args, cfg_file)
    cfg = _elbo_config(args, cfg_file, x.shape[0],
                       {"steps": 300, "learning_rate": 0.02, "batch_size": 32})
    hidden_units = _resolve(args, cfg_file, "hidden_units", int, 4)
    num_inducing = _resolve(args, cfg_file, "num_inducing", int, 8)
    noise = config_get(cfg_file, "obs_noise", float, 0.1)
    model = build_deep_gp(hidden_units, num_inducing)
    model(Tensor(x), seed=mix(cfg.seed, "build"))  # places inducing inputs
    fit(model, x, y, cfg, likelihood=gaussian_likelihood(noise),
        log_fn=_print_step)
    save_checkpoint(args.checkpoint, model.state_dict())
    return 0


def run_train_flow(args):
    cfg_file = _load_config(args)
    if args.data:
        cols = _resolve(args, cfg_file, "features", str, "x0,x1").split(",")
        data = load_csv(args.data, cols, cols).features  # density: data is its own target
    else:
        n = config_get(cfg_file, "num_examples", int, 512)
        data = toy_flow_data(n, _resolve(args, cfg_file, "seed", int, 0))
    cfg = _elbo_config(args, cfg_file, data.shape[0],
                       {"steps": 400, "learning_rate": 0.005, "batch_size": 128})
    num_couplings = _resolve(args, cfg_file, "num_couplings", int, 4)
    hidden = _resolve(args, cfg_file, "conditioner_hidden", int, 32)
    model = build_flow(num_couplings, hidden, dims=data.shape[1])
    base = Normal(np.zeros(data.shape[1]), np.ones(data.shape[1]))
    fit(model, data, data, cfg, batch_fn=lambda _bx, _step: base,
        log_fn=_print_step)
    save_checkpoint(args.checkpoint, model.state_dict())
    return 0


def run_train_lstm(args):
    cfg_file = _load_config(args)
    vocab = _resolve(args, cfg_file, "vocab", int, 8)
    seq_len = _resolve(args, cfg_file, "seq_len", int, 12)
    n = config_get(cfg_file, "num_examples", int, 128)
    seed = _resolve(args, cfg_file, "seed", int, 0)
    tokens = toy_sequences(n, seq_len, vocab, seed)
    # teacher forcing: the input at step t is the observed token t
    inputs = one_hot(tokens[:, :-1], vocab)
    targets = tokens[:, 1:].reshape(n, -1)
    cfg = _elbo_config(args, cfg_file, n,
                       {"steps": 300, "learning_rate": 0.05, "batch_size": 16})
    units = _resolve(args, cfg_file, "units", int, 16)
    model = build_lstm(units, vocab)

    def likelihood(out, y):
        return out.log_prob(reshape(y, (-1,)))

    fit(model, inputs, targets, cfg, likelihood=likelihood,
        log_fn=_print_step)
    save_checkpoint(args.checkpoint, model.state_dict())
    return 0


def _rebuild_for_predict(args, cfg_file):
    task = args.task
    seed = _resolve(args, cfg_file, "seed", int, 0)
    x, _ = _regression_data(args, cfg_file)
    if task == "bnn":
        model = build_bnn(_resolve(args, cfg_file, "hidden", int, 16))
    elif task == "deep-gp":
        model = build_deep_gp(
            _resolve(args, cfg_file, "hidden_units", int, 4),
            _resolve(args, cfg_file, "num_inducing", int, 8))
    else:
        raise UncertainError(f"predict does not support task {task!r}")
    model(Tensor(x[:1]), seed=mix(seed, "build"))
    model.load_state_dict(load_checkpoint(args.checkpoint))
    return model, seed


def run_predict(args):
    cfg_file = _load_config(args)
    model, seed = _rebuild_for_predict(args, cfg_file)
    lo, hi, count = args.grid
    grid = np.linspace(lo, hi, int(count))[:, None]
    # one call draws every sample: sample s is the call with seed seeds[s]
    seeds = [mix(seed, "predict", s) for s in range(args.mc_samples)]
    draws = as_tensor(model(Tensor(grid), seed=seeds)).data[:, :, 0]
    mean = draws.mean(axis=0)
    std = draws.std(axis=0)
    print("x,mean,stddev")
    for i in range(grid.shape[0]):
        print(f"{_FMT % grid[i, 0]},{_FMT % mean[i]},{_FMT % std[i]}")
    return 0


def run_sample(args):
    cfg_file = _load_config(args)
    seed = _resolve(args, cfg_file, "seed", int, 0)
    if args.task == "flow":
        num_couplings = _resolve(args, cfg_file, "num_couplings", int, 4)
        hidden = _resolve(args, cfg_file, "conditioner_hidden", int, 32)
        model = build_flow(num_couplings, hidden)
        model.load_state_dict(load_checkpoint(args.checkpoint))
        base = Normal(np.zeros(2), np.ones(2))
        print("x0,x1")
        for s in range(args.num):
            rv = base.sample(mix(seed, "sample", s))
            out = as_tensor(model(rv, seed=0)).data
            print(f"{_FMT % out[0]},{_FMT % out[1]}")
        return 0
    if args.task == "lstm":
        vocab = _resolve(args, cfg_file, "vocab", int, 8)
        units = _resolve(args, cfg_file, "units", int, 16)
        seq_len = _resolve(args, cfg_file, "seq_len", int, 12)
        model = build_lstm(units, vocab)
        dummy = np.zeros((1, seq_len - 1, vocab))
        model(Tensor(dummy), seed=mix(seed, "build"))
        model.load_state_dict(load_checkpoint(args.checkpoint))
        for s in range(args.num):
            rng = rng_from(seed, "sample", s)
            model.cell.start_sequence(vocab, mix(seed, "sample-weights", s))
            state = model.cell.init_state(1)
            token = int(rng.integers(0, vocab))
            sequence = [token]
            for _ in range(seq_len - 1):
                x_t = Tensor(one_hot(np.array([token]), vocab))
                h, c = model.cell(x_t, state)
                state = (h, c)
                rv = model.head(h, seed=int(rng.integers(0, 2**62)))
                token = int(rv.value.data[0])
                sequence.append(token)
            print(",".join(str(t) for t in sequence))
        return 0
    raise UncertainError(f"sample does not support task {args.task!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _grid(text):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be lo:hi:count, got {text!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"grid count must be >= 1, got {count}")
    return lo, hi, count


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(sub):
    sub.add_argument("--config", help="config file of 'key = value' lines")
    sub.add_argument("--data", help="CSV dataset (defaults to synthetic toy data)")
    sub.add_argument("--checkpoint", default="model.ckpt",
                     help="checkpoint path (default %(default)s)")
    sub.add_argument("--seed", type=int, help="global seed (default 0)")
    sub.add_argument("--steps", type=int, help="training steps")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uncertain",
        description="Train and query the uncertainty-aware demo models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-bnn", help="Bayesian net on 1-D regression")
    _add_common(p)
    p.add_argument("--hidden", type=int, help="hidden units per layer")
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.set_defaults(func=run_train_bnn)

    p = sub.add_parser("train-deep-gp", help="three sparse GP layers stacked")
    _add_common(p)
    p.add_argument("--hidden-units", dest="hidden_units", type=int)
    p.add_argument("--num-inducing", dest="num_inducing", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.set_defaults(func=run_train_deep_gp)

    p = sub.add_parser("train-flow", help="coupling flow density estimation")
    _add_common(p)
    p.add_argument("--num-couplings", dest="num_couplings", type=int)
    p.add_argument("--conditioner-hidden", dest="conditioner_hidden", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.set_defaults(func=run_train_flow)

    p = sub.add_parser("train-lstm", help="Bayesian LSTM on token sequences")
    _add_common(p)
    p.add_argument("--units", type=int)
    p.add_argument("--vocab", type=int)
    p.add_argument("--seq-len", dest="seq_len", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.set_defaults(func=run_train_lstm)

    p = sub.add_parser("predict", help="mean and stddev bands on a grid")
    _add_common(p)
    p.add_argument("--task", choices=("bnn", "deep-gp"), default="bnn")
    p.add_argument("--grid", type=_grid, default=(-3.0, 3.0, 61),
                   help="lo:hi:count (default -3:3:61)")
    p.add_argument("--mc-samples", dest="mc_samples", type=_positive_int,
                   default=100)
    p.add_argument("--hidden", type=int)
    p.add_argument("--hidden-units", dest="hidden_units", type=int)
    p.add_argument("--num-inducing", dest="num_inducing", type=int)
    p.set_defaults(func=run_predict)

    p = sub.add_parser("sample", help="draw from a trained flow or LSTM")
    _add_common(p)
    p.add_argument("--task", choices=("flow", "lstm"), default="flow")
    p.add_argument("--num", type=int, default=16)
    p.add_argument("--num-couplings", dest="num_couplings", type=int)
    p.add_argument("--conditioner-hidden", dest="conditioner_hidden", type=int)
    p.add_argument("--units", type=int)
    p.add_argument("--vocab", type=int)
    p.add_argument("--seq-len", dest="seq_len", type=int)
    p.set_defaults(func=run_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UncertainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

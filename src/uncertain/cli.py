"""Command-line surface: desk-scale training demos, prediction, sampling.

Subcommands: train-bnn, train-deep-gp, train-flow, train-lstm, predict,
sample.  Every run is reproducible from (--config, --seed); per-step loss
lines go to stdout as ``step=<k> loss=<v> kl=<v>``.  Exit codes: 0 success,
1 runtime failure, 2 usage error.

Each demo's model sizes, with their defaults, live in one table, ``_SIZES``.
A size is a config key and a flag of ``train-<demo>``, which :func:`_sizes`
resolves: flag, then config file, then default.  ``predict`` and ``sample``
take no size: :func:`_load_model` reads each from the shape of a checkpoint
entry.
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
from .errors import ConfigError, ShapeError, UncertainError
from .rng import mix, mix_each, rng_from
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


# each demo's model-size keys and their defaults, in builder argument order;
# train-<demo> takes each as a flag, and sample takes seq_len
_SIZES = {
    "bnn": {"hidden": 16},
    "deep-gp": {"hidden_units": 4, "num_inducing": 8},
    "flow": {"num_couplings": 4, "conditioner_hidden": 32},
    "lstm": {"units": 16, "vocab": 8, "seq_len": 12},
}

# every key a subcommand reads through _resolve or config_get
_CONFIG_KEYS = frozenset({
    "batch_size", "data_noise", "features", "kl_scale", "learning_rate",
    "mc_samples", "num_examples", "obs_noise", "seed", "steps", "targets",
}).union(*_SIZES.values())


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


def _sizes(args, cfg, demo):
    """The demo's model sizes as a tuple in ``_SIZES`` order."""
    sizes = {key: _resolve(args, cfg, key, int, default)
             for key, default in _SIZES[demo].items()}
    if sizes.get("seq_len", 2) < 2:  # teacher forcing: an input and a target
        raise UsageError(f"seq_len must be >= 2, got {sizes['seq_len']}")
    return tuple(sizes.values())


def _elbo_config(args, cfg, n, defaults):
    return ElboConfig(
        num_train_examples=n,
        batch_size=min(_resolve(args, cfg, "batch_size", int,
                                defaults["batch_size"]), n),
        learning_rate=_resolve(args, cfg, "learning_rate", float,
                               defaults["learning_rate"]),
        max_steps=_resolve(args, cfg, "steps", int, defaults["steps"]),
        mc_samples=_resolve(args, cfg, "mc_samples", int, 1),
        kl_scale=config_get(cfg, "kl_scale", str, "one_over_N"),
        seed=_resolve(args, cfg, "seed", int, 0),
    )


def _regression_data(args, cfg):
    if args.data:
        feature_cols = _resolve(args, cfg, "features", str, "x").split(",")
        target_cols = _resolve(args, cfg, "targets", str, "y").split(",")
        return load_csv(args.data, feature_cols, target_cols)
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
    # the coupling mask alone keeps the Jacobian triangular, so each
    # conditioner sees every anchored coordinate (RealNVP); MADE's masks
    # would leave an odd coupling's active output unconditioned
    couplings = [
        layers.CouplingLayer(
            layers.alternating_mask(dims, parity=i % 2),
            layers.DenseConditioner(dims, hidden_sizes=(hidden,)),
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
        states = self.cell(x, seed=seed)
        batch, steps, units = states.shape
        flat = reshape(states, (batch * steps, units))
        return self.head(flat, seed=seed)


@_model_builder
def build_lstm(units, vocab):
    return SequenceModel(units, vocab)


def gaussian_likelihood(noise):
    def likelihood(out, y):
        return Normal(as_tensor(out), noise).log_prob(y)

    return likelihood


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _fit_and_save(args, model, x, y, cfg, **fit_kwargs):
    fit(model, x, y, cfg, log_fn=_print_step, **fit_kwargs)
    save_checkpoint(args.checkpoint, model.state_dict())
    return 0


def run_train_bnn(args):
    cfg_file = _load_config(args)
    x, y = _regression_data(args, cfg_file)
    cfg = _elbo_config(args, cfg_file, x.shape[0],
                       {"steps": 1500, "learning_rate": 0.02, "batch_size": 32})
    noise = config_get(cfg_file, "obs_noise", float, 0.1)
    model = build_bnn(*_sizes(args, cfg_file, "bnn"))
    return _fit_and_save(args, model, x, y, cfg,
                         likelihood=gaussian_likelihood(noise))


def run_train_deep_gp(args):
    cfg_file = _load_config(args)
    x, y = _regression_data(args, cfg_file)
    cfg = _elbo_config(args, cfg_file, x.shape[0],
                       {"steps": 300, "learning_rate": 0.02, "batch_size": 32})
    noise = config_get(cfg_file, "obs_noise", float, 0.1)
    model = build_deep_gp(*_sizes(args, cfg_file, "deep-gp"))
    model(Tensor(x), seed=mix(cfg.seed, "build"))  # places inducing inputs
    return _fit_and_save(args, model, x, y, cfg,
                         likelihood=gaussian_likelihood(noise))


def run_train_flow(args):
    cfg_file = _load_config(args)
    if args.data:
        cols = _resolve(args, cfg_file, "features", str, "x0,x1").split(",")
        data, _ = load_csv(args.data, cols, cols)  # density: data is its own target
    else:
        n = config_get(cfg_file, "num_examples", int, 512)
        data = toy_flow_data(n, _resolve(args, cfg_file, "seed", int, 0))
    cfg = _elbo_config(args, cfg_file, data.shape[0],
                       {"steps": 400, "learning_rate": 0.005, "batch_size": 128})
    model = build_flow(*_sizes(args, cfg_file, "flow"), dims=data.shape[1])
    base = Normal(np.zeros(data.shape[1]), np.ones(data.shape[1]))
    return _fit_and_save(args, model, base, data, cfg)


def run_train_lstm(args):
    cfg_file = _load_config(args)
    units, vocab, seq_len = _sizes(args, cfg_file, "lstm")
    model = build_lstm(units, vocab)  # rejects a bad size before data exists
    n = config_get(cfg_file, "num_examples", int, 128)
    seed = _resolve(args, cfg_file, "seed", int, 0)
    tokens = toy_sequences(n, seq_len, vocab, seed)
    # teacher forcing: the input at step t is the observed token t
    inputs = one_hot(tokens[:, :-1], vocab)
    targets = tokens[:, 1:].reshape(n, -1)
    cfg = _elbo_config(args, cfg_file, n,
                       {"steps": 300, "learning_rate": 0.05, "batch_size": 16})

    def likelihood(out, y):
        return out.log_prob(reshape(y, (-1,)))

    return _fit_and_save(args, model, inputs, targets, cfg,
                         likelihood=likelihood)


def _load_model(path, task):
    """The ``task`` model of checkpoint ``path``, its sizes read from entry
    shapes and built on a zero input whose values the loaded state
    overwrites; a missing, unexpected or misshapen entry is an error naming
    the file."""
    state = load_checkpoint(path)

    def shape(name, rank=2):
        if name not in state or state[name].ndim != rank:
            raise UncertainError(f"{path}: holds no {task} model: it has no "
                                 f"{name!r} of rank {rank}")
        return state[name].shape

    try:  # a size the builder rejects is the file's fault, not a usage error
        if task == "bnn":
            model = build_bnn(shape("layer0/kernel_mu")[1])
            model(Tensor(np.zeros((1, 1))), seed=0)
        elif task == "deep-gp":
            model = build_deep_gp(*reversed(shape("layer0/whitened_mean")))
            model(Tensor(np.zeros((1, 1))), seed=0)
        elif task == "flow":  # builds without a call; every flow has a mask
            dims = shape("layer0/mask", 1)[0]  # the trained data's columns
            model = build_flow(sum(name.endswith("/mask") for name in state),
                               shape("layer0/conditioner/w0")[1], dims=dims)
        else:
            vocab = shape("cell/kernel_mu")[0]
            model = build_lstm(shape("cell/recurrent_mu")[0], vocab)
            model(Tensor(np.zeros((1, 1, vocab))), seed=0)
        model.load_state_dict(state)
    except (UsageError, KeyError, ShapeError) as exc:
        raise UncertainError(f"{path}: {exc.args[0]}") from exc
    return model


def run_predict(args):
    seed = _resolve(args, _load_config(args), "seed", int, 0)
    model = _load_model(args.checkpoint, args.task)
    lo, hi, count = args.grid
    grid = np.linspace(lo, hi, int(count))[:, None]
    # one call draws every sample: sample s is the call with seed seeds[s]
    seeds = mix_each(seed, "predict", range(args.mc_samples))
    draws = as_tensor(model(Tensor(grid), seed=seeds)).data[:, :, 0]
    mean = draws.mean(axis=0)
    std = draws.std(axis=0)
    rows = [f"{_FMT % g},{_FMT % m},{_FMT % s}\n"
            for g, m, s in zip(grid[:, 0], mean, std)]
    sys.stdout.write("x,mean,stddev\n" + "".join(rows))
    return 0


def run_sample(args):
    cfg_file = _load_config(args)
    seed = _resolve(args, cfg_file, "seed", int, 0)
    if args.task == "flow":
        model = _load_model(args.checkpoint, "flow")
        dims = model.layers[0].mask.shape[0]
        base = Normal(np.zeros(dims), np.ones(dims))
        rows = [",".join(f"x{i}" for i in range(dims)) + "\n"]
        for s in range(args.num):
            rv = base.sample(mix(seed, "sample", s))
            out = as_tensor(model(rv)).data
            rows.append(",".join(_FMT % value for value in out) + "\n")
        sys.stdout.write("".join(rows))
        return 0
    seq_len = _resolve(args, cfg_file, "seq_len", int,
                       _SIZES["lstm"]["seq_len"])
    if seq_len < 2:  # a generation length no checkpoint entry records
        raise UsageError(f"seq_len must be >= 2, got {seq_len}")
    model = _load_model(args.checkpoint, "lstm")
    rows = []
    for s in range(args.num):
        rng = rng_from(seed, "sample", s)
        weights = model.cell.draw(mix(seed, "sample-weights", s))
        state = None
        token = int(rng.integers(0, model.vocab))
        sequence = [token]
        for _ in range(seq_len - 1):
            x_t = Tensor(one_hot(np.array([token]), model.vocab))
            state = model.cell.step(x_t, state, weights)
            rv = model.head(state[0], seed=int(rng.integers(0, 2**62)))
            token = int(rv.value.data[0])
            sequence.append(token)
        rows.append(",".join(str(t) for t in sequence) + "\n")
    sys.stdout.write("".join(rows))
    return 0


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
    sub.add_argument("--checkpoint", default="model.ckpt",
                     help="checkpoint path (default %(default)s)")
    sub.add_argument("--seed", type=int, help="global seed (default 0)")


def build_parser():
    """A fresh parser for the ``uncertain`` command line."""
    parser = argparse.ArgumentParser(
        prog="uncertain",
        description="Train and query the uncertainty-aware demo models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for demo, help_text in (
            ("bnn", "Bayesian net on 1-D regression"),
            ("deep-gp", "three sparse GP layers stacked"),
            ("flow", "coupling flow density estimation"),
            ("lstm", "Bayesian LSTM on token sequences")):
        p = sub.add_parser(f"train-{demo}", help=help_text)
        _add_common(p)
        p.add_argument("--data",
                       help="CSV dataset (defaults to synthetic toy data)")
        p.add_argument("--steps", type=int, help="training steps")
        for key, default in _SIZES[demo].items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=int,
                           help=f"default {default}")
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--batch-size", dest="batch_size", type=int)

    p = sub.add_parser("predict", help="mean and stddev bands on a grid")
    _add_common(p)
    p.add_argument("--task", choices=("bnn", "deep-gp"), default="bnn")
    p.add_argument("--grid", type=_grid, default=(-3.0, 3.0, 61),
                   help="lo:hi:count (default -3:3:61)")
    p.add_argument("--mc-samples", dest="mc_samples", type=_positive_int,
                   default=100)

    p = sub.add_parser("sample", help="draw from a trained flow or LSTM")
    _add_common(p)
    p.add_argument("--task", choices=("flow", "lstm"), default="flow")
    p.add_argument("--num", type=_positive_int, default=16)
    p.add_argument("--seq-len", dest="seq_len", type=int,
                   help=f"default {_SIZES['lstm']['seq_len']}")

    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None) -> int:
    """Run ``uncertain`` on ``argv`` (default ``sys.argv[1:]``) and return
    its exit code.

    The parser is built on the first call and reused by every later call in
    the process; it holds no function objects, so the subcommand runs the
    ``run_<command>`` function this module holds at call time.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    run = globals()["run_" + args.command.replace("-", "_")]
    try:
        return run(args)
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

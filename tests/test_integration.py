"""End-to-end training smoke tests wiring several modules together."""
import numpy as np

from uncertain.distributions import Normal, kl_divergence
from uncertain.layers import (
    CategoricalOutput,
    Dense,
    Layer,
    NormalOutput,
    VariationalConv2D,
)
from uncertain.rng import mix
from uncertain.tensor import Tensor, as_tensor, relu, reshape, tensor_mean
from uncertain.training import (
    ElboConfig,
    adam_update,
    elbo_step,
    pack_parameters,
)


def make_blob_images(n, seed):
    """6x6 single-channel images: class 0 lights the left half, class 1 the
    right half, plus noise."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    images = 0.1 * rng.standard_normal((n, 6, 6, 1))
    for i, label in enumerate(labels):
        half = slice(0, 3) if label == 0 else slice(3, 6)
        images[i, :, half, 0] += 1.0
    return images, labels.astype(np.float64)


class TinyBayesianCnn(Layer):
    """Variational conv, flatten, dense head with a categorical likelihood."""

    def __init__(self):
        super().__init__()
        self.conv = self.add_child(
            "conv", VariationalConv2D(4, kernel_size=3, stride=2))
        self.head = self.add_child("head", CategoricalOutput(units=2))

    def call(self, x, seed):
        hidden = relu(as_tensor(self.conv(x, seed=seed)))
        flat = reshape(hidden, (hidden.shape[0], -1))
        return self.head(flat, seed=seed)


class TestBayesianCnn:
    def test_classifier_trains_and_carries_kl(self):
        images, labels = make_blob_images(64, seed=0)
        model = TinyBayesianCnn()
        cfg = ElboConfig(num_train_examples=64, batch_size=32,
                         learning_rate=0.02, max_steps=60, seed=0)
        model(Tensor(images[:1]), seed=mix(cfg.seed, "build"))
        params = model.trainable_variables()
        flat = pack_parameters(params)
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        losses = []
        for step in range(cfg.max_steps):
            rng = np.random.default_rng(step)
            idx = rng.integers(0, 64, 32)
            loss, kl, grad = elbo_step(
                model, Tensor(images[idx]), Tensor(labels[idx]), cfg, step,
                params=params)
            adam_update(flat, grad, m, v, step + 1, cfg.learning_rate)
            losses.append(loss.item())
            assert np.isfinite(kl)
        assert np.mean(losses[-10:]) < np.mean(losses[:10])
        assert len(model.losses) == 2  # conv kernel + bias KLs

    def test_trained_model_beats_chance(self):
        images, labels = make_blob_images(64, seed=1)
        model = TinyBayesianCnn()
        cfg = ElboConfig(num_train_examples=64, batch_size=64,
                         learning_rate=0.05, max_steps=80, seed=1)
        model(Tensor(images[:1]), seed=mix(cfg.seed, "build"))
        params = model.trainable_variables()
        flat = pack_parameters(params)
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        for step in range(cfg.max_steps):
            _, _, grad = elbo_step(
                model, Tensor(images), Tensor(labels), cfg, step, params=params)
            adam_update(flat, grad, m, v, step + 1, cfg.learning_rate)
        test_images, test_labels = make_blob_images(64, seed=2)
        rv = model(Tensor(test_images), seed=999)
        logits = (rv.distribution.logits.data
                  if hasattr(rv.distribution, "logits") else None)
        predictions = logits.argmax(axis=1)
        assert (predictions == test_labels).mean() > 0.9


class StochasticAutoencoder(Layer):
    """Dense encoder with a normal output head, dense decoder, analytic KL."""

    def __init__(self, latent=2):
        super().__init__()
        self.encode_hidden = self.add_child("encode_hidden", Dense(16, "tanh"))
        self.encoder = self.add_child("encoder", NormalOutput(units=latent))
        self.decode_hidden = self.add_child("decode_hidden", Dense(16, "tanh"))
        self.decoder = self.add_child("decoder", NormalOutput(units=4))

    def call(self, x, seed):
        code = self.encoder(self.encode_hidden(x, seed=seed), seed=seed)
        # analytic KL of the encoder output against the standard normal prior
        self.add_loss(kl_divergence(code.distribution, Normal(0.0, 1.0)))
        return self.decoder(self.decode_hidden(code, seed=seed), seed=seed)


class TestStochasticAutoencoder:
    def test_reconstruction_improves(self):
        rng = np.random.default_rng(3)
        # 4-d data on a 1-d manifold
        t = rng.uniform(-1, 1, (96, 1))
        data = np.concatenate([t, t**2, -t, 0.5 * t], axis=1)
        data += 0.05 * rng.standard_normal(data.shape)
        model = StochasticAutoencoder()
        cfg = ElboConfig(num_train_examples=96, batch_size=48,
                         learning_rate=0.01, max_steps=150, seed=3,
                         kl_scale=1.0 / 96.0)
        model(Tensor(data[:1]), seed=mix(cfg.seed, "build"))
        params = model.trainable_variables()
        flat = pack_parameters(params)
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        losses = []
        for step in range(cfg.max_steps):
            batch = rng.integers(0, 96, 48)
            x = Tensor(data[batch])
            loss, kl, grad = elbo_step(model, x, x, cfg, step,
                                       params=params)
            adam_update(flat, grad, m, v, step + 1, cfg.learning_rate)
            losses.append(loss.item())
            assert np.isfinite(kl)
        assert np.mean(losses[-15:]) < np.mean(losses[:15])

    def test_encoder_kl_uses_module_formula(self):
        model = StochasticAutoencoder()
        x = Tensor(np.random.default_rng(4).normal(size=(8, 4)))
        model(x, seed=0)
        losses = model.losses
        assert len(losses) == 1
        code = model.encoder(model.encode_hidden(x, seed=0), seed=0)
        direct = kl_divergence(code.distribution, Normal(0.0, 1.0))
        assert losses[0].item() == direct.item()

    def test_reconstruction_likelihood_is_queryable(self):
        model = StochasticAutoencoder()
        x = Tensor(np.random.default_rng(5).normal(size=(8, 4)))
        out = model(x, seed=0)
        lp = tensor_mean(out.log_prob(x))
        assert np.isfinite(lp.item())

"""Dataset ingestion: CSV loading, toy data generators, batch indices."""
from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DataError
from .rng import rng_from


def load_csv(path, feature_cols, target_cols):
    """Read a headered numeric CSV; returns the ``(features, targets)``
    arrays, one column each per named column, in the order named."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for name in list(feature_cols) + list(target_cols):
            if name not in header:
                raise DataError(
                    f"{path}: no column {name!r}; available: {header}"
                )
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{line_no}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=np.float64)
    fidx = [header.index(c) for c in feature_cols]
    tidx = [header.index(c) for c in target_cols]
    return table[:, fidx], table[:, tidx]


# ---------------------------------------------------------------------------
# toy data for the demos
# ---------------------------------------------------------------------------

def toy_regression(n, seed, noise=0.05):
    """1-D regression: y = sin(2 pi x) + noise on x in [-1, 1]."""
    rng = rng_from(seed, "toy-regression")
    x = rng.uniform(-1.0, 1.0, (n, 1))
    y = np.sin(2.0 * math.pi * x) + noise * rng.standard_normal((n, 1))
    return x, y


def toy_flow_data(n, seed):
    """2-D banana: x1 standard normal, x2 curved around it."""
    rng = rng_from(seed, "toy-flow")
    x1 = rng.standard_normal(n)
    x2 = 0.5 * x1 * x1 - 1.0 + 0.3 * rng.standard_normal(n)
    return np.stack([x1, x2], axis=1)


def toy_sequences(n, length, vocab, seed, reset_prob=0.1):
    """Integer sequences walking +1 mod vocab with occasional random resets."""
    rng = rng_from(seed, "toy-sequences")
    out = np.zeros((n, length), dtype=np.int64)
    out[:, 0] = rng.integers(0, vocab, n)
    for t in range(1, length):
        step = (out[:, t - 1] + 1) % vocab
        resets = rng.uniform(size=n) < reset_prob
        out[:, t] = np.where(resets, rng.integers(0, vocab, n), step)
    return out


def one_hot(indices, depth):
    flat = np.asarray(indices, dtype=np.int64)
    out = np.zeros(flat.shape + (depth,))
    np.put_along_axis(out, flat[..., None], 1.0, axis=-1)
    return out


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def batch_indices(num_examples, batch_size, num_steps, seed):
    """Deterministic with-replacement batch index streams, one per step."""
    rng = rng_from(seed, "batches")
    for _ in range(num_steps):
        yield rng.integers(0, num_examples, batch_size)

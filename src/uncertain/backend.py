"""Convolution kernels built on matrix products.

All kernels take float64 arrays: a pre-padded input ``xp`` in NHWC layout
and a kernel in ``(kh, kw, c_in, c_out)`` layout.  One helper views ``xp``
as its ``[b, ho, wo, kh, kw, c_in]`` strided windows without copying.  The
forward pass copies that view into an im2col matrix whose columns run in the
kernel's (di, dj, c_in) order (Chellapilla et al., 2006) and multiplies it by
the kernel in one GEMM.  The input gradient is the transposed GEMM followed by
a col2im done in one pass: ``np.bincount`` adds every im2col entry into its
input cell, through a flat index cached per shape.  The kernel gradient is
one small GEMM per kernel offset on that offset's window slice, which keeps
no im2col matrix alive from the forward pass.  BLAS chooses the summation
order, so results agree with a direct loop nest to rounding, not bit for bit.
"""
from __future__ import annotations

import functools

import numpy as np


def _windows(xp, kh, kw, stride):
    """``[b, ho, wo, kh, kw, c]`` view of every ``kh x kw`` window of the
    NHWC array ``xp`` at ``stride``: entry ``[n, i, j, di, dj, c]`` is
    ``xp[n, i * stride + di, j * stride + dj, c]``."""
    xp = np.ascontiguousarray(xp)
    b, hp, wp, c = xp.shape
    sb, sh, sw, sc = xp.strides
    shape = (b, (hp - kh) // stride + 1, (wp - kw) // stride + 1, kh, kw, c)
    return np.ndarray(shape, xp.dtype, xp,
                      strides=(sb, sh * stride, sw * stride, sh, sw, sc))


@functools.lru_cache(maxsize=8)
def _scatter_index(b, hp, wp, ci, kh, kw, stride):
    """Flat index into a ``[b, hp, wp, ci]`` array of each entry of the
    ``[b, ho, wo, kh, kw, ci]`` im2col matrix, in its row-major order.

    Shared by every call at one shape and never written to.  It is left
    writeable because ``np.bincount`` copies a read-only index on each call.
    """
    image = hp * wp * ci
    cells = np.arange(image).reshape(1, hp, wp, ci)
    starts = np.arange(0, b * image, image).reshape(b, 1, 1, 1, 1, 1)
    # one image's cells plus each image's start: the only batch-sized array
    # is the index itself, made in C order so ravel does not copy it (a
    # temporary freed mid-backward raised train-conv's peak RSS by 1 MB)
    return np.add(starts, _windows(cells, kh, kw, stride), order="C").ravel()


def conv2d_forward(xp, k, stride):
    """Strided cross-correlation of ``xp`` with ``k``: im2col, then one GEMM."""
    kh, kw, ci, co = k.shape
    windows = _windows(xp, kh, kw, stride)
    b, ho, wo = windows.shape[:3]
    cols = windows.reshape(b * ho * wo, kh * kw * ci)
    return (cols @ k.reshape(-1, co)).reshape(b, ho, wo, co)


def conv2d_grad_input(adj, k, stride, hp, wp):
    """Adjoint of the padded input: one GEMM, then a one-pass col2im."""
    b, _, _, co = adj.shape
    kh, kw, ci, _ = k.shape
    dcols = adj.reshape(-1, co) @ k.reshape(-1, co).T
    index = _scatter_index(b, hp, wp, ci, kh, kw, stride)
    dxp = np.bincount(index, weights=dcols.ravel(), minlength=b * hp * wp * ci)
    return dxp.reshape(b, hp, wp, ci)


def conv2d_grad_kernel(xp, adj, kh, kw, stride):
    """Adjoint of the kernel: a (c_in, N) x (N, c_out) GEMM per offset."""
    ci, co = xp.shape[3], adj.shape[3]
    windows = _windows(xp, kh, kw, stride)
    adj2 = adj.reshape(-1, co)
    dk = np.empty((kh, kw, ci, co))
    for di in range(kh):
        for dj in range(kw):
            dk[di, dj] = windows[:, :, :, di, dj].reshape(-1, ci).T @ adj2
    return dk

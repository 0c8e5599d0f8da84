"""Convolution kernels built on matrix products.

All kernels take float64 arrays: a pre-padded input ``xp`` in NHWC layout
and a kernel in ``(kh, kw, c_in, c_out)`` layout.  The forward pass copies
every ``kh x kw`` window of ``xp`` into one row of an im2col matrix whose
columns run in the kernel's (di, dj, c_in) order (Chellapilla et al., 2006)
and multiplies it by the kernel in one GEMM; the input gradient is the
transposed GEMM followed by a scatter-add (col2im).  The kernel gradient is
one small GEMM per kernel offset, which keeps no im2col matrix alive from
the forward pass.  BLAS chooses the summation order, so results agree with
a direct loop nest to rounding, not bit for bit.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv2d_forward(xp, k, stride):
    """Strided cross-correlation of ``xp`` with ``k``: im2col, then one GEMM."""
    kh, kw, ci, co = k.shape
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    b, ho, wo = windows.shape[:3]
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(b * ho * wo, kh * kw * ci)
    return (cols @ k.reshape(-1, co)).reshape(b, ho, wo, co)


def conv2d_grad_input(adj, k, stride, hp, wp):
    """Adjoint of the padded input: one GEMM, then a scatter-add per offset."""
    b, ho, wo, co = adj.shape
    kh, kw, ci, _ = k.shape
    dcols = (adj.reshape(-1, co) @ k.reshape(-1, co).T).reshape(b, ho, wo, kh, kw, ci)
    dxp = np.zeros((b, hp, wp, ci))
    for di in range(kh):
        for dj in range(kw):
            dxp[:, di:di + stride * (ho - 1) + 1:stride,
                dj:dj + stride * (wo - 1) + 1:stride] += dcols[:, :, :, di, dj]
    return dxp


def conv2d_grad_kernel(xp, adj, kh, kw, stride):
    """Adjoint of the kernel: a (c_in, N) x (N, c_out) GEMM per offset."""
    b, ho, wo, co = adj.shape
    ci = xp.shape[3]
    adj2 = adj.reshape(-1, co)
    dk = np.empty((kh, kw, ci, co))
    for di in range(kh):
        for dj in range(kw):
            xs = xp[:, di:di + stride * (ho - 1) + 1:stride,
                    dj:dj + stride * (wo - 1) + 1:stride]
            dk[di, dj] = xs.reshape(-1, ci).T @ adj2
    return dk

"""Every tape op, bit for bit against the numpy expressions that define it.

Each op records a module-level adjoint function on the tape, so rewriting an
op or its adjoint must keep every floating-point operation and its order.
Here each op's forward value, and the adjoint a Tape gives each tracked
operand, is compared byte for byte with that expression written out in
numpy.  The adjoint reaching the op's output is exact: the root is
``sum(op(...) * W)`` for a constant ``W`` of the output's shape, so the op
receives ``1.0 * W``, which is ``W``.
"""
import math
import os
import sys

import numpy as np
import pytest
from scipy.linalg import solve_triangular as scipy_solve_triangular
from scipy.special import erf as scipy_erf, expit

from uncertain import layers, tensor
from uncertain.cli import build_deep_gp, build_flow, gaussian_likelihood
from uncertain.data import toy_flow_data, toy_regression
from uncertain.distributions import Normal
from uncertain.errors import ShapeError
from uncertain.tensor import (
    ELEMENTWISE_BINARY,
    ELEMENTWISE_UNARY,
    Tape,
    Tensor,
    cholesky,
    coupling_inverse,
    coupling_scale,
    exp,
    log,
    masks,
    matmul,
    mul,
    reshape,
    se_kernel,
    softplus,
    square,
    tanh,
    tensor_sum,
    transpose,
    triangular_solve,
    where,
    whitened_kl,
    whitened_variance,
)
from uncertain.training import ElboConfig, elbo_step

from conftest import whitened_case


def bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want, dtype=np.float64)
    return (got.dtype == np.float64 and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def reduce_to(g, shape):
    """Sum ``g`` back to an operand's ``shape``: first over the leading axes
    broadcasting added, then, keeping dims, over the stretched size-1 axes."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def run(op, *operands):
    """``op`` on the operands, arrays watched on a fresh tape as Tensors, and
    Tensors (constants) and plain Python numbers left as they are; the
    output's data, the adjoint ``W`` its consumer sent, and each watched
    operand's adjoint (None for the others)."""
    with Tape() as tape:
        args = [tape.watch(Tensor(v)) if isinstance(v, np.ndarray) else v
                for v in operands]
        out = op(*args)
        w = np.random.default_rng(99).normal(size=out.shape)
        root = tensor_sum(mul(out, Tensor(w)))
    grads = tape.backward(root)
    adjoints = [grads[a.node_id].data
                if isinstance(a, Tensor) and a.node_id is not None else None
                for a in args]
    return out.data, w, adjoints


def values(shape, seed, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


# name -> (forward(x), adjoint(G, x, out)) as each op defines them
UNARY = {
    "neg": (lambda x: -x, lambda g, x, o: -g),
    "exp": (np.exp, lambda g, x, o: g * o),
    "log": (np.log, lambda g, x, o: g / x),
    "sqrt": (np.sqrt, lambda g, x, o: g / (2.0 * o)),
    "pow2": (lambda x: x * x, lambda g, x, o: g * 2.0 * x),
    "tanh": (np.tanh, lambda g, x, o: g * (1.0 - o * o)),
    "sigmoid": (expit, lambda g, x, o: g * o * (1.0 - o)),
    "softplus": (lambda x: np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0),
                 lambda g, x, o: g * expit(x)),
    "relu": (lambda x: np.maximum(x, 0.0), lambda g, x, o: g * (x > 0.0)),
    "erf": (scipy_erf,
            lambda g, x, o: g * (2.0 / math.sqrt(math.pi)) * np.exp(-x * x)),
    "sin": (np.sin, lambda g, x, o: g * np.cos(x)),
    "cos": (np.cos, lambda g, x, o: -g * np.sin(x)),
}
POSITIVE = {"log", "sqrt"}

# name -> (forward(x, y), adjoint of x, adjoint of y), before reduce_to
BINARY = {
    "add": (lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g),
    "sub": (lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g),
    "mul": (lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x),
    "div": (lambda x, y: x / y, lambda g, x, y: g / y,
            lambda g, x, y: -g * x / (y * y)),
}
BINARY_SHAPES = [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 1), (1, 4)),
                 ((2, 3, 4), (3, 1)), ((), (3,)), ((3,), ()), ((), ())]


def test_every_elementwise_op_has_an_oracle():
    assert set(UNARY) == set(ELEMENTWISE_UNARY)
    assert set(BINARY) == set(ELEMENTWISE_BINARY)


@pytest.mark.parametrize("shape", [(3, 4), ()], ids=["3x4", "0d"])
@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary(name, shape):
    forward, adjoint = UNARY[name]
    lo = 0.1 if name in POSITIVE else -2.0
    x = values(shape, 1, lo=lo)
    out, g, (gx,) = run(ELEMENTWISE_UNARY[name], x)
    want = forward(x)
    assert bitwise(out, want)
    assert bitwise(gx, adjoint(g, x, want))


@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_of_python_scalar(name):
    forward, _ = UNARY[name]
    out = ELEMENTWISE_UNARY[name](0.7)
    assert out.node_id is None
    assert bitwise(out.data, forward(np.float64(0.7)))


@pytest.mark.parametrize("shapes", BINARY_SHAPES,
                         ids=[f"{a}-{b}" for a, b in BINARY_SHAPES])
@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary(name, shapes):
    forward, adjoint_x, adjoint_y = BINARY[name]
    x = values(shapes[0], 2)
    y = values(shapes[1], 3, lo=0.5)  # keeps div away from 0
    out, g, (gx, gy) = run(ELEMENTWISE_BINARY[name], x, y)
    assert bitwise(out, forward(x, y))
    assert bitwise(gx, reduce_to(adjoint_x(g, x, y), x.shape))
    assert bitwise(gy, reduce_to(adjoint_y(g, x, y), y.shape))


@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_with_python_scalar(name):
    forward, adjoint_x, adjoint_y = BINARY[name]
    x, c = values((2, 3), 4, lo=0.5), 2.5
    out, g, (gx, _) = run(ELEMENTWISE_BINARY[name], x, c)
    assert bitwise(out, forward(x, np.float64(c)))
    assert bitwise(gx, adjoint_x(g, x, np.float64(c)))
    out, g, (_, gx) = run(ELEMENTWISE_BINARY[name], c, x)
    assert bitwise(out, forward(np.float64(c), x))
    assert bitwise(gx, adjoint_y(g, np.float64(c), x))


SUM_CASES = [((2, 3, 4), None, False), ((2, 3, 4), None, True),
             ((2, 3, 4), 0, False), ((2, 3, 4), -1, True),
             ((2, 3, 4), (0, 2), False), ((2, 3, 4), (2, 0), True),
             ((2, 3, 4), np.int64(1), False), ((), None, False)]


@pytest.mark.parametrize("shape, axis, keepdims", SUM_CASES)
def test_tensor_sum(shape, axis, keepdims):
    x = values(shape, 5)
    out, g, (gx,) = run(lambda t: tensor_sum(t, axis=axis, keepdims=keepdims), x)
    assert bitwise(out, np.sum(x, axis=axis, keepdims=keepdims))
    kept = np.sum(x, axis=axis, keepdims=True).shape
    assert bitwise(gx, np.broadcast_to(g.reshape(kept), shape))


RESHAPES = [((2, 6), (3, 4)), ((2, 6), (3, -1)), ((), (1, 1)), ((1,), ())]


@pytest.mark.parametrize("shape, new", RESHAPES)
def test_reshape(shape, new):
    x = values(shape, 6)
    out, g, (gx,) = run(lambda t: reshape(t, new), x)
    assert bitwise(out, x.reshape(new))
    assert bitwise(gx, g.reshape(shape))


TRANSPOSES = [((2, 3), None), ((2, 3, 4), None), ((2, 3, 4), (1, 0, 2)),
              ((2, 3, 4), (2, 0, 1)), ((2, 3, 4), (0, -1, -2))]


@pytest.mark.parametrize("shape, axes", TRANSPOSES)
def test_transpose(shape, axes):
    x = values(shape, 7)
    out, g, (gx,) = run(lambda t: transpose(t, axes), x)
    order = tuple(reversed(range(len(shape)))) if axes is None else axes
    assert bitwise(out, np.transpose(x, order))
    order = tuple(ax % len(shape) for ax in order)  # argsort needs ax >= 0
    assert bitwise(gx, np.transpose(g, np.argsort(order)))


MATMULS = [((3, 4), (4, 5)), ((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)),
           ((2, 3, 4), (2, 4, 5)), ((1, 3, 4), (2, 4, 5))]


@pytest.mark.parametrize("shapes", MATMULS, ids=[f"{a}@{b}" for a, b in MATMULS])
def test_matmul(shapes):
    x, y = values(shapes[0], 8), values(shapes[1], 9)
    out, g, (gx, gy) = run(matmul, x, y)
    assert bitwise(out, x @ y)
    assert bitwise(gx, reduce_to(g @ y.swapaxes(-1, -2), x.shape))
    assert bitwise(gy, reduce_to(x.swapaxes(-1, -2) @ g, y.shape))


def test_structural_ops_of_python_scalars():
    assert bitwise(tensor_sum(2.5).data, np.float64(2.5))
    assert bitwise(reshape(2.5, (1, 1)).data, [[2.5]])
    assert bitwise(transpose(2.5).data, np.float64(2.5))


COUPLING_SHAPES = [(4,), (3, 4), (2, 3, 4)]


def coupling_case(test):
    """Rank-1, -2 and -3 inputs over 4 coordinates, with either coordinate
    parity anchored; ``active`` is 1 on the coordinates a coupling updates."""
    shapes = pytest.mark.parametrize("shape", COUPLING_SHAPES,
                                     ids=["rank1", "rank2", "rank3"])
    parities = pytest.mark.parametrize("parity", [0, 1],
                                       ids=["even-anchored", "odd-anchored"])
    return shapes(parities(test))


def active_of(parity):
    return 1.0 - layers.alternating_mask(4, parity)


@coupling_case
def test_coupling_scale(shape, parity):
    raw, active = values(shape, 10), active_of(parity)
    out, g, (gr, _, _) = run(coupling_scale, raw, 3.0, Tensor(active))
    o = np.tanh(raw)
    assert bitwise(out, (o * 3.0) * active)
    assert bitwise(gr, ((g * active) * 3.0) * (1.0 - o * o))


@pytest.mark.parametrize("y_tracked", [True, False],
                         ids=["y-tracked", "y-untracked"])
@coupling_case
def test_coupling_inverse(shape, parity, y_tracked):
    # an untracked y is the data batch a density's first coupling sees
    y, shift, scale = values(shape, 11), values(shape, 12), values(shape, 13)
    active = active_of(parity)
    anchored = y * (1.0 - active)
    out, g, (ga, gy, gs, gsc, _) = run(
        coupling_inverse, anchored, y if y_tracked else Tensor(y), shift,
        scale, Tensor(active))
    d, e = y - shift * active, np.exp(-scale)
    assert bitwise(out, anchored + active * (d * e))
    gp = g * active
    assert bitwise(ga, g)
    if y_tracked:
        assert bitwise(gy, gp * e)
    else:
        assert gy is None
    assert bitwise(gs, (-(gp * e)) * active)
    assert bitwise(gsc, -((gp * d) * e))


@pytest.mark.parametrize("op, shapes, mask", [
    (coupling_scale, [(3, 1)], (4,)),
    (coupling_scale, [(3, 4)], (2, 1, 4)),
    (coupling_inverse, [(3, 4), (3, 4), (4,), (3, 4)], (4,)),
    (coupling_inverse, [(3, 4), (3, 4), (3, 4), (2, 3, 4)], (4,)),
    (coupling_inverse, [(4,)] * 4, (3, 4)),
], ids=["scale-narrow", "scale-by-mask", "inverse-shift", "inverse-scale",
        "inverse-by-mask"])
def test_coupling_ops_reject_operands_that_broadcast(op, shapes, mask):
    # their adjoints hand back unreduced terms, so the forward pass checks
    operands = [Tensor(np.ones(shape)) for shape in shapes]
    if op is coupling_scale:
        operands.append(3.0)
    with pytest.raises(ShapeError, match=f"^{op.__name__} needs operands of "
                       "the output's shape"):
        op(*operands, Tensor(np.ones(mask)))


def composite_inverse_and_log_det(self, y):
    """``CouplingLayer.inverse_and_log_det`` written with the elementwise tape
    ops the two coupling ops fuse."""
    anchored = y * self.mask
    shift, raw_scale = self.conditioner(anchored, seed=0)
    active = 1.0 - self.mask
    scale = tanh(raw_scale) * 3.0 * active
    x = anchored + (1.0 - self.mask) * ((y - shift * active) * exp(-scale))
    return x, tensor_sum(scale, axis=-1)


def flow_step():
    """Loss, gradient and tape-node count of one ELBO step of the flow
    demo's model (4 couplings, width 32) on a batch of 128, its parameters
    drawn so that every coupling shifts and scales."""
    flow = build_flow(4, 32)
    base = Normal(np.zeros(2), np.ones(2))
    flow(base, seed=0)
    rng = np.random.default_rng(14)
    for p in flow.trainable_variables().values():
        p.data[...] = 0.3 * rng.standard_normal(p.shape)
    cfg = ElboConfig(num_train_examples=128, batch_size=128)
    loss, _, grad = elbo_step(flow, base, toy_flow_data(128, 0), cfg, step=0)
    return loss.data, grad, len(loss.tape.nodes)


def test_flow_step_matches_the_unfused_composite(monkeypatch):
    # the fused ops hand each parent its adjoint terms in the composite's
    # order, so a whole ELBO step is bitwise, not just each op
    loss, grad, _ = flow_step()
    monkeypatch.setattr(layers.CouplingLayer, "inverse_and_log_det",
                        composite_inverse_and_log_det)
    want_loss, want_grad, nodes = flow_step()
    assert nodes == 106
    assert bitwise(loss, want_loss)
    assert bitwise(grad, want_grad)


def test_flow_step_records_74_nodes():
    # 106 unfused: in each coupling two ops replace ten elementwise nodes
    assert flow_step()[2] == 74


def composite_whitened_scale(scale_raw):
    """The stack of lower factors L_v, and its softplus diagonal, in the tape
    ops a sparse GP layer built them with before the whitened ops."""
    m = scale_raw.shape[-1]
    diag = softplus(scale_raw) * Tensor(np.eye(m))
    return scale_raw * Tensor(np.tril(np.ones((m, m)), -1)) + diag, diag


def composite_whitened_variance(kdiag, proj, scale_raw, floor):
    """``whitened_variance`` as the 17 nodes it replaces."""
    units, m = scale_raw.shape[0], scale_raw.shape[-1]
    lead, batch = proj.shape[:-2], proj.shape[-1]
    base_var = kdiag - tensor_sum(square(proj), axis=-2)
    scale, _ = composite_whitened_scale(scale_raw)
    half = matmul(reshape(transpose(scale, (0, 2, 1)), (units * m, m)), proj)
    extra = tensor_sum(reshape(square(half), lead + (units, m, batch)),
                       axis=-2)
    swap = tuple(range(extra.ndim - 2)) + (extra.ndim - 1, extra.ndim - 2)
    variance = (transpose(extra, swap)
                + reshape(base_var, lead + (batch, 1)))
    return where(variance.data > floor, variance, floor)


def composite_whitened_kl(scale_raw, whitened_mean):
    """``whitened_kl`` as the 15 nodes it replaces."""
    units, m = scale_raw.shape[0], scale_raw.shape[-1]
    scale, diag = composite_whitened_scale(scale_raw)
    log_diag = log(tensor_sum(diag, axis=2))
    return 0.5 * (tensor_sum(square(scale)) + tensor_sum(square(whitened_mean))
                  - units * m) - tensor_sum(log_diag)


VAR_FLOOR = 1e-10


# a regrouping of a rounded sum survives one draw often enough that each
# op sees several
WHITENED_SEEDS = pytest.mark.parametrize("seed", range(30, 38))


@WHITENED_SEEDS
@pytest.mark.parametrize("lead", [(), (2,)], ids=["rank2", "stack"])
def test_whitened_variance(lead, seed):
    kdiag, proj, raw, _ = whitened_case(lead, seed)
    out, _, grads = run(whitened_variance, kdiag, proj, raw, VAR_FLOOR)
    want, _, want_grads = run(composite_whitened_variance, kdiag, proj, raw,
                              VAR_FLOOR)
    assert out.shape == lead + (5, 3)
    assert np.all(out[..., 0, :] == VAR_FLOOR) and np.all(out[..., 1:, :] > 1.0)
    assert bitwise(out, want)
    for g, w in zip(grads[:3], want_grads[:3]):
        assert bitwise(g, w)


@WHITENED_SEEDS
def test_whitened_kl(seed):
    _, _, raw, mean = whitened_case((), seed)
    out, _, grads = run(whitened_kl, raw, mean)
    want, _, want_grads = run(composite_whitened_kl, raw, mean)
    assert bitwise(out, want)
    for g, w in zip(grads, want_grads):
        assert bitwise(g, w)


class TestTensorStorage:
    """A C-contiguous float64 array is stored as it is, as ``np.asarray``
    would return it; anything else becomes a fresh C-contiguous float64
    array."""

    @pytest.mark.parametrize("arr", [np.arange(6.0).reshape(2, 3),
                                     np.array(1.5), np.zeros(0)],
                             ids=["2x3", "0d", "empty"])
    def test_contiguous_float64_is_stored_as_is(self, arr):
        assert Tensor(arr).data is arr

    @pytest.mark.parametrize("make", [
        lambda: np.arange(12.0).reshape(3, 4).T,
        lambda: np.arange(12.0)[::2],
        lambda: np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        lambda: np.arange(6).reshape(2, 3),
        lambda: np.arange(6, dtype=np.float32),
        lambda: [[1, 2], [3, 4]],
        lambda: 3,
    ], ids=["transposed", "strided", "fortran", "int", "float32", "list",
            "int-scalar"])
    def test_other_input_becomes_a_fresh_float64_array(self, make):
        src = make()
        data = Tensor(src).data
        assert type(data) is np.ndarray
        assert data.dtype == np.float64 and data.flags.c_contiguous
        assert np.array_equal(data, np.asarray(src, dtype=np.float64))
        if isinstance(src, np.ndarray):
            assert not np.shares_memory(data, src)


# ---------------------------------------------------------------------------
# the small-matrix fast path of the sparse-GP ops
# ---------------------------------------------------------------------------
# The ops below call ndarray methods and take their constant masks from
# ``tensor.masks``.  These oracles are the numpy-wrapper expressions they
# replaced (``np.sum``, ``np.swapaxes``, ``np.expand_dims``, ``np.transpose``,
# ``np.eye``, ``np.tri``, ``np.tril``, ``np.diag``), and each op must still
# give their bytes.

def with_signed_zeros(shape, seed):
    """Normal draws with about one entry in eight set to -0.0 and one in
    eight to 0.0, so a mask that changed the sign of a zero would show."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape)
    v[rng.random(shape) < 0.125] = -0.0
    v[rng.random(shape) < 0.125] = 0.0
    return v


def solve_lower_oracle(l, b, trans):
    if b.ndim == 2:
        return scipy_solve_triangular(l, b, lower=True, trans=trans)
    return np.stack([scipy_solve_triangular(l, b_s, lower=True, trans=trans)
                     for b_s in b])


def cholesky_adjoint_oracle(adj, L):
    lbar = np.tril(adj)
    p = L.T @ lbar
    phi = np.tril(p, -1) + 0.5 * np.diag(np.diag(p))
    x = solve_lower_oracle(L, phi, 1)
    s = solve_lower_oracle(L, x.T, 1).T
    return 0.5 * (s + s.T)


def triangular_solve_adjoint_oracle(adj, l, x):
    gb = solve_lower_oracle(l, adj, 1)
    gl = gb @ np.swapaxes(x, -1, -2)
    if gl.ndim == 3:
        gl = np.sum(gl, axis=0)
    return -np.tril(gl), gb


def spd(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def lower_factor(n, seed):
    """A well-conditioned [n, n] matrix whose upper triangle the solves
    must ignore."""
    return np.random.default_rng(seed).normal(size=(n, n)) + 4.0 * np.eye(n)


FAST_PATH_SEEDS = pytest.mark.parametrize("seed", range(40, 44))


@FAST_PATH_SEEDS
def test_cholesky_matches_the_replaced_expressions(seed):
    a = spd(6, seed)
    out, g, (ga,) = run(cholesky, a)
    L = np.linalg.cholesky(a + 0.0 * np.eye(6))
    assert bitwise(out, L)
    assert bitwise(ga, cholesky_adjoint_oracle(g, L))
    adj = with_signed_zeros((6, 6), seed)
    assert bitwise(tensor._cholesky_adjoint(adj, L)[0],
                   cholesky_adjoint_oracle(adj, L))


@FAST_PATH_SEEDS
@pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "stack"])
def test_triangular_solve_matches_the_replaced_expressions(lead, seed):
    l, b = lower_factor(5, seed), values(lead + (5, 4), seed)
    out, g, (gl, gb) = run(triangular_solve, l, b)
    x = solve_lower_oracle(l, b, 0)
    assert bitwise(out, x)
    want_gl, want_gb = triangular_solve_adjoint_oracle(g, l, x)
    assert bitwise(gl, want_gl) and bitwise(gb, want_gb)
    adj = with_signed_zeros(lead + (5, 4), seed)
    got = tensor._triangular_solve_adjoint(adj, l, x)
    for g_got, g_want in zip(got, triangular_solve_adjoint_oracle(adj, l, x)):
        assert bitwise(g_got, g_want)


def se_kernel_oracle(xd, x2d, log_amplitude, log_lengthscale, adj):
    """``se_kernel``'s value and its four adjoints in the replaced
    expressions."""
    sq_x = np.sum(xd * xd, axis=1, keepdims=True)
    sq_x2 = np.sum(x2d * x2d, axis=-1, keepdims=True)
    x2t = np.ascontiguousarray(np.swapaxes(x2d, -1, -2))
    dist = (sq_x + np.swapaxes(sq_x2, -1, -2)) - (xd @ x2t) * 2.0
    dist = np.where(dist > 0.0, dist, 0.0)
    amp2 = np.exp(log_amplitude * 2.0)
    inv_2ell2 = np.exp(log_lengthscale * -2.0) * 0.5
    out = amp2 * np.exp(-dist * inv_2ell2)
    a = adj * out
    g_amp = np.sum(a) * 2.0
    g_ell = np.sum(a * dist) * (inv_2ell2 * 2.0)
    w = np.where(dist > 0.0, a, 0.0) * (inv_2ell2 * 2.0)
    gx = w @ x2d - np.sum(w, axis=-1, keepdims=True) * xd
    if gx.ndim == 3:
        gx = np.sum(gx, axis=0)
    gx2 = (np.swapaxes(w, -1, -2) @ xd
           - np.swapaxes(np.sum(w, axis=-2, keepdims=True), -1, -2) * x2d)
    return out, (gx, gx2, g_amp, g_ell)


@FAST_PATH_SEEDS
@pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "stack"])
def test_se_kernel_matches_the_replaced_expressions(lead, seed):
    x, x2 = values((4, 2), seed), values(lead + (5, 2), seed + 100)
    log_amplitude, log_lengthscale = np.array(0.3), np.array(-0.2)
    out, g, grads = run(se_kernel, x, x2, log_amplitude, log_lengthscale)
    want, want_grads = se_kernel_oracle(x, x2, log_amplitude,
                                        log_lengthscale, g)
    assert bitwise(out, want)
    for got, w in zip(grads, want_grads):
        assert bitwise(got, w)


def whitened_scale_oracle(raw):
    m = raw.shape[-1]
    eye, tril = np.eye(m), np.tri(m, k=-1)
    diag = (np.log1p(np.exp(-np.abs(raw))) + np.maximum(raw, 0.0)) * eye
    return raw * tril + diag, diag, tril, eye


def whitened_variance_oracle(kdiag, p, raw, floor, adj):
    """``whitened_variance``'s value and its three adjoints in the replaced
    expressions."""
    units, m = raw.shape[0], raw.shape[-1]
    lead, batch = p.shape[:-2], p.shape[-1]
    base = kdiag - np.sum(p * p, axis=-2)
    scale, _, tril, eye = whitened_scale_oracle(raw)
    st = np.ascontiguousarray(np.transpose(scale, (0, 2, 1))).reshape(units * m, m)
    half = st @ p
    extra_shape = lead + (units, m, batch)
    extra = np.sum((half * half).reshape(extra_shape), axis=-2)
    variance = np.swapaxes(extra, -1, -2) + base.reshape(base.shape + (1,))
    mask = variance > floor
    out = np.where(mask, variance, floor)
    g = np.where(mask, adj, 0.0)
    gbase = reduce_to(g, base.shape + (1,)).reshape(base.shape)
    gextra = np.expand_dims(np.swapaxes(g, -1, -2), -2)
    ghalf = np.ascontiguousarray(
        ((gextra * 2.0) * half.reshape(extra_shape)).reshape(half.shape))
    gst = reduce_to(ghalf @ np.swapaxes(p, -1, -2), st.shape)
    gscale = np.transpose(gst.reshape(units, m, m), (0, 2, 1))
    graw = gscale * tril + gscale * eye * expit(raw)
    gsq = (np.expand_dims(-gbase, -2) * 2.0) * p
    gproj = np.swapaxes(st, -1, -2) @ ghalf + gsq
    return out, (reduce_to(gbase, kdiag.shape), gproj, graw)


def whitened_kl_oracle(raw, mu, adj):
    """``whitened_kl``'s value and its two adjoints in the replaced
    expressions."""
    scale, diag, tril, eye = whitened_scale_oracle(raw)
    dsum = np.sum(diag, axis=2)
    count = raw.shape[0] * raw.shape[-1]
    out = ((np.sum(scale * scale) + np.sum(mu * mu)) - count) * 0.5 - np.sum(
        np.log(dsum))
    half_adj = adj * 0.5
    gsq = (half_adj * 2.0) * scale
    gdiag = np.expand_dims(-adj / dsum, 2) + gsq
    graw = gsq * tril + gdiag * eye * expit(raw)
    return out, (graw, (half_adj * 2.0) * mu)


@WHITENED_SEEDS
@pytest.mark.parametrize("lead", [(), (2,)], ids=["rank2", "stack"])
def test_whitened_ops_match_the_replaced_expressions(lead, seed):
    kdiag, proj, raw, mean = whitened_case(lead, seed)
    out, g, grads = run(whitened_variance, kdiag, proj, raw, VAR_FLOOR)
    want, want_grads = whitened_variance_oracle(kdiag, proj, raw, VAR_FLOOR, g)
    assert bitwise(out, want)
    for got, w in zip(grads[:3], want_grads):
        assert bitwise(got, w)
    out, g, grads = run(whitened_kl, raw, mean)
    want, want_grads = whitened_kl_oracle(raw, mean, g)
    assert bitwise(out, want)
    for got, w in zip(grads, want_grads):
        assert bitwise(got, w)


def test_cached_masks_are_the_replaced_arrays_and_read_only():
    m = masks(8)
    assert masks(8) is m
    assert bitwise(m.identity, np.eye(8)) and bitwise(m.below, np.tri(8, k=-1))
    for mask, want in [(m.eye, np.eye(8, dtype=bool)),
                       (m.strict, np.tri(8, k=-1, dtype=bool)),
                       (m.lower, np.tri(8, dtype=bool))]:
        assert mask.dtype == bool and np.array_equal(mask, want)
    for mask in m:
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = 1


NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
TENSOR_FILE = tensor.__file__
REPLACED_WRAPPERS = {"sum", "tril", "tri", "eye", "expand_dims",
                     "asarray_chkfinite"}


def test_deep_gp_step_calls_none_of_the_replaced_numpy_wrappers():
    # names and directory, not function objects, so this holds on numpy
    # 1.24 (numpy/core) and 2.x (numpy/_core) alike; the first step makes
    # the cached masks, so the second one is profiled
    x, y = toy_regression(64, 0, 0.05)
    model = build_deep_gp(4, 8)
    model(Tensor(x), seed=0)
    cfg = ElboConfig(num_train_examples=64, batch_size=32)
    likelihood = gaussian_likelihood(0.1)
    elbo_step(model, Tensor(x[:32]), Tensor(y[:32]), cfg, 0,
              likelihood=likelihood)
    in_numpy, in_tensor = set(), []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(NUMPY_DIR):
                in_numpy.add(code.co_name)
            elif code.co_filename == TENSOR_FILE:
                in_tensor.append(code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        loss, _, _ = elbo_step(model, Tensor(x[32:]), Tensor(y[32:]), cfg, 1,
                               likelihood=likelihood)
    finally:
        sys.setprofile(previous)
    assert "_sum" in in_numpy  # the profile sees numpy's own functions
    assert not in_numpy & REPLACED_WRAPPERS
    assert len(loss.tape.nodes) == 72
    assert in_tensor.count("chol_with_jitter") == 3
    assert in_tensor.count("solve_triangular") == 12

"""Every tape op, bit for bit against the numpy expressions that define it,
or, for a fused op, against the composite of tape ops it replaced.

Each op records a module-level adjoint function on the tape, so rewriting an
op or its adjoint must keep every floating-point operation and its order.
Here each op's forward value, and the adjoint a Tape gives each tracked
operand, is compared byte for byte with that expression written out in
numpy, or with the composite's.  The adjoint reaching the op's output is
exact: the root is ``sum(op(...) * W)`` for a constant ``W`` of the
output's shape, so the op receives ``1.0 * W``, which is ``W``.
"""
import collections
import functools
import importlib
import math
import os
import re
import sys

import numpy as np
import pytest
from scipy.linalg import solve_triangular as scipy_solve_triangular
from scipy.special import erf as scipy_erf, expit

import uncertain.layers.gp as gp_module
import uncertain.layers.reversible as reversible_module
from uncertain import layers, tensor
from uncertain.cli import build_deep_gp, build_flow, gaussian_likelihood
from uncertain.data import toy_flow_data, toy_regression
from uncertain.distributions import Normal
from uncertain.errors import ShapeError
from uncertain.rng import mix
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
    se_kernel_diag,
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

from conftest import (
    KERNEL_CASES,
    kernel_inputs,
    random_whitened_state,
    whitened_case,
)


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


def watch_arrays(tape, operands):
    """The operands with each distinct array watched on ``tape`` as one
    Tensor, so an array passed twice is one tracked tensor, and Tensors
    (constants) and plain Python numbers left as they are."""
    watched = {}
    for v in operands:
        if isinstance(v, np.ndarray) and id(v) not in watched:
            watched[id(v)] = tape.watch(Tensor(v))
    return [watched.get(id(v), v) for v in operands]


def run(op, *operands, signed_zeros=False):
    """``op`` on the operands as :func:`watch_arrays` passes them; the
    output's data, the adjoint ``W`` its consumer sent (normal draws, or
    with ``signed_zeros`` draws holding -0.0 and 0.0), and each watched
    operand's adjoint (None for the others and for one the root does not
    reach)."""
    with Tape() as tape:
        args = watch_arrays(tape, operands)
        out = op(*args)
        w = (with_signed_zeros(out.shape, 99) if signed_zeros
             else np.random.default_rng(99).normal(size=out.shape))
        root = tensor_sum(mul(out, Tensor(w)))
    grads = tape.backward(root)
    adjoints = [grads[a.node_id].data
                if isinstance(a, Tensor) and a.node_id in grads else None
                for a in args]
    return out.data, w, adjoints


def values(shape, seed, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def with_signed_zeros(shape, seed):
    """Normal draws with about one entry in eight set to -0.0 and one in
    eight to 0.0, and the first two entries -0.0 and 0.0 (a lone entry
    -0.0), so a mask that changed the sign of a zero would show."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape)
    v[rng.random(shape) < 0.125] = -0.0
    v[rng.random(shape) < 0.125] = 0.0
    v.reshape(-1)[:2] = (-0.0, 0.0)[:v.size]
    return v


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


# op name -> the test here that checks it against numpy expressions
STRUCTURAL = {
    "sum": "test_tensor_sum",
    "reshape": "test_reshape",
    "transpose": "test_transpose",
    "matmul": "test_matmul",
    "cholesky": "test_cholesky_matches_the_replaced_expressions",
    "triangular_solve": "test_triangular_solve_matches_the_replaced_expressions",
}
# op name -> "module::Class::test" of the test in another file that covers it
CHECKED_ELSEWHERE = {
    "where": "test_tensor::TestStructuralOps::test_where_routes_gradients",
    "slice_last": "test_tensor::TestStructuralOps::test_slice_and_concat_inverse",
    "concat": "test_tensor::TestStructuralOps::test_slice_and_concat_inverse",
    "take": "test_tensor::TestStructuralOps::test_take_matches_indexing_and_gradient",
    "take_last": "test_tensor::TestStructuralOps::test_take_last_gradient_scatters",
    "broadcast_to":
        "test_tensor::TestStructuralOps::test_broadcast_to_gradient_sums_copies",
    "diag_part": "test_tensor::TestStructuralOps::test_diag_part",
    "conv2d": "test_tensor::TestConv2d::test_gradients_vs_central_differences",
}
# the op name an _apply, _unary or _binary call in tensor.py records
RECORDED_OP = re.compile(r'\b_(?:apply|unary|binary)\("(\w+)"')


def test_every_elementwise_op_has_an_oracle():
    # and every other op tensor.py records: a new op fails here until it is
    # in exactly one table, and a fused op until FUSED checks it
    assert set(UNARY) == set(ELEMENTWISE_UNARY)
    assert set(BINARY) == set(ELEMENTWISE_BINARY)
    with open(tensor.__file__) as f:
        recorded_ops = set(RECORDED_OP.findall(f.read()))
    tables = [{*UNARY, *BINARY}, set(STRUCTURAL), set(FUSED),
              set(CHECKED_ELSEWHERE)]
    assert sum(map(len, tables)) == len(recorded_ops)
    assert set().union(*tables) == recorded_ops
    for test in STRUCTURAL.values():
        assert callable(globals()[test]), test
    for name, fused in FUSED.items():
        assert "signed-zeros" in fused.cases and callable(
            globals()[f"test_{name}"]), name
    for location in CHECKED_ELSEWHERE.values():
        module, *path = location.split("::")
        target = importlib.import_module(module)
        for attr in path:
            target = getattr(target, attr)
        assert callable(target), location


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


# ---------------------------------------------------------------------------
# fused ops
# ---------------------------------------------------------------------------
# A fused op records one node where a composite of tape ops recorded
# several.  FUSED holds, for each, that composite (its only copy under
# tests/), its operand cases, the number of nodes the composite records
# where the op's docstring names it, and the bound on the adjoints: bitwise
# (rtol 0), or relative to the largest entry.  Every entry has a
# "signed-zeros" case, whose operands and output adjoint hold -0.0 and 0.0.

def matrix_transpose(t):
    return transpose(t, tuple(range(t.ndim - 2)) + (t.ndim - 1, t.ndim - 2))


def composite_se_kernel(x, x2, log_amplitude, log_lengthscale):
    """``se_kernel`` spelled out in elementwise, reduction and matmul tape
    ops, in the order of its forward pass."""
    sq_x = tensor_sum(x * x, axis=1, keepdims=True)
    sq_x2 = tensor_sum(x2 * x2, axis=-1, keepdims=True)
    sq_dist = (sq_x + matrix_transpose(sq_x2)
               - 2.0 * matmul(x, matrix_transpose(x2)))
    sq_dist = where(sq_dist.data > 0.0, sq_dist, 0.0)
    amp2 = exp(2.0 * log_amplitude)
    inv_2ell2 = 0.5 * exp(-2.0 * log_lengthscale)
    return amp2 * exp(-sq_dist * inv_2ell2)


def composite_se_kernel_diag(x, log_amplitude):
    return exp(2.0 * log_amplitude) * Tensor(np.ones(x.shape[:-1]))


def composite_coupling_scale(raw_scale, bound, active):
    """``coupling_scale`` as the 3 nodes it replaces."""
    return (tanh(raw_scale) * bound) * active


def composite_coupling_inverse(anchored, y, shift, scale, active):
    """``coupling_inverse`` as the 7 nodes it replaces."""
    return anchored + active * ((y - shift * active) * exp(-scale))


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
# whitened op sees several
WHITENED_SEEDS = range(30, 38)
LEADS = {"rank2": (), "stack": (2,)}
COUPLING_SHAPES = {"rank1": (4,), "rank2": (3, 4), "rank3": (2, 3, 4)}
PARITIES = {"even-anchored": 0, "odd-anchored": 1}


def active_of(parity):
    """1 on the coordinates a coupling with that parity anchored updates."""
    return 1.0 - layers.alternating_mask(4, parity)


def kernel_arrays(case):
    """``kernel_inputs(case)`` as arrays; in the "same" case ``x2`` is the
    array ``x``, so the tape watches one tensor for both."""
    return tuple(t.data for t in kernel_inputs(case))


def kernel_diag_arrays(case):
    return kernel_arrays(case)[::2]  # x and log_amplitude


def coupling_scale_operands(shape, parity):
    return values(shape, 10), 3.0, Tensor(active_of(parity))


def coupling_inverse_operands(shape, parity, y_tracked):
    # an untracked y is the data batch a density's first coupling sees
    y, shift, scale = values(shape, 11), values(shape, 12), values(shape, 13)
    active = active_of(parity)
    return (y * (1.0 - active), y if y_tracked else Tensor(y), shift, scale,
            Tensor(active))


def whitened_variance_operands(lead, seed):
    return (*whitened_case(lead, seed)[:3], VAR_FLOOR)


def whitened_kl_operands(lead, seed):
    return whitened_case(lead, seed)[2:]


def signed_zeros(*shapes, seed):
    """One ``with_signed_zeros`` array per shape, from seeds seed, seed + 1, ..."""
    return tuple(with_signed_zeros(shape, seed + i)
                 for i, shape in enumerate(shapes))


Fused = collections.namedtuple("Fused", "op composite cases nodes rtol")
partial = functools.partial
FUSED = {
    "se_kernel": Fused(se_kernel, composite_se_kernel, {
        **{case: partial(kernel_arrays, case) for case in KERNEL_CASES},
        "signed-zeros": lambda: (*signed_zeros((5, 2), (6, 2), seed=50),
                                 np.array(-0.0), np.array(0.0)),
    }, None, 1e-12),
    "se_kernel_diag": Fused(se_kernel_diag, composite_se_kernel_diag, {
        **{case: partial(kernel_diag_arrays, case) for case in KERNEL_CASES},
        "signed-zeros": lambda: (*signed_zeros((5, 2), seed=52), np.array(-0.0)),
    }, None, 1e-12),
    "coupling_scale": Fused(coupling_scale, composite_coupling_scale, {
        **{f"{p}-{s}": partial(coupling_scale_operands, shape, parity)
           for p, parity in PARITIES.items()
           for s, shape in COUPLING_SHAPES.items()},
        "signed-zeros": lambda: (*signed_zeros((3, 4), seed=53), 3.0,
                                 Tensor(active_of(0))),
    }, 3, 0.0),
    "coupling_inverse": Fused(coupling_inverse, composite_coupling_inverse, {
        **{f"{p}-{s}-y-{t}": partial(coupling_inverse_operands, shape, parity,
                                     t == "tracked")
           for p, parity in PARITIES.items()
           for s, shape in COUPLING_SHAPES.items()
           for t in ("tracked", "untracked")},
        "signed-zeros": lambda: (*signed_zeros(*[(3, 4)] * 4, seed=54),
                                 Tensor(active_of(1))),
    }, 7, 0.0),
    "whitened_variance": Fused(whitened_variance, composite_whitened_variance, {
        **{f"{l}-{seed}": partial(whitened_variance_operands, lead, seed)
           for l, lead in LEADS.items() for seed in WHITENED_SEEDS},
        "signed-zeros": lambda: (
            *signed_zeros((2, 5), (2, 4, 5), (3, 4, 4), seed=58), VAR_FLOOR),
    }, 17, 0.0),
    "whitened_kl": Fused(whitened_kl, composite_whitened_kl, {
        **{str(seed): partial(whitened_kl_operands, (), seed)
           for seed in WHITENED_SEEDS},
        **{f"stack-{seed}": partial(whitened_kl_operands, (2,), seed)
           for seed in WHITENED_SEEDS},
        "signed-zeros": lambda: signed_zeros((3, 4, 4), (4, 3), seed=61),
    }, 15, 0.0),
}


def recorded(op, *operands):
    """The op names ``op`` records on a tape that watches the operands'
    arrays, as :func:`run` does."""
    with Tape() as tape:
        args = watch_arrays(tape, operands)
        before = len(tape.nodes)
        op(*args)
    return [node[0] for node in tape.nodes[before:]]


def check_fused(name, case):
    """``FUSED[name]`` on one case: the op records one node and the
    composite the number its entry gives, and the op's value and every
    adjoint are the composite's within the entry's bound."""
    fused = FUSED[name]
    operands = fused.cases[case]()
    assert recorded(fused.op, *operands) == [name]
    if fused.nodes is not None:
        assert len(recorded(fused.composite, *operands)) == fused.nodes
    signed = case == "signed-zeros"
    out, _, grads = run(fused.op, *operands, signed_zeros=signed)
    want, _, want_grads = run(fused.composite, *operands, signed_zeros=signed)
    assert bitwise(out, want)
    for g, w in zip(grads, want_grads, strict=True):
        if g is None or w is None:
            assert g is None and w is None
        elif fused.rtol:
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= fused.rtol * np.abs(w).max()
        else:
            assert bitwise(g, w)


def fused_test(name):
    """The test of ``FUSED[name]``: :func:`check_fused` on each case."""
    @pytest.mark.parametrize("case", list(FUSED[name].cases))
    def test(case):
        check_fused(name, case)
    return test


test_se_kernel = fused_test("se_kernel")
test_se_kernel_diag = fused_test("se_kernel_diag")
test_coupling_scale = fused_test("coupling_scale")
test_coupling_inverse = fused_test("coupling_inverse")
test_whitened_variance = fused_test("whitened_variance")
test_whitened_kl = fused_test("whitened_kl")


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


def deep_gp_step(moved):
    """Loss, flat gradient and tape-node count of one ELBO step of
    train-deep-gp at its CLI defaults (64 examples, batches of 32);
    ``moved`` first draws every layer's variational state off its
    prior-matched start."""
    x, y = toy_regression(64, 0, 0.05)
    model = build_deep_gp(4, 8)
    model(Tensor(x), seed=mix(0, "build"))
    if moved:
        rng = np.random.default_rng(31)
        for layer in model.layers:
            random_whitened_state(layer, rng)
    cfg = ElboConfig(num_train_examples=64, batch_size=32,
                     learning_rate=0.02, max_steps=300)
    loss, _, grad = elbo_step(model, Tensor(x[:32]), Tensor(y[:32]), cfg,
                              0, likelihood=gaussian_likelihood(0.1))
    return loss.data, grad, len(loss.tape.nodes)


# model -> (step, the module whose fused ops the composites replace, those
# ops, the node count of the step with the composites)
STEPS = {
    "flow": (flow_step, reversible_module,
             ("coupling_scale", "coupling_inverse"), 106),
    "deep-gp-cli-defaults": (partial(deep_gp_step, False), gp_module,
                             ("whitened_variance", "whitened_kl"), 162),
    "deep-gp-moved-state": (partial(deep_gp_step, True), gp_module,
                            ("whitened_variance", "whitened_kl"), 162),
}


@pytest.mark.parametrize("model", list(STEPS))
def test_step_matches_the_unfused_composite(monkeypatch, model):
    # the fused ops hand each parent its adjoint terms in the composite's
    # order, so a whole ELBO step is bitwise, not just each op; the flow
    # step records 74 nodes fused (4 couplings, 8 fewer each) and the deep
    # GP 72 (3 layers, 30 fewer each)
    step, module, names, nodes = STEPS[model]
    loss, grad, _ = step()
    for name in names:
        monkeypatch.setattr(module, name, FUSED[name].composite)
    want_loss, want_grad, want_nodes = step()
    assert want_nodes == nodes
    assert bitwise(loss, want_loss)
    assert bitwise(grad, want_grad)


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

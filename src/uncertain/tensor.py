"""Dense float64 tensors with a reverse-mode differentiation tape.

Everything in the package computes on these: n-dimensional row-major float64
arrays with an optional handle into the active :class:`Tape`.  Ops run
eagerly on numpy; when a tape is active and at least one operand is tracked,
the op appends a node to the tape's list.  ``Tape.backward`` then sweeps
that append-only list in reverse, which is already a topological order
because parents are recorded before children, accumulating adjoints in a
list indexed by node id.

Design notes:

* float64 everywhere; GP Cholesky factors and KL terms need the headroom.
* a node is a plain tuple ``(op, parents, rule)``: the op name, one parent
  node id per operand (None for an untracked one), and ``rule``, an
  ``(adjoint, saved)`` pair or None for a leaf.  ``adjoint`` is a
  module-level function and ``saved`` the forward arrays and shapes it
  reads; ``adjoint(adj, *saved)`` returns one adjoint array (or None) per
  operand.  No op builds a closure, so recording a node costs a few tuples.
* a tape lives for one training step; long-lived parameter tensors are
  re-watched on each new tape.  ``Tape.release()`` drops the nodes, freeing
  the forward arrays they saved while the step's tensors still hold the
  tape; a released tape refuses ``backward``.  The tape knows nothing of
  steps: ``training.fit`` releases each step's tape just before the next
  step starts recording.
* tensors not attached to a tape are treated as constants.
* the sparse-GP ops work on matrices of the inducing count (8 in the
  deep-GP demo), where numpy's Python-level wrappers (``np.sum``,
  ``np.swapaxes``, ``np.expand_dims``, ``np.eye``, ``np.tril``) cost more
  than the arithmetic they wrap.  Their bodies and adjoints call ndarray
  methods instead, and take the constant masks they need from
  :func:`masks`, made once per size and read-only so that no caller can
  change what every later call reads.  ``np.tril(a, k)`` is itself
  ``np.where(tri(..., k, dtype=bool), a, 0)``, so a cached boolean mask
  gives it bitwise; where a mask multiplies, the cached float mask is the
  array ``np.eye``/``np.tri`` made, so that product is bitwise too.
* scipy is imported on first use, not with this module: the module globals
  ``dtrtrs``, ``_erf`` and ``_expit`` start as stand-ins that import their
  scipy function on their first call and rebind the global to it (see
  :func:`_from_scipy`).  About half of a fresh CLI process's start-up is
  scipy, and train-flow, ``sample --task flow`` and ``predict --task bnn``
  call none of the three, so they never load it.  Every caller reads the
  global when it runs, so after the first call it reaches scipy directly;
  ``sigmoid`` and ``erf`` are ``_unary`` ops whose forward is a lambda that
  reads the global, not the function bound at import.
"""
from __future__ import annotations

import collections
import functools
import importlib
import math
import operator
import warnings

import numpy as np

from .backend import conv2d_forward, conv2d_grad_input, conv2d_grad_kernel
from .errors import (
    DomainError,
    JitterWarning,
    NotPositiveDefiniteError,
    ShapeError,
    TapeError,
)

LOG_2PI = math.log(2.0 * math.pi)
_FLOAT64 = np.dtype(np.float64)


def _from_scipy(name, module, attr):
    """A stand-in for scipy's ``module.attr``, bound to the module global
    ``name``.  Its first call imports ``module``, rebinds ``name`` to the
    scipy function and returns that call's result; later calls read the
    global and reach scipy directly."""
    def load(*args):
        function = getattr(importlib.import_module(module), attr)
        globals()[name] = function
        return function(*args)

    return load


dtrtrs = _from_scipy("dtrtrs", "scipy.linalg.lapack", "dtrtrs")
_erf = _from_scipy("_erf", "scipy.special", "erf")
_expit = _from_scipy("_expit", "scipy.special", "expit")


class Tensor:
    """n-dimensional float64 array, optionally tracked on a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, values, tape=None, node_id=None):
        # a C-contiguous float64 ndarray is stored as it is, which is what
        # np.asarray would return for it
        if (type(values) is not np.ndarray or values.dtype is not _FLOAT64
                or not values.flags.c_contiguous):
            values = np.asarray(values, dtype=np.float64)
            if values.ndim and not values.flags.c_contiguous:
                # ascontiguousarray would promote 0-d scalars to shape (1,)
                values = np.ascontiguousarray(values)
        self.data = values
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        tracked = f", node_id={self.node_id}" if self.node_id is not None else ""
        return f"Tensor(shape={self.shape}{tracked}, data={self.data!r})"

    # arithmetic sugar; every dunder routes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    @property
    def T(self):
        return transpose(self)


def as_tensor(x) -> Tensor:
    """Coerce scalars and arrays to a Tensor; a Tensor passes through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

_TAPE_STACK: list["Tape"] = []


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Append-only reverse-mode record; use as a context manager."""

    def __init__(self):
        self.nodes: list[tuple] | None = []  # (op, parents, rule)
        self.leaves: list[tuple] = []  # (node id, shape) in watch order

    def __enter__(self):
        if self.nodes is None:
            raise TapeError("this tape was released; record on a new Tape")
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def watch(self, t: Tensor) -> Tensor:
        """Register a leaf parameter on this tape (idempotent)."""
        if self.nodes is None:
            raise TapeError("watch on a released tape")
        if t.tape is self and t.node_id is not None:
            return t
        self.nodes.append(("leaf", (), None))
        t.tape = self
        t.node_id = len(self.nodes) - 1
        self.leaves.append((t.node_id, t.shape))
        return t

    def release(self):
        """Drop the nodes, freeing the forward arrays they saved while the
        step's tensors still hold this tape; ``backward`` and ``watch`` then
        raise :class:`TapeError`, as does releasing a tape that records."""
        if self in _TAPE_STACK:
            raise TapeError("release of a tape that is recording")
        self.nodes = None

    def backward(self, root: Tensor, out=None):
        """Adjoints of a scalar root at the watched leaves as
        ``{node_id: Tensor}``.

        Missing ids have zero gradient.  Given a flat float64 vector ``out``
        as long as the watched leaves' sizes summed, the leaves' adjoints
        are written into it instead, one after another in watch order, with
        zeros for a leaf the root does not reach, and ``out`` is returned.
        """
        if self.nodes is None:
            raise TapeError("backward on a released tape")
        if root.tape is not self or root.node_id is None:
            raise TapeError("backward root is detached from this tape")
        if root.shape != ():
            raise TapeError(
                f"backward root must be a scalar, got shape {list(root.shape)}"
            )
        if out is not None:
            size = sum(math.prod(shape) for _, shape in self.leaves)
            if out.shape != (size,):
                raise TapeError(
                    f"out has shape {list(out.shape)}, expected [{size}] for "
                    f"{len(self.leaves)} watched leaves"
                )
        nodes = self.nodes
        adjoints = [None] * len(nodes)  # None: no adjoint reached the node
        adjoints[root.node_id] = np.ones(())
        for nid in range(root.node_id, -1, -1):
            adj = adjoints[nid]
            if adj is None:
                continue
            _, parents, rule = nodes[nid]
            if rule is None:
                continue
            adjoint, saved = rule
            for pid, contrib in zip(parents, adjoint(adj, *saved)):
                if pid is None or contrib is None:
                    continue
                prev = adjoints[pid]
                adjoints[pid] = contrib if prev is None else prev + contrib
        if out is not None:
            offset = 0
            for nid, shape in self.leaves:
                size = math.prod(shape)
                adj = adjoints[nid]
                out[offset:offset + size].reshape(shape)[...] = (
                    0.0 if adj is None else adj)
                offset += size
            return out
        return {nid: Tensor(adjoints[nid]) for nid, _ in self.leaves
                if adjoints[nid] is not None}


def _apply(op, out_data, parents, rule):
    """Wrap an op result, recording the node ``(op, parent ids, rule)`` when
    the active tape tracks an operand; ``rule`` is ``(adjoint, saved)``."""
    if not _TAPE_STACK:
        return Tensor(out_data)
    tape = _TAPE_STACK[-1]
    pids = tuple([p.node_id if p.tape is tape else None for p in parents])
    if pids.count(None) == len(pids):
        return Tensor(out_data)
    nodes = tape.nodes
    nodes.append((op, pids, rule))
    return Tensor(out_data, tape, len(nodes) - 1)


def _unbroadcast(adj: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce an adjoint over broadcast axes back to the parent's shape."""
    if adj.shape == shape:
        return adj
    extra = adj.ndim - len(shape)
    if extra:
        adj = adj.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and adj.shape[i] != 1)
    if axes:
        adj = adj.sum(axis=axes, keepdims=True)
    return adj


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def _binary(op, forward, adjoint):
    """The tape op ``op``: ``forward(x, y)`` on two broadcast operands,
    recorded with ``adjoint(adj, x, y)``."""
    def binary(a, b):
        a, b = as_tensor(a), as_tensor(b)
        x, y = a.data, b.data
        try:
            out = forward(x, y)
        except ValueError:  # numpy's broadcast failure
            raise ShapeError(
                f"{op}: shapes {list(a.shape)} and {list(b.shape)} "
                "are not broadcast-compatible"
            ) from None
        return _apply(op, out, (a, b), (adjoint, (x, y)))

    binary.__name__ = binary.__qualname__ = op
    return binary


def _unary(op, forward, adjoint):
    """The tape op ``op``: ``forward(x)``, recorded with
    ``adjoint(adj, x, out)``."""
    def unary(a):
        a = as_tensor(a)
        x = a.data
        out = forward(x)
        return _apply(op, out, (a,), (adjoint, (x, out)))

    unary.__name__ = unary.__qualname__ = op
    return unary


def _log(x):
    if (x < 0).any():
        raise DomainError("log of negative input")
    if x.all():
        return np.log(x)
    with np.errstate(divide="ignore"):  # log(0) = -inf, silently
        return np.log(x)


def _sqrt(x):
    if (x < 0).any():
        raise DomainError("sqrt of negative input")
    return np.sqrt(x)


def _softplus(x):
    # log1p(exp(-|x|)) + max(x, 0) never overflows and is exact at +/-inf
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


_ERF_SCALE = 2.0 / math.sqrt(math.pi)

# The binary adjoints test each operand's shape against the output's before
# calling _unbroadcast: most operands have the output's shape, and the test
# costs less than the call.

def _add_adjoint(adj, x, y):
    shape = adj.shape
    return (adj if x.shape == shape else _unbroadcast(adj, x.shape),
            adj if y.shape == shape else _unbroadcast(adj, y.shape))


def _sub_adjoint(adj, x, y):
    shape = adj.shape
    return (adj if x.shape == shape else _unbroadcast(adj, x.shape),
            -adj if y.shape == shape else _unbroadcast(-adj, y.shape))


def _mul_adjoint(adj, x, y):
    shape = adj.shape
    gx, gy = adj * y, adj * x
    return (gx if x.shape == shape else _unbroadcast(gx, x.shape),
            gy if y.shape == shape else _unbroadcast(gy, y.shape))


def _div_adjoint(adj, x, y):
    shape = adj.shape
    gx, gy = adj / y, -adj * x / (y * y)
    return (gx if x.shape == shape else _unbroadcast(gx, x.shape),
            gy if y.shape == shape else _unbroadcast(gy, y.shape))


add = _binary("add", operator.add, _add_adjoint)
sub = _binary("sub", operator.sub, _sub_adjoint)
mul = _binary("mul", operator.mul, _mul_adjoint)
div = _binary("div", operator.truediv, _div_adjoint)

neg = _unary("neg", operator.neg, lambda adj, x, o: (-adj,))
exp = _unary("exp", np.exp, lambda adj, x, o: (adj * o,))
log = _unary("log", _log, lambda adj, x, o: (adj / x,))
sqrt = _unary("sqrt", _sqrt, lambda adj, x, o: (adj / (2.0 * o),))
square = _unary("pow2", lambda x: x * x, lambda adj, x, o: (adj * 2.0 * x,))
tanh = _unary("tanh", np.tanh, lambda adj, x, o: (adj * (1.0 - o * o),))
softplus = _unary("softplus", _softplus, lambda adj, x, o: (adj * _expit(x),))
relu = _unary("relu", lambda x: np.maximum(x, 0.0),
              lambda adj, x, o: (adj * (x > 0.0),))
sin = _unary("sin", np.sin, lambda adj, x, o: (adj * np.cos(x),))
cos = _unary("cos", np.cos, lambda adj, x, o: (-adj * np.sin(x),))
sigmoid = _unary("sigmoid", lambda x: _expit(x),
                 lambda adj, x, o: (adj * o * (1.0 - o),))
erf = _unary("erf", lambda x: _erf(x),
             lambda adj, x, o: (adj * _ERF_SCALE * np.exp(-x * x),))


#: name -> callable, for generic sweeps over the elementwise op set
ELEMENTWISE_UNARY = {
    "neg": neg, "exp": exp, "log": log, "tanh": tanh, "sigmoid": sigmoid,
    "softplus": softplus, "relu": relu, "pow2": square, "sqrt": sqrt,
    "erf": erf, "sin": sin, "cos": cos,
}
ELEMENTWISE_BINARY = {"add": add, "sub": sub, "mul": mul, "div": div}


def softplus_inverse(y: np.ndarray) -> np.ndarray:
    """Numpy helper: x with softplus(x) == y, stable for large y, and exact
    where ``log(expm1(y))`` misses but a neighbour one ulp away hits y."""
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore"):
        small = np.log(np.expm1(np.minimum(y, 30.0)))
    x = np.where(y > 30.0, y, small)
    for toward in (-np.inf, np.inf):  # one ulp down, then up, for a miss
        near = np.nextafter(x, toward)
        x = np.where((_softplus(x) != y) & (_softplus(near) == y), near, x)
    return x


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def _where_adjoint(adj, mask, a_shape, b_shape):
    return (_unbroadcast(np.where(mask, adj, 0.0), a_shape),
            _unbroadcast(np.where(mask, 0.0, adj), b_shape))


def where(mask, a, b):
    """Select elementwise by a constant boolean mask."""
    a, b = as_tensor(a), as_tensor(b)
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, a.data, b.data)
    return _apply("where", out, (a, b),
                  (_where_adjoint, (mask, a.shape, b.shape)))


def _sum_adjoint(adj, shape, axis, keepdims):
    if not keepdims and axis is not None:
        expanded = list(adj.shape)
        for ax in sorted(ax % len(shape) for ax in
                         ((axis,) if isinstance(axis, (int, np.integer))
                          else axis)):
            expanded.insert(ax, 1)
        adj = adj.reshape(expanded)
    return (np.broadcast_to(adj, shape).copy(),)


def tensor_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    return _apply("sum", out, (a,), (_sum_adjoint, (a.shape, axis, keepdims)))


def tensor_mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        count = a.size
    elif isinstance(axis, (int, np.integer)):
        count = a.shape[axis]
    else:
        count = int(np.prod([a.shape[ax] for ax in axis]))
    return tensor_sum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def _reshape_adjoint(adj, shape):
    return (adj.reshape(shape),)


def reshape(a, shape):
    a = as_tensor(a)
    return _apply("reshape", a.data.reshape(shape), (a,),
                  (_reshape_adjoint, (a.shape,)))


def _transpose_adjoint(adj, axes):
    return (adj.transpose(np.argsort(axes)),)


def transpose(a, axes=None):
    a = as_tensor(a)
    out = a.data.transpose(axes)  # raises on an axis out of range
    # non-negative axes, so that the adjoint's argsort inverts the permutation
    axes = (tuple(reversed(range(a.ndim))) if axes is None
            else tuple(ax % a.ndim for ax in axes))
    return _apply("transpose", out, (a,), (_transpose_adjoint, (axes,)))


def _scatter_adjoint(adj, shape, at):
    """The adjoint of ``a[at]``: zeros of ``a``'s shape with ``adj`` at ``at``."""
    full = np.zeros(shape)
    full[at] = adj
    return (full,)


def slice_last(a, start, stop):
    """Contiguous slice along the last axis."""
    a = as_tensor(a)
    at = (Ellipsis, slice(start, stop))
    out = a.data[at].copy()
    return _apply("slice_last", out, (a,), (_scatter_adjoint, (a.shape, at)))


def take(a, index, axis):
    """The slice ``a[..., index, ...]`` at one index of ``axis``, which drops
    that axis."""
    a = as_tensor(a)
    axis = axis % a.ndim
    at = (slice(None),) * axis + (index,)
    out = a.data[at].copy()
    return _apply("take", out, (a,), (_scatter_adjoint, (a.shape, at)))


def _broadcast_to_adjoint(adj, shape):
    return (_unbroadcast(adj, shape),)


def broadcast_to(a, shape):
    """``a`` repeated over new leading axes (or stretched size-1 axes)."""
    a = as_tensor(a)
    out = np.broadcast_to(a.data, shape).copy()
    return _apply("broadcast_to", out, (a,), (_broadcast_to_adjoint, (a.shape,)))


def _concat_adjoint(adj, axis, offsets):
    moved = np.moveaxis(adj, axis, 0)
    return tuple(np.moveaxis(moved[start:stop], 0, axis)
                 for start, stop in zip(offsets[:-1], offsets[1:]))


def concat(parts, axis=-1):
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
    return _apply("concat", out, tuple(parts), (_concat_adjoint, (axis, offsets)))


def _take_last_adjoint(adj, shape, idx):
    full = np.zeros(shape)
    flat = full.reshape(-1, shape[-1])
    rows = np.arange(flat.shape[0])
    np.add.at(flat, (rows, idx.reshape(-1)), adj.reshape(-1))
    return (full,)


def take_last(a, indices):
    """Gather ``a[..., indices[...]]`` with integer indices of shape a.shape[:-1]."""
    a = as_tensor(a)
    idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    idx = idx.astype(np.int64)
    if idx.shape != a.shape[:-1]:
        raise ShapeError(
            f"take_last: index shape {list(idx.shape)} does not match "
            f"leading shape {list(a.shape[:-1])}"
        )
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]
    return _apply("take_last", out, (a,), (_take_last_adjoint, (a.shape, idx)))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _matmul_adjoint(adj, x, y):
    gx, gy = adj @ y.swapaxes(-1, -2), x.swapaxes(-1, -2) @ adj
    return (gx if gx.shape == x.shape else _unbroadcast(gx, x.shape),
            gy if gy.shape == y.shape else _unbroadcast(gy, y.shape))


def matmul(a, b):
    """Matrix product of rank-2 or rank-3 operands.

    A rank-3 operand carries a leading batch axis, and numpy broadcasts it
    against the other operand, which is one GEMM per slice.  The adjoint
    sums over broadcast axes.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise ShapeError(
            f"matmul expects rank-2 or rank-3 operands, got {list(a.shape)} "
            f"and {list(b.shape)}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {list(a.shape)} vs {list(b.shape)}"
        )
    x, y = a.data, b.data
    try:
        out = x @ y
    except ValueError:  # numpy's broadcast failure on the leading axis
        raise ShapeError(
            f"matmul leading axes disagree: {list(a.shape)} vs {list(b.shape)}"
        ) from None
    return _apply("matmul", out, (a, b), (_matmul_adjoint, (x, y)))


def _tracked(t, tape):
    """Whether ``t`` is recorded on ``tape``, so an op must give it an adjoint."""
    return tape is not None and t.tape is tape and t.node_id is not None

def _se_kernel_adjoint(adj, xd, x2d, out, dist, inv_2ell2, x_tracked,
                       x2_tracked):
    a = adj * out
    g_amp = a.sum() * 2.0
    g_ell = (a * dist).sum() * (inv_2ell2 * 2.0)
    w = np.where(dist > 0.0, a, 0.0) * (inv_2ell2 * 2.0)
    gx = gx2 = None
    if x_tracked:
        gx = w @ x2d - w.sum(axis=-1, keepdims=True) * xd
        if gx.ndim == 3:  # every slice shares x
            gx = gx.sum(axis=0)
    if x2_tracked:
        gx2 = (w.swapaxes(-1, -2) @ xd
               - w.sum(axis=-2, keepdims=True).swapaxes(-1, -2) * x2d)
    return gx, gx2, g_amp, g_ell


def se_kernel(x, x2, log_amplitude, log_lengthscale):
    """Squared-exponential Gram matrix as one op:
    k(x, x') = a^2 exp(-||x - x'||^2 / (2 l^2)) with a = exp(log_amplitude)
    and l = exp(log_lengthscale).

    ``x`` is [n, d] and ``x2`` [m, d], giving [n, m], or a stack [S, m, d],
    giving [S, n, m] with one GEMM per slice.  The squared distance is
    ||x||^2 + ||x'||^2 - 2 x x'^T, clamped at 0 where rounding pushes it
    below.  The adjoints are closed form (Rasmussen & Williams 2006, ch. 5):
    with A = adj * k and W = A / l^2 where the distance is unclamped (0 where
    clamped), d/dx = W x2 - rowsum(W) x, d/dx2 = W^T x - colsum(W) x2,
    d/dlog_amplitude = 2 sum(A) and d/dlog_lengthscale = sum(A * dist) / l^2.
    Passing one tensor as both ``x`` and ``x2`` is fine: the tape adds the
    two adjoints.
    """
    x, x2 = as_tensor(x), as_tensor(x2)
    log_amplitude = as_tensor(log_amplitude)
    log_lengthscale = as_tensor(log_lengthscale)
    xd, x2d = x.data, x2.data
    sq_x = (xd * xd).sum(axis=1, keepdims=True)
    sq_x2 = (x2d * x2d).sum(axis=-1, keepdims=True)
    # in place, with the operations of (sq_x + sq_x2^T) - (x x2^T) * 2.0 and
    # then a^2 * exp(-dist / (2 l^2)), so the cross term's buffer becomes the
    # output; x2^T is C-ordered, as a transposed Tensor would be, so the GEMM
    # rounds alike
    out = xd @ np.ascontiguousarray(x2d.swapaxes(-1, -2))
    out *= 2.0
    dist = sq_x + sq_x2.swapaxes(-1, -2)
    dist -= out
    # rounding can push tiny distances slightly negative
    np.copyto(dist, 0.0, where=~(dist > 0.0))
    amp2 = np.exp(log_amplitude.data * 2.0)
    inv_2ell2 = np.exp(log_lengthscale.data * -2.0) * 0.5
    np.negative(dist, out=out)
    out *= inv_2ell2
    np.exp(out, out=out)
    np.multiply(amp2, out, out=out)
    tape = active_tape()
    saved = (xd, x2d, out, dist, inv_2ell2, _tracked(x, tape), _tracked(x2, tape))
    return _apply("se_kernel", out, (x, x2, log_amplitude, log_lengthscale),
                  (_se_kernel_adjoint, saved))



def _se_kernel_diag_adjoint(adj, amp2):
    return (adj.sum() * amp2 * 2.0,)


def se_kernel_diag(x, log_amplitude):
    """The diagonal k(x_i, x_i) = a^2 of ``se_kernel(x, x, ...)`` over the
    rows of ``x`` [..., d], shape ``x.shape[:-1]``, as one op; it does not
    depend on the values of ``x``."""
    log_amplitude = as_tensor(log_amplitude)
    amp2 = np.exp(log_amplitude.data * 2.0)
    out = amp2 * np.ones(as_tensor(x).shape[:-1])
    return _apply("se_kernel_diag", out, (log_amplitude,),
                  (_se_kernel_diag_adjoint, (amp2,)))


def _coupling_scale_adjoint(adj, active, bound, o):
    return (((adj * active) * bound) * (1.0 - o * o),)


def coupling_scale(raw_scale, bound, active):
    """A flow coupling's log-scale ``(tanh(raw_scale) * bound) * active`` as
    one op, for a constant ``bound`` and a constant 0/1 ``active`` mask that
    does not broadcast ``raw_scale`` to a larger shape.

    The forward value and the adjoint ``((adj * active) * bound) *
    (1 - tanh^2)`` are bitwise those of the composite ``tanh``, ``mul``,
    ``mul`` it replaces, which records three nodes.
    """
    raw_scale = as_tensor(raw_scale)
    active = as_tensor(active).data
    o = np.tanh(raw_scale.data)
    out = (o * bound) * active
    if out.shape != raw_scale.shape:  # the adjoint skips _unbroadcast
        raise ShapeError(f"coupling_scale needs operands of the output's "
                         f"shape {out.shape}, got {raw_scale.shape}")
    return _apply("coupling_scale", out, (raw_scale,),
                  (_coupling_scale_adjoint, (active, bound, o)))


def _coupling_inverse_adjoint(adj, active, d, e):
    gp = adj * active
    ge = gp * e
    return (adj, ge, (-ge) * active, -((gp * d) * e))


def coupling_inverse(anchored, y, shift, scale, active):
    """The inverse affine map of a flow coupling,
    ``anchored + active * ((y - shift * active) * exp(-scale))``, as one op
    for operands of one shape and a constant 0/1 ``active`` mask that does
    not broadcast them to a larger one.

    With ``gp = adj * active``, ``e = exp(-scale)`` and
    ``d = y - shift * active``, the adjoints are ``adj`` for ``anchored``,
    ``gp * e`` for ``y``, ``(-(gp * e)) * active`` for ``shift`` and
    ``-((gp * d) * e)`` for ``scale``.  These are the floating-point
    operations of the seven-node composite it replaces, in its order, so the
    value and every adjoint are bitwise the composite's.
    """
    anchored, y = as_tensor(anchored), as_tensor(y)
    shift, scale = as_tensor(shift), as_tensor(scale)
    active = as_tensor(active).data
    d = y.data - shift.data * active
    e = np.exp(-scale.data)
    out = anchored.data + active * (d * e)
    shapes = [anchored.shape, y.shape, shift.shape, scale.shape]
    if shapes.count(out.shape) != 4:  # the adjoints skip _unbroadcast
        raise ShapeError(f"coupling_inverse needs operands of the output's "
                         f"shape {out.shape}, got {shapes}")
    return _apply("coupling_inverse", out, (anchored, y, shift, scale),
                  (_coupling_inverse_adjoint, (active, d, e)))


Masks = collections.namedtuple("Masks", "eye strict lower identity below")


@functools.lru_cache(maxsize=8)
def masks(n):
    """Read-only [n, n] masks, made once per size: the boolean diagonal
    ``eye``, strict lower triangle ``strict`` and lower triangle ``lower``,
    and as float 0/1 arrays the diagonal ``identity`` (``np.eye(n)``) and
    the strict lower triangle ``below`` (``np.tri(n, k=-1)``)."""
    eye = np.eye(n, dtype=bool)
    strict = np.tri(n, k=-1, dtype=bool)
    made = Masks(eye, strict, np.tri(n, dtype=bool), eye.astype(np.float64),
                 strict.astype(np.float64))
    for mask in made:
        mask.flags.writeable = False
    return made


def _whitened_scale(raw):
    """The stack of lower factors ``L_v = raw * tril(1, -1) + softplus(raw) * I``
    of the [units, M, M] raw parameters, with ``softplus(raw) * I`` and the
    two constant float masks; the unused upper triangle of ``raw`` reads as 0."""
    m = masks(raw.shape[-1])
    diag = _softplus(raw) * m.identity
    return raw * m.below + diag, diag, m.below, m.identity


# The whitened ops' adjoints broadcast a scalar or a row where the composite
# materialized a copy of it, which leaves every element's operations as they
# were.

def _whitened_variance_adjoint(adj, mask, p, st, raw, tril, eye, shapes):
    kdiag_shape, base_shape, extra_shape = shapes
    g = np.where(mask, adj, 0.0)
    gbase = _unbroadcast(g, base_shape + (1,)).reshape(base_shape)
    gextra = g.swapaxes(-1, -2)[..., None, :]
    # the forward squared L_v^T proj in place, so the same GEMM recomputes
    # it; C order, as the composite's copy was, so the GEMMs below round alike
    ghalf = st @ p
    half = ghalf.reshape(extra_shape)
    np.multiply(gextra * 2.0, half, out=half)
    gst = _unbroadcast(ghalf @ p.swapaxes(-1, -2), st.shape)
    units, m = raw.shape[0], raw.shape[-1]
    gscale = gst.reshape(units, m, m).transpose(0, 2, 1)
    graw = gscale * tril + gscale * eye * _expit(raw)
    gsq = ((-gbase)[..., None, :] * 2.0) * p
    gproj = st.swapaxes(-1, -2) @ ghalf + gsq
    return _unbroadcast(gbase, kdiag_shape), gproj, graw


def whitened_variance(kdiag, proj, scale_raw, floor):
    """The marginal variances of a whitened sparse GP as one op.

    ``proj`` is L^-1 K_zx [M, batch], or an [S, M, batch] stack with one
    slice per Monte-Carlo sample, ``kdiag`` is k(x, x) over the batch
    ([batch] or [S, batch]) and ``scale_raw`` the [units, M, M] raw factors
    of q(v), turned into ``L_v`` as ``_whitened_scale`` does.  Unit u's
    variance at column j is ``kdiag_j - ||proj_j||^2 + ||L_v,u^T proj_j||^2``,
    clamped below at ``floor``, shape [batch, units] (or [S, batch, units]).

    With ``G`` [batch, units] the output's adjoint, zeroed where the clamp
    bites, ``g_u`` the row ``G[:, u]^T`` and ``H_u = L_v,u^T proj``, the
    adjoints are ``sum_u g_u`` for ``kdiag``,
    ``sum_u 2 L_v,u (H_u * g_u) - 2 proj * sum_u g_u`` for ``proj`` and
    ``2 proj (H_u * g_u)^T`` for ``L_v,u``, which reaches ``scale_raw``
    through the tril mask and, on the diagonal, softplus' = sigmoid.

    The forward value and each adjoint run the floating-point operations of
    the composite this op replaces, in its order (``sub``, ``pow2`` and
    ``sum`` for the base variance, the factor's ``softplus``, ``mul`` and
    ``add``, a ``matmul`` of the transposed factors, reshapes, transposes,
    an ``add`` and a ``where`` clamp: 17 nodes), so they are bitwise the
    composite's.  The forward pass squares ``L_v^T proj``, the largest
    array here ([S, units * M, batch]), in place and keeps neither it nor
    its square; the adjoint recomputes the product, the same GEMM on the
    same operands at the same shape, so it gets the same bits.
    """
    kdiag, proj, scale_raw = as_tensor(kdiag), as_tensor(proj), as_tensor(scale_raw)
    p, raw = proj.data, scale_raw.data
    units, m = raw.shape[0], raw.shape[-1]
    lead, batch = p.shape[:-2], p.shape[-1]
    base = kdiag.data - (p * p).sum(axis=-2)
    scale, _, tril, eye = _whitened_scale(raw)
    st = np.ascontiguousarray(scale.transpose(0, 2, 1)).reshape(units * m, m)
    sq = st @ p  # L_v^T proj, one [units * M, batch] block per sample
    sq *= sq  # squared in place; the adjoint recomputes the product
    extra_shape = lead + (units, m, batch)
    extra = sq.reshape(extra_shape).sum(axis=-2)
    del sq  # the largest array here, freed before the outputs are made
    # in C order, so the clamp's output is too and the Tensor holds it as is
    variance = np.add(extra.swapaxes(-1, -2), base.reshape(base.shape + (1,)),
                      order="C")
    mask = variance > floor
    out = np.where(mask, variance, floor)
    shapes = (kdiag.shape, base.shape, extra_shape)
    return _apply("whitened_variance", out, (kdiag, proj, scale_raw),
                  (_whitened_variance_adjoint,
                   (mask, p, st, raw, tril, eye, shapes)))


def _whitened_kl_adjoint(adj, raw, mu, scale, dsum, tril, eye):
    half_adj = adj * 0.5
    gsq = (half_adj * 2.0) * scale
    gdiag = (-adj / dsum)[:, :, None] + gsq
    graw = gsq * tril + gdiag * eye * _expit(raw)
    return graw, (half_adj * 2.0) * mu


def whitened_kl(scale_raw, whitened_mean):
    """The KL of a whitened sparse GP's q(v) against N(0, I), summed over
    units, as one op:
    ``0.5 (||L_v||_F^2 + ||m_v||^2 - units M) - sum(log diag L_v)`` with
    ``L_v`` from the [units, M, M] ``scale_raw`` as ``_whitened_scale``
    builds it and ``whitened_mean`` m_v [M, units].

    The forward value and both adjoints run the floating-point operations
    of the composite it replaces (the factor's ``softplus``, ``mul`` and
    ``add``, ``pow2``, ``sum``, ``log``, ``add``, ``sub`` and ``mul``: 15
    nodes), in its order, so they are bitwise the composite's.  A tape that
    also records ``whitened_variance`` on the same ``scale_raw`` adds the
    two ops' adjoints in the raw space, as the two composites, each with
    its own ``L_v``, do.
    """
    scale_raw, whitened_mean = as_tensor(scale_raw), as_tensor(whitened_mean)
    raw, mu = scale_raw.data, whitened_mean.data
    scale, diag, tril, eye = _whitened_scale(raw)
    dsum = diag.sum(axis=2)
    log_diag = _log(dsum)
    count = raw.shape[0] * raw.shape[-1]
    out = ((scale * scale).sum() + (mu * mu).sum() - count) * 0.5 - log_diag.sum()
    return _apply("whitened_kl", out, (scale_raw, whitened_mean),
                  (_whitened_kl_adjoint, (raw, mu, scale, dsum, tril, eye)))


def _diag_part_adjoint(adj, n):
    full = np.zeros((n, n))
    np.fill_diagonal(full, adj)
    return (full,)


def diag_part(a):
    a = as_tensor(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"diag_part expects a square matrix, got {list(a.shape)}")
    out = np.diag(a.data).copy()
    return _apply("diag_part", out, (a,), (_diag_part_adjoint, (a.shape[0],)))


_JITTERS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def chol_with_jitter(a: np.ndarray):
    """Lower Cholesky factor, escalating diagonal jitter on failure."""
    eye = masks(a.shape[0]).identity
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(a + jitter * eye), jitter
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefiniteError(
        f"matrix is not positive definite even with jitter {_JITTERS[-1]:g}"
    )


def _check_square(a, op):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{op} expects a square matrix, got {list(a.shape)}")

def _cholesky_adjoint(adj, L):
    m = masks(L.shape[0])
    lbar = np.where(m.lower, adj, 0.0)
    p = L.T @ lbar
    phi = np.where(m.strict, p, 0.0) + 0.5 * np.where(m.eye, p, 0.0)
    # S = L^{-T} phi L^{-1}
    x = _solve_lower(L, phi, trans=1)
    s = _solve_lower(L, x.T, trans=1).T
    return (0.5 * (s + s.T),)


def cholesky(a):
    """Lower Cholesky factor with jitter escalation, differentiable in ``a``.

    The adjoint is correct when contracted against symmetric perturbations,
    which is the only way a covariance matrix is ever built here.
    """
    a = as_tensor(a)
    _check_square(a, "cholesky")
    L, jitter = chol_with_jitter(a.data)
    if jitter > 0.0:
        warnings.warn(JitterWarning(
            f"cholesky factored a {L.shape[0]}x{L.shape[0]} matrix only after "
            f"adding jitter {jitter:g} to its diagonal"), stacklevel=2)
    return _apply("cholesky", L, (a,), (_cholesky_adjoint, (L,)))



def solve_triangular(l, b, trans):
    """One LAPACK ``trtrs`` solve of ``l x = b`` (``trans=1``: ``l^T x = b``)
    for a lower-triangular ``l`` and a non-empty matrix ``b``, both known
    finite.

    The operands and flags are the ones scipy's ``solve_triangular`` passes,
    so the result is bitwise its result: trtrs reads Fortran order, so a
    C-ordered ``l`` is handed over as the upper factor ``l.T`` of the
    transposed system.
    """
    if l.flags.f_contiguous:
        x, info = dtrtrs(l, b, 1, trans)
    else:
        x, info = dtrtrs(l.T, b, 0, 1 - trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _solve_lower(l, b, trans=0):
    """``l^-1 b`` (``trans=1``: ``l^-T b``) for lower ``l`` and a matrix
    ``b``, or a stack ``b`` [S, n, k] solved one slice at a time, so each
    slice gets the LAPACK call a lone matrix gets.

    Like scipy, a non-finite ``l`` or ``b`` raises ``ValueError`` and an
    empty ``b`` gives an empty result; the check runs once per call, not
    once per slice.
    """
    if not (np.isfinite(l).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if b.size == 0:
        return np.empty_like(b)
    if b.ndim == 2:
        return solve_triangular(l, b, trans)
    out = np.empty(b.shape)
    for s, b_s in enumerate(b):
        out[s] = solve_triangular(l, b_s, trans)
    return out


def _triangular_solve_adjoint(adj, l, x):
    gb = _solve_lower(l, adj, trans=1)
    gl = gb @ x.swapaxes(-1, -2)
    if gl.ndim == 3:  # every slice shares l, so their terms add up
        gl = gl.sum(axis=0)
    return (-np.where(masks(l.shape[0]).lower, gl, 0.0), gb)


def triangular_solve(l, b):
    """``x = l^-1 b`` for lower-triangular ``l`` and a matrix ``b``, or a
    stack of matrices ``b`` [S, n, k], each solved as on its own.

    Only the lower triangle of ``l`` is read, and only it gets an adjoint.
    """
    l, b = as_tensor(l), as_tensor(b)
    _check_square(l, "triangular_solve")
    if b.ndim not in (2, 3) or b.shape[-2] != l.shape[0]:
        raise ShapeError(
            f"triangular_solve: incompatible shapes {list(l.shape)} and "
            f"{list(b.shape)}"
        )
    x = _solve_lower(l.data, b.data)
    return _apply("triangular_solve", x, (l, b),
                  (_triangular_solve_adjoint, (l.data, x)))


# ---------------------------------------------------------------------------
# composite reductions
# ---------------------------------------------------------------------------

def logsumexp(a, axis=-1, keepdims=False):
    """Stable log-sum-exp; the max shift is a constant, which leaves the
    softmax gradient intact."""
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = tensor_sum(exp(a - Tensor(m)), axis=axis, keepdims=True)
    out = log(shifted) + Tensor(m)
    if keepdims:
        return out
    return reshape(out, m.squeeze(axis).shape)


def log_softmax(a, axis=-1):
    return as_tensor(a) - logsumexp(a, axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _same_pad(extent, k, stride):
    out = -(-extent // stride)
    total = max((out - 1) * stride + k - extent, 0)
    return total // 2, total - total // 2


def _conv2d_adjoint(adj, xp, kernel, stride, top, left, h, w, x_tracked):
    """``xp`` is the padded input, ``(top, left)`` where ``x`` starts in it."""
    dx = None
    if x_tracked:
        dxp = conv2d_grad_input(adj, kernel, stride, xp.shape[1], xp.shape[2])
        dx = dxp[:, top:top + h, left:left + w, :]
    return (dx, conv2d_grad_kernel(xp, adj, kernel.shape[0], kernel.shape[1],
                                   stride))


def conv2d(x, kernel, stride=1, padding="same"):
    """2-D cross-correlation in NHWC/(kh, kw, c_in, c_out) layout.

    ``same`` keeps ceil(extent / stride); ``valid`` uses only full windows.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got {list(x.shape)}")
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d kernel must be rank 4, got {list(kernel.shape)}")
    if x.shape[3] != kernel.shape[2]:
        raise ShapeError(
            f"conv2d channel mismatch: input {list(x.shape)} vs kernel "
            f"{list(kernel.shape)}"
        )
    if padding not in ("same", "valid"):
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    if stride < 1 or stride != int(stride):
        raise ValueError(f"conv2d stride must be an integer >= 1, got {stride!r}")
    stride = int(stride)
    b, h, w, ci = x.shape
    kh, kw = kernel.shape[0], kernel.shape[1]
    if padding == "same":
        pt, pb = _same_pad(h, kh, stride)
        pl, pr = _same_pad(w, kw, stride)
    else:
        pt = pb = pl = pr = 0
    hp, wp = h + pt + pb, w + pl + pr
    if kh > hp or kw > wp:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input {hp}x{wp}"
        )
    xp = np.zeros((b, hp, wp, ci))
    xp[:, pt:pt + h, pl:pl + w] = x.data
    out = conv2d_forward(xp, kernel.data, stride)
    # an untracked x, such as the data batch of a model's first conv, needs no adjoint
    saved = (xp, kernel.data, stride, pt, pl, h, w, _tracked(x, active_tape()))
    return _apply("conv2d", out, (x, kernel), (_conv2d_adjoint, saved))


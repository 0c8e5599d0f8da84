"""Dense float64 tensors with a reverse-mode differentiation tape.

Everything in the package computes on these: n-dimensional row-major float64
arrays with an optional handle into the active :class:`Tape`.  Ops run
eagerly on numpy; when a tape is active and at least one operand is tracked,
the op appends a node carrying its adjoint rule.  ``Tape.backward`` then
sweeps the append-only node list in reverse, which is already a topological
order because parents are recorded before children.

Design notes:

* float64 everywhere; GP Cholesky factors and KL terms need the headroom.
* a tape lives for one training step; long-lived parameter tensors are
  re-watched on each new tape.  Its nodes, adjoint closures and tracked
  tensors form a reference cycle, so ``Tape.release()`` drops the nodes,
  freeing the saved forward arrays without the cyclic GC; a released tape
  refuses ``backward``.  ``training.fit`` releases each step's tape.
* tensors not attached to a tape are treated as constants.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import erf as _erf, expit as _expit

from .backend import conv2d_forward, conv2d_grad_input, conv2d_grad_kernel
from .errors import (
    DomainError,
    NotPositiveDefiniteError,
    ShapeError,
    TapeError,
)

LOG_2PI = math.log(2.0 * math.pi)


class Tensor:
    """n-dimensional float64 array, optionally tracked on a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, values, tape=None, node_id=None):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would promote 0-d scalars to shape (1,)
            arr = np.ascontiguousarray(arr)
        self.data = arr
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

class Node:
    """One recorded op: kind, parent node ids, and its adjoint rule.

    ``backward(adj)`` returns one adjoint array (or None) per parent; saved
    forward values live in the closure.  Leaves carry ``backward=None``.
    """

    __slots__ = ("op", "parents", "backward")

    def __init__(self, op, parents, backward):
        self.op = op
        self.parents = parents
        self.backward = backward


_TAPE_STACK: list["Tape"] = []


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Append-only reverse-mode record; use as a context manager.

    ``Tape(replaces=old)`` releases the finished tape ``old`` when it records
    its first op, so a training step frees the previous step's arrays once
    its own forward pass has started, and the rest of the step reuses that
    memory (see ``training.fit``).
    """

    def __init__(self, replaces: "Tape | None" = None):
        self.nodes: list[Node] | None = []
        self.leaves: list[tuple] = []  # (node id, shape) in watch order
        self.replaces = replaces

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
        if t.tape is self and t.node_id is not None:
            return t
        t.tape = self
        t.node_id = self._record("leaf", (), None)
        self.leaves.append((t.node_id, t.shape))
        return t

    def _record(self, op, parent_ids, backward) -> int:
        self.nodes.append(Node(op, tuple(parent_ids), backward))
        return len(self.nodes) - 1

    def release(self):
        """Drop the nodes, freeing the forward arrays their adjoints saved
        now rather than by the cyclic GC; ``backward`` then raises
        :class:`TapeError`."""
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
        adjoints: dict[int, np.ndarray] = {root.node_id: np.ones(())}
        for nid in range(root.node_id, -1, -1):
            adj = adjoints.get(nid)
            if adj is None:
                continue
            node = self.nodes[nid]
            if node.backward is None:
                continue
            for pid, contrib in zip(node.parents, node.backward(adj)):
                if pid is None or contrib is None:
                    continue
                if pid in adjoints:
                    adjoints[pid] = adjoints[pid] + contrib
                else:
                    adjoints[pid] = contrib
        if out is not None:
            offset = 0
            for nid, shape in self.leaves:
                size = math.prod(shape)
                adj = adjoints.get(nid)
                out[offset:offset + size].reshape(shape)[...] = (
                    0.0 if adj is None else adj)
                offset += size
            return out
        return {
            nid: Tensor(a)
            for nid, a in adjoints.items()
            if self.nodes[nid].op == "leaf"
        }


def _apply(op, out_data, parents, backward):
    """Wrap an op result, recording a node when the active tape tracks it."""
    tape = active_tape()
    if tape is None:
        return Tensor(out_data)
    pids = tuple(
        p.node_id if (p.tape is tape and p.node_id is not None) else None
        for p in parents
    )
    if all(pid is None for pid in pids):
        return Tensor(out_data)
    t = Tensor(out_data)
    t.tape = tape
    t.node_id = tape._record(op, pids, backward)
    if tape.replaces is not None:
        tape.replaces.release()
        tape.replaces = None
    return t


def _unbroadcast(adj: np.ndarray, shape) -> np.ndarray:
    """Reduce an adjoint over broadcast axes back to the parent's shape."""
    if adj.shape == tuple(shape):
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

def _binary(op, a, b, forward, grad_a, grad_b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = forward(a.data, b.data)
    except ValueError:  # numpy's broadcast failure
        raise ShapeError(
            f"{op}: shapes {list(a.shape)} and {list(b.shape)} "
            "are not broadcast-compatible"
        ) from None

    def backward(adj):
        return (
            _unbroadcast(grad_a(adj, a.data, b.data, out), a.shape),
            _unbroadcast(grad_b(adj, a.data, b.data, out), b.shape),
        )

    return _apply(op, out, (a, b), backward)


def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda adj, x, y, o: adj, lambda adj, x, y, o: adj)


def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda adj, x, y, o: adj, lambda adj, x, y, o: -adj)


def mul(a, b):
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda adj, x, y, o: adj * y, lambda adj, x, y, o: adj * x)


def div(a, b):
    return _binary("div", a, b, lambda x, y: x / y,
                   lambda adj, x, y, o: adj / y,
                   lambda adj, x, y, o: -adj * x / (y * y))


def _unary(op, a, out, grad):
    a = as_tensor(a)

    def backward(adj):
        return (grad(adj, a.data, out),)

    return _apply(op, out, (a,), backward)


def neg(a):
    a = as_tensor(a)
    return _unary("neg", a, -a.data, lambda adj, x, o: -adj)


def exp(a):
    a = as_tensor(a)
    return _unary("exp", a, np.exp(a.data), lambda adj, x, o: adj * o)


def log(a):
    a = as_tensor(a)
    if np.any(a.data < 0):
        raise DomainError("log of negative input")
    with np.errstate(divide="ignore"):
        out = np.log(a.data)
    return _unary("log", a, out, lambda adj, x, o: adj / x)


def sqrt(a):
    a = as_tensor(a)
    if np.any(a.data < 0):
        raise DomainError("sqrt of negative input")
    out = np.sqrt(a.data)
    return _unary("sqrt", a, out, lambda adj, x, o: adj / (2.0 * o))


def square(a):
    a = as_tensor(a)
    return _unary("pow2", a, a.data * a.data, lambda adj, x, o: adj * 2.0 * x)


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _unary("tanh", a, out, lambda adj, x, o: adj * (1.0 - o * o))


def sigmoid(a):
    a = as_tensor(a)
    out = _expit(a.data)
    return _unary("sigmoid", a, out, lambda adj, x, o: adj * o * (1.0 - o))


def softplus(a):
    # log1p(exp(-|x|)) + max(x, 0) never overflows and is exact at +/-inf
    a = as_tensor(a)
    out = np.log1p(np.exp(-np.abs(a.data))) + np.maximum(a.data, 0.0)
    return _unary("softplus", a, out, lambda adj, x, o: adj * _expit(x))


def relu(a):
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)
    return _unary("relu", a, out, lambda adj, x, o: adj * (x > 0.0))


def erf(a):
    a = as_tensor(a)
    out = _erf(a.data)
    scale = 2.0 / math.sqrt(math.pi)
    return _unary("erf", a, out,
                  lambda adj, x, o: adj * scale * np.exp(-x * x))


def sin(a):
    a = as_tensor(a)
    return _unary("sin", a, np.sin(a.data), lambda adj, x, o: adj * np.cos(x))


def cos(a):
    a = as_tensor(a)
    return _unary("cos", a, np.cos(a.data), lambda adj, x, o: -adj * np.sin(x))


#: name -> callable, for generic sweeps over the elementwise op set
ELEMENTWISE_UNARY = {
    "neg": neg, "exp": exp, "log": log, "tanh": tanh, "sigmoid": sigmoid,
    "softplus": softplus, "relu": relu, "pow2": square, "sqrt": sqrt,
    "erf": erf, "sin": sin, "cos": cos,
}
ELEMENTWISE_BINARY = {"add": add, "sub": sub, "mul": mul, "div": div}


def softplus_inverse(y: np.ndarray) -> np.ndarray:
    """Numpy helper: x with softplus(x) == y, stable for large y."""
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore"):
        small = np.log(np.expm1(np.minimum(y, 30.0)))
    return np.where(y > 30.0, y, small)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def where(mask, a, b):
    """Select elementwise by a constant boolean mask."""
    a, b = as_tensor(a), as_tensor(b)
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, a.data, b.data)

    def backward(adj):
        return (
            _unbroadcast(np.where(mask, adj, 0.0), a.shape),
            _unbroadcast(np.where(mask, 0.0, adj), b.shape),
        )

    return _apply("where", out, (a, b), backward)


def tensor_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = np.sum(a.data, axis=axis, keepdims=keepdims)
    shape = a.shape
    if axis is None:
        axes = tuple(range(len(shape)))
    elif isinstance(axis, int):
        axes = (axis % len(shape),)
    else:
        axes = tuple(ax % len(shape) for ax in axis)

    def backward(adj):
        if not keepdims:
            expanded = list(adj.shape)
            for ax in sorted(axes):
                expanded.insert(ax, 1)
            adj = adj.reshape(expanded)
        return (np.broadcast_to(adj, shape).copy(),)

    return _apply("sum", out, (a,), backward)


def tensor_mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        count = a.size
    elif isinstance(axis, int):
        count = a.shape[axis]
    else:
        count = int(np.prod([a.shape[ax] for ax in axis]))
    return tensor_sum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(a, shape):
    a = as_tensor(a)
    out = a.data.reshape(shape)
    old = a.shape

    def backward(adj):
        return (adj.reshape(old),)

    return _apply("reshape", out, (a,), backward)


def transpose(a, axes=None):
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    out = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def backward(adj):
        return (np.transpose(adj, inverse),)

    return _apply("transpose", out, (a,), backward)


def slice_last(a, start, stop):
    """Contiguous slice along the last axis."""
    a = as_tensor(a)
    out = a.data[..., start:stop].copy()
    shape = a.shape

    def backward(adj):
        full = np.zeros(shape)
        full[..., start:stop] = adj
        return (full,)

    return _apply("slice_last", out, (a,), backward)


def take(a, index, axis):
    """The slice ``a[..., index, ...]`` at one index of ``axis``, which drops
    that axis."""
    a = as_tensor(a)
    axis = axis % a.ndim
    at = (slice(None),) * axis + (index,)
    out = a.data[at].copy()
    shape = a.shape

    def backward(adj):
        full = np.zeros(shape)
        full[at] = adj
        return (full,)

    return _apply("take", out, (a,), backward)


def broadcast_to(a, shape):
    """``a`` repeated over new leading axes (or stretched size-1 axes)."""
    a = as_tensor(a)
    out = np.broadcast_to(a.data, shape).copy()
    old = a.shape

    def backward(adj):
        return (_unbroadcast(adj, old),)

    return _apply("broadcast_to", out, (a,), backward)


def concat(parts, axis=-1):
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(adj):
        moved = np.moveaxis(adj, axis, 0)
        return tuple(
            np.moveaxis(moved[offsets[i]:offsets[i + 1]], 0, axis)
            for i in range(len(parts))
        )

    return _apply("concat", out, tuple(parts), backward)


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
    shape = a.shape

    def backward(adj):
        full = np.zeros(shape)
        flat = full.reshape(-1, shape[-1])
        rows = np.arange(flat.shape[0])
        np.add.at(flat, (rows, idx.reshape(-1)), adj.reshape(-1))
        return (full,)

    return _apply("take_last", out, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

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
    try:
        out = a.data @ b.data
    except ValueError:  # numpy's broadcast failure on the leading axis
        raise ShapeError(
            f"matmul leading axes disagree: {list(a.shape)} vs {list(b.shape)}"
        ) from None

    def backward(adj):
        return (
            _unbroadcast(adj @ b.data.swapaxes(-1, -2), a.shape),
            _unbroadcast(a.data.swapaxes(-1, -2) @ adj, b.shape),
        )

    return _apply("matmul", out, (a, b), backward)


def _tracked(t, tape):
    """Whether ``t`` is recorded on ``tape``, so an op must give it an adjoint."""
    return tape is not None and t.tape is tape and t.node_id is not None


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
    sq_x = np.sum(xd * xd, axis=1, keepdims=True)
    sq_x2 = np.sum(x2d * x2d, axis=-1, keepdims=True)
    # a C-ordered x2^T, as a transposed Tensor would be, so the GEMM rounds alike
    x2t = np.ascontiguousarray(np.swapaxes(x2d, -1, -2))
    dist = (sq_x + np.swapaxes(sq_x2, -1, -2)) - (xd @ x2t) * 2.0
    # rounding can push tiny distances slightly negative
    dist = np.where(dist > 0.0, dist, 0.0)
    amp2 = np.exp(log_amplitude.data * 2.0)
    inv_2ell2 = np.exp(log_lengthscale.data * -2.0) * 0.5
    out = amp2 * np.exp(-dist * inv_2ell2)
    tape = active_tape()
    x_tracked, x2_tracked = _tracked(x, tape), _tracked(x2, tape)

    def backward(adj):
        a = adj * out
        g_amp = np.sum(a) * 2.0
        g_ell = np.sum(a * dist) * (inv_2ell2 * 2.0)
        w = np.where(dist > 0.0, a, 0.0) * (inv_2ell2 * 2.0)
        gx = gx2 = None
        if x_tracked:
            gx = w @ x2d - np.sum(w, axis=-1, keepdims=True) * xd
            if gx.ndim == 3:  # every slice shares x
                gx = gx.sum(axis=0)
        if x2_tracked:
            gx2 = (np.swapaxes(w, -1, -2) @ xd
                   - np.swapaxes(np.sum(w, axis=-2, keepdims=True), -1, -2) * x2d)
        return gx, gx2, g_amp, g_ell

    return _apply("se_kernel", out, (x, x2, log_amplitude, log_lengthscale),
                  backward)


def se_kernel_diag(x, log_amplitude):
    """The diagonal k(x_i, x_i) = a^2 of ``se_kernel(x, x, ...)`` over the
    rows of ``x`` [..., d], shape ``x.shape[:-1]``, as one op; it does not
    depend on the values of ``x``."""
    log_amplitude = as_tensor(log_amplitude)
    amp2 = np.exp(log_amplitude.data * 2.0)
    out = amp2 * np.ones(as_tensor(x).shape[:-1])

    def backward(adj):
        return (np.sum(adj) * amp2 * 2.0,)

    return _apply("se_kernel_diag", out, (log_amplitude,), backward)


def diag_part(a):
    a = as_tensor(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"diag_part expects a square matrix, got {list(a.shape)}")
    out = np.diag(a.data).copy()
    n = a.shape[0]

    def backward(adj):
        full = np.zeros((n, n))
        np.fill_diagonal(full, adj)
        return (full,)

    return _apply("diag_part", out, (a,), backward)


_JITTERS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def chol_with_jitter(a: np.ndarray):
    """Lower Cholesky factor, escalating diagonal jitter on failure."""
    eye = np.eye(a.shape[0])
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


def cholesky(a):
    """Lower Cholesky factor with jitter escalation, differentiable in ``a``.

    The adjoint is correct when contracted against symmetric perturbations,
    which is the only way a covariance matrix is ever built here.
    """
    a = as_tensor(a)
    _check_square(a, "cholesky")
    L, _ = chol_with_jitter(a.data)

    def backward(adj):
        lbar = np.tril(adj)
        p = L.T @ lbar
        phi = np.tril(p, -1) + 0.5 * np.diag(np.diag(p))
        # S = L^{-T} phi L^{-1}
        x = _solve_lower(L, phi, trans=1)
        s = _solve_lower(L, x.T, trans=1).T
        return (0.5 * (s + s.T),)

    return _apply("cholesky", L, (a,), backward)


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
    np.asarray_chkfinite(l)
    np.asarray_chkfinite(b)
    if b.size == 0:
        return np.empty_like(b)
    if b.ndim == 2:
        return solve_triangular(l, b, trans)
    return np.stack([solve_triangular(l, b_s, trans) for b_s in b])


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

    def backward(adj):
        gb = _solve_lower(l.data, adj, trans=1)
        gl = gb @ x.swapaxes(-1, -2)
        if gl.ndim == 3:  # every slice shares l, so their terms add up
            gl = gl.sum(axis=0)
        return (-np.tril(gl), gb)

    return _apply("triangular_solve", x, (l, b), backward)


# ---------------------------------------------------------------------------
# composite reductions
# ---------------------------------------------------------------------------

def logsumexp(a, axis=-1, keepdims=False):
    """Stable log-sum-exp; the max shift is a constant, which leaves the
    softmax gradient intact."""
    a = as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = tensor_sum(exp(a - Tensor(m)), axis=axis, keepdims=True)
    out = log(shifted) + Tensor(m)
    if keepdims:
        return out
    target = np.sum(a.data, axis=axis, keepdims=False).shape
    return reshape(out, target)


def log_softmax(a, axis=-1):
    return as_tensor(a) - logsumexp(a, axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _same_pad(extent, k, stride):
    out = -(-extent // stride)
    total = max((out - 1) * stride + k - extent, 0)
    return total // 2, total - total // 2


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
    xp = np.pad(x.data, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    out = conv2d_forward(xp, kernel.data, stride)
    # an untracked x, such as the data batch of a model's first conv, needs no adjoint
    x_tracked = _tracked(x, active_tape())

    def backward(adj):
        dx = None
        if x_tracked:
            dxp = conv2d_grad_input(adj, kernel.data, stride, hp, wp)
            dx = dxp[:, pt:pt + h, pl:pl + w, :]
        return (dx, conv2d_grad_kernel(xp, adj, kh, kw, stride))

    return _apply("conv2d", out, (x, kernel), backward)

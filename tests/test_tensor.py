"""Tensor core: forward semantics, adjoint rules, tape mechanics."""
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular as scipy_solve_triangular

from uncertain import backend
from uncertain.distributions import Normal, RandomVariable
from uncertain.errors import DomainError, JitterWarning, ShapeError, TapeError
from uncertain.tensor import (
    ELEMENTWISE_BINARY,
    ELEMENTWISE_UNARY,
    Tape,
    Tensor,
    _solve_lower,
    add,
    as_tensor,
    broadcast_to,
    cholesky,
    concat,
    conv2d,
    diag_part,
    exp,
    log,
    log_softmax,
    logsumexp,
    matmul,
    mul,
    reshape,
    slice_last,
    softplus,
    softplus_inverse,
    square,
    take,
    take_last,
    tensor_mean,
    tensor_sum,
    transpose,
    triangular_solve,
    where,
)

from conftest import finite_diff_grad, max_rel_err


def grad_of(f, x0, h=1e-5):
    """Analytic and FD gradients of scalar f wrt a single array input."""
    with Tape() as tape:
        x = tape.watch(Tensor(x0))
        loss = f(x)
        analytic = tape.backward(loss)[x.node_id].data
    numeric = finite_diff_grad(lambda v: f(Tensor(v)).item(), x0, h=h)
    return analytic, numeric


class TestForward:
    def test_add(self):
        assert np.array_equal(add([1.0, 2.0], [3.0, 4.0]).data, [4.0, 6.0])

    def test_softplus_at_zero(self):
        assert softplus(Tensor(0.0)).item() == pytest.approx(math.log(2.0), abs=1e-7)

    def test_softplus_overflow_safe(self):
        out = softplus(Tensor([-1e4, 0.0, 1e4])).data
        assert out[0] == 0.0
        assert out[2] == 1e4
        assert np.all(np.isfinite(out))

    def test_softplus_inverse_roundtrip(self):
        y = np.array([1e-6, 0.1, 1.0, 35.0])
        x = softplus_inverse(y)
        assert np.allclose(softplus(Tensor(x)).data, y, rtol=1e-12)

    def test_broadcasting(self):
        out = add(Tensor(np.ones((2, 3))), Tensor([1.0, 2.0, 3.0]))
        assert np.array_equal(out.data, [[2, 3, 4], [2, 3, 4]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\[2\].*\[3\]"):
            add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
    def test_incompatible_shapes_raise_shape_error(self, name):
        op = ELEMENTWISE_BINARY[name]
        want = (f"{name}: shapes [2, 3] and [4] are not "
                "broadcast-compatible")
        with pytest.raises(ShapeError) as info:
            op(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))
        assert str(info.value) == want

    def test_log_negative_raises(self):
        with pytest.raises(DomainError):
            log(Tensor([-1.0]))

    def test_sqrt_negative_raises(self):
        from uncertain.tensor import sqrt

        with pytest.raises(DomainError):
            sqrt(Tensor([-0.5]))

    def test_scalar_coercion(self):
        assert mul(Tensor([2.0, 4.0]), 0.5).data.tolist() == [1.0, 2.0]
        assert (1.0 - Tensor([0.25])).data.tolist() == [0.75]


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(Tensor(a), Tensor(np.eye(2))).data, a)

    def test_annihilation(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[0.0], [5.0]])
        assert np.array_equal(matmul(a, b).data, [[0.0], [0.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match="inner dimensions"):
            matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 2))))

    def test_gradient_vs_central_differences(self):
        rng = np.random.default_rng(7)
        a0 = rng.uniform(-2, 2, (3, 4))
        b0 = rng.uniform(-2, 2, (4, 2))

        def loss_np(a, b):
            return float(np.sum((a @ b) ** 2))

        with Tape() as tape:
            a = tape.watch(Tensor(a0))
            b = tape.watch(Tensor(b0))
            grads = tape.backward(tensor_sum(square(matmul(a, b))))
        fa = finite_diff_grad(lambda v: loss_np(v, b0), a0)
        fb = finite_diff_grad(lambda v: loss_np(a0, v), b0)
        assert max_rel_err(grads[a.node_id].data, fa) < 1e-6
        assert max_rel_err(grads[b.node_id].data, fb) < 1e-6

    # stacked operands, and each kind of broadcast over the leading axis
    RANK3_SHAPES = [((3, 2, 4), (3, 4, 2)), ((2, 4), (3, 4, 2)),
                    ((3, 2, 4), (4, 2)), ((1, 2, 4), (3, 4, 2))]

    @pytest.mark.parametrize("a_shape,b_shape", RANK3_SHAPES)
    def test_rank3_gradients_vs_central_differences(self, a_shape, b_shape):
        rng = np.random.default_rng(8)
        a0 = rng.uniform(-2, 2, a_shape)
        b0 = rng.uniform(-2, 2, b_shape)
        w = rng.uniform(-1, 1, np.broadcast_shapes(a_shape[:-1] + (1,),
                                                   b_shape[:-2] + (1, 2)))

        def loss_np(a, b):
            return float(np.sum(w * (a @ b) ** 2))

        with Tape() as tape:
            a = tape.watch(Tensor(a0))
            b = tape.watch(Tensor(b0))
            out = matmul(a, b)
            grads = tape.backward(tensor_sum(Tensor(w) * square(out)))
        assert out.shape == w.shape
        fa = finite_diff_grad(lambda v: loss_np(v, b0), a0)
        fb = finite_diff_grad(lambda v: loss_np(a0, v), b0)
        assert grads[a.node_id].shape == a_shape
        assert grads[b.node_id].shape == b_shape
        assert max_rel_err(grads[a.node_id].data, fa) < 1e-6
        assert max_rel_err(grads[b.node_id].data, fb) < 1e-6

    @pytest.mark.parametrize("a_shape,b_shape", RANK3_SHAPES)
    def test_rank3_slices_equal_rank2_products_bitwise(self, a_shape, b_shape):
        rng = np.random.default_rng(9)
        a0 = rng.normal(size=a_shape)
        b0 = rng.normal(size=b_shape)
        out = matmul(Tensor(a0), Tensor(b0)).data
        for s in range(out.shape[0]):
            a_s = a0 if a0.ndim == 2 else a0[min(s, a0.shape[0] - 1)]
            b_s = b0 if b0.ndim == 2 else b0[s]
            want = matmul(Tensor(a_s), Tensor(b_s)).data
            assert out[s].tobytes() == want.tobytes()

    def test_leading_axes_disagree(self):
        with pytest.raises(ShapeError, match="leading axes"):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))

    def test_rank4_rejected(self):
        with pytest.raises(ShapeError, match="rank-2 or rank-3"):
            matmul(Tensor(np.ones((1, 2, 3, 4))), Tensor(np.ones((4, 2))))


class TestTriangularSolve:
    def _operands(self, seed):
        rng = np.random.default_rng(seed)
        # junk above the diagonal: only the lower triangle may be read
        l0 = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
        return l0, rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

    def test_matches_dense_solve_and_ignores_upper_triangle(self):
        l0, b0, _ = self._operands(0)
        got = triangular_solve(Tensor(l0), Tensor(b0)).data
        want = np.linalg.solve(np.tril(l0), b0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_gradients_vs_central_differences(self):
        l0, b0, w = self._operands(1)
        rows, cols = np.tril_indices(4)

        def loss_np(l, b):
            return float(np.sum(w * np.linalg.solve(np.tril(l), b) ** 2))

        with Tape() as tape:
            l = tape.watch(Tensor(l0))
            b = tape.watch(Tensor(b0))
            x = triangular_solve(l, b)
            grads = tape.backward(tensor_sum(Tensor(w) * square(x)))
        gl = grads[l.node_id].data
        assert np.all(gl[np.triu_indices(4, 1)] == 0.0)

        def loss_of_lower(v):
            l = l0.copy()
            l[rows, cols] = v
            return loss_np(l, b0)

        fl = finite_diff_grad(loss_of_lower, l0[rows, cols])
        fb = finite_diff_grad(lambda v: loss_np(l0, v), b0)
        assert max_rel_err(gl[rows, cols], fl) < 1e-6
        assert max_rel_err(grads[b.node_id].data, fb) < 1e-6

    def test_stacked_right_sides_solve_as_on_their_own(self):
        l0, _, _ = self._operands(2)
        b0 = np.random.default_rng(3).normal(size=(5, 4, 3))
        got = triangular_solve(Tensor(l0), Tensor(b0)).data
        for s in range(5):
            want = triangular_solve(Tensor(l0), Tensor(b0[s])).data
            assert got[s].tobytes() == want.tobytes()

    @pytest.mark.parametrize("b_shape,solves", [((4, 2), 1), ((3, 4, 2), 3)])
    def test_one_lapack_call_per_matrix(self, monkeypatch, b_shape, solves):
        # the per-matrix solve is the name the benchmark tracer counts
        import uncertain.tensor as tensor_module
        per_matrix = tensor_module.solve_triangular
        right_sides = []

        def counted(l, b, trans):
            right_sides.append(b.shape)
            return per_matrix(l, b, trans)

        monkeypatch.setattr(tensor_module, "solve_triangular", counted)
        l0, _, _ = self._operands(6)
        b0 = np.random.default_rng(7).normal(size=b_shape)
        with Tape() as tape:
            b = tape.watch(Tensor(b0))
            x = triangular_solve(Tensor(l0), b)
            grads = tape.backward(tensor_sum(square(x)))
        assert x.shape == b_shape
        assert grads[b.node_id].shape == b_shape
        assert right_sides == [(4, 2)] * (2 * solves)  # forward, then adjoint

    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("b_shape", [(4, 3), (2, 4, 3)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_equal_to_scipy(self, trans, b_shape, order):
        l0 = np.asarray(self._operands(8)[0], order=order)
        b0 = np.random.default_rng(9).normal(size=b_shape)
        got = _solve_lower(l0, b0, trans)
        def scipy_solve(b):
            return scipy_solve_triangular(l0, b, lower=True, trans=trans)

        want = (scipy_solve(b0) if b0.ndim == 2
                else np.stack([scipy_solve(b_s) for b_s in b0]))
        assert got.shape == b_shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("b_shape", [(4, 3), (2, 4, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("operand", ["l", "b"])
    def test_non_finite_operand_raises_value_error(self, trans, b_shape, bad,
                                                   operand):
        l0 = self._operands(10)[0]
        b0 = np.ones(b_shape)
        if operand == "l":
            l0[0, 3] = bad  # above the diagonal: scipy checks the whole l
        else:
            b0[..., -1, -1] = bad  # only the last slice of a stack
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_lower(l0, b0, trans)

    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("b_shape", [(4, 3), (2, 4, 3)])
    def test_zero_on_diagonal_raises_linalg_error(self, trans, b_shape):
        l0 = self._operands(12)[0]
        l0[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
            _solve_lower(l0, np.ones(b_shape), trans)

    @pytest.mark.parametrize("b_shape", [(4, 0), (3, 4, 0)])
    def test_empty_right_side_gives_empty_result(self, b_shape):
        l0 = self._operands(14)[0]
        with Tape() as tape:
            l = tape.watch(Tensor(l0))
            b = tape.watch(Tensor(np.zeros(b_shape)))
            x = triangular_solve(l, b)
            grads = tape.backward(tensor_sum(x))
        assert x.shape == b_shape
        assert grads[b.node_id].shape == b_shape
        assert np.all(grads[l.node_id].data == 0.0)

    def test_stacked_gradients_vs_central_differences(self):
        l0, _, _ = self._operands(4)
        rng = np.random.default_rng(5)
        b0 = rng.normal(size=(3, 4, 2))
        w = rng.normal(size=(3, 4, 2))
        rows, cols = np.tril_indices(4)

        def loss_np(l, b):
            return float(np.sum(w * np.linalg.solve(np.tril(l), b) ** 2))

        with Tape() as tape:
            l = tape.watch(Tensor(l0))
            b = tape.watch(Tensor(b0))
            x = triangular_solve(l, b)
            grads = tape.backward(tensor_sum(Tensor(w) * square(x)))
        gl = grads[l.node_id].data
        assert np.all(gl[np.triu_indices(4, 1)] == 0.0)

        def loss_of_lower(v):
            l = l0.copy()
            l[rows, cols] = v
            return loss_np(l, b0)

        fl = finite_diff_grad(loss_of_lower, l0[rows, cols])
        fb = finite_diff_grad(lambda v: loss_np(l0, v), b0)
        assert max_rel_err(gl[rows, cols], fl) < 1e-6
        assert max_rel_err(grads[b.node_id].data, fb) < 1e-6

    def test_non_square_factor_rejected(self):
        with pytest.raises(ShapeError, match="square"):
            triangular_solve(Tensor(np.eye(3)[:, :2]), Tensor(np.ones((3, 1))))

    @pytest.mark.parametrize("b_shape", [(2, 1), (3,)])
    def test_mismatched_rows_rejected(self, b_shape):
        with pytest.raises(ShapeError, match="incompatible"):
            triangular_solve(Tensor(np.eye(3)), Tensor(np.ones(b_shape)))


def conv_pad(x, kh, kw, stride, padding):
    """Zero-pad an NHWC input the way conv2d does (TF-style ``same``)."""
    if padding == "valid":
        return x
    h, w = x.shape[1], x.shape[2]
    total_h = max((-(-h // stride) - 1) * stride + kh - h, 0)
    total_w = max((-(-w // stride) - 1) * stride + kw - w, 0)
    pt, pl = total_h // 2, total_w // 2
    return np.pad(x, ((0, 0), (pt, total_h - pt), (pl, total_w - pl), (0, 0)))


# Loop-nest forms of the three backend kernels, on a pre-padded input ``xp``.

def _conv2d_forward_loops(xp, k, stride):
    b, hp, wp, ci = xp.shape
    kh, kw, _, co = k.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((b, ho, wo, co))
    for n in range(b):
        for oi in range(ho):
            for oj in range(wo):
                for di in range(kh):
                    for dj in range(kw):
                        xi = oi * stride + di
                        xj = oj * stride + dj
                        for c in range(ci):
                            v = xp[n, xi, xj, c]
                            for f in range(co):
                                out[n, oi, oj, f] += v * k[di, dj, c, f]
    return out


def _conv2d_grad_input_loops(adj, k, stride, hp, wp):
    b, ho, wo, co = adj.shape
    kh, kw, ci, _ = k.shape
    dxp = np.zeros((b, hp, wp, ci))
    for n in range(b):
        for oi in range(ho):
            for oj in range(wo):
                for di in range(kh):
                    for dj in range(kw):
                        xi = oi * stride + di
                        xj = oj * stride + dj
                        for c in range(ci):
                            acc = 0.0
                            for f in range(co):
                                acc += adj[n, oi, oj, f] * k[di, dj, c, f]
                            dxp[n, xi, xj, c] += acc
    return dxp


def _conv2d_grad_kernel_loops(xp, adj, kh, kw, stride):
    b, ho, wo, co = adj.shape
    ci = xp.shape[3]
    dk = np.zeros((kh, kw, ci, co))
    for n in range(b):
        for oi in range(ho):
            for oj in range(wo):
                for di in range(kh):
                    for dj in range(kw):
                        xi = oi * stride + di
                        xj = oj * stride + dj
                        for c in range(ci):
                            v = xp[n, xi, xj, c]
                            for f in range(co):
                                dk[di, dj, c, f] += v * adj[n, oi, oj, f]
    return dk


def conv_oracle(x, k, stride, padding):
    """Direct loop-nest cross-correlation, independent of the backend."""
    xp = conv_pad(x, k.shape[0], k.shape[1], stride, padding)
    return _conv2d_forward_loops(xp, k, stride)


def conv_fd_check(x0, k0, stride, padding):
    """Tape gradients of sum(conv2d(x, k)**2) against central differences."""
    def loss_np(x, k):
        return float(np.sum(conv_oracle(x, k, stride, padding) ** 2))

    with Tape() as tape:
        x = tape.watch(Tensor(x0))
        k = tape.watch(Tensor(k0))
        grads = tape.backward(tensor_sum(square(
            conv2d(x, k, stride=stride, padding=padding))))
    fx = finite_diff_grad(lambda v: loss_np(v, k0), x0)
    fk = finite_diff_grad(lambda v: loss_np(x0, v), k0)
    assert max_rel_err(grads[x.node_id].data, fx) < 1e-5
    assert max_rel_err(grads[k.node_id].data, fk) < 1e-5


class TestConv2d:
    def test_one_by_one_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4, 4, 1)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        assert np.array_equal(conv2d(x, k).data, x.data)

    def test_zero_kernel(self):
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 3, 2)))
        k = Tensor(np.zeros((2, 2, 2, 3)))
        assert np.all(conv2d(x, k, padding="valid").data == 0.0)

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (1, "valid"), (2, "same"), (2, "valid")])
    def test_matches_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(1, 5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        got = conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding).data
        want = conv_oracle(x, k, stride, padding)
        assert got.shape == want.shape
        # one GEMM sums each window in BLAS order, not the oracle's, so
        # the two agree to rounding
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_output_extents(self):
        x = Tensor(np.zeros((1, 7, 7, 1)))
        k = Tensor(np.zeros((3, 3, 1, 1)))
        assert conv2d(x, k, stride=2, padding="same").shape == (1, 4, 4, 1)
        assert conv2d(x, k, stride=2, padding="valid").shape == (1, 3, 3, 1)

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError, match="larger than padded input"):
            conv2d(Tensor(np.zeros((1, 2, 2, 1))), Tensor(np.zeros((3, 3, 1, 1))),
                   padding="valid")

    def test_gradients_vs_central_differences(self):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(-1, 1, (1, 4, 4, 2))
        k0 = rng.uniform(-1, 1, (3, 3, 2, 2))
        conv_fd_check(x0, k0, 1, "same")

    def test_gradients_vs_central_differences_strided_valid(self):
        rng = np.random.default_rng(4)
        x0 = rng.uniform(-1, 1, (1, 7, 6, 2))
        k0 = rng.uniform(-1, 1, (3, 2, 2, 2))
        conv_fd_check(x0, k0, 2, "valid")

    @pytest.mark.parametrize("stride", [0, -1, 1.5])
    def test_bad_stride_rejected(self, stride):
        with pytest.raises(ValueError, match="stride"):
            conv2d(Tensor(np.zeros((1, 4, 4, 1))), Tensor(np.zeros((3, 3, 1, 1))),
                   stride=stride)

    def test_untracked_input_gets_no_input_gradient(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return backend.conv2d_grad_input(*args)

        monkeypatch.setattr("uncertain.tensor.conv2d_grad_input", counting)
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(2, 5, 5, 3))
        k0 = rng.normal(size=(3, 3, 3, 4))

        def kernel_grad(watch_x):
            with Tape() as tape:
                x = tape.watch(Tensor(x0)) if watch_x else Tensor(x0)
                k = tape.watch(Tensor(k0))
                grads = tape.backward(tensor_sum(square(conv2d(x, k, stride=2))))
            return grads[k.node_id].data

        dk = kernel_grad(watch_x=False)
        assert calls == []
        assert np.array_equal(dk, kernel_grad(watch_x=True))
        assert calls == [1]


# (input h, w), (kernel h, w), stride, padding
KERNEL_CASES = [
    ((5, 5), (3, 3), 1, "same"),
    ((5, 5), (3, 3), 1, "valid"),
    ((7, 6), (3, 2), 2, "same"),
    ((8, 7), (2, 3), 2, "valid"),
    ((7, 8), (2, 2), 3, "same"),
    ((10, 7), (2, 1), 3, "valid"),
]


def assert_sums_close(got, loops, *operands):
    """Compare a kernel with its loop nest to 1e-12 of each output's scale.

    The rounding error of a sum scales with the magnitudes of its terms, not
    with the result, which cancellation can bring near zero; so each output
    may differ by 1e-12 times the same loop nest run on absolute values,
    which is never less than 1e-12 times the output itself.
    """
    want = loops(*operands)
    scale = loops(*(np.abs(o) if isinstance(o, np.ndarray) else o
                    for o in operands))
    assert got.shape == want.shape
    err = np.abs(got - want)
    assert np.all(err <= 1e-12 * scale), np.max(err / np.maximum(scale, 1e-300))


class TestConvKernels:
    """The im2col kernels against the loop nests, on padded inputs."""

    @pytest.mark.parametrize("hw,khw,stride,padding", KERNEL_CASES)
    def test_match_loop_kernels(self, hw, khw, stride, padding):
        rng = np.random.default_rng(11)
        kh, kw = khw
        xp = conv_pad(rng.normal(size=(2, *hw, 3)), kh, kw, stride, padding)
        k = rng.normal(size=(kh, kw, 3, 4))
        hp, wp = xp.shape[1], xp.shape[2]
        out = backend.conv2d_forward(xp, k, stride)
        assert_sums_close(out, _conv2d_forward_loops, xp, k, stride)
        adj = rng.normal(size=out.shape)
        assert_sums_close(backend.conv2d_grad_input(adj, k, stride, hp, wp),
                          _conv2d_grad_input_loops, adj, k, stride, hp, wp)
        assert_sums_close(backend.conv2d_grad_kernel(xp, adj, kh, kw, stride),
                          _conv2d_grad_kernel_loops, xp, adj, kh, kw, stride)


class TestBackward:
    def test_constant_root_gives_zero_gradients(self):
        with Tape() as tape:
            x = tape.watch(Tensor([1.0, 2.0]))
            root = tape.watch(Tensor(5.0))
            grads = tape.backward(root)
        assert x.node_id not in grads  # missing id means zero
        assert grads[root.node_id].item() == 1.0

    def test_sum_gradient_is_ones(self):
        with Tape() as tape:
            x = tape.watch(Tensor([1.0, -2.0, 3.0]))
            grads = tape.backward(tensor_sum(x))
        assert np.array_equal(grads[x.node_id].data, [1.0, 1.0, 1.0])

    def test_fanout_accumulates(self):
        with Tape() as tape:
            x = tape.watch(Tensor(3.0))
            y = add(mul(x, x), mul(x, 2.0))  # x^2 + 2x
            grads = tape.backward(y)
        assert grads[x.node_id].item() == pytest.approx(8.0)

    def test_non_scalar_root_rejected(self):
        with Tape() as tape:
            x = tape.watch(Tensor([1.0, 2.0]))
            with pytest.raises(TapeError, match="scalar"):
                tape.backward(square(x))

    def test_detached_root_rejected(self):
        with Tape() as tape:
            with pytest.raises(TapeError, match="detached"):
                tape.backward(Tensor(1.0))

    def test_released_tape_refuses_backward(self):
        with Tape() as tape:
            x = tape.watch(Tensor([1.0, 2.0]))
            root = tensor_sum(square(x))
        assert set(tape.backward(root)) == {x.node_id}
        tape.release()
        with pytest.raises(TapeError, match="released"):
            tape.backward(root)
        with pytest.raises(TapeError, match="released"):
            with tape:
                pass

    def test_released_tape_refuses_watch(self):
        tape = Tape()
        x = tape.watch(Tensor([1.0, 2.0]))
        tape.release()
        for t in (Tensor([3.0]), x):  # a new leaf and one it had watched
            with pytest.raises(TapeError, match="released"):
                tape.watch(t)

    def test_recording_tape_refuses_release(self):
        with Tape() as tape:
            x = tape.watch(Tensor([1.0, 2.0]))
            with pytest.raises(TapeError, match="recording"):
                tape.release()
            root = tensor_sum(square(x))  # the tape still records
            assert set(tape.backward(root)) == {x.node_id}
        tape.release()
        with pytest.raises(TapeError, match="released"):
            tape.backward(root)

    def test_ops_off_tape_stay_constant(self):
        with Tape() as tape:
            c = mul(Tensor([2.0]), Tensor([3.0]))
            assert c.node_id is None
            x = tape.watch(Tensor([1.0]))
            grads = tape.backward(tensor_sum(mul(x, c)))
        assert np.array_equal(grads[x.node_id].data, [6.0])

    def test_broadcast_gradient_restores_shape(self):
        rng = np.random.default_rng(5)
        a0 = rng.normal(size=(4, 3))
        b0 = rng.normal(size=(3,))
        with Tape() as tape:
            a = tape.watch(Tensor(a0))
            b = tape.watch(Tensor(b0))
            grads = tape.backward(tensor_sum(square(add(a, b))))
        assert grads[a.node_id].shape == (4, 3)
        assert grads[b.node_id].shape == (3,)
        fb = finite_diff_grad(lambda v: float(np.sum((a0 + v) ** 2)), b0)
        assert max_rel_err(grads[b.node_id].data, fb) < 1e-6


# domains keeping each op away from singularities under FD probing
_UNARY_DOMAIN = {
    "log": (0.1, 2.0),
    "sqrt": (0.1, 2.0),
    "relu": (0.05, 2.0),  # kink at 0 breaks FD, positive side suffices
}


class TestBackwardIntoFlat:
    """``backward(root, out=flat)`` lays the watched leaves' adjoints out one
    after another in watch order, as the node-id map holds them."""

    def _record(self):
        rng = np.random.default_rng(2)
        tape = Tape()
        with tape:
            a = tape.watch(Tensor(rng.normal(size=(2, 3))))
            idle = tape.watch(Tensor(np.ones(4)))  # the root never reads it
            s = tape.watch(Tensor(0.7))
            b = tape.watch(Tensor(rng.normal(size=(3, 1))))
            root = tensor_sum(square(matmul(a, b) * s)) + tensor_sum(exp(b))
        return tape, root, (a, idle, s, b)

    def test_matches_the_map_in_watch_order_with_zeros(self):
        tape, root, leaves = self._record()
        grads = tape.backward(root)
        flat = np.full(2 * 3 + 4 + 1 + 3, np.nan)
        assert tape.backward(root, out=flat) is flat
        want = [grads[t.node_id].data.ravel() if t.node_id in grads
                else np.zeros(t.size) for t in leaves]
        assert leaves[1].node_id not in grads
        assert np.array_equal(flat, np.concatenate(want))

    @pytest.mark.parametrize("shape", [(13,), (15,), (14, 1)])
    def test_wrong_length_raises(self, shape):
        tape, root, _ = self._record()
        with pytest.raises(TapeError, match=r"expected \[14\]"):
            tape.backward(root, out=np.zeros(shape))


class TestGradientProperty:
    """Analytic gradients match h=1e-5 central differences on random inputs."""

    @pytest.mark.parametrize("name", sorted(ELEMENTWISE_UNARY))
    def test_unary(self, name):
        op = ELEMENTWISE_UNARY[name]
        lo, hi = _UNARY_DOMAIN.get(name, (-2.0, 2.0))
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x0 = rng.uniform(lo, hi, size=(5,))
            weights = Tensor(rng.uniform(1.0, 2.0, size=(5,)))
            analytic, numeric = grad_of(lambda t: tensor_sum(mul(op(t), weights)), x0)
            worst = max(worst, max_rel_err(analytic, numeric))
        assert worst < 1e-5

    @pytest.mark.parametrize("name", sorted(ELEMENTWISE_BINARY))
    def test_binary(self, name):
        op = ELEMENTWISE_BINARY[name]
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            x0 = rng.uniform(-2, 2, size=(4,))
            y0 = rng.uniform(0.5, 2, size=(4,))  # keep div well away from 0
            weights = Tensor(rng.uniform(1.0, 2.0, size=(4,)))
            analytic, numeric = grad_of(
                lambda t: tensor_sum(mul(op(t, Tensor(y0)), weights)), x0)
            worst = max(worst, max_rel_err(analytic, numeric))
        assert worst < 1e-5

    def test_composite_chain(self):
        from uncertain.tensor import sigmoid, tanh

        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            x0 = rng.uniform(-2, 2, size=(6,))

            def f(t):
                return tensor_sum(mul(tanh(t), sigmoid(add(t, 0.5))))

            analytic, numeric = grad_of(f, x0)
            assert max_rel_err(analytic, numeric) < 1e-5


class TestStructuralOps:
    def test_reshape_transpose_roundtrip_gradient(self):
        x0 = np.arange(6.0).reshape(2, 3)
        with Tape() as tape:
            x = tape.watch(Tensor(x0))
            y = transpose(reshape(x, (3, 2)))
            grads = tape.backward(tensor_sum(square(y)))
        assert np.array_equal(grads[x.node_id].data, 2 * x0)

    def test_slice_and_concat_inverse(self):
        x0 = np.arange(8.0).reshape(2, 4)
        with Tape() as tape:
            x = tape.watch(Tensor(x0))
            left = slice_last(x, 0, 2)
            right = slice_last(x, 2, 4)
            back = concat([left, right], axis=-1)
            grads = tape.backward(tensor_sum(mul(back, back)))
        assert np.array_equal(back.data, x0)
        assert np.array_equal(grads[x.node_id].data, 2 * x0)

    def test_take_last_gradient_scatters(self):
        x0 = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        idx = np.array([2, 0])
        with Tape() as tape:
            x = tape.watch(Tensor(x0))
            got = take_last(x, idx)
            grads = tape.backward(tensor_sum(got))
        assert np.array_equal(got.data, [2.0, 3.0])
        want = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert np.array_equal(grads[x.node_id].data, want)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_take_matches_indexing_and_gradient(self, axis):
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=(3, 4, 2))
        w = rng.normal(size=np.take(x0, 1, axis=axis).shape)
        got = take(Tensor(x0), 1, axis=axis).data
        assert np.array_equal(got, np.take(x0, 1, axis=axis))
        analytic, numeric = grad_of(
            lambda x: tensor_sum(Tensor(w) * square(take(x, 1, axis=axis))),
            x0)
        assert max_rel_err(analytic, numeric) < 1e-6

    def test_broadcast_to_gradient_sums_copies(self):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(2, 3))
        w = rng.normal(size=(4, 2, 3))
        got = broadcast_to(Tensor(x0), (4, 2, 3)).data
        assert all(np.array_equal(got[s], x0) for s in range(4))
        analytic, numeric = grad_of(
            lambda x: tensor_sum(Tensor(w) * square(broadcast_to(x, w.shape))),
            x0)
        assert max_rel_err(analytic, numeric) < 1e-6

    def test_where_routes_gradients(self):
        mask = np.array([True, False, True])
        with Tape() as tape:
            a = tape.watch(Tensor([1.0, 2.0, 3.0]))
            b = tape.watch(Tensor([10.0, 20.0, 30.0]))
            grads = tape.backward(tensor_sum(where(mask, a, b)))
        assert np.array_equal(grads[a.node_id].data, [1.0, 0.0, 1.0])
        assert np.array_equal(grads[b.node_id].data, [0.0, 1.0, 0.0])

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(3, 5))
        got = logsumexp(Tensor(x0), axis=-1).data
        want = np.log(np.sum(np.exp(x0), axis=-1))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(12)
        x0 = rng.normal(size=(4,))

        def f(t):
            return tensor_sum(mul(log_softmax(t), Tensor([1.0, 0.0, 0.0, 0.0])))

        analytic, numeric = grad_of(f, x0)
        assert max_rel_err(analytic, numeric) < 1e-6

    def test_diag_part(self):
        a0 = np.arange(9.0).reshape(3, 3)
        with Tape() as tape:
            a = tape.watch(Tensor(a0))
            grads = tape.backward(tensor_sum(square(diag_part(a))))
        want = np.zeros((3, 3))
        np.fill_diagonal(want, 2 * np.diag(a0))
        assert np.array_equal(grads[a.node_id].data, want)

    def test_mean(self):
        x = Tensor([[1.0, 3.0], [5.0, 7.0]])
        assert tensor_mean(x).item() == 4.0
        assert np.array_equal(tensor_mean(x, axis=0).data, [3.0, 5.0])
        assert np.array_equal(tensor_mean(x, axis=np.int64(1)).data, [2.0, 6.0])


class TestCholeskyJitter:
    """A Cholesky factor that needed jitter of 1e-4 or more warns, naming the
    jitter and the matrix size; a smaller jitter stays silent."""

    def test_large_jitter_warns(self):
        a = np.diag([1.0, -5e-5])  # factors only once 1e-4 is added
        with pytest.warns(JitterWarning, match=r"2x2 matrix .* jitter 0\.0001"):
            L = cholesky(a)
        assert np.array_equal(L.data, np.linalg.cholesky(a + 1e-4 * np.eye(2)))

    def test_small_jitter_is_silent(self):
        a = np.diag([1.0, -5e-6])  # factors once 1e-5 is added
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = cholesky(a)
        assert np.array_equal(L.data, np.linalg.cholesky(a + 1e-5 * np.eye(2)))


class TestTapeStructure:
    def test_parents_precede_children(self):
        with Tape() as tape:
            x = tape.watch(Tensor([1.0, 2.0]))
            y = tape.watch(Tensor([3.0, 4.0]))
            z = tensor_sum(square(add(mul(x, y), exp(x))))
            assert z.node_id == len(tape.nodes) - 1
        for nid, (_, parents, _) in enumerate(tape.nodes):
            for pid in parents:
                assert pid is None or pid < nid

    def test_storage_is_row_major(self):
        t = transpose(Tensor(np.arange(6.0).reshape(2, 3)))
        assert t.data.flags["C_CONTIGUOUS"]
        assert np.array_equal(t.data.ravel(),
                              np.arange(6.0).reshape(2, 3).T.ravel())
        assert t.size == len(t.data.ravel())


class TestTapeDeterminism:
    def test_replay_is_bit_identical(self):
        def run():
            rng = np.random.default_rng(123)
            x0 = rng.normal(size=(3, 3))
            with Tape() as tape:
                x = tape.watch(Tensor(x0))
                y = tensor_sum(square(exp(mul(x, 0.3))))
                g = tape.backward(y)[x.node_id].data
            return y.item(), g

        first_val, first_grad = run()
        second_val, second_grad = run()
        assert first_val == second_val
        assert np.array_equal(first_grad, second_grad)

    def test_every_watched_adjoint_is_finite(self):
        rng = np.random.default_rng(9)
        with Tape() as tape:
            x = tape.watch(Tensor(rng.uniform(0.5, 1.5, size=(4,))))
            w = tape.watch(Tensor(rng.uniform(0.5, 1.5, size=(4,))))
            y = tensor_sum(mul(log(x), exp(mul(x, w))))
            adjoints = tape.backward(y)
        assert set(adjoints) == {x.node_id, w.node_id}
        for adj in adjoints.values():
            assert adj.shape == (4,)
            assert np.all(np.isfinite(adj.data))


class TestAsTensor:
    """A RandomVariable is a Tensor: the sample it was built from, with the
    same array and tape node; nothing else is taken for one."""

    def _rv(self, tape):
        loc = tape.watch(Tensor([0.5, -1.0]))
        value = mul(loc, 3.0)
        return loc, RandomVariable(Normal(loc, 1.0), value), value

    def test_random_variable_is_its_sample(self):
        with Tape() as tape:
            _, rv, value = self._rv(tape)
        assert isinstance(rv, Tensor)
        assert as_tensor(rv) is rv
        assert rv.value is value
        assert rv.data is value.data
        assert rv.tape is tape and rv.node_id == value.node_id

    def test_gradient_through_rv_equals_gradient_through_value(self):
        grads = []
        for through_value in (False, True):
            with Tape() as tape:
                loc, rv, _ = self._rv(tape)
                x = rv.value if through_value else rv
                y = tensor_sum(square(x) + 2.0 * x)
                grads.append(tape.backward(y)[loc.node_id].data)
        assert np.array_equal(grads[0], grads[1])
        assert np.array_equal(grads[0], [15.0, -12.0])  # 3 * (2 * 3 loc + 2)

    def test_duck_typed_random_variable_is_rejected(self):
        class FakeRV:
            def __init__(self):
                self.value = Tensor([1.0, 2.0])
                self.distribution = object()

        with pytest.raises(TypeError):
            add(FakeRV(), Tensor([1.0, 1.0]))

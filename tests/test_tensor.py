"""Tensor op correctness against brute-force oracles and hand values.

The linear-algebra ops are checked against naive loop implementations, the
backward pass against hand-derived gradients and complex-step derivatives.
"""

import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

from scdkit import tensor
from scdkit.errors import ContractError, DimensionError
from scdkit.tensor import (_SCATTER_MAX_ENTRIES, Tensor, _col2im_index, add,
                           backward, clip, concat_channels,
                           conv2d, div, enable_grad, grad_check, log,
                           log_softmax_rows, macs, matmul, mul, neg, no_grad,
                           relu, reshape, row_bias, row_scale, scale, sigmoid,
                           softmax_rows, sqrt, stable_sigmoid, sub, sum_all,
                           sum_rows, topo_order, transpose, upsample_bilinear,
                           upsample_nearest, zero_grads)


# ---------------------------------------------------------------------------
# oracles


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def conv2d_oracle(x, kernel, stride, padding):
    """Direct cross-correlation, one output element at a time."""
    c_out, c_in, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh = (xp.shape[1] - kh) // stride + 1
    ow = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, i * stride:i * stride + kh, j * stride:j * stride + kw]
                out[o, i, j] = (patch * kernel[o]).sum()
    return out


def col2im_reference(dcols, xp_shape, k, stride, oh, ow):
    """Fold a (c*k*k, oh*ow) patch-matrix gradient onto the padded map with
    k*k strided slice-adds into zeros: the summation order conv2d's
    backward must reproduce on both sides of its scatter/loop switch."""
    dcols = dcols.reshape(xp_shape[0], k, k, oh, ow)
    dxp = np.zeros(xp_shape)
    for di in range(k):
        for dj in range(k):
            dxp[:, di:di + stride * oh:stride, dj:dj + stride * ow:stride] += dcols[:, di, dj]
    return dxp


# ---------------------------------------------------------------------------
# forward values


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    got = matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=1e-13, atol=1e-13)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


# 1x1 is the CDBlock fuse conv, where the im2col matrix is a view of the input
@pytest.mark.parametrize("stride,padding,size", [
    pytest.param(s, p, k, id=f"{s}-{p}" if k == 3 else f"{s}-{p}-k{k}")
    for k in (3, 1, 5) for s in (1, 2) for p in (0, 1)])
def test_conv2d_matches_naive_loops(stride, padding, size):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 7, 6))
    k = rng.normal(size=(4, 3, size, size))
    got = conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding).data
    np.testing.assert_allclose(got, conv2d_oracle(x, k, stride, padding),
                               rtol=1e-12, atol=1e-12)


# The 3x7x6 input is the forward test's grid (stride 2 leaves the last row or
# column uncovered) and takes the bincount scatter; 16x48x44 is past
# _SCATTER_MAX_ENTRIES and takes the slice-add loop.
@pytest.mark.parametrize("shape,stride,padding,size", [
    pytest.param((3, 7, 6), s, p, k, id=f"{s}-{p}-k{k}")
    for k in (3, 1, 5) for s in (1, 2) for p in (0, 1)] + [
    pytest.param((16, 48, 44), s, p, 3, id=f"{s}-{p}-k3-large") for s in (1, 2) for p in (0, 1)])
def test_conv2d_input_gradient_matches_slice_add_col2im_bit_for_bit(shape, stride, padding, size):
    rng = np.random.default_rng(1)
    c, h, w = shape
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    k = rng.normal(size=(4, c, size, size))
    out = conv2d(x, Tensor(k), stride=stride, padding=padding)
    g = rng.normal(size=out.shape)
    backward(sum_all(mul(out, Tensor(g))))
    _, oh, ow = out.shape
    dcols = k.reshape(4, -1).T @ g.reshape(4, -1)
    assert (dcols.size <= _SCATTER_MAX_ENTRIES) == (c == 3)
    dxp = col2im_reference(dcols, (c, h + 2 * padding, w + 2 * padding), size, stride, oh, ow)
    expect = dxp[:, padding:padding + h, padding:padding + w]
    assert np.array_equal(x.grad.view(np.int64), expect.view(np.int64))


def test_col2im_index_is_cached_and_read_only():
    idx = _col2im_index(2, 5, 5, 3, 1, 3, 3)
    assert idx is _col2im_index(2, 5, 5, 3, 1, 3, 3)
    assert not idx.flags.writeable


@pytest.mark.parametrize("size,stride,padding", [(1, 1, 0), (1, 2, 0), (3, 1, 1),
                                                  (3, 2, 1), (5, 1, 2), (5, 2, 0)])
def test_conv2d_gradients_are_exact_adjoints(size, stride, padding):
    # conv is bilinear, so <conv(x, k), g> = <x, gx> = <k, gk> up to roundoff
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(3, 7, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 3, size, size)), requires_grad=True)
    out = conv2d(x, k, stride=stride, padding=padding)
    g = rng.normal(size=out.shape)
    backward(sum_all(mul(out, Tensor(g))))
    value = float(np.vdot(out.data, g))
    assert float(np.vdot(x.data, x.grad)) == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert float(np.vdot(k.data, k.grad)) == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_recorded_conv2d_holds_less_than_its_patch_matrix():
    # the graph keeps x and the kernel, which the caller holds anyway, and
    # the output, not the 3x3 patch matrix nine times the size of x
    rng = np.random.default_rng(12)
    c_in, h, w = 8, 24, 24
    x = Tensor(rng.normal(size=(c_in, h, w)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(1, c_in, 3, 3)), requires_grad=True)
    tracemalloc.start()
    try:
        out = conv2d(x, kernel, stride=1, padding=1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held < c_in * 9 * h * w * 8


def test_conv2d_identity_kernel():
    # a centered one-hot 3x3 kernel copies each channel through
    x = np.random.default_rng(2).normal(size=(2, 5, 5))
    k = np.zeros((2, 2, 3, 3))
    k[0, 0, 1, 1] = 1.0
    k[1, 1, 1, 1] = 1.0
    out = conv2d(Tensor(x), Tensor(k), padding=1).data
    np.testing.assert_array_equal(out, x)


def test_conv2d_contracts():
    x = Tensor(np.zeros((3, 8, 8)))
    with pytest.raises(ContractError):
        conv2d(x, Tensor(np.zeros((4, 3, 2, 2))))  # even kernel
    with pytest.raises(DimensionError):
        conv2d(x, Tensor(np.zeros((4, 5, 3, 3))))  # channel mismatch
    with pytest.raises(DimensionError):
        conv2d(x, Tensor(np.zeros((4, 3, 3, 5))))  # non-square


def test_softmax_rows_hand_values():
    out = softmax_rows(Tensor([[0.0, np.log(2.0)]])).data
    np.testing.assert_allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], rtol=1e-15)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 7))
    y = softmax_rows(Tensor(x)).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(5), rtol=1e-14)
    y2 = softmax_rows(Tensor(x + 123.0)).data
    np.testing.assert_allclose(y, y2, rtol=1e-12, atol=1e-15)


def test_log_softmax_agrees_with_softmax():
    x = np.random.default_rng(4).normal(size=(3, 4))
    a = log_softmax_rows(Tensor(x)).data
    b = np.log(softmax_rows(Tensor(x)).data)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_stable_sigmoid_extremes():
    x = np.array([-1000.0, 0.0, 1000.0])
    y = stable_sigmoid(x)
    assert np.isfinite(y).all()
    assert y[0] == 0.0 and y[1] == 0.5 and y[2] == 1.0


def test_upsample_nearest_values():
    x = np.arange(4.0).reshape(1, 2, 2)
    out = upsample_nearest(Tensor(x), 2).data
    expect = np.array([[[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]]], dtype=float)
    np.testing.assert_array_equal(out, expect)


def test_upsample_bilinear_constant_map():
    x = np.full((2, 3, 3), 7.5)
    out = upsample_bilinear(Tensor(x), 4).data
    assert out.shape == (2, 12, 12)
    np.testing.assert_allclose(out, 7.5, rtol=0, atol=1e-14)


def test_transpose_reshape_roundtrip():
    x = np.random.default_rng(5).normal(size=(3, 4))
    t = transpose(transpose(Tensor(x)))
    np.testing.assert_array_equal(t.data, x)
    r = reshape(reshape(Tensor(x), (12,)), (3, 4))
    np.testing.assert_array_equal(r.data, x)
    with pytest.raises(DimensionError):
        reshape(Tensor(x), (5, 5))


def test_concat_channels_values():
    a = np.ones((2, 3, 3))
    b = np.zeros((1, 3, 3))
    out = concat_channels(Tensor(a), Tensor(b)).data
    assert out.shape == (3, 3, 3)
    np.testing.assert_array_equal(out[:2], a)
    np.testing.assert_array_equal(out[2:], b)


# ---------------------------------------------------------------------------
# graph and backward


def test_requires_grad_propagates_and_prunes():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 2)))
    assert add(a, b).requires_grad
    dead = add(b, b)
    assert not dead.requires_grad
    assert dead.parents == ()  # pruned subgraph carries no references


def test_topo_order_parents_first_unique():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = mul(x, x)
    z = add(y, y)
    order = topo_order(z)
    assert len(order) == len({id(t) for t in order})
    pos = {id(t): i for i, t in enumerate(order)}
    for t in order:
        for p in t.parents:
            assert pos[id(p)] < pos[id(t)]


def test_topo_order_of_several_roots_lists_shared_parent_once():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    shared = mul(x, x)
    a, b = add(shared, x), relu(shared)
    order = topo_order(a, b)
    assert [id(t) for t in order].count(id(shared)) == 1
    assert {id(t) for t in order} == {id(x), id(shared), id(a), id(b)}
    pos = {id(t): i for i, t in enumerate(order)}
    for t in order:
        for p in t.parents:
            assert pos[id(p)] < pos[id(t)]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
def test_macs_of_one_conv2d(k, stride):
    c_in, c_out = 3, 5
    x = Tensor(np.zeros((c_in, 7, 6)))
    # an op whose operands need no gradient is pruned from the graph, uncounted
    kernel = Tensor(np.zeros((c_out, c_in, k, k)), requires_grad=True)
    out = conv2d(x, kernel, stride=stride, padding=k // 2)
    _, oh, ow = out.shape
    assert macs(out) == c_out * c_in * k * k * oh * ow


def test_macs_of_one_matmul_and_free_ops():
    a = Tensor(np.zeros((4, 6)), requires_grad=True)
    b = Tensor(np.zeros((6, 3)))
    assert macs(matmul(a, b)) == 4 * 6 * 3
    assert macs(relu(transpose(matmul(a, b)))) == 4 * 6 * 3  # other ops are free
    assert macs(a) == 0


def test_macs_counts_a_reused_subgraph_once():
    a = Tensor(np.zeros((4, 6)), requires_grad=True)
    b = Tensor(np.zeros((6, 3)))
    shared = matmul(a, b)
    assert macs(add(shared, shared)) == 4 * 6 * 3
    assert macs(shared, relu(shared)) == 4 * 6 * 3
    assert macs(matmul(a, b), matmul(a, b)) == 2 * 4 * 6 * 3  # two ops, two counts


def test_backward_of_sum_is_ones():
    x = Tensor(np.random.default_rng(6).normal(size=(3, 4)), requires_grad=True)
    backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic():
    x = Tensor(np.random.default_rng(7).normal(size=(4,)), requires_grad=True)
    backward(sum_all(mul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-14)


def test_backward_diamond_accumulates_once_per_path():
    # f = sum(x + x) must give gradient 2, not 4
    x = Tensor(np.ones(3), requires_grad=True)
    backward(sum_all(add(x, x)))
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_repeated_backward_adds_linearly():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = sum_all(mul(x, x))
    backward(loss)
    backward(loss)
    np.testing.assert_array_equal(x.grad, np.full(3, 4.0))
    zero_grads([x])
    assert x.grad is None
    # conv2d rebuilds its patch matrix in each backward call: the same bits each time
    rng = np.random.default_rng(11)
    for stride, padding, k in itertools.product((1, 2), (0, 1), (1, 3)):
        x = Tensor(rng.normal(size=(3, 7, 6)), requires_grad=True)
        kernel = Tensor(rng.normal(size=(2, 3, k, k)), requires_grad=True)
        out = conv2d(x, kernel, stride=stride, padding=padding)
        loss = sum_all(mul(out, Tensor(rng.normal(size=out.shape))))
        backward(loss)
        once = x.grad.copy(), kernel.grad.copy()
        backward(loss)
        for grad, first in zip((x.grad, kernel.grad), once):
            assert grad.tobytes() == (2.0 * first).tobytes(), (stride, padding, k)


def test_backward_sets_grad_on_leaves_only():
    x = Tensor(np.ones(3), requires_grad=True)
    w = Tensor(np.full(3, 2.0), requires_grad=True)
    y = mul(x, w)
    loss = sum_all(y)
    backward(loss)
    backward(loss)
    assert y.grad is None and loss.grad is None
    np.testing.assert_array_equal(x.grad, np.full(3, 4.0))
    np.testing.assert_array_equal(w.grad, np.full(3, 2.0))


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        backward(add(x, x))


def test_relu_gradient_at_kink_is_zero():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    backward(sum_all(relu(x)))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_relu_lets_nan_through_with_zero_gradient():
    x = Tensor(np.array([np.nan, -1.0, 0.0, 2.0]), requires_grad=True)
    y = relu(x)
    np.testing.assert_array_equal(y.data, [np.nan, 0.0, 0.0, 2.0])
    backward(sum_all(y))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0])


def test_clip_gradient_outside_is_zero():
    x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
    backward(sum_all(clip(x, 0.0, 1.0)))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_op_labels():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    assert x.op is None
    assert relu(x).op == "relu"
    assert add(x, x).op == "add"
    assert conv2d(Tensor(np.ones((1, 4, 4)), requires_grad=True),
                  Tensor(np.ones((1, 1, 3, 3)))).op == "conv2d"


def test_upsample_nearest_gradient_sums_blocks():
    x = Tensor(np.random.default_rng(8).normal(size=(2, 3, 3)), requires_grad=True)
    backward(sum_all(upsample_nearest(x, 4)))
    np.testing.assert_array_equal(x.grad, np.full((2, 3, 3), 16.0))


def test_item_and_repr():
    t = Tensor(3.25)
    assert t.item() == 3.25
    with pytest.raises(ContractError):
        Tensor(np.zeros(3)).item()
    assert "shape=(3,)" in repr(Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# recording switch


def leaves():
    """Fresh requires_grad leaves for `OPS`; the entries of `pos` are positive."""
    rng = np.random.default_rng(40)

    def leaf(shape, pos=False):
        data = rng.uniform(0.5, 2.0, size=shape) if pos else rng.normal(size=shape)
        return Tensor(data, requires_grad=True)

    return {"m": leaf((3, 4)), "n": leaf((3, 4)), "pos": leaf((3, 4), pos=True),
            "k4": leaf((4, 2)), "v": leaf(3), "x": leaf((2, 5, 5)), "y": leaf((1, 5, 5)),
            "kernel": leaf((3, 2, 3, 3))}


# one call of every op of the module on `leaves()`
OPS = {
    "add": lambda L: add(L["m"], L["n"]),
    "sub": lambda L: sub(L["m"], L["n"]),
    "mul": lambda L: mul(L["m"], L["n"]),
    "div": lambda L: div(L["m"], L["pos"]),
    "scale": lambda L: scale(L["m"], -0.3),
    "neg": lambda L: neg(L["m"]),
    "relu": lambda L: relu(L["m"]),
    "sigmoid": lambda L: sigmoid(L["m"]),
    "log": lambda L: log(L["pos"]),
    "sqrt": lambda L: sqrt(L["pos"]),
    "clip": lambda L: clip(L["m"], -0.5, 0.5),
    "reshape": lambda L: reshape(L["m"], (4, 3)),
    "transpose": lambda L: transpose(L["m"]),
    "concat_channels": lambda L: concat_channels(L["x"], L["y"]),
    "matmul": lambda L: matmul(L["m"], L["k4"]),
    "conv2d": lambda L: conv2d(L["x"], L["kernel"], stride=2, padding=1),
    "upsample_nearest": lambda L: upsample_nearest(L["x"], 2),
    "upsample_bilinear": lambda L: upsample_bilinear(L["x"], 2),
    "softmax_rows": lambda L: softmax_rows(L["m"]),
    "log_softmax_rows": lambda L: log_softmax_rows(L["m"]),
    "sum_all": lambda L: sum_all(L["m"]),
    "sum_rows": lambda L: sum_rows(L["m"]),
    "row_scale": lambda L: row_scale(L["m"], L["v"]),
    "row_bias": lambda L: row_bias(L["m"], L["v"]),
}
NOT_OPS = {"stable_sigmoid", "topo_order", "macs", "backward", "zero_grads",
           "grad_check", "no_grad", "enable_grad"}


def test_ops_table_lists_every_op():
    public = {name for name, fn in vars(tensor).items()
              if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
              and not name.startswith("_")}
    assert public - NOT_OPS == set(OPS)


@pytest.mark.parametrize("name", sorted(OPS))
def test_no_grad_gives_the_same_bytes_and_no_graph(name):
    recorded = OPS[name](leaves())
    assert recorded.requires_grad and recorded.parents
    with no_grad():
        plain = OPS[name](leaves())
    assert plain.data.shape == recorded.data.shape
    assert plain.data.tobytes() == recorded.data.tobytes()
    assert not plain.requires_grad
    assert plain.parents == () and plain.backward_fn is None


def test_no_grad_nests_and_restores_its_state_after_an_exception():
    a = Tensor(np.ones(2), requires_grad=True)

    def records():
        return bool(add(a, a).parents)

    assert records()
    with no_grad():
        with no_grad():
            assert not records()
        assert not records()
        with enable_grad():
            assert records()
        assert not records()
        with pytest.raises(ZeroDivisionError):
            with enable_grad():
                1 / 0
        assert not records()
    assert records()
    with pytest.raises(ZeroDivisionError):
        with no_grad():
            1 / 0
    assert records()


@pytest.mark.parametrize("name", sorted(OPS))
def test_every_op_carries_a_complex_step(name):
    # grad_check runs each op on complex data: a dropped or cast-away
    # imaginary part would read as a wrong gradient or raise
    L = leaves()
    out = OPS[name](L)
    w = Tensor(np.random.default_rng(41).normal(size=out.shape))
    for leaf in out.parents:
        assert grad_check(lambda t: sum_all(mul(OPS[name](L), w)), leaf) < 1e-9


# ---------------------------------------------------------------------------
# complex-step derivatives


def test_grad_check_linear_is_tight():
    # numeric differentiation of an affine map is exact up to roundoff
    w = Tensor(np.random.default_rng(9).normal(size=(3, 3)))
    x = Tensor(np.random.default_rng(10).normal(size=(3, 3)))
    assert grad_check(lambda t: sum_all(mul(t, w)), x) < 1e-9


def test_grad_check_records_a_graph_on_its_first_call_only():
    x = Tensor(np.random.default_rng(11).normal(size=(2, 3)))
    parents = []

    def f(t):
        out = sum_all(mul(t, t))
        parents.append(out.parents)
        return out

    assert grad_check(f, x) < 1e-9
    assert len(parents) == 1 + x.size
    assert parents[0] and not any(parents[1:])
    parents.clear()
    with no_grad():  # the analytic gradient still gets its graph
        assert grad_check(f, x) < 1e-9
    assert parents[0] and not any(parents[1:])


def test_grad_check_leaves_the_callers_state_as_it_found_it():
    x = Tensor(np.random.default_rng(12).normal(size=(2, 3)))
    array = x.data
    data = x.data.copy()
    grad_check(lambda t: sum_all(mul(t, t)), x)
    assert x.requires_grad is False and x.grad is None
    assert x.data is array and x.data.tobytes() == data.tobytes()
    param = Tensor(x.data.copy(), requires_grad=True)
    grad_check(lambda t: sum_all(mul(t, t)), param)
    assert param.requires_grad is True

    def fails_on(call):
        calls = []

        def f(t):
            calls.append(t.data.copy())
            if len(calls) == call:
                raise FloatingPointError("f failed")
            return sum_all(mul(t, t))
        return f

    for call in (1, 4):  # the analytic call, then a complex-step call
        with pytest.raises(FloatingPointError):
            grad_check(fails_on(call), x)
        assert x.requires_grad is False and x.grad is None
        assert x.data is array and x.data.tobytes() == data.tobytes()
        assert add(param, param).parents  # recording is on again


def test_grad_check_of_a_relu_at_exactly_zero_reads_zero():
    # the complex step keeps the real part at 0, so the relu stays off and
    # reads 0 on both sides, as the analytic rule does
    x = Tensor(np.array([[1.0, 0.0], [-1.0, 2.0]]))
    assert grad_check(lambda t: sum_all(relu(t)), x) == 0.0
    assert x.data.tolist() == [[1.0, 0.0], [-1.0, 2.0]]


def test_grad_check_fails_an_op_that_drops_the_imaginary_part():
    x = Tensor(np.random.default_rng(17).normal(size=(2, 3)))

    def real_part(t):  # the identity, whose forward forgets the complex step
        return Tensor(t.data.real, requires_grad=True, parents=(t,), backward_fn=lambda g: (g,))

    assert grad_check(lambda t: sum_all(mul(real_part(t), real_part(t))), x) == 1.0


def test_grad_check_raises_on_a_silent_cast_to_float():
    x = Tensor(np.random.default_rng(18).normal(size=(2, 3)))
    array = x.data

    def cast(t):
        return Tensor(t.data.astype(np.float64), requires_grad=True, parents=(t,),
                      backward_fn=lambda g: (g,))

    with pytest.raises(np.exceptions.ComplexWarning):
        grad_check(lambda t: sum_all(mul(cast(t), t)), x)
    assert x.data is array and x.requires_grad is False


def test_grad_check_rejects_non_leaf():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError, match="leaf"):
        grad_check(lambda t: sum_all(t), scale(x, 2.0))


@pytest.mark.parametrize("seed,fn", [
    (20, lambda t, o: sum_all(mul(t, o))),
    (21, lambda t, o: sum_all(div(t, o))),
    (22, lambda t, o: sum_all(mul(sub(t, o), sub(t, o)))),
    (23, lambda t, o: sum_all(mul(sigmoid(t), o))),
    (24, lambda t, o: sum_all(mul(softmax_rows(t), o))),
    (25, lambda t, o: sum_all(mul(log_softmax_rows(t), o))),
    (26, lambda t, o: sum_all(mul(transpose(t), transpose(o)))),
    (27, lambda t, o: sum_all(mul(neg(scale(t, 2.5)), o))),
], ids=["mul", "div", "sub", "sigmoid", "softmax", "log_softmax",
        "transpose", "neg_scale"])
def test_grad_check_elementwise(seed, fn):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 4)) + 2.5)  # offset keeps div well away from 0
    other = Tensor(rng.normal(size=(3, 4)) + 2.5)
    assert grad_check(lambda t: fn(t, other), x) < 1e-5


def test_grad_check_log_sqrt():
    x = Tensor(np.random.default_rng(11).uniform(1.0, 3.0, size=(4,)))
    assert grad_check(lambda t: sum_all(log(t)), x) < 1e-6
    assert grad_check(lambda t: sum_all(sqrt(t)), x) < 1e-6


def test_grad_check_matmul_both_sides():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))
    w = Tensor(rng.normal(size=(3, 2)))
    assert grad_check(lambda t: sum_all(mul(matmul(t, b), w)), a) < 1e-6
    assert grad_check(lambda t: sum_all(mul(matmul(a, t), w)), b) < 1e-6


def test_grad_check_conv2d():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(2, 6, 6)))
    k = Tensor(rng.normal(size=(3, 2, 3, 3)))
    w = Tensor(rng.normal(size=(3, 3, 3)))

    def f_x(t):
        return sum_all(mul(conv2d(t, k, stride=2, padding=1), w))

    def f_k(t):
        return sum_all(mul(conv2d(x, t, stride=2, padding=1), w))

    assert grad_check(f_x, x) < 1e-6
    assert grad_check(f_k, k) < 1e-6


def test_grad_check_upsample_bilinear():
    x = Tensor(np.random.default_rng(14).normal(size=(2, 3, 3)))
    w = Tensor(np.random.default_rng(15).normal(size=(2, 6, 6)))
    assert grad_check(lambda t: sum_all(mul(upsample_bilinear(t, 2), w)), x) < 1e-6


def test_grad_check_row_helpers():
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(3, 5)))
    s = Tensor(rng.normal(size=3) + 2.0)
    b = Tensor(rng.normal(size=3))
    w = Tensor(rng.normal(size=(3, 5)))
    assert grad_check(lambda t: sum_all(mul(row_scale(t, s), w)), x) < 1e-6
    assert grad_check(lambda t: sum_all(mul(row_scale(x, t), w)), s) < 1e-6
    assert grad_check(lambda t: sum_all(mul(row_bias(x, t), w)), b) < 1e-6
    assert grad_check(lambda t: sum_all(mul(sum_rows(t), Tensor(np.ones((3, 1))))), x) < 1e-9


def test_grad_check_concat_channels():
    rng = np.random.default_rng(17)
    a = Tensor(rng.normal(size=(2, 3, 3)))
    b = Tensor(rng.normal(size=(1, 3, 3)))
    w = Tensor(rng.normal(size=(3, 3, 3)))
    assert grad_check(lambda t: sum_all(mul(concat_channels(t, b), w)), a) < 1e-6
    assert grad_check(lambda t: sum_all(mul(concat_channels(a, t), w)), b) < 1e-6

"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation returns a new tensor holding references to its parents plus a
closure that maps the upstream gradient to per-parent contributions.  The
graph is therefore implicit in the tensors themselves; `topo_order` linearizes
it and `backward` walks it once in reverse, accumulating gradients into the
leaves (parameters and inputs) that require them; intermediate tensors never
hold a `.grad`.  Repeated backward calls without `zero_grads` keep
accumulating, which is what mini-batch loops rely on.

A backward closure reads its operands' `.data` when it runs, not as they were
during the forward pass: `mul` and `matmul` read the other operand, and
`conv2d` rebuilds its patch matrix from its input instead of keeping it.  An
operand must therefore not change between the forward and the backward pass;
an optimizer updates parameters in place only after `backward` has returned.

Inside `no_grad()` no op records anything: each returns a plain tensor
with no parents, computed by the same numpy calls, so the values are the
same bits.  Code that only reads values (evaluation, the complex-step
evaluations of `grad_check`) skips the graph's bookkeeping that way;
`enable_grad()` turns recording back on inside such a block, for code that
walks the graph it builds.  The switch is one per process, not per thread.

Data is float64.  Complex128 data exists only inside `grad_check`'s
numeric loop, which runs the forward ops on complex inputs: every op
accepts them, and the ops that select (`relu`, `clip`, `stable_sigmoid`)
select on the real part.  `relu` lets NaN through, so an overflow inside a
network reaches the values that are checked for being finite.

There is no implicit broadcasting: elementwise ops demand equal shapes, and
the only scalar shortcut is `scale`.  Row-wise helpers (`row_scale`,
`row_bias`, `sum_rows`) exist so blocks never have to broadcast silently.
"""

from __future__ import annotations

import contextlib
import functools
import warnings

import numpy as np

from .errors import ContractError, DimensionError


class Tensor:
    """A dense float64 array plus the bookkeeping for reverse-mode differentiation.

    Complex data is kept as complex128, for `grad_check`'s complex step;
    anything else is converted to float64."""

    __slots__ = ("data", "requires_grad", "grad", "parents", "backward_fn")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        dtype = np.complex128 if np.iscomplexobj(data) else np.float64
        self.data = np.ascontiguousarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.parents = tuple(parents)
        self.backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def op(self):
        """Name of the operation that produced this tensor (None for leaves)."""
        fn = self.backward_fn
        return fn.__qualname__.split(".", 1)[0] if fn is not None else None

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.data.shape)}{flag})"


# Whether ops record their parents and backward closures; set only by `_recording_as`.
_recording = True


@contextlib.contextmanager
def _recording_as(flag):
    global _recording
    previous = _recording
    _recording = flag
    try:
        yield
    finally:
        _recording = previous


def no_grad():
    """Context manager inside which every op returns a plain tensor: no
    parents, no backward closure, `requires_grad` False.  Blocks nest, and
    each restores the state it found on exit, also when an exception leaves it."""
    return _recording_as(False)


def enable_grad():
    """Context manager that records ops again, inside a `no_grad()` block too."""
    return _recording_as(True)


def _from_op(data, parents, backward_fn):
    """The tensor of an op's result, without `Tensor.__init__`'s dtype
    choice, `bool` and `tuple`: ops on float64 (complex128) data return
    float64 (complex128).  Every result goes through `np.ascontiguousarray`,
    since a check for data that needs none costs more than the call does."""
    t = object.__new__(Tensor)
    t.data = np.ascontiguousarray(data)
    t.grad = None
    if _recording:
        # Subgraphs that cannot influence any gradient are pruned on the spot.
        for p in parents:
            if p.requires_grad:
                t.requires_grad = True
                t.parents = parents
                t.backward_fn = backward_fn
                return t
    t.requires_grad = False
    t.parents = ()
    t.backward_fn = None
    return t


def _check_same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# elementwise


def add(a, b):
    _check_same_shape("add", a, b)
    return _from_op(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b):
    _check_same_shape("sub", a, b)
    return _from_op(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b):
    _check_same_shape("mul", a, b)
    return _from_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a, b):
    _check_same_shape("div", a, b)
    return _from_op(a.data / b.data, (a, b),
                    lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def scale(a, s):
    s = float(s)
    return _from_op(a.data * s, (a,), lambda g: (g * s,))


def neg(a):
    return scale(a, -1.0)


def relu(a):
    # NaN passes through; the gradient at exactly zero is defined as zero
    y = np.where(a.data.real <= 0.0, 0.0, a.data)
    return _from_op(y, (a,), lambda g: (g * (y.real > 0.0),))


def stable_sigmoid(x):
    """Overflow-free logistic on a raw ndarray."""
    out = np.empty_like(x)
    pos = x.real >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    y = stable_sigmoid(a.data)
    return _from_op(y, (a,), lambda g: (g * y * (1.0 - y),))


def log(a):
    return _from_op(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a):
    y = np.sqrt(a.data)
    return _from_op(y, (a,), lambda g: (g * 0.5 / y,))


def clip(a, lo, hi):
    """Clamp to [lo, hi]; gradient passes through only where no clamping happened."""
    x = a.data
    inside = (x.real >= lo) & (x.real <= hi)
    y = np.clip(x.real, lo, hi)
    if np.iscomplexobj(x):  # a clamped entry is a constant: no imaginary part
        y = np.where(inside, x, y)
    return _from_op(y, (a,), lambda g: (g * inside,))


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise DimensionError(f"reshape: cannot view {a.data.shape} as {shape}")
    return _from_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a):
    if a.data.ndim != 2:
        raise DimensionError(f"transpose: expected a matrix, got shape {a.data.shape}")
    return _from_op(np.ascontiguousarray(a.data.T), (a,),
                    lambda g: (np.ascontiguousarray(g.T),))


def concat_channels(a, b):
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise DimensionError(f"concat_channels: expected c*h*w operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1:] != b.data.shape[1:]:
        raise DimensionError(f"concat_channels: spatial dims differ, {a.data.shape} vs {b.data.shape}")
    ca = a.data.shape[0]

    def backward_fn(g):
        return g[:ca], g[ca:]

    return _from_op(np.concatenate((a.data, b.data), axis=0), (a, b), backward_fn)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def backward_fn(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _from_op(a.data @ b.data, (a, b), backward_fn)


def _im2col(xp, k, stride, oh, ow):
    """(c*k*k, oh*ow) patch matrix of a padded c*h*w map, copied once by the
    reshape of a strided window view.  For a 1x1 stride-1 kernel the reshape
    copies nothing and the result is a view of `xp`.
    """
    xp = np.ascontiguousarray(xp)  # np.ndarray(buffer=...) needs a contiguous buffer
    c = xp.shape[0]
    sc, sh, sw = xp.strides
    # several times cheaper per call than np.lib.stride_tricks.as_strided
    windows = np.ndarray((c, k, k, oh, ow), xp.dtype, xp, 0,
                         (sc, sh, sw, sh * stride, sw * stride))
    return windows.reshape(c * k * k, oh * ow)


@functools.lru_cache(maxsize=64)
def _col2im_index(c, hp, wp, k, stride, oh, ow):
    """Flat position in the padded c*hp*wp map of every patch-matrix entry,
    in the patch matrix's own (c, di, dj, oi, oj) order: im2col of the map
    of positions.  Shared between calls, hence read-only.
    """
    idx = _im2col(np.arange(c * hp * wp).reshape(c, hp, wp), k, stride, oh, ow).reshape(-1)
    idx.flags.writeable = False
    return idx


# col2im is one bincount scatter up to this many patch-matrix entries and
# k*k strided slice-adds above it.  On small maps the slice-adds cost mostly
# numpy's per-call and per-row overhead, and the scatter is 2-3x faster per
# call; every conv of the default networks on 32x32 inputs is below the
# limit.  On large maps the vectorized slice-adds beat bincount's scalar
# loop, by up to 2x for 16x64x64, and the cached index outgrows the CPU
# cache.  Timed per call on a 2-vCPU x86 VM (numpy 2.4, OpenBLAS), the two
# cross between about 1e5 and 1.5e5 entries.
_SCATTER_MAX_ENTRIES = 1 << 16


def _col2im(dcols, shape, k, stride, oh, ow):
    """Sum a (c*k*k, oh*ow) patch-matrix gradient onto a zero c*hp*wp map.

    Either way, each position receives its contributions in increasing
    (di, dj) order starting from 0.0, so both give the same bits: bincount
    adds its weights in input order, and the patch matrix is laid out in
    (c, di, dj, oi, oj) order; the slice-add loop runs over (di, dj).
    """
    c, hp, wp = shape
    if dcols.size <= _SCATTER_MAX_ENTRIES:
        idx = _col2im_index(c, hp, wp, k, stride, oh, ow)
        return np.bincount(idx, dcols.reshape(-1), c * hp * wp).reshape(shape)
    dcols = dcols.reshape(c, k, k, oh, ow)
    dxp = np.zeros(shape)
    for di in range(k):
        for dj in range(k):
            dxp[:, di:di + stride * oh:stride, dj:dj + stride * ow:stride] += dcols[:, di, dj]
    return dxp


def conv2d(x, kernel, stride=1, padding=0):
    """2-D cross-correlation of a c_in*h*w map with a c_out*c_in*k*k kernel stack.

    The forward pass is one GEMM on the im2col patch matrix, a (c_in*k*k,
    oh*ow) copy of the input that is k*k times its size at stride 1.  The
    matrix is a temporary: the graph keeps `x`, a parent anyway, and
    backward rebuilds the matrix from `x.data` with the same pad and im2col
    calls for the kernel gradient, so the bits are the same as from a kept
    copy.  Backward therefore reads `x.data` as it is then (see the module
    docstring).  An unpadded 1x1 stride-1 conv copies nothing: its patch
    matrix is a view of `x.data`.

    In backward the input gradient folds the patch-matrix gradient back onto
    the padded map (col2im): one `np.bincount` scatter for small maps, k*k
    strided slice-adds for large ones.  Both accumulate each position in the
    same order, so the result is bit for bit the same on either side of the
    size switch.
    """
    if x.data.ndim != 3:
        raise DimensionError(f"conv2d: expected c*h*w input, got shape {x.data.shape}")
    if kernel.data.ndim != 4:
        raise DimensionError(f"conv2d: expected 4-d kernel, got shape {kernel.data.shape}")
    c_out, c_in, kh, kw = kernel.data.shape
    if kh != kw:
        raise DimensionError(f"conv2d: kernel must be square, got {kh}x{kw}")
    if kh % 2 == 0:
        raise ContractError(f"conv2d: kernel size must be odd, got {kh}")
    if x.data.shape[0] != c_in:
        raise DimensionError(f"conv2d: input has {x.data.shape[0]} channels, kernel expects {c_in}")
    stride = int(stride)
    padding = int(padding)
    if stride < 1 or padding < 0:
        raise ContractError(f"conv2d: bad stride/padding {stride}/{padding}")
    _, h, w = x.data.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise DimensionError(f"conv2d: {h}x{w} input too small for k={kh}, padding={padding}")

    padded = (c_in, h + 2 * padding, w + 2 * padding)

    def patches():
        if padding:
            xp = np.zeros(padded, dtype=x.data.dtype)
            xp[:, padding:padding + h, padding:padding + w] = x.data
        else:
            xp = x.data
        return _im2col(xp, kh, stride, oh, ow)

    w2 = kernel.data.reshape(c_out, c_in * kh * kw)
    out = (w2 @ patches()).reshape(c_out, oh, ow)

    def backward_fn(g):
        g2 = g.reshape(c_out, oh * ow)
        gk = (g2 @ patches().T).reshape(kernel.data.shape) if kernel.requires_grad else None
        gx = None
        if x.requires_grad:
            dxp = _col2im(w2.T @ g2, padded, kh, stride, oh, ow)
            gx = dxp[:, padding:padding + h, padding:padding + w] if padding else dxp
        return gx, gk

    return _from_op(out, (x, kernel), backward_fn)


# ---------------------------------------------------------------------------
# resampling


def upsample_nearest(a, factor):
    if a.data.ndim != 3:
        raise DimensionError(f"upsample_nearest: expected c*h*w input, got shape {a.data.shape}")
    factor = int(factor)
    if factor < 1:
        raise ContractError(f"upsample_nearest: factor must be >= 1, got {factor}")
    c, h, w = a.data.shape
    out = np.repeat(np.repeat(a.data, factor, axis=1), factor, axis=2)

    def backward_fn(g):
        return (g.reshape(c, h, factor, w, factor).sum(axis=(2, 4)),)

    return _from_op(out, (a,), backward_fn)


def _bilinear_axis(n_in, factor):
    src = (np.arange(n_in * factor) + 0.5) / factor - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w1 = src - i0
    return i0, i1, 1.0 - w1, w1


def upsample_bilinear(a, factor):
    if a.data.ndim != 3:
        raise DimensionError(f"upsample_bilinear: expected c*h*w input, got shape {a.data.shape}")
    factor = int(factor)
    if factor < 1:
        raise ContractError(f"upsample_bilinear: factor must be >= 1, got {factor}")
    c, h, w = a.data.shape
    r0, r1, wr0, wr1 = _bilinear_axis(h, factor)
    c0, c1, wc0, wc1 = _bilinear_axis(w, factor)
    rows = a.data[:, r0, :] * wr0[None, :, None] + a.data[:, r1, :] * wr1[None, :, None]
    out = rows[:, :, c0] * wc0[None, None, :] + rows[:, :, c1] * wc1[None, None, :]

    def backward_fn(g):
        grows = np.zeros((c, h * factor, w), dtype=np.float64)
        np.add.at(grows.transpose(2, 0, 1), c0, (g * wc0[None, None, :]).transpose(2, 0, 1))
        np.add.at(grows.transpose(2, 0, 1), c1, (g * wc1[None, None, :]).transpose(2, 0, 1))
        gx = np.zeros((c, h, w), dtype=np.float64)
        np.add.at(gx.transpose(1, 0, 2), r0, (grows * wr0[None, :, None]).transpose(1, 0, 2))
        np.add.at(gx.transpose(1, 0, 2), r1, (grows * wr1[None, :, None]).transpose(1, 0, 2))
        return (gx,)

    return _from_op(out, (a,), backward_fn)


# ---------------------------------------------------------------------------
# softmax and reductions


def softmax_rows(x):
    """Row-wise softmax of a matrix, stabilized by subtracting each row maximum."""
    if x.data.ndim != 2:
        raise DimensionError(f"softmax_rows: expected a matrix, got shape {x.data.shape}")
    if x.data.size == 0:
        return _from_op(x.data.copy(), (x,), lambda g: (g.copy(),))
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward_fn(g):
        gy = g * y
        return (gy - y * gy.sum(axis=1, keepdims=True),)

    return _from_op(y, (x,), backward_fn)


def log_softmax_rows(x):
    if x.data.ndim != 2:
        raise DimensionError(f"log_softmax_rows: expected a matrix, got shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - lse

    def backward_fn(g):
        return (g - np.exp(y) * g.sum(axis=1, keepdims=True),)

    return _from_op(y, (x,), backward_fn)


def sum_all(x):
    """Reduce every element to a single scalar tensor."""
    return _from_op(np.asarray(x.data.sum()), (x,),
                    lambda g: (np.full(x.data.shape, g.flat[0]),))


def sum_rows(x):
    if x.data.ndim != 2:
        raise DimensionError(f"sum_rows: expected a matrix, got shape {x.data.shape}")
    return _from_op(x.data.sum(axis=1, keepdims=True), (x,),
                    lambda g: (np.repeat(g, x.data.shape[1], axis=1),))


def row_scale(x, s):
    """Multiply row i of a matrix by s[i] (explicit stand-in for broadcasting)."""
    if x.data.ndim != 2 or s.data.ndim != 1 or s.data.shape[0] != x.data.shape[0]:
        raise DimensionError(f"row_scale: shapes {x.data.shape} and {s.data.shape} do not line up")
    col = s.data[:, None]

    def backward_fn(g):
        return g * col, (g * x.data).sum(axis=1)

    return _from_op(x.data * col, (x, s), backward_fn)


def row_bias(x, b):
    """Add b[i] to every element of row i."""
    if x.data.ndim != 2 or b.data.ndim != 1 or b.data.shape[0] != x.data.shape[0]:
        raise DimensionError(f"row_bias: shapes {x.data.shape} and {b.data.shape} do not line up")

    def backward_fn(g):
        return g, g.sum(axis=1)

    return _from_op(x.data + b.data[:, None], (x, b), backward_fn)


# ---------------------------------------------------------------------------
# backward pass


def topo_order(*roots):
    """Parents-first linearization of the graph reachable from `roots`.

    Each tensor appears exactly once, after all of its parents, even when
    several roots share a subgraph.
    """
    order = []
    seen = set()
    stack = [(root, False) for root in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order


def macs(*roots):
    """Multiply-adds of every conv2d and matmul in the graph of `roots`.

    A conv2d output element costs c_in*k*k multiply-adds and a matmul output
    element costs the inner dimension; every other op counts as free.  A
    subgraph shared between roots is counted once.  Ops whose operands all
    lack `requires_grad` were pruned from the graph and are not seen.
    """
    total = 0
    for node in topo_order(*roots):
        op = node.op
        if op == "conv2d":
            kernel = node.parents[1]
            total += node.size * (kernel.size // kernel.shape[0])
        elif op == "matmul":
            total += node.size * node.parents[0].shape[1]
    return total


def backward(loss):
    """Accumulate d(loss)/d(t) into t.grad for every reachable requires_grad leaf.

    Leaves are the tensors no op produced (`backward_fn is None`): parameters
    and inputs.  Intermediate results keep `grad = None`; their gradients live
    only in per-call buffers while they flow, so calling backward twice on the
    same graph adds the same contribution twice (linearity), instead of
    compounding stale values.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    order = topo_order(loss)
    flowing = {loss: np.ones_like(loss.data)}
    for node in reversed(order):
        g = flowing.pop(node, None)
        if g is None:
            continue
        if node.backward_fn is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, contrib in zip(node.parents, node.backward_fn(g)):
            if contrib is None or not parent.requires_grad:
                continue
            have = flowing.get(parent)
            flowing[parent] = contrib if have is None else have + contrib


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


# The imaginary step of `grad_check`: small enough that the truncation
# error (of order h^2 times the third derivative) is far below rounding.
_STEP = 1e-30


def grad_check(f, x):
    """Worst relative error between the analytic gradient and complex-step derivatives.

    `f` maps the leaf tensor `x` to a scalar tensor and must be deterministic.
    The numeric derivative at coordinate i is Im f(x + ih e_i) / h with
    h = 1e-30: a complex step, which subtracts nothing and so is exact to
    rounding (Squire & Trapp, SIAM Review 40(1), 1998).  The error at each
    coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).

    Only the first call of `f` records a graph, for the analytic gradient.
    Then `x.data` is swapped for a complex128 copy and `f` runs once per
    coordinate under `no_grad()`, since only its values are read; each call
    still runs all of `f`, so an op that drops a parent shows up as a gap
    between the two gradients.  An op that drops the imaginary part reads a
    numeric derivative of 0, and numpy's `ComplexWarning` is an error inside
    the loop, so a silent cast to float raises instead of passing.  A relu
    selects on the real part, so at exactly 0 it reads 0 on both sides.

    When this returns or raises, `x.data` (the same array, with the same
    bits), `x.requires_grad` and the recording state are as the caller left
    them, and `x.grad` is None.
    """
    if x.backward_fn is not None:
        raise ContractError(f"grad_check: x must be a leaf tensor, got the output of {x.op}")
    requires_grad = x.requires_grad
    data = x.data
    x.requires_grad = True
    x.grad = None
    try:
        with enable_grad():
            out = f(x)
        backward(out)
        analytic = np.zeros_like(data) if x.grad is None else x.grad
        x.grad = None

        numeric = np.empty(data.shape)
        nflat = numeric.reshape(-1)
        real = data.reshape(-1)
        x.data = data.astype(np.complex128)
        flat = x.data.reshape(-1)
        with no_grad(), warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            for i in range(flat.size):
                flat[i] = complex(real[i], _STEP)
                nflat[i] = f(x).data.imag.item() / _STEP
                flat[i] = real[i]
    finally:
        x.data = data
        x.requires_grad = requires_grad

    err = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(err.max()) if err.size else 0.0

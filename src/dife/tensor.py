"""Dense 4-D float64 tensors with a reverse-mode autodiff tape.

Every value in the library lives in an (N, C, H, W) carrier.  Ops are free
functions that compute eagerly and, when a tape is active and an input is
tracked, append a node with a backward closure.  The tape is rebuilt for
every forward pass (define-by-run).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Parameter",
    "ShapeError",
    "ContractError",
    "OracleError",
    "tensor",
    "zeros",
    "ones",
    "scalar",
    "add",
    "sub",
    "mul",
    "scale",
    "add_scalar",
    "neg",
    "relu",
    "sigmoid",
    "absolute",
    "softplus",
    "conv2d",
    "global_avg_pool",
    "fully_connected",
    "softmax_channels",
    "pixel_entropy_map",
    "channel_sum",
    "spatial_mean",
    "batch_mean",
    "sum_all",
    "mean_all",
    "upsample_bilinear2x",
    "concat_channels",
    "to_matrix",
    "matmul",
    "transpose_mat",
    "cross_entropy",
    "finite_difference_gradient",
]


class ShapeError(ValueError):
    """Raised when tensor shapes do not satisfy an op's contract."""


class ContractError(RuntimeError):
    """Raised when an op is called outside its contract (non-shape)."""


class OracleError(RuntimeError):
    """Raised by the finite-difference oracle on unusable inputs."""


_ACTIVE_TAPE = None


class Tensor:
    """A dense (N, C, H, W) array of float64 with an optional tape handle."""

    __slots__ = ("data", "requires_grad", "_tape", "_nid")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"tensor must be 4-D (N,C,H,W), got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._tape = None
        self._nid = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def node_id(self):
        tape = _ACTIVE_TAPE
        if tape is not None and self._tape is tape:
            return self._nid
        return None

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def has_nonfinite(self):
        return not bool(np.isfinite(self.data).all())

    def detached(self):
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter:
    """A named trainable tensor plus its SGD momentum buffer."""

    __slots__ = ("tensor", "name", "momentum_buf")

    def __init__(self, data, name):
        self.tensor = Tensor(data, requires_grad=True)
        self.name = name
        self.momentum_buf = np.zeros_like(self.tensor.data)

    @property
    def data(self):
        return self.tensor.data

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class _Node:
    __slots__ = ("parents", "backward_fn", "shape")

    def __init__(self, parents, backward_fn, shape):
        self.parents = parents
        self.backward_fn = backward_fn
        self.shape = shape


class Tape:
    """Reverse-mode record for one forward/backward cycle.

    Use as a context manager; ops executed inside record nodes for any
    result that depends on a requires_grad tensor.  The active tape is a
    module global, so at most one tape is active per process.
    """

    def __init__(self):
        self.nodes = []
        self.grads = None

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a tape is already active in this process")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def _leaf(self, t):
        """Node id for tensor t, creating a leaf node if it is tracked."""
        if t._tape is self and t._nid is not None:
            return t._nid
        if t.requires_grad:
            nid = len(self.nodes)
            self.nodes.append(_Node((), None, t.shape))
            t._tape = self
            t._nid = nid
            return nid
        return None

    def _emit(self, out, parent_ids, backward_fn):
        nid = len(self.nodes)
        self.nodes.append(_Node(tuple(parent_ids), backward_fn, out.shape))
        out._tape = self
        out._nid = nid

    def backward(self, root):
        """Accumulate d(root)/d(node) for every node reachable from root."""
        if root.data.shape != (1, 1, 1, 1):
            raise ContractError(f"backward root must be scalar (1,1,1,1), got {root.shape}")
        if root._tape is not self or root._nid is None:
            raise ContractError("root is not recorded on this tape")
        self.grads = [None] * len(self.nodes)
        self.grads[root._nid] = np.ones((1, 1, 1, 1))
        for nid in range(root._nid, -1, -1):
            g = self.grads[nid]
            node = self.nodes[nid]
            if g is None or node.backward_fn is None:
                continue
            parent_grads = node.backward_fn(g)
            for pid, pg in zip(node.parents, parent_grads):
                if pg is None:
                    continue
                if self.grads[pid] is None:
                    self.grads[pid] = pg.copy()
                else:
                    self.grads[pid] += pg

    def grad(self, t):
        """Gradient buffer for t after backward(); zeros if unreachable."""
        if self.grads is None:
            raise ContractError("backward() has not run on this tape")
        if t._tape is self and t._nid is not None and self.grads[t._nid] is not None:
            return self.grads[t._nid]
        return np.zeros(t.shape)


def tensor(data, requires_grad=False):
    arr = np.asarray(data, dtype=np.float64)
    while arr.ndim < 4:
        arr = arr[np.newaxis]
    return Tensor(arr, requires_grad=requires_grad)


def zeros(shape, requires_grad=False):
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad=False):
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def scalar(x, requires_grad=False):
    return Tensor(np.full((1, 1, 1, 1), float(x)), requires_grad=requires_grad)


def _maybe_record(out, inputs, backward_fn):
    tape = _ACTIVE_TAPE
    if tape is None:
        return out
    pids = [tape._leaf(t) for t in inputs]
    if all(p is None for p in pids):
        return out
    live = [(i, p) for i, p in enumerate(pids) if p is not None]

    def bwd(g, _live=live, _n=len(inputs), _fn=backward_fn):
        full = _fn(g)
        return [full[i] for i, _ in _live]

    tape._emit(out, [p for _, p in live], bwd)
    return out


def _check_same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _bcast_shape_ok(x, y):
    """y may equal x's shape, or be a per-channel (N,C,1,1)/(1,C,1,1) panel."""
    xs, ys = x.shape, y.shape
    if xs == ys:
        return True
    if ys[1] == xs[1] and ys[2] == ys[3] == 1 and ys[0] in (1, xs[0]):
        return True
    return False


def _reduce_to(g, shape):
    """Sum g down to `shape` (inverse of the broadcast in _bcast_shape_ok)."""
    if g.shape == shape:
        return g
    axes = tuple(i for i in range(4) if shape[i] == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


def add(a, b):
    if not _bcast_shape_ok(a, b):
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)
    return _maybe_record(out, (a, b), lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)))


def sub(a, b):
    if not _bcast_shape_ok(a, b):
        raise ShapeError(f"sub: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data)
    return _maybe_record(out, (a, b), lambda g: (_reduce_to(g, a.shape), -_reduce_to(g, b.shape)))


def mul(a, b):
    if not _bcast_shape_ok(a, b):
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    return _maybe_record(
        out, (a, b),
        lambda g: (_reduce_to(g * bd, a.shape), _reduce_to(g * ad, b.shape)),
    )


def scale(a, s):
    s = float(s)
    out = Tensor(a.data * s)
    return _maybe_record(out, (a,), lambda g: (g * s,))


def add_scalar(a, s):
    s = float(s)
    out = Tensor(a.data + s)
    return _maybe_record(out, (a,), lambda g: (g,))


def neg(a):
    return scale(a, -1.0)


def relu(a):
    out = Tensor(np.maximum(a.data, 0.0))
    pos = a.data > 0
    return _maybe_record(out, (a,), lambda g: (g * pos,))


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y)
    return _maybe_record(out, (a,), lambda g: (g * y * (1.0 - y),))


def absolute(a):
    out = Tensor(np.abs(a.data))
    sgn = np.sign(a.data)
    return _maybe_record(out, (a,), lambda g: (g * sgn,))


def softplus(a):
    """Elementwise ln(1 + e^x), overflow-safe for large x."""
    out = Tensor(np.logaddexp(0.0, a.data))
    sig = 1.0 / (1.0 + np.exp(-a.data))
    return _maybe_record(out, (a,), lambda g: (g * sig,))


def _im2col(xd, kh, kw, stride, pad):
    n, c, h, w = xd.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel ({kh},{kw}) too large for input ({h},{w}) with pad {pad}")
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    sn, sc, sh, sw = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, ho, wo),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return view.reshape(n, c * kh * kw, ho * wo), (ho, wo)


def _col2im(cols, xshape, kh, kw, stride, pad):
    n, c, h, w = xshape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols[:, :, i, j]
    if pad:
        return xp[:, :, pad : pad + h, pad : pad + w]
    return xp


def conv2d(x, w, b, stride=1, pad=0):
    """2-D convolution (cross-correlation); w is (C_out, C_in, kh, kw)."""
    if stride < 1 or pad < 0:
        raise ContractError(f"conv2d: stride {stride} / pad {pad} out of contract")
    co, ci, kh, kw = w.shape
    if x.shape[1] != ci:
        raise ShapeError(f"conv2d: input channels {x.shape[1]} != kernel C_in {ci}")
    if b.shape != (1, co, 1, 1):
        raise ShapeError(f"conv2d: bias must be (1,{co},1,1), got {b.shape}")
    n = x.shape[0]
    cols, (ho, wo) = _im2col(x.data, kh, kw, stride, pad)
    wmat = w.data.reshape(co, ci * kh * kw)
    out_data = np.matmul(wmat, cols).reshape(n, co, ho, wo) + b.data
    out = Tensor(out_data)
    xshape = x.shape

    def bwd(g):
        gm = g.reshape(n, co, ho * wo)
        dw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        db = g.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1)
        dcols = np.matmul(wmat.T, gm)
        dx = _col2im(dcols, xshape, kh, kw, stride, pad)
        return (dx, dw, db)

    return _maybe_record(out, (x, w, b), bwd)


def global_avg_pool(x):
    n, c, h, w = x.shape
    out = Tensor(x.data.mean(axis=(2, 3), keepdims=True))
    return _maybe_record(out, (x,), lambda g: (np.broadcast_to(g / (h * w), (n, c, h, w)).copy(),))


def fully_connected(x, w, b):
    """Linear layer on (N, C_in, 1, 1); w is (C_out, C_in, 1, 1), b (1, C_out, 1, 1)."""
    n, ci, h, wd = x.shape
    if (h, wd) != (1, 1):
        raise ShapeError(f"fully_connected: input must be (N,C,1,1), got {x.shape}")
    co = w.shape[0]
    if w.shape != (co, ci, 1, 1):
        raise ShapeError(f"fully_connected: weight must be ({co},{ci},1,1), got {w.shape}")
    if b.shape != (1, co, 1, 1):
        raise ShapeError(f"fully_connected: bias must be (1,{co},1,1), got {b.shape}")
    wm = w.data.reshape(co, ci)
    xm = x.data.reshape(n, ci)
    out = Tensor((xm @ wm.T + b.data.reshape(1, co)).reshape(n, co, 1, 1))

    def bwd(g):
        gm = g.reshape(n, co)
        dx = (gm @ wm).reshape(n, ci, 1, 1)
        dw = (gm.T @ xm).reshape(w.shape)
        db = gm.sum(axis=0).reshape(1, co, 1, 1)
        return (dx, dw, db)

    return _maybe_record(out, (x, w, b), bwd)


def softmax_channels(x):
    """Softmax over the channel axis at every (n, h, w) position."""
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    def bwd(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return _maybe_record(out, (x,), bwd)


def pixel_entropy_map(x):
    """Per-pixel Shannon entropy of the channel softmax, output (N,1,H,W)."""
    if x.shape[1] < 2:
        raise ShapeError(f"pixel_entropy_map: needs C >= 2, got C={x.shape[1]}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    logp = np.log(np.maximum(p, 1e-300))
    ent = -(p * logp).sum(axis=1, keepdims=True)
    out = Tensor(ent)

    def bwd(g):
        # d ent / d logit_c = -p_c (log p_c + ent)
        return (g * (-p * (logp + ent)),)

    return _maybe_record(out, (x,), bwd)


def channel_sum(x):
    n, c, h, w = x.shape
    out = Tensor(x.data.sum(axis=1, keepdims=True))
    return _maybe_record(out, (x,), lambda g: (np.broadcast_to(g, (n, c, h, w)).copy(),))


def spatial_mean(x):
    return global_avg_pool(x)


def batch_mean(x):
    n = x.shape[0]
    out = Tensor(x.data.mean(axis=0, keepdims=True))
    return _maybe_record(out, (x,), lambda g: (np.broadcast_to(g / n, x.shape).copy(),))


def sum_all(x):
    out = Tensor(x.data.sum().reshape(1, 1, 1, 1))
    shp = x.shape
    return _maybe_record(out, (x,), lambda g: (np.broadcast_to(g, shp).copy(),))


def mean_all(x):
    out = Tensor(x.data.mean().reshape(1, 1, 1, 1))
    shp = x.shape
    n = x.data.size
    return _maybe_record(out, (x,), lambda g: (np.broadcast_to(g / n, shp).copy(),))


def _bilinear_matrix(size):
    """(2*size, size) interpolation weights, half-pixel-centre convention."""
    m = np.zeros((2 * size, size))
    for i in range(2 * size):
        src = (i + 0.5) / 2.0 - 0.5
        lo = int(np.floor(src))
        frac = src - lo
        lo_c = min(max(lo, 0), size - 1)
        hi_c = min(max(lo + 1, 0), size - 1)
        m[i, lo_c] += 1.0 - frac
        m[i, hi_c] += frac
    return m


def upsample_bilinear2x(x):
    n, c, h, w = x.shape
    ah = _bilinear_matrix(h)
    awt = _bilinear_matrix(w).T
    out = Tensor(np.matmul(np.matmul(ah, x.data), awt))
    return _maybe_record(out, (x,), lambda g: (np.matmul(np.matmul(ah.T, g), awt.T),))


def concat_channels(a, b):
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels: incompatible {a.shape} vs {b.shape}")
    ca = a.shape[1]
    out = Tensor(np.concatenate([a.data, b.data], axis=1))
    return _maybe_record(out, (a, b), lambda g: (g[:, :ca], g[:, ca:]))


def to_matrix(x):
    """Reshape (N,C,H,W) to (N,1,C,H*W) for channel-Gram algebra."""
    n, c, h, w = x.shape
    out = Tensor(x.data.reshape(n, 1, c, h * w))
    return _maybe_record(out, (x,), lambda g: (g.reshape(n, c, h, w),))


def matmul(a, b):
    """Batched matrix multiply over the leading two axes: (..., i, j) @ (..., j, k)."""
    if a.shape[:2] != b.shape[:2] or a.shape[3] != b.shape[2]:
        raise ShapeError(f"matmul: incompatible {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data
    return _maybe_record(
        out, (a, b),
        lambda g: (g @ bd.swapaxes(2, 3), ad.swapaxes(2, 3) @ g),
    )


def transpose_mat(x):
    out = Tensor(x.data.swapaxes(2, 3))
    return _maybe_record(out, (x,), lambda g: (g.swapaxes(2, 3),))


def cross_entropy(logits, target, ignore_index=-1):
    """Mean −log softmax(logits)[target] over non-ignored pixels.

    target is an integer (N, H, W) array; ignored pixels carry ignore_index.
    """
    n, c, h, w = logits.shape
    target = np.asarray(target)
    if target.shape != (n, h, w):
        raise ShapeError(f"cross_entropy: target shape {target.shape} != {(n, h, w)}")
    bad = (target != ignore_index) & ((target < 0) | (target >= c))
    if bad.any():
        where = tuple(int(v) for v in np.argwhere(bad)[0])
        raise ContractError(
            f"cross_entropy: class {int(target[where])} out of range at pixel {where}"
        )
    valid = target != ignore_index
    count = int(valid.sum())
    if count == 0:
        raise ContractError("cross_entropy: no non-ignored pixels")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    tclip = np.where(valid, target, 0)
    picked = np.take_along_axis(logp, tclip[:, None], axis=1)[:, 0]
    loss = -(picked * valid).sum() / count
    out = Tensor(loss.reshape(1, 1, 1, 1))
    p = np.exp(logp)

    def bwd(g):
        gl = p.copy()
        np.put_along_axis(gl, tclip[:, None], np.take_along_axis(gl, tclip[:, None], axis=1) - 1.0, axis=1)
        gl *= valid[:, None]
        return (float(g.reshape(-1)[0]) * gl / count,)

    return _maybe_record(out, (logits,), bwd)


def finite_difference_gradient(f, x, eps=1e-5):
    """Central-difference gradient of scalar f at x; the verification oracle.

    f must be deterministic; two baseline evaluations are compared first.
    """
    if eps <= 0:
        raise OracleError(f"eps must be positive, got {eps}")

    def call(arr):
        out = f(Tensor(arr))
        if isinstance(out, Tensor):
            return out.item()
        return float(out)

    base = call(x.data.copy())
    again = call(x.data.copy())
    if base != again:
        raise OracleError(f"f is not deterministic: {base} != {again}")
    grad = np.zeros(x.shape)
    flat = x.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        work = x.data.copy().reshape(-1)
        work[i] = orig + eps
        hi = call(work.reshape(x.shape))
        work[i] = orig - eps
        lo = call(work.reshape(x.shape))
        gflat[i] = (hi - lo) / (2.0 * eps)
    return Tensor(grad)

"""Dense 4-D float64 tensors with a reverse-mode autodiff tape.

Every value in the library lives in an (N, C, H, W) carrier.  Ops are free
functions that compute eagerly and, when the calling thread has an open
tape and an input is tracked, append a node with a backward closure.  The
tape is rebuilt for every forward pass (define-by-run).
"""

from __future__ import annotations

import functools
import itertools
import os
import queue
import threading

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Parameter",
    "ShapeError",
    "ContractError",
    "OracleError",
    "zeros",
    "ones",
    "scalar",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "sigmoid",
    "conv2d",
    "global_avg_pool",
    "fully_connected",
    "sum_all",
    "mean_all",
    "upsample_bilinear2x",
    "cross_entropy",
    "finite_difference_gradient",
    "IGNORE_INDEX",
]

IGNORE_INDEX = -1   # mask label of pixels that no loss or metric counts


class ShapeError(ValueError):
    """Raised when tensor shapes do not satisfy an op's contract."""


class ContractError(RuntimeError):
    """Raised when an op is called outside its contract (non-shape)."""


class OracleError(RuntimeError):
    """Raised by the finite-difference oracle on unusable inputs."""


class _ThreadState(threading.local):
    active = None   # the tape open on this thread
    closed = None   # its last closed tape, whose record the next tape drops


_STATE = _ThreadState()
_SERIALS = itertools.count()   # tape serials; a freed tape's id() can be reused


def core_count():
    """Cores this process may run on: its affinity mask where the platform
    has one (not macOS), else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_JOBS = queue.SimpleQueue()   # the leaf-gradient worker's queue, shared by every tape
_WORKER = None                # that worker's thread, started on first use
_LOCK = threading.Lock()      # guards _WORKER and each job's claim


class _LeafJob:
    """leaf_fn(g) of one node, run once under the walk's np.geterr(): by the
    leaf-gradient worker or, if that has not started it when the walk ends,
    by the walk's own thread."""

    def __init__(self, fn, g):
        self.call, self.out, self.done = (fn, g, np.geterr()), None, threading.Event()

    def _claim(self):
        with _LOCK:
            call, self.call = self.call, None
        return call

    def run(self):
        call = self._claim()
        if call is not None:
            fn, g, err = call
            try:
                with np.errstate(**err):
                    self.out = fn(g)
            except BaseException as exc:   # raised on the walk's thread by result()
                self.out = exc
            self.done.set()

    def result(self):
        self.done.wait()
        if isinstance(self.out, BaseException):
            raise self.out
        return self.out

    def settle(self):
        """Drop the call if no thread started it, else wait for it; then drop
        the result, so that no queued or finished job holds an array."""
        if self._claim() is None:
            self.done.wait()
        self.out = None


def _leaf_worker():
    while True:
        _JOBS.get().run()


def _submit(job):
    global _WORKER
    with _LOCK:
        if _WORKER is None:
            _WORKER = threading.Thread(target=_leaf_worker, name="dife-leaf", daemon=True)
            _WORKER.start()
    _JOBS.put(job)


class Tensor:
    """A dense (N, C, H, W) array of float64; an op's output carries its node's tag."""

    __slots__ = ("data", "requires_grad", "_tag")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, np.ndarray) and np.issubdtype(data.dtype, np.integer):
            # loaded pixels are uint8 0..255: data.stack_batch decodes them
            raise ContractError(f"tensor data must be floating point, got {data.dtype}")
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"tensor must be 4-D (N,C,H,W), got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._tag = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def node_id(self):
        tape = _STATE.active
        return None if tape is None else tape._id(self)

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def has_nonfinite(self):
        return not bool(np.isfinite(self.data).all())

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
    __slots__ = ("parents", "backward_fn", "leaf_fn")

    def __init__(self, parents, backward_fn, leaf_fn):
        self.parents = parents
        self.backward_fn = backward_fn
        self.leaf_fn = leaf_fn


class Tape:
    """Reverse-mode record for one forward/backward cycle.

    Use as a context manager; ops executed inside record nodes for any
    result that depends on a requires_grad tensor, and backward() runs
    inside the block, once.  backward() drops each node's closure as it
    passes, so an op's saved forward state is freed as soon as its
    gradients exist.  Recording is per thread: a thread has at most one
    active tape, which records only that thread's ops.  No tensor refers to
    a tape: an op's output carries its node's tag, and the tape holds each
    tracked leaf it meets (a requires_grad tensor, such as a Parameter).
    A leaf gets no node, only a gradient slot: its id is -1 - (its index
    among the leaves), which indexes that slot from the end of `grads`.
    Tape(keep_interior=False) also frees each node's gradient once the
    node's backward has run, for a caller that reads only the leaves'.

    backward() hands leaf work to one worker thread, when the process has
    more than one core: a conv's weight and bias gradients, which no node
    reads, are computed there while the walk carries on down the input
    gradients.  Each leaf's gradients are kept in walk order and summed
    after the walk, so every sum has a serial walk's operands in its order.

    A closed tape answers grad() until the next tape opens on its thread,
    which drops its record.  The drop waits because memory freed at a
    step's end lets glibc trim the heap top, and the next allocations fault
    the pages back in: on the 48x48 benchmark, dropping each record at its
    own __exit__ cut train-plain eval_images_per_s by 17 %, and freeing each
    tape once nothing held it raised setup_s by 25-38 %.  The `dife` command
    pins glibc's thresholds; the deferral remains for library callers.
    """

    def __init__(self, keep_interior=True):
        self.serial = next(_SERIALS)
        self.nodes = []
        self.grads = None
        self.leaves = {}   # id(leaf) -> (leaf id, leaf); holding the leaf keeps its id unique
        self.keep_interior = keep_interior

    def __enter__(self):
        if _STATE.active is not None:
            raise ContractError("a tape is already active on this thread")
        # Drop the previous step's record now, not at this tape's close: the
        # trainer's locals would keep it (14.6 MiB on a full step) all step.
        closed, _STATE.closed = _STATE.closed, None
        if closed is not None:
            closed.drop()
        _STATE.active = self
        return self

    def drop(self):
        """Free the record now, not when the next tape opens on this thread."""
        self.nodes = self.grads = self.leaves = None

    def __exit__(self, *exc):
        _STATE.active, _STATE.closed = None, self
        return False

    def _id(self, t):
        """Node id of tensor t on this tape, or None."""
        tag = t._tag
        if tag is not None and tag[0] == self.serial:
            return tag[1]
        return self.leaves.get(id(t), (None,))[0]

    def _leaf(self, t):
        """Id of tensor t, giving it a leaf id if it is tracked and has none."""
        nid = self._id(t)
        if nid is None and t.requires_grad:
            nid = -1 - len(self.leaves)
            self.leaves[id(t)] = (nid, t)
        return nid

    def _emit(self, out, parent_ids, backward_fn, leaf_fn):
        out._tag = (self.serial, len(self.nodes))
        self.nodes.append(_Node(tuple(parent_ids), backward_fn, leaf_fn))

    def backward(self, root):
        """Accumulate d(root)/d(node) for every node reachable from root.

        Runs once per tape: every node's closure, reached or not, is taken
        off the node before it would run, which frees its saved state.
        """
        if _STATE.active is not self:
            raise ContractError("backward() must run inside the tape's with-block")
        if self.grads is not None:
            raise ContractError("backward() already ran on this tape")
        if root.data.shape != (1, 1, 1, 1):
            raise ContractError(f"backward root must be scalar (1,1,1,1), got {root.shape}")
        rid = self._id(root)
        if rid is None:
            raise ContractError("root is not recorded on this tape")
        self.grads = [None] * (len(self.nodes) + len(self.leaves))
        self.grads[rid] = np.ones((1, 1, 1, 1))
        on_worker = core_count() > 1
        parts = {}   # leaf id -> its gradients in walk order: arrays and (job, index)
        jobs = []
        try:
            # Nodes after root get no gradient (parents precede their children),
            # so the walk starts at the last node only to free their closures.
            for nid in range(len(self.nodes) - 1, -1, -1):
                node = self.nodes[nid]
                fn, node.backward_fn = node.backward_fn, None
                leaf_fn, node.leaf_fn = node.leaf_fn, None
                g = self.grads[nid]
                if g is None or fn is None:
                    continue
                parent_grads = fn(g)
                if leaf_fn is not None:
                    tail = node.parents[len(parent_grads):]
                    if on_worker and all(pid is None or pid < 0 for pid in tail):
                        jobs.append(_LeafJob(leaf_fn, g))
                        _submit(jobs[-1])
                        parent_grads += tuple((jobs[-1], i) for i in range(len(tail)))
                    else:
                        parent_grads += leaf_fn(g)
                if not self.keep_interior:
                    self.grads[nid] = None
                for pid, pg in zip(node.parents, parent_grads):
                    if pid is None or pg is None:   # untracked input, or no gradient
                        continue
                    if pid < 0:
                        parts.setdefault(pid, []).append(pg)
                    # Out of place: a stored gradient may be another node's array.
                    elif self.grads[pid] is None:
                        self.grads[pid] = pg
                    else:
                        self.grads[pid] = self.grads[pid] + pg
            for job in reversed(jobs):   # the worker takes them from the front
                job.run()
            for pid, pgs in parts.items():
                total = None
                for pg in pgs:
                    if isinstance(pg, tuple):
                        pg = pg[0].result()[pg[1]]
                    total = pg if total is None else total + pg
                self.grads[pid] = total
        finally:
            for job in jobs:
                job.settle()

    def _ran(self):
        if self.nodes is None:
            raise ContractError("this tape's record was dropped")
        if self.grads is None:
            raise ContractError("backward() has not run on this tape")

    def grad(self, t):
        """Gradient buffer for t after backward(); zeros if unreachable."""
        self._ran()
        nid = self._id(t)
        if nid is not None and self.grads[nid] is not None:
            return self.grads[nid]
        return np.zeros(t.shape)

    def take_leaf_grads(self):
        """(leaf, gradient) for each tracked leaf that backward reached.

        Drops the record, so the interior gradients are freed now rather
        than when the next tape opens on this thread.
        """
        self._ran()
        pairs = [(leaf, self.grads[nid]) for nid, leaf in self.leaves.values()
                 if self.grads[nid] is not None]
        self.drop()
        return pairs

    def add_grads(self, pairs):
        """Add (leaf, gradient) pairs taken off another tape to this tape's
        leaf gradients, after backward: each sum is the one a single tape
        holding both records would form."""
        self._ran()
        for leaf, g in pairs:
            nid = self.leaves.get(id(leaf), (None,))[0]
            if nid is None:
                raise ContractError(f"add_grads: {leaf!r} is not a leaf of this tape")
            own = self.grads[nid]
            self.grads[nid] = g if own is None else g + own


def zeros(shape, requires_grad=False):
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad=False):
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def scalar(x, requires_grad=False):
    return Tensor(np.full((1, 1, 1, 1), float(x)), requires_grad=requires_grad)


def _maybe_record(out, inputs, backward_fn, leaf_fn=None):
    """Record out if this thread has an open tape and any input is tracked.
    backward_fn returns one gradient (or None) per input; an untracked
    input's parent id is None, and backward drops its gradient.  With
    leaf_fn, backward_fn covers the leading inputs and leaf_fn the rest,
    which backward may run on its worker when those inputs are leaves."""
    tape = _STATE.active
    if tape is None:
        return out
    pids = [tape._leaf(t) for t in inputs]
    if any(p is not None for p in pids):
        tape._emit(out, pids, backward_fn, leaf_fn)
    return out


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


def relu(a):
    out = Tensor(np.maximum(a.data, 0.0))
    pos = a.data > 0
    return _maybe_record(out, (a,), lambda g: (g * pos,))


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y)
    return _maybe_record(out, (a,), lambda g: (g * y * (1.0 - y),))


def _lower(xd, kh, kw, stride, pad):
    """Lower the zero-padded input along the width only (MEC, Cho & Brand 2017).

    Returns low of shape (N, C*kw, s, R, Wo), s = stride, R = ceil(Hp/s), with
    low[n, c*kw + j, ph, r, q] = padded x[n, c, s*r + ph, s*q + j], and the
    output size (Ho, Wo).  Kernel row i reads the rows of _tap(low, i, s, Ho):
    one copy of about kw times the input serves all kh rows.  Each (phase,
    kernel column) slab is one strided copy straight from the input; only
    its rows and columns that fall in the padding, or past Hp, are zeroed.
    """
    n, c, h, w = xd.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel ({kh},{kw}) too large for input ({h},{w}) with pad {pad}")
    if kh == kw == stride == 1 and pad == 0:
        return xd.reshape(n, c, 1, h, w), (ho, wo)     # 1x1: the input is its own lowering
    r = -(-hp // stride)
    low = np.empty((n, c, kw, stride, r, wo))
    for ph in range(stride):
        # lowered rows [r0, r1) read input rows s*r + ph - pad in [0, h)
        r0 = min(r, -(-max(pad - ph, 0) // stride))
        r1 = max(r0, min(r, (h - 1 + pad - ph) // stride + 1))
        for j in range(kw):
            q0 = min(wo, -(-max(pad - j, 0) // stride))
            q1 = max(q0, min(wo, (w - 1 + pad - j) // stride + 1))
            slab = low[:, :, j, ph]
            slab[:, :, :r0] = 0.0
            slab[:, :, r1:] = 0.0
            slab[:, :, r0:r1, :q0] = 0.0
            slab[:, :, r0:r1, q1:] = 0.0
            if r1 > r0 and q1 > q0:
                y0, x0 = stride * r0 + ph - pad, stride * q0 + j - pad
                slab[:, :, r0:r1, q0:q1] = xd[:, :, y0 : y0 + stride * (r1 - r0 - 1) + 1 : stride,
                                              x0 : x0 + stride * (q1 - q0 - 1) + 1 : stride]
    return low.reshape(n, c * kw, stride, r, wo), (ho, wo)


def _tap(low, i, stride, ho):
    """Kernel row i of a lowered input as an (N, C*kw, Ho*Wo) view: its row
    stride is Wo, so the reshape copies nothing and matmul reads it in place."""
    n, ckw, _, _, wo = low.shape
    return low[:, :, i % stride, i // stride : i // stride + ho].reshape(n, ckw, ho * wo)


def _conv_lowered(low, wd, stride, ho, wo):
    """Σ_i w[:, :, i, :] @ tap_i: the convolution of a lowered input with wd."""
    co, ci, kh, kw = wd.shape
    out = np.matmul(wd[:, :, 0].reshape(co, ci * kw), _tap(low, 0, stride, ho))
    for i in range(1, kh):
        out += np.matmul(wd[:, :, i].reshape(co, ci * kw), _tap(low, i, stride, ho))
    return out.reshape(low.shape[0], co, ho, wo)


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
    wd = w.data
    low, (ho, wo) = _lower(x.data, kh, kw, stride, pad)
    out_data = _conv_lowered(low, wd, stride, ho, wo)
    out_data += b.data
    out = Tensor(out_data)
    xshape = x.shape
    # Nothing reads dx of an input without a tape node (the image), so skip it.
    need_dx = x.requires_grad or x.node_id is not None

    def grad_x(g):
        if not need_dx:
            return (None,)
        if stride == 1 and kh == kw and pad < kh:
            # Transposed convolution: the output gradient padded by k-1-pad,
            # correlated with the flipped kernel, C_in and C_out swapped.
            glow, (hi, wi) = _lower(g, kh, kw, 1, kh - 1 - pad)
            wflip = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            return (_conv_lowered(glow, wflip, 1, hi, wi),)
        wmat = wd.reshape(co, ci * kh * kw)
        return (_col2im(np.matmul(wmat.T, g.reshape(n, co, ho * wo)), xshape, kh, kw, stride, pad),)

    def grad_wb(g):
        gm = g.reshape(n, co, ho * wo)
        dw = np.empty((co, ci, kh, kw))
        for i in range(kh):
            tap = _tap(low, i, stride, ho)
            dw[:, :, i] = np.matmul(gm, tap.transpose(0, 2, 1)).sum(axis=0).reshape(co, ci, kw)
        return (dw, g.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1))

    return _maybe_record(out, (x, w, b), grad_x, grad_wb)


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


def sum_all(x):
    out = Tensor(x.data.sum().reshape(1, 1, 1, 1))
    shp = x.shape
    return _maybe_record(out, (x,), lambda g: (np.broadcast_to(g, shp).copy(),))


def mean_all(x):
    out = Tensor(x.data.mean().reshape(1, 1, 1, 1))
    shp = x.shape
    n = x.data.size
    return _maybe_record(out, (x,), lambda g: (np.broadcast_to(g / n, shp).copy(),))


@functools.lru_cache(maxsize=None)
def _bilinear_matrix(size):
    """(2*size, size) interpolation weights, half-pixel-centre convention;
    built once per size and shared read-only."""
    m = np.zeros((2 * size, size))
    for i in range(2 * size):
        src = (i + 0.5) / 2.0 - 0.5
        lo = int(np.floor(src))
        frac = src - lo
        lo_c = min(max(lo, 0), size - 1)
        hi_c = min(max(lo + 1, 0), size - 1)
        m[i, lo_c] += 1.0 - frac
        m[i, hi_c] += frac
    m.setflags(write=False)
    return m


def upsample_bilinear2x(x):
    n, c, h, w = x.shape
    ah = _bilinear_matrix(h)
    awt = _bilinear_matrix(w).T
    out = Tensor(np.matmul(np.matmul(ah, x.data), awt))
    return _maybe_record(out, (x,), lambda g: (np.matmul(np.matmul(ah.T, g), awt.T),))


def cross_entropy(logits, target):
    """Mean −log softmax(logits)[target] over non-ignored pixels.

    target is an integer (N, H, W) array; ignored pixels carry IGNORE_INDEX.
    """
    n, c, h, w = logits.shape
    target = np.asarray(target)
    if target.shape != (n, h, w):
        raise ShapeError(f"cross_entropy: target shape {target.shape} != {(n, h, w)}")
    valid = target != IGNORE_INDEX
    bad = valid & ((target < 0) | (target >= c))
    if bad.any():
        where = tuple(int(v) for v in np.argwhere(bad)[0])
        raise ContractError(
            f"cross_entropy: class {int(target[where])} out of range at pixel {where}"
        )
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

import gc
import os
import threading
import weakref

import numpy as np
import pytest

from dife import tensor as T
from dife.tensor import Tape, Tensor, ShapeError, ContractError, OracleError


def t4(values, shape=None):
    arr = np.asarray(values, dtype=np.float64)
    if shape is not None:
        arr = arr.reshape(shape)
    while arr.ndim < 4:
        arr = arr[np.newaxis]
    return Tensor(arr)


class TestTensorBasics:
    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_rejects_integer_arrays(self, dtype):
        # loaded pixels are uint8 0..255; a net fed them would train silently
        with pytest.raises(ContractError, match=np.dtype(dtype).name):
            Tensor(np.zeros((1, 3, 4, 4), dtype=dtype))

    def test_data_length_matches_shape(self):
        x = T.zeros((2, 3, 4, 5))
        assert x.data.size == 2 * 3 * 4 * 5


class TestConv2d:
    def test_sum_of_four_ones(self):
        x = T.ones((1, 1, 2, 2))
        w = T.ones((1, 1, 2, 2))
        b = T.zeros((1, 1, 1, 1))
        out = T.conv2d(x, w, b, stride=1, pad=0)
        assert out.data.reshape(-1).tolist() == [4.0]

    def test_identity_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 1, 5, 5)))
        w = T.ones((1, 1, 1, 1))
        b = T.zeros((1, 1, 1, 1))
        out = T.conv2d(x, w, b, stride=1, pad=0)
        assert np.array_equal(out.data, x.data)  # bit-for-bit

    def test_zero_input_gives_zeros(self):
        x = T.zeros((1, 2, 4, 4))
        w = Tensor(np.random.default_rng(0).normal(size=(3, 2, 3, 3)))
        b = T.zeros((1, 3, 1, 1))
        out = T.conv2d(x, w, b, stride=1, pad=1)
        assert np.all(out.data == 0.0)

    def test_channel_mismatch_names_axes(self):
        x = T.zeros((1, 3, 4, 4))
        w = T.zeros((2, 2, 3, 3))
        b = T.zeros((1, 2, 1, 1))
        with pytest.raises(ShapeError, match="channels"):
            T.conv2d(x, w, b)

    def test_output_spatial_dims(self):
        x = T.zeros((1, 1, 7, 9))
        w = T.zeros((1, 1, 3, 3))
        b = T.zeros((1, 1, 1, 1))
        out = T.conv2d(x, w, b, stride=2, pad=1)
        assert out.shape == (1, 1, 4, 5)

    def test_kernel_too_large_rejected(self):
        x = T.zeros((1, 1, 2, 2))
        w = T.zeros((1, 1, 3, 5))
        with pytest.raises(ShapeError, match="too large"):
            T.conv2d(x, w, T.zeros((1, 1, 1, 1)), stride=1, pad=1)


def im2col(xd, kh, kw, stride, pad):
    """Full im2col lowering (every kernel tap copied): the reference for conv2d."""
    n, c, h, w = xd.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    sn, sc, sh, sw = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, ho, wo),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return view.reshape(n, c * kh * kw, ho * wo), (ho, wo)


def im2col_conv(x, w, b, g, stride, pad):
    """Conv forward and backward through im2col, dx as a col2im scatter-add at
    every stride: the reference for conv2d.

    db uses the same expression as conv2d, so it must match bit for bit; the
    rest sum in another order, so they match to rounding.
    """
    co, ci, kh, kw = w.shape
    n = x.shape[0]
    cols, (ho, wo) = im2col(x, kh, kw, stride, pad)
    wmat = w.reshape(co, ci * kh * kw)
    y = np.matmul(wmat, cols).reshape(n, co, ho, wo) + b
    gm = g.reshape(n, co, ho * wo)
    dw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    db = g.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1)
    dx = T._col2im(np.matmul(wmat.T, gm), x.shape, kh, kw, stride, pad)
    return y, dx, dw, db


def conv_tape(x, w, b, stride, pad, g):
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True)
    with Tape() as tape:
        y = T.conv2d(xt, wt, bt, stride, pad)
        tape.backward(T.sum_all(T.mul(y, Tensor(g))))
        return y.data, tape.grad(xt), tape.grad(wt), tape.grad(bt)


# every conv of the net at 48x48 (batch 2), then odd sizes over k, stride and pad,
# then non-square kernels at stride 1 and 2
NET_CONVS = [
    ((2, 3, 48, 48), (8, 3, 3, 3), 1, 1), ((2, 8, 48, 48), (8, 8, 3, 3), 1, 1),
    ((2, 8, 48, 48), (8, 8, 3, 3), 2, 1), ((2, 8, 24, 24), (16, 8, 3, 3), 1, 1),
    ((2, 16, 24, 24), (16, 16, 3, 3), 1, 1), ((2, 16, 24, 24), (16, 16, 3, 3), 2, 1),
    ((2, 16, 12, 12), (32, 16, 3, 3), 1, 1), ((2, 32, 12, 12), (32, 32, 3, 3), 1, 1),
    ((2, 32, 24, 24), (16, 32, 3, 3), 1, 1), ((2, 16, 48, 48), (8, 16, 3, 3), 1, 1),
    ((2, 8, 48, 48), (4, 8, 1, 1), 1, 0),
]
ODD_CONVS = [((2, 3, h, wd), (4, 3, k, k), stride, pad)
             for k in (1, 3, 5) for stride in (1, 2, 3) for pad in range(k + 1)
             for h, wd in ((7, 9), (6, 5))
             if h + 2 * pad >= k and wd + 2 * pad >= k]
ODD_CONVS += [((2, 3, 7, 9), (4, 3, 3, 1), 1, 0), ((2, 3, 7, 9), (4, 3, 1, 3), 1, 1),
              ((2, 3, 7, 9), (4, 3, 2, 3), 2, 1)]


def framed_lower(xd, kh, kw, stride, pad):
    """Width-only lowering through a zero-padded frame: the reference for _lower."""
    n, c, h, w = xd.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    r = -(-hp // stride)
    xp = np.zeros((n, c, stride * r, wp))
    xp[:, :, pad : pad + h, pad : pad + w] = xd
    low = np.empty((n, c, kw, stride, r, wo))
    for j in range(kw):
        cols = xp[:, :, :, j : j + stride * (wo - 1) + 1 : stride]
        low[:, :, j] = cols.reshape(n, c, r, stride, wo).transpose(0, 1, 3, 2, 4)
    return low.reshape(n, c * kw, stride, r, wo), (ho, wo)


class TestLower:
    @pytest.mark.parametrize("xshape,wshape,stride,pad", NET_CONVS + ODD_CONVS)
    def test_matches_framed_reference(self, xshape, wshape, stride, pad, monkeypatch):
        # fresh buffers are NaN, so a padding cell left unwritten cannot read as 0
        real_empty = np.empty

        def poisoned(*args, **kwargs):
            arr = real_empty(*args, **kwargs)
            arr.fill(np.nan)
            return arr

        x = np.random.default_rng(sum(xshape) + pad).normal(size=xshape)
        kh, kw = wshape[2:]
        ref = framed_lower(x, kh, kw, stride, pad)
        monkeypatch.setattr(T.np, "empty", poisoned)
        low, size = T._lower(x, kh, kw, stride, pad)
        assert size == ref[1]
        assert np.array_equal(low, ref[0])


class TestConvBackward:
    @pytest.mark.parametrize("xshape,wshape,stride,pad", NET_CONVS + ODD_CONVS)
    def test_matches_col2im_reference(self, xshape, wshape, stride, pad):
        # pad = k covers pad > k-1 (k=1 pad 1, k=3 pad 3), outside the transposed path
        rng = np.random.default_rng(sum(xshape) + 7 * sum(wshape) + 3 * stride + pad)
        x = rng.normal(size=xshape)
        w = rng.normal(size=wshape)
        b = rng.normal(size=(1, wshape[0], 1, 1))
        ho = (xshape[2] + 2 * pad - wshape[2]) // stride + 1
        wo = (xshape[3] + 2 * pad - wshape[3]) // stride + 1
        g = rng.normal(size=(xshape[0], wshape[0], ho, wo))
        y, dx, dw, db = conv_tape(x, w, b, stride, pad, g)
        ref_y, ref_dx, ref_dw, ref_db = im2col_conv(x, w, b, g, stride, pad)
        assert y.shape == ref_y.shape and dx.shape == xshape
        for got, ref in ((y, ref_y), (dx, ref_dx), (dw, ref_dw)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(db, ref_db)
        if wshape[2:] == (1, 1) and stride == 1 and pad == 0:
            # the head conv's input is its own lowering: no copy
            assert np.shares_memory(T._lower(x, 1, 1, 1, 0)[0], x)

    def test_untracked_input_gets_no_dx_work(self, monkeypatch):
        rng = np.random.default_rng(5)
        x, w = rng.normal(size=(2, 3, 8, 8)), rng.normal(size=(4, 3, 3, 3))
        calls = []
        for name in ("_lower", "_col2im"):
            real = getattr(T, name)
            monkeypatch.setattr(T, name, lambda *a, _real=real, _name=name:
                                calls.append(_name) or _real(*a))
        for stride in (1, 2):
            xt = Tensor(x)
            wt = Tensor(w, requires_grad=True)
            with Tape() as tape:
                y = T.conv2d(xt, wt, T.zeros((1, 4, 1, 1)), stride, 1)
                root = T.sum_all(y)
                calls.clear()
                tape.backward(root)
                assert calls == []
                assert np.all(tape.grad(xt) == 0.0)
                assert np.abs(tape.grad(wt)).max() > 0.0


class TestBackward:
    def test_sum_of_squares(self):
        x = t4([1.0, 2.0, 3.0], (1, 1, 1, 3))
        x.requires_grad = True
        with Tape() as tape:
            y = T.sum_all(T.mul(x, x))
            tape.backward(y)
            assert np.allclose(tape.grad(x).reshape(-1), [2.0, 4.0, 6.0])

    def test_bilinear(self):
        a = t4([1.0, -2.0, 0.5], (1, 1, 1, 3))
        b = t4([3.0, 4.0, -1.0], (1, 1, 1, 3))
        a.requires_grad = b.requires_grad = True
        with Tape() as tape:
            y = T.sum_all(T.mul(a, b))
            tape.backward(y)
            assert np.allclose(tape.grad(a), b.data)
            assert np.allclose(tape.grad(b), a.data)

    def test_non_scalar_root_rejected(self):
        x = T.ones((1, 1, 2, 2), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_unreachable_node_gets_zero_grad(self):
        x = T.ones((1, 1, 1, 2), requires_grad=True)
        z = T.ones((1, 1, 1, 2), requires_grad=True)
        with Tape() as tape:
            y = T.sum_all(x)
            _ = T.mul(z, z)  # recorded but not reachable from y
            tape.backward(y)
            assert np.all(tape.grad(z) == 0.0)

    def test_backward_on_closed_tape_rejected(self):
        x = T.ones((1, 1, 1, 2), requires_grad=True)
        with Tape() as tape:
            y = T.sum_all(T.mul(x, x))
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_closed_tape_freed_without_cyclic_gc(self):
        p = T.ones((1, 1, 2, 2), requires_grad=True)

        def step():
            with Tape() as tape:
                h = T.scale(p, 2.0)
                tape.backward(T.sum_all(T.add(h, h)))
            return weakref.ref(tape)

        gc.disable()
        try:
            first = step()
            step()   # closes on step 1's record and re-tracks p
            assert first() is None
        finally:
            gc.enable()

    def test_next_tape_drops_gradients(self):
        x = Tensor(np.array([1.0, -2.0]).reshape(1, 1, 1, 2), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape1:
                h = T.scale(x, 3.0)
                tape1.backward(T.sum_all(T.mul(h, h)))
            # grad() still answers after the with-block
            assert np.array_equal(tape1.grad(x), 18.0 * x.data)
            interior = weakref.ref(tape1.grad(h))
            assert interior() is not None
            with Tape():
                assert interior() is None
                with pytest.raises(ContractError, match="record was dropped"):
                    tape1.grad(x)
        finally:
            gc.enable()

    def test_leaf_gradients_move_between_tapes(self):
        # one computation split over two tapes sums to the one tape's gradients
        w = Tensor(np.array([1.5, -0.5]).reshape(1, 1, 1, 2), requires_grad=True)
        v = T.ones((1, 1, 1, 1), requires_grad=True)

        def raw():
            T.scale(v, 2.0)   # v is a leaf here, but backward does not reach it
            return T.sum_all(T.mul(w, w))

        def twin():
            return T.sum_all(T.add(T.scale(w, 3.0), T.scale(v, 0.5)))

        with Tape() as one:
            one.backward(T.add(raw(), twin()))
            want = {"w": one.grad(w), "v": one.grad(v)}
        with Tape(keep_interior=False) as other:
            other.backward(twin())
            assert all(g is None for g in other.grads[:len(other.nodes)])   # interior freed
            pairs = other.take_leaf_grads()
        assert other.nodes is None   # the record is dropped as its gradients are taken
        assert sorted(leaf is w for leaf, _ in pairs) == [False, True]
        with Tape() as tape:
            tape.backward(raw())
            tape.add_grads(pairs)
            assert np.array_equal(tape.grad(w), want["w"])
            assert np.array_equal(tape.grad(v), want["v"])
        with Tape() as tape:
            tape.backward(T.sum_all(T.scale(w, 1.0)))
            with pytest.raises(ContractError, match="not a leaf"):
                tape.add_grads(pairs)

    def test_no_tensor_refers_to_a_tape(self):
        x = T.ones((1, 1, 1, 2), requires_grad=True)
        with Tape() as tape:
            h = T.scale(x, 2.0)
            root = T.sum_all(T.mul(h, x))
            tape.backward(root)
        for t in (x, h, root):
            for name in Tensor.__slots__:
                value = getattr(t, name)
                held = value if isinstance(value, tuple) else (value,)
                assert not any(isinstance(v, Tape) for v in held), name

    def test_tapes_are_per_thread(self):
        x = T.ones((1, 1, 1, 2), requires_grad=True)
        seen = []

        def other():
            seen.append(T.scale(x, 2.0).node_id)   # the caller's tape is not this thread's
            with Tape() as mine:
                seen.append(T.scale(x, 2.0).node_id)
                mine.backward(T.sum_all(T.scale(x, 3.0)))
                seen.append(mine.grad(x))

        with Tape() as tape:
            worker = threading.Thread(target=other)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            assert tape.nodes == []
            tape.backward(T.sum_all(T.scale(x, 5.0)))
            assert np.array_equal(tape.grad(x), np.full((1, 1, 1, 2), 5.0))
        assert seen[:2] == [None, 0]   # x is a leaf, with no node
        assert np.array_equal(seen[2], np.full((1, 1, 1, 2), 3.0))

    @pytest.mark.parametrize("where", ["reached", "unreached", "after_root"])
    def test_backward_frees_saved_state(self, where):
        # the probe op's closure is the only holder of `held`
        class Held:
            pass

        def probe(t, held):
            return T._maybe_record(Tensor(t.data.copy()), (t,), lambda g, _held=held: (g,))

        x = T.ones((1, 1, 1, 2), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                held = Held()
                ref = weakref.ref(held)
                if where == "after_root":
                    root = T.sum_all(x)
                    probe(x, held)
                else:
                    y = probe(x, held)
                    root = T.sum_all(y if where == "reached" else x)
                del held
                assert ref() is not None
                tape.backward(root)
                assert ref() is None
                assert np.array_equal(tape.grad(x), np.ones((1, 1, 1, 2)))
        finally:
            gc.enable()

    def test_second_backward_rejected(self):
        x = T.ones((1, 1, 1, 2), requires_grad=True)
        with Tape() as tape:
            y = T.sum_all(T.mul(x, x))
            tape.backward(y)
            with pytest.raises(ContractError, match="already ran"):
                tape.backward(y)
            assert np.array_equal(tape.grad(x), 2.0 * x.data)

    def test_fan_in_accumulation_leaves_stored_gradients_alone(self):
        # add(h, h) hands the same array to both parents; an in-place
        # accumulation would also rewrite the gradient stored for s
        a = Tensor(np.array([1.0, -2.0, 3.0]).reshape(1, 1, 1, 3), requires_grad=True)
        with Tape() as tape:
            h = T.scale(a, 2.0)
            s = T.add(h, h)
            tape.backward(T.sum_all(T.mul(s, s)))
            assert np.array_equal(tape.grad(s), 2.0 * s.data)
            assert np.array_equal(tape.grad(h), 4.0 * s.data)
            assert np.array_equal(tape.grad(a), 8.0 * s.data)

    def test_cross_entropy_grad_matches_fd(self):
        rng = np.random.default_rng(11)
        logits = Tensor(rng.normal(size=(1, 2, 1, 1)), requires_grad=True)
        target = np.array([[[1]]])
        with Tape() as tape:
            loss = T.cross_entropy(logits, target)
            tape.backward(loss)
            analytic = tape.grad(logits)
        fd = T.finite_difference_gradient(
            lambda l: T.cross_entropy(l, target), logits
        ).data
        assert np.abs(analytic - fd).max() / np.abs(fd).max() < 1e-6


class TestFiniteDifference:
    def test_linear_gives_ones(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 2, 2)))
        g = T.finite_difference_gradient(T.sum_all, x)
        assert np.allclose(g.data, 1.0, atol=1e-9)

    def test_square_scalar(self):
        x = t4([3.0], (1, 1, 1, 1))
        g = T.finite_difference_gradient(lambda v: T.sum_all(T.mul(v, v)), x)
        assert abs(g.item() - 6.0) < 1e-7

    def test_nondeterministic_f_rejected(self):
        state = {"n": 0}

        def f(x):
            state["n"] += 1
            return float(state["n"])

        with pytest.raises(OracleError):
            T.finite_difference_gradient(f, T.ones((1, 1, 1, 1)))

    def test_bad_eps_rejected(self):
        with pytest.raises(OracleError):
            T.finite_difference_gradient(T.sum_all, T.ones((1, 1, 1, 1)), eps=0.0)


class TestOther:
    def test_upsample_constant_stays_constant(self):
        x = Tensor(np.full((1, 2, 3, 3), 1.5))
        out = T.upsample_bilinear2x(x)
        assert out.shape == (1, 2, 6, 6)
        assert np.allclose(out.data, 1.5)

    @pytest.mark.parametrize("size", [1, 3, 12])
    def test_bilinear_matrix_is_cached_read_only(self, size):
        m = T._bilinear_matrix(size)
        assert T._bilinear_matrix(size) is m
        np.testing.assert_array_equal(m, T._bilinear_matrix.__wrapped__(size))
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0

    def test_broadcast_rejected_beyond_channel_panels(self):
        a = T.zeros((2, 3, 4, 4))
        b = T.zeros((2, 3, 1, 4))
        with pytest.raises(ShapeError):
            T.add(a, b)


def test_every_primitive_matches_finite_differences():
    from dife import gradcheck as G

    results = G.suite_tensor(seeds=range(5))
    bad = {k: v for k, v in results.items() if v >= G.OP_TOL}
    assert not bad, f"ops over tolerance: {bad}"


# constructors, the oracle itself and the array-only ISW statistics: no backward to check
NOT_DIFFERENTIABLE = {"zeros", "ones", "scalar", "finite_difference_gradient",
                      "covariance_variance", "kmeans_1d", "build_mask", "update_warmup"}
# suite rows named for the loss rather than the op
ROW_PREFIX = {"dual_causality_terms": "dc"}


def test_every_differentiable_op_has_an_oracle_row():
    import importlib

    from dife import gradcheck as G

    missing = []
    for module in ("tensor", "snr", "isw"):
        mod = importlib.import_module(f"dife.{module}")
        rows = getattr(G, f"suite_{module}")(seeds=range(1))
        # mean_all is check_op's own reducer, so every row exercises it
        ops = [name for name in mod.__all__ if name[0].islower()
               and name not in NOT_DIFFERENTIABLE and name != "mean_all"]
        for op in ops:
            row = ROW_PREFIX.get(op, op)
            if not any(r == row or r.startswith(row + "_") for r in rows):
                missing.append(f"{module}.{op}")
    assert not missing, f"differentiable ops without an oracle row: {missing}"


def test_core_count_without_an_affinity_mask_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(T.os, "sched_getaffinity", raising=False)   # as on macOS
    assert T.core_count() == os.cpu_count()

import numpy as np
import pytest

from dife import snr as S
from dife import tensor as T
from dife.tensor import Tape, Tensor

from conftest import tape_forward_backward


def feat(arr):
    a = np.asarray(arr, dtype=np.float64)
    while a.ndim < 4:
        a = a[np.newaxis]
    return Tensor(a)


def dc_total(f_norm, f_plus, f_minus):
    """L+ + L-, the dual-causality loss that total_loss uses in "full" mode."""
    return T.add(*S.dual_causality_terms(f_norm, f_plus, f_minus))


class TestInstanceNormalize:
    def test_constant_channel_goes_to_zero(self):
        f = feat(np.full((1, 1, 1, 4), 5.0))
        out = S.instance_normalize(f, eps=1e-5)
        assert np.abs(out.data).max() < 1e-6

    def test_known_channel(self):
        f = feat(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4))
        out = S.instance_normalize(f, eps=0.0)
        expected = [-1.3416, -0.4472, 0.4472, 1.3416]
        assert np.allclose(out.data.reshape(-1), expected, atol=1e-4)

    def test_idempotent_on_standardized_input(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(1, 3, 4, 4))
        raw = (raw - raw.mean(axis=(2, 3), keepdims=True)) / raw.std(axis=(2, 3), keepdims=True)
        out = S.instance_normalize(Tensor(raw), eps=0.0)
        assert np.abs(out.data - raw).max() < 1e-6

    def test_moments(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = Tensor(rng.uniform(-2, 2, (2, 4, 5, 5)))
            out = S.instance_normalize(f).data
            mean = out.mean(axis=(2, 3))
            std = out.std(axis=(2, 3))
            assert np.abs(mean).max() < 1e-9
            assert np.abs(std - 1.0).max() < 1e-4

    def test_affine_style_invariance(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(1, 3, 6, 6))
        a = rng.uniform(0.5, 3.0, (1, 3, 1, 1))
        b = rng.uniform(-2.0, 2.0, (1, 3, 1, 1))
        base = S.instance_normalize(Tensor(f), eps=0.0).data
        styled = S.instance_normalize(Tensor(a * f + b), eps=0.0).data
        assert np.abs(base - styled).max() < 1e-6


def composed_instance_normalize(f, eps):
    """The seven-node composition instance_normalize replaced: the reference
    for its forward (same expressions, so bit for bit) and its backward."""
    def add_scalar(a, s):
        s = float(s)
        return T._maybe_record(Tensor(a.data + s), (a,), lambda g: (g,))

    def rsqrt(x):
        y = 1.0 / np.sqrt(x.data)
        return T._maybe_record(Tensor(y), (x,), lambda g: (g * (-0.5) * y / x.data,))

    mean = T.global_avg_pool(f)
    centered = T.sub(f, mean)
    var = T.global_avg_pool(T.mul(centered, centered))
    return T.mul(centered, rsqrt(add_scalar(var, eps)))


class TestFusedInstanceNormalize:
    @pytest.mark.parametrize("shape", [(2, 4, 3, 3), (4, 16, 24, 24), (4, 32, 12, 12), (1, 3, 1, 5)])
    @pytest.mark.parametrize("eps", [S.IN_EPS, 0.0, 0.5])
    def test_matches_composed_reference(self, shape, eps):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(1.0, 2.0, shape)
        g = rng.normal(size=shape)
        y, dx, nodes = tape_forward_backward(lambda f: S.instance_normalize(f, eps), x, g)
        ref_y, ref_dx, ref_nodes = tape_forward_backward(
            lambda f: composed_instance_normalize(f, eps), x, g)
        assert np.array_equal(y, ref_y)
        assert np.abs(dx - ref_dx).max() <= 1e-12 * np.abs(ref_dx).max()
        assert (nodes, ref_nodes) == (1, 7)

    def test_untracked_input_records_nothing(self):
        with Tape() as tape:
            S.instance_normalize(Tensor(np.ones((1, 2, 2, 2))))
            assert tape.nodes == []


class TestChannelAttention:
    def test_zero_weights_give_half(self):
        att = S.ChannelAttention(4, 2)
        for p in att.parameters():
            p.tensor.data[:] = 0.0
        alpha = S.channel_attention(Tensor(np.random.default_rng(0).normal(size=(2, 4, 3, 3))), att)
        assert np.allclose(alpha.data, 0.5)

    def test_zero_input_with_zero_biases(self):
        att = S.ChannelAttention(4, 2, rng=np.random.default_rng(5))
        alpha = S.channel_attention(T.zeros((1, 4, 2, 2)), att)
        assert np.allclose(alpha.data, 0.5)

    def test_matches_scalar_forward(self):
        att = S.ChannelAttention(4, 2, rng=np.random.default_rng(42))
        r = T.ones((1, 4, 2, 2))
        alpha = S.channel_attention(r, att).data.reshape(-1)
        # independent scalar replay of GAP -> FC -> ReLU -> FC -> sigmoid
        pooled = r.data.mean(axis=(2, 3)).reshape(-1)
        w1 = att.fc1_w.data.reshape(2, 4)
        b1 = att.fc1_b.data.reshape(-1)
        w2 = att.fc2_w.data.reshape(4, 2)
        b2 = att.fc2_b.data.reshape(-1)
        hidden = np.maximum(w1 @ pooled + b1, 0.0)
        expected = 1.0 / (1.0 + np.exp(-(w2 @ hidden + b2)))
        assert np.allclose(alpha, expected, atol=1e-12)

    def test_alpha_strictly_inside_unit_interval(self):
        att = S.ChannelAttention(8, 4, rng=np.random.default_rng(1))
        alpha = S.channel_attention(Tensor(np.random.default_rng(2).normal(size=(3, 8, 4, 4))), att)
        assert np.all(alpha.data > 0.0) and np.all(alpha.data < 1.0)

    def test_bad_reduction_rejected(self):
        with pytest.raises(T.ContractError):
            S.ChannelAttention(6, 4)


class TestRestitutionSplit:
    def _parts(self, alpha_value):
        rng = np.random.default_rng(3)
        f = Tensor(rng.normal(size=(1, 2, 3, 3)))
        f_norm = S.instance_normalize(f)
        alpha = Tensor(np.full((1, 2, 1, 1), alpha_value))
        return f, f_norm, S.restitution_split(T.sub(f, f_norm), alpha)

    def test_alpha_one(self):
        f, f_norm, (rp, rm) = self._parts(1.0)
        assert np.allclose(rp.data, f.data - f_norm.data)
        assert np.allclose(rm.data, 0.0)

    def test_alpha_zero(self):
        f, f_norm, (rp, rm) = self._parts(0.0)
        assert np.allclose(rp.data, 0.0)
        assert np.allclose(rm.data, f.data - f_norm.data)

    def test_quarter_split(self):
        f = feat(np.full((1, 1, 1, 1), 4.0))
        f_norm = feat(np.zeros((1, 1, 1, 1)))
        alpha = feat(np.full((1, 1, 1, 1), 0.25))
        rp, rm = S.restitution_split(T.sub(f, f_norm), alpha)
        assert rp.item() == pytest.approx(1.0)
        assert rm.item() == pytest.approx(3.0)


def entropy(logits):
    """Per-pixel softmax entropy of an array, through the loss's own helper."""
    return S._entropy(np.asarray(logits, dtype=np.float64))[0]


class TestPixelEntropy:
    def test_uniform_logits(self):
        assert np.allclose(entropy(np.zeros((1, 4, 2, 2))), np.log(4.0), atol=1e-12)

    def test_peaked_logits(self):
        f = np.zeros((1, 3, 1, 1))
        f[0, 0] = 50.0
        assert entropy(f).item() < 1e-10

    def test_two_logit_case(self):
        assert entropy(np.array([1.0, 2.0]).reshape(1, 2, 1, 1)).item() == \
            pytest.approx(0.58220, abs=1e-5)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = rng.integers(2, 6)
            e = entropy(rng.uniform(-20, 20, (1, int(c), 3, 3)))
            assert np.all(e >= 0.0) and np.all(e <= np.log(c) + 1e-12)

    def test_single_channel_rejected(self):
        one = T.zeros((1, 1, 2, 2))
        with pytest.raises(T.ShapeError, match="C >= 2"):
            S.dual_causality_terms(one, one, one)


def margin(gap):
    """The margin term for a given per-sample entropy gap."""
    f = T.zeros((1, 1, 1, 1))
    hi = (f, np.full((1, 1, 1, 1), float(gap)), np.zeros((1, 1, 1, 1)))
    lo = (f, np.zeros((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)))
    return S._entropy_margin(hi, lo).item()


class TestMarginLoss:
    def test_at_zero(self):
        assert margin(0.0) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_large_negative(self):
        assert margin(-100.0) < 1e-40

    def test_at_one(self):
        assert margin(1.0) == pytest.approx(np.log(1 + np.e), abs=1e-12)

    def test_large_positive_overflow_safe(self):
        out = margin(1000.0)
        assert np.isfinite(out) and out == pytest.approx(1000.0, abs=1e-9)

    def test_large_negative_gap_finite(self):
        out = margin(-1000.0)
        assert np.isfinite(out) and 0.0 <= out < 1e-300


class TestDualCausalityLoss:
    def test_all_equal_gives_two_ln_two(self):
        f = Tensor(np.random.default_rng(0).normal(size=(1, 4, 2, 2)))
        loss = dc_total(f, f, f)
        assert loss.item() == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    def test_peaked_plus_closed_form(self):
        c = 4
        f_norm = T.zeros((1, c, 2, 2))          # uniform: entropy ln 4
        f_plus = T.zeros((1, c, 2, 2))
        f_plus.data[:, 0] = 500.0               # entropy ~ 0
        f_minus = T.zeros((1, c, 2, 2))
        loss = dc_total(f_norm, f_plus, f_minus)
        expected = np.log(1 + np.exp(-np.log(c))) + np.log(2.0)
        assert loss.item() == pytest.approx(expected, abs=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(17)
        fn, fp, fm = (rng.normal(size=(1, 4, 2, 2)) for _ in range(3))

        def entropy(logits):  # scalar reimplementation, per pixel
            out = np.zeros((2, 2))
            for j in range(2):
                for k in range(2):
                    z = logits[0, :, j, k]
                    p = np.exp(z - z.max())
                    p /= p.sum()
                    out[j, k] = -(p * np.log(p)).sum()
            return out

        gap_p = (entropy(fp) - entropy(fn)).mean()
        gap_m = (entropy(fn) - entropy(fm)).mean()
        expected = np.log1p(np.exp(gap_p)) + np.log1p(np.exp(gap_m))
        loss = dc_total(Tensor(fn), Tensor(fp), Tensor(fm))
        assert loss.item() == pytest.approx(expected, abs=1e-9)

    def test_always_strictly_positive(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            fn, fp, fm = (Tensor(rng.uniform(-5, 5, (2, 3, 2, 2))) for _ in range(3))
            assert dc_total(fn, fp, fm).item() > 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            S.dual_causality_terms(T.zeros((1, 4, 2, 2)), T.zeros((1, 4, 2, 2)),
                                   T.zeros((1, 4, 2, 3)))


def composed_dual_causality_terms(f_norm, f_plus, f_minus):
    """The eleven-node composition dual_causality_terms replaced: the reference
    for its forward (same expressions, so bit for bit) and its backward."""
    def entropy_map(x):
        z = x.data - x.data.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        logp = np.log(np.maximum(p, 1e-300))
        ent = -(p * logp).sum(axis=1, keepdims=True)
        return T._maybe_record(Tensor(ent), (x,), lambda g: (g * (-p * (logp + ent)),))

    def softplus(a):
        sig = 1.0 / (1.0 + np.exp(-a.data))
        return T._maybe_record(Tensor(np.logaddexp(0.0, a.data)), (a,), lambda g: (g * sig,))

    def batch_mean(x):
        n = x.shape[0]
        return T._maybe_record(Tensor(x.data.mean(axis=0, keepdims=True)), (x,),
                               lambda g: (np.broadcast_to(g / n, x.shape).copy(),))

    e_norm = entropy_map(f_norm)
    l_plus = batch_mean(softplus(T.global_avg_pool(T.sub(entropy_map(f_plus), e_norm))))
    l_minus = batch_mean(softplus(T.global_avg_pool(T.sub(e_norm, entropy_map(f_minus)))))
    return l_plus, l_minus


class TestFusedDualCausality:
    @pytest.mark.parametrize("shape", [(1, 4, 2, 2), (4, 16, 24, 24), (4, 32, 12, 12), (3, 2, 1, 5)])
    def test_matches_composed_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        maps = tuple(rng.normal(0.0, 2.0, shape) for _ in range(3))
        g = tuple(rng.normal(size=(1, 1, 1, 1)) for _ in range(2))
        y, dx, nodes = tape_forward_backward(S.dual_causality_terms, maps, g)
        ref_y, ref_dx, ref_nodes = tape_forward_backward(composed_dual_causality_terms, maps, g)
        assert all(np.array_equal(a, b) for a, b in zip(y, ref_y))
        for d, ref in zip(dx, ref_dx):
            assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()
        assert (nodes, ref_nodes) == (2, 11)

    def test_untracked_inputs_are_skipped(self):
        rng = np.random.default_rng(4)
        f_norm, f_minus = (Tensor(rng.normal(size=(2, 3, 2, 2))) for _ in range(2))
        f_plus = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        with Tape() as tape:
            l_plus, l_minus = S.dual_causality_terms(f_norm, f_plus, f_minus)
            assert l_minus.node_id is None and len(tape.nodes) == 1   # L+; a leaf has no node
            assert tape.nodes[0].parents == (-1, None)
            tape.backward(l_plus)
            assert np.abs(tape.grad(f_plus)).max() > 0.0
            assert not tape.grad(f_norm).any()


class TestSnrForward:
    def _random_block(self, seed, shape=(2, 4, 3, 3)):
        rng = np.random.default_rng(seed)
        att = S.ChannelAttention(shape[1], 2, rng=rng)
        f = Tensor(rng.normal(1.0, 2.0, shape))
        return f, att

    def test_decomposition_identities(self):
        for seed in range(100):
            f, att = self._random_block(seed)
            out = S.snr_forward(f, att)
            residual = f.data - out.f_norm.data
            assert np.abs(out.r_plus.data + out.r_minus.data - residual).max() < 1e-9
            assert np.abs(out.f_plus.data - (out.f_norm.data + out.r_plus.data)).max() < 1e-9
            assert np.abs(out.f_minus.data - (out.f_norm.data + out.r_minus.data)).max() < 1e-9

    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(31)
        raw = rng.normal(size=(1, 4, 5, 5))
        raw = (raw - raw.mean(axis=(2, 3), keepdims=True)) / raw.std(axis=(2, 3), keepdims=True)
        att = S.ChannelAttention(4, 2, rng=rng)
        out = S.snr_forward(Tensor(raw), att, eps=0.0)
        assert np.abs(out.f_plus.data - raw).max() < 1e-6
        assert np.abs(out.r_plus.data).max() < 1e-6

    def test_matches_scalar_replay(self):
        f, att = self._random_block(77, shape=(1, 4, 2, 2))
        out = S.snr_forward(f, att, eps=1e-5)
        x = f.data[0]
        mean = x.mean(axis=(1, 2), keepdims=True)
        var = x.var(axis=(1, 2), keepdims=True)
        f_norm = (x - mean) / np.sqrt(var + 1e-5)
        r = x - f_norm
        pooled = r.mean(axis=(1, 2))
        w1 = att.fc1_w.data.reshape(2, 4)
        b1 = att.fc1_b.data.reshape(-1)
        w2 = att.fc2_w.data.reshape(4, 2)
        b2 = att.fc2_b.data.reshape(-1)
        alpha = 1.0 / (1.0 + np.exp(-(w2 @ np.maximum(w1 @ pooled + b1, 0.0) + b2)))
        f_plus = f_norm + alpha[:, None, None] * r
        assert np.abs(out.f_plus.data[0] - f_plus).max() < 1e-12

    def test_gradients_through_block(self):
        from dife import gradcheck as G

        results = G.suite_snr(seeds=range(3))
        bad = {k: v for k, v in results.items() if v >= G.OP_TOL}
        assert not bad, f"snr gradients over tolerance: {bad}"

    def test_suite_leaves_the_drawn_attention_weights_in_place(self, monkeypatch):
        from dife import gradcheck as G

        drawn, real = [], S.ChannelAttention

        def spy(*args, **kwargs):
            att = real(*args, **kwargs)
            drawn.append((att, att.fc1_w.tensor))
            return att

        monkeypatch.setattr(S, "ChannelAttention", spy)
        G.suite_snr(seeds=range(2))
        assert len(drawn) == 2
        assert all(att.fc1_w.tensor is tensor for att, tensor in drawn)

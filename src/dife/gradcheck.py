"""Finite-difference verification suites for every differentiable op.

Each suite compares tape gradients against the central-difference oracle
over seeded random inputs and reports the worst relative error per op.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from . import snr as S
from . import isw as W
from . import net as N
from . import train as TR
from .tensor import Tape, Tensor, finite_difference_gradient

__all__ = ["check_op", "suite_tensor", "suite_snr", "suite_isw", "suite_net", "run"]

OP_TOL = 1e-4
NET_TOL = 1e-3


def rel_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def check_op(fn, inputs, wrt=0, eps=1e-5):
    """Worst relative error of d mean(fn(inputs)) / d inputs[wrt]."""
    with Tape() as tape:
        tracked = [Tensor(x.data, requires_grad=(i == wrt)) for i, x in enumerate(inputs)]
        out = T.mean_all(fn(*tracked))
        tape.backward(out)
        analytic = tape.grad(tracked[wrt])

    def f(x):
        probe = [Tensor(inp.data) for inp in inputs]
        probe[wrt] = x
        return T.mean_all(fn(*probe))

    numeric = finite_difference_gradient(f, inputs[wrt], eps).data
    return rel_error(analytic, numeric)


def _rand(rng, shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, shape))


def _recorder():
    """A results dict and record(name, err), which keeps each name's worst error."""
    results = {}

    def record(name, err):
        results[name] = max(results.get(name, 0.0), err)

    return results, record


def suite_tensor(seeds=range(20)):
    """(name, max_rel_err) per primitive op over the seed set."""
    results, record = _recorder()
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        a = _rand(rng, (2, 4, 3, 3))
        b = _rand(rng, (2, 4, 3, 3))
        panel = _rand(rng, (2, 4, 1, 1))
        record("add", check_op(T.add, [a, b], wrt=seed % 2))
        record("sub", check_op(T.sub, [a, b], wrt=seed % 2))
        record("mul", check_op(T.mul, [a, b], wrt=seed % 2))
        record("mul_panel", check_op(T.mul, [a, panel], wrt=seed % 2))
        record("scale", check_op(lambda x: T.scale(x, -1.7), [a]))
        record("relu", check_op(T.relu, [Tensor(a.data + 0.05 * np.sign(a.data))]))
        record("sigmoid", check_op(T.sigmoid, [a]))
        record("global_avg_pool", check_op(T.global_avg_pool, [a]))
        record("sum_all", check_op(T.sum_all, [a]))
        record("upsample_bilinear2x", check_op(T.upsample_bilinear2x, [a]))
        x = _rand(rng, (2, 3, 4, 4))
        w = _rand(rng, (4, 3, 3, 3), -0.8, 0.8)
        bias = _rand(rng, (1, 4, 1, 1))
        record("conv2d_x", check_op(lambda x_, w_, b_: T.conv2d(x_, w_, b_, 1, 1), [x, w, bias], 0))
        # dx of the stride-2 `down` convs (scatter-add) and of the 1x1 head (unpadded)
        record("conv2d_x_s2", check_op(lambda x_, w_, b_: T.conv2d(x_, w_, b_, 2, 1), [x, w, bias], 0))
        w1 = Tensor(w.data[:, :, 1:2, 1:2])
        record("conv2d_x_1x1", check_op(lambda x_, w_, b_: T.conv2d(x_, w_, b_, 1, 0), [x, w1, bias], 0))
        record("conv2d_w", check_op(lambda x_, w_, b_: T.conv2d(x_, w_, b_, 1, 1), [x, w, bias], 1))
        # dw at stride 2 reads the odd-phase rows of the lowered input
        record("conv2d_w_s2", check_op(lambda x_, w_, b_: T.conv2d(x_, w_, b_, 2, 1), [x, w, bias], 1))
        record("conv2d_b", check_op(lambda x_, w_, b_: T.conv2d(x_, w_, b_, 2, 1), [x, w, bias], 2))
        fx = _rand(rng, (2, 4, 1, 1))
        fw = _rand(rng, (3, 4, 1, 1))
        fb = _rand(rng, (1, 3, 1, 1))
        record("fully_connected", check_op(T.fully_connected, [fx, fw, fb], seed % 3))
        logits = _rand(rng, (2, 3, 2, 2))
        target = rng.integers(0, 3, (2, 2, 2))
        record("cross_entropy",
               check_op(lambda l: T.cross_entropy(l, target), [logits]))
    return results


def suite_snr(seeds=range(20)):
    results, record = _recorder()
    for seed in seeds:
        rng = np.random.default_rng(2000 + seed)
        f = _rand(rng, (2, 4, 3, 3))
        record("instance_normalize", check_op(lambda x: S.instance_normalize(x, 1e-5), [f]))
        att = S.ChannelAttention(4, 2, rng=np.random.default_rng(seed))
        record("channel_attention", check_op(lambda x: T.sum_all(S.channel_attention(x, att)), [f]))
        fn, fp_, fm = (_rand(rng, (1, 4, 2, 2)) for _ in range(3))
        for w_i, name in enumerate(["dc_f_norm", "dc_f_plus", "dc_f_minus"]):
            record(name, check_op(lambda *fs: T.add(*S.dual_causality_terms(*fs)),
                                  [fn, fp_, fm], w_i))
        # gradient into the attention weights through the whole block
        def block_loss(w1):
            att.fc1_w.tensor = w1
            out = S.snr_forward(f, att)
            return T.add(*S.dual_causality_terms(out.f_norm, out.f_plus, out.f_minus))

        drawn = att.fc1_w.tensor
        record("dc_attention_w", check_op(block_loss, [Tensor(att.fc1_w.data.copy())]))
        att.fc1_w.tensor = drawn   # the rows below run on the drawn weights, not the last probe
        record("snr_forward",
               check_op(lambda x: T.sum_all(T.mul(S.snr_forward(x, att).f_plus,
                                                  S.snr_forward(x, att).f_minus)), [f]))
        alpha = _rand(rng, (2, 4, 1, 1), 0.0, 1.0)
        record("restitution_split",
               check_op(lambda r, a: T.mul(*S.restitution_split(r, a)), [f, alpha], seed % 2))
    return results


def suite_isw(seeds=range(20)):
    results, record = _recorder()
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 2] = mask[2, 0] = mask[1, 3] = mask[3, 1] = True
    for seed in seeds:
        rng = np.random.default_rng(3000 + seed)
        f = _rand(rng, (2, 4, 3, 3))
        g = _rand(rng, (2, 4, 3, 3))
        record("feature_covariance", check_op(lambda x: T.mean_all(W.feature_covariance(x)), [f]))
        record("isw_loss", check_op(
            lambda x, y: W.isw_loss(W.feature_covariance(x), W.feature_covariance(y), mask),
            [f, g], wrt=seed % 2,
        ))
    return results


def suite_net(seeds=range(3), samples_per_param=4):
    """Composed total loss vs finite differences over sampled weights.

    The gradients come from train_step, the trainer's threaded path; the
    finite differences from forward_pair and total_loss on this thread.
    """
    results = {}
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(4000 + seed)
        cfg = N.NetConfig(stage_channels=(4, 4, 8), num_classes=3, snr_stages={2, 3},
                          isw_stages={2, 3}, attention_reduction=2, lambda1=0.6, lambda2=1.0)
        net = N.SegNet(cfg, seed=seed)
        stats = {s: W.CovarianceStats(cfg.stage_channels[s - 1], cfg.k)
                 for s in sorted(cfg.isw_stages)}
        for s in stats:
            c = stats[s].channels
            m = np.zeros((c, c), dtype=bool)
            m[0, c - 1] = m[c - 1, 0] = True
            stats[s].mask = m
        x = Tensor(rng.uniform(0, 1, (1, 3, 8, 8)))
        tx = Tensor(np.clip(x.data * 1.1 + 0.05, 0, 1))
        target = rng.integers(0, 3, (1, 8, 8))

        def loss_value():
            record = N.forward_pair(x, tx, net)
            loss, _ = N.total_loss(record, target, cfg, stats)
            return loss

        with Tape() as tape:
            TR.train_step(tape, net, x, lambda: tx, target, stats)
            grads = {p.name: tape.grad(p.tensor) for p in net.parameters()}
        for p in net.parameters():
            flat = p.tensor.data.reshape(-1)
            picks = rng.choice(flat.size, size=min(samples_per_param, flat.size), replace=False)
            for i in picks:
                orig = flat[i]
                eps = 1e-5
                flat[i] = orig + eps
                hi = loss_value().item()
                flat[i] = orig - eps
                lo = loss_value().item()
                flat[i] = orig
                numeric = (hi - lo) / (2 * eps)
                analytic = grads[p.name].reshape(-1)[i]
                denom = max(abs(analytic), abs(numeric), 1e-3)
                worst = max(worst, abs(analytic - numeric) / denom)
    results["total_loss_params"] = worst
    return results


def run(modules=("tensor", "snr", "isw", "net")):
    """Run the requested suites; returns (report rows, all_passed)."""
    suites = {"tensor": (suite_tensor, OP_TOL), "snr": (suite_snr, OP_TOL),
              "isw": (suite_isw, OP_TOL), "net": (suite_net, NET_TOL)}
    rows = []
    ok = True
    for mod in modules:
        fn, tol = suites[mod]
        for name, err in fn().items():
            passed = err < tol
            ok = ok and passed
            rows.append({"module": mod, "op": name, "max_rel_err": err,
                         "tol": tol, "passed": passed})
    return rows, ok
